"""The rules of the simulation, machine-checked.

* ``src/repro`` neither reads the host clock nor profiles itself, except
  in the files listed here with the reason each needs to. Judging host
  time is ``benchmarks/perf``'s job.
* No cleanup that outlives nothing: a plain function that returns a call
  to a generator function from inside ``try … finally`` or ``with`` runs
  its cleanup when the generator is *created*, before its body executes.
* The yield contract: a call to a name defined only as a generator
  function is ``yield from``-ed, returned, handed to a call or a loop, or
  bound to a name that is. Otherwise it does nothing, silently.
* No fields for an observer that is off: in the packages every simulated
  event passes through, a ``.emit(`` / ``.record(`` call that passes
  keyword fields, and every ``.span(`` call, sits under its receiver's
  ``.enabled`` test (an ``if`` or a conditional expression), so a disabled
  tracer or observer costs one attribute test, not a dict of fields or a
  call.
* One clock: only ``sim/engine.py`` assigns an ``._now``.
* No unseeded randomness under ``src/repro``: no ``random.Random()``
  without a seed, no call of the ``random`` module's global generator, no
  ``np.random.default_rng()`` without a seed, no legacy ``np.random``
  global.
* Layering: the simulator and its observers (``sim`` … ``models``,
  ``obs``) load without the shell — no import of ``repro.bench``,
  ``repro.fabric`` or ``repro.cli`` runs when one of their modules loads,
  except under ``if TYPE_CHECKING:``.
"""

import ast
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
SCANNED = (SRC, ROOT / "examples", ROOT / "benchmarks", ROOT / "tests")
CLOCKS = {"time", "timeit", "cProfile", "profile", "pstats"}
ALLOWED = {
    "sim/engine.py": "the perf_counter pair around Engine.run, host hook",
    "fabric/worker.py": "monotonic: heartbeat pacing",
    "fabric/scheduler.py": "monotonic: timeouts, stalls, elapsed",
    "fabric/journal.py": "monotonic: the t stamp of every line",
    "bench/experiments.py": "elapsed-time banner",
}


@lru_cache(maxsize=None)
def source(path):
    return path.read_text()


@lru_cache(maxsize=None)
def parsed(path):
    """Each file is parsed once per session, whichever rule reads it."""
    return ast.parse(source(path), str(path))


_BLOCKS = (ast.stmt, ast.excepthandler, *(
    [ast.match_case] if hasattr(ast, "match_case") else []))


def statements(tree):
    """Every statement of ``tree``; expressions are not walked."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(child for child in ast.iter_child_nodes(node)
                     if isinstance(child, _BLOCKS))


def clock_imports(source):
    """Clock modules imported by ``source`` (text or a parsed tree)."""
    found = set()
    tree = ast.parse(source) if isinstance(source, str) else source
    for node in statements(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found & CLOCKS


def test_host_clock_is_imported_only_where_allowed():
    found = {str(path.relative_to(SRC)): sorted(clock_imports(parsed(path)))
             for path in sorted(SRC.rglob("*.py"))}
    found = {name: mods for name, mods in found.items() if mods}
    assert set(found) == set(ALLOWED), found  # a stale entry fails too


def test_the_check_fails_on_a_seeded_violation():
    for seeded in ("import time", "import os, time as _t",
                   "from time import perf_counter", "from timeit import timeit",
                   "def f():\n    import cProfile", "import pstats"):
        assert clock_imports(seeded), seeded
    assert not clock_imports("import os\nfrom repro.sim import trace\ntime = 3")


# ------------------------------------------------- cleanup that outlives nothing
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


@dataclass
class _Function:
    name: str
    params: set
    generator: bool = False
    #: the body is a docstring, ``pass``, ``...`` or a ``raise``
    stub: bool = False
    #: the called name of each return value (None if it is not a call)
    returns: list = field(default_factory=list)
    #: return statements inside the function's own try/finally or with
    guarded_returns: list = field(default_factory=list)
    #: (name, call) of every call whose value nothing here consumes
    dropped_calls: list = field(default_factory=list)
    #: (bound name, name, call) of every call bound to a plain name
    bound_calls: list = field(default_factory=list)
    #: names whose value is consumed (yield from, return, argument, loop)
    consumed: set = field(default_factory=set)


def _consumes(parent, node):
    """Does ``parent`` drive, hand on or return the value of ``node``?"""
    if isinstance(parent, (ast.YieldFrom, ast.Return, ast.Await)):
        return True
    if isinstance(parent, ast.Call):
        return node is not parent.func
    if isinstance(parent, (ast.For, ast.AsyncFor, ast.comprehension)):
        return node is parent.iter
    # a lambda returns it, ``with`` enters it, a tuple or list hands it on
    return isinstance(parent, (ast.Lambda, ast.withitem, ast.Tuple, ast.List))


def _called_name(call):
    func = call.func
    return getattr(func, "id", None) or getattr(func, "attr", None)


def functions_of(tree):
    """One pass over ``tree``: every function, with what the rules need."""
    out = []
    stack = [(tree, None, False, None)]
    while stack:
        node, fn, guarded, parent = stack.pop()
        if isinstance(node, _DEFS):
            fn = _Function(node.name, {a.arg for a in ast.walk(node.args)
                                       if isinstance(a, ast.arg)},
                           stub=all(isinstance(st, (ast.Pass, ast.Raise)) or (
                               isinstance(st, ast.Expr)
                               and isinstance(st.value, ast.Constant))
                               for st in node.body))
            out.append(fn)
            stack.extend((child, fn, False, node) for child in node.body)
            continue
        if isinstance(node, (ast.Lambda, ast.ClassDef)):
            fn = None                      # a scope of its own
        elif fn is not None:
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                fn.generator = True
            elif isinstance(node, ast.Return):
                fn.returns.append(_called_name(node.value)
                                  if isinstance(node.value, ast.Call) else None)
                if guarded:
                    fn.guarded_returns.append(node)
            elif isinstance(node, ast.Name) and _consumes(parent, node):
                fn.consumed.add(node.id)
            elif isinstance(node, ast.Call) and not _consumes(parent, node):
                name = _called_name(node)
                if isinstance(parent, ast.Assign) and len(parent.targets) == 1 \
                        and isinstance(parent.targets[0], ast.Name):
                    fn.bound_calls.append((parent.targets[0].id, name, node))
                elif name is not None:
                    fn.dropped_calls.append((name, node))
            guarded = guarded or isinstance(node, (ast.With, ast.AsyncWith)) \
                or (isinstance(node, ast.Try) and bool(node.finalbody))
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.keyword):
                child = child.value        # an argument like any other
            # either branch of ``a if c else b`` goes where the whole goes
            up = parent if isinstance(node, ast.IfExp) \
                and child is not node.test else node
            stack.append((child, fn, guarded, up))
    return out


@lru_cache(maxsize=None)
def scanned_functions():
    """(path, functions) for every scanned file."""
    return tuple((path, functions_of(parsed(path)))
                 for root in SCANNED for path in sorted(root.rglob("*.py")))


def generator_names(extra=()):
    """(names of generator functions, names defined *only* as such) over
    the scanned tree plus the ``extra`` functions. An abstract stub, and a
    plain function that only returns a generator call, do not make a name
    plain."""
    fns = [*(fn for _, fns in scanned_functions() for fn in fns), *extra]
    gens = {fn.name for fn in fns if fn.generator}
    plain = {fn.name for fn in fns if not fn.generator and not fn.stub
             and not (fn.returns and all(r in gens for r in fn.returns))}
    return gens, gens - plain


def cleanup_findings(functions, gens, only_gens, where="<seeded>"):
    """``where:line name()`` for every generator call a plain function
    returns from inside its own cleanup block."""
    found = []
    for fn in functions:
        if fn.generator:
            continue
        for ret in fn.guarded_returns:
            func = getattr(ret.value, "func", None)
            if isinstance(func, ast.Name):
                hit, name = func.id in gens and func.id not in fn.params, func.id
            elif isinstance(func, ast.Attribute):
                hit, name = func.attr in only_gens, func.attr
            else:
                continue
            if hit:
                found.append(f"{where}:{ret.lineno} {name}()")
    return sorted(found)


def test_no_generator_call_is_returned_from_inside_cleanup():
    gens, only_gens = generator_names()
    found = [f for path, fns in scanned_functions()
             for f in cleanup_findings(fns, gens, only_gens,
                                       str(path.relative_to(ROOT)))]
    assert found == []


#: The home-placement ablation's helper before the swap moved
#: around the whole run: every placement silently ran with block homes.
UNFIXED_ABLATION = '''
def _sor_with_dist(api, sor_mod, dist_factory, n):
    saved_block, saved_cyclic = sor_mod.block, sor_mod.cyclic
    sor_mod.block = dist_factory
    try:
        return sor_mod.run_sor(api, n=n, iterations=6, locality=True)
    finally:
        sor_mod.block = saved_block
        sor_mod.cyclic = saved_cyclic
'''


@pytest.mark.parametrize("seeded,expected", [
    (UNFIXED_ABLATION, ["<seeded>:6 run_sor()"]),
    ("def f(lock):\n    with lock:\n        return _step_g()\n"
     "def _step_g():\n    yield 1\n", ["<seeded>:3 _step_g()"]),
    # callbacks passed in, ambiguous attributes, generators themselves,
    # and returns outside the cleanup block are all fine
    ("def f(body):\n    try:\n        return body()\n    finally:\n"
     "        pass\n", []),
    ("def f(fh):\n    with fh:\n        return fh.read()\n", []),
    ("def f():\n    try:\n        return (yield from run_sor())\n"
     "    finally:\n        pass\n", []),
    ("def f():\n    try:\n        pass\n    finally:\n        pass\n"
     "    return run_sor()\n", []),
])
def test_the_cleanup_rule_fails_on_a_seeded_violation(seeded, expected):
    fns = functions_of(ast.parse(seeded))
    assert cleanup_findings(fns, *generator_names(fns)) == expected


# ------------------------------------------------------------ yield contract
def dropped_generator_calls(functions, only_gens, where="<seeded>"):
    """``where:line name()`` for every call of a name defined only as a
    generator function whose generator nothing drives: its value is not
    ``yield from``-ed, returned, handed to a call (a spawn, ``partial``, a
    loop) or iterated, and not bound to a name that is. Such a call does
    nothing: a bare ``barrier_g()`` synchronises no one."""
    found = []
    for fn in functions:
        calls = fn.dropped_calls + [(name, call) for bound, name, call
                                    in fn.bound_calls if bound not in fn.consumed]
        found += [f"{where}:{call.lineno} {name}()" for name, call in calls
                  if name in only_gens and not (isinstance(call.func, ast.Name)
                                                and name in fn.params)]
    return sorted(found)


def test_every_generator_call_is_driven():
    _, only_gens = generator_names()
    found = [f for path, fns in scanned_functions()
             for f in dropped_generator_calls(fns, only_gens,
                                              str(path.relative_to(ROOT)))]
    assert found == []


_GENS = "def barrier_g():\n    yield 1\ndef grant_g(n):\n    yield n\n"


@pytest.mark.parametrize("seeded,expected", [
    ("def f(s):\n    s.barrier_g()\n", ["<seeded>:2 barrier_g()"]),
    ("def f():\n    g = grant_g(1)\n    yield 2\n", ["<seeded>:2 grant_g()"]),
    ("def f():\n    yield barrier_g()\n", ["<seeded>:2 barrier_g()"]),
    ("def f(a):\n    a.x = barrier_g()\n", ["<seeded>:2 barrier_g()"]),
    # driven, returned, handed on, iterated or entered
    ("def f(s):\n    yield from s.barrier_g()\n    return grant_g(1)\n", []),
    ("def f(e):\n    g = grant_g(1)\n    e.spawn(g)\n    h = barrier_g()\n"
     "    yield from h\n", []),
    ("def f(e):\n    e.kernel(barrier_g())\n    e.go(body=grant_g(2))\n", []),
    ("def f():\n    for x in grant_g(3):\n        pass\n"
     "    with barrier_g():\n        pass\n    yield ('spawn', grant_g(4))\n", []),
    ("def f(grant_g):\n    grant_g(1)\n", []),      # a callback
    ("def f(x):\n    with barrier_g() if x else y():\n        pass\n", []),
    ("def f(x):\n    barrier_g() if x else None\n", ["<seeded>:2 barrier_g()"]),
    ("def f():\n    barrier()\n", []),
])
def test_the_yield_contract_fails_on_a_seeded_violation(seeded, expected):
    fns = functions_of(ast.parse(seeded + _GENS))
    assert dropped_generator_calls(fns, generator_names(fns)[1]) == expected


# ------------------------------------------- no fields for an observer that is off
HOT_PACKAGES = ("sim", "machine", "memory", "msg", "dsm", "core", "models")
_OBSERVER_CALLS = {"emit", "span", "record"}
_SCOPES = (*_DEFS, ast.Lambda)


def _enabled_in(test):
    """Receivers whose ``.enabled`` must be true for ``test`` to hold."""
    parts = (test.values if isinstance(test, ast.BoolOp)
             and isinstance(test.op, ast.And) else [test])
    return {ast.dump(part.value) for part in parts
            if isinstance(part, ast.Attribute) and part.attr == "enabled"}


def unguarded_observer_calls(tree, where="<seeded>"):
    """``where:line receiver.call()`` for every observer call with keyword
    fields, and every ``.span()`` (which records a span even without
    fields), that its receiver's ``.enabled`` test does not guard."""
    found = []
    stack = [(tree, frozenset())]
    while stack:
        node, guards = stack.pop()
        if isinstance(node, (ast.If, ast.IfExp)):
            inner = guards | _enabled_in(node.test)
            body, orelse = ((node.body, node.orelse) if isinstance(node, ast.If)
                            else ([node.body], [node.orelse]))
            stack.append((node.test, guards))
            stack.extend((child, inner) for child in body)
            stack.extend((child, guards) for child in orelse)
            continue
        if isinstance(node, _SCOPES):
            guards = frozenset()            # a test outside does not run here
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr in _OBSERVER_CALLS
              and (node.keywords or node.func.attr == "span")
              and ast.dump(node.func.value) not in guards):
            found.append(f"{where}:{node.lineno} {ast.unparse(node.func)}()")
        stack.extend((child, guards) for child in ast.iter_child_nodes(node))
    return sorted(found)


def test_observer_fields_are_built_only_when_enabled():
    found = [f for pkg in HOT_PACKAGES
             for path in sorted((SRC / pkg).rglob("*.py"))
             for f in unguarded_observer_calls(parsed(path),
                                               str(path.relative_to(ROOT)))]
    assert found == []


@pytest.mark.parametrize("seeded,expected", [
    ("trace.emit('net.send', src=1)\n", ["<seeded>:1 trace.emit()"]),
    ("with self.engine.obs.span('dsm.lock', rank=r):\n    pass\n",
     ["<seeded>:1 self.engine.obs.span()"]),
    # the guard must test the call's own receiver, and the call must sit
    # in the guarded branch, in the same function
    ("if obs.enabled:\n    trace.emit('x', a=1)\n", ["<seeded>:2 trace.emit()"]),
    ("if not obs.enabled:\n    pass\nelse:\n    obs.record('x', begin=0)\n",
     ["<seeded>:4 obs.record()"]),
    ("if obs.enabled:\n    def f():\n        obs.span('x', a=1)\n",
     ["<seeded>:3 obs.span()"]),
    # guarded, or nothing to build
    ("if trace.enabled and n:\n    trace.emit('x', a=1)\n", []),
    ("with (obs.span('x', a=1) if obs.enabled else NULL_SPAN):\n    pass\n",
     []),
    ("if self.engine.trace.enabled:\n"
     "    self.engine.trace.emit('hb', node=1)\n", []),
    ("with obs.span('svc.barrier'):\n    pass\n",
     ["<seeded>:1 obs.span()"]),
    ("with obs.span('x') if obs.enabled else NULL_SPAN:\n    pass\n", []),
])
def test_the_observer_rule_fails_on_a_seeded_violation(seeded, expected):
    assert unguarded_observer_calls(ast.parse(seeded)) == expected


# ---------------------------------------------------------------- one clock
def clock_writes(tree, where="<seeded>"):
    """``where:line target`` for every assignment to an ``._now``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = [elt for t in node.targets for elt in
                       getattr(t, "elts", [t])]   # a, x._now = ...
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        found += [f"{where}:{node.lineno} {ast.unparse(t)}" for t in targets
                  if isinstance(t, ast.Attribute) and t.attr == "_now"]
    return sorted(found)


def test_only_the_engine_sets_the_clock():
    engine = SRC / "sim" / "engine.py"
    found = [f for root in SCANNED for path in sorted(root.rglob("*.py"))
             if path != engine and "_now" in source(path)
             for f in clock_writes(parsed(path), str(path.relative_to(ROOT)))]
    assert found == []


# ------------------------------------------------------ seeded randomness only
_SEEDABLE = {"random": {"Random"},
             "np.random": {"default_rng", "Generator", "RandomState",
                           "SeedSequence", "PCG64", "Philox", "MT19937",
                           "SFC64"}}


def _rng_owner(func):
    """``random`` / ``np.random`` for a call on those modules, else None."""
    owner = func.value
    if isinstance(owner, ast.Name) and owner.id == "random":
        return "random"
    if (isinstance(owner, ast.Attribute) and owner.attr == "random"
            and isinstance(owner.value, ast.Name)
            and owner.value.id in ("np", "numpy")):
        return "np.random"
    return None


def unseeded_rngs(tree, where="<seeded>"):
    """``where:line call()`` for every generator built without a seed and
    every call of a module-global generator."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            continue
        owner = _rng_owner(node.func)
        if owner is None:
            continue
        seed = node.args[0] if node.args else next(
            (kw.value for kw in node.keywords), None)
        unseeded = seed is None or getattr(seed, "value", 0) is None
        if node.func.attr not in _SEEDABLE[owner] or unseeded:
            found.append(f"{where}:{node.lineno} {ast.unparse(node.func)}()")
    return sorted(found)


def test_no_unseeded_randomness_under_src():
    found = [f for path in sorted(SRC.rglob("*.py"))
             if "random" in source(path)
             for f in unseeded_rngs(parsed(path), str(path.relative_to(ROOT)))]
    assert found == []


# ------------------------------------------------------------------ layering
INNER = ("sim", "machine", "memory", "msg", "dsm", "core", "models", "obs")
SHELL = ("repro.bench", "repro.fabric", "repro.cli")


def _is_shell(module):
    return any(module == s or module.startswith(s + ".") for s in SHELL)


def shell_imports(tree, where="<seeded>"):
    """``where:line module`` for every import of the shell that runs when
    the module loads: function bodies and ``if TYPE_CHECKING:`` do not."""
    found = []
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, _DEFS):
            continue
        if isinstance(node, ast.If) and getattr(
                node.test, "id", getattr(node.test, "attr", None)) \
                == "TYPE_CHECKING":
            stack.extend(node.orelse)
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module, *(f"{node.module}.{alias.name}"
                                    for alias in node.names)]
        else:
            stack.extend(child for child in ast.iter_child_nodes(node)
                         if isinstance(child, _BLOCKS))
            continue
        shell = sorted(n for n in names if _is_shell(n))
        if shell:
            found.append(f"{where}:{node.lineno} {shell[0]}")
    return sorted(found)


def test_inner_layers_load_without_the_shell():
    found = [f for pkg in INNER
             for path in sorted((SRC / pkg).rglob("*.py"))
             for f in shell_imports(parsed(path), str(path.relative_to(ROOT)))]
    assert found == []


@pytest.mark.parametrize("rule,seeded,expected", [
    (clock_writes, "engine._now = 1.0\n", ["<seeded>:1 engine._now"]),
    (clock_writes, "self.engine._now += dt\n",
     ["<seeded>:1 self.engine._now"]),
    (clock_writes, "t, e._now = 1, 2\n", ["<seeded>:1 e._now"]),
    (clock_writes, "clock._now: float = 0.0\n", ["<seeded>:1 clock._now"]),
    (clock_writes, "now = engine._now\nself._now_s = 1\n", []),
    (unseeded_rngs, "random.Random()\n", ["<seeded>:1 random.Random()"]),
    (unseeded_rngs, "random.Random(None)\n", ["<seeded>:1 random.Random()"]),
    (unseeded_rngs, "random.shuffle(order)\n",
     ["<seeded>:1 random.shuffle()"]),
    (unseeded_rngs, "x = random.random()\n", ["<seeded>:1 random.random()"]),
    (unseeded_rngs, "np.random.default_rng()\n",
     ["<seeded>:1 np.random.default_rng()"]),
    (unseeded_rngs, "numpy.random.seed(3)\nnp.random.rand(4)\n",
     ["<seeded>:1 numpy.random.seed()", "<seeded>:2 np.random.rand()"]),
    (unseeded_rngs, "random.Random(f'{seed}/msg').random()\n"
     "np.random.default_rng(seed=1).random((4, 4))\nrng.shuffle(x)\n", []),
    # the profile and trace-summary modules as they stood outside obs
    (shell_imports, "from repro.bench.report import render_table\n",
     ["<seeded>:1 repro.bench.report"]),
    (shell_imports, "import repro.fabric.journal\nfrom repro import cli\n",
     ["<seeded>:1 repro.fabric.journal", "<seeded>:2 repro.cli"]),
    (shell_imports, "try:\n    from repro.bench import telemetry\n"
     "except ImportError:\n    pass\nclass A:\n    import repro.cli\n",
     ["<seeded>:2 repro.bench", "<seeded>:6 repro.cli"]),
    (shell_imports, "if TYPE_CHECKING:\n"
     "    from repro.fabric.journal import JournalState\n"
     "def render():\n    from repro.bench.report import render_table\n"
     "from repro.obs.export import counter\nimport repro.sim.engine\n", []),
])
def test_clock_rng_and_layering_rules_fail_on_a_seeded_violation(
        rule, seeded, expected):
    assert rule(ast.parse(seeded)) == expected
