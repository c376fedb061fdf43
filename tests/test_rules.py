"""The rules of the simulation, machine-checked.

* ``src/repro`` neither reads the host clock nor profiles itself, except
  in the files listed here with the reason each needs to. Judging host
  time is ``benchmarks/perf``'s job.
* No cleanup that outlives nothing: a plain function that returns a call
  to a generator function from inside ``try … finally`` or ``with`` runs
  its cleanup when the generator is *created*, before its body executes.
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
def parsed(path):
    """Each file is parsed once per session, whichever rule reads it."""
    return ast.parse(path.read_text(), str(path))


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
    #: return statements inside the function's own try/finally or with
    guarded_returns: list = field(default_factory=list)


def functions_of(tree):
    """One pass over ``tree``: every function, with what the rule needs."""
    out = []
    stack = [(tree, None, False)]
    while stack:
        node, fn, guarded = stack.pop()
        if isinstance(node, _DEFS):
            fn = _Function(node.name, {a.arg for a in ast.walk(node.args)
                                       if isinstance(a, ast.arg)})
            out.append(fn)
            stack.extend((child, fn, False) for child in node.body)
            continue
        if isinstance(node, (ast.Lambda, ast.ClassDef)):
            fn = None                      # a scope of its own
        elif fn is not None:
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                fn.generator = True
            elif isinstance(node, ast.Return) and guarded:
                fn.guarded_returns.append(node)
            guarded = guarded or isinstance(node, (ast.With, ast.AsyncWith)) \
                or (isinstance(node, ast.Try) and bool(node.finalbody))
        for child in ast.iter_child_nodes(node):
            stack.append((child, fn, guarded))
    return out


@lru_cache(maxsize=None)
def scanned_functions():
    """(path, functions) for every scanned file."""
    return tuple((path, functions_of(parsed(path)))
                 for root in SCANNED for path in sorted(root.rglob("*.py")))


def generator_names(extra=()):
    """(names of generator functions, names defined *only* as such) over
    the scanned tree plus the ``extra`` functions."""
    gens, plain = set(), set()
    for fn in [*(fn for _, fns in scanned_functions() for fn in fns), *extra]:
        (gens if fn.generator else plain).add(fn.name)
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


#: benchmarks/test_ablation_locality.py's helper before the swap moved
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
