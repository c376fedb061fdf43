"""The rules of the simulation, machine-checked.

* ``src/repro`` neither reads the host clock nor profiles itself, except
  in the files listed here with the reason each needs to. Judging host
  time is ``benchmarks/perf``'s job.
* One OS thread per simulated run: ``threading`` / ``_thread`` are imported
  under ``src/repro`` only by the engine and the process module (the
  backing threads of plain-function bodies) and by the sweep fabric.
* No cleanup that outlives nothing: a plain function that returns a call
  to a generator function from inside ``try … finally`` or ``with`` runs
  its cleanup when the generator is *created*, before its body executes.
* The yield contract: a call to a name defined only as a generator
  function is ``yield from``-ed, returned, handed to a call or a loop, or
  bound to a name that is. Otherwise it does nothing, silently.
* No test-only twins: a blocking method ``X`` beside its ``X_g`` kernel
  in one class is called by name in ``src/`` outside the pair or in
  ``examples/``. Otherwise only tests keep it.
* Every rank body a generator function: a function handed to
  ``run_spmd``, ``spmd_startup`` or a model's ``run`` in ``tests/``,
  ``examples/`` or ``benchmarks/`` yields, unless a per-file allow-list
  that only shrinks still names it.
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


def top_imports(source):
    """Top-level modules imported by ``source`` (text or a parsed tree)."""
    found = set()
    tree = ast.parse(source) if isinstance(source, str) else source
    for node in statements(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def clock_imports(source):
    """Clock modules imported by ``source`` (text or a parsed tree)."""
    return top_imports(source) & CLOCKS


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


# ------------------------------------------------ one OS thread per simulated run
THREADS = {"threading", "_thread"}
#: where ``src/repro`` may import them: the engine and the process module
#: (a plain-function body runs on a backing thread), and the sweep fabric
THREADED = ("sim/engine.py", "sim/process.py", "fabric/")


def thread_findings(files):
    """The files of ``files`` (``path relative to src/repro -> source``)
    that import a thread module outside :data:`THREADED`."""
    return sorted(name for name, tree in files.items()
                  if not name.startswith(THREADED)
                  and top_imports(tree) & THREADS)


def test_threads_are_imported_only_where_allowed():
    assert thread_findings({str(path.relative_to(SRC)): parsed(path)
                            for path in sorted(SRC.rglob("*.py"))}) == []


@pytest.mark.parametrize("files,expected", [
    ({"apps/common.py": "import threading\n"}, ["apps/common.py"]),
    ({"core/hamster.py": "def run():\n    from threading import Thread\n",
      "sim/trace.py": "import _thread as t\n"},
     ["core/hamster.py", "sim/trace.py"]),
    ({"sim/process.py": "import _thread\nimport threading\n",
      "sim/engine.py": "import _thread\n",
      "fabric/scheduler.py": "import threading\n",
      "apps/lu.py": "import os\nthreading = None\n"}, []),
])
def test_the_thread_rule_fails_on_a_seeded_violation(files, expected):
    assert thread_findings(files) == expected


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
    #: the class a method is defined in, "" at module level, None nested
    owner: str = None
    #: every name it calls, lambdas inside it included
    calls: set = field(default_factory=set)


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
    stack = [(tree, None, False, None, None)]
    while stack:
        node, fn, guarded, parent, caller = stack.pop()
        if isinstance(node, _DEFS):
            owner = (parent.name if isinstance(parent, ast.ClassDef)
                     else "" if isinstance(parent, ast.Module) else None)
            fn = _Function(node.name, {a.arg for a in ast.walk(node.args)
                                       if isinstance(a, ast.arg)},
                           stub=all(isinstance(st, (ast.Pass, ast.Raise)) or (
                               isinstance(st, ast.Expr)
                               and isinstance(st.value, ast.Constant))
                               for st in node.body), owner=owner)
            out.append(fn)
            stack.extend((child, fn, False, node, fn) for child in node.body)
            continue
        if isinstance(node, ast.Call) and caller is not None:
            caller.calls.add(_called_name(node))
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
            stack.append((child, fn, guarded, up, caller))
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
    plain; a plain ``X_g`` that only returns generator calls (a send that
    wraps its body in a span only when observed) makes ``X_g`` a generator
    name."""
    fns = [*(fn for _, fns in scanned_functions() for fn in fns), *extra]
    gens = {fn.name for fn in fns if fn.generator}
    while True:
        more = {fn.name for fn in fns if fn.name.endswith("_g") and fn.returns
                and all(r in gens for r in fn.returns)} - gens
        if not more:
            break
        gens |= more
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
    # a plain ``X_g`` that only hands out a generator is one to drive too
    ("def post_g(a):\n    return grant_g(a)\ndef f(s):\n    s.post_g(1)\n",
     ["<seeded>:4 post_g()"]),
    ("def post(a):\n    return grant_g(a)\ndef f(s):\n    s.post(1)\n", []),
])
def test_the_yield_contract_fails_on_a_seeded_violation(seeded, expected):
    fns = functions_of(ast.parse(seeded + _GENS))
    assert dropped_generator_calls(fns, generator_names(fns)[1]) == expected


# ------------------------------------------------------ no test-only twins
def twin_findings(src, callers):
    """``where::Owner.X`` for every method ``X`` defined beside ``X_g`` in
    one class (or module) of ``src`` that nothing keeps: no function of
    ``src`` outside the pair and none of ``callers`` calls ``X`` by name.
    ``src`` is ``(where, functions)`` per file; ``callers`` is more
    functions."""
    found = []
    for where, fns in src:
        scopes = {}
        for fn in fns:
            if fn.owner is not None:
                scopes.setdefault(fn.owner, {})[fn.name] = fn
        for owner, defs in scopes.items():
            for name in sorted(defs):
                if name + "_g" not in defs:
                    continue
                pair = (id(defs[name]), id(defs[name + "_g"]))
                if not any(name in fn.calls for fn in callers) and not any(
                        name in fn.calls and id(fn) not in pair
                        for _, others in src for fn in others):
                    found.append(f"{where}::{owner or '<module>'}.{name}")
    return sorted(found)


def test_no_blocking_twin_only_tests_call():
    """A blocking ``X`` beside its ``X_g`` kernel stays only while the
    program calls it: once every caller in ``src/`` and ``examples/`` has
    moved to the kernel, the twin goes, and its tests run the kernel."""
    src = [(str(path.relative_to(ROOT)), fns)
           for path, fns in scanned_functions() if SRC in path.parents]
    callers = [fn for path, fns in scanned_functions()
               if ROOT / "examples" in path.parents for fn in fns]
    assert twin_findings(src, callers) == []


_TWINS = ("class Bar:\n    def wait(self):\n        return kernel(self.wait_g())\n"
          "    def wait_g(self):\n        yield 1\n")


@pytest.mark.parametrize("seeded,caller,expected", [
    # only the pair itself (and tests, not scanned here) calls it
    (_TWINS, "", ["<seeded>::Bar.wait"]),
    (_TWINS + "def wait_g():\n    yield 2\n", "",
     ["<seeded>::Bar.wait"]),            # the module has no plain wait
    # kept by a call in src outside the pair, or by an example
    (_TWINS + "def body(b):\n    b.wait()\n", "", []),
    (_TWINS, "def main(b):\n    return b.wait()\n", []),
    (_TWINS + "def body(b):\n    f = lambda: b.wait()\n", "", []),
    # a kernel without a blocking twin is no twin
    ("class Bar:\n    def wait_g(self):\n        yield 1\n", "", []),
])
def test_the_twin_rule_fails_on_a_seeded_test_only_twin(seeded, caller,
                                                        expected):
    src = [("<seeded>", functions_of(ast.parse(seeded)))]
    callers = functions_of(ast.parse(caller))
    assert twin_findings(src, callers) == expected


# ---------------------------------------------------- every body a generator
#: launcher -> position of the rank body among its arguments: the runtime's
#: and the startup template's SPMD launch, a model's ``run``, and the
#: tests' ``spmd`` helper, which hands its body straight to ``run_spmd``
LAUNCHERS = {"run_spmd": 0, "spmd_startup": 1, "run": 0, "spmd": 1}

#: Plain rank bodies still handed to a launcher, per file: each runs on a
#: backing thread. A converted body must leave this list, and nothing may
#: join it, so it only shrinks.
PLAIN_BODIES = {
    "benchmarks/test_extension_multidsm.py": {
        "_run.<lambda>",
    },
    "tests/test_adaptive_detection.py": {
        "TestAssumptionLifecycle.test_faults_drop_once_assumed.main",
        "TestAssumptionLifecycle.test_notices_still_flow_while_assumed.main",
        "TestAssumptionLifecycle.test_page_enters_assumption_after_streak.main",
        "TestAssumptionLifecycle.test_remote_pages_never_assumed.main",
        "TestAssumptionLifecycle.test_revalidation_reprotects.main",
        "TestAssumptionLifecycle.test_sor_like_fault_reduction_end_to_end.main",
        "TestAssumptionLifecycle.test_streak_resets_on_quiet_interval.main",
    },
    "tests/test_bench_telemetry.py": {
        "TestEngineCounters.test_events_and_host_time_exposed.main",
    },
    "tests/test_config.py": {
        "TestBuild.test_identical_configs_identical_results.run_once.main",
    },
    "tests/test_consistency.py": {
        "TestConsistencyMgmt.test_check_model.main",
        "TestConsistencyMgmt.test_fence_counts.main",
        "TestConsistencyMgmt.test_native_model_reported.main",
    },
    "tests/test_core_modules.py": {
        "TestCallOverhead.test_hamster_calls_cost_time.main",
        "TestCallOverhead.test_zero_overhead_configuration.main",
        "TestMemoryMgmt.test_collective_alloc_returns_same_array.main",
        "TestMonitoring.test_module_counters_independent.main",
        "TestMonitoring.test_query_all_tree.main",
        "TestMonitoring.test_reset_all.main",
        "TestMonitoring.test_subscription.main",
        "TestSyncMgmt.test_barrier_counts.main",
        "TestSyncMgmt.test_new_lock_ids_unique.main",
        "TestSyncMgmt.test_unlock_unheld_rejected.main",
        "TestTaskMgmt.test_identity.main",
        "TestTaskMgmt.test_spawn_and_join.main",
        "TestTaskMgmt.test_spawn_cost_charged.main",
        "TestTaskMgmt.test_spawned_task_bound_to_rank.main",
        "TestTaskMgmt.test_unknown_task_rejected.main",
        "TestTiming.test_phase_timer.main",
        "TestTiming.test_wtime_is_virtual.main",
    },
    "tests/test_cross_model_equivalence.py": {
        "via_anl.main",
        "via_shmem.main",
    },
    "tests/test_dsm_composite.py": {
        "TestRouting.test_custom_policy.main",
        "TestRouting.test_default_policy_uses_primary.main",
        "TestRouting.test_free_routes_to_owner.main",
        "TestRouting.test_regions_route_to_chosen_system.main",
        "TestSemantics.test_data_correct_across_both_systems.main",
        "TestSemantics.test_stats_merge_children.main",
        "TestSemantics.test_unlock_flushes_secondary_writes.main",
    },
    "tests/test_dsm_jiajia.py": {
        "TestFaultLifecycle.test_flush_reprotects_to_read_only.main",
        "TestFaultLifecycle.test_home_pages_never_fetch.main",
        "TestFaultLifecycle.test_read_fault_fetches_and_sets_read_only.main",
        "TestFaultLifecycle.test_write_fault_creates_twin_and_dirty.main",
        "TestLocks.test_fence_inside_critical_section_keeps_notices_in_scope.main",
        "TestLocks.test_mutual_exclusion_counter.main",
        "TestMultipleWriter.test_diff_traffic_counted.main",
        "TestMultipleWriter.test_false_sharing_merges_at_home.main",
        "TestScopeConsistency.test_barrier_globalizes_all_notices.main",
        "TestScopeConsistency.test_lock_delivers_writes_of_same_scope.main2",
        "TestScopeConsistency.test_own_writes_do_not_invalidate_self.main",
        "TestStats.test_fault_and_fetch_counters.main",
        "TestStats.test_reset_stats.main",
    },
    "tests/test_dsm_scivm.py": {
        "TestAccessPath.test_first_remote_access_pays_mapping_once.main",
        "TestAccessPath.test_local_access_uses_memory_bus_not_sci.main",
        "TestAccessPath.test_remote_access_issues_sci_transactions.main",
        "TestAccessPath.test_run_split_across_page_boundary.main",
        "TestProperties.test_first_touch_home.main",
        "TestSync.test_counter_under_lock.main",
    },
    "tests/test_dsm_smp.py": {
        "TestSmpSemantics.test_bus_contention_shows_up.run.main",
        "TestSmpSemantics.test_locks_and_barrier.main",
        "TestSmpSemantics.test_sync_is_cheap.main",
    },
    "tests/test_export.py": {
        "TestStatsToCsv.test_flattens_tree.<lambda>",
    },
    "tests/test_failure_injection.py": {
        "TestDeadlocks.test_deadlock_error_names_the_blocked_processes.main",
        "TestDeadlocks.test_lock_cycle_detected.main",
        "TestDeadlocks.test_missing_barrier_participant_detected.main",
        "TestMisuseSurfacesCorrectly.test_app_exception_aborts_whole_run.main",
        "TestMisuseSurfacesCorrectly.test_double_unlock_is_sync_error.main",
        "TestNumericalEdges.test_empty_write_is_noop.main",
        "TestNumericalEdges.test_single_rank_platform.main",
        "TestNumericalEdges.test_tiny_arrays_share_one_page.main",
        "TestResourceExhaustion.test_allocation_failure_mid_application.main",
    },
    "tests/test_faults.py": {
        "_exchange",
    },
    "tests/test_faults_property.py": {
        "_kernel",
    },
    "tests/test_hamster_runtime.py": {
        "TestRuntime.test_custom_call_overhead_wins_over_params.main",
        "TestRuntime.test_query_statistics_covers_every_rank.<lambda>",
        "TestRuntime.test_run_spmd_returns_in_rank_order.main",
    },
    "tests/test_integration_portability.py": {
        "TestEveryModelOnEveryPlatform.test_model_instantiates_and_runs.main",
    },
    "tests/test_lock_contention.py": {
        "TestBarrierBehaviour.test_barrier_interleaves_with_locks_safely.main",
        "TestBarrierBehaviour.test_barrier_time_grows_with_ranks_on_ethernet.barrier_cost.main",
        "TestBarrierBehaviour.test_repeated_barriers_stay_cheap_when_clean.main",
        "TestDistributedLockFairness.test_contended_lock_serializes_all_ranks.main",
        "TestDistributedLockFairness.test_independent_locks_do_not_serialize.run.main",
        "TestDistributedLockFairness.test_lock_wait_time_reflects_contention.main",
    },
    "tests/test_misc_coverage.py": {
        "TestRefreshSemantics.test_refresh_forces_refetch_on_swdsm.main",
        "TestRefreshSemantics.test_refresh_noop_on_smp_and_hybrid.main",
        "TestRefreshSemantics.test_refresh_skips_dirty_pages.main",
        "TestTemplates.test_partial_rank_launch.<lambda>",
        "TestTemplates.test_spmd_env_shortcuts.main",
        "TestTemplates.test_spmd_startup_from_inside_simulation_rejected.main",
        "TestTemplates.test_spmd_startup_from_inside_simulation_rejected.main.<lambda>",
    },
    "tests/test_model_base_registry.py": {
        "TestSharedArrayAliases.test_read_write_aliases.main",
        "TestSharedArrayAliases.test_repr_is_informative.main",
    },
    "tests/test_models_shmem_anl.py": {
        "TestAnlMacros.test_clock.main",
        "TestAnlMacros.test_create_and_wait_for_end.main",
        "TestAnlMacros.test_g_free_releases_the_region.main",
        "TestAnlMacros.test_getsub_self_scheduling.main",
        "TestAnlMacros.test_getsub_unknown_handle.main",
        "TestAnlMacros.test_lifecycle_and_gmalloc.main",
        "TestAnlMacros.test_locks_and_alock.main",
        "TestShmemCollectives.test_atomics.main",
        "TestShmemCollectives.test_broadcast.main",
        "TestShmemCollectives.test_collect.main",
        "TestShmemCollectives.test_max_to_all.main",
        "TestShmemCollectives.test_sum_to_all.main",
        "TestShmemCollectives.test_swap.main",
        "TestShmemCollectives.test_wait_until.main",
        "TestShmemRma.test_get_sees_remote_puts_on_swdsm.main",
        "TestShmemRma.test_put_get_ring.main",
        "TestShmemRma.test_single_element_p_g.main",
        "TestShmemRma.test_start_pes_mismatch_rejected.main",
        "TestShmemRma.test_symmetric_slabs_homed_per_pe.main",
    },
    "tests/test_property_more.py": {
        "TestCompositeEquivalence.test_composite_matches_smp.main",
        "run_program.main",
    },
    "tests/test_property_protocol.py": {
        "execute.<lambda>",
    },
    "tests/test_sci_topology.py": {
        "TestEndToEnd.test_hybrid_access_pays_ring_distance.access_time.main",
    },
    "tests/test_shared_array.py": {
        "TestSharedArrayAccess.test_dtype_int.main",
        "TestSharedArrayAccess.test_getitem_returns_private_copy.main",
        "TestSharedArrayAccess.test_integer_index.main",
        "TestSharedArrayAccess.test_len_and_ndim.main",
        "TestSharedArrayAccess.test_negative_index_normalized.main",
        "TestSharedArrayAccess.test_out_of_range_rejected.main",
        "TestSharedArrayAccess.test_pages_for_index.main",
        "TestSharedArrayAccess.test_roundtrip_2d.main",
        "TestSharedArrayAccess.test_scalar_array.main",
        "TestSharedArrayAccess.test_strided_slice_rejected.main",
    },
    "tests/test_sim_process.py": {
        "TestLifecycle.test_a_generator_returned_by_a_plain_callable_runs_on_its_thread.<lambda>",
    },
    "tests/test_span_coalescing.py": {
        "TestDsmFaultSequence.test_boundary_write_faults_both_pages.main",
        "TestDsmFaultSequence.test_fault_sequence_matches_per_page_reference.main",
        "TestDsmFaultSequence.test_mid_page_slice_single_fault.main",
        "TestDsmFaultSequence.test_results_unchanged_by_spans.main",
        "TestDsmFaultSequence.test_second_access_faults_nothing.main",
        "TestDsmFaultSequence.test_zero_length_access_is_free.main",
        "TestSpanGeometry._array.main",
    },
    "tests/test_tools.py": {
        "run_workload.main",
        "tiny_run.main",
    },
}


def _yields(fn):
    """Does ``fn`` itself (not a function nested in it) yield?"""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
        if not isinstance(node, (*_DEFS, ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))
    return False


def plain_bodies(tree):
    """The qualified name of every plain function handed to a launcher in
    ``tree``: a def that does not yield, or a lambda (``<lambda>``), which
    is plain whatever it calls, since a generator it returns is driven on
    its thread. ``partial(fn, ...)`` hands on ``fn``; a body the rule cannot
    name (a call's result, an attribute) is not judged."""
    found = set()
    scopes = [(tree, "", [])]
    while scopes:
        scope, qual, outer = scopes.pop()
        defs, own, stack = {}, [], list(ast.iter_child_nodes(scope))
        while stack:
            node = stack.pop()
            own.append(node)
            if isinstance(node, _DEFS):
                defs.setdefault(node.name, []).append(node)
            if not isinstance(node, (*_DEFS, ast.Lambda, ast.ClassDef)):
                stack.extend(ast.iter_child_nodes(node))
        visible = [(defs, qual), *outer]
        for node in own:
            if isinstance(node, (*_DEFS, ast.ClassDef)):
                scopes.append((node, f"{qual}{node.name}.", outer
                               if isinstance(scope, ast.ClassDef) else visible))
                continue
            at = LAUNCHERS.get(_called_name(node)) if isinstance(
                node, ast.Call) else None
            if at is None or len(node.args) <= at:
                continue
            body = node.args[at]
            if isinstance(body, ast.Call) and _called_name(body) == "partial" \
                    and body.args:
                body = body.args[0]
            if isinstance(body, ast.Lambda):
                found.add(f"{qual}<lambda>")
            elif isinstance(body, ast.Name):
                # the nearest scope that defines the name; in the calling
                # scope itself, only a def made before the call
                where, named = next(((q, d[body.id]) for d, q in visible
                                     if body.id in d), ("", []))
                found.update(f"{where}{fn.name}" for fn in named
                             if not _yields(fn) and (
                                 where != qual or fn.lineno < node.lineno))
    return found


def test_every_rank_body_is_a_generator_function():
    """A body handed to a launcher in ``tests/``, ``examples/`` or
    ``benchmarks/`` runs stackless, like every app and ported model, unless
    :data:`PLAIN_BODIES` still names it."""
    found = {str(path.relative_to(ROOT)): names
             for root in SCANNED[1:] for path in sorted(root.rglob("*.py"))
             for names in [plain_bodies(parsed(path))] if names}
    assert found == PLAIN_BODIES


_BODY = "def body(env):\n    env.barrier()\n"
_GEN = "def gen(env):\n    yield from env.barrier_g()\n"


@pytest.mark.parametrize("seeded,expected", [
    (_BODY + "plat.hamster.run_spmd(body)\n", {"body"}),
    (_BODY + "spmd_startup(h, body, ranks=[0])\nspmd(plat, body)\n",
     {"body"}),
    ("def test(api):\n" + "".join("    " + line + "\n" for line in
                                  (_BODY + "api.run(body)").splitlines()),
     {"test.body"}),
    ("api.run(lambda a: run_sor(a, n=64))\n", {"<lambda>"}),
    (_BODY + "api.run(functools.partial(body, n=3))\n", {"body"}),
    # a def from an enclosing function; a method is no name in its class
    ("def outer(api):\n    def main(a):\n        a.jia_barrier()\n"
     "    def run():\n        return api.run(main)\n", {"outer.main"}),
    ("def test(api):\n    api.run(body)\n" + _BODY, {"body"}),
    ("class T:\n    def main(a):\n        pass\n"
     "    def test(self, api):\n        api.run(main)\n", set()),
    # generator bodies, and calls that start no rank body
    (_GEN + "api.run(gen)\nrun_spmd(partial(gen, 2))\n", set()),
    (_BODY + "engine.run()\nsubprocess.run(['ls'])\napi.run(make(body))\n"
     "spmd_startup(body)\n", set()),
])
def test_the_body_rule_fails_on_a_seeded_plain_body(seeded, expected):
    assert plain_bodies(ast.parse(seeded)) == expected


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
