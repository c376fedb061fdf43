"""Golden-run snapshot tests — the differential hard gate, in-tree.

Every Fig 2–4 scenario and every chaos scenario (the PR-1 fault plans)
must reproduce its recorded pre-overhaul capture bit for bit: virtual
times, event counts, trace digests, result checksums. A failure here
means a scheduler or cost-path change altered *simulated* behaviour —
host-side optimizations are expected to leave every field untouched.
See docs/performance.md for how to investigate a failure and when
re-recording (``python -m repro.bench.diffcheck --record``) is
legitimate.
"""

from __future__ import annotations

import pytest

from repro.bench import diffcheck

_SCENARIOS = {sc.id: sc for sc in diffcheck.scenarios()}


@pytest.fixture(scope="module")
def goldens():
    return diffcheck.load_goldens()


def test_every_scenario_has_a_golden(goldens):
    missing = sorted(set(_SCENARIOS) - set(goldens["scenarios"]))
    assert missing == [], f"run --record for: {missing}"


@pytest.mark.parametrize("procs", ["thread", "generator"])
@pytest.mark.parametrize("scenario_id", sorted(_SCENARIOS))
def test_scenario_bit_identical(scenario_id, procs, goldens):
    """Every scenario, under BOTH process backends, against the same
    pre-overhaul goldens: the continuation scheduler must reproduce the
    thread-era virtual-time behaviour bit for bit."""
    problems = diffcheck.check_scenario(_SCENARIOS[scenario_id], goldens,
                                        procs=procs)
    assert problems == []


@pytest.mark.parametrize("scenario_id",
                         [sid for sid in sorted(_SCENARIOS)
                          if sid.startswith("chaos/")])
def test_chaos_dual_run_thread_vs_generator(scenario_id):
    """Fault plans replay identically on both process backends: crash
    cleanup, retransmission timing, and the typed outcome included."""
    sc = _SCENARIOS[scenario_id]
    ref = diffcheck.capture(sc, procs="thread")
    new = diffcheck.capture(sc, procs="generator")
    assert diffcheck.diff_records(new, ref) == []


def test_figure_dual_procs_spot():
    """One figure scenario through both process backends in one invocation
    (the full 45-scenario sweep runs in CI's --dual-procs job)."""
    sc = _SCENARIOS["fig/sw-dsm-2/PI"]
    ref = diffcheck.capture(sc, procs="thread")
    new = diffcheck.capture(sc, procs="generator")
    assert diffcheck.diff_records(new, ref) == []
