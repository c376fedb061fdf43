"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import inspect
import os
from contextlib import contextmanager

import pytest
from hypothesis import settings

from repro.config import preset
from repro.sim.engine import Engine
from repro.sim.process import SimProcess

# Tier-1 is a gate, so its pass count must mean the same on every machine:
# the default profile derives each test's examples from the test itself
# rather than from a random seed and the local example database.
# HYPOTHESIS_PROFILE=fuzz restores randomised exploration (CI runs it as
# a non-blocking step).
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("fuzz", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))


@pytest.fixture
def engine() -> Engine:
    return Engine()


def run_procs(engine: Engine, *fns, names=None):
    """Start one process per function (each receives its SimProcess), run
    the engine to completion, return the results in order."""
    procs = []
    for i, fn in enumerate(fns):
        name = names[i] if names else f"p{i}"
        procs.append(SimProcess(engine, fn, name=name).start())
    engine.run()
    return [p.result for p in procs]


@contextmanager
def on_threads():
    """Run every generator-function body started inside the ``with`` on a
    backing thread, trampolined by :meth:`SimProcess.drive` — the path of a
    plain-callable body and of ``api.run(lambda a: app(a, ...))``. Yields
    the list of processes so started."""
    started = []
    real_start = SimProcess.start

    def start(self, delay=0.0):
        fn = self._fn
        if inspect.isgeneratorfunction(fn):
            self._fn = lambda proc, *args, **kwargs: \
                proc.drive(fn(proc, *args, **kwargs))
            started.append(self)
        return real_start(self, delay)

    SimProcess.start = start
    try:
        yield started
    finally:
        SimProcess.start = real_start


def spmd(plat, fn, *args):
    """Run ``fn(env, *args)`` on every rank of a built platform; a
    generator-function ``fn`` runs stackless."""
    return plat.hamster.run_spmd(fn, args=args)


@pytest.fixture
def smp2():
    return preset("smp-2").build()


@pytest.fixture
def swdsm4():
    return preset("sw-dsm-4").build()


@pytest.fixture
def hybrid4():
    return preset("hybrid-4").build()
