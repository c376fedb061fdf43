"""Shared configuration for the benchmark suite.

``REPRO_SCALE`` scales the working sets (1.0 = the paper's Table 1 sizes).
The default of 0.25 keeps a full ``pytest benchmarks/`` run to seconds. The
paper's claims are held at 0.05, 0.25 and 1.0; the few that fail at a
smaller scale are strict exceptions in ``repro.bench.runners.CLAIMS`` and
EXPERIMENTS.md's "Scale exceptions" table. The recorded EXPERIMENTS.md
numbers were produced at scale 1.0.
"""

import os

import pytest


def bench_scale() -> float:
    return float(os.environ.get("REPRO_SCALE", "0.25"))


@pytest.fixture(scope="session")
def scale() -> float:
    return bench_scale()
