#!/usr/bin/env python
"""Portability demo: one SOR solver, every platform, identical results.

This is the paper's §5.4 experiment in miniature: the *identical* benchmark
code (written against the JiaJia API subset) is executed on the SMP, the
SW-DSM Beowulf cluster, and the SCI hybrid-DSM cluster. Only the cluster
configuration changes between runs — here literally a config-file string —
and the numerical results agree bit for bit while the performance varies by
platform. The locality-optimized and unoptimized variants show which
platform depends on home placement (SW-DSM) and which shrugs it off
(hybrid).
"""

from functools import partial

from repro.apps import run_sor
from repro.apps.common import merge_rank_results
from repro.config import loads
from repro.models.jiajia_api import JiaJiaApi

N = 256
ITERATIONS = 6

CONFIG_FILES = {
    "SMP (2 CPUs)": """
        [cluster]
        platform = smp
        nodes = 2
        [hamster]
        dsm = smp
    """,
    "SW-DSM (4 nodes, Ethernet)": """
        [cluster]
        platform = beowulf
        nodes = 4
        [hamster]
        dsm = jiajia
    """,
    "Hybrid DSM (4 nodes, SCI)": """
        [cluster]
        platform = sci
        nodes = 4
        [hamster]
        dsm = scivm
    """,
}


def run_on(config_text: str, locality: bool):
    plat = loads(config_text).build()
    api = JiaJiaApi(plat.hamster)
    results = api.run(partial(run_sor, n=N, iterations=ITERATIONS,
                              locality=locality))
    merged = merge_rank_results(results)
    assert merged.verified, "SOR result diverged from the sequential reference"
    return merged


if __name__ == "__main__":
    print(f"red-black SOR, {N}x{N} grid, {ITERATIONS} iterations\n")
    header = f"{'platform':<30} {'optimized':>12} {'unoptimized':>12} {'checksum':>14}"
    print(header)
    print("-" * len(header))
    checksums = set()
    for name, config in CONFIG_FILES.items():
        opt = run_on(config, locality=True)
        unopt = run_on(config, locality=False)
        checksums.add((opt.checksum, unopt.checksum))
        print(f"{name:<30} {opt.phases['total']*1e3:>10.2f}ms "
              f"{unopt.phases['total']*1e3:>10.2f}ms {opt.checksum:>14.4f}")
    assert len(checksums) == 1, "platforms disagreed on the result!"
    print("\nidentical numerical results on every platform; only the "
          "configuration file changed.")
