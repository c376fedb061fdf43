"""The paper's claims (§5: Figures 2-4, their cost-model sensitivity and
the home-placement ablation), measured at ``REPRO_SCALE`` and judged by
the one claims table, :data:`repro.bench.runners.CLAIMS`.

Each input a claim names is measured once per pytest run:

* a preset — every figure label on it, through the JiaJia API (the
  native binding on ``native-jiajia-*``);
* ``"<preset> eth xf"`` / ``"<preset> sci xf"`` — the sensitivity labels
  on it with the Ethernet latency (the SCI read and write latencies)
  scaled by ``f``;
* ``"<preset> homes"`` — SOR opt's computation (6 iterations) under
  three home placements: block (owner-computes), cyclic (JiaJia's
  default) and single-home (every page on rank 0).

A claim excepted at this scale must still fail: the exception is strict,
and EXPERIMENTS.md's "Scale exceptions" table gives each one's numbers.
"""

import functools

import pytest

from repro.apps.common import merge_rank_results
from repro.bench.runners import CLAIMS, run_suite
from repro.config import preset
from repro.memory.layout import block, cyclic, single_home
from repro.models.jiajia_api import JiaJiaApi

SENSITIVITY_LABELS = ["MatMult", "PI", "SOR opt", "SOR", "LU all"]
LATENCIES = {"eth": ("eth_latency",),
             "sci": ("sci_read_latency", "sci_write_latency")}
PLACEMENTS = {"block": block, "cyclic": cyclic,
              "single-home": lambda: single_home(0)}


def _homes(platform: str, scale: float) -> dict:
    """placement -> SOR's virtual seconds and diffs created."""
    # The app only exposes block/cyclic via its locality flag; to test
    # arbitrary placements, substitute the distribution factory it uses.
    # The swap spans the whole run: each rank body is a generator, so a
    # restore inside it would fire when the generator is created, before
    # any rank allocates a page.
    import repro.apps.sor as sor_mod

    n = max(64, (int(1024 * scale) // 16) * 16)
    out = {}
    for name, factory in PLACEMENTS.items():
        plat = preset(platform).build()
        sor_mod.block = factory
        try:
            results = JiaJiaApi(plat.hamster).run(
                lambda a: sor_mod.run_sor(a, n=n, iterations=6, locality=True))
        finally:
            sor_mod.block = block
        merged = merge_rank_results(results)
        assert merged.verified
        out[name] = {"seconds": merged.phases["total"],
                     "diffs": sum(plat.dsm.stats(r).get("diffs_created", 0)
                                  for r in range(4))}
    return out


@functools.lru_cache(maxsize=None)
def measure(name: str, scale: float):
    """The value of the input ``name`` at ``scale``."""
    platform, _, knob = name.partition(" ")
    if knob == "homes":
        return _homes(platform, scale)
    cfg = preset(platform)
    labels = None
    if knob:
        latency, _, factor = knob.partition(" x")
        base = cfg.params()
        cfg.param_overrides.update({p: getattr(base, p) * float(factor)
                                    for p in LATENCIES[latency]})
        labels = SENSITIVITY_LABELS
    return run_suite(cfg, scale=scale, native=platform.startswith("native"),
                     labels=labels)


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.key)
def test_claim(claim, scale):
    if scale not in claim.scales:
        pytest.skip(f"stated at scales {claim.scales} only")
    check = claim.evaluate({name: measure(name, scale)
                            for name in claim.inputs}, scale)
    print(check.describe())
    assert check.passed, check.describe()
