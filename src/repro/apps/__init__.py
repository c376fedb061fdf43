"""Benchmark applications (Table 1).

The codes of the JiaJia distribution the paper evaluates, reimplemented
against the JiaJia API subset (:mod:`repro.models.jiajia_api`) so that the
identical application runs on every platform — and on both the HAMSTER and
native JiaJia bindings (§5.3/§5.4):

* :mod:`repro.apps.matmult` — matrix multiplication, 1024×1024 (memory bound),
* :mod:`repro.apps.pi` — computation of π by numerical integration,
* :mod:`repro.apps.sor` — successive over-relaxation, 1024×1024, with and
  without locality optimization,
* :mod:`repro.apps.lu` — LU decomposition, 1024×1024, instrumented into the
  all / no-init / core / barrier phases of Figures 2-4,
* :mod:`repro.apps.water` — WATER-style molecular dynamics, 288/343 molecules.

Every app checks its result against a sequential numpy reference computed
from the same seeded input, so the DSM protocols are verified end-to-end on
every benchmark run.
"""

from repro.lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "repro.apps.common": ("AppResult", "APP_TABLE", "get_app"),
    **{f"repro.apps.{app}": (f"run_{app}",)
       for app in ("matmult", "pi", "sor", "lu", "water", "fft")},
})
