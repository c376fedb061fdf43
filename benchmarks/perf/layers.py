"""Host time per layer from a cProfile run the benchmark owns.

A *layer* is a package under ``src/repro``. Every profiled function's
exclusive time goes to exactly one layer:

* a function defined under ``src/repro/<pkg>/`` belongs to ``<pkg>``
  (``dsm/jiajia`` and ``dsm/scivm`` are layers of their own);
* builtins, numpy and the standard library belong to whoever called them:
  their time is folded back along the caller edges cProfile records,
  through other non-repro callers if need be, until it reaches a layer;
* what cannot be folded (no repro caller anywhere up the chain) is
  ``other`` and is reported as ``trace.unattributed_frac``.

So the shares sum to 1. cProfile bills a fixed cost to every call and
none to time inside C, which inflates call-heavy layers (``sim``)
against numpy-heavy ones (``apps``): read the shares as where to look,
and measure a change with tracing off.
"""

from __future__ import annotations

import pstats
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from workloads import ROOT

LAYERS = ("sim", "machine", "memory", "msg", "dsm", "dsm.jiajia",
          "dsm.scivm", "consistency", "core", "models", "apps", "obs",
          "fabric", "bench", "other")

_PKG = str(ROOT / "src" / "repro") + "/"
#: non-repro call chains (numpy wrappers, functools, contextlib) are a
#: handful deep; recursion among them converges geometrically
_FOLD_ROUNDS = 20

Func = Tuple[str, int, str]


def layer_of(filename: str) -> Optional[str]:
    """Layer of a source file under ``src/repro``; None for any other."""
    if not filename.startswith(_PKG):
        return None
    parts = Path(filename[len(_PKG):]).parts
    if len(parts) > 2 and parts[0] == "dsm" and parts[1] in ("jiajia", "scivm"):
        return f"dsm.{parts[1]}"
    return parts[0] if len(parts) > 1 and parts[0] in LAYERS else "other"


def _fold(stats: Dict[Func, tuple], layer: Dict[Func, Optional[str]],
          field: int) -> Dict[Func, Dict[str, float]]:
    """For each function outside repro, the share of it that runs on each
    layer's behalf, weighting its callers by ``field`` of cProfile's
    caller tuples (0 = calls, 2 = own time)."""
    attr: Dict[Func, Dict[str, float]] = {
        f: {} for f, lay in layer.items() if lay is None}
    for _ in range(_FOLD_ROUNDS):
        nxt: Dict[Func, Dict[str, float]] = {}
        for g in attr:
            callers = stats[g][4]
            weight = sum(c[field] for c in callers.values())
            vec: Dict[str, float] = defaultdict(float)
            for caller, c in callers.items():
                w = c[field] / weight if weight else 0.0
                lay = layer.get(caller)
                if lay is not None:
                    vec[lay] += w
                else:
                    for name, share in attr.get(caller, {}).items():
                        vec[name] += w * share
            nxt[g] = vec
        attr = nxt
    return attr


def layer_table(profile: Any) -> Dict[str, Dict[str, float]]:
    """``{layer: {"self_s", "self_frac", "calls"}}`` plus ``"_total"``.

    ``calls`` counts calls that *enter* the layer: the caller is in
    another layer, or is outside ``repro`` and not itself running on this
    layer's behalf (a ``sorted`` calling back into its caller's layer does
    not enter it; the engine resuming an app's generator through the
    builtin ``send`` does). Callers are weighted by call counts, which
    a deterministic simulation repeats exactly (the shell's in-process
    session, with its file I/O and garbage collection, does not quite).
    """
    stats = pstats.Stats(profile).stats
    layer = {f: layer_of(f[0]) for f in stats}
    by_time, by_calls = _fold(stats, layer, 2), _fold(stats, layer, 0)

    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0.0)
    unattributed = 0.0
    for f, (_cc, _nc, tt, _ct, callers) in stats.items():
        lay = layer[f]
        if lay is None:
            folded = 0.0
            for name, share in by_time[f].items():
                self_s[name] += tt * share
                folded += share
            unattributed += tt * max(0.0, 1.0 - folded)
            continue
        self_s[lay] += tt
        for caller, c in callers.items():
            caller_layer = layer.get(caller)
            if caller_layer is None:
                calls[lay] += c[0] * (1.0 - by_calls[caller].get(lay, 0.0))
            elif caller_layer != lay:
                calls[lay] += c[0]
    self_s["other"] += unattributed
    total = sum(self_s.values())
    table = {name: {"self_s": self_s[name],
                    "self_frac": self_s[name] / total if total else 0.0,
                    "calls": round(calls[name])}
             for name in LAYERS}
    table["_total"] = {"self_s": total,
                       "unattributed_frac": unattributed / total if total else 0.0}
    return table
