"""Platform-independent timing services (§4.4).

The paper augments the HAMSTER interface with services independent of the
parallel environment, the prime example being application timing. In the
simulation these read the virtual clock, which is exactly what the
benchmarks report.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import HamsterError

__all__ = ["TimingServices", "PhaseTimer"]


class PhaseTimer:
    """Accumulating start/stop timer for one named application phase."""

    def __init__(self, clock) -> None:
        self._clock = clock
        self.total = 0.0
        self.count = 0
        self._started_at: Optional[float] = None

    def start(self) -> None:
        if self._started_at is not None:
            raise HamsterError("timer already running")
        self._started_at = self._clock()

    def stop(self) -> float:
        if self._started_at is None:
            raise HamsterError("timer is not running")
        elapsed = self._clock() - self._started_at
        self._started_at = None
        self.total += elapsed
        self.count += 1
        return elapsed


class TimingServices:
    """Wall-clock and phase timing over the (virtual) platform clock."""

    def __init__(self, engine) -> None:
        self.engine = engine
        self._phases: Dict[str, PhaseTimer] = {}

    def wtime(self) -> float:
        """Seconds of (virtual) wall-clock time — ``jia_wtime`` analogue."""
        return self.engine.now

    def phase(self, name: str) -> PhaseTimer:
        """Named accumulating timer (the LU all/core/barrier splits of
        Figures 2-4 are measured with these)."""
        if name not in self._phases:
            self._phases[name] = PhaseTimer(lambda: self.engine.now)
        return self._phases[name]

