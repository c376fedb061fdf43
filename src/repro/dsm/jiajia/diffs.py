"""Twin/diff machinery for the multiple-writer protocol.

A *twin* is a pristine copy of a page taken at the first write after a
synchronization point. At release time the protocol diffs the twin against
the current page; the diff is shipped to the page's home and applied there.
Two ranks writing disjoint parts of the same page produce non-overlapping
diffs that merge cleanly at the home (false sharing costs bandwidth, not
correctness).

A diff is held in *mask form*: a page-sized boolean mask of the changed
bytes, a snapshot of the page at diff time, and two counts — the changed
bytes and the maximal runs of consecutive changed bytes. On the wire it is
still JiaJia's run-length encoding — a header per diff, an ``(offset,
length)`` header per run, then the changed bytes — so :func:`diff_wire_size`
charges exactly that; only the host representation differs. Stencil updates
of float64 data change scattered bytes (hundreds of short runs per 4 KiB
page), so making and applying a diff are each a fixed, small number of
whole-page numpy calls whatever the page holds, and neither side ever
gathers the changed bytes or their offsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import MemoryError_

__all__ = ["Diff", "make_diff", "apply_diff", "diff_wire_size"]

#: Per-run wire overhead: 4-byte offset + 4-byte length.
RUN_HEADER_BYTES = 8
#: Per-diff wire overhead: page number + run count.
DIFF_HEADER_BYTES = 12


@dataclass
class Diff:
    """Encoded modifications of one page. An empty diff carries no arrays."""

    page: int
    #: Which bytes of the page changed (bool, page-sized), or None.
    mask: Optional[np.ndarray]
    #: The page at diff time (a snapshot, not a view), or None; only the
    #: bytes under ``mask`` are ever written anywhere.
    data: Optional[np.ndarray]
    #: Number of true bytes in ``mask`` (a Python int, as is ``n_runs``:
    #: both reach message sizes and so the engine clock).
    changed_bytes: int
    #: Maximal runs of consecutive changed bytes.
    n_runs: int

    @property
    def empty(self) -> bool:
        return not self.changed_bytes


def make_diff(page: int, twin: np.ndarray, current: np.ndarray) -> Diff:
    """Encode the bytes of ``current`` that differ from ``twin``.

    Neither argument is modified or kept: the diff holds its own copy of
    ``current``.
    """
    if twin.shape != current.shape:
        raise MemoryError_(
            f"twin/page size mismatch: {twin.shape} vs {current.shape}")
    neq = twin != current
    changed = int(np.count_nonzero(neq))
    if not changed:
        return Diff(page, None, None, 0, 0)
    # A run starts at every changed byte whose predecessor is unchanged.
    n_runs = int(np.count_nonzero(neq[1:] > neq[:-1])) + int(neq[0])
    return Diff(page, neq, current.copy(), changed, n_runs)


def apply_diff(target: np.ndarray, diff: Diff) -> int:
    """Apply ``diff`` to a home page buffer; returns bytes written.

    The length check comes first, so a diff that does not fit leaves
    ``target`` untouched.
    """
    mask = diff.mask
    if mask is None:
        return 0
    if len(mask) != len(target):
        raise MemoryError_(
            f"diff of a {len(mask)}-byte page applied to a "
            f"{len(target)}-byte page")
    np.putmask(target, mask, diff.data)
    return diff.changed_bytes


def diff_wire_size(diff: Diff) -> int:
    """Bytes this diff occupies in a release message."""
    return (DIFF_HEADER_BYTES + diff.n_runs * RUN_HEADER_BYTES
            + diff.changed_bytes)
