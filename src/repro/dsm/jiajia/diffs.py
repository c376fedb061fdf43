"""Twin/diff machinery for the multiple-writer protocol.

A *twin* is a pristine copy of a page taken at the first write after a
synchronization point. At release time the protocol diffs the twin against
the current page; the diff is shipped to the page's home and applied there.
Two ranks writing disjoint parts of the same page produce non-overlapping
diffs that merge cleanly at the home (false sharing costs bandwidth, not
correctness).

A diff is held in *array form*: the ascending in-page offsets of the
changed bytes, their new values, and the number of maximal runs of
consecutive offsets. On the wire it is still JiaJia's run-length encoding
— a header per diff, an ``(offset, length)`` header per run, then the
changed bytes — so :func:`diff_wire_size` charges exactly that; only the
host representation is flat. Stencil updates of float64 data change
scattered bytes (hundreds of short runs per 4 KiB page), so one small
array per run, and a Python loop over them on each side, cost more host
time than the rest of the release path. Every operation here is a fixed
number of whole-page numpy calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import MemoryError_

__all__ = ["Diff", "make_diff", "apply_diff", "diff_wire_size"]

#: Per-run wire overhead: 4-byte offset + 4-byte length.
RUN_HEADER_BYTES = 8
#: Per-diff wire overhead: page number + run count.
DIFF_HEADER_BYTES = 12


@dataclass
class Diff:
    """Encoded modifications of one page."""

    page: int
    #: Ascending in-page offsets of the changed bytes, in the smallest
    #: unsigned dtype that holds the page size.
    index: np.ndarray
    #: The new value of each byte in ``index`` (a copy, not a view).
    data: np.ndarray
    #: Maximal runs of consecutive offsets in ``index``.
    n_runs: int

    @property
    def changed_bytes(self) -> int:
        return self.data.size

    @property
    def empty(self) -> bool:
        return not self.data.size


def make_diff(page: int, twin: np.ndarray, current: np.ndarray) -> Diff:
    """Encode the bytes of ``current`` that differ from ``twin``."""
    if twin.shape != current.shape:
        raise MemoryError_(
            f"twin/page size mismatch: {twin.shape} vs {current.shape}")
    neq = twin != current
    index = np.flatnonzero(neq)
    # A run starts at each changed byte whose predecessor is unchanged
    # (or absent, for byte 0).
    n_runs = int(np.count_nonzero(neq[1:] > neq[:-1])) + int(neq[:1].sum())
    return Diff(page, index.astype(np.min_scalar_type(len(neq))),
                current[index], n_runs)


def apply_diff(target: np.ndarray, diff: Diff) -> int:
    """Apply ``diff`` to a home page buffer; returns bytes written.

    The range check comes first, so a diff that does not fit leaves
    ``target`` untouched.
    """
    index = diff.index
    if index.size and int(index[-1]) >= len(target):
        raise MemoryError_(
            f"diff offset {int(index[-1])} exceeds page size {len(target)}")
    target[index] = diff.data
    return diff.data.size


def diff_wire_size(diff: Diff) -> int:
    """Bytes this diff occupies in a release message."""
    return (DIFF_HEADER_BYTES + diff.n_runs * RUN_HEADER_BYTES
            + diff.data.size)
