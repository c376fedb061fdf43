"""Distribution annotations for global memory (§4.2, Memory Management).

HAMSTER's memory-management services accept *distribution annotations* that
tell the underlying memory subsystem where to place the home of each page of
an allocation. A :class:`Distribution` maps a local page index (0-based
within the region) to a home node. Provided policies:

* :func:`block` — contiguous page blocks per node (the locality-friendly
  default for row-partitioned arrays; this is what the "opt" benchmark
  variants use),
* :func:`cyclic` — round-robin pages over nodes (JiaJia's default),
* :func:`single_home` — all pages on one node (TreadMarks-style single-node
  allocation),
* :func:`explicit` — caller-provided home list,
* :func:`first_touch` — homes assigned lazily to the first node that
  accesses each page.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.errors import ConfigurationError

__all__ = ["Distribution", "block", "cyclic", "single_home", "explicit", "first_touch"]


class Distribution:
    """Home-placement policy for one region.

    Parameters
    ----------
    fn:
        ``fn(local_page_index, n_pages, n_nodes) -> node`` or ``None`` for
        lazy (first-touch) placement.
    name:
        Policy name reported by capability queries and statistics.
    """

    def __init__(self, fn: Optional[Callable[[int, int, int], int]], name: str) -> None:
        self._fn = fn
        self.name = name

    @property
    def lazy(self) -> bool:
        """True when homes are assigned at first touch rather than eagerly."""
        return self._fn is None

    def assign(self, n_pages: int, n_nodes: int) -> List[Optional[int]]:
        """Eagerly compute the home of every page (``None`` entries for lazy
        policies, to be filled by the protocol at first touch)."""
        if self.lazy:
            return [None] * n_pages
        fn = self._fn
        homes = [fn(i, n_pages, n_nodes) for i in range(n_pages)]
        if homes and not (0 <= min(homes) and max(homes) < n_nodes):
            i, node = next((i, node) for i, node in enumerate(homes)
                           if not 0 <= node < n_nodes)
            raise ConfigurationError(
                f"distribution {self.name!r} placed page {i} on invalid "
                f"node {node} (cluster has {n_nodes})")
        return homes


def block(n_pages: int = 0) -> Distribution:
    """Contiguous equal blocks of pages, node 0 first."""
    def fn(i: int, total: int, nodes: int) -> int:
        per = (total + nodes - 1) // nodes
        return min(i // per, nodes - 1)
    return Distribution(fn, "block")


def cyclic() -> Distribution:
    """Round-robin page placement (JiaJia's default)."""
    return Distribution(lambda i, total, nodes: i % nodes, "cyclic")


def single_home(node: int = 0) -> Distribution:
    """Every page homed on one node (TreadMarks single-node allocation)."""
    return Distribution(lambda i, total, nodes: node, f"single_home({node})")


def explicit(homes: Sequence[int]) -> Distribution:
    """Caller-provided per-page home list (must cover the whole region)."""
    homes = list(homes)

    def fn(i: int, total: int, nodes: int) -> int:
        if total != len(homes):
            raise ConfigurationError(
                f"explicit distribution has {len(homes)} entries for "
                f"{total} pages")
        return homes[i]
    return Distribution(fn, "explicit")


def first_touch() -> Distribution:
    """Lazy placement: a page's home is the first node to touch it."""
    return Distribution(None, "first_touch")
