"""Static R-tree over member locations.

Bulk-loaded with sort-tile-recursive packing, so the structure is a pure
function of the input points. Supports exact point-to-MBR lower bounds and
radius range queries; a range query walks the tree once and returns the
``(distance, id)`` pair of every location in range, sorted, so a caller
that orders candidates by distance computes no distance itself.

The bulk load also lays out, once, the flat rows the range query reads:
each internal node its children's boxes as ``(min_x, min_y, max_x, max_y,
child)`` tuples, each leaf its points as ``(x, y, id)`` tuples sorted by
``x``. They are the only copy of a node's contents, so a query reads no
``Mbr`` or ``Location`` attribute.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterator, List, Mapping, Optional, Sequence, Tuple

from .model import Location, MemberId

# The range query's square slack, relative to the coordinate magnitudes.
_SLACK = 2.0**-40


@dataclass(frozen=True)
class Mbr:
    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self):
        if self.min_x > self.max_x or self.min_y > self.max_y:
            raise ValueError("MBR min corner must not exceed max corner")

    def contains_point(self, loc: Location) -> bool:
        return self.min_x <= loc.x <= self.max_x and self.min_y <= loc.y <= self.max_y

    def contains_mbr(self, other: "Mbr") -> bool:
        return (
            self.min_x <= other.min_x
            and self.min_y <= other.min_y
            and self.max_x >= other.max_x
            and self.max_y >= other.max_y
        )

    @staticmethod
    def around_points(locs: Sequence[Location]) -> "Mbr":
        return Mbr(
            min(l.x for l in locs),
            min(l.y for l in locs),
            max(l.x for l in locs),
            max(l.y for l in locs),
        )

    @staticmethod
    def around_mbrs(mbrs: Sequence["Mbr"]) -> "Mbr":
        return Mbr(
            min(m.min_x for m in mbrs),
            min(m.min_y for m in mbrs),
            max(m.max_x for m in mbrs),
            max(m.max_y for m in mbrs),
        )


def mindist_point_mbr(a: Location, m: Mbr) -> float:
    """Exact minimum distance from ``a`` to any point of ``m`` (0 if inside)."""
    dx = max(m.min_x - a.x, 0.0, a.x - m.max_x)
    dy = max(m.min_y - a.y, 0.0, a.y - m.max_y)
    return math.hypot(dx, dy)


class RtreeNode:
    """``rows`` hold the node's contents, laid out for the range query: its
    children's boxes as ``(min_x, min_y, max_x, max_y, child)``, or, in a
    leaf, its points as ``(x, y, id)`` sorted by ``x``. The node keeps no
    other copy of them."""

    __slots__ = ("mbr", "is_leaf", "node_id", "rows")

    def __init__(self, mbr: Mbr, *, children=None, entries=None, node_id: int = -1):
        self.mbr = mbr
        self.is_leaf = entries is not None
        self.node_id = node_id
        if self.is_leaf:
            rows = [(loc.x, loc.y, m) for m, loc in entries]
            rows.sort()
        else:
            rows = [(c.mbr.min_x, c.mbr.min_y, c.mbr.max_x, c.mbr.max_y, c) for c in children]
        self.rows: List[tuple] = rows

    @property
    def children(self) -> Optional[List["RtreeNode"]]:
        """An internal node's children, read off its rows; None in a leaf."""
        return None if self.is_leaf else [row[4] for row in self.rows]


class Rtree:
    """Immutable R-tree; share freely."""

    def __init__(self, root: Optional[RtreeNode], size: int, fanout: int):
        self.root = root
        self.size = size
        self.fanout = fanout

    def nodes(self) -> Iterator[RtreeNode]:
        if self.root is None:
            return
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                stack.extend(node.children)

    def points_under(self, node: RtreeNode) -> Iterator[Tuple[MemberId, Location]]:
        stack = [node]
        while stack:
            n = stack.pop()
            if n.is_leaf:
                for x, y, m in n.rows:
                    yield m, Location(x, y)
            else:
                stack.extend(n.children)

    def range_query(self, center: Location, radius: float) -> List[Tuple[float, MemberId]]:
        """The ``(distance, id)`` pair of every location within ``radius`` of
        ``center``, sorted by ``(distance, id)``, from one walk of the tree.

        Each distance is ``distance(loc, center)`` bit for bit, and it alone
        decides: a location is in range when it is ``<= radius``. The walk
        only narrows where that test runs, to the query's bounding square:
        an internal node skips the rows of children whose box misses it, and
        a leaf bisects its x-sorted rows to the square's x-range and checks
        each row's y. A rounded ``x - cx`` can put a location the distance
        admits just outside the exact square, and the square's own bounds
        round too, so each side is widened by ``2**-40`` times
        ``|cx| + |cy| + radius``, far above both roundings. Raises
        ``ValueError`` for a negative or NaN radius."""
        if not radius >= 0:
            raise ValueError(f"radius must be >= 0, got {radius!r}")
        hits: List[Tuple[float, MemberId]] = []
        if self.root is None:
            return hits
        cx, cy = center.x, center.y
        reach = radius + (abs(cx) + abs(cy) + radius) * _SLACK
        lo_x, hi_x = cx - reach, cx + reach
        lo_y, hi_y = cy - reach, cy + reach
        # Row keys: every ``(x, y, id)`` row with ``x >= lo_x`` sorts after
        # ``lo``, and every row with ``x <= hi_x`` before ``hi``.
        lo, hi = (lo_x,), (hi_x, math.inf)
        hypot = math.hypot
        append = hits.append
        stack = [self.root]
        pop = stack.pop
        push = stack.append
        while stack:
            node = pop()
            rows = node.rows
            if node.is_leaf:
                for x, y, m in rows[bisect_left(rows, lo) : bisect_right(rows, hi)]:
                    if lo_y <= y <= hi_y:
                        d = hypot(x - cx, y - cy)
                        if d <= radius:
                            append((d, m))
            else:
                for x0, y0, x1, y1, child in rows:
                    if x0 <= hi_x and lo_x <= x1 and y0 <= hi_y and lo_y <= y1:
                        push(child)
        hits.sort()
        return hits


def _pack_level(items: Sequence[tuple], fanout: int, key_x, key_y) -> List[List[tuple]]:
    """Sort-tile-recursive grouping of ``items`` into runs of at most ``fanout``."""
    n = len(items)
    leaf_count = math.ceil(n / fanout)
    slab_count = math.ceil(math.sqrt(leaf_count))
    slab_size = slab_count * fanout
    ordered = sorted(items, key=key_x)
    groups: List[List[tuple]] = []
    for s in range(0, n, slab_size):
        slab = sorted(ordered[s : s + slab_size], key=key_y)
        for i in range(0, len(slab), fanout):
            groups.append(slab[i : i + fanout])
    return groups


def build_rtree(points: Mapping[MemberId, Location], max_fanout: int = 16) -> Rtree:
    """Bulk-load an R-tree with STR packing; deterministic for a given input."""
    if max_fanout < 2:
        raise ValueError("max_fanout must be >= 2")
    items = sorted(points.items(), key=lambda kv: kv[0])
    if not items:
        return Rtree(None, 0, max_fanout)

    next_id = 0

    def make_id() -> int:
        nonlocal next_id
        next_id += 1
        return next_id - 1

    leaf_groups = _pack_level(
        items,
        max_fanout,
        key_x=lambda kv: (kv[1].x, kv[1].y, kv[0]),
        key_y=lambda kv: (kv[1].y, kv[1].x, kv[0]),
    )
    level: List[RtreeNode] = [
        RtreeNode(
            Mbr.around_points([loc for _, loc in group]),
            entries=group,
            node_id=make_id(),
        )
        for group in leaf_groups
    ]
    while len(level) > 1:
        def center_x(node: RtreeNode):
            m = node.mbr
            return ((m.min_x + m.max_x) / 2.0, (m.min_y + m.max_y) / 2.0, node.node_id)

        def center_y(node: RtreeNode):
            m = node.mbr
            return ((m.min_y + m.max_y) / 2.0, (m.min_x + m.max_x) / 2.0, node.node_id)

        groups = _pack_level(level, max_fanout, key_x=center_x, key_y=center_y)
        level = [
            RtreeNode(
                Mbr.around_mbrs([child.mbr for child in group]),
                children=list(group),
                node_id=make_id(),
            )
            for group in groups
        ]
    return Rtree(level[0], len(items), max_fanout)
