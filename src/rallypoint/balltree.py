"""BallTree over venue locations.

Each venue is a leaf (radius 0); internal balls cover their whole subtree, so
``max(0, d(u, center) - radius)`` is a sound lower bound on the distance from
``u`` to any venue inside.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Mapping, Optional, Tuple

from .model import Location, VenueId, distance
from .rtree import Mbr, mindist_point_mbr


@dataclass(frozen=True)
class Ball:
    center: Location
    radius: float

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("ball radius must be >= 0")


def mindist_point_ball(u: Location, ball: Ball) -> float:
    """Lower bound on the distance from ``u`` to any point covered by ``ball``.

    Clamped at zero: the raw center-distance-minus-radius form goes negative
    for points inside the ball, which would break its use as a lower bound.
    """
    return max(0.0, distance(u, ball.center) - ball.radius)


def mindist_mbr_ball(m: Mbr, ball: Ball) -> float:
    """Lower bound on the distance between any point in ``m`` and any in ``ball``."""
    return max(0.0, mindist_point_mbr(ball.center, m) - ball.radius)


class BalltreeNode:
    __slots__ = ("ball", "children", "venue", "venue_ids", "node_id")

    def __init__(
        self,
        ball: Ball,
        *,
        children: Optional[List["BalltreeNode"]] = None,
        venue: Optional[VenueId] = None,
        venue_ids: Tuple[VenueId, ...] = (),
        node_id: int = -1,
    ):
        self.ball = ball
        self.children = children
        self.venue = venue
        self.venue_ids = venue_ids
        self.node_id = node_id

    @property
    def is_leaf(self) -> bool:
        return self.children is None


class Balltree:
    """Immutable venue index."""

    def __init__(self, root: BalltreeNode, size: int):
        self.root = root
        self.size = size

    def nodes(self) -> Iterator[BalltreeNode]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                stack.extend(node.children)

    def leaves(self) -> Iterator[BalltreeNode]:
        for node in self.nodes():
            if node.is_leaf:
                yield node


def _covering_ball(items: List[Tuple[VenueId, Location]]) -> Ball:
    # Centroid center with max-distance radius: covering (the property the
    # pruning bounds rely on), not necessarily minimal.
    cx = sum(loc.x for _, loc in items) / len(items)
    cy = sum(loc.y for _, loc in items) / len(items)
    center = Location(cx, cy)
    radius = max(distance(center, loc) for _, loc in items)
    return Ball(center, radius)


def build_balltree(venues: Mapping[VenueId, Location]) -> Balltree:
    """Top-down median split on the axis of greatest spread; leaf capacity 1."""
    if not venues:
        raise ValueError("cannot build a ball tree over an empty venue set")
    items = sorted(venues.items(), key=lambda kv: kv[0])

    next_id = 0

    def make_id() -> int:
        nonlocal next_id
        next_id += 1
        return next_id - 1

    def build(subset: List[Tuple[VenueId, Location]]) -> BalltreeNode:
        if len(subset) == 1:
            venue, loc = subset[0]
            return BalltreeNode(
                Ball(loc, 0.0), venue=venue, venue_ids=(venue,), node_id=make_id()
            )
        spread_x = max(l.x for _, l in subset) - min(l.x for _, l in subset)
        spread_y = max(l.y for _, l in subset) - min(l.y for _, l in subset)
        if spread_x >= spread_y:
            subset = sorted(subset, key=lambda kv: (kv[1].x, kv[1].y, kv[0]))
        else:
            subset = sorted(subset, key=lambda kv: (kv[1].y, kv[1].x, kv[0]))
        mid = len(subset) // 2
        children = [build(subset[:mid]), build(subset[mid:])]
        venue_ids = tuple(vid for child in children for vid in child.venue_ids)
        return BalltreeNode(
            _covering_ball(subset),
            children=children,
            venue_ids=venue_ids,
            node_id=make_id(),
        )

    root = build(items)
    return Balltree(root, len(items))
