"""Core domain model: social graph, locations, queries, feasibility checks.

Everything here is immutable after construction and safe to share across
concurrent solver invocations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, FrozenSet, Hashable, Iterable, Mapping, Optional, Tuple

MemberId = Hashable
VenueId = Hashable

# Prune-rule identifiers used in statistics dictionaries and CLI toggles.
PRUNE_AVG_FAMILIARITY = "avg_familiarity"
PRUNE_DISTANCE = "distance"
PRUNE_MEMBER_FAMILIARITY = "member_familiarity"
PRUNE_VENUE_DISTANCE = "venue_distance"
PRUNE_VENUE_RADIUS = "venue_radius"
PRUNE_BALL_DISTANCE = "ball_distance"
PRUNE_MERGE = "merge"


class FamiliarityMode(Enum):
    """How the stranger budget ``k`` is enforced over a group.

    PER_VERTEX: every member may be unacquainted with at most k others.
    AVERAGE: the mean number of strangers per member is at most k.
    """

    PER_VERTEX = "per-vertex"
    AVERAGE = "average"


@dataclass(frozen=True, order=True, slots=True)
class Location:
    """A point in the plane; one distance unit equals one coordinate unit.

    A dataset holds one per member and venue, so a point carries no instance
    dict."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"location coordinates must be finite, got ({self.x}, {self.y})")


def _sorted_ids(ids: Iterable, kind: str) -> list:
    """``ids`` in sorted order; ``ValueError`` when they cannot be ordered."""
    try:
        return sorted(ids)
    except TypeError as exc:
        raise ValueError(f"{kind} ids must be mutually comparable: {exc}") from None


def distance(a: Location, b: Location) -> float:
    """Planar Euclidean distance between two locations."""
    return math.hypot(a.x - b.x, a.y - b.y)


class SocialGraph:
    """Undirected acquaintance graph with adjacency sets and degrees.

    Vertices are arbitrary hashable, mutually comparable ids. Self loops are
    rejected; edges are stored symmetrically.
    """

    __slots__ = ("_adjacency", "_vertices")

    def __init__(self, vertices: Iterable[MemberId], edges: Iterable[Tuple[MemberId, MemberId]] = ()):
        adjacency: Dict[MemberId, set] = {v: set() for v in vertices}
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop on vertex {u!r}")
            if u not in adjacency:
                raise ValueError(f"edge endpoint {u!r} is not a known vertex")
            if v not in adjacency:
                raise ValueError(f"edge endpoint {v!r} is not a known vertex")
            adjacency[u].add(v)
            adjacency[v].add(u)
        self._adjacency: Dict[MemberId, FrozenSet[MemberId]] = {
            v: frozenset(ns) for v, ns in adjacency.items()
        }
        self._vertices: Tuple[MemberId, ...] = tuple(_sorted_ids(self._adjacency, "vertex"))

    @property
    def vertices(self) -> Tuple[MemberId, ...]:
        return self._vertices

    @property
    def vertex_count(self) -> int:
        return len(self._vertices)

    def __contains__(self, v: MemberId) -> bool:
        return v in self._adjacency

    def neighbors(self, v: MemberId) -> FrozenSet[MemberId]:
        return self._adjacency[v]

    def degree(self, v: MemberId) -> int:
        return len(self._adjacency[v])

    def has_edge(self, u: MemberId, v: MemberId) -> bool:
        return v in self._adjacency[u]

    def edges(self) -> Iterable[Tuple[MemberId, MemberId]]:
        """Each undirected edge exactly once, in sorted order."""
        for u in self._vertices:
            for v in sorted(self._adjacency[u]):
                if u < v:
                    yield (u, v)

    def edge_count(self) -> int:
        return sum(len(ns) for ns in self._adjacency.values()) // 2

    def induced_subgraph(self, keep: Iterable[MemberId]) -> "SocialGraph":
        kept = set(keep)
        return SocialGraph(
            kept,
            (
                (u, v)
                for u in kept
                for v in self._adjacency[u]
                if v in kept and u < v
            ),
        )


class SpatialDataset:
    """Member and venue locations. Venue ids must be disjoint from member ids;
    the member ids, and separately the venue ids, must be mutually comparable."""

    __slots__ = ("member_locations", "venue_locations")

    def __init__(
        self,
        member_locations: Mapping[MemberId, Location],
        venue_locations: Mapping[VenueId, Location],
    ):
        overlap = set(member_locations) & set(venue_locations)
        if overlap:
            raise ValueError(f"venue ids must be disjoint from member ids: {sorted(overlap)!r}")
        _sorted_ids(member_locations, "member")
        _sorted_ids(venue_locations, "venue")
        self.member_locations: Dict[MemberId, Location] = dict(member_locations)
        self.venue_locations: Dict[VenueId, Location] = dict(venue_locations)

    def member_venue_distance(self, member: MemberId, venue: VenueId) -> float:
        return distance(self.member_locations[member], self.venue_locations[venue])

    def validate_against(self, graph: SocialGraph) -> None:
        """Every graph vertex must carry exactly one location."""
        missing = [v for v in graph.vertices if v not in self.member_locations]
        if missing:
            raise ValueError(f"vertices without a location: {missing!r}")


@dataclass(frozen=True)
class Query:
    """Group-selection query: pick ``p`` members for one venue out of ``venues``.

    ``k`` bounds how many strangers each attendee tolerates (interpreted per
    ``familiarity_mode``); ``t`` bounds every member-to-venue distance. When no
    mode is given, multi-venue queries default to PER_VERTEX and single-venue
    queries to AVERAGE.
    """

    p: int
    k: int
    t: float
    venues: Tuple[VenueId, ...]
    familiarity_mode: Optional[FamiliarityMode] = None

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"group size p must be >= 1, got {self.p}")
        if not (0 <= self.k <= self.p - 1):
            raise ValueError(f"familiarity bound k must satisfy 0 <= k <= p-1, got k={self.k}, p={self.p}")
        if not (self.t > 0 and math.isfinite(self.t)):
            raise ValueError(f"radius t must be positive and finite, got {self.t}")
        venues = tuple(self.venues)
        if not venues:
            raise ValueError("query needs at least one venue")
        seen = set()
        for q in venues:
            if q in seen:
                raise ValueError(f"venue {q!r} is listed more than once")
            seen.add(q)
        object.__setattr__(self, "venues", venues)
        if self.familiarity_mode is None:
            mode = FamiliarityMode.PER_VERTEX if len(venues) > 1 else FamiliarityMode.AVERAGE
            object.__setattr__(self, "familiarity_mode", mode)

    @property
    def is_single_venue(self) -> bool:
        return len(self.venues) == 1


# The counter slot of each prune rule in ``SearchStats``.
_PRUNE_SLOTS = {
    rule: "_pruned_" + rule
    for rule in (
        PRUNE_AVG_FAMILIARITY,
        PRUNE_DISTANCE,
        PRUNE_MEMBER_FAMILIARITY,
        PRUNE_VENUE_DISTANCE,
        PRUNE_VENUE_RADIUS,
        PRUNE_BALL_DISTANCE,
        PRUNE_MERGE,
    )
}


@dataclass(slots=True)
class SearchStats:
    """Search effort counters filled in by the solvers.

    Callers may keep one record per query, so a record is small: it carries
    no instance dict, and each prune rule (``PRUNE_*``) counts in a slot of
    its own rather than in a dict. ``bump`` adds to a rule's count;
    ``pruned`` reads the counts that are not zero as a dict.
    """

    explored_states: int = 0
    generated_states: int = 0
    elapsed_seconds: float = 0.0
    _pruned_avg_familiarity: int = field(default=0, init=False, repr=False)
    _pruned_distance: int = field(default=0, init=False, repr=False)
    _pruned_member_familiarity: int = field(default=0, init=False, repr=False)
    _pruned_venue_distance: int = field(default=0, init=False, repr=False)
    _pruned_venue_radius: int = field(default=0, init=False, repr=False)
    _pruned_ball_distance: int = field(default=0, init=False, repr=False)
    _pruned_merge: int = field(default=0, init=False, repr=False)

    @property
    def theta_escalations(self) -> int:
        """Always 0. It counted the relaxations of the paper's admission
        level, which no search applies any more; it stays because
        ``bench/run.py`` reads it."""
        return 0

    def bump(self, rule: str, count: int = 1) -> None:
        slot = _PRUNE_SLOTS[rule]
        setattr(self, slot, getattr(self, slot) + count)

    @property
    def pruned(self) -> Dict[str, int]:
        """The count of each prune rule that fired, keyed by rule."""
        counts = {}
        for rule, slot in _PRUNE_SLOTS.items():
            count = getattr(self, slot)
            if count:
                counts[rule] = count
        return counts

    def as_dict(self) -> Dict[str, object]:
        return {
            "explored_states": self.explored_states,
            "generated_states": self.generated_states,
            "theta_escalations": self.theta_escalations,
            "pruned": dict(sorted(self.pruned.items())),
            "elapsed_seconds": self.elapsed_seconds,
        }


@dataclass(frozen=True)
class Solution:
    """A feasible group, its venue, and the total member-to-venue distance."""

    group: Tuple[MemberId, ...]
    venue: VenueId
    total_distance: float
    stats: SearchStats


def unfamiliar_count(v: MemberId, group: Iterable[MemberId], graph: SocialGraph) -> int:
    """Number of members of ``group`` (other than ``v``) sharing no edge with ``v``."""
    members = set(group)
    if v not in members:
        raise ValueError(f"member {v!r} is not part of the group")
    neighbors = graph.neighbors(v)
    return sum(1 for u in members if u != v and u not in neighbors)


def internal_edge_count(members: Iterable[MemberId], graph: SocialGraph) -> int:
    """Number of graph edges with both endpoints inside ``members``."""
    inside = set(members)
    return sum(len(graph.neighbors(v) & inside) for v in inside) // 2


def avg_acquainted(members: Iterable[MemberId], graph: SocialGraph) -> float:
    """Average number of acquainted co-members; 0 for the empty set."""
    inside = set(members)
    if not inside:
        return 0.0
    return sum(len(graph.neighbors(v) & inside) for v in inside) / len(inside)


def familiarity_ok(
    group: Iterable[MemberId],
    k: int,
    mode: FamiliarityMode,
    graph: SocialGraph,
) -> bool:
    """Whether the stranger budget ``k`` holds for ``group`` under ``mode``.

    Uses integer arithmetic throughout so boundary cases are exact. The
    search engines decide average mode at a leaf from the edge count they
    carry (``average_familiarity_edges``) instead of calling this.
    """
    members = set(group)
    n = len(members)
    if n <= 1:
        return True
    if mode is FamiliarityMode.PER_VERTEX:
        return all(n - 1 - len(graph.neighbors(v) & members) <= k for v in members)
    return internal_edge_count(members, graph) >= average_familiarity_edges(n, k)


def average_familiarity_edges(n: int, k: int) -> int:
    """Fewest internal edges a group of ``n`` distinct members needs to keep
    the average stranger budget ``k`` (``familiarity_ok`` in average mode)."""
    # mean stranger count <= k  <=>  n*(n-1) - 2*E <= k*n, solved for the
    # integer E.
    return -(-(n * (n - 1) - k * n) // 2)


def is_feasible(
    group: Iterable[MemberId],
    venue: VenueId,
    query: Query,
    graph: SocialGraph,
    data: SpatialDataset,
) -> bool:
    """Whether ``group`` is a valid answer for ``query`` at ``venue``."""
    members = set(group)
    if len(members) != query.p:
        raise ValueError(f"group size {len(members)} does not match query p={query.p}")
    venue_loc = data.venue_locations[venue]
    for v in members:
        if distance(data.member_locations[v], venue_loc) > query.t:
            return False
    return familiarity_ok(members, query.k, query.familiarity_mode, graph)


def total_distance(group: Iterable[MemberId], venue: VenueId, data: SpatialDataset) -> float:
    venue_loc = data.venue_locations[venue]
    return sum(distance(data.member_locations[v], venue_loc) for v in sorted(set(group)))
