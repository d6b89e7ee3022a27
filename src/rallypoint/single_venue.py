"""Exact branch-and-bound and the merge heuristic for single-venue queries.

The search keeps an ordered partial group and a pool of remaining candidates.
Candidates are tried in nondecreasing distance to the venue, but a candidate
is only admitted when the socially-aware admission test passes at the current
relaxation level ``theta``; rejected candidates are merely deferred and come
back whenever ``theta`` escalates, so no group is ever lost to the ordering.
An expanded candidate is excluded from the rest of its frame, which yields
each candidate set exactly once.

Each search frame carries the state its children would otherwise recompute:
the prefix's internal edge count, so admitting a candidate costs one
neighbourhood intersection with the prefix and an integer comparison against
the frame's edge threshold (``admission_edges``), and a cursor into the
frame's remaining candidates. The same count decides the average-mode
familiarity test at a leaf (``average_familiarity_edges``). Every candidate
before the cursor has been tried at the current ``theta``: the cursor
advances on a rejection, stays put on an admission (the admitted candidate
leaves the list) and returns to the front when ``theta`` escalates.

A frame also carries its pool's acquaintance counts: the pool degree table
(each remaining candidate's acquaintances among the remaining candidates)
and the crossing count (prefix-to-remaining edges). When a candidate is
expanded it leaves the table, its acquaintances' entries drop by one and the
crossing count drops by the candidate's edges into the prefix; the average
familiarity rule then reads the counts instead of intersecting the pool
(``avg_familiarity_prune``). Only frames whose children are not leaves
(prefix shorter than ``p - 1``) keep the counts, and only while that rule is
on; each such child frame gets its own copy of the table. The distance check
at the head of the frame's loop is repeated only after the smallest
remaining distance or the incumbent has changed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .indexes import Indexes, build_indexes
from .model import (
    FamiliarityMode,
    MemberId,
    PRUNE_AVG_FAMILIARITY,
    PRUNE_DISTANCE,
    PRUNE_MERGE,
    Query,
    SearchStats,
    SocialGraph,
    Solution,
    SpatialDataset,
    average_familiarity_edges,
    distance,
    familiarity_ok,
    internal_edge_count,
    total_distance,
)
from .pruning import (
    PruneConfig,
    avg_familiarity_prune,
    distance_prune,
    drop_from_pool,
    pool_degrees,
)


def sso_admits(
    group: Sequence[MemberId],
    candidate: MemberId,
    theta: int,
    p: int,
    graph: SocialGraph,
) -> bool:
    """Socially-aware admission test for adding ``candidate`` to ``group``.

    Admits when the average acquaintance count of the grown group reaches
    ``size - theta*size/(p-1) - 1``. Evaluated in exact integer arithmetic.
    Vacuous for p = 1 and for theta = p - 1.
    """
    if p == 1:
        return True
    members = set(group)
    if candidate in members:
        raise ValueError(f"candidate {candidate!r} is already in the group")
    edges = internal_edge_count(members, graph) + len(graph.neighbors(candidate) & members)
    return edges >= admission_edges(len(members) + 1, theta, p)


def admission_edges(size: int, theta: int, p: int) -> int:
    """Fewest internal edges a grown group of ``size`` members needs to pass
    the admission test at relaxation level ``theta`` (``sso_admits``)."""
    if p == 1:
        return 0
    # 2E/size >= size - theta*size/(p-1) - 1, scaled by size*(p-1) > 0,
    # then solved for the integer E.
    scaled = size * size * (p - 1) - theta * size * size - size * (p - 1)
    return -(-scaled // (2 * (p - 1)))


class _StopSearch(Exception):
    """Raised to abort the search once a state-generation budget is spent."""


class _SingleVenueSearch:
    """Depth-first search over groups for one venue.

    Each frame works with its own copy of ``theta`` (inherited from its
    parent at recursion time), so escalations deep in one subtree never leak
    into sibling subtrees.
    """

    def __init__(
        self,
        query: Query,
        graph: SocialGraph,
        order: List[Tuple[float, MemberId]],
        config: PruneConfig,
        stats: SearchStats,
        initial_best: float = math.inf,
        harvest: Optional[Callable[[List[MemberId], float], None]] = None,
        budget: Optional[int] = None,
    ):
        self.query = query
        self.graph = graph
        self.order = order
        self.config = config
        self.stats = stats
        self.best_total = initial_best
        self.best_group: Optional[Tuple[MemberId, ...]] = None
        self.harvest = harvest
        self.budget = budget
        # Fewest internal edges a leaf group needs in average mode.
        self.leaf_edges = None
        if query.familiarity_mode is FamiliarityMode.AVERAGE:
            self.leaf_edges = average_familiarity_edges(query.p, query.k)

    def run(self) -> None:
        pool_deg = None
        if self._keeps_pool_counts(0):
            pool_deg = pool_degrees([m for _, m in self.order], self.graph)
        root_theta = min(self.query.k, self.query.p - 1)
        try:
            self._frame([], set(), 0, 0.0, self.order, root_theta, pool_deg, 0)
        except _StopSearch:
            pass

    def _leaf_feasible(self, group: Sequence[MemberId], edges: int) -> bool:
        # Radius holds by construction: the pool is the in-range set. In
        # average mode the carried edge count decides.
        if self.leaf_edges is not None:
            return edges >= self.leaf_edges
        return familiarity_ok(group, self.query.k, self.query.familiarity_mode, self.graph)

    def _keeps_pool_counts(self, size: int) -> bool:
        # Only the average-familiarity rule reads the counts, and it runs on
        # every child that is not a leaf.
        return self.config.avg_familiarity and size < self.query.p - 1

    def _check_budget(self) -> None:
        if self.budget is not None and self.stats.generated_states >= self.budget:
            raise _StopSearch

    def _frame(
        self,
        prefix: List[MemberId],
        prefix_set: set,
        prefix_edges: int,
        cur_dist: float,
        pool: List[Tuple[float, MemberId]],
        theta: int,
        pool_deg: Optional[Dict[MemberId, int]],
        cross: int,
    ) -> None:
        p = self.query.p
        graph = self.graph
        neighbors = graph.neighbors
        size = len(prefix)
        leaf_children = size + 1 == p
        remaining = list(pool)
        # remaining[:cursor] has been tried at this theta. The list is never
        # empty here: size < p.
        cursor = 0
        need = admission_edges(size + 1, theta, p)
        # ``pool_deg`` is the pool degree table of ``remaining`` and ``cross``
        # the number of prefix-to-remaining edges, when this frame keeps them.
        copy_counts = self._keeps_pool_counts(size + 1)
        # A passed distance check is repeated only after its inputs change.
        viable_at = None

        while size + len(remaining) >= p:
            if self.config.distance and viable_at != (remaining[0][0], self.best_total):
                if distance_prune(cur_dist, size, p, remaining[0][0], self.best_total):
                    self.stats.bump(PRUNE_DISTANCE)
                    break
                viable_at = (remaining[0][0], self.best_total)

            if cursor == len(remaining):
                if theta < p - 1:
                    theta += 1
                    self.stats.theta_escalations += 1
                    need = admission_edges(size + 1, theta, p)
                cursor = 0
                continue
            d_u, u = remaining[cursor]
            child_edges = prefix_edges + len(neighbors(u) & prefix_set)
            if child_edges < need:
                cursor += 1
                continue

            del remaining[cursor]
            child = prefix + [u]
            child_dist = cur_dist + d_u
            self.stats.generated_states += 1

            if leaf_children:
                if self.harvest is not None:
                    self.harvest(child, child_dist)
                self.stats.explored_states += 1
                if child_dist < self.best_total and self._leaf_feasible(child, child_edges):
                    self.best_total = child_dist
                    self.best_group = tuple(sorted(child))
                self._check_budget()
                continue

            # The table is kept exactly where the average rule runs.
            if pool_deg is not None:
                deg_u = drop_from_pool(pool_deg, u, graph)
                cross -= child_edges - prefix_edges
                counts = (2 * child_edges, max(pool_deg.values(), default=0), cross + deg_u)
                if avg_familiarity_prune(child, pool_deg, p, self.query.k, graph, counts):
                    self.stats.bump(PRUNE_AVG_FAMILIARITY)
                    self._check_budget()
                    continue
            if self.harvest is not None:
                self.harvest(child, child_dist)
            if self.config.distance and distance_prune(
                child_dist, size + 1, p, remaining[0][0], self.best_total
            ):
                self.stats.bump(PRUNE_DISTANCE)
                self._check_budget()
                continue

            self.stats.explored_states += 1
            self._check_budget()
            child_counts = (dict(pool_deg), cross + deg_u) if copy_counts else (None, 0)
            self._frame(
                child, prefix_set | {u}, child_edges, child_dist, remaining, theta, *child_counts
            )


def candidate_order(
    query: Query,
    graph: SocialGraph,
    data: SpatialDataset,
    venue,
    indexes: Optional[Indexes],
) -> List[Tuple[float, MemberId]]:
    """In-range graph vertices sorted by (distance to venue, id).

    Located members that are not graph vertices are skipped."""
    rtree = indexes.members if indexes is not None else build_indexes(data).members
    center = data.venue_locations[venue]
    in_range = rtree.range_query(center, query.t)
    return sorted(
        (distance(data.member_locations[m], center), m) for m in in_range if m in graph
    )


def run_single_venue_search(
    query: Query,
    graph: SocialGraph,
    data: SpatialDataset,
    venue,
    indexes: Optional[Indexes],
    config: PruneConfig,
    stats: SearchStats,
    initial_best: float = math.inf,
    harvest=None,
    budget: Optional[int] = None,
) -> _SingleVenueSearch:
    """Run the search for one venue and return it; its incumbent is
    ``best_total`` and ``best_group``."""
    order = candidate_order(query, graph, data, venue, indexes)
    search = _SingleVenueSearch(query, graph, order, config, stats, initial_best, harvest, budget)
    search.run()
    return search


def ssgs_solve(
    query: Query,
    graph: SocialGraph,
    data: SpatialDataset,
    indexes: Optional[Indexes] = None,
    *,
    config: Optional[PruneConfig] = None,
    stats: Optional[SearchStats] = None,
) -> Optional[Solution]:
    """Exact optimum for a single-venue query, or None when nothing qualifies."""
    if not query.is_single_venue:
        raise ValueError("ssgs_solve expects a single-venue query")
    config = config or PruneConfig()
    stats = stats if stats is not None else SearchStats()
    start = time.perf_counter()
    venue = query.venues[0]
    search = run_single_venue_search(query, graph, data, venue, indexes, config, stats)
    stats.elapsed_seconds = time.perf_counter() - start
    if search.best_group is None:
        return None
    group = search.best_group
    return Solution(group, venue, total_distance(group, venue, data), stats)


# ---------------------------------------------------------------------------
# Merge heuristic
# ---------------------------------------------------------------------------


def minimal_order_theta(
    group_in_order: Sequence[MemberId],
    p: int,
    k: int,
    graph: SocialGraph,
) -> int:
    """Smallest relaxation level (at least ``k``) under which every prefix
    insertion of the group, in stored order, passes the admission test."""
    if p == 1:
        return k
    theta = k
    members: set = set()
    edges = 0
    for v in group_in_order:
        gained = len(graph.neighbors(v) & members)
        members.add(v)
        edges += gained
        size = len(members)
        # theta >= (size^2 - 2*E*size/(p-1)... scaled: exact ceil of
        # (size^2*(p-1) - 2*E*(p-1) - size*(p-1)) / size^2
        numerator = size * size * (p - 1) - 2 * edges * (p - 1) - size * (p - 1)
        if numerator > 0:
            needed = -((-numerator) // (size * size))
            theta = max(theta, needed)
    return min(theta, p - 1)


def merge_rank(
    group_in_order: Sequence[MemberId],
    query: Query,
    graph: SocialGraph,
    data: SpatialDataset,
) -> float:
    """Queue priority for an intermediate group: tighter and closer is smaller."""
    theta_bar = minimal_order_theta(group_in_order, query.p, query.k, graph)
    venue_loc = data.venue_locations[query.venues[0]]
    total = sum(distance(data.member_locations[v], venue_loc) for v in group_in_order)
    return query.p * query.t * theta_bar + total


def merge_prune(
    total: float,
    size: int,
    p: int,
    mu_by_size: Dict[int, float],
    best: float,
) -> bool:
    """True when even the cheapest way of topping the group up to ``p`` members
    (one per missing slot, each at the smallest member distance present in any
    usable queue) cannot beat the incumbent."""
    if size >= p:
        return total >= best
    unit = min((mu_by_size.get(j, math.inf) for j in range(size, p)), default=math.inf)
    if math.isinf(unit):
        return True
    return total + (p - size) * unit >= best


@dataclass
class _QueueEntry:
    members_in_order: Tuple[MemberId, ...]
    key: frozenset
    total: float
    rank: float


@dataclass
class MergeQueues:
    """Per-size queues of intermediate groups plus the trim capacity."""

    p: int
    capacity: int
    queues: Dict[int, Dict[frozenset, _QueueEntry]] = field(default_factory=dict)

    def insert(self, entry: _QueueEntry) -> None:
        size = len(entry.key)
        bucket = self.queues.setdefault(size, {})
        existing = bucket.get(entry.key)
        if existing is None or (entry.rank, entry.members_in_order) < (
            existing.rank,
            existing.members_in_order,
        ):
            bucket[entry.key] = entry

    def entries(self, size: int) -> List[_QueueEntry]:
        return sorted(
            self.queues.get(size, {}).values(),
            key=lambda e: (e.rank, tuple(sorted(e.key))),
        )

    def trim(self, size: int) -> None:
        kept = self.entries(size)[: self.capacity]
        self.queues[size] = {e.key: e for e in kept}

    def min_member_distance(self, size: int, dist_of: Dict[MemberId, float]) -> float:
        best = math.inf
        for entry in self.queues.get(size, {}).values():
            for v in entry.key:
                d = dist_of[v]
                if d < best:
                    best = d
        return best


def ssgmerge_solve(
    query: Query,
    graph: SocialGraph,
    data: SpatialDataset,
    indexes: Optional[Indexes] = None,
    *,
    w: int = 20000,
    lam: int = 200,
    config: Optional[PruneConfig] = None,
    stats: Optional[SearchStats] = None,
) -> Optional[Solution]:
    """Polynomial-time heuristic: harvest up to ``w`` generated states from the
    branch-and-bound expansion, then repeatedly merge pairs of small groups
    into larger ones, keeping only the ``lam`` best-ranked per size."""
    if not query.is_single_venue:
        raise ValueError("ssgmerge_solve expects a single-venue query")
    if w < 1 or lam < 1:
        raise ValueError("w and lam must be >= 1")
    config = config or PruneConfig()
    stats = stats if stats is not None else SearchStats()
    start = time.perf_counter()
    venue = query.venues[0]
    p = query.p

    queues = MergeQueues(p=p, capacity=lam)

    def harvest(group_in_order: List[MemberId], total: float) -> None:
        members = tuple(group_in_order)
        rank = merge_rank(members, query, graph, data)
        queues.insert(_QueueEntry(members, frozenset(members), total, rank))

    search = run_single_venue_search(
        query, graph, data, venue, indexes, config, stats, harvest=harvest, budget=w
    )
    best = search.best_total

    venue_loc = data.venue_locations[venue]
    dist_of = {v: distance(data.member_locations[v], venue_loc) for v in graph.vertices}

    for size in range(1, p):
        queues.trim(size)
        mu = {j: queues.min_member_distance(j, dist_of) for j in range(1, p)}
        survivors = []
        for entry in queues.entries(size):
            if merge_prune(entry.total, size, p, mu, best):
                stats.bump(PRUNE_MERGE)
                continue
            survivors.append(entry)
        for i in range(len(survivors)):
            for j in range(i + 1, len(survivors)):
                union = survivors[i].key | survivors[j].key
                if len(union) <= size or len(union) > p:
                    continue
                members = tuple(sorted(union))
                total = sum(dist_of[v] for v in members)
                if merge_prune(total, len(union), p, mu, best):
                    stats.bump(PRUNE_MERGE)
                    continue
                rank = merge_rank(members, query, graph, data)
                queues.insert(_QueueEntry(members, frozenset(union), total, rank))
                if len(union) == p and total < best and familiarity_ok(
                    members, query.k, query.familiarity_mode, graph
                ):
                    best = total

    queues.trim(p)
    answer = None
    answer_key = None
    for entry in queues.entries(p):
        if not familiarity_ok(entry.key, query.k, query.familiarity_mode, graph):
            continue
        key = (entry.total, tuple(sorted(entry.key)))
        if answer_key is None or key < answer_key:
            answer_key = key
            answer = entry
    stats.elapsed_seconds = time.perf_counter() - start
    if answer is None:
        return None
    group = tuple(sorted(answer.key))
    return Solution(group, venue, total_distance(group, venue, data), stats)
