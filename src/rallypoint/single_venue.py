"""Exact branch-and-bound over one venue at a time, and the merge heuristic
for single-venue queries. ``ssp_solve`` runs the search once per venue of a
query, sharing the incumbent; ``ssgs_solve`` is that run on a one-venue query.

The search keeps an ordered partial group and a pool of remaining candidates,
in nondecreasing (distance to the venue, id) order. A frame expands its
candidates in that order, and each child completes only from the candidates
after its own, so each candidate set is generated exactly once. The paper's
socially-aware admission test (``sso_admits``), which defers candidates that
would loosen the group and relaxes its level ``theta`` when none is left,
only reorders this walk, never prunes it. Measured, the reordering cost more
than it saved, so no search applies it; the merge heuristic still ranks its
groups by it (``minimal_order_theta``).

Each search frame carries the state its children would otherwise recompute:
the prefix's internal edge count, so growing the prefix costs at most one
neighbourhood intersection with it. The same count decides the average-mode
familiarity test at a leaf (``average_familiarity_edges``).

A frame also carries its pool's acquaintance counts: the pool degree table
(each remaining candidate's acquaintances among the remaining candidates)
and the prefix-edge table ``pe`` (each remaining candidate's acquaintances
in the prefix). When a candidate is expanded it leaves both tables, and each
of its acquaintances in the pool loses one pool degree and, in the child's
copy of ``pe``, gains one prefix edge (``admit_from_pool``). Only frames
whose children are not leaves (prefix shorter than ``p - 1``) keep the
tables, and only while the average familiarity rule is on; each such child
frame gets its own copies. Where a frame keeps ``pe``, a candidate's prefix
edges are read there instead of intersecting its neighbourhood with the
prefix.

Both completion bounds are exact. With ``r`` slots open, the average
familiarity rule gives each remaining candidate a gain of twice its prefix
edges plus its pool degree capped at ``r - 1``, and prunes a child when its
edge count plus the ``r`` largest gains falls short
(``avg_familiarity_prune``). ``remaining`` is sorted by distance, so the
distance rule adds its first ``r`` distances to the prefix's total
(``distance_prune``): the sorted-access bound of Fagin, Lotem and Naor's
threshold algorithm. The next child is the head of ``remaining``, so one
check at the head of the frame's loop bounds that child and every later
sibling, and a failed check ends the frame.

A frame whose prefix has ``p - 1`` members (a leaf frame) reads its pool
once, in (distance, id) order: the sorted-access stop rule of the same
algorithm. It stops with one distance prune at the first candidate that
cannot beat the incumbent, which, with the distance rule on, is the
candidate after the first improvement. On an exact distance tie the lower id
wins; the total cannot change. The scan (``_GroupSearch._scan_leaves``) is
shared with the joint multi-venue search, whose leaf frames run it once per
venue.

A state-generation budget (the merge heuristic's ``w``) counts the states one
search generates. It is checked at the head of each frame's loop and before
each leaf of a leaf frame's scan, so after the state that spends it nothing
else is generated or harvested.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

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
    VenueId,
    average_familiarity_edges,
    familiarity_ok,
    internal_edge_count,
    total_distance,
)
from .pruning import (
    PruneConfig,
    admit_from_pool,
    avg_familiarity_prune,
    distance_prune,
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


class _GroupSearch:
    """What both depth-first engines share: the incumbent (``best_total``,
    ``best_group``, ``best_venue``), the leaf feasibility rule and the scan
    of a leaf frame (see the module docstring).

    ``leaf_rule`` names the prune rule, a ``PruneConfig`` field, that stops
    a leaf scan at the first candidate that cannot beat the incumbent.
    """

    leaf_rule = PRUNE_DISTANCE

    def __init__(
        self,
        query: Query,
        graph: SocialGraph,
        config: PruneConfig,
        stats: SearchStats,
        initial_best: float = math.inf,
        harvest: Optional[Callable[[List[MemberId], float], None]] = None,
        budget: Optional[int] = None,
    ):
        self.query = query
        self.graph = graph
        self.config = config
        self.stats = stats
        # With its rule off, a leaf scan reads every candidate.
        self.leaf_prune = self.leaf_rule if getattr(config, self.leaf_rule) else None
        self.best_total = initial_best
        self.best_group: Optional[Tuple[MemberId, ...]] = None
        self.best_venue: Optional[VenueId] = None
        self.harvest = harvest
        # ``budget`` counts the states this search may generate, whatever
        # ``stats`` held before it.
        self.stop_at = None if budget is None else stats.generated_states + budget
        # Fewest internal edges a leaf group needs in average mode.
        self.leaf_edges = None
        if query.familiarity_mode is FamiliarityMode.AVERAGE:
            self.leaf_edges = average_familiarity_edges(query.p, query.k)

    def _scan_leaves(
        self,
        prefix: List[MemberId],
        prefix_set: set,
        prefix_edges: int,
        base: float,
        candidates: Iterable[Tuple[float, MemberId]],
        venue: Optional[VenueId],
    ) -> None:
        """One walk over ``candidates``, (distance, member) pairs in
        (distance, id) order, each of which completes ``prefix`` at ``venue``
        with total ``base + distance``. The walk stops at the first candidate
        that cannot beat the incumbent, and takes a leaf only on a strict
        improvement."""
        stats = self.stats
        graph = self.graph
        harvest = self.harvest
        stop_at = self.stop_at
        prune = self.leaf_prune
        leaf_edges = self.leaf_edges
        for d_u, u in candidates:
            if stop_at is not None and stats.generated_states >= stop_at:
                raise _StopSearch
            child_dist = base + d_u
            if prune is not None and child_dist >= self.best_total:
                stats.bump(prune)
                return
            stats.generated_states += 1
            stats.explored_states += 1
            child = prefix + [u]
            if harvest is not None:
                harvest(child, child_dist)
            if child_dist >= self.best_total:
                continue
            # Radius holds by construction: the candidates are in range. In
            # average mode the carried edge count decides.
            if leaf_edges is not None:
                feasible = prefix_edges + len(graph.neighbors(u) & prefix_set) >= leaf_edges
            else:
                feasible = familiarity_ok(child, self.query.k, self.query.familiarity_mode, graph)
            if feasible:
                self.best_total = child_dist
                self.best_group = tuple(sorted(child))
                self.best_venue = venue


class _SingleVenueSearch(_GroupSearch):
    """Depth-first search over groups for one venue. ``run`` searches the
    venue's candidate order and leaves the incumbent in ``best_total`` and
    ``best_group``."""

    def run(self, order: List[Tuple[float, MemberId]]) -> bool:
        """Search ``order``; False when the state budget stopped the search
        before it finished, so the incumbent is not proved optimal."""
        pool_deg = pe = None
        if self._keeps_pool_counts(0):
            pool_deg = pool_degrees([m for _, m in order], self.graph)
            pe = dict.fromkeys(pool_deg, 0)
        try:
            self._frame([], set(), 0, 0.0, order, pool_deg, pe)
        except _StopSearch:
            return False
        return True

    def _keeps_pool_counts(self, size: int) -> bool:
        # Only the average-familiarity rule reads the counts, and it runs on
        # every child that is not a leaf.
        return self.config.avg_familiarity and size < self.query.p - 1

    def _frame(
        self,
        prefix: List[MemberId],
        prefix_set: set,
        prefix_edges: int,
        cur_dist: float,
        pool: List[Tuple[float, MemberId]],
        pool_deg: Optional[Dict[MemberId, int]],
        pe: Optional[Dict[MemberId, int]],
    ) -> None:
        p = self.query.p
        size = len(prefix)
        if size + 1 == p:
            self._scan_leaves(prefix, prefix_set, prefix_edges, cur_dist, pool, None)
            return
        graph = self.graph
        neighbors = graph.neighbors
        remaining = list(pool)
        # ``pool_deg`` is the pool degree table of ``remaining`` and ``pe`` its
        # prefix-edge table, when this frame keeps them.
        copy_counts = self._keeps_pool_counts(size + 1)

        while size + len(remaining) >= p:
            # A spent budget stops the search here, before the next state is
            # generated or harvested.
            if self.stop_at is not None and self.stats.generated_states >= self.stop_at:
                raise _StopSearch
            # The head of ``remaining`` is the next child, so this bounds the
            # child and every later sibling: the child's own check would add
            # the same distances in the same order.
            if self.config.distance and distance_prune(
                cur_dist, size, p, remaining, self.best_total
            ):
                self.stats.bump(PRUNE_DISTANCE)
                break

            d_u, u = remaining.pop(0)
            if pe is not None:
                child_edges = prefix_edges + pe[u]
            else:
                child_edges = prefix_edges + len(neighbors(u) & prefix_set)
            child = prefix + [u]
            child_dist = cur_dist + d_u
            self.stats.generated_states += 1

            # The tables are kept exactly where the average rule runs.
            if pool_deg is not None:
                child_pe = admit_from_pool(pool_deg, pe, u, graph)
                counts = (2 * child_edges, pool_deg, child_pe)
                if avg_familiarity_prune(child, pool_deg, p, self.query.k, graph, counts):
                    self.stats.bump(PRUNE_AVG_FAMILIARITY)
                    continue
            if self.harvest is not None:
                self.harvest(child, child_dist)

            self.stats.explored_states += 1
            child_counts = (dict(pool_deg), child_pe) if copy_counts else (None, None)
            self._frame(child, prefix_set | {u}, child_edges, child_dist, remaining, *child_counts)


def candidate_order(
    query: Query,
    graph: SocialGraph,
    data: SpatialDataset,
    venue,
    indexes: Indexes,
) -> List[Tuple[float, MemberId]]:
    """In-range graph vertices sorted by (distance to venue, id): the one
    in-range rule of every exact solver.

    The pairs and their order come from one ``range_query`` of the member
    R-tree, so each distance is the index's: ``build_indexes(data)`` fills it
    from ``data``, and then each distance equals
    ``data.member_venue_distance(m, venue)`` exactly. Located members that
    are not graph vertices are skipped. Raises ``ValueError`` for a venue
    ``data`` does not locate."""
    center = data.venue_locations.get(venue)
    if center is None:
        raise ValueError(f"venue {venue!r} has no location")
    return [pair for pair in indexes.members.range_query(center, query.t) if pair[1] in graph]


def ssp_solve(
    query: Query,
    graph: SocialGraph,
    data: SpatialDataset,
    indexes: Optional[Indexes] = None,
    *,
    config: Optional[PruneConfig] = None,
    stats: Optional[SearchStats] = None,
) -> Optional[Solution]:
    """Solve per venue with the single-venue search, sharing the incumbent so
    later venues start with the best bound found so far."""
    config = config or PruneConfig()
    stats = stats if stats is not None else SearchStats()
    start = time.perf_counter()
    indexes = indexes or build_indexes(data)
    best = math.inf
    best_group = None
    best_venue = None
    for venue in query.venues:
        order = candidate_order(query, graph, data, venue, indexes)
        search = _SingleVenueSearch(query, graph, config, stats, initial_best=best)
        search.run(order)
        # A search sets ``best_group`` only on a strict improvement.
        if search.best_group is not None:
            best = search.best_total
            best_group = search.best_group
            best_venue = venue
    stats.elapsed_seconds = time.perf_counter() - start
    if best_group is None:
        return None
    return Solution(best_group, best_venue, total_distance(best_group, best_venue, data), stats)


def ssgs_solve(
    query: Query,
    graph: SocialGraph,
    data: SpatialDataset,
    indexes: Optional[Indexes] = None,
    *,
    config: Optional[PruneConfig] = None,
    stats: Optional[SearchStats] = None,
) -> Optional[Solution]:
    """Exact optimum for a single-venue query, or None when nothing qualifies:
    ``ssp_solve`` on the query's one venue."""
    if not query.is_single_venue:
        raise ValueError("ssgs_solve expects a single-venue query")
    return ssp_solve(query, graph, data, indexes, config=config, stats=stats)


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
    theta = k
    members: set = set()
    edges = 0
    for v in group_in_order:
        edges += len(graph.neighbors(v) & members)
        members.add(v)
        # The test is vacuous at theta = p - 1.
        while theta < p - 1 and edges < admission_edges(len(members), theta, p):
            theta += 1
    return theta


def merge_rank(
    group_in_order: Sequence[MemberId],
    total: float,
    query: Query,
    graph: SocialGraph,
) -> float:
    """Queue priority for an intermediate group whose member-to-venue
    distances sum to ``total``: tighter and closer is smaller."""
    theta_bar = minimal_order_theta(group_in_order, query.p, query.k, graph)
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
    unit = min((mu_by_size.get(j, math.inf) for j in range(size, p)), default=math.inf)
    return distance_prune(total, size, p, unit, best)


@dataclass
class _QueueEntry:
    members_in_order: Tuple[MemberId, ...]
    key: frozenset
    total: float
    rank: float


@dataclass
class MergeQueues:
    """Per-size queues of intermediate groups plus the trim capacity."""

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
    into larger ones, keeping only the ``lam`` best-ranked per size. A search
    that finishes within ``w`` has proved its incumbent optimal, which is
    returned with no merging."""
    if not query.is_single_venue:
        raise ValueError("ssgmerge_solve expects a single-venue query")
    if w < 1 or lam < 1:
        raise ValueError("w and lam must be >= 1")
    config = config or PruneConfig()
    stats = stats if stats is not None else SearchStats()
    start = time.perf_counter()
    indexes = indexes or build_indexes(data)
    venue = query.venues[0]

    queues = MergeQueues(capacity=lam)

    def harvest(group_in_order: List[MemberId], total: float) -> None:
        members = tuple(group_in_order)
        rank = merge_rank(members, total, query, graph)
        queues.insert(_QueueEntry(members, frozenset(members), total, rank))

    order = candidate_order(query, graph, data, venue, indexes)
    search = _SingleVenueSearch(query, graph, config, stats, harvest=harvest, budget=w)
    if search.run(order):
        group = search.best_group
    else:
        # Every harvested member is an in-range candidate of the search.
        dist_of = {m: d for d, m in order}
        group = _merge(queues, dist_of, search.best_total, query, graph, stats)
    stats.elapsed_seconds = time.perf_counter() - start
    if group is None:
        return None
    return Solution(group, venue, total_distance(group, venue, data), stats)


def _merge(
    queues: MergeQueues,
    dist_of: Dict[MemberId, float],
    best: float,
    query: Query,
    graph: SocialGraph,
    stats: SearchStats,
) -> Optional[Tuple[MemberId, ...]]:
    """The merge phase: grow the harvested groups size by size, by unions of
    pairs, and return the closest feasible group of ``p`` left in the queues
    (sorted), or None. ``best`` is the budgeted search's incumbent total."""
    p = query.p
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
                rank = merge_rank(members, total, query, graph)
                queues.insert(_QueueEntry(members, frozenset(union), total, rank))
                if len(union) == p and total < best and familiarity_ok(
                    members, query.k, query.familiarity_mode, graph
                ):
                    best = total

    queues.trim(p)
    answer_key = None
    for entry in queues.entries(p):
        if not familiarity_ok(entry.key, query.k, query.familiarity_mode, graph):
            continue
        key = (entry.total, tuple(sorted(entry.key)))
        if answer_key is None or key < answer_key:
            answer_key = key
    return None if answer_key is None else answer_key[1]
