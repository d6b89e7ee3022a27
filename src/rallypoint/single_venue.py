"""Exact branch-and-bound over one venue at a time, and the merge heuristic
for single-venue queries. ``_GroupSearch`` is the skeleton both depth-first
engines share: the incumbent, the pool counts and their upkeep, the search
at one venue and its leaf scan. ``ssp_solve`` runs one such search over the
query's venues in order, each from its root (``search_venue``), so the
venues share the incumbent; ``ssgs_solve`` is that run on a one-venue query.
The joint multi-venue search hands the same single-venue loop
(``_GroupSearch._venue_frame``) every srdo frame left with one venue. Every
exact solver and the merge heuristic end alike (``_solution``).

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

In average mode a frame also carries its pool's acquaintance counts, which
only the average rule reads: the pool degree table (each remaining
candidate's acquaintances among the remaining candidates) and the
prefix-edge table ``pe`` (each remaining candidate's acquaintances in the
prefix). When a candidate is expanded it leaves both tables, and each of its
acquaintances in the pool loses one pool degree and, in the child's copy of
``pe``, gains one prefix edge (``admit_from_pool``). Only frames whose
children are not leaves (prefix shorter than ``p - 1``) keep the tables, and
only while the rule is on and can fire (``k < p - 1``); each such child frame
gets its own copies, and reads a candidate's prefix edges off ``pe``. Both
engines keep the counts through the same three steps of ``_GroupSearch``:
``_pool_counts`` counts a root's pool afresh, or cuts a caller's counts
down to a frame's smaller pool; ``_grow`` takes each child out of the pool
and gives its edge count; ``_avg_pruned`` runs the average rule on it.

The average rule runs on every child that is not a leaf, and once on each
root that keeps counts, before its first child: on the empty prefix, from
the root's fresh counts (``_root_refuted``). Every group at the venue lies
in the root's pool, so when the rule fires there no group exists, and the
root counts one average-familiarity prune and generates nothing. The
joint multi-venue root runs the same check over its pool, the union of its
venues' candidates.

Both completion bounds are exact. With ``r`` slots open, the average
familiarity rule gives each remaining candidate a gain of twice its prefix
edges plus its pool degree capped at ``r - 1``, and prunes a child when its
edge count plus the ``r`` largest gains falls short
(``avg_familiarity_prune``). ``remaining`` is sorted by distance, so the
distance rule adds its first ``r`` distances to the prefix's total
(``distance_prune``): the sorted-access bound of Fagin, Lotem and Naor's
threshold algorithm. The next child is the head of ``remaining``, so one
check at the head of the frame's loop bounds that child and every later
sibling, and a failed check ends the frame. In the joint search that check,
like the leaf scan's, counts as a venue-distance prune.

In per-vertex mode a feasible group is a k-plex: each member has at most
``k`` strangers, and strangers only grow with the group. So while the member
rule is on, a non-leaf frame whose prefix has more than ``k`` members drops,
on entry, each candidate that would break the budget, one with more than
``k`` strangers in the prefix or a stranger to a prefix member that already
has ``k`` (``_GroupSearch._entry_test``; the k-plex reduction of
Balasundaram, Butenko and Hicks). A dropped candidate is never generated,
nor handed to a child, and counts as one member-familiarity prune. Both
engines run this one rule set in per-vertex frames, which keep no pool
counts. By induction every prefix then keeps the budget, so the same test is
exact at a leaf: a leaf scan builds it once, at its first feasibility test,
and checks each leaf with one subset test and one intersection. With the
member rule off a prefix may already break the budget, and each leaf is
checked in full (``familiarity_ok``).

A frame whose prefix has ``p - 1`` members (a leaf frame) reads its pool
once, in (distance, id) order: the sorted-access stop rule of the same
algorithm. It stops with one distance prune at the first candidate that
cannot beat the incumbent, which, with the distance rule on, is the
candidate after the first improvement. On an exact distance tie the lower id
wins; the total cannot change. A leaf is taken only on a strict
improvement, so on an exact tie in total between venues the venue searched
first, the first in the query's order, keeps the answer. The scan
(``_GroupSearch._scan_leaves``) is shared with the joint multi-venue search,
whose leaf frames run it once per venue.

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
    PRUNE_MEMBER_FAMILIARITY,
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

# A frame's pool counts: its pool degree table and its prefix-edge table.
Counts = Tuple[Dict[MemberId, int], Dict[MemberId, int]]


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
    ``best_group``, ``best_venue``), the leaf feasibility rule, the
    per-vertex entry test, the pool counts and their upkeep, the scan of a
    leaf frame and the search at one venue (see the module docstring).
    ``search_venue`` runs that search from its root; one search may run it
    at several venues, which then share the incumbent.

    ``leaf_rule`` names the prune rule, a ``PruneConfig`` field, that stops
    a leaf scan, or ends a one-venue frame, at the first candidate that
    cannot beat the incumbent.
    """

    leaf_rule = PRUNE_DISTANCE

    def __init__(
        self,
        query: Query,
        graph: SocialGraph,
        config: PruneConfig,
        stats: SearchStats,
        harvest: Optional[Callable[[List[MemberId], float], None]] = None,
        budget: Optional[int] = None,
    ):
        self.query = query
        self.graph = graph
        self.config = config
        self.stats = stats
        # With its rule off, a leaf scan reads every candidate.
        self.leaf_prune = self.leaf_rule if getattr(config, self.leaf_rule) else None
        self.best_total = math.inf
        self.best_group: Optional[Tuple[MemberId, ...]] = None
        self.best_venue: Optional[VenueId] = None
        self.harvest = harvest
        # ``budget`` counts the states this search may generate, whatever
        # ``stats`` held before it.
        self.stop_at = None if budget is None else stats.generated_states + budget
        # Fewest internal edges a leaf group needs in average mode; in
        # per-vertex mode non-leaf frames run the entry test instead.
        self.leaf_edges = None
        self.member_rule = False
        if query.familiarity_mode is FamiliarityMode.AVERAGE:
            self.leaf_edges = average_familiarity_edges(query.p, query.k)
        else:
            self.member_rule = config.member_familiarity

    def _keeps_pool_counts(self, size: int) -> bool:
        """Whether a frame whose prefix has ``size`` members keeps pool
        counts: only the average rule reads them, and it runs, in average
        mode only, on every child that is not a leaf and on the root itself
        (``_root_refuted``). With ``k = p - 1`` the
        rule's target ``p * (p - k - 1)`` is 0, and the loop guard leaves at
        least as many candidates as open slots, so it can never fire and no
        frame keeps counts."""
        q = self.query
        average = self.leaf_edges is not None
        return average and self.config.avg_familiarity and q.k < q.p - 1 and size < q.p - 1

    def _pool_counts(
        self, size: int, members: Iterable[MemberId], counts: Optional[Counts] = None
    ) -> Optional[Counts]:
        """The pool counts of a frame whose prefix has ``size`` members and
        whose pool holds ``members``, or None when the frame keeps none. A
        root (``counts`` None) counts its pool afresh, with an empty prefix.
        Any other frame that keeps counts has its caller's ``counts``, over a
        pool that holds its own, and cuts them down to its pool: recounting
        the survivors costs less than taking each dropped candidate out of
        the counts, since most of a frame's pool can drop."""
        if not self._keeps_pool_counts(size):
            return None
        if counts is None:
            pool_deg = pool_degrees(members, self.graph)
            return pool_deg, dict.fromkeys(pool_deg, 0)
        pool_deg, pe = counts
        members = set(members)
        if len(members) == len(pool_deg):
            return counts
        return pool_degrees(members, self.graph), {v: pe[v] for v in members}

    def _grow(
        self, prefix_set: set, prefix_edges: int, u: MemberId, counts: Optional[Counts]
    ) -> Tuple[int, Optional[Dict[MemberId, int]]]:
        """Take ``u``, the frame's next child, out of its pool: the internal
        edge count of the prefix grown by ``u`` and, when the frame keeps
        counts, the grown prefix's prefix-edge table (``admit_from_pool``,
        which also updates the frame's own counts)."""
        if counts is None:
            return prefix_edges + len(self.graph.neighbors(u) & prefix_set), None
        pool_deg, pe = counts
        child_edges = prefix_edges + pe[u]
        return child_edges, admit_from_pool(pool_deg, pe, u, self.graph)

    def _avg_pruned(
        self,
        child: List[MemberId],
        child_edges: int,
        pool_deg: Dict[MemberId, int],
        child_pe: Dict[MemberId, int],
    ) -> bool:
        """The average familiarity rule on a child that is not a leaf, from
        the counts ``_grow`` left; a prune is counted."""
        q = self.query
        counts = (2 * child_edges, pool_deg, child_pe)
        if avg_familiarity_prune(child, pool_deg, q.p, q.k, self.graph, counts):
            self.stats.bump(PRUNE_AVG_FAMILIARITY)
            return True
        return False

    def _root_refuted(self, counts: Optional[Counts]) -> bool:
        """The average rule on a root's empty prefix, from the root's fresh
        ``counts`` (None where the root keeps none): True, with one prune
        counted, when no group of ``p`` from the root's pool can reach the
        average level, so the root generates nothing. A pool of fewer than
        ``p`` is left to the loop guard, which generates nothing either."""
        if counts is None or len(counts[0]) < self.query.p:
            return False
        return self._avg_pruned([], 0, *counts)

    def _entry_test(
        self, prefix: List[MemberId], prefix_set: set
    ) -> Optional[Callable[[MemberId], bool]]:
        """The per-vertex entry test of a frame whose prefix keeps the
        budget (see the module docstring): it admits ``u`` exactly when
        ``prefix + [u]`` keeps it too. None where it cannot drop a candidate:
        outside per-vertex mode, with the member rule off, or while the
        prefix has at most ``k`` members."""
        k = self.query.k
        size = len(prefix)
        if not self.member_rule or size <= k:
            return None
        neighbors = self.graph.neighbors
        at_budget = {v for v in prefix if size - 1 - len(neighbors(v) & prefix_set) == k}
        least_known = size - k
        return lambda u: at_budget <= neighbors(u) and len(neighbors(u) & prefix_set) >= least_known

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
        # Per-vertex leaves with the member rule on: the entry test, built at
        # the first leaf that needs it (see the module docstring).
        admits = None
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
            elif self.member_rule:
                if admits is None:
                    admits = self._entry_test(prefix, prefix_set) or (lambda v: True)
                feasible = admits(u)
            else:
                feasible = familiarity_ok(child, self.query.k, self.query.familiarity_mode, graph)
            if feasible:
                self.best_total = child_dist
                self.best_group = tuple(sorted(child))
                self.best_venue = venue

    def search_venue(self, order: List[Tuple[float, MemberId]], venue: VenueId) -> bool:
        """Search the groups at ``venue`` from the root, over ``order``, its
        candidates as (distance, member) pairs in (distance, id) order.
        In average mode the root first runs the average rule on its pool
        (``_root_refuted``); a refuted venue is proved empty, with nothing
        generated. False when the state budget stopped the search before it
        finished, so the incumbent is not proved optimal."""
        counts = self._pool_counts(0, (m for _, m in order))
        try:
            self._venue_frame([], set(), 0, 0.0, order, counts, venue)
        except _StopSearch:
            return False
        return True

    def _venue_frame(
        self,
        prefix: List[MemberId],
        prefix_set: set,
        prefix_edges: int,
        base: float,
        pool: List[Tuple[float, MemberId]],
        counts: Optional[Counts],
        venue: VenueId,
    ) -> None:
        """The search below ``prefix`` at ``venue``: ``pool`` holds the
        venue's candidates as (distance, member) pairs in (distance, id)
        order, ``base`` is the prefix's total distance to the venue and
        ``counts`` the pool counts, when the frame keeps them."""
        p = self.query.p
        size = len(prefix)
        if size + 1 == p:
            self._scan_leaves(prefix, prefix_set, prefix_edges, base, pool, venue)
            return
        admits = self._entry_test(prefix, prefix_set)
        remaining = list(pool) if admits is None else [c for c in pool if admits(c[1])]
        self.stats.bump(PRUNE_MEMBER_FAMILIARITY, len(pool) - len(remaining))
        if not size and self._root_refuted(counts):
            return
        # ``counts`` cover ``remaining``: only per-vertex frames, which keep
        # none, drop candidates on entry.
        copy_counts = self._keeps_pool_counts(size + 1)

        while size + len(remaining) >= p:
            # A spent budget stops the search here, before the next state is
            # generated or harvested.
            if self.stop_at is not None and self.stats.generated_states >= self.stop_at:
                raise _StopSearch
            # The head of ``remaining`` is the next child, so this bounds the
            # child and every later sibling: the child's own check would add
            # the same distances in the same order.
            if self.leaf_prune is not None and distance_prune(
                base, size, p, remaining, self.best_total
            ):
                self.stats.bump(self.leaf_prune)
                break

            d_u, u = remaining.pop(0)
            child_edges, child_pe = self._grow(prefix_set, prefix_edges, u, counts)
            child = prefix + [u]
            child_dist = base + d_u
            self.stats.generated_states += 1

            # The counts are kept exactly where the average rule runs.
            if counts is not None and self._avg_pruned(child, child_edges, counts[0], child_pe):
                continue
            if self.harvest is not None:
                self.harvest(child, child_dist)

            self.stats.explored_states += 1
            child_counts = (dict(counts[0]), child_pe) if copy_counts else None
            self._venue_frame(
                child, prefix_set | {u}, child_edges, child_dist, remaining, child_counts, venue
            )


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
    vertices = graph.adjacency
    return [pair for pair in indexes.members.range_query(center, query.t) if pair[1] in vertices]


def ssp_solve(
    query: Query,
    graph: SocialGraph,
    data: SpatialDataset,
    indexes: Optional[Indexes] = None,
    *,
    config: Optional[PruneConfig] = None,
    stats: Optional[SearchStats] = None,
) -> Optional[Solution]:
    """Solve per venue with the single-venue search, in the query's venue
    order. The runs share one incumbent, so later venues start with the best
    bound found so far, and on an exact tie the first venue wins."""
    config = config or PruneConfig()
    stats = stats if stats is not None else SearchStats()
    start = time.perf_counter()
    indexes = indexes or build_indexes(data)
    search = _GroupSearch(query, graph, config, stats)
    for venue in query.venues:
        search.search_venue(candidate_order(query, graph, data, venue, indexes), venue)
    return _solution(search.best_group, search.best_venue, data, stats, start)


def _solution(
    group: Optional[Tuple[MemberId, ...]],
    venue: Optional[VenueId],
    data: SpatialDataset,
    stats: SearchStats,
    start: float,
) -> Optional[Solution]:
    """A solver's answer, or None without a group; ``stats`` takes the time
    since ``start``."""
    stats.elapsed_seconds = time.perf_counter() - start
    if group is None:
        return None
    return Solution(group, venue, total_distance(group, venue, data), stats)


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
    search = _GroupSearch(query, graph, config, stats, harvest=harvest, budget=w)
    if search.search_venue(order, venue):
        group = search.best_group
    else:
        # Every harvested member is an in-range candidate of the search.
        dist_of = {m: d for d, m in order}
        group = _merge(queues, dist_of, search.best_total, query, graph, stats)
    return _solution(group, venue, data, stats, start)


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
