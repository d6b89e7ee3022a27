"""Joint multi-venue search: one search tree for all venues, with a fixed
reference venue (srdo) or adaptive (member, venue) selection (apdo).

Both orderings share one recursive engine. Candidate members are extracted
either from a static order toward a reference venue, or adaptively from the
(member, venue) pairs in range. A search sets itself up from
``candidate_order``, the in-range rule of every exact solver, called once per
venue of the query. It alone decides which venues are alive (at least ``p``
graph vertices within ``t``), the pool (the union of the alive venues'
candidates) and ``near``: for each pool member, the alive venues within its
radius and its distance to each, filled in one pass over the alive venues'
orders. A search frame carries one venue table, ``sums``: the venues still
usable for a solution, each with the prefix's total distance to it. The
radius, venue-distance and (apdo only) ball-distance rules remove venues
from it. The adaptive selection ranges over the alive venues within the
radius of every prefix member, worked out from the prefix, so toggling
prune rules never changes the member extraction order.

The srdo reference venue is the venue of the closest (member, venue) pair
between the pool and the query's live venues (``srdo_seed``). Every pool
member lies within ``t`` of a live venue, so the pair always exists. Each
alive venue's candidate order is sorted by distance, so the closest pairs
head their lists: the seed compares only the pairs at the smallest head
distance, never the whole of ``near``. The static order sorts the pool by
(distance to the reference venue, -degree, id), one sort of precomputed
keys. A member in range of the reference venue takes its distance from
``near``; only the others are computed, with ``model.distance``'s
arithmetic, which is the index's, so ties break on exact distances either
way and no index is read.

Each apdo search frame keeps one heap of the pairs of ``near`` whose member
is in the frame's pool and whose venue is in its radius universe, keyed by
``(prefix total to the venue + pair distance, -degree, member, venue)``.
Within a frame every key is fixed, so one heap, built at the frame's first
selection, serves all of its selections: each pops past the pairs of the
members the frame has already generated. The ball-distance bound
runs as one top-down pass over the venue ball tree, over the balls holding a
venue of ``sums`` (the ball's live venues). Each prefix member costs at least
its ``mindist`` to the ball, and each open slot at least the smallest first
distance of ``nearest`` (below) over the ball's live venues, so the pass
reads no pool member's location. A ball whose bound reaches the incumbent
takes its live venues out of ``sums`` and is not descended. The pass runs at
a frame's loop head after the incumbent improves, never on entry, so no ball
bound is checked against an infinite incumbent. The outer- and
inner-triangle ball bounds of ``pruning`` are not checked: by the triangle
inequality neither is above the ball-distance bound of the same ball.

A search keeps each alive venue's candidate order for its whole run. A search
frame carries its prefix's internal edge count, and reads its completion table,
``nearest``, off the candidate orders: for each venue of ``sums``, the first
``p - size`` (distance, member) pairs of the venue's candidate order that lie
in the frame's pool. A completion at a venue takes only its in-range
candidates, so the open slots cost at least the sum of as many first
distances: the sorted-access bound of Fagin, Lotem and Naor's threshold
algorithm, never below the number of open slots times the first distance.
The venue-distance rule reads it at the loop head and on each child. The
lists are read on entry, over the entry pool, and again over the remaining
candidates at each loop head after the incumbent improves; the pool only
shrinks, so a re-read can only tighten them. A venue left with no candidate
then leaves ``sums`` (a radius prune), so every ball bound the pass computes
is finite.

A frame's venues only shrink below it and its incumbent only falls, so in
both orderings a frame drops, on entry, every candidate with none of them in
its radius and, while the venue-distance rule is on, every candidate whose
child bound reaches the incumbent at all of them. The bound grows with the
candidate's distance, so each venue's distance-sorted candidates are read
only up to the first that fails it: the threshold algorithm's sorted-access
stop rule. The same monotony lets the rule accept a whole list at once: a
venue whose farthest candidate passes the bound keeps all of its candidates
without reading them one by one. The root frame skips the filter: its pool
is the alive venues' candidates and its incumbent is infinite, so no
candidate can drop there. The survivors keep their pool order, and apdo
builds its pair heap over them. A frame expands its candidates one by one,
srdo in pool order and apdo in heap order, and each child completes only
from the candidates the frame has not yet generated, so each candidate set
is generated once. The frame keeps those candidates as a set too, taking
out each one it generates, and hands the set to each child with its pool:
the child only reads it, so a leaf frame or a one-venue hand-off builds no
set at all. The paper's admission test (``sso_admits``) would only reorder
this walk; no search applies it. Solution venues are visited in the query's
venue order, never in set order, so the work done does not depend on the
string hash seed.

An srdo frame left with one venue in ``sums`` runs none of this joint
machinery: it hands the venue's candidates in its pool, in the venue's own
(distance, id) order, to the single-venue loop that ``ssp`` runs
(``_GroupSearch._venue_frame``), with the prefix's total to the venue and,
in average mode, its pool counts cut down to those candidates. One venue
needs no venue table, and walking in its own distance order rather than the
reference venue's keeps the sorted completion bound tight. On a one-venue
query the root frame hands off, so srdo searches as ``ssp`` does. The loop's
head check and its leaf scan count as venue-distance prunes, and both loops
run the same social rules.

apdo frames keep the joint loop. Handed off the same way, apdo measured
faster on the benchmark's mv-adaptive workload, but its searches then made
no ``mindist_point_ball`` call on the small stream that the benchmark's
tracing test requires to make some; the hand-off waits for that test to
change.

In average mode a frame may also carry its pool's acquaintance counts: the
pool degree table (each remaining candidate's acquaintances among the
remaining candidates) and the prefix-edge table (each remaining candidate's
acquaintances in the prefix). They are updated as each generated candidate
leaves the pool, rebuilt from the survivors when a frame drops candidates on
entry, and copied into child frames. The average rule reads them instead of
intersecting the pool, and a child's edge count reads the candidate's prefix
edges off the prefix-edge table. A frame keeps them only when a child of it
can fire the average rule: frames whose prefix is shorter than ``p - 1``,
while the rule is on and ``k < p - 1``. Per-vertex frames carry no pool
counts: the one social rule checked there, the member rule, reads only the
child group.

A frame whose prefix has ``p - 1`` members (a leaf frame) skips all of the
above: it runs the leaf scan of ``single_venue``, shared by both engines,
once per venue of ``sums`` in the query's venue order. Each scan walks the
venue's candidate order over the frame's pool, from the prefix's total to
the venue, and stops with one venue-distance prune at the first candidate
whose total reaches the live incumbent. Each (candidate, venue) pair it
reads counts as one generated and one explored state. On an exact tie in
total the first venue in query order wins, then the lower (distance, id).
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, List, Optional, Set, Tuple

from .balltree import mindist_point_ball
from .graph import core_decompose
from .indexes import Indexes, build_indexes
from .model import (
    FamiliarityMode,
    MemberId,
    PRUNE_BALL_DISTANCE,
    PRUNE_AVG_FAMILIARITY,
    PRUNE_VENUE_DISTANCE,
    PRUNE_VENUE_RADIUS,
    Query,
    SearchStats,
    SocialGraph,
    Solution,
    SpatialDataset,
    VenueId,
    total_distance,
)
from .pruning import (
    PruneConfig,
    admit_from_pool,
    avg_familiarity_prune,
    ball_distance_bound,
    distance_prune,
    pool_degrees,
)
# ``sso_admits``, the paper's admission test, is only re-exported.
from .single_venue import _GroupSearch, candidate_order, sso_admits


@dataclass(frozen=True)
class BoundRecord:
    """One ball-distance bound evaluation, kept for validity auditing.

    ``venue_ids`` lists only the ball's live venues, those still in the
    frame's venue table at the check, and ``pool`` the frame's remaining
    candidates. Each of those venues has a candidate in ``pool`` within
    ``t``, so the bound is at most the cheapest completion of ``group`` from
    ``pool`` at any of them, with or without the radius."""

    bound: float
    group: Tuple[MemberId, ...]
    pool: Tuple[MemberId, ...]
    venue_ids: Tuple[VenueId, ...]
    best_at_check: float


@dataclass(frozen=True)
class SelectionRecord:
    """One adaptive candidate selection, kept for argmin auditing."""

    group: Tuple[MemberId, ...]
    candidates: Tuple[MemberId, ...]
    venues: Tuple[VenueId, ...]
    member: MemberId
    venue: VenueId
    score: float


@dataclass
class MagsAudit:
    bounds: List[BoundRecord] = field(default_factory=list)
    selections: List[SelectionRecord] = field(default_factory=list)


def srdo_seed(
    near: Dict[MemberId, Dict[VenueId, float]],
    degree_of: Dict[MemberId, int],
) -> Optional[Tuple[MemberId, VenueId, float]]:
    """Closest (member, venue) pair as ``(member, venue, distance)`` in a
    member-to-venue distance table. Returns None when the table holds no pair.

    Pairs order by ``(distance, -degree, member, venue)``: ties prefer higher
    member degree, then ascending ids. The joint search passes only the pairs
    at the smallest distance, read off the heads of the alive venues'
    candidate orders; they hold every pair that can win.
    """
    rows = near.items()
    d_min = min((d for _, row in rows for d in row.values()), default=None)
    if d_min is None:
        return None
    # Only the pairs at the smallest distance are compared on the full key.
    _, m, q = min(
        (-degree_of.get(m, 0), m, q) for m, row in rows for q, d in row.items() if d == d_min
    )
    return (m, q, d_min)


class _MultiVenueSearch(_GroupSearch):
    """Joint member/venue branch-and-bound over a shared search tree."""

    leaf_rule = PRUNE_VENUE_DISTANCE

    def __init__(
        self,
        query: Query,
        graph: SocialGraph,
        data: SpatialDataset,
        indexes: Indexes,
        config: PruneConfig,
        stats: SearchStats,
        *,
        ordering: str,
        audit: Optional[MagsAudit] = None,
    ):
        super().__init__(query, graph, config, stats)
        self.indexes = indexes
        self.static = ordering == "srdo"
        self.audit = audit
        self.member_loc = data.member_locations
        self.venue_loc = data.venue_locations
        # Whether apdo runs the ball pass.
        self.ball_rules = not self.static and config.ball_distance
        # One ``candidate_order`` per venue decides every radius fact. A venue
        # is alive when at least p graph vertices lie within t of it (one
        # with fewer can never host a group). ``near[m]`` maps each pool
        # member to the alive venues within its radius and its distance to
        # each.
        self.alive_venues: List[VenueId] = []
        self.by_distance: Dict[VenueId, List[Tuple[float, MemberId]]] = {}
        self.near: Dict[MemberId, Dict[VenueId, float]] = {}
        near = self.near
        for q in query.venues:
            order = candidate_order(query, graph, data, q, indexes)
            if len(order) >= query.p:
                self.alive_venues.append(q)
                self.by_distance[q] = order
                for d, m in order:
                    row = near.get(m)
                    if row is None:
                        near[m] = {q: d}
                    else:
                        row[q] = d
        # Only pool members are ever ranked by degree.
        degree_of = self.degree_of = {v: graph.degree(v) for v in near}
        # The candidates in search order. srdo fixes it once, by distance to
        # the reference venue: the venue of the table's closest pair, which
        # exists whenever a venue is alive. apdo needs no seed: every pool
        # member lies within t of an alive venue, so it always has a pair to
        # start from.
        if self.static and self.alive_venues:
            # Each candidate order is sorted, so the closest pairs head their
            # lists: the seed compares only those.
            d_min = min(self.by_distance[q][0][0] for q in self.alive_venues)
            heads: Dict[MemberId, Dict[VenueId, float]] = {}
            for q in self.alive_venues:
                for d, m in self.by_distance[q]:
                    if d != d_min:
                        break
                    heads.setdefault(m, {})[q] = d
            _, q_ref, _ = srdo_seed(heads, degree_of)
            ref = self.venue_loc[q_ref]
            rx, ry = ref.x, ref.y
            loc = self.member_loc
            hypot = math.hypot
            # One keyed sort. A member in range of the reference venue has
            # its distance in ``near``; the others get ``model.distance``'s
            # arithmetic, the same as the index's, so every key is exact.
            keyed = []
            for v, row in near.items():
                d = row.get(q_ref)
                if d is None:
                    d = hypot(loc[v].x - rx, loc[v].y - ry)
                keyed.append((d, -degree_of[v], v))
            keyed.sort()
            self.pool = [v for _, _, v in keyed]
        else:
            self.pool = sorted(self.near)

    # -- top level ---------------------------------------------------------

    def run(self) -> None:
        # With no alive venue the pool is empty and the root frame stops at
        # once.
        sums = {q: 0.0 for q in self.alive_venues}
        pool = self.pool
        pool_deg = pe = None
        if self._keeps_pool_counts(0):
            pool_deg = pool_degrees(pool, self.graph)
            pe = dict.fromkeys(pool_deg, 0)
        self._frame([], set(), 0, pool, sums, pool_deg, pe, set(pool))

    def _keeps_pool_counts(self, size: int) -> bool:
        """As in the single-venue search (rule on, ``k < p - 1``, children
        not leaves), but in average mode only: the member rule is the one
        social rule of per-vertex joint frames."""
        average = self.query.familiarity_mode is FamiliarityMode.AVERAGE
        return average and super()._keeps_pool_counts(size)

    # -- candidate selection -----------------------------------------------

    def _pair_heap(
        self, prefix: List[MemberId], universe: Set[VenueId], remaining: List[MemberId]
    ) -> List[tuple]:
        """A frame's pair heap: ``(base[q] + d, -degree, m, q)`` for every
        pair ``(m, q)`` of ``near`` with ``m`` in ``remaining`` and ``q`` in
        the radius universe, where ``base[q]`` is the prefix's total distance
        to ``q``, summed in prefix order."""
        near = self.near
        base = {q: sum(near[s][q] for s in prefix) for q in universe}
        heap = [
            (base[q] + d, -self.degree_of[m], m, q)
            for m in remaining
            for q, d in near[m].items()
            if q in base
        ]
        heapq.heapify(heap)
        return heap

    def _select_adaptive(
        self,
        heap: List[tuple],
        prefix: List[MemberId],
        universe: Set[VenueId],
        remaining: List[MemberId],
        remaining_set: Set[MemberId],
    ) -> MemberId:
        """Pop the frame's pair heap to its first pair whose member is in
        ``remaining_set``, the set of ``remaining``, and return that member:
        of the (member, venue) pairs over ``remaining``, the one minimizing
        the grown group's total distance to the venue. The heap's other
        members are those the frame has generated. Every member of
        ``remaining`` has a pair in the heap, so the caller pops only while
        ``remaining`` is not empty.

        The heap ranges over the radius universe: the alive venues within
        ``t`` of every prefix member. It shrinks only through the radius, so
        extraction order is independent of the prune toggles."""
        while True:
            score, _, member, venue = heapq.heappop(heap)
            if member not in remaining_set:
                continue
            if self.audit is not None:
                self.audit.selections.append(
                    SelectionRecord(
                        group=tuple(prefix),
                        candidates=tuple(sorted(remaining)),
                        venues=tuple(sorted(universe)),
                        member=member,
                        venue=venue,
                        score=score,
                    )
                )
            return member

    def _ball_pass(
        self,
        prefix: List[MemberId],
        remaining: List[MemberId],
        sums: Dict[VenueId, float],
        nearest: Dict[VenueId, List[Tuple[float, MemberId]]],
    ) -> None:
        """Check the ball-distance bound against the incumbent, top down over
        the balls that hold a venue of ``sums`` (the ball's live venues). A
        ball whose bound reaches the incumbent takes its live venues out of
        ``sums`` and is not descended. Each prefix member is at least its
        ``mindist`` from every venue of the ball. A completion at a venue
        draws only on its in-range candidates in ``remaining``, so each open
        slot costs at least the smallest first distance of ``nearest`` over
        the ball's live venues; the caller has re-read ``nearest`` over
        ``remaining`` and dropped every venue it left empty."""
        p = self.query.p
        loc = self.member_loc
        stack = [self.indexes.venues.root]
        while stack:
            node = stack.pop()
            live = [q for q in node.venue_ids if q in sums]
            if not live:
                continue
            frontier = min(nearest[q][0][0] for q in live)
            f = sum(mindist_point_ball(loc[s], node.ball) for s in prefix)
            bound = ball_distance_bound(f, len(prefix), p, frontier)
            self._record_bound(bound, prefix, remaining, live)
            if bound >= self.best_total:
                self._kill_venues(live, sums, PRUNE_BALL_DISTANCE)
            elif not node.is_leaf:
                stack.extend(node.children)

    def _record_bound(self, bound, prefix, pool, venue_ids) -> None:
        if self.audit is not None:
            self.audit.bounds.append(
                BoundRecord(
                    bound=bound,
                    group=tuple(prefix),
                    pool=tuple(sorted(pool)),
                    venue_ids=tuple(venue_ids),
                    best_at_check=self.best_total,
                )
            )

    def _kill_venues(self, venues: List[VenueId], sums: Dict[VenueId, float], rule: str) -> None:
        """Take ``venues``, all of them in ``sums``, out of it."""
        for q in venues:
            del sums[q]
        self.stats.bump(rule, len(venues))

    # -- search frames -------------------------------------------------------

    def _frame(
        self,
        prefix: List[MemberId],
        prefix_set: Set[MemberId],
        prefix_edges: int,
        pool: List[MemberId],
        sums: Dict[VenueId, float],
        pool_deg: Optional[Dict[MemberId, int]],
        pe: Optional[Dict[MemberId, int]],
        pool_set: Set[MemberId],
    ) -> None:
        """Search below ``prefix`` over the candidates of ``pool``.
        ``pool_set`` is ``set(pool)``, the caller's own set: the frame only
        reads it."""
        p = self.query.p
        cfg = self.config
        stats = self.stats
        static = self.static
        graph = self.graph
        neighbors = graph.neighbors
        size = len(prefix)
        # ``sums`` maps each venue still usable for a solution to the
        # prefix's total distance to it, in the query's venue order. The
        # frame owns it: each child gets its own, so backtracking restores
        # it for free.
        if size + 1 == p:
            # A leaf frame: one scan per venue, over the venue's candidates
            # in the frame's pool.
            for q, total in sums.items():
                candidates = ((d, v) for d, v in self.by_distance[q] if v in pool_set)
                self._scan_leaves(prefix, prefix_set, prefix_edges, total, candidates, q)
            return
        if static and len(sums) == 1:
            # One venue left: the rest is that venue's search, in its own
            # distance order, over the frame's candidates in its range.
            ((q, base),) = sums.items()
            candidates = [(d, v) for d, v in self.by_distance[q] if v in pool_set]
            if pe is not None and len(candidates) < len(pool):
                pool_deg = pool_degrees([v for _, v in candidates], graph)
                pe = {v: pe[v] for _, v in candidates}
            self._venue_frame(prefix, prefix_set, prefix_edges, base, candidates, pool_deg, pe, q)
            return
        # ``pool_deg`` is the pool degree table of ``remaining`` and ``pe``
        # its prefix-edge table when this frame keeps counts; both are None
        # otherwise.

        # The completion bounds' table: a completion at q takes only
        # candidates of q, so the first ``p - size`` of them in the pool
        # bound the cost of the open slots. Read on entry, over the entry
        # pool; the pool only shrinks afterwards, so the lists stay valid
        # lower bounds until the loop head re-reads them.
        nearest = self._nearest(pool_set, size, sums)
        if size:
            remaining = self._entry_candidates(pool, pool_set, size, sums, nearest)
        else:
            # The root's pool is the alive venues' candidates, and under its
            # infinite incumbent no bound fires: no candidate can drop.
            remaining = list(pool)
        # The candidates not yet generated, kept current with ``remaining``
        # and handed to each child as its pool set.
        remaining_set = set(remaining)
        # Recounting the survivors costs less than taking each dropped
        # candidate out of the counts: most of a child's pool can drop.
        if pe is not None and len(remaining) < len(pool):
            pool_deg = pool_degrees(remaining, graph)
            pe = {v: pe[v] for v in remaining}
        copy_counts = self._keeps_pool_counts(size + 1)
        if not static:
            universe = set(self.alive_venues).intersection(*map(self.near.__getitem__, prefix))
            # The frame's pair heap, built at its first selection.
            heap: Optional[List[tuple]] = None

        # The incumbent the venue checks last ran against. Within a frame
        # venues leave ``sums`` only here, so the checks can turn false only
        # after the incumbent improves. After an improvement (never on
        # entry) the frame re-reads ``nearest`` over ``remaining``, drops
        # the venues left with no candidate and runs the ball pass, so no
        # ball bound is infinite or checked against an infinite incumbent.
        checked_at = None
        while size + len(remaining) >= p:
            if checked_at != self.best_total:
                if checked_at is not None:
                    nearest = self._nearest(remaining_set, size, sums)
                    dead = [q for q, row in nearest.items() if not row]
                    if dead:
                        self._kill_venues(dead, sums, PRUNE_VENUE_RADIUS)
                    if self.ball_rules and sums:
                        self._ball_pass(prefix, remaining, sums, nearest)
                    if not sums:
                        break
                checked_at = self.best_total
                if cfg.venue_distance and not self._any_venue_viable(size, sums, nearest):
                    stats.bump(PRUNE_VENUE_DISTANCE)
                    break

            # Each child completes only from the candidates not yet generated
            # here, so each candidate set is generated once.
            if static:
                u = remaining.pop(0)
            else:
                if heap is None:
                    heap = self._pair_heap(prefix, universe, remaining)
                u = self._select_adaptive(heap, prefix, universe, remaining, remaining_set)
                remaining.remove(u)
            remaining_set.discard(u)
            stats.generated_states += 1
            child_pe = None
            if pe is not None:
                child_edges = prefix_edges + pe[u]
                child_pe = admit_from_pool(pool_deg, pe, u, graph)
            else:
                child_edges = prefix_edges + len(neighbors(u) & prefix_set)

            child_sums = self._child_sums(u, size + 1, sums, nearest)
            if not child_sums:
                continue
            child = prefix + [u]

            if self._member_prune(child):
                continue
            if pool_deg is not None:
                counts = (2 * child_edges, pool_deg, child_pe)
                if avg_familiarity_prune(child, pool_deg, p, self.query.k, graph, counts):
                    stats.bump(PRUNE_AVG_FAMILIARITY)
                    continue

            stats.explored_states += 1
            child_counts = (dict(pool_deg), child_pe) if copy_counts else (None, None)
            self._frame(
                child,
                prefix_set | {u},
                child_edges,
                remaining,
                child_sums,
                *child_counts,
                remaining_set,
            )

    def _nearest(
        self, members: Set[MemberId], size: int, sums: Dict[VenueId, float]
    ) -> Dict[VenueId, List[Tuple[float, MemberId]]]:
        """For each venue of ``sums``, the first ``p - size`` (distance,
        member) pairs of its candidate order that lie in ``members``: what a
        frame whose prefix has ``size`` members passes ``distance_prune``."""
        slots = self.query.p - size
        return {
            q: list(islice(((d, v) for d, v in self.by_distance[q] if v in members), slots))
            for q in sums
        }

    def _entry_candidates(
        self,
        pool: List[MemberId],
        pool_set: Set[MemberId],
        size: int,
        sums: Dict[VenueId, float],
        nearest: Dict[VenueId, List[Tuple[float, MemberId]]],
    ) -> List[MemberId]:
        """A frame's candidates: the members of ``pool``, in pool order,
        that some venue of ``sums`` can still take. A frame's venues only
        shrink below it and its incumbent only falls, so a candidate out of
        the radius of every venue, or, with the venue-distance rule on, one
        whose child bound reaches the incumbent at every venue (the test
        ``_child_sums`` applies), can join no improving group here. It
        leaves the pool on entry, never generated.

        The bound grows with the distance (float addition rounds
        monotonically), so each venue's farthest candidate is tested first:
        when it passes, so does every candidate, and the venue's whole list
        is taken in one step (ids out of the pool drop at the end). That
        covers every venue without the rule and every venue under an
        infinite incumbent. Otherwise the venue's candidates are walked in
        distance order up to the first pool member that fails the bound."""
        p = self.query.p
        best = self.best_total
        bound = self.config.venue_distance
        keep: Set[MemberId] = set()
        for q, total in sums.items():
            order = self.by_distance[q]
            row = nearest[q]
            if not bound or not distance_prune(total + order[-1][0], size + 1, p, row, best):
                keep.update(v for _, v in order)
                continue
            for d, v in order:
                if v in pool_set:
                    if distance_prune(total + d, size + 1, p, row, best):
                        break
                    keep.add(v)
        return [v for v in pool if v in keep]

    def _any_venue_viable(
        self,
        size: int,
        sums: Dict[VenueId, float],
        nearest: Dict[VenueId, List[Tuple[float, MemberId]]],
    ) -> bool:
        p = self.query.p
        for q, total in sums.items():
            if not distance_prune(total, size, p, nearest[q], self.best_total):
                return True
        return False

    def _child_sums(
        self,
        u: MemberId,
        child_size: int,
        sums: Dict[VenueId, float],
        nearest: Dict[VenueId, List[Tuple[float, MemberId]]],
    ) -> Dict[VenueId, float]:
        """The child's venue table: the venues of ``sums`` within the radius
        of ``u`` that survive the venue-distance check, with ``u``'s distance
        added. ``near[u]`` is in the query's venue order, so the table is
        too."""
        p = self.query.p
        best = self.best_total
        bound = self.config.venue_distance
        hits = pruned = 0
        child_sums: Dict[VenueId, float] = {}
        for q, d in self.near[u].items():
            if q in sums:
                hits += 1
                total = sums[q] + d
                if bound and distance_prune(total, child_size, p, nearest[q], best):
                    pruned += 1
                else:
                    child_sums[q] = total
        if pruned:
            self.stats.bump(PRUNE_VENUE_DISTANCE, pruned)
        if hits < len(sums):
            self.stats.bump(PRUNE_VENUE_RADIUS, len(sums) - hits)
        return child_sums


def mags_solve(
    query: Query,
    graph: SocialGraph,
    data: SpatialDataset,
    indexes: Optional[Indexes] = None,
    *,
    ordering: str = "apdo",
    config: Optional[PruneConfig] = None,
    core_preprocess: bool = False,
    stats: Optional[SearchStats] = None,
    audit: Optional[MagsAudit] = None,
) -> Optional[Solution]:
    """Index-driven joint search. ``ordering`` picks the candidate extraction
    strategy: "srdo" fixes the reference venue from the closest pair of a
    pool member and a live venue (``srdo_seed``), and a search frame left
    with one venue runs ``ssp``'s single-venue loop in that venue's distance
    order; "apdo" re-selects the best (member, venue) pair before every
    insertion and checks the ball-distance bound over the venue ball tree.
    "apdo" reads the venue ball tree: ``indexes`` without one raise
    ``ValueError``."""
    if ordering not in ("srdo", "apdo"):
        raise ValueError(f"unknown ordering {ordering!r}")
    if ordering == "apdo" and indexes is not None and indexes.venues is None:
        raise ValueError("ordering 'apdo' needs a venue ball tree, but indexes.venues is None")
    config = config or PruneConfig()
    stats = stats if stats is not None else SearchStats()
    start = time.perf_counter()
    if core_preprocess and query.familiarity_mode is FamiliarityMode.PER_VERTEX:
        graph = core_decompose(graph, query.p, query.k)
    search = _MultiVenueSearch(
        query,
        graph,
        data,
        indexes or build_indexes(data),
        config,
        stats,
        ordering=ordering,
        audit=audit,
    )
    search.run()
    group, venue = search.best_group, search.best_venue
    stats.elapsed_seconds = time.perf_counter() - start
    if group is None:
        return None
    return Solution(group, venue, total_distance(group, venue, data), stats)
