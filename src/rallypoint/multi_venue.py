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

Each apdo search frame sorts its candidates once, at its first selection,
each by its smallest ``(prefix total to the venue + pair distance, -degree,
member, venue)`` over its pairs of ``near`` whose venue is in the frame's
radius universe. Within a frame every key is fixed, so that one order serves
all of its selections: each takes the front candidate, the one whose pair
minimizes the grown group's total over the candidates not yet generated,
as srdo takes the front of its fixed order. A frame that stops at its loop
head before selecting sorts nothing. The ball-distance bound
runs as one top-down pass over the venue ball tree, over the balls holding a
venue of ``sums`` (the ball's live venues). Each prefix member costs at least
its ``mindist`` to the ball, and each open slot at least the smallest first
distance of the frame's lists (below) over the ball's live venues, so the
pass reads no pool member's location. A ball whose bound reaches the
incumbent takes its live venues out of ``sums`` and is not descended. The
pass runs in a frame's re-bound (below), after the incumbent improves, never
on entry, so no ball bound is checked against an infinite incumbent. The
outer- and inner-triangle ball bounds of ``pruning`` are not checked: by the
triangle inequality neither is above the ball-distance bound of the same
ball.

A search keeps each alive venue's candidate order for its whole run. A search
frame carries its prefix's internal edge count and, as the single-venue loop
does for its one venue, its lists: for each venue of ``sums``, the venue's
candidates in the frame's pool, in (distance, id) order. The root's lists are
the candidate orders themselves, since its pool is their union; every other
frame cuts its caller's lists down to its own pool on entry. The lists are
the frame's completion table. A completion at a venue takes only its
in-range candidates, so the open slots cost at least the sum of the first
``p - size`` distances of the venue's list: the sorted-access bound of
Fagin, Lotem and Naor's threshold algorithm, never below the number of open
slots times the first distance. The pool only shrinks within a frame, so
the table stays a valid lower bound while the frame generates children.

A frame's venues only shrink below it and its incumbent only falls. So on
entry a frame first drops, while the venue-distance rule is on, every venue
whose own bound (the prefix's total plus the first ``p - size`` distances
of its list) reaches the incumbent, one venue-distance prune each. It then
drops every candidate with none of the venues left in its radius and, while
the rule is on, every candidate whose child bound reaches the incumbent at
all of them (the entry filter). The bound grows with the candidate's
distance, so each venue's list is read only up to the first candidate that
fails it: the threshold algorithm's sorted-access stop rule. The same
monotony lets the filter accept a whole list at once: a venue whose
farthest candidate passes the bound keeps all of its candidates without
reading them one by one. The root frame skips both steps: its pool is the
alive venues' candidates and its incumbent is infinite, so nothing can drop
there.

Each time the incumbent improves, the frame re-bounds at its loop head,
before its next child (``_rebound``). It cuts its lists down to the
candidates it has not yet generated, which makes them its completion table,
and drops the venues left with no candidate (a radius prune each), so every
ball bound is finite. apdo then runs its ball pass. Last, the frame runs
both entry steps again, over the candidates it has not yet generated, and
cuts its pool counts down to the survivors. This is Lawler and Wood's
best-first cut inside a frame: by the entry filter's argument, a dropped
venue or candidate can join no improving group anywhere below the frame,
so the answer never changes. Between re-bounds neither the venues nor the
incumbent change, so every generated child has a venue that takes it, and
in per-vertex mode every generated child is explored.

The survivors keep their pool order, and apdo sorts them at its first
selection. A frame expands its candidates one by one off the front of that
list, srdo in pool order and apdo in its sorted order, and each child
completes only from the candidates the frame has not yet generated, so each
candidate set is generated once. The frame keeps those candidates as a set
too, taking out each one it generates, and hands the set to each child with
its pool and its lists: the child only reads them, so a leaf frame builds no
set and no lists at all. The paper's admission test (``sso_admits``) would
only reorder this walk; no search applies it.
Solution venues are visited in the query's venue order, never in set
order, so the work done does not depend on the string hash seed.

An srdo frame left with one venue in ``sums`` runs none of this joint
machinery: it hands its list for the venue, the venue's candidates in its
pool in the venue's own (distance, id) order, to the single-venue loop that
``ssp`` runs (``_GroupSearch._venue_frame``), with the prefix's total to the
venue and, in average mode, its pool counts cut down to those candidates.
One venue needs no venue table, and walking in its own distance order rather
than the reference venue's keeps the sorted completion bound tight. On a
one-venue query the root frame hands off, so srdo searches as ``ssp`` does.
The loop's head check and its leaf scan count as venue-distance prunes, and
both loops run the same social rules.

apdo frames keep the joint loop. Handed off the same way, apdo measured
faster on the benchmark's mv-adaptive workload, but its searches then made
no ``mindist_point_ball`` call on the small stream that the benchmark's
tracing test requires to make some; the hand-off waits for that test to
change.

In average mode a frame may also carry its pool's acquaintance counts. Both
loops keep them with the same steps of ``_GroupSearch``: the root counts its
pool, and a frame that drops candidates on entry, like an srdo hand-off,
cuts its caller's counts down to its own pool, and a re-bound cuts the
frame's own (``_pool_counts``); each
generated candidate leaves the pool (``_grow``), the average rule checks
each child (``_avg_pruned``), and each child frame gets copies. Before its
first child the root runs the average rule on its own pool, with an empty
prefix (``_root_refuted``): a feasible group at any venue lies in that
pool, so when the rule fires no venue has a group, and the search generates
nothing. An srdo root that hands off runs the same check in the
single-venue loop, as ``ssp`` does. Per-vertex
frames carry none: they run the single-venue loop's entry test
(``_GroupSearch._entry_test``) on the candidates that pass the radius and
venue-distance filter.

The two loops stay apart. The joint loop's entry filter reads venues and
their bounds, its re-bound runs only after an improvement, it
selects from a fixed or an adaptive order, and each child carries a venue
table; the single-venue loop has none of these. One loop for both would
branch on its caller at each of those points.

A frame whose prefix has ``p - 1`` members (a leaf frame) skips all of the
above: it runs the leaf scan of ``single_venue``, shared by both engines,
once per venue of ``sums`` in the query's venue order. Each scan walks its
caller's list for the venue over the frame's pool, from the prefix's total to
the venue, and stops with one venue-distance prune at the first candidate
whose total reaches the live incumbent. Each (candidate, venue) pair it
reads counts as one generated and one explored state. On an exact tie in
total the first venue in query order wins, then the lower (distance, id).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .balltree import mindist_point_ball
from .indexes import Indexes, build_indexes
from .model import (
    MemberId,
    PRUNE_BALL_DISTANCE,
    PRUNE_MEMBER_FAMILIARITY,
    PRUNE_VENUE_DISTANCE,
    PRUNE_VENUE_RADIUS,
    Query,
    SearchStats,
    SocialGraph,
    SpatialDataset,
    VenueId,
)
from .pruning import PruneConfig, ball_distance_bound, distance_prune
# ``sso_admits``, the paper's admission test, is only re-exported.
from .single_venue import Counts, _GroupSearch, _solution, candidate_order, sso_admits

# For each venue, (distance, member) pairs in (distance, id) order.
VenueLists = Dict[VenueId, List[Tuple[float, MemberId]]]


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
        self.by_distance: VenueLists = {}
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
        adjacency = graph.adjacency
        degree_of = self.degree_of = {v: len(adjacency[v]) for v in near}
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
            keyed = [
                (row[q_ref] if q_ref in row else hypot(loc[v].x - rx, loc[v].y - ry),
                 -degree_of[v], v)
                for v, row in near.items()
            ]
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
        # The root's pool is the union of the alive venues' candidate
        # orders, so they are its lists as they are.
        self._frame([], set(), 0, pool, sums, None, set(pool), self.by_distance)

    # -- candidate selection -----------------------------------------------

    def _selection_order(
        self, prefix: List[MemberId], universe: Set[VenueId], remaining: List[MemberId]
    ) -> Dict[MemberId, tuple]:
        """The frame's candidates in selection order, each mapped to its
        smallest ``(base[q] + d, -degree, m, q)`` over its pairs ``(m, q)``
        of ``near`` with ``q`` in the radius universe, the alive venues
        within ``t`` of every prefix member. ``base[q]`` is the prefix's
        total distance to ``q``, summed in prefix order. No key changes
        within a frame, and the universe shrinks only through the radius,
        so the order is independent of the prune toggles."""
        near = self.near
        degree_of = self.degree_of
        base = {q: sum(near[s][q] for s in prefix) for q in universe}
        pairs = []
        for m in remaining:
            rank = -degree_of[m]
            for q, d in near[m].items():
                if q in base:
                    pairs.append((base[q] + d, rank, m, q))
        pairs.sort()
        # A member's first pair in sorted order is its smallest.
        order: Dict[MemberId, tuple] = {}
        for key in pairs:
            if key[2] not in order:
                order[key[2]] = key
        return order

    def _record_selection(self, prefix, universe, remaining, key) -> None:
        score, _, member, venue = key
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

    def _ball_pass(
        self,
        prefix: List[MemberId],
        remaining: List[MemberId],
        sums: Dict[VenueId, float],
        lists: VenueLists,
    ) -> None:
        """Check the ball-distance bound against the incumbent, top down over
        the balls that hold a venue of ``sums`` (the ball's live venues). A
        ball whose bound reaches the incumbent takes its live venues out of
        ``sums`` and is not descended. Each prefix member is at least its
        ``mindist`` from every venue of the ball. A completion at a venue
        draws only on its in-range candidates in ``remaining``, so each open
        slot costs at least the smallest first distance of ``lists`` over
        the ball's live venues; the caller has cut ``lists`` down to
        ``remaining`` and dropped every venue it left empty."""
        p = self.query.p
        loc = self.member_loc
        stack = [self.indexes.venues.root]
        while stack:
            node = stack.pop()
            live = []
            frontier = math.inf
            for q in node.venue_ids:
                if q in sums:
                    live.append(q)
                    d = lists[q][0][0]
                    if d < frontier:
                        frontier = d
            if not live:
                continue
            f = sum(mindist_point_ball(loc[s], node.ball) for s in prefix)
            bound = ball_distance_bound(f, len(prefix), p, frontier)
            if self.audit is not None:
                self.audit.bounds.append(BoundRecord(
                    bound, tuple(prefix), tuple(sorted(remaining)), tuple(live), self.best_total
                ))
            if bound >= self.best_total:
                self._kill_venues(live, sums, PRUNE_BALL_DISTANCE)
            elif not node.is_leaf:
                stack.extend(node.children)

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
        counts: Optional[Counts],
        pool_set: Set[MemberId],
        lists: VenueLists,
    ) -> None:
        """Search below ``prefix`` over the candidates of ``pool``.
        ``counts`` are the caller's pool counts, over ``pool``, or None at
        the root and wherever the caller keeps none. ``pool_set`` is
        ``set(pool)`` and ``lists`` the caller's candidate lists, both the
        caller's own: the frame only reads them."""
        p = self.query.p
        stats = self.stats
        static = self.static
        size = len(prefix)
        # ``sums`` maps each venue still usable for a solution to the
        # prefix's total distance to it, in the query's venue order. The
        # frame owns it: each child gets its own, so backtracking restores
        # it for free.
        if size + 1 == p:
            # A leaf frame: one scan per venue, over the venue's candidates
            # in the frame's pool.
            for q, total in sums.items():
                candidates = ((d, v) for d, v in lists[q] if v in pool_set)
                self._scan_leaves(prefix, prefix_set, prefix_edges, total, candidates, q)
            return
        if size:
            # The frame's lists: for each venue of ``sums``, its candidates
            # in the pool, in (distance, id) order.
            lists = {q: [pair for pair in lists[q] if pair[1] in pool_set] for q in sums}
        if static and len(sums) == 1:
            # One venue left: the rest is that venue's search, in its own
            # distance order, over the frame's candidates in its range.
            ((q, base),) = sums.items()
            candidates = lists[q]
            counts = self._pool_counts(size, (v for _, v in candidates), counts)
            self._venue_frame(prefix, prefix_set, prefix_edges, base, candidates, counts, q)
            return

        # The lists are the frame's completion table: a completion at q takes
        # only candidates of q, so the first ``p - size`` of its list bound
        # the cost of the open slots. The pool only shrinks afterwards, so
        # they stay valid lower bounds until a re-bound cuts them.
        if size:
            entered = self._cut_to_incumbent(pool, size, sums, lists)
            admits = self._entry_test(prefix, prefix_set)
            remaining = entered if admits is None else [v for v in entered if admits(v)]
            stats.bump(PRUNE_MEMBER_FAMILIARITY, len(entered) - len(remaining))
        else:
            # The root's pool is the alive venues' candidates, and under its
            # infinite incumbent no bound fires: no candidate can drop.
            remaining = list(pool)
        # The candidates not yet generated, kept current with ``remaining``
        # and handed to each child as its pool set.
        remaining_set = set(remaining)
        # The frame's counts, over ``remaining``.
        counts = self._pool_counts(size, remaining_set, counts)
        # A feasible group at any venue lies in the root's pool.
        if not size and self._root_refuted(counts):
            return
        copy_counts = self._keeps_pool_counts(size + 1)
        if not static:
            universe = set(self.alive_venues).intersection(*map(self.near.__getitem__, prefix))
            # The frame's selection order, sorted at its first selection.
            order: Optional[Dict[MemberId, tuple]] = None

        # The incumbent the frame last bounded its venues and candidates
        # against. Within a frame they change only on entry and at a
        # re-bound, so the frame re-bounds once after each improvement.
        checked_at = self.best_total
        while size + len(remaining) >= p:
            if checked_at != self.best_total:
                checked_at = self.best_total
                remaining, lists = self._rebound(prefix, remaining, sums, lists)
                remaining_set = set(remaining)
                counts = self._pool_counts(size, remaining, counts)
                continue

            # Each child completes only from the candidates not yet generated
            # here, so each candidate set is generated once.
            if not static:
                if order is None:
                    order = self._selection_order(prefix, universe, remaining)
                    remaining = list(order)
                if self.audit is not None:
                    self._record_selection(prefix, universe, remaining, order[remaining[0]])
            u = remaining.pop(0)
            remaining_set.discard(u)
            stats.generated_states += 1
            child_edges, child_pe = self._grow(prefix_set, prefix_edges, u, counts)

            child_sums = self._child_sums(u, size + 1, sums, lists)
            if not child_sums:
                continue
            child = prefix + [u]
            if counts is not None and self._avg_pruned(child, child_edges, counts[0], child_pe):
                continue

            stats.explored_states += 1
            child_counts = (dict(counts[0]), child_pe) if copy_counts else None
            self._frame(
                child,
                prefix_set | {u},
                child_edges,
                remaining,
                child_sums,
                child_counts,
                remaining_set,
                lists,
            )

    def _rebound(
        self,
        prefix: List[MemberId],
        remaining: List[MemberId],
        sums: Dict[VenueId, float],
        lists: VenueLists,
    ) -> Tuple[List[MemberId], VenueLists]:
        """Bound a frame's venues and candidates again after the incumbent
        improved. Returns the candidates of ``remaining`` left, in order, and
        the lists cut down to ``remaining``: the frame's new completion
        table. A venue left with no candidate leaves ``sums`` (a radius
        prune), so every ball bound apdo's ball pass then computes is
        finite; ``_cut_to_incumbent`` does the rest."""
        members = set(remaining)
        lists = {q: [pair for pair in lists[q] if pair[1] in members] for q in sums}
        dead = [q for q, row in lists.items() if not row]
        if dead:
            self._kill_venues(dead, sums, PRUNE_VENUE_RADIUS)
        if self.ball_rules and sums:
            self._ball_pass(prefix, remaining, sums, lists)
        return self._cut_to_incumbent(remaining, len(prefix), sums, lists), lists

    def _cut_to_incumbent(
        self, pool: List[MemberId], size: int, sums: Dict[VenueId, float], lists: VenueLists
    ) -> List[MemberId]:
        """With the venue-distance rule on, take out of ``sums`` every venue
        whose own completion bound reaches the incumbent (a venue-distance
        prune each); then the members of ``pool`` the venues left can still
        take (``_entry_candidates``)."""
        if self.config.venue_distance:
            p = self.query.p
            best = self.best_total
            dead = [q for q, base in sums.items() if distance_prune(base, size, p, lists[q], best)]
            if dead:
                self._kill_venues(dead, sums, PRUNE_VENUE_DISTANCE)
        return self._entry_candidates(pool, size, sums, lists)

    def _entry_candidates(
        self, pool: List[MemberId], size: int, sums: Dict[VenueId, float], lists: VenueLists
    ) -> List[MemberId]:
        """A frame's candidates: the members of ``pool``, in pool order,
        that some venue of ``sums`` can still take. ``lists`` holds each
        venue's candidates in the pool and is the frame's completion table.
        A frame's venues only shrink below it and its incumbent only falls,
        so a candidate out of the radius of every venue, or, with the
        venue-distance rule on, one whose child bound reaches the incumbent
        at every venue (the test ``_child_sums`` applies), can join no
        improving group here. It leaves the pool, never generated.

        The bound grows with the distance (float addition rounds
        monotonically), so each venue's farthest candidate is tested first:
        when it passes, so does every candidate, and the venue's whole list
        is taken in one step. That covers every venue without the rule and
        every venue under an infinite incumbent. Otherwise the venue's list
        is walked up to the first candidate that fails the bound."""
        p = self.query.p
        best = self.best_total
        bound = self.config.venue_distance
        keep: Set[MemberId] = set()
        for q, total in sums.items():
            row = lists[q]
            if bound and row and distance_prune(total + row[-1][0], size + 1, p, row, best):
                for d, v in row:
                    if distance_prune(total + d, size + 1, p, row, best):
                        break
                    keep.add(v)
            else:
                keep.update(v for _, v in row)
        return [v for v in pool if v in keep]

    def _child_sums(
        self, u: MemberId, child_size: int, sums: Dict[VenueId, float], lists: VenueLists
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
                if bound and distance_prune(total, child_size, p, lists[q], best):
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
    stats: Optional[SearchStats] = None,
    audit: Optional[MagsAudit] = None,
):
    """Index-driven joint search: the optimal ``Solution``, or None when
    nothing qualifies. ``ordering`` picks the candidate extraction
    strategy: "srdo" fixes the reference venue from the closest pair of a
    pool member and a live venue (``srdo_seed``), and a search frame left
    with one venue runs ``ssp``'s single-venue loop in that venue's distance
    order; "apdo" re-selects the best (member, venue) pair before every
    insertion, reading each search frame's selections off one sort of its
    candidates by their best pair, and checks the ball-distance bound over
    the venue ball tree.
    "apdo" reads the venue ball tree: ``indexes`` without one raise
    ``ValueError``."""
    if ordering not in ("srdo", "apdo"):
        raise ValueError(f"unknown ordering {ordering!r}")
    if ordering == "apdo" and indexes is not None and indexes.venues is None:
        raise ValueError("ordering 'apdo' needs a venue ball tree, but indexes.venues is None")
    config = config or PruneConfig()
    stats = stats if stats is not None else SearchStats()
    start = time.perf_counter()
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
    return _solution(search.best_group, search.best_venue, data, stats, start)
