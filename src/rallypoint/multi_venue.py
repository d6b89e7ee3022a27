"""Multi-venue solvers: sequential per-venue runs, one joint search tree with a
fixed reference venue, and index-driven search with adaptive venue selection.

All variants share one recursive engine. Candidate members are extracted
either from a static order toward a reference venue, or adaptively by
co-traversing the member R-tree and the venue ball tree. A search sets itself
up from ``candidate_order``, the in-range rule of every exact solver, called
once per venue of the query. It alone decides which venues are alive (at
least ``p`` graph vertices within ``t``), the pool (the union of the alive
venues' candidates) and ``near``: for each pool member, the alive venues
within its radius and its distance to each. A search frame carries one venue
table, ``sums``: the venues still usable for a solution, each with the
prefix's total distance to it. The radius and the distance-bound rules
remove venues from it. The adaptive traversal ranges over the alive venues
within the radius of every prefix member, worked out from the prefix, so
toggling prune rules never changes the member extraction order.

The srdo reference venue is the venue of the closest (member, venue) pair
between the pool and the query's live venues (``srdo_seed``), and the static
order sorts the pool by distance to it. Every pool member lies within ``t``
of a live venue, so the pair always exists and lies in ``near``; ties break
on exact distances and no index is read.

Adaptive (apdo) selections co-traverse the member R-tree and the venue ball
tree on a best-first queue of (R-tree entry, ball) pairs, ``_PairQueue``:
each pair is pushed once, when the later of its two sides enters the
frontier, and pairs with an expanded side are dropped lazily when popped.
Within a frame every pair key is fixed, so one queue serves all of the
frame's selections: each selection resumes it where the last one stopped,
dropping popped pairs whose member has been tried at the current ``theta``,
and an admitted member leaves its frontier. Only a ``theta`` escalation,
which offers the rejected members again, rebuilds the queue from the roots.
Entry-to-ball lower bounds come from a table kept for the whole search and
the group's summed bound to each ball from a table kept for the frame; the
ball-level distance bounds take their frontier minimum from the same tables.

A search keeps each alive venue's candidate order for its whole run. A search
frame carries its prefix's internal edge count, so the admission test is an
integer comparison (``admission_edges``), as is the average-mode familiarity
test at a leaf, and reads the smallest remaining candidate distance to each
venue off the candidate orders. With a static order, a cursor into the
frame's remaining candidates marks how far the current ``theta`` has tried
them: it advances on a rejection, stays put on an admission and returns to
the front when ``theta`` escalates. A static frame's venues only shrink below
it, so on entry it drops every candidate with none of them in its radius.
Solution venues are visited in the query's venue order, never in set order,
so the work done does not depend on the string hash seed.

A frame may also carry its pool's acquaintance counts: the pool degree table
(each remaining candidate's acquaintances among the remaining candidates),
the crossing count (prefix-to-remaining edges) and the table's sum (twice
the pool's internal edge count). They are updated as each generated or
dropped candidate leaves the pool and copied into child frames, and the
familiarity rules read them instead of intersecting the pool: the average
rule reads the table and the crossing count, the per-vertex pool rule the
sum. A frame keeps them only when a child of it can fire a rule that reads
them: in average mode, every frame while the average rule is on; in
per-vertex mode, frames whose children leave at least ``k + 2`` slots open,
while the pool rule is on. That depends only on ``p``, ``k`` and the depth.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .balltree import BalltreeNode, mindist_mbr_ball, mindist_point_ball
from .graph import core_decompose
from .indexes import Indexes, build_indexes
from .model import (
    FamiliarityMode,
    Location,
    MemberId,
    PRUNE_BALL_DISTANCE,
    PRUNE_AVG_FAMILIARITY,
    PRUNE_INNER_TRIANGLE,
    PRUNE_MEMBER_FAMILIARITY,
    PRUNE_OUTER_TRIANGLE,
    PRUNE_POOL_FAMILIARITY,
    PRUNE_VENUE_DISTANCE,
    PRUNE_VENUE_RADIUS,
    Query,
    SearchStats,
    SocialGraph,
    Solution,
    SpatialDataset,
    VenueId,
    average_familiarity_edges,
    distance,
    familiarity_ok,
    total_distance,
)
from .pruning import (
    PruneConfig,
    avg_familiarity_prune,
    ball_distance_bound,
    distance_prune,
    drop_from_pool,
    inner_triangle_bound,
    member_familiarity_prune,
    outer_triangle_ball_bound,
    pool_degrees,
    pool_familiarity_prune,
)
from .rtree import Rtree
# ``sso_admits`` is re-exported; the engine below applies the same test
# through ``admission_edges`` on the edge count it carries.
from .single_venue import admission_edges, candidate_order, run_single_venue_search, sso_admits


@dataclass(frozen=True)
class BoundRecord:
    """One distance-bound evaluation, kept for validity auditing."""

    rule: str
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


class _PairQueue:
    """Best-first queue over (R-tree entry, ball) pairs: the co-traversal of
    the member R-tree and the venue ball tree that one adaptive search frame
    resumes for each of its selections.

    R-tree entries are ``("n", node)`` or ``("m", member, loc)``. A pair's key
    is ``(f + g, kind, rkey, bkey)``: ``f`` is the ball's cost, ``g`` the
    entry-to-ball lower bound, ``kind`` is 1 for a (member, venue) pair, and
    ``rkey``/``bkey`` order members by degree then id and nodes by node id.
    Keys are unique, so pops follow the argmin of the whole live frontier
    product. Each pair is pushed once, when the later of its two sides enters
    the frontier; a pair whose entry or ball has been expanded since, or
    whose member has joined ``skip`` since, is dropped when popped. A pair's
    key is never below its parent pair's, so after any number of pops the
    next live (member, leaf ball) pair is still the argmin over the members
    outside ``skip``.

    ``ball_cost(node)`` gives ``f``, or None to keep the ball out of the
    frontier. Pairs with ``g > limit`` or a member in ``skip`` are never
    pushed, but their sides stay in the frontier: a skipped member still
    counts for ``frontier_bound`` until ``remove_member`` takes it out.
    ``g_memo`` maps a ball's node id to ``{entry id: g}``, where an entry id
    is the R-tree node or the member; a search shares it between all its
    queues.
    """

    def __init__(
        self,
        rtree: Rtree,
        ball_root: BalltreeNode,
        pool: Sequence[MemberId],
        degree_of: Dict[MemberId, int],
        ball_cost: Callable[[BalltreeNode], Optional[float]],
        *,
        limit: float,
        skip: Set[MemberId],
        g_memo: Dict[int, Dict[object, float]],
    ):
        self.pool = set(pool)
        self.degree_of = degree_of
        self.ball_cost = ball_cost
        self.limit = limit
        self.skip = skip
        self.g_memo = g_memo
        # The live frontier. Entries: entry id -> (entry id, rkey, entry).
        # Balls: node id -> (node, f, bkey, g row), in insertion order, which
        # fixes the order of the ball checks.
        self.live_r: Dict[object, tuple] = {}
        self.live_b: Dict[int, tuple] = {}
        self.heap: List[tuple] = []
        self._add_balls([ball_root])
        if rtree.root is not None:
            self._add_entries([("n", rtree.root)])

    def _push_pairs(self, entries, balls) -> None:
        heap, limit, skip = self.heap, self.limit, self.skip
        for bnode, f, bkey, row in balls:
            for rid, rkey, rentry in entries:
                g = row.get(rid)
                if g is None:
                    if rentry[0] == "m":
                        g = mindist_point_ball(rentry[2], bnode.ball)
                    else:
                        g = mindist_mbr_ball(rentry[1].mbr, bnode.ball)
                    row[rid] = g
                if g <= limit and rid not in skip:
                    kind = 1 if rkey[0] == 1 and bkey[0] == 1 else 0
                    heapq.heappush(heap, (f + g, kind, rkey, bkey, rentry, bnode))

    def _add_entries(self, rentries: List[tuple]) -> None:
        added = []
        for rentry in rentries:
            rid = rentry[1]
            if rentry[0] == "m":
                rkey = (1, -self.degree_of.get(rid, 0), rid)
            else:
                rkey = (0, rid.node_id, 0)
            self.live_r[rid] = (rid, rkey, rentry)
            added.append(self.live_r[rid])
        self._push_pairs(added, self.live_b.values())

    def _add_balls(self, bnodes: List[BalltreeNode]) -> None:
        added = []
        for bnode in bnodes:
            f = self.ball_cost(bnode)
            if f is None:
                continue
            bkey = (1, bnode.venue) if bnode.is_leaf else (0, bnode.node_id)
            row = self.g_memo.get(bnode.node_id)
            if row is None:
                row = self.g_memo[bnode.node_id] = {}
            self.live_b[bnode.node_id] = (bnode, f, bkey, row)
            added.append(self.live_b[bnode.node_id])
        self._push_pairs(self.live_r.values(), added)

    def pop(self):
        """Next live pair as ``(key, entry, ball)``, or None when none is left."""
        heap, live_r, live_b, skip = self.heap, self.live_r, self.live_b, self.skip
        while heap:
            item = heapq.heappop(heap)
            rentry, bnode = item[4], item[5]
            rid = rentry[1]
            if rid in live_r and bnode.node_id in live_b and rid not in skip:
                return item[:4], rentry, bnode
        return None

    def remove_member(self, member: MemberId) -> None:
        """Take ``member`` out of the pool and the frontier; its queued pairs
        are dropped when popped."""
        self.pool.discard(member)
        del self.live_r[member]

    def expand(self, rentry: tuple, bnode: BalltreeNode) -> None:
        """Replace the popped pair's R-tree node and internal ball by their
        children; members join only if they are in the pool."""
        new_entries: List[tuple] = []
        if rentry[0] == "n":
            node = rentry[1]
            del self.live_r[node]
            if node.is_leaf:
                new_entries = [("m", m, loc) for m, loc in node.entries if m in self.pool]
            else:
                new_entries = [("n", child) for child in node.children]
        if not bnode.is_leaf:
            del self.live_b[bnode.node_id]
        # New entries pair with the surviving balls, then new balls with
        # every live entry: each new pair is pushed exactly once.
        self._add_entries(new_entries)
        if not bnode.is_leaf:
            self._add_balls(bnode.children)

    def frontier_bound(self, bnode: BalltreeNode) -> float:
        """Smallest ``g`` from any live entry to the live ball ``bnode``.

        Called between a pop and its expansion, when the popped entry is
        still live, so the frontier is never empty."""
        row = self.live_b[bnode.node_id][3]
        return min(map(row.__getitem__, self.live_r))

    def ball_cost_of(self, bnode: BalltreeNode) -> float:
        """``f`` of the live ball ``bnode``."""
        return self.live_b[bnode.node_id][1]


def srdo_seed(
    near: Dict[MemberId, Dict[VenueId, float]],
    degree_of: Dict[MemberId, int],
) -> Optional[Tuple[MemberId, VenueId, float]]:
    """Closest (member, venue) pair as ``(member, venue, distance)`` in a
    member-to-venue distance table. Returns None when the table holds no pair.

    Pairs order by ``(distance, -degree, member, venue)``: ties prefer higher
    member degree, then ascending ids.
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


class _MultiVenueSearch:
    """Joint member/venue branch-and-bound over a shared search tree."""

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
        self.query = query
        self.graph = graph
        self.config = config
        self.stats = stats
        self.indexes = indexes
        self.static = ordering == "srdo"
        self.audit = audit
        self.best_total = math.inf
        self.best_group: Optional[Tuple[MemberId, ...]] = None
        self.best_venue: Optional[VenueId] = None
        self.member_loc = data.member_locations
        self.venue_loc = data.venue_locations
        # Fewest internal edges a leaf group needs in average mode.
        self.leaf_edges = None
        if query.familiarity_mode is FamiliarityMode.AVERAGE:
            self.leaf_edges = average_familiarity_edges(query.p, query.k)
        # Entry-to-ball lower bounds depend only on the indexes: one table
        # serves every co-traversal of this search (see ``_PairQueue``).
        self.g_memo: Dict[int, Dict[object, float]] = {}
        # One ``candidate_order`` per venue decides every radius fact. A venue
        # is alive when at least p graph vertices lie within t of it (one
        # with fewer can never host a group). ``near[m]`` maps each pool
        # member to the alive venues within its radius and its distance to
        # each.
        self.alive_venues: List[VenueId] = []
        self.by_distance: Dict[VenueId, List[Tuple[float, MemberId]]] = {}
        self.near: Dict[MemberId, Dict[VenueId, float]] = {}
        for q in query.venues:
            order = candidate_order(query, graph, data, q, indexes)
            if len(order) >= query.p:
                self.alive_venues.append(q)
                self.by_distance[q] = order
                for d, m in order:
                    self.near.setdefault(m, {})[q] = d
        pool = sorted(self.near)
        # Only pool members are ever ranked by degree.
        self.degree_of = {v: graph.degree(v) for v in pool}
        # The candidates in search order. srdo fixes it once, by distance to
        # the reference venue: the venue of the table's closest pair, which
        # exists whenever a venue is alive. apdo needs no seed: every pool
        # member lies within t of an alive venue, so it always has a pair to
        # start from.
        self.pool = pool
        if self.static and self.alive_venues:
            _, q_ref, _ = srdo_seed(self.near, self.degree_of)
            ref_loc = self.venue_loc[q_ref]
            self.pool = sorted(
                pool, key=lambda v: (distance(self.member_loc[v], ref_loc), -self.degree_of[v], v)
            )

    # -- top level ---------------------------------------------------------

    def run(self) -> None:
        # With no alive venue the pool is empty and the root frame stops at
        # once.
        sums = {q: 0.0 for q in self.alive_venues}
        pool = list(self.pool)
        pool_deg, degree_sum = None, None
        if self._keeps_pool_counts(0):
            pool_deg = pool_degrees(pool, self.graph)
            degree_sum = sum(pool_deg.values())
        # ``Query`` enforces k <= p - 1, so k is a valid relaxation level.
        self._frame([], set(), 0, pool, sums, 0.0, self.query.k, pool_deg, 0, degree_sum)

    def _keeps_pool_counts(self, size: int) -> bool:
        """Whether a frame whose prefix has ``size`` members keeps pool counts:
        only when a rule that reads them can fire on one of its children."""
        query = self.query
        if query.familiarity_mode is FamiliarityMode.PER_VERTEX:
            # The pool rule reads them only with k + 2 or more slots left
            # after the child (``pool_familiarity_prune``).
            return self.config.pool_familiarity and query.p - (size + 1) >= query.k + 2
        return self.config.avg_familiarity

    # -- candidate selection -----------------------------------------------

    def _ball_cost(
        self, prefix_locs: List[Location], universe: Set[VenueId]
    ) -> Callable[[BalltreeNode], Optional[float]]:
        """A frame's ball cost ``f``: the prefix's summed distance lower bound
        to the ball, or None for a ball with no venue in the radius universe.
        Both inputs are fixed within the frame, so the costs are memoised for
        all its queues."""
        costs: Dict[int, Optional[float]] = {}

        def ball_cost(node: BalltreeNode) -> Optional[float]:
            if node.node_id not in costs:
                if any(q in universe for q in node.venue_ids):
                    cost = sum(mindist_point_ball(loc, node.ball) for loc in prefix_locs)
                else:
                    cost = None
                costs[node.node_id] = cost
            return costs[node.node_id]

        return ball_cost

    def _select_adaptive(
        self,
        queue: _PairQueue,
        prefix: List[MemberId],
        prefix_locs: List[Location],
        universe: Set[VenueId],
        remaining: List[MemberId],
        visited: Set[MemberId],
        sums: Dict[VenueId, float],
        pairwise_sum: float,
    ) -> Optional[MemberId]:
        """Resume the frame's co-traversal of the member R-tree and venue ball
        tree, returning the member of the (member, venue) pair minimizing the
        grown group's total distance to the venue, over the members of
        ``remaining`` not in ``visited``. Ball-level distance bounds are
        evaluated, against the current incumbent, on each ball the first time
        this selection pops it, and remove hopeless venues from ``sums``.

        The traversal ranges over the radius universe: the alive venues
        within ``t`` of every prefix member. It shrinks only through the
        radius, so extraction order is independent of the prune toggles, and
        it holds every venue of the frame's ``sums``, so it is never empty."""
        if all(m in visited for m in remaining):
            return None
        checked_balls: Set[int] = set()

        while True:
            popped = queue.pop()
            if popped is None:
                return None
            key, rentry, bnode = popped

            if bnode.node_id not in checked_balls:
                checked_balls.add(bnode.node_id)
                self._ball_lemma_checks(
                    bnode, prefix, prefix_locs, remaining, queue, sums, pairwise_sum
                )

            if key[1] == 1:
                member, venue = rentry[1], bnode.venue
                if self.audit is not None:
                    self.audit.selections.append(
                        SelectionRecord(
                            group=tuple(prefix),
                            candidates=tuple(sorted(m for m in remaining if m not in visited)),
                            venues=tuple(sorted(universe)),
                            member=member,
                            venue=venue,
                            score=key[0],
                        )
                    )
                return member
            queue.expand(rentry, bnode)

    def _ball_lemma_checks(
        self,
        bx: BalltreeNode,
        prefix: List[MemberId],
        prefix_locs: List[Location],
        pool: Sequence[MemberId],
        queue: _PairQueue,
        sums: Dict[VenueId, float],
        pairwise_sum: float,
    ) -> None:
        p = self.query.p
        n = len(prefix)
        cfg = self.config

        if cfg.outer_triangle:
            sums_x = [distance(loc, bx.ball.center) for loc in prefix_locs]
            for bnode, *_ in queue.live_b.values():
                if bnode.node_id == bx.node_id:
                    continue
                bound = outer_triangle_ball_bound(
                    sums_x,
                    distance(bx.ball.center, bnode.ball.center),
                    bnode.ball.radius,
                    p,
                    queue.frontier_bound(bnode),
                )
                self._record_bound(PRUNE_OUTER_TRIANGLE, bound, prefix, pool, bnode.venue_ids)
                if bound >= self.best_total:
                    self._kill_venues(bnode.venue_ids, sums, PRUNE_OUTER_TRIANGLE)

        if cfg.inner_triangle and n >= 2:
            frontier = queue.frontier_bound(bx)
            bound = inner_triangle_bound(pairwise_sum, n, p, bx.ball.radius, frontier)
            self._record_bound(PRUNE_INNER_TRIANGLE, bound, prefix, pool, bx.venue_ids)
            if bound >= self.best_total:
                self._kill_venues(bx.venue_ids, sums, PRUNE_INNER_TRIANGLE)

        if cfg.ball_distance:
            frontier = queue.frontier_bound(bx)
            bound = ball_distance_bound(queue.ball_cost_of(bx), n, p, frontier)
            self._record_bound(PRUNE_BALL_DISTANCE, bound, prefix, pool, bx.venue_ids)
            if bound >= self.best_total:
                self._kill_venues(bx.venue_ids, sums, PRUNE_BALL_DISTANCE)

    def _record_bound(self, rule, bound, prefix, pool, venue_ids) -> None:
        if self.audit is not None and math.isfinite(bound):
            self.audit.bounds.append(
                BoundRecord(
                    rule=rule,
                    bound=bound,
                    group=tuple(prefix),
                    pool=tuple(sorted(pool)),
                    venue_ids=tuple(venue_ids),
                    best_at_check=self.best_total,
                )
            )

    def _kill_venues(self, venue_ids, sums: Dict[VenueId, float], rule: str) -> None:
        doomed = [q for q in venue_ids if q in sums]
        if doomed:
            for q in doomed:
                del sums[q]
            self.stats.bump(rule, len(doomed))

    # -- search frames -------------------------------------------------------

    def _frame(
        self,
        prefix: List[MemberId],
        prefix_set: Set[MemberId],
        prefix_edges: int,
        pool: List[MemberId],
        sums: Dict[VenueId, float],
        pairwise_sum: float,
        theta: int,
        pool_deg: Optional[Dict[MemberId, int]],
        cross: int,
        degree_sum: Optional[int],
    ) -> None:
        p = self.query.p
        k = self.query.k
        cfg = self.config
        stats = self.stats
        static = self.static
        per_vertex = self.query.familiarity_mode is FamiliarityMode.PER_VERTEX
        graph = self.graph
        neighbors = graph.neighbors
        size = len(prefix)
        # ``sums`` maps each venue still usable for a solution to the
        # prefix's total distance to it, in the query's venue order. The
        # frame owns it: each child gets its own, so backtracking restores
        # it for free.
        # ``pool_deg`` is the pool degree table of ``remaining``, ``cross`` the
        # number of prefix-to-remaining edges and ``degree_sum`` the sum of
        # the table, when this frame keeps them; otherwise ``pool_deg`` and
        # ``degree_sum`` are None.
        if static:
            # A static frame's venues only shrink below it, so a candidate
            # with none of them in its radius can join no group here: it
            # leaves the pool as a generated candidate does.
            remaining = []
            for v in pool:
                if not sums.keys().isdisjoint(self.near[v]):
                    remaining.append(v)
                elif pool_deg is not None:
                    degree_sum -= 2 * drop_from_pool(pool_deg, v, graph)
                    cross -= len(neighbors(v) & prefix_set)
        else:
            remaining = list(pool)
        left = len(remaining)
        copy_counts = self._keeps_pool_counts(size + 1)
        visited: Set[MemberId] = set()
        # Static order: remaining[:cursor] has been tried at this theta.
        cursor = 0
        need = admission_edges(size + 1, theta, p)
        if not static:
            prefix_locs = [self.member_loc[v] for v in prefix]
            universe = set(self.alive_venues).intersection(*map(self.near.__getitem__, prefix))
            ball_cost = self._ball_cost(prefix_locs, universe)
            # The frame's pair queue, built at its first selection.
            queue: Optional[_PairQueue] = None

        # Smallest candidate-to-venue distance per surviving venue, used by the
        # completion bounds: a completion at q takes only candidates of q.
        # Computed once per frame; the pool only shrinks afterwards, so the
        # cached value stays a valid lower bound.
        remaining_set = set(remaining)
        pool_dmin = {
            q: next((d for d, v in self.by_distance[q] if v in remaining_set), math.inf)
            for q in sums
        }

        # The venue-distance check only turns false after the incumbent
        # improves or a venue leaves ``sums``; until then a passed check is
        # not repeated.
        viable_at = None
        while size + left >= p:
            if cfg.venue_distance and viable_at != (self.best_total, len(sums)):
                if not self._any_venue_viable(size, sums, pool_dmin):
                    stats.bump(PRUNE_VENUE_DISTANCE)
                    break
                viable_at = (self.best_total, len(sums))

            if static:
                u = remaining[cursor] if cursor < left else None
            else:
                if queue is None:
                    queue = _PairQueue(
                        self.indexes.members,
                        self.indexes.venues.root,
                        remaining,
                        self.degree_of,
                        ball_cost,
                        limit=self.query.t,
                        skip=visited,
                        g_memo=self.g_memo,
                    )
                u = self._select_adaptive(
                    queue, prefix, prefix_locs, universe, remaining, visited, sums, pairwise_sum
                )
            if u is None:
                if not visited:
                    break
                if theta < p - 1:
                    theta += 1
                    stats.theta_escalations += 1
                    need = admission_edges(size + 1, theta, p)
                    # The rejected members are offered again, so the queue
                    # restarts from the roots. At the highest theta every
                    # tried member was admitted, so the spent queue stays.
                    queue = None
                visited.clear()
                cursor = 0
                continue
            visited.add(u)

            child_edges = prefix_edges + len(neighbors(u) & prefix_set)
            if child_edges < need:
                cursor += 1
                continue

            if static:
                del remaining[cursor]
            else:
                remaining.remove(u)
                queue.remove_member(u)
            left -= 1
            stats.generated_states += 1
            if pool_deg is not None:
                deg_u = drop_from_pool(pool_deg, u, graph)
                cross -= child_edges - prefix_edges
                degree_sum -= 2 * deg_u

            child_sums = self._child_sums(u, size + 1, sums, pool_dmin)
            if not child_sums:
                continue
            child = prefix + [u]

            if per_vertex:
                if cfg.member_familiarity and member_familiarity_prune(child, k, graph):
                    stats.bump(PRUNE_MEMBER_FAMILIARITY)
                    continue
                if cfg.pool_familiarity and pool_familiarity_prune(
                    child, remaining, p, k, graph, degree_sum
                ):
                    stats.bump(PRUNE_POOL_FAMILIARITY)
                    continue
            elif cfg.avg_familiarity:
                counts = (2 * child_edges, max(pool_deg.values(), default=0), cross + deg_u)
                if avg_familiarity_prune(child, pool_deg, p, k, graph, counts):
                    stats.bump(PRUNE_AVG_FAMILIARITY)
                    continue

            if size + 1 == p:
                stats.explored_states += 1
                self._evaluate_leaf(child, child_edges, child_sums)
                continue

            # Only the adaptive ball checks read the pairwise sum.
            child_pairwise = pairwise_sum
            if not static:
                u_loc = self.member_loc[u]
                child_pairwise += sum(distance(self.member_loc[s], u_loc) for s in prefix)
            stats.explored_states += 1
            child_counts = (None, 0, None)
            if copy_counts:
                child_counts = (dict(pool_deg), cross + deg_u, degree_sum)
            self._frame(
                child,
                prefix_set | {u},
                child_edges,
                remaining,
                child_sums,
                child_pairwise,
                theta,
                *child_counts,
            )

    def _any_venue_viable(
        self, size: int, sums: Dict[VenueId, float], pool_dmin: Dict[VenueId, float]
    ) -> bool:
        p = self.query.p
        for q, total in sums.items():
            if not distance_prune(total, size, p, pool_dmin[q], self.best_total):
                return True
        return False

    def _child_sums(
        self,
        u: MemberId,
        child_size: int,
        sums: Dict[VenueId, float],
        pool_dmin: Dict[VenueId, float],
    ) -> Dict[VenueId, float]:
        """The child's venue table: the venues of ``sums`` within the radius
        of ``u`` that survive the venue-distance check, with ``u``'s distance
        added."""
        p = self.query.p
        row = self.near[u]
        out_of_radius = 0
        child_sums: Dict[VenueId, float] = {}
        for q, total in sums.items():
            if q not in row:
                out_of_radius += 1
                continue
            total += row[q]
            if self.config.venue_distance and distance_prune(
                total, child_size, p, pool_dmin[q], self.best_total
            ):
                self.stats.bump(PRUNE_VENUE_DISTANCE)
                continue
            child_sums[q] = total
        if out_of_radius:
            self.stats.bump(PRUNE_VENUE_RADIUS, out_of_radius)
        return child_sums

    def _evaluate_leaf(self, group: List[MemberId], edges: int, sums: Dict[VenueId, float]) -> None:
        best_here = min(sums, key=lambda q: (sums[q], q))
        total = sums[best_here]
        if total >= self.best_total:
            return
        if self.leaf_edges is not None:
            feasible = edges >= self.leaf_edges
        else:
            feasible = familiarity_ok(group, self.query.k, self.query.familiarity_mode, self.graph)
        if feasible:
            self.best_total = total
            self.best_group = tuple(sorted(group))
            self.best_venue = best_here


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
        search = run_single_venue_search(
            query, graph, data, venue, indexes, config, stats, initial_best=best
        )
        if search.best_group is not None and search.best_total < best:
            best = search.best_total
            best_group = search.best_group
            best_venue = venue
    stats.elapsed_seconds = time.perf_counter() - start
    if best_group is None:
        return None
    return Solution(best_group, best_venue, total_distance(best_group, best_venue, data), stats)


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
    pool member and a live venue (``srdo_seed``); "apdo" re-selects the best
    (member, venue) pair before every insertion and enables the ball-level
    distance bounds. "apdo" reads the venue ball tree: ``indexes`` without
    one raise ``ValueError``."""
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
