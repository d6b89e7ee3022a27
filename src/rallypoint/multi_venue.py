"""Multi-venue solvers: sequential per-venue runs, one joint search tree with a
fixed reference venue, and index-driven search with adaptive venue selection.

All variants share one recursive engine. Candidate members are extracted
either from a static order toward a reference venue, or adaptively by
co-traversing the member R-tree and the venue ball tree. Venue bookkeeping is
split in two: the ordering universe shrinks only through radius violations
(so toggling prune rules never changes the member extraction order), while
the solution set additionally shrinks through the distance-bound rules.

The srdo reference venue is the venue of the closest (member, venue) pair
between the pool and the query's live venues (``srdo_seed``), and the static
order sorts the pool by distance to it. Both read the search's member-to-venue
distance table (below), so srdo set-up computes each distance once, ties
break on exact distances and no index is read. Every pool member lies within
``t`` of a live venue, so the pair always exists.

Each adaptive (apdo) selection co-traverses the member R-tree and the venue
ball tree on a best-first queue of (R-tree entry, ball) pairs,
``_PairQueue``: each pair is pushed once, when the later of its two sides
enters the frontier, and pairs with an expanded side are dropped lazily when
popped. A selection restarts from the roots every time, but reads
entry-to-ball lower bounds from a table kept for the whole search and the
group's summed bound to each ball from a table kept for the search frame; the
ball-level distance bounds take their frontier minimum from the same tables.

A search also keeps, for its whole run, every pool member's distance to every
alive venue, the set of alive venues within the radius of each member, and
each venue's pool sorted by distance. A search frame carries its prefix's
internal edge count, so the admission test is an integer comparison
(``admission_edges``), as is the average-mode familiarity test at a leaf, and
reads the smallest remaining candidate distance to each venue off the sorted
pools. With a static order, a cursor into the frame's remaining candidates
marks how far the current ``theta`` has tried them: it advances on a
rejection, stays put on an admission and returns to the front when ``theta``
escalates. An admitted candidate with no solution venue within its radius
is counted and dropped before any child venue state is built. Solution
venues are visited in the query's venue order, never in set order, so the
work done does not depend on the string hash seed.

A frame may also carry its pool's acquaintance counts: the pool degree table
(each remaining candidate's acquaintances among the remaining candidates),
the crossing count (prefix-to-remaining edges) and the table's sum (twice
the pool's internal edge count). They are updated as each generated
candidate leaves the pool and copied into child frames, and the familiarity
rules read them instead of intersecting the pool: the average rule reads
the table and the crossing count, the per-vertex pool rule the sum. A frame
keeps them only when a child of it can fire a rule that reads them: in
average mode, every frame while the average rule is on; in per-vertex mode,
frames whose children leave at least ``k + 2`` slots open, while the pool
rule is on. That depends only on ``p``, ``k`` and the depth.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

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
from .single_venue import admission_edges, run_single_venue_search, sso_admits


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


@dataclass
class _VenueState:
    """Per-search-state venue bookkeeping; children get copies, so backtracking
    restores the parent state for free. ``order_alive`` is the ordering
    universe; ``sums`` maps each venue still usable for a solution to the
    group's total distance to it, in the query's venue order."""

    order_alive: FrozenSet[VenueId]
    sums: Dict[VenueId, float]


class _PairQueue:
    """Best-first queue over (R-tree entry, ball) pairs for one adaptive
    co-traversal of the member R-tree and the venue ball tree.

    R-tree entries are ``("n", node)`` or ``("m", member, loc)``. A pair's key
    is ``(f + g, kind, rkey, bkey)``: ``f`` is the ball's cost, ``g`` the
    entry-to-ball lower bound, ``kind`` is 1 for a (member, venue) pair, and
    ``rkey``/``bkey`` order members by degree then id and nodes by node id.
    Keys are unique, so pops follow the argmin of the whole live frontier
    product. Each pair is pushed once, when the later of its two sides enters
    the frontier; a pair whose entry or ball has been expanded since is
    dropped when popped.

    ``ball_cost(node)`` gives ``f``, or None to keep the ball out of the
    frontier. Pairs with ``g > limit`` or a member in ``skip`` are never
    pushed, but their sides stay in the frontier. ``g_memo`` maps a ball's
    node id to ``{entry id: g}``, where an entry id is the R-tree node or the
    member; a search shares it between all its traversals.
    """

    def __init__(
        self,
        rtree: Rtree,
        ball_root: BalltreeNode,
        pool: Set[MemberId],
        degree_of: Dict[MemberId, int],
        ball_cost: Callable[[BalltreeNode], Optional[float]],
        *,
        limit: float,
        skip: Set[MemberId],
        g_memo: Dict[int, Dict[object, float]],
    ):
        self.pool = pool
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
        heap = self.heap
        while heap:
            item = heapq.heappop(heap)
            rentry, bnode = item[4], item[5]
            if rentry[1] in self.live_r and bnode.node_id in self.live_b:
                return item[:4], rentry, bnode
        return None

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
    venue_dist: Dict[MemberId, Dict[VenueId, float]],
    degree_of: Dict[MemberId, int],
) -> Optional[Tuple[MemberId, VenueId, float]]:
    """Closest (member, venue) pair as ``(member, venue, distance)`` in a
    member-to-venue distance table. Returns None when the table holds no pair.

    Pairs order by ``(distance, -degree, member, venue)``: ties prefer higher
    member degree, then ascending ids.
    """
    rows = venue_dist.items()
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
        pool: List[MemberId],
        alive_venues: List[VenueId],
        config: PruneConfig,
        stats: SearchStats,
        degree_of: Dict[MemberId, int],
        *,
        indexes: Indexes,
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
        self.alive_venues = alive_venues
        self.root_theta = min(query.k, query.p - 1)
        self.best_total = math.inf
        self.best_group: Optional[Tuple[MemberId, ...]] = None
        self.best_venue: Optional[VenueId] = None
        self.member_loc = data.member_locations
        self.venue_loc = data.venue_locations
        self.degree_of = degree_of
        # Fewest internal edges a leaf group needs in average mode.
        self.leaf_edges = None
        if query.familiarity_mode is FamiliarityMode.AVERAGE:
            self.leaf_edges = average_familiarity_edges(query.p, query.k)
        # Entry-to-ball lower bounds depend only on the indexes: one table
        # serves every co-traversal of this search (see ``_PairQueue``).
        self.g_memo: Dict[int, Dict[object, float]] = {}
        # Member-to-venue distances, per venue the pool in nondecreasing
        # distance, and per admitted member the alive venues within the
        # radius (filled in on the member's first admission).
        self.venue_dist: Dict[MemberId, Dict[VenueId, float]] = {}
        for v in pool:
            v_loc = self.member_loc[v]
            self.venue_dist[v] = {q: distance(v_loc, self.venue_loc[q]) for q in alive_venues}
        self.in_radius: Dict[MemberId, FrozenSet[VenueId]] = {}
        self.by_distance: Dict[VenueId, List[MemberId]] = {
            q: sorted(pool, key=lambda v: self.venue_dist[v][q]) for q in alive_venues
        }
        # The candidates in search order. srdo fixes it once, by distance to
        # the reference venue: the venue of the table's closest pair, which
        # exists because a search is built only for a non-empty pool and
        # non-empty live venues.
        self.pool = pool
        if self.static:
            _, q_ref, _ = srdo_seed(self.venue_dist, degree_of)
            self.pool = sorted(
                pool, key=lambda v: (self.venue_dist[v][q_ref], -degree_of.get(v, 0), v)
            )

    # -- top level ---------------------------------------------------------

    def run(self) -> None:
        if len(self.pool) < self.query.p or not self.alive_venues:
            return
        vstate = _VenueState(
            order_alive=frozenset(self.alive_venues),
            sums={q: 0.0 for q in self.alive_venues},
        )
        pool = list(self.pool)
        pool_deg, degree_sum = None, None
        if self._keeps_pool_counts(0):
            pool_deg = pool_degrees(pool, self.graph)
            degree_sum = sum(pool_deg.values())
        self._frame([], set(), 0, pool, vstate, 0.0, self.root_theta, pool_deg, 0, degree_sum)

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

    def _select_adaptive(
        self,
        prefix: List[MemberId],
        remaining: List[MemberId],
        visited: Set[MemberId],
        vstate: _VenueState,
        pairwise_sum: float,
        ball_costs: Dict[int, Optional[float]],
    ) -> Optional[MemberId]:
        """One co-traversal of the member R-tree and venue ball tree, returning
        the member of the (member, venue) pair minimizing the grown group's
        total distance to the venue. Ball-level distance bounds are evaluated
        on every popped ball and mark hopeless venues as unusable for
        solutions (the traversal itself keeps using the radius-only universe,
        so extraction order is independent of the prune toggles).

        ``ball_costs`` memoises, per ball, the prefix's summed distance lower
        bound (None for a ball with no venue left in the radius universe);
        both inputs are fixed within one frame, so the caller keeps one table
        per frame."""
        if not vstate.order_alive:
            return None
        if all(m in visited for m in remaining):
            return None
        pool_set = set(remaining)
        prefix_locs = [self.member_loc[v] for v in prefix]

        def ball_cost(node: BalltreeNode) -> Optional[float]:
            if node.node_id not in ball_costs:
                if any(q in vstate.order_alive for q in node.venue_ids):
                    cost = sum(mindist_point_ball(loc, node.ball) for loc in prefix_locs)
                else:
                    cost = None
                ball_costs[node.node_id] = cost
            return ball_costs[node.node_id]

        queue = _PairQueue(
            self.indexes.members,
            self.indexes.venues.root,
            pool_set,
            self.degree_of,
            ball_cost,
            limit=self.query.t,
            skip=visited,
            g_memo=self.g_memo,
        )
        checked_balls: Set[int] = set()

        while True:
            popped = queue.pop()
            if popped is None:
                return None
            key, rentry, bnode = popped

            if bnode.node_id not in checked_balls:
                checked_balls.add(bnode.node_id)
                self._ball_lemma_checks(
                    bnode, prefix, prefix_locs, remaining, queue, vstate, pairwise_sum
                )

            if key[1] == 1:
                member, venue = rentry[1], bnode.venue
                if self.audit is not None:
                    self.audit.selections.append(
                        SelectionRecord(
                            group=tuple(prefix),
                            candidates=tuple(sorted(m for m in pool_set if m not in visited)),
                            venues=tuple(sorted(vstate.order_alive)),
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
        vstate: _VenueState,
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
                    self._kill_venues(bnode.venue_ids, vstate, PRUNE_OUTER_TRIANGLE)

        if cfg.inner_triangle and n >= 2:
            frontier = queue.frontier_bound(bx)
            bound = inner_triangle_bound(pairwise_sum, n, p, bx.ball.radius, frontier)
            self._record_bound(PRUNE_INNER_TRIANGLE, bound, prefix, pool, bx.venue_ids)
            if bound >= self.best_total:
                self._kill_venues(bx.venue_ids, vstate, PRUNE_INNER_TRIANGLE)

        if cfg.ball_distance:
            frontier = queue.frontier_bound(bx)
            bound = ball_distance_bound(queue.ball_cost_of(bx), n, p, frontier)
            self._record_bound(PRUNE_BALL_DISTANCE, bound, prefix, pool, bx.venue_ids)
            if bound >= self.best_total:
                self._kill_venues(bx.venue_ids, vstate, PRUNE_BALL_DISTANCE)

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

    def _kill_venues(self, venue_ids, vstate: _VenueState, rule: str) -> None:
        doomed = [q for q in venue_ids if q in vstate.sums]
        if doomed:
            for q in doomed:
                del vstate.sums[q]
            self.stats.bump(rule, len(doomed))

    # -- search frames -------------------------------------------------------

    def _frame(
        self,
        prefix: List[MemberId],
        prefix_set: Set[MemberId],
        prefix_edges: int,
        pool: List[MemberId],
        vstate: _VenueState,
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
        remaining = list(pool)
        left = len(remaining)
        # ``pool_deg`` is the pool degree table of ``remaining``, ``cross`` the
        # number of prefix-to-remaining edges and ``degree_sum`` the sum of
        # the table, when this frame keeps them; otherwise ``pool_deg`` and
        # ``degree_sum`` are None.
        copy_counts = self._keeps_pool_counts(size + 1)
        visited: Set[MemberId] = set()
        # Static order: remaining[:cursor] has been tried at this theta.
        cursor = 0
        need = admission_edges(size + 1, theta, p)
        ball_costs: Dict[int, Optional[float]] = {}
        in_radius_of = self.in_radius

        # Smallest candidate-to-venue distance per surviving venue, used by the
        # completion bounds. Computed once per frame; the pool only shrinks
        # afterwards, so the cached value stays a valid lower bound.
        remaining_set = set(remaining)
        pool_dmin: Dict[VenueId, float] = {}
        for q in vstate.sums:
            first = next((v for v in self.by_distance[q] if v in remaining_set), None)
            pool_dmin[q] = math.inf if first is None else self.venue_dist[first][q]

        # The venue-distance check only turns false after the incumbent
        # improves or a venue leaves the solution universe; until then a
        # passed check is not repeated.
        viable_at = None
        while size + left >= p:
            if cfg.venue_distance and viable_at != (self.best_total, len(vstate.sums)):
                if not self._any_venue_viable(size, vstate, pool_dmin):
                    stats.bump(PRUNE_VENUE_DISTANCE)
                    break
                viable_at = (self.best_total, len(vstate.sums))

            if static:
                u = remaining[cursor] if cursor < left else None
            else:
                u = self._select_adaptive(
                    prefix, remaining, visited, vstate, pairwise_sum, ball_costs
                )
            if u is None:
                if not visited:
                    break
                if theta < p - 1:
                    theta += 1
                    stats.theta_escalations += 1
                    need = admission_edges(size + 1, theta, p)
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
            left -= 1
            stats.generated_states += 1
            if pool_deg is not None:
                deg_u = drop_from_pool(pool_deg, u, graph)
                cross -= child_edges - prefix_edges
                degree_sum -= 2 * deg_u

            # A candidate with no solution venue in its radius has no child
            # venue state to build: every venue fails the radius test.
            in_radius = in_radius_of.get(u)
            if in_radius is None:
                in_radius = self._fill_in_radius(u)
            if vstate.sums.keys().isdisjoint(in_radius):
                if vstate.sums:
                    stats.bump(PRUNE_VENUE_RADIUS, len(vstate.sums))
                continue
            cvstate = self._child_venue_state(u, in_radius, size + 1, vstate, pool_dmin)
            if not cvstate.sums:
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
                self._evaluate_leaf(child, child_edges, cvstate)
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
                cvstate,
                child_pairwise,
                theta,
                *child_counts,
            )

    def _any_venue_viable(
        self, size: int, vstate: _VenueState, pool_dmin: Dict[VenueId, float]
    ) -> bool:
        p = self.query.p
        for q, total in vstate.sums.items():
            if not distance_prune(total, size, p, pool_dmin.get(q, math.inf), self.best_total):
                return True
        return False

    def _fill_in_radius(self, u: MemberId) -> FrozenSet[VenueId]:
        """Alive venues within the query radius of ``u``, stored in
        ``in_radius`` for the rest of the search."""
        t = self.query.t
        in_radius = self.in_radius[u] = frozenset(
            [q for q, d in self.venue_dist[u].items() if d <= t]
        )
        return in_radius

    def _child_venue_state(
        self,
        u: MemberId,
        in_radius: FrozenSet[VenueId],
        child_size: int,
        vstate: _VenueState,
        pool_dmin: Dict[VenueId, float],
    ) -> _VenueState:
        p = self.query.p
        row = self.venue_dist[u]
        out_of_radius = 0
        sums2: Dict[VenueId, float] = {}
        for q, total in vstate.sums.items():
            if q not in in_radius:
                out_of_radius += 1
                continue
            total += row[q]
            if self.config.venue_distance and distance_prune(
                total, child_size, p, pool_dmin.get(q, math.inf), self.best_total
            ):
                self.stats.bump(PRUNE_VENUE_DISTANCE)
                continue
            sums2[q] = total
        if out_of_radius:
            self.stats.bump(PRUNE_VENUE_RADIUS, out_of_radius)
        return _VenueState(order_alive=vstate.order_alive & in_radius, sums=sums2)

    def _evaluate_leaf(self, group: List[MemberId], edges: int, vstate: _VenueState) -> None:
        sums = vstate.sums
        if not sums:
            return
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


def _prepare_instance(
    query: Query,
    graph: SocialGraph,
    data: SpatialDataset,
    indexes: Optional[Indexes],
    core_preprocess: bool,
):
    """Shared setup: optional core trimming, radius-based venue/member filters."""
    indexes = indexes or build_indexes(data)
    work_graph = graph
    if core_preprocess and query.familiarity_mode is FamiliarityMode.PER_VERTEX:
        work_graph = core_decompose(graph, query.p, query.k)
    vertex_set = set(work_graph.vertices)

    alive_venues: List[VenueId] = []
    reachable: Set[MemberId] = set()
    for q in query.venues:
        in_range = indexes.members.range_query(data.venue_locations[q], query.t)
        in_range &= vertex_set
        # A venue that cannot host even p members can never appear in a solution.
        if len(in_range) >= query.p:
            alive_venues.append(q)
            reachable |= in_range
    pool = sorted(reachable)
    return indexes, work_graph, pool, alive_venues


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
    pool member and a live venue (``srdo_seed``); "apdo" re-selects the best (member, venue) pair before
    every insertion and enables the ball-level distance bounds."""
    if ordering not in ("srdo", "apdo"):
        raise ValueError(f"unknown ordering {ordering!r}")
    config = config or PruneConfig()
    stats = stats if stats is not None else SearchStats()
    start = time.perf_counter()
    indexes, work_graph, pool, alive = _prepare_instance(
        query, graph, data, indexes, core_preprocess
    )

    group = venue = None
    if pool and alive:
        # Only pool members are ever ranked by degree. Every pool member lies
        # within t of an alive venue, so apdo always has a pair to start
        # from; it needs no seed.
        degree_of = {v: work_graph.degree(v) for v in pool}
        search = _MultiVenueSearch(
            query,
            work_graph,
            data,
            pool,
            alive,
            config,
            stats,
            degree_of,
            indexes=indexes,
            ordering=ordering,
            audit=audit,
        )
        search.run()
        group, venue = search.best_group, search.best_venue
    stats.elapsed_seconds = time.perf_counter() - start
    if group is None:
        return None
    return Solution(group, venue, total_distance(group, venue, data), stats)
