"""Correctness gate: every answer is checked in benchmark code against the
raw inputs and against a reference optimum that does not come from the
solver under test.

The reference is ``rallypoint.brute_force`` when the number of in-radius
combinations is small, else the exhaustive search in this file, which works
on the raw coordinates and edge lists only.
"""

from __future__ import annotations

import math
from math import comb
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from bench_inputs import RawCity, RawQuery

# Combination count up to which the library's brute-force oracle is used.
BRUTE_FORCE_LIMIT = 2_000

# (total distance, venue) of the optimum, or None when no group qualifies.
Reference = Optional[Tuple[float, str]]


def adjacency(city: RawCity) -> List[FrozenSet[int]]:
    neighbors: List[set] = [set() for _ in city.members]
    for u, v in city.edges:
        neighbors[u].add(v)
        neighbors[v].add(u)
    return [frozenset(ns) for ns in neighbors]


def _venue_xy(city: RawCity, venue: str) -> Tuple[float, float]:
    return city.venues[int(venue[1:])]


def _in_range(city: RawCity, venue: str, radius: float) -> List[Tuple[float, int]]:
    vx, vy = _venue_xy(city, venue)
    dists = ((math.hypot(mx - vx, my - vy), m) for m, (mx, my) in enumerate(city.members))
    return sorted((d, m) for d, m in dists if d <= radius)


def per_vertex_mode(rq: RawQuery) -> bool:
    """The library's default: per-vertex budget for venue sets, average for one venue."""
    return len(rq.venues) > 1


def stranger_budget_ok(group: Sequence[int], k: int, per_vertex: bool, adj) -> bool:
    members = set(group)
    n = len(members)
    strangers = [n - 1 - len(adj[v] & members) for v in members]
    if per_vertex:
        return all(s <= k for s in strangers)
    return sum(strangers) <= k * n


def exact_reference(city: RawCity, rq: RawQuery, adj) -> Reference:
    """Exhaustive depth-first search over in-radius groups, per venue.

    Candidates are taken in ascending distance, so the cheapest completion
    of a partial group is the next ``p - size`` candidates; a partial group
    that cannot beat the incumbent ends its loop. Stranger counts and the
    number of unacquainted pairs only grow as a group grows, so a partial
    group that already breaks the budget is dropped.
    """
    p, k = rq.p, rq.k
    per_vertex = per_vertex_mode(rq)
    pair_budget = k * p  # average mode: 2 * unacquainted pairs <= k * p
    best = math.inf
    best_venue: Optional[str] = None

    for venue in rq.venues:
        cands = _in_range(city, venue, rq.radius)
        if len(cands) < p:
            continue
        dist = [d for d, _ in cands]
        ids = [m for _, m in cands]
        # The cheapest j more picks from index i on cost prefix[i + j] - prefix[i].
        prefix = [0.0]
        for d in dist:
            prefix.append(prefix[-1] + d)

        group: List[int] = []
        strangers: Dict[int, int] = {}

        def extend(start: int, total: float, unacquainted: int) -> None:
            nonlocal best, best_venue
            need = p - len(group)
            if need == 0:
                if total < best:
                    best, best_venue = total, venue
                return
            for i in range(start, len(ids) - need + 1):
                if total + prefix[i + need] - prefix[i] >= best:
                    return
                u = ids[i]
                misses = [v for v in group if v not in adj[u]]
                if per_vertex:
                    if len(misses) > k or any(strangers[v] + 1 > k for v in misses):
                        continue
                elif 2 * (unacquainted + len(misses)) > pair_budget:
                    continue
                for v in misses:
                    strangers[v] += 1
                strangers[u] = len(misses)
                group.append(u)
                extend(i + 1, total + dist[i], unacquainted + len(misses))
                group.pop()
                del strangers[u]
                for v in misses:
                    strangers[v] -= 1

        extend(0, 0.0, 0)
    return None if best_venue is None else (best, best_venue)


def combinations_count(city: RawCity, rq: RawQuery) -> int:
    return sum(comb(len(_in_range(city, q, rq.radius)), rq.p) for q in rq.venues)


def reference_answer(city: RawCity, rq: RawQuery, adj, built) -> Reference:
    """Optimum of ``rq``: brute force where affordable, else the exact search.

    ``built`` is the (graph, dataset) pair the library's oracle runs on.
    """
    if combinations_count(city, rq) <= BRUTE_FORCE_LIMIT:
        # Imported here: run.py puts the checkout's sources on the path first.
        from rallypoint import FamiliarityMode, Query, brute_force

        graph, data = built
        mode = FamiliarityMode.PER_VERTEX if per_vertex_mode(rq) else FamiliarityMode.AVERAGE
        query = Query(rq.p, rq.k, rq.radius, rq.venues, mode)
        result = brute_force(query, graph, data, budget=BRUTE_FORCE_LIMIT)
        return None if result.group is None else (result.total_distance, result.venue)
    return exact_reference(city, rq, adj)


def _same_total(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def check_answer(city: RawCity, rq: RawQuery, adj, answer, reference: Reference) -> Optional[str]:
    """None when ``answer`` is a feasible optimum for ``rq``, else the reason.

    ``answer`` is (group, venue, total) as the solver returned it, or None.
    """
    if answer is None:
        return None if reference is None else f"no answer, reference total {reference[0]!r}"
    group, venue, total = answer
    if reference is None:
        return f"answer {group!r} at {venue!r} where the reference has none"
    members = set(group)
    if len(group) != rq.p or len(members) != rq.p:
        return f"group {group!r} does not hold {rq.p} distinct members"
    if not all(isinstance(v, int) and 0 <= v < len(city.members) for v in group):
        return f"group {group!r} names unknown members"
    if venue not in rq.venues:
        return f"venue {venue!r} is not in the query"
    vx, vy = _venue_xy(city, venue)
    dists = [math.hypot(city.members[v][0] - vx, city.members[v][1] - vy) for v in sorted(group)]
    if max(dists) > rq.radius:
        return f"group {group!r} leaves radius {rq.radius!r} of {venue!r}"
    if not stranger_budget_ok(group, rq.k, per_vertex_mode(rq), adj):
        return f"group {group!r} breaks the stranger budget k={rq.k}"
    if not _same_total(sum(dists), total):
        return f"reported total {total!r} differs from recomputed {sum(dists)!r}"
    if not _same_total(total, reference[0]):
        return f"total {total!r} is not the optimum {reference[0]!r}"
    return None
