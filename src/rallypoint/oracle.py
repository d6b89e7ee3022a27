"""Brute-force ground truth for the solvers and for pruning bounds.

Deliberately free of pruning so results stay trivially auditable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional, Sequence, Tuple

from .model import (
    MemberId,
    Query,
    SocialGraph,
    SpatialDataset,
    VenueId,
    distance,
    familiarity_ok,
)


class OracleBudgetError(RuntimeError):
    """The instance is too large for exhaustive enumeration."""


@dataclass(frozen=True)
class OracleResult:
    group: Optional[Tuple[MemberId, ...]]
    venue: Optional[VenueId]
    total_distance: Optional[float]
    enumerated: int

    @property
    def found(self) -> bool:
        return self.group is not None


def _combinations_count(n: int, p: int) -> int:
    return math.comb(n, p) if n >= p else 0


def brute_force(
    query: Query,
    graph: SocialGraph,
    data: SpatialDataset,
    budget: int = 10**8,
) -> OracleResult:
    """Enumerate every in-radius p-combination per venue and keep the best.

    Only located graph vertices take part. Ties break toward the
    lexicographically smallest sorted member list, then the smallest venue id.
    Raises ``ValueError`` for a venue ``data`` does not locate.
    """
    mode = query.familiarity_mode
    p = query.p

    per_venue_candidates = {}
    total_work = 0
    for venue in query.venues:
        venue_loc = data.venue_locations.get(venue)
        if venue_loc is None:
            raise ValueError(f"venue {venue!r} has no location")
        in_range = sorted(
            v
            for v, loc in data.member_locations.items()
            if v in graph and distance(loc, venue_loc) <= query.t
        )
        per_venue_candidates[venue] = in_range
        total_work += _combinations_count(len(in_range), p)
    if total_work > budget:
        raise OracleBudgetError(
            f"{total_work} combinations exceed the enumeration budget of {budget}"
        )

    best_key = None
    best = (None, None, None)
    enumerated = 0
    for venue in query.venues:
        venue_loc = data.venue_locations[venue]
        candidates = per_venue_candidates[venue]
        dist_of = {v: distance(data.member_locations[v], venue_loc) for v in candidates}
        for combo in combinations(candidates, p):
            enumerated += 1
            if not familiarity_ok(combo, query.k, mode, graph):
                continue
            total = sum(dist_of[v] for v in combo)
            key = (total, combo, venue)
            if best_key is None or key < best_key:
                best_key = key
                best = (combo, venue, total)
    return OracleResult(best[0], best[1], best[2], enumerated)


def completion_bound_oracle(
    group: Sequence[MemberId],
    pool: Iterable[MemberId],
    venue_ids: Sequence[VenueId],
    p: int,
    data: SpatialDataset,
) -> float:
    """Exact minimum total distance over all ways to grow ``group`` to ``p``
    members from ``pool``, minimized over the given venues.

    Distance only; familiarity is deliberately ignored, matching what the
    distance-pruning bounds claim. Returns +inf when no completion exists.
    """
    members = list(group)
    slots = p - len(members)
    if slots < 0:
        raise ValueError("group already larger than p")
    pool_ids = sorted(set(pool) - set(members))
    if slots > len(pool_ids):
        return math.inf
    best = math.inf
    for venue in venue_ids:
        venue_loc = data.venue_locations[venue]
        base = sum(distance(data.member_locations[v], venue_loc) for v in members)
        extras = sorted(distance(data.member_locations[v], venue_loc) for v in pool_ids)
        total = base + sum(extras[:slots])
        best = min(best, total)
    return best
