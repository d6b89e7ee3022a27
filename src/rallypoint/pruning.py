"""Prune predicates shared by the solvers.

Every ``*_prune`` predicate returns True when the search may safely skip the
state it describes. The familiarity rules reduce to exact integer
comparisons; the distance rules compare a lower bound on completion cost
(exposed separately as ``*_bound`` for auditing) against the incumbent.

The pool rules are defined on sets and count acquaintances from scratch. The
depth-first engines instead carry the counts in their search frames and pass
them in: a pool degree table ``{m: |N(m) & pool|}`` (built by
``pool_degrees`` and kept current by ``drop_from_pool``), the number of
prefix-to-pool edges (the crossing count) and the sum of the table's values
(twice the pool's internal edge count). Each rule then costs integer
arithmetic. A frame keeps these counts only when a child of it can fire a
rule that reads them; see the engines' module docstrings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Collection, Dict, Iterable, Optional, Sequence, Tuple

from .model import MemberId, SocialGraph


@dataclass(frozen=True)
class PruneConfig:
    """Per-rule toggles; all rules are on by default."""

    avg_familiarity: bool = True
    distance: bool = True
    member_familiarity: bool = True
    pool_familiarity: bool = True
    venue_distance: bool = True
    outer_triangle: bool = True
    inner_triangle: bool = True
    ball_distance: bool = True

    def without(self, rule: str) -> "PruneConfig":
        return replace(self, **{rule.replace("-", "_"): False})

    @staticmethod
    def none() -> "PruneConfig":
        return PruneConfig(**{f: False for f in PruneConfig.__dataclass_fields__})

    @staticmethod
    def from_enabled(names: Iterable[str]) -> "PruneConfig":
        values = {f: False for f in PruneConfig.__dataclass_fields__}
        for name in names:
            field = name.replace("-", "_")
            if field not in values:
                raise ValueError(f"unknown prune rule {name!r}")
            values[field] = True
        return PruneConfig(**values)


def completion_term(slots: int, unit_bound: float) -> float:
    # 0 * inf is NaN in float arithmetic; an empty completion costs nothing.
    if slots <= 0:
        return 0.0
    return slots * unit_bound


def pool_degrees(pool: Iterable[MemberId], graph: SocialGraph) -> Dict[MemberId, int]:
    """Pool degree table: each pool member's number of acquaintances in the pool."""
    pool_set = set(pool)
    return {v: len(graph.neighbors(v) & pool_set) for v in pool_set}


def drop_from_pool(pool_deg: Dict[MemberId, int], u: MemberId, graph: SocialGraph) -> int:
    """Remove ``u`` from a pool degree table in place; returns ``u``'s entry,
    its number of acquaintances among the members left."""
    degree = pool_deg.pop(u)
    for w in graph.neighbors(u).intersection(pool_deg):
        pool_deg[w] -= 1
    return degree


def familiarity_counts(
    group: Iterable[MemberId], pool: Iterable[MemberId], graph: SocialGraph
) -> Tuple[int, int, int]:
    """``(2 * edges inside group, largest pool degree, group-to-pool edges)``,
    counted from sets: what ``avg_familiarity_prune`` reads."""
    inside = set(group)
    pool_set = set(pool)
    return (
        sum(len(graph.neighbors(v) & inside) for v in inside),
        max((len(graph.neighbors(v) & pool_set) for v in pool_set), default=0),
        sum(len(graph.neighbors(v) & pool_set) for v in inside),
    )


def avg_familiarity_prune(
    group: Sequence[MemberId],
    pool: Collection[MemberId],
    p: int,
    k: int,
    graph: SocialGraph,
    counts: Optional[Tuple[int, int, int]] = None,
) -> bool:
    """True when no completion of ``group`` from ``pool`` can reach the required
    average acquaintance level of ``p - k - 1``.

    The upper bound counts edges inside the group, an optimistic estimate of
    edges among the picked pool members, and all group-to-pool edges.

    ``counts`` is ``familiarity_counts(group, pool, graph)`` when the caller
    already holds it; ``group`` must then have no repeated member, and
    ``pool`` is read only for emptiness.
    """
    if counts is None:
        group, pool = set(group), set(pool)
    n = len(group)
    if n < p and not pool:
        return True
    sum_internal, max_pool, crossing = counts or familiarity_counts(group, pool, graph)
    return sum_internal + (p - n) * max_pool + 2 * crossing < p * (p - k - 1)


def distance_prune(
    sum_group: float,
    group_size: int,
    p: int,
    d_min: float,
    best: float,
) -> bool:
    """True when the cheapest completion already matches or exceeds the incumbent.

    ``d_min`` is the smallest member-to-venue distance available in the pool.
    """
    if group_size >= p:
        return sum_group >= best
    return sum_group + completion_term(p - group_size, d_min) >= best


def member_familiarity_prune(group: Sequence[MemberId], k: int, graph: SocialGraph) -> bool:
    """True when some member is already short of acquaintances beyond repair.

    Sound only when every member must individually respect the stranger
    budget (per-vertex mode): stranger counts never shrink as a group grows.
    """
    inside = set(group)
    if not inside:
        return False
    min_acquainted = min(len(graph.neighbors(v) & inside) for v in inside)
    return len(inside) - min_acquainted > k + 1


def pool_familiarity_prune(
    group: Sequence[MemberId],
    pool: Iterable[MemberId],
    p: int,
    k: int,
    graph: SocialGraph,
    pool_degree_sum: Optional[int] = None,
) -> bool:
    """True when the pool is socially too sparse to finish the group (per-vertex mode).

    ``pool_degree_sum`` is the sum of ``pool_degrees(pool, graph)`` when the
    caller already holds it; ``pool`` is then not read.
    """
    n = len(set(group))
    slots = p - n
    if slots <= 0 or slots - k - 1 <= 0:
        return False
    if pool_degree_sum is None:
        pool_degree_sum = sum(pool_degrees(pool, graph).values())
    return pool_degree_sum < slots * (slots - k - 1)


def outer_triangle_point_bound(
    dists_group_to_ref: Sequence[float],
    d_ref_to_target: float,
    p: int,
    d_pool_min: float,
) -> float:
    """Lower bound on completing the group at a target venue, derived from
    cached distances to a reference venue via the reverse triangle inequality.

    Each per-member term is clamped at zero so the bound stays sound even when
    the reference sits closer to a member than to the target.
    """
    n = len(dists_group_to_ref)
    bound = sum(max(0.0, d_ref_to_target - d) for d in dists_group_to_ref)
    return bound + completion_term(p - n, d_pool_min)


def outer_triangle_ball_bound(
    dists_group_to_ref_center: Sequence[float],
    d_centers: float,
    target_radius: float,
    p: int,
    frontier_bound: float,
) -> float:
    """Ball form of the outer-triangle bound: the target is a whole ball of
    venues and the pool term comes from the current index frontier."""
    n = len(dists_group_to_ref_center)
    bound = sum(max(0.0, d_centers - d - target_radius) for d in dists_group_to_ref_center)
    return bound + completion_term(p - n, frontier_bound)


def inner_triangle_bound(
    pairwise_sum: float,
    group_size: int,
    p: int,
    target_radius: float,
    frontier_bound: float,
) -> float:
    """Bound on the group's total distance to any venue in the target ball,
    using only pairwise distances inside the group. Returns -inf below two
    members, where the rule is inapplicable."""
    if group_size < 2:
        return -math.inf
    bound = max(0.0, pairwise_sum / (group_size - 1) - group_size * target_radius)
    return bound + completion_term(p - group_size, frontier_bound)


def ball_distance_bound(
    sum_mindist_group_to_ball: float,
    group_size: int,
    p: int,
    frontier_bound: float,
) -> float:
    """Direct ball bound: summed member-to-ball lower bounds plus the frontier term."""
    return sum_mindist_group_to_ball + completion_term(p - group_size, frontier_bound)
