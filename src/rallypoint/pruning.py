"""Prune predicates shared by the solvers.

Every ``*_prune`` predicate returns True when the search may safely skip the
state it describes. The familiarity rules reduce to exact integer
comparisons; the distance rules compare a lower bound on completion cost
(exposed separately as ``*_bound`` for auditing) against the incumbent.

The pool rules are defined on sets and count acquaintances from scratch. For
the average rule the depth-first engines instead carry the counts in their
search frames and pass them in: a pool degree table ``{m: |N(m) & pool|}``
(built by ``pool_degrees``) and a prefix-edge table
``pe = {m: |N(m) & prefix|}`` over the same pool, both kept current by
``admit_from_pool``. The rule then costs integer arithmetic over the pool.
A frame keeps these counts only when a child of it can fire the rule; see
the engines' module docstrings.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from typing import Collection, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .model import MemberId, SocialGraph


@dataclass(frozen=True)
class PruneConfig:
    """Per-rule toggles; all rules are on by default."""

    avg_familiarity: bool = True
    distance: bool = True
    member_familiarity: bool = True
    venue_distance: bool = True
    ball_distance: bool = True

    def without(self, rule: str) -> "PruneConfig":
        return replace(self, **{_rule_field(rule): False})

    @staticmethod
    def none() -> "PruneConfig":
        return PruneConfig(**{f: False for f in PruneConfig.__dataclass_fields__})

    @staticmethod
    def from_enabled(names: Iterable[str]) -> "PruneConfig":
        values = {f: False for f in PruneConfig.__dataclass_fields__}
        for name in names:
            values[_rule_field(name)] = True
        return PruneConfig(**values)


def _rule_field(name: str) -> str:
    """The ``PruneConfig`` field of a rule name, which may use hyphens."""
    field = name.replace("-", "_")
    if field not in PruneConfig.__dataclass_fields__:
        raise ValueError(f"unknown prune rule {name!r}")
    return field


def completion_term(slots: int, unit_bound: float) -> float:
    # 0 * inf is NaN in float arithmetic; an empty completion costs nothing.
    if slots <= 0:
        return 0.0
    return slots * unit_bound


def pool_degrees(pool: Iterable[MemberId], graph: SocialGraph) -> Dict[MemberId, int]:
    """Pool degree table: each pool member's number of acquaintances in the pool."""
    pool_set = set(pool)
    return {v: len(graph.neighbors(v) & pool_set) for v in pool_set}


def admit_from_pool(
    pool_deg: Dict[MemberId, int], pe: Dict[MemberId, int], u: MemberId, graph: SocialGraph
) -> Dict[MemberId, int]:
    """Move ``u`` from the pool to the prefix. ``u`` leaves the pool degree
    table and the prefix-edge table ``pe`` in place, and its acquaintances
    left in the pool lose one pool degree; returns the prefix-edge table of
    the prefix grown by ``u``, where those acquaintances gain one edge."""
    del pool_deg[u], pe[u]
    child_pe = dict(pe)
    for w in graph.neighbors(u).intersection(pool_deg):
        pool_deg[w] -= 1
        child_pe[w] += 1
    return child_pe


def familiarity_counts(
    group: Iterable[MemberId], pool: Iterable[MemberId], graph: SocialGraph
) -> Tuple[int, Dict[MemberId, int], Dict[MemberId, int]]:
    """``(2 * edges inside group, pool degree table, prefix-edge table)``,
    counted from sets: what ``avg_familiarity_prune`` reads. The prefix-edge
    table maps each pool member to its number of acquaintances in ``group``."""
    inside = set(group)
    pool_deg = pool_degrees(pool, graph)
    return (
        sum(len(graph.neighbors(v) & inside) for v in inside),
        pool_deg,
        {v: len(graph.neighbors(v) & inside) for v in pool_deg},
    )


def avg_familiarity_prune(
    group: Sequence[MemberId],
    pool: Collection[MemberId],
    p: int,
    k: int,
    graph: SocialGraph,
    counts: Optional[Tuple[int, Dict[MemberId, int], Dict[MemberId, int]]] = None,
) -> bool:
    """True when no completion of ``group`` from ``pool`` can reach the required
    average acquaintance level of ``p - k - 1``.

    With ``r = p - |group|`` open slots, a picked pool member ``v`` adds at
    most ``2 * pe[v] + min(pool_deg[v], r - 1)`` to twice the group's edge
    count: each of its ``pe[v]`` edges into ``group`` counts twice, and it
    knows at most ``r - 1`` of the other picks. The rule fires when the pool
    has fewer than ``r`` members, or when twice the edges inside ``group``
    plus the ``r`` largest gains fall below ``p * (p - k - 1)``, the least a
    group of ``p`` needs. This per-vertex degree bound, in the spirit of the
    degree-based k-plex bounds of Balasundaram, Butenko and Hicks, is never
    looser than ``2E + r * max(pool_deg) + 2 * (group-to-pool edges)``. A
    group that keeps the stranger budget per vertex keeps it on average, so
    the rule is sound in both familiarity modes.

    ``counts`` is ``familiarity_counts(group, pool, graph)`` when the caller
    already holds it; ``group`` must then have no repeated member, and
    ``pool`` is not read.
    """
    if counts is None:
        group = set(group)
        counts = familiarity_counts(group, pool, graph)
    twice_edges, pool_deg, pe = counts
    slots = p - len(group)
    if slots <= 0:
        return twice_edges < p * (p - k - 1)
    if len(pool_deg) < slots:
        return True
    if slots == 1:
        # Each gain is twice the member's prefix edges.
        return twice_edges + 2 * max(pe.values()) < p * (p - k - 1)
    # A min-heap of the ``slots`` largest gains; every gain is at least 0.
    top = [0] * slots
    cap = slots - 1
    for v, d in pool_deg.items():
        gain = 2 * pe[v] + (d if d < cap else cap)
        if gain > top[0]:
            heapq.heapreplace(top, gain)
    return twice_edges + sum(top) < p * (p - k - 1)


def distance_prune(
    sum_group: float,
    group_size: int,
    p: int,
    nearest: Union[float, List[Tuple[float, MemberId]]],
    best: float,
) -> bool:
    """True when the cheapest completion already matches or exceeds the incumbent.

    ``nearest`` is what the pool offers the ``r = p - group_size`` open
    slots. A list holds the pool's (distance, member) pairs in nondecreasing
    distance order: a completion then costs at least the first ``r``
    distances, added to ``sum_group`` left to right, the sorted-access bound
    of Fagin, Lotem and Naor's threshold algorithm (a list shorter than ``r``
    admits no completion). A number is the smallest member-to-venue distance
    in the pool, and each open slot costs at least that much: looser, for a
    caller that holds only the minimum.
    """
    if group_size >= p:
        return sum_group >= best
    slots = p - group_size
    if isinstance(nearest, list):
        if len(nearest) < slots:
            return True
        total = sum_group
        for d, _ in nearest[:slots]:
            total += d
        return total >= best
    # At least one slot is open, so an infinite distance gives no NaN.
    return sum_group + slots * nearest >= best


def member_familiarity_prune(group: Sequence[MemberId], k: int, graph: SocialGraph) -> bool:
    """True when some member is already short of acquaintances beyond repair.

    Sound only in per-vertex mode: stranger counts never shrink as a group
    grows. The engines apply it before generation (``_GroupSearch._entry_test``).
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
) -> bool:
    """True when the pool is socially too sparse to finish the group (per-vertex mode).

    No solver calls it: in the joint search it fired on at most about one
    generated state in a hundred, while the pool degree table it reads cost
    every per-vertex frame a recount. It stays for the benchmark's per-layer
    tracing, which binds it by name."""
    slots = p - len(set(group))
    if slots - k - 1 <= 0:
        return False
    return sum(pool_degrees(pool, graph).values()) < slots * (slots - k - 1)


def outer_triangle_ball_bound(
    dists_group_to_ref_center: Sequence[float],
    d_centers: float,
    target_radius: float,
    p: int,
    frontier_bound: float,
) -> float:
    """Ball form of the outer-triangle bound: the target is a whole ball of
    venues and the pool term comes from the current index frontier.

    No solver calls it: by the triangle inequality it is never above
    ``ball_distance_bound`` for the same ball and frontier. It stays for the
    benchmark's per-layer tracing, which binds it by name."""
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
    members, where the rule is inapplicable.

    No solver calls it: by the triangle inequality the pairwise sum over
    ``n - 1`` is at most the group's total distance to the ball's center,
    so it is never above ``ball_distance_bound`` for the same ball and
    frontier. It stays for the benchmark's
    per-layer tracing, which binds it by name."""
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
