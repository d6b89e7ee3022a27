"""Seeded random instances for tests, demos, and the benchmark harness."""

from __future__ import annotations

import math
import random
from typing import List, Optional, Tuple

from .model import Location, MemberId, SocialGraph, SpatialDataset


def _gnp_edges(rng: random.Random, vertices: List[MemberId], prob: float):
    for i, u in enumerate(vertices):
        for v in vertices[i + 1 :]:
            if rng.random() < prob:
                yield (u, v)


def _configuration_edges(rng: random.Random, vertices: List[MemberId], exponent: float):
    """Simple graph from a power-law-ish degree sequence via stub matching.

    Self-loops and duplicate edges are dropped, which slightly deflates high
    degrees; fine for benchmark purposes.
    """
    n = len(vertices)
    stubs: List[MemberId] = []
    for v in vertices:
        # Degrees in [1, n-1] with P(d) ~ d^-exponent. An exponent just
        # above 1 can draw a degree beyond any float; it is capped at n.
        r = rng.random()
        try:
            raw = (1.0 - r) ** (-1.0 / (exponent - 1.0))
        except OverflowError:
            raw = math.inf
        d = max(1, min(n - 1, int(round(min(raw, n)))))
        stubs.extend([v] * d)
    if len(stubs) % 2:
        stubs.append(vertices[0])
    rng.shuffle(stubs)
    seen = set()
    for i in range(0, len(stubs) - 1, 2):
        u, v = stubs[i], stubs[i + 1]
        if u == v:
            continue
        key = (u, v) if u < v else (v, u)
        if key in seen:
            continue
        seen.add(key)
        yield key


def random_instance(
    seed: int,
    n_members: int,
    n_venues: int,
    edge_prob: Optional[float] = 0.4,
    power_exponent: Optional[float] = None,
    box: float = 100.0,
) -> Tuple[SocialGraph, SpatialDataset]:
    """Uniform coordinates in a ``box``-sided square; social edges either from
    an edge-probability model or a configuration model (set ``power_exponent``
    to use the latter). Raises ``ValueError`` for ``edge_prob`` outside
    [0, 1], ``power_exponent`` not above 1 (None is allowed for both), or a
    ``box`` that is negative, infinite or NaN."""
    if not 0.0 <= box < math.inf:
        raise ValueError(f"box must be finite and at least 0, got {box}")
    if edge_prob is not None and not 0.0 <= edge_prob <= 1.0:
        raise ValueError(f"edge_prob must lie in [0, 1], got {edge_prob}")
    if power_exponent is not None and not power_exponent > 1.0:
        raise ValueError(f"power_exponent must be greater than 1, got {power_exponent}")
    rng = random.Random(seed)
    members = list(range(n_members))
    venues = [f"q{i}" for i in range(n_venues)]
    if power_exponent is not None:
        edges = list(_configuration_edges(rng, members, power_exponent))
    else:
        edges = list(_gnp_edges(rng, members, edge_prob if edge_prob is not None else 0.4))
    graph = SocialGraph(members, edges)
    member_locs = {
        v: Location(rng.uniform(0.0, box), rng.uniform(0.0, box)) for v in members
    }
    venue_locs = {
        q: Location(rng.uniform(0.0, box), rng.uniform(0.0, box)) for q in venues
    }
    return graph, SpatialDataset(member_locs, venue_locs)


def radius_for_quantile(
    graph: SocialGraph, data: SpatialDataset, quantile: float
) -> float:
    """A radius spanning feasible/infeasible regimes: the given quantile of all
    member-venue distances (clamped away from zero)."""
    from .model import distance

    dists = sorted(
        distance(data.member_locations[v], data.venue_locations[q])
        for v in graph.vertices
        for q in data.venue_locations
    )
    if not dists:
        return 1.0
    idx = min(len(dists) - 1, max(0, int(quantile * (len(dists) - 1))))
    return max(dists[idx], 1e-9)


def random_threshold_graph(seed: int, n: int) -> SocialGraph:
    """Build a graph by repeatedly adding an isolated or a dominating vertex."""
    rng = random.Random(seed)
    edges: List[Tuple[int, int]] = []
    for v in range(1, n):
        if rng.random() < 0.5:
            edges.extend((u, v) for u in range(v))
    return SocialGraph(range(n), edges)


def unit_distance_dataset(
    member_ids,
    n_venues: int,
) -> SpatialDataset:
    """All members exactly one distance unit from every venue: members stacked
    at (1, 0), venues stacked at the origin."""
    member_locs = {v: Location(1.0, 0.0) for v in member_ids}
    venue_locs = {f"q{i}": Location(0.0, 0.0) for i in range(n_venues)}
    return SpatialDataset(member_locs, venue_locs)
