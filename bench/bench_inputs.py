"""Workload definitions and the seeded generator of raw benchmark inputs.

The generator emits only plain data: member and venue coordinates, edge
lists and query tuples. It mirrors the G(n, p) and power-law recipes of
``rallypoint.generator`` but does not import them, so an edit to the
library's generator cannot change what the benchmark feeds the solvers.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

BOX = 100.0


@dataclass(frozen=True)
class CitySpec:
    """One dataset shape: ``edge_prob`` selects G(n, p), else power law."""

    members: int
    venues: int
    edge_prob: Optional[float] = None
    power_exponent: Optional[float] = None


@dataclass(frozen=True)
class QueryMix:
    """Parameters a stream mixes for the cities of one graph kind: every
    (p, k) pair, with radius quantiles spread log-uniformly over ``quantiles``."""

    ps: Tuple[int, ...]
    ks: Tuple[int, ...]
    quantiles: Tuple[float, float]


@dataclass(frozen=True)
class Workload:
    name: str
    solver: str  # "ssgs", "srdo" or "apdo"
    why: str
    # (city shape, query mix, number of cities of this shape)
    city_groups: Tuple[Tuple[CitySpec, QueryMix, int], ...]
    venues_per_query: int
    # Queries for every (p, k) pair in every city.
    queries_per_pair: int


@dataclass(frozen=True)
class RawCity:
    members: List[Tuple[float, float]]  # member i sits at members[i]
    venues: List[Tuple[float, float]]  # venue "q<j>" sits at venues[j]
    edges: List[Tuple[int, int]]


@dataclass(frozen=True)
class RawQuery:
    city: int
    p: int
    k: int
    quantile: float
    radius: float
    venues: Tuple[str, ...]


_POWER = CitySpec(members=200, venues=16, power_exponent=2.5)
_GNP = CitySpec(members=200, venues=16, edge_prob=0.3)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="sv-social",
            solver="ssgs",
            why=(
                "ssgs; 120 cities n=200, 16 venues, half power-law 2.5, half G(n,0.3); "
                "p 3-4 / 4-5, k 1-2, radius quantile .02-.12; social checks carry most "
                "solve time, preparation a third of the median query"
            ),
            city_groups=(
                (_POWER, QueryMix((3, 4), (1, 2), (0.02, 0.12)), 60),
                (_GNP, QueryMix((4, 5), (1, 2), (0.02, 0.12)), 60),
            ),
            venues_per_query=1,
            queries_per_pair=8,
        ),
        Workload(
            name="mv-static",
            solver="srdo",
            why=(
                "mags srdo; 80 cities n=200 G(n,0.3), 16 of 32 venues per query; "
                "p 3-4, k 1-2, radius quantile .01-.1; srdo_seed (with its mindist calls), "
                "venue bookkeeping and the pool minimum carry the time"
            ),
            city_groups=(
                (
                    CitySpec(members=200, venues=32, edge_prob=0.3),
                    QueryMix((3, 4), (1, 2), (0.01, 0.1)),
                    80,
                ),
            ),
            venues_per_query=16,
            queries_per_pair=1,
        ),
        Workload(
            name="mv-adaptive",
            solver="apdo",
            why=(
                "mags apdo; 288 cities n=60 G(n,0.3), 8 of 16 venues per query; "
                "p 3-4, k 1-2, radius quantile .02-.1; the adaptive selection loop and "
                "ball bounds (mindist calls) carry the time"
            ),
            city_groups=(
                (
                    CitySpec(members=60, venues=16, edge_prob=0.3),
                    QueryMix((3, 4), (1, 2), (0.02, 0.1)),
                    288,
                ),
            ),
            venues_per_query=8,
            queries_per_pair=1,
        ),
    )
}


def _gnp_edges(rng: random.Random, n: int, prob: float) -> List[Tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < prob]


def _power_law_edges(rng: random.Random, n: int, exponent: float) -> List[Tuple[int, int]]:
    """Configuration model: degrees with P(d) ~ d^-exponent, stubs paired at
    random, self-loops and repeated pairs dropped."""
    stubs: List[int] = []
    for v in range(n):
        d = int(round((1.0 - rng.random()) ** (-1.0 / (exponent - 1.0))))
        stubs.extend([v] * max(1, min(n - 1, d)))
    if len(stubs) % 2:
        stubs.append(0)
    rng.shuffle(stubs)
    edges = set()
    for i in range(0, len(stubs) - 1, 2):
        u, v = stubs[i], stubs[i + 1]
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def make_city(rng: random.Random, spec: CitySpec) -> RawCity:
    if spec.power_exponent is not None:
        edges = _power_law_edges(rng, spec.members, spec.power_exponent)
    else:
        edges = _gnp_edges(rng, spec.members, spec.edge_prob)
    members = [(rng.uniform(0.0, BOX), rng.uniform(0.0, BOX)) for _ in range(spec.members)]
    venues = [(rng.uniform(0.0, BOX), rng.uniform(0.0, BOX)) for _ in range(spec.venues)]
    return RawCity(members, venues, edges)


def radius_at_quantile(city: RawCity, venues: Tuple[str, ...], quantile: float) -> float:
    """The given quantile of all distances from a member to a query venue.

    Taking the quantile over the query's own venues fixes how many members a
    single-venue query can reach, whether its venue sits central or remote.
    """
    spots = [city.venues[int(q[1:])] for q in venues]
    dists = sorted(math.hypot(mx - vx, my - vy) for mx, my in city.members for vx, vy in spots)
    return max(dists[int(quantile * (len(dists) - 1))], 1e-9)


def make_inputs(workload: Workload, seed: int) -> Tuple[List[RawCity], List[RawQuery]]:
    """Cities and the query stream of ``workload``; a pure function of ``seed``.

    Each city of a group gets ``queries_per_pair`` queries for every (p, k)
    pair. For one pair, the radius quantiles of all queries of the group
    come one from each of as many equal slices of the quantile range on a
    log scale, dealt to the cities at random. Continuous radii give a smooth
    spread of query costs, so the percentiles of a stream do not sit in a gap
    between clusters of cheap and costly queries; many cities, each with few
    queries, keep one odd city from swaying the stream. The order is
    shuffled so cheap and costly queries interleave.
    """
    rng = random.Random(f"{workload.name}/{seed}")
    cities: List[RawCity] = []
    queries: List[RawQuery] = []
    per_city = workload.queries_per_pair
    for spec, mix, count in workload.city_groups:
        first = len(cities)
        cities.extend(make_city(rng, spec) for _ in range(count))
        low, high = (math.log(q) for q in mix.quantiles)
        venue_ids = [f"q{j}" for j in range(spec.venues)]
        for p in mix.ps:
            for k in mix.ks:
                slices = list(range(count * per_city))
                rng.shuffle(slices)
                for i, s in enumerate(slices):
                    index = first + i // per_city
                    q = math.exp(low + (s + rng.random()) / len(slices) * (high - low))
                    venues = tuple(sorted(rng.sample(venue_ids, workload.venues_per_query)))
                    radius = radius_at_quantile(cities[index], venues, q)
                    queries.append(RawQuery(index, p, k, q, radius, venues))
    rng.shuffle(queries)
    return cities, queries
