"""The exact searches expand each frame's candidates in pool order, and each
child completes only from the candidates the frame has not yet generated.

Two consequences are checked here. With every prune rule off, a search
generates each candidate set exactly once. And on inputs full of exact
distance ties, where the order among equal candidates decides which branch
is met first, every exact solver still returns the optimum of brute force.
"""

import random
from math import comb

import pytest

from rallypoint import (
    FamiliarityMode,
    Location,
    PruneConfig,
    Query,
    SearchStats,
    SocialGraph,
    SpatialDataset,
    brute_force,
    is_feasible,
    mags_solve,
    ssgs_solve,
    ssp_solve,
)

SINGLE_VENUE_SEARCHES = {
    "ssgs": ssgs_solve,
    "mags-srdo": lambda *a, **kw: mags_solve(*a, ordering="srdo", **kw),
    "mags-apdo": lambda *a, **kw: mags_solve(*a, ordering="apdo", **kw),
}

EXACT_SOLVERS = {
    "ssp": ssp_solve,
    "mags-srdo": lambda *a: mags_solve(*a, ordering="srdo"),
    "mags-apdo": lambda *a: mags_solve(*a, ordering="apdo"),
}


def _random_graph(rng, members, edge_prob):
    edges = [
        (u, v)
        for i, u in enumerate(members)
        for v in members[i + 1 :]
        if rng.random() < edge_prob
    ]
    return SocialGraph(members, edges)


def _prefix_count(n, p):
    """Groups of 1..p members that a search with no prune rule generates
    from ``n`` candidates: a j-member prefix is generated when its last
    member leaves at least ``p - j`` candidates after it, and each such
    prefix once."""
    return sum(comb(n - p + j, j) for j in range(1, p + 1))


def test_prefix_count_of_the_walkthrough():
    # Demo 01: six candidates, groups of three.
    assert _prefix_count(6, 3) == 34


@pytest.mark.parametrize("mode", list(FamiliarityMode), ids=lambda m: m.value)
@pytest.mark.parametrize("solver", sorted(SINGLE_VENUE_SEARCHES))
def test_unpruned_search_generates_each_candidate_set_once(solver, mode):
    rng = random.Random(f"enumeration-{solver}-{mode.value}")
    for _ in range(40):
        n = rng.randint(1, 10)
        p = rng.randint(1, n)
        members = list(range(n))
        locations = {m: Location(rng.uniform(-10, 10), rng.uniform(-10, 10)) for m in members}
        data = SpatialDataset(locations, {"q": Location(0.0, 0.0)})
        graph = _random_graph(rng, members, rng.uniform(0.2, 0.9))
        # Every member lies within the radius.
        query = Query(p, rng.randint(0, p - 1), 100.0, ("q",), mode)
        stats = SearchStats()
        SINGLE_VENUE_SEARCHES[solver](
            query, graph, data, config=PruneConfig.none(), stats=stats
        )
        assert stats.generated_states == _prefix_count(n, p), (n, p)


# --- degenerate inputs --------------------------------------------------------

# The lattice points at distance exactly 5 from the origin.
RING = [(3, 4), (4, 3), (5, 0), (4, -3), (3, -4), (0, -5),
        (-3, -4), (-4, -3), (-5, 0), (-4, 3), (-3, 4), (0, 5)]


def _grid(rng):
    """Members and venues on a small integer grid, so many members share a
    location and many distances tie."""
    members = [(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(rng.randint(6, 12))]
    venues = [(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(rng.randint(1, 3))]
    return members, venues, rng.choice([1.0, 2.0, 2.5, 3.0, 5.0])


def _collinear(rng):
    """Members and venues on one line, at integer positions."""
    slope = rng.choice([0, 1, 2])
    members = [(x, slope * x) for x in (rng.randint(0, 8) for _ in range(rng.randint(6, 12)))]
    venues = [(x, slope * x) for x in (rng.randint(0, 8) for _ in range(rng.randint(1, 3)))]
    return members, venues, float(rng.randint(2, 6) * (1 + slope))


def _ring(rng):
    """Every member exactly 5 from a shared venue at the origin, exactly at
    the radius; the other venues sit at integer points nearby."""
    members = [rng.choice(RING) for _ in range(rng.randint(6, 12))]
    venues = [(0, 0)] + [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(0, 2))]
    return members, venues, 5.0


@pytest.mark.parametrize("mode", list(FamiliarityMode), ids=lambda m: m.value)
@pytest.mark.parametrize("shape", [_grid, _collinear, _ring], ids=lambda f: f.__name__[1:])
def test_exact_solvers_match_brute_force_on_degenerate_inputs(shape, mode):
    rng = random.Random(f"degenerate-{shape.__name__}-{mode.value}")
    found = 0
    for _ in range(150):
        member_xy, venue_xy, t = shape(rng)
        members = list(range(len(member_xy)))
        data = SpatialDataset(
            {m: Location(*xy) for m, xy in zip(members, member_xy)},
            # A venue listed twice becomes two venues at one location.
            {f"q{j}": Location(*xy) for j, xy in enumerate(venue_xy)},
        )
        graph = _random_graph(rng, members, rng.uniform(0.3, 0.9))
        p = rng.randint(2, 5)
        query = Query(p, rng.randint(0, p - 1), t, tuple(data.venue_locations), mode)
        oracle = brute_force(query, graph, data)
        for name, solve in EXACT_SOLVERS.items():
            sol = solve(query, graph, data)
            if oracle.group is None:
                assert sol is None, name
                continue
            assert sol is not None, name
            # Among equal totals any optimal group may come back.
            assert sol.total_distance == pytest.approx(oracle.total_distance, abs=1e-9), name
            assert is_feasible(sol.group, sol.venue, query, graph, data), name
            found += 1
    assert found > 200, found
