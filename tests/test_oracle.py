import math
import random

import pytest

from rallypoint import (
    Location,
    OracleBudgetError,
    Query,
    SocialGraph,
    SpatialDataset,
    brute_force,
    completion_bound_oracle,
    mags_solve,
    ssgmerge_solve,
    ssgs_solve,
    ssp_solve,
    total_distance,
)
from rallypoint.generator import radius_for_quantile, random_instance


def test_whole_graph_group(g1_instance):
    graph, data = g1_instance
    query = Query(p=6, k=5, t=100.0, venues=("q",))
    res = brute_force(query, graph, data)
    assert res.group == tuple(sorted("abcdef"))
    assert res.enumerated == 1


def test_g1_fixture_optimum(g1_instance, g1_query):
    graph, data = g1_instance
    res = brute_force(g1_query, graph, data)
    assert res.group == ("a", "c", "d")
    assert res.total_distance == 27.0


def test_budget_refusal():
    graph, data = random_instance(0, 30, 2)
    query = Query(p=10, k=9, t=1e6, venues=tuple(sorted(data.venue_locations)))
    with pytest.raises(OracleBudgetError):
        brute_force(query, graph, data, budget=10)


def test_no_answer_reported(g1_instance):
    graph, data = g1_instance
    res = brute_force(Query(p=4, k=0, t=100.0, venues=("q",)), graph, data)
    assert not res.found
    assert res.group is None and res.total_distance is None


def test_relabeling_invariance():
    for seed in range(15):
        rng = random.Random(seed)
        graph, data = random_instance(seed, 10, 3, edge_prob=0.4)
        t = 80.0
        query = Query(p=3, k=1, t=t, venues=tuple(sorted(data.venue_locations)))
        base = brute_force(query, graph, data)
        perm = list(range(10))
        rng.shuffle(perm)
        relabeled_graph = SocialGraph(
            perm,
            [(perm[u], perm[v]) for u, v in graph.edges()],
        )
        relabeled_data = SpatialDataset(
            {perm[m]: loc for m, loc in data.member_locations.items()},
            data.venue_locations,
        )
        re_res = brute_force(query, relabeled_graph, relabeled_data)
        if base.found:
            assert re_res.total_distance == pytest.approx(base.total_distance, abs=1e-9)
        else:
            assert not re_res.found


def test_completion_bound_full_group():
    data = SpatialDataset(
        {0: Location(1, 0), 1: Location(2, 0)}, {"q": Location(0, 0)}
    )
    assert completion_bound_oracle([0, 1], [], ["q"], 2, data) == 3.0


def test_completion_bound_empty_pool_sentinel():
    data = SpatialDataset({0: Location(1, 0)}, {"q": Location(0, 0)})
    assert completion_bound_oracle([0], [], ["q"], 2, data) == math.inf


def test_completion_bound_picks_cheapest_extras():
    members = {i: Location(float(i), 0.0) for i in range(5)}
    data = SpatialDataset(members, {"q": Location(0, 0)})
    got = completion_bound_oracle([4], [0, 1, 2, 3], ["q"], 3, data)
    assert got == 4.0 + 0.0 + 1.0


def test_completion_bound_minimizes_over_venues():
    members = {0: Location(0, 0)}
    venues = {"a": Location(10, 0), "b": Location(2, 0)}
    data = SpatialDataset(members, venues)
    assert completion_bound_oracle([0], [], ["a", "b"], 1, data) == 2.0


def test_reported_totals_do_not_depend_on_candidate_order():
    # Every solver reports the total summed in sorted member order, so an
    # answer with the oracle's group and venue reports the oracle's total
    # to the last bit, whatever order the search met the members in.
    single = {
        "ssgs": ssgs_solve,
        "ssgmerge": ssgmerge_solve,
    }
    multi = {
        "ssp": ssp_solve,
        "mags-srdo": lambda *a: mags_solve(*a, ordering="srdo"),
        "mags-apdo": lambda *a: mags_solve(*a, ordering="apdo"),
    }
    matched = 0
    for seed in range(60):
        graph, data = random_instance(seed, 14, 3, edge_prob=0.5)
        t = radius_for_quantile(graph, data, 0.6)
        venues = tuple(sorted(data.venue_locations))
        for solvers, query in (
            (single, Query(p=4, k=1, t=t, venues=venues[:1])),
            (multi, Query(p=4, k=1, t=t, venues=venues)),
        ):
            oracle = brute_force(query, graph, data)
            for name, solve in solvers.items():
                sol = solve(query, graph, data)
                if sol is None:
                    continue
                assert sol.total_distance == total_distance(sol.group, sol.venue, data), name
                if (sol.group, sol.venue) == (oracle.group, oracle.venue):
                    assert sol.total_distance == oracle.total_distance, (name, seed)
                    matched += 1
    assert matched > 200


def test_graph_vertices_without_a_location_take_no_part():
    # A graph vertex with no location can lie within no radius: every solver
    # and the oracle leave it out, and still agree on the optimum.
    single = {
        "ssgs": ssgs_solve,
        "ssgmerge": lambda *a: ssgmerge_solve(*a, w=10**9, lam=10**6),
    }
    multi = {
        "ssp": ssp_solve,
        "mags-srdo": lambda *a: mags_solve(*a, ordering="srdo"),
        "mags-apdo": lambda *a: mags_solve(*a, ordering="apdo"),
    }
    found = 0
    for seed in range(20):
        graph, data = random_instance(seed, 12, 3, edge_prob=0.6)
        t = radius_for_quantile(graph, data, 0.6)
        rng = random.Random(seed)
        unlocated = [100, 101]
        edges = list(graph.edges())
        edges += [(u, v) for u in unlocated for v in graph.vertices if rng.random() < 0.7]
        graph = SocialGraph(list(graph.vertices) + unlocated, edges)
        venues = tuple(sorted(data.venue_locations))
        for solvers, query in (
            (single, Query(p=3, k=1, t=t, venues=venues[:1])),
            (multi, Query(p=3, k=1, t=t, venues=venues)),
        ):
            oracle = brute_force(query, graph, data)
            for name, solve in solvers.items():
                sol = solve(query, graph, data)
                if oracle.group is None:
                    assert sol is None, (name, seed)
                    continue
                assert not set(sol.group) & set(unlocated), (name, seed)
                assert sol.total_distance == pytest.approx(oracle.total_distance, rel=1e-12)
                found += 1
    assert found > 50
