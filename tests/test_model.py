import math
import random

import pytest

from rallypoint import (
    FamiliarityMode,
    Location,
    Query,
    SearchStats,
    SocialGraph,
    SpatialDataset,
    avg_acquainted,
    distance,
    familiarity_ok,
    is_feasible,
    unfamiliar_count,
)
from rallypoint import model
from rallypoint.model import average_familiarity_edges, internal_edge_count


def test_distance_345_triangle():
    assert distance(Location(0, 0), Location(3, 4)) == 5.0


def test_distance_identity():
    assert distance(Location(1, 1), Location(1, 1)) == 0.0


def test_distance_diagonal():
    assert distance(Location(0, 0), Location(1, 1)) == pytest.approx(math.sqrt(2), abs=1e-12)


def test_distance_triangle_inequality_many_samples():
    rng = random.Random(0)
    for _ in range(10_000):
        pts = [Location(rng.uniform(-50, 50), rng.uniform(-50, 50)) for _ in range(3)]
        a, b, c = pts
        assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-9
        assert distance(a, b) == pytest.approx(distance(b, a), abs=0)


def test_location_rejects_non_finite():
    with pytest.raises(ValueError):
        Location(math.nan, 0.0)
    with pytest.raises(ValueError):
        Location(0.0, math.inf)


def test_graph_rejects_self_loops_and_unknown_vertices():
    with pytest.raises(ValueError):
        SocialGraph("ab", [("a", "a")])
    with pytest.raises(ValueError):
        SocialGraph("ab", [("a", "z")])


def test_graph_rejects_mixed_vertex_id_types():
    with pytest.raises(ValueError, match="vertex ids must be mutually comparable"):
        SocialGraph([1, "a"])


def test_dataset_rejects_mixed_member_or_venue_id_types():
    here = Location(0.0, 0.0)
    with pytest.raises(ValueError, match="member ids must be mutually comparable"):
        SpatialDataset({1: here, "a": here}, {"q": here})
    with pytest.raises(ValueError, match="venue ids must be mutually comparable"):
        SpatialDataset({1: here}, {"q": here, 2: here})
    # Member ids need not be comparable with venue ids.
    data = SpatialDataset({1: here, 2: here}, {"q": here, "r": here})
    assert sorted(data.venue_locations) == ["q", "r"]


def test_graph_is_symmetric(g1):
    for u in g1.vertices:
        for v in g1.neighbors(u):
            assert u in g1.neighbors(v)
        assert g1.degree(u) == len(g1.neighbors(u))


def test_unfamiliar_count_singleton(g1):
    assert unfamiliar_count("a", {"a"}, g1) == 0


def test_unfamiliar_count_nonedge_pair(g1):
    assert unfamiliar_count("a", {"a", "e"}, g1) == 1


def test_unfamiliar_count_inside_triangle(g1):
    assert unfamiliar_count("c", {"a", "c", "d"}, g1) == 0


def test_unfamiliar_count_requires_membership(g1):
    with pytest.raises(ValueError):
        unfamiliar_count("a", {"b", "c"}, g1)


def test_avg_acquainted_values(g1):
    assert avg_acquainted({"a", "c"}, g1) == 1.0
    assert avg_acquainted({"a", "b"}, g1) == 0.0
    assert avg_acquainted({"c"}, g1) == 0.0
    assert avg_acquainted(set(), g1) == 0.0


def test_avg_acquainted_matches_edge_count(g1):
    rng = random.Random(3)
    verts = list(g1.vertices)
    for _ in range(200):
        size = rng.randint(1, len(verts))
        subset = set(rng.sample(verts, size))
        expected = 2 * internal_edge_count(subset, g1) / len(subset)
        assert avg_acquainted(subset, g1) == pytest.approx(expected, abs=0)


def test_query_validation():
    with pytest.raises(ValueError):
        Query(p=0, k=0, t=1.0, venues=("q",))
    with pytest.raises(ValueError):
        Query(p=3, k=3, t=1.0, venues=("q",))
    with pytest.raises(ValueError):
        Query(p=3, k=1, t=0.0, venues=("q",))
    with pytest.raises(ValueError):
        Query(p=3, k=1, t=1.0, venues=())


def test_query_rejects_repeated_venues():
    with pytest.raises(ValueError, match="'q'"):
        Query(p=2, k=0, t=1.0, venues=("q", "q"))
    with pytest.raises(ValueError, match="'r'"):
        Query(p=2, k=0, t=1.0, venues=("q", "r", "s", "r"))
    assert Query(p=2, k=0, t=1.0, venues=("q", "r")).venues == ("q", "r")


def test_query_default_modes():
    assert Query(p=2, k=0, t=1.0, venues=("q",)).familiarity_mode is FamiliarityMode.AVERAGE
    assert (
        Query(p=2, k=0, t=1.0, venues=("q", "r")).familiarity_mode
        is FamiliarityMode.PER_VERTEX
    )


def test_dataset_rejects_id_overlap():
    with pytest.raises(ValueError):
        SpatialDataset({"x": Location(0, 0)}, {"x": Location(1, 1)})


def test_is_feasible_triangle(g1_instance, g1_query):
    graph, data = g1_instance
    assert is_feasible({"a", "c", "d"}, "q", g1_query, graph, data)


def test_is_feasible_rejects_loose_group(g1_instance):
    graph, data = g1_instance
    query = Query(p=3, k=0, t=100.0, venues=("q",), familiarity_mode=FamiliarityMode.PER_VERTEX)
    assert not is_feasible({"a", "b", "c"}, "q", query, graph, data)


def test_is_feasible_radius_violation(g1):
    members = {m: Location(d, 0.0) for m, d in zip("acd", [5.0, 10.0, 12.0])}
    members.update({m: Location(0.0, 1.0) for m in "bef"})
    data = SpatialDataset(members, {"q": Location(0.0, 0.0)})
    query = Query(p=3, k=0, t=11.9, venues=("q",))
    assert not is_feasible({"a", "c", "d"}, "q", query, g1, data)


def test_is_feasible_wrong_size_errors(g1_instance, g1_query):
    graph, data = g1_instance
    with pytest.raises(ValueError):
        is_feasible({"a", "c"}, "q", g1_query, graph, data)


def test_feasibility_monotone_in_k(g1):
    rng = random.Random(11)
    verts = list(g1.vertices)
    for _ in range(300):
        size = rng.randint(1, len(verts))
        group = set(rng.sample(verts, size))
        for mode in FamiliarityMode:
            for k in range(size - 1):
                if familiarity_ok(group, k, mode, g1):
                    assert familiarity_ok(group, k + 1, mode, g1)


def test_per_vertex_implies_average(g1):
    rng = random.Random(12)
    verts = list(g1.vertices)
    for _ in range(300):
        size = rng.randint(1, len(verts))
        group = set(rng.sample(verts, size))
        for k in range(size):
            if familiarity_ok(group, k, FamiliarityMode.PER_VERTEX, g1):
                assert familiarity_ok(group, k, FamiliarityMode.AVERAGE, g1)


def test_average_familiarity_edges_is_the_average_mode_inequality():
    # The engines decide average-mode leaves by comparing their carried edge
    # count with this threshold instead of calling familiarity_ok.
    for n in range(1, 9):
        for k in range(n):
            for edges in range(n * (n - 1) // 2 + 1):
                expected = n * (n - 1) - 2 * edges <= k * n
                assert (edges >= average_familiarity_edges(n, k)) == expected


def test_search_stats_counts_every_prune_rule():
    rules = [getattr(model, name) for name in dir(model) if name.startswith("PRUNE_")]
    stats = SearchStats()
    assert stats.pruned == {}
    for count, rule in enumerate(rules, 1):
        stats.bump(rule, count)
    stats.bump(model.PRUNE_DISTANCE)
    expected = {rule: count for count, rule in enumerate(rules, 1)}
    expected[model.PRUNE_DISTANCE] += 1
    assert stats.pruned == expected
    assert stats.as_dict()["pruned"] == dict(sorted(expected.items()))
    # The counts live in slots: the record has no instance dict, and
    # ``pruned`` is a view of them.
    assert not hasattr(stats, "__dict__")
    with pytest.raises(AttributeError):
        stats.pruned = {}
    with pytest.raises(KeyError):
        stats.bump("no_such_rule")
