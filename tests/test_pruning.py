import math
import random
from itertools import combinations

import pytest

from rallypoint import (
    Ball,
    FamiliarityMode,
    Location,
    SocialGraph,
    SpatialDataset,
    avg_familiarity_prune,
    ball_distance_bound,
    completion_bound_oracle,
    distance,
    distance_prune,
    familiarity_ok,
    inner_triangle_bound,
    member_familiarity_prune,
    mindist_point_ball,
    outer_triangle_ball_bound,
    pool_familiarity_prune,
)
from rallypoint.pruning import PruneConfig, familiarity_counts


def test_prune_config_toggles():
    cfg = PruneConfig().without("ball-distance")
    assert not cfg.ball_distance and cfg.venue_distance
    none = PruneConfig.none()
    assert not any(getattr(none, f) for f in PruneConfig.__dataclass_fields__)
    only = PruneConfig.from_enabled(["distance", "ball-distance"])
    assert only.distance and only.ball_distance and not only.avg_familiarity
    with pytest.raises(ValueError):
        PruneConfig.from_enabled(["bogus"])


def test_prune_config_without_an_unknown_rule_is_a_value_error():
    with pytest.raises(ValueError, match="unknown prune rule 'bogus'"):
        PruneConfig().without("bogus")


def test_avg_familiarity_fixture(g1):
    # (0 + 1*1 + 2*1) / 3 = 1 < 2: no completion can satisfy k=0.
    assert avg_familiarity_prune(["b", "d"], ["e", "f"], 3, 0, g1)


def test_avg_familiarity_never_fires_at_max_k(g1):
    assert not avg_familiarity_prune(["b", "d"], ["e", "f"], 3, 2, g1)


def test_avg_familiarity_clique_not_pruned():
    g = SocialGraph("xyz", [("x", "y"), ("x", "z"), ("y", "z")])
    assert not avg_familiarity_prune(["x", "y", "z"], [], 3, 0, g)


def test_avg_familiarity_empty_pool_with_open_slots(g1):
    assert avg_familiarity_prune(["a"], [], 3, 2, g1)


def test_distance_prune_fixture():
    assert distance_prune(11.0, 2, 3, 19.0, 27.0)
    assert 11.0 + 1 * 19.0 == 30.0


def test_distance_prune_no_incumbent():
    assert not distance_prune(11.0, 2, 3, 19.0, math.inf)


def test_distance_prune_complete_group():
    assert not distance_prune(0.0, 4, 4, 123.0, 5.0)
    assert distance_prune(5.0, 4, 4, 0.0, 5.0)


def test_distance_prune_empty_pool_sentinel():
    assert distance_prune(3.0, 2, 4, math.inf, math.inf)


def test_member_familiarity_fixture(g1):
    assert member_familiarity_prune(["a", "e"], 0, g1)  # 2 - 0 > 0 + 1


def test_member_familiarity_singleton_never(g1):
    for k in range(3):
        assert not member_familiarity_prune(["a"], k, g1)


def test_member_familiarity_clique_never():
    g = SocialGraph("wxyz", [(a, b) for a in "wxyz" for b in "wxyz" if a < b])
    assert not member_familiarity_prune(list("wxyz"), 0, g)


def test_pool_familiarity_fixture(g1):
    # Pool degree sum 1+2+1+3+1 = 8 < (5-1)(5-1-0-1) = 12.
    assert pool_familiarity_prune(["a"], ["b", "c", "d", "e", "f"], 5, 0, g1)


def test_pool_familiarity_complete_group_never(g1):
    assert not pool_familiarity_prune(list("abcde"), [], 5, 0, g1)


def test_pool_familiarity_loose_budget_never(g1):
    assert not pool_familiarity_prune(["a"], ["b", "c"], 3, 1, g1)


def test_inner_triangle_inapplicable_below_two():
    # -inf never reaches an incumbent, however small.
    assert inner_triangle_bound(0.0, 1, 3, 0.0, 100.0) == -math.inf
    assert inner_triangle_bound(0.0, 0, 3, 0.0, 100.0) == -math.inf


def test_inner_triangle_coincident_points():
    bound = inner_triangle_bound(0.0, 2, 4, 1.0, 3.0)
    assert bound == 0.0 + 2 * 3.0


def test_outer_triangle_ball_fixture_arithmetic():
    # |S_I|=2, center distance 50, sum of reference distances 10, one open
    # slot under a frontier of 5: clamped bound 95 prunes an incumbent of 80.
    bound = outer_triangle_ball_bound([5.0, 5.0], 50.0, 0.0, 3, 5.0)
    assert bound == 95.0
    assert bound >= 80.0


def test_outer_triangle_ball_same_ball_degenerate():
    # Target equals the reference ball: member terms clamp away entirely.
    bound = outer_triangle_ball_bound([1.0, 2.0], 0.0, 3.0, 4, 6.0)
    assert bound == 2 * 6.0


def test_outer_triangle_ball_radius_zero_matches_point_form():
    # A ball of radius 0 is one venue 25 from the reference: each member
    # contributes its clamped reverse-triangle term, plus one open slot.
    point_form = max(0.0, 25.0 - 2.0) + max(0.0, 25.0 - 9.0) + 1 * 4.0
    assert outer_triangle_ball_bound([2.0, 9.0], 25.0, 0.0, 3, 4.0) == point_form


def test_ball_distance_no_incumbent():
    # A finite bound never reaches an infinite incumbent.
    assert ball_distance_bound(0.0, 2, 4, 100.0) < math.inf


def test_ball_distance_group_inside_ball():
    bound = ball_distance_bound(0.0, 2, 4, 7.0)
    assert bound == 14.0


def _random_bound_instance(rng):
    n_members = rng.randint(4, 10)
    n_venues = rng.randint(1, 5)
    members = {
        i: Location(rng.uniform(0, 60), rng.uniform(0, 60)) for i in range(n_members)
    }
    venues = {
        f"q{i}": Location(rng.uniform(0, 60), rng.uniform(0, 60))
        for i in range(n_venues)
    }
    return members, venues


def test_bounds_never_exceed_exact_completion_cost():
    """Randomized soundness: each bound is at most the true minimum completion
    cost to the target venue set, computed by the enumeration oracle."""
    rng = random.Random(77)
    for trial in range(300):
        members, venues = _random_bound_instance(rng)
        data = SpatialDataset(members, venues)
        ids = sorted(members)
        p = rng.randint(2, min(5, len(ids)))
        group_size = rng.randint(0, p - 1)
        group = rng.sample(ids, group_size)
        pool = [v for v in ids if v not in group]
        if len(pool) < p - group_size:
            continue
        target_ids = sorted(venues)
        ctr = Location(rng.uniform(0, 60), rng.uniform(0, 60))
        radius = max(distance(ctr, venues[q]) for q in target_ids)
        ball = Ball(ctr, radius)
        frontier = min(
            (mindist_point_ball(members[v], ball) for v in pool), default=0.0
        )
        oracle = completion_bound_oracle(group, pool, target_ids, p, data)

        summed = sum(mindist_point_ball(members[v], ball) for v in group)
        assert ball_distance_bound(summed, group_size, p, frontier) <= oracle + 1e-9

        if group_size >= 2:
            pairwise = sum(
                distance(members[a], members[b])
                for i, a in enumerate(group)
                for b in group[i + 1 :]
            )
            assert (
                inner_triangle_bound(pairwise, group_size, p, radius, frontier)
                <= oracle + 1e-9
            )

        ref = Location(rng.uniform(0, 60), rng.uniform(0, 60))
        dists_ref = [distance(members[v], ref) for v in group]
        assert (
            outer_triangle_ball_bound(
                dists_ref, distance(ref, ctr), radius, p, frontier
            )
            <= oracle + 1e-9
        )

        # A radius-0 ball around each venue individually.
        for q in target_ids:
            d_pool_min = min(distance(members[v], venues[q]) for v in pool)
            point_oracle = completion_bound_oracle(group, pool, [q], p, data)
            dists_to_ref = [distance(members[v], ref) for v in group]
            assert (
                outer_triangle_ball_bound(
                    dists_to_ref, distance(ref, venues[q]), 0.0, p, d_pool_min
                )
                <= point_oracle + 1e-9
            )


def _loose_avg_familiarity_prune(group, pool, p, k, graph):
    """The average rule with the looser bound: every open slot gets the
    largest pool degree, and every group-to-pool edge counts."""
    inside, pool_set = set(group), set(pool)
    slots = p - len(inside)
    if slots > 0 and not pool_set:
        return True
    twice_edges = sum(len(graph.neighbors(v) & inside) for v in inside)
    max_pool = max((len(graph.neighbors(v) & pool_set) for v in pool_set), default=0)
    crossing = sum(len(graph.neighbors(v) & pool_set) for v in inside)
    return twice_edges + slots * max_pool + 2 * crossing < p * (p - k - 1)


@pytest.mark.parametrize("mode", list(FamiliarityMode), ids=lambda m: m.value)
def test_completion_bounds_are_sound_and_never_looser(mode):
    """On small random instances, against every completion of a random
    prefix: the familiarity rule fires only when no completion keeps the
    stranger budget, the sorted-access distance bound is at most the
    cheapest completion that does, and both fire wherever the looser bounds
    (largest pool degree per slot, nearest distance per slot) do."""
    rng = random.Random(f"completion-bounds-{mode.value}")
    fired = {"familiarity": 0, "familiarity only": 0, "distance": 0, "distance only": 0}
    for _ in range(400):
        n = rng.randint(6, 10)
        edge_prob = rng.choice([0.2, 0.5, 0.8])
        graph = SocialGraph(
            range(n), [(u, v) for u, v in combinations(range(n), 2) if rng.random() < edge_prob]
        )
        # Whole distances make ties, and exact sums, common.
        if rng.random() < 0.5:
            dist = {v: float(rng.randint(0, 6)) for v in range(n)}
        else:
            dist = {v: rng.uniform(0.0, 50.0) for v in range(n)}
        p = rng.randint(2, min(6, n))
        group = rng.sample(range(n), rng.randint(0, p - 1))
        pool = [v for v in range(n) if v not in group]
        slots = p - len(group)
        completions = [group + list(extra) for extra in combinations(pool, slots)]

        for k in range(p):
            prune = avg_familiarity_prune(group, pool, p, k, graph)
            counts = familiarity_counts(group, pool, graph)
            assert avg_familiarity_prune(group, pool, p, k, graph, counts) == prune
            feasible = [c for c in completions if familiarity_ok(c, k, mode, graph)]
            if prune:
                assert not feasible, (group, pool, p, k)
                fired["familiarity"] += 1
            if _loose_avg_familiarity_prune(group, pool, p, k, graph):
                assert prune, (group, pool, p, k)
            elif prune:
                fired["familiarity only"] += 1

            # The engine's inputs: the prefix total added in prefix order,
            # the pool in (distance, id) order.
            prefix_total = 0.0
            for v in group:
                prefix_total += dist[v]
            nearest = sorted((dist[v], v) for v in pool)
            costs = [sum(dist[v] for v in c) for c in feasible]
            if costs:
                # Not fired by an incumbent just above the cheapest feasible
                # completion: the bound is at most that completion's cost.
                best = min(costs) + 1e-9
                assert not distance_prune(prefix_total, len(group), p, nearest, best)
            loose = prefix_total + slots * nearest[0][0]
            # Fired wherever the nearest-distance bound fires, up to the
            # rounding of adding in another order.
            assert distance_prune(prefix_total, len(group), p, nearest, loose - 1e-9)
            assert distance_prune(prefix_total, len(group), p, nearest[0][0], loose)
            tight = prefix_total + sum(d for d, _ in nearest[:slots])
            if distance_prune(prefix_total, len(group), p, nearest, tight - 1e-9):
                fired["distance"] += 1
                if tight - 1e-9 > loose:
                    fired["distance only"] += 1
    # Every outcome was reached, including pruning the looser bounds miss.
    assert all(count > 0 for count in fired.values()), fired


def test_distance_prune_sorted_access_reads_the_first_open_slots():
    nearest = [(1.0, "a"), (2.0, "b"), (4.0, "c"), (8.0, "d")]
    # Two open slots: 10 + 1 + 2 = 13.
    assert distance_prune(10.0, 2, 4, nearest, 13.0)
    assert not distance_prune(10.0, 2, 4, nearest, 13.5)
    # The nearest-distance form charges 2 * 1 and misses it.
    assert not distance_prune(10.0, 2, 4, 1.0, 13.0)
    # Fewer pairs than open slots: no completion.
    assert distance_prune(10.0, 2, 4, nearest[:1], math.inf)


def test_avg_familiarity_top_gains_fixture(g1):
    # Group {a}, pool {b, c, d}, p = 3, k = 0: a group of 3 needs 6 = 2 * 3
    # edges. Gains, twice the edges into {a} plus the pool degree capped at
    # 1: b 0 + 0, c 2 + 1, d 2 + 1; the top two reach exactly 6.
    assert not avg_familiarity_prune(["a"], ["b", "c", "d"], 3, 0, g1)
    # With pool {b, c, e} the top two gains are c 2 + 1 and e 0 + 1: 4 < 6.
    # The looser bound, 0 + 2 * 2 + 2 * 1 = 6, does not fire.
    assert avg_familiarity_prune(["a"], ["b", "c", "e"], 3, 0, g1)
    assert not _loose_avg_familiarity_prune(["a"], ["b", "c", "e"], 3, 0, g1)
    # Fewer pool members than open slots.
    assert avg_familiarity_prune(["a"], ["c"], 3, 2, g1)
