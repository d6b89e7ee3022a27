import math
import random

import pytest

from rallypoint import (
    Ball,
    Location,
    SocialGraph,
    SpatialDataset,
    avg_familiarity_prune,
    ball_distance_bound,
    completion_bound_oracle,
    distance,
    distance_prune,
    inner_triangle_bound,
    member_familiarity_prune,
    mindist_point_ball,
    outer_triangle_ball_bound,
    outer_triangle_point_bound,
    pool_familiarity_prune,
)
from rallypoint.pruning import PruneConfig


def test_prune_config_toggles():
    cfg = PruneConfig().without("outer-triangle")
    assert not cfg.outer_triangle and cfg.inner_triangle
    none = PruneConfig.none()
    assert not any(getattr(none, f) for f in PruneConfig.__dataclass_fields__)
    only = PruneConfig.from_enabled(["distance", "ball-distance"])
    assert only.distance and only.ball_distance and not only.avg_familiarity
    with pytest.raises(ValueError):
        PruneConfig.from_enabled(["bogus"])


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


def test_outer_triangle_point_no_incumbent():
    # A finite bound never reaches an infinite incumbent.
    assert outer_triangle_point_bound([1.0, 2.0], 50.0, 3, 5.0) < math.inf


def test_outer_triangle_point_arithmetic():
    bound = outer_triangle_point_bound([5.0, 5.0], 50.0, 3, 5.0)
    assert bound == (45.0 + 45.0) + 1 * 5.0


def test_outer_triangle_point_clamp_floor():
    # Reference coincides with target: per-member terms clamp to zero.
    bound = outer_triangle_point_bound([5.0, 7.0], 0.0, 3, 4.0)
    assert bound == 4.0


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
    args = ([2.0, 9.0], 25.0, 3, 4.0)
    assert outer_triangle_ball_bound(args[0], args[1], 0.0, args[2], args[3]) == (
        outer_triangle_point_bound(*args)
    )


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

        # Point form against each venue individually.
        for q in target_ids:
            d_pool_min = min(distance(members[v], venues[q]) for v in pool)
            point_oracle = completion_bound_oracle(group, pool, [q], p, data)
            dists_to_ref = [distance(members[v], ref) for v in group]
            assert (
                outer_triangle_point_bound(
                    dists_to_ref, distance(ref, venues[q]), p, d_pool_min
                )
                <= point_oracle + 1e-9
            )
