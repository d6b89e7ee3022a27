import math
import random

import pytest

from rallypoint import Location, Mbr, build_rtree, distance, mindist_point_mbr


def random_points(rng, n, box=100.0):
    return {i: Location(rng.uniform(0, box), rng.uniform(0, box)) for i in range(n)}


def linear_scan(pts, center, radius):
    """The reference answer: every (distance, id) pair within ``radius``."""
    return sorted(
        (distance(loc, center), m) for m, loc in pts.items() if distance(center, loc) <= radius
    )


def test_single_point_tree():
    tree = build_rtree({7: Location(2.0, 3.0)})
    root = tree.root
    assert root.is_leaf
    assert (root.mbr.min_x, root.mbr.min_y, root.mbr.max_x, root.mbr.max_y) == (2, 3, 2, 3)
    assert tree.range_query(Location(2, 3), 0.0) == [(0.0, 7)]


def test_empty_tree_queries():
    tree = build_rtree({})
    assert tree.range_query(Location(0, 0), 10.0) == []


def test_containment_invariant_holds():
    rng = random.Random(1)
    pts = random_points(rng, 100)
    tree = build_rtree(pts, max_fanout=8)
    for node in tree.nodes():
        if node.is_leaf:
            for _, loc in node.entries:
                assert node.mbr.contains_point(loc)
        else:
            for child in node.children:
                assert node.mbr.contains_mbr(child.mbr)
    seen = sorted(m for m, _ in tree.points_under(tree.root))
    assert seen == sorted(pts)


def test_duplicate_coordinates_both_retrievable():
    pts = {2: Location(5, 5), 1: Location(5, 5), 3: Location(8, 9), 0: Location(8, 9)}
    tree = build_rtree(pts)
    assert tree.range_query(Location(5, 5), 0.0) == [(0.0, 1), (0.0, 2)]
    # Equal distances tie by id.
    assert tree.range_query(Location(5, 5), 5.0) == [(0.0, 1), (0.0, 2), (5.0, 0), (5.0, 3)]
    assert tree.range_query(Location(5, 5), 5.0) == linear_scan(pts, Location(5, 5), 5.0)


def test_range_query_zero_radius():
    rng = random.Random(2)
    pts = random_points(rng, 30)
    tree = build_rtree(pts)
    assert tree.range_query(pts[4], 0.0) == linear_scan(pts, pts[4], 0.0) == [(0.0, 4)]


def test_range_query_below_nearest_is_empty():
    pts = {0: Location(10, 0), 1: Location(0, 10)}
    tree = build_rtree(pts)
    assert tree.range_query(Location(0, 0), 9.0) == []


def test_range_query_matches_linear_scan():
    rng = random.Random(3)
    for trial in range(120):
        pts = random_points(rng, rng.randint(1, 50))
        tree = build_rtree(pts, max_fanout=rng.choice([2, 4, 8, 16]))
        center = Location(rng.uniform(0, 100), rng.uniform(0, 100))
        dists = sorted(distance(center, loc) for loc in pts.values())
        radius = dists[len(dists) // 2]
        # Float equality is bit for bit here: no distance is NaN or -0.0.
        assert tree.range_query(center, radius) == linear_scan(pts, center, radius)


def test_range_query_includes_a_point_exactly_on_the_radius():
    # A 3-4-5 triangle: the distance is exactly 5.0.
    pts = {
        0: Location(3.0, 4.0),
        1: Location(-3.0, -4.0),
        2: Location(3.0, 4.5),
        3: Location(0.0, 0.0),
    }
    tree = build_rtree(pts, max_fanout=2)
    got = tree.range_query(Location(0.0, 0.0), 5.0)
    assert got == [(0.0, 3), (5.0, 0), (5.0, 1)]
    assert got == linear_scan(pts, Location(0.0, 0.0), 5.0)
    assert tree.range_query(Location(0.0, 0.0), math.nextafter(5.0, 0.0)) == [(0.0, 3)]


@pytest.mark.parametrize("radius", [-1.0, -0.5, math.nan])
def test_range_query_rejects_negative_and_nan_radius(radius):
    tree = build_rtree({0: Location(0.0, 0.0)})
    with pytest.raises(ValueError, match="radius must be >= 0"):
        tree.range_query(Location(0.0, 0.0), radius)


def test_mindist_point_inside_mbr_is_zero():
    m = Mbr(0, 0, 1, 1)
    assert mindist_point_mbr(Location(0.5, 0.5), m) == 0.0


def test_mindist_left_of_square():
    assert mindist_point_mbr(Location(-3, 0.5), Mbr(0, 0, 1, 1)) == 3.0


def test_mindist_corner():
    assert mindist_point_mbr(Location(2, 2), Mbr(0, 0, 1, 1)) == pytest.approx(
        math.sqrt(2), abs=1e-12
    )


def test_mindist_lower_bounds_descendants():
    rng = random.Random(6)
    pts = random_points(rng, 200)
    tree = build_rtree(pts, max_fanout=8)
    nodes = list(tree.nodes())
    for trial in range(10):
        probe = Location(rng.uniform(-20, 120), rng.uniform(-20, 120))
        for node in nodes:
            lb = mindist_point_mbr(probe, node.mbr)
            under = [loc for _, loc in tree.points_under(node)]
            for loc in rng.sample(under, min(5, len(under))):
                assert lb <= distance(probe, loc) + 1e-12
