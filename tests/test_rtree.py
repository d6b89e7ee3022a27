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
            for _, loc in tree.points_under(node):
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


def test_range_query_keeps_a_point_the_unwidened_square_would_miss():
    # ``x - cx`` rounds to exactly the radius, while ``cx + radius`` rounds
    # below ``x``: a walk clipped to the exact square would drop the point.
    # The same on the y axis.
    center, radius = Location(-1e-16, -1e-16), 1.0
    pts = {0: Location(1.0, -1e-16), 1: Location(-1e-16, 1.0), 2: Location(2.0, 2.0)}
    assert center.x + radius < pts[0].x and center.y + radius < pts[1].y
    assert distance(pts[0], center) == distance(pts[1], center) == radius
    for fanout in (2, 16):
        tree = build_rtree(pts, max_fanout=fanout)
        assert tree.range_query(center, radius) == [(radius, 0), (radius, 1)]


def _near_circle_points(rng, center, radius, scale, count):
    """Points scattered around the circle of ``radius`` about ``center``
    and over its bounding square, some on shared spots."""
    pts = []
    for _ in range(count):
        if pts and rng.random() < 0.2:
            pts.append(rng.choice(pts))
            continue
        if rng.random() < 0.3:
            # On the bounding square's top or bottom edge: in the square,
            # mostly out of range.
            dx = rng.uniform(-radius, radius)
            dy = rng.choice([-1.0, 1.0]) * radius
        else:
            angle = rng.uniform(0.0, 2.0 * math.pi)
            rho = radius * rng.choice([1.0, rng.uniform(0.0, 1.5), 1.0 + rng.uniform(-1e-12, 1e-12)])
            dx, dy = rho * math.cos(angle), rho * math.sin(angle)
        pts.append(Location(center.x + dx, center.y + dy))
    return pts


def test_range_query_equals_a_linear_scan_bit_for_bit_at_every_radius():
    # Offsets up to 1e9 and scales from 1e-3 to 1e4 make the subtractions
    # round; points sit at the radius on both axes, and every point's own
    # distance, one ulp below it and one above it, is a radius.
    rng = random.Random(24)
    compared = on_axis = 0
    for trial in range(900):
        offset = rng.choice([0.0, 1e3, -1e6, 1e9, -1e9]) + rng.uniform(-1.0, 1.0)
        scale = rng.choice([1e-3, 1.0, 37.5, 1e4])
        r = 2.0 ** math.floor(math.log2(scale * rng.uniform(0.5, 8.0)))
        if trial % 3:
            # A power-of-two radius and a center on its grid: ``center ± r``
            # is exact, so the four axis points lie at exactly ``r``.
            cx = round((offset + scale * rng.uniform(-5, 5)) / r) * r
            cy = round((-offset + scale * rng.uniform(-5, 5)) / r) * r
        else:
            # A center within half an ulp of ``r`` from the origin: ``±r -
            # cx`` rounds to ``±r``, while ``cx ± r`` rounds inward, to the
            # finer grid below the power of two.
            cx, cy = (rng.uniform(-0.5, 0.5) * math.ulp(r) for _ in range(2))
        center = Location(cx, cy)
        exact = trial % 3 != 0
        if exact:
            axis = [(cx + r, cy), (cx - r, cy), (cx, cy + r), (cx, cy - r)]
        else:
            axis = [(r, cy), (-r, cy), (cx, r), (cx, -r)]
        axis = [Location(x, y) for x, y in axis]
        if exact:
            assert all(distance(loc, center) == r for loc in axis)
        spread = _near_circle_points(rng, center, r, scale, rng.randint(0, 30))
        for _ in range(rng.randint(0, 10)):
            spread.append(
                Location(offset + scale * rng.uniform(-10, 10), -offset + scale * rng.uniform(-10, 10))
            )
        locs = axis + spread
        pts = {m: loc for m, loc in enumerate(rng.sample(locs, len(locs)))}
        tree = build_rtree(pts, max_fanout=rng.randint(2, 16))
        radii = {r, 0.0}
        for loc in pts.values():
            d = distance(loc, center)
            radii.update((d, math.nextafter(d, 0.0), math.nextafter(d, math.inf)))
        for radius in sorted(radii):
            got = tree.range_query(center, radius)
            assert got == linear_scan(pts, center, radius), (trial, radius)
            compared += 1
        if exact:
            on_axis += sum(d == r for d, _ in tree.range_query(center, r))
    assert compared > 40_000 and on_axis >= 4 * 600, (compared, on_axis)
