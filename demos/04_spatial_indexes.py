"""The two spatial indexes behind the solvers.

Members live in an R-tree (bulk-loaded, static): it answers the radius
queries that gather each venue's candidates, with their distances and
nearest first, and its node boxes bound the
distance to every member below them. Venues live in a ball tree: every node is a ball covering its
subtree, so center-distance-minus-radius lower-bounds the distance to any
venue inside, letting whole venue clusters be discarded at once.
"""

import random

from rallypoint import (
    Location,
    build_balltree,
    build_rtree,
    distance,
    mindist_point_ball,
    mindist_point_mbr,
)

rng = random.Random(42)
members = {i: Location(rng.uniform(0, 100), rng.uniform(0, 100)) for i in range(500)}
tree = build_rtree(members, max_fanout=16)

center = Location(50, 50)
nearby = tree.range_query(center, 10.0)
print(f"{len(nearby)} members within 10 units of the center")
# One walk of the tree returns (distance, id) pairs, nearest first.
for dist, member in nearby[:5]:
    assert dist == distance(members[member], center)
    print(f"  member {member:3d} at distance {dist:.3f}")

# The node bounds never overshoot: that is what makes pruning safe.
worst_gap = 0.0
for node in tree.nodes():
    lb = mindist_point_mbr(center, node.mbr)
    actual = min(distance(center, loc) for _, loc in tree.points_under(node))
    assert lb <= actual + 1e-9
    worst_gap = max(worst_gap, actual - lb)
print(f"MBR lower bounds verified at every node (largest slack {worst_gap:.3f})")

venues = {f"q{i}": Location(rng.uniform(0, 100), rng.uniform(0, 100)) for i in range(64)}
balls = build_balltree(venues)
probe = Location(0, 0)
print("\nball-tree root:", f"center=({balls.root.ball.center.x:.1f},"
      f"{balls.root.ball.center.y:.1f})", f"radius={balls.root.ball.radius:.1f}")
for node in balls.nodes():
    lb = mindist_point_ball(probe, node.ball)
    actual = min(distance(probe, venues[v]) for v in node.venue_ids)
    assert lb <= actual + 1e-9
print("ball lower bounds verified at every node over", balls.size, "venues")
