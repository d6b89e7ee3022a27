"""The merge heuristic: recombining partial groups beats cutting the search.

Stopping an exact search early keeps only whatever full groups it stumbled
on. The merge heuristic instead harvests the partial groups the search
generated, ranks them by social tightness and distance, and merges pairs into
new candidates. On the fixture below the first full group found costs 13,
while merging two partials yields a group at 10.
"""

import random

from rallypoint import (
    Location,
    Query,
    SocialGraph,
    SpatialDataset,
    brute_force,
    merge_rank,
    ssgmerge_solve,
)
from rallypoint.generator import radius_for_quantile, random_instance

graph = SocialGraph(
    "abcdef",
    [("a", "c"), ("b", "c"), ("a", "d"), ("b", "d"), ("c", "d"),
     ("c", "e"), ("d", "e"), ("c", "f"), ("d", "f"), ("e", "f")],
)
members = {m: Location(float(d), 0.0) for m, d in zip("abcdef", range(1, 7))}
data = SpatialDataset(members, {"q": Location(0.0, 0.0)})
query = Query(p=4, k=1, t=100.0, venues=("q",))


def rank(group):
    total = sum(data.member_venue_distance(m, "q") for m in group)
    return merge_rank(group, total, query, graph)


print("rank of loose-but-close {a,b,c}: ", rank(("a", "b", "c")))
print("rank of tight-but-far   {c,d,e}: ", rank(("c", "d", "e")))

solution = ssgmerge_solve(query, graph, data)
print("\nmerged answer:", solution.group, "at", solution.total_distance)
print("(first feasible group {a,c,d,e} costs",
      sum(data.member_venue_distance(m, "q") for m in "acde"), ")")

# Quality under tight budgets, across random instances.
print("\nbudgeted quality vs. the exact optimum:")
for w, lam in [(10, 4), (50, 16), (500, 64)]:
    ratios = []
    for seed in range(40):
        rng = random.Random(seed)
        g, d = random_instance(seed, 14, 1, edge_prob=0.35)
        t = radius_for_quantile(g, d, 0.8)
        q = Query(p=4, k=1, t=t, venues=tuple(d.venue_locations))
        exact = brute_force(q, g, d)
        approx = ssgmerge_solve(q, g, d, w=w, lam=lam)
        if exact.found and approx is not None:
            ratios.append(approx.total_distance / exact.total_distance)
    avg = sum(ratios) / len(ratios)
    print(f"  w={w:4d} lam={lam:3d}: mean ratio {avg:.4f} over {len(ratios)} instances")
