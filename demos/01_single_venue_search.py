"""Walkthrough: exact single-venue group selection.

Six friends at various distances from a cafe; we want the three closest that
all know each other. The search walks the candidates in distance order and
starts from a, the closest. The familiarity bound prunes {a, b} at once: a
and b are strangers, and no third member can make the pair a triangle. The
next pair, {a, c}, is completed by d into the triangle {a, c, d}, and the
distance bound prunes the rest of the space: three states explored in all.
The paper's socially-aware admission test, shown first, would defer b
instead; it only reorders the walk, and measured it cost more than it saved,
so the search does not apply it.
"""

from rallypoint import (
    Location,
    PruneConfig,
    Query,
    SearchStats,
    SocialGraph,
    SpatialDataset,
    ssgs_solve,
    sso_admits,
)

graph = SocialGraph(
    "abcdef",
    [("a", "c"), ("a", "d"), ("c", "d"), ("b", "e"), ("c", "e"), ("e", "f")],
)
members = {m: Location(d, 0.0) for m, d in zip("abcdef", [5, 6, 10, 12, 19, 21])}
data = SpatialDataset(members, {"cafe": Location(0.0, 0.0)})
query = Query(p=3, k=0, t=100.0, venues=("cafe",))

print("distance order:", sorted(members, key=lambda m: members[m].x))
print("admit b after a (k=0)?", sso_admits(["a"], "b", 0, query.p, graph))
print("admit c after a (k=0)?", sso_admits(["a"], "c", 0, query.p, graph))

stats = SearchStats()
solution = ssgs_solve(query, graph, data, stats=stats)
print("\noptimal group:", solution.group)
print("total distance:", solution.total_distance)
print("explored states:", stats.explored_states)
print("prunes fired:", stats.pruned)

# The same answer comes back with all pruning off, just more slowly.
raw_stats = SearchStats()
raw = ssgs_solve(query, graph, data, config=PruneConfig.none(), stats=raw_stats)
print("\nwithout pruning:", raw.total_distance, "explored", raw_stats.explored_states)
