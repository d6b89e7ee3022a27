"""A graph class where the search barely searches.

Threshold graphs (grown by repeatedly adding an isolated or a dominating
vertex) have adjacency fully determined by degree classes. After trimming
vertices that can never carry a feasible group (the core decomposition), the
degree-descending tie-break walks straight to a feasible group: with all
member-venue distances equal, the branch-and-bound expands exactly p states,
then the distance bounds shut everything down.
"""

import random

from rallypoint import (
    Query,
    SearchStats,
    core_decompose,
    degree_partition,
    is_threshold_graph,
    mags_solve,
)
from rallypoint.generator import random_threshold_graph, unit_distance_dataset

rng = random.Random(7)
graph = random_threshold_graph(7, 60)
print("threshold graph on 60 vertices:", is_threshold_graph(graph))

partition = degree_partition(graph)
print("degree classes:", [(d, len(c)) for d, c in zip(partition.class_degrees, partition.classes)])

p, k = 6, 2
core = core_decompose(graph, p, k)
print(f"( p={p}, k={k} ) core keeps {core.vertex_count} of {graph.vertex_count} vertices")

data = unit_distance_dataset(graph.vertices, n_venues=3)
query = Query(p=p, k=k, t=2.0, venues=tuple(sorted(data.venue_locations)))
stats = SearchStats()
solution = mags_solve(query, graph, data, ordering="apdo", stats=stats)
print("group:", solution.group)
print("total distance:", solution.total_distance, "(one unit per member)")
print("explored states:", stats.explored_states, "== p:", stats.explored_states == p)

# The same query without the special structure explores far more.
loose = random_threshold_graph(8, 60)
for trial_p in (4, 6, 8):
    trial_k = trial_p // 3
    if core_decompose(loose, trial_p, trial_k).vertex_count < trial_p:
        continue
    st = SearchStats()
    q = Query(p=trial_p, k=trial_k, t=2.0, venues=query.venues)
    mags_solve(q, loose, data, ordering="apdo", stats=st)
    print(f"p={trial_p}: explored {st.explored_states} states")
