"""Venue sets: three exact strategies, one answer.

With several candidate venues the solver must pick the venue and the group
together. This script runs the sequential baseline and the joint search with
both ordering strategies (a fixed reference venue, and adaptive selection
over the spatial indexes) on the same instances, confirms they agree with
brute force, and compares how much of the search space each one touches.
"""

import time

from rallypoint import (
    PruneConfig,
    Query,
    SearchStats,
    brute_force,
    mags_solve,
    ssp_solve,
)
from rallypoint.generator import radius_for_quantile, random_instance

SOLVERS = {
    "ssp      ": lambda q, g, d, st: ssp_solve(q, g, d, stats=st),
    "mags-srdo": lambda q, g, d, st: mags_solve(q, g, d, ordering="srdo", stats=st),
    "mags-apdo": lambda q, g, d, st: mags_solve(q, g, d, ordering="apdo", stats=st),
}

totals = {name: 0 for name in SOLVERS}
elapsed = {name: 0.0 for name in SOLVERS}
agreements = 0
for seed in range(30):
    graph, data = random_instance(seed, 14, 5, edge_prob=0.35)
    t = radius_for_quantile(graph, data, 0.6)
    query = Query(p=4, k=1, t=t, venues=tuple(sorted(data.venue_locations)))
    oracle = brute_force(query, graph, data)
    answers = set()
    for name, solver in SOLVERS.items():
        stats = SearchStats()
        tick = time.perf_counter()
        sol = solver(query, graph, data, stats)
        elapsed[name] += time.perf_counter() - tick
        totals[name] += stats.explored_states
        answers.add(None if sol is None else round(sol.total_distance, 9))
    expected = None if not oracle.found else round(oracle.total_distance, 9)
    assert answers == {expected}, (seed, answers, expected)
    agreements += 1

print(f"all three solvers matched brute force on {agreements} instances\n")
print("search effort (explored states, total across instances):")
for name in SOLVERS:
    print(f"  {name} explored {totals[name]:6d} states in {elapsed[name]*1000:7.1f} ms")

print("\nablation: switching off the ball-level bounds on one instance")
graph, data = random_instance(7, 14, 5, edge_prob=0.35)
t = radius_for_quantile(graph, data, 0.6)
query = Query(p=4, k=1, t=t, venues=tuple(sorted(data.venue_locations)))
for label, cfg in [
    ("all rules   ", PruneConfig()),
    ("no triangles", PruneConfig().without("outer-triangle").without("inner-triangle")),
    ("no rules    ", PruneConfig.none()),
]:
    stats = SearchStats()
    sol = mags_solve(query, graph, data, ordering="apdo", config=cfg, stats=stats)
    value = None if sol is None else round(sol.total_distance, 3)
    print(f"  {label}: optimum {value}, explored {stats.explored_states}, prunes {stats.pruned}")
