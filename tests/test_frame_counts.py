"""The pool counts the search frames carry equal the counts taken from sets.

The average familiarity predicate, the one rule that reads carried counts,
is patched in ``single_venue``, whose ``_GroupSearch`` calls it for both
engines. Each patched call recounts from sets (the frame's ``remaining``
candidates are read off the calling frame), asserts that the carried counts
match (the prefix's edge count, the pool degree table and the prefix-edge
table), and returns the set-based verdict, so the search itself never
depends on the carried counts. The root check runs the rule on the empty
prefix, where ``remaining`` holds the root's pool, so the root's fresh
counts are checked too. Every exact solver must still equal brute force.
Only average-mode frames keep counts.
"""

import random
import sys

import pytest

from rallypoint import (
    FamiliarityMode,
    Location,
    Query,
    SocialGraph,
    SpatialDataset,
    brute_force,
    is_feasible,
    mags_solve,
    ssgs_solve,
    ssp_solve,
)
from rallypoint import pruning, single_venue
from rallypoint.generator import _configuration_edges, radius_for_quantile, random_instance
from rallypoint.pruning import familiarity_counts, pool_degrees

TOL = 1e-9


def _frame_remaining():
    """The remaining candidate ids of the nearest search frame around the
    patched predicate's call that holds ``remaining``: (distance, id) pairs
    in the single-venue loop, ids in the joint one."""
    frame = sys._getframe(2)
    while "remaining" not in frame.f_locals:
        frame = frame.f_back
    remaining = frame.f_locals["remaining"]
    if frame.f_code.co_name == "_venue_frame":
        return {m for _, m in remaining}
    return set(remaining)


@pytest.fixture
def checked_counts(monkeypatch):
    """Patch the average predicate; returns how many carried counts were
    checked, and how many of them were a root's."""
    checked = {"avg": 0, "root": 0}
    original_avg = pruning.avg_familiarity_prune

    def check(group, pool, p, k, graph, counts=None):
        remaining = _frame_remaining()
        assert counts is not None
        twice_edges, pool_deg, pe = counts
        assert pool is pool_deg
        assert pool_deg == pool_degrees(remaining, graph)
        # Each remaining candidate's acquaintances in the group.
        assert pe == {v: len(graph.neighbors(v) & set(group)) for v in remaining}
        assert counts == familiarity_counts(group, remaining, graph)
        verdict = original_avg(group, remaining, p, k, graph)
        assert original_avg(group, pool, p, k, graph, counts) == verdict
        checked["avg"] += 1
        checked["root"] += not group
        return verdict

    # Both engines run the rule through ``_GroupSearch._avg_pruned``.
    monkeypatch.setattr(single_venue, "avg_familiarity_prune", check)
    return checked


def _gnp_instance(rng, seed):
    edge_prob = rng.choice([0.3, 0.5, 0.7])
    return random_instance(seed, rng.randint(8, 16), rng.randint(1, 4), edge_prob)


def _power_law_instance(rng, seed):
    return random_instance(seed, rng.randint(8, 16), rng.randint(1, 4), power_exponent=2.2)


def _grid_instance(rng, seed):
    """Integer coordinates on a 4 x 4 grid: many members and venues share a
    spot, so distances tie and some are zero."""
    n = rng.randint(8, 16)
    members = list(range(n))
    graph = SocialGraph(members, _configuration_edges(rng, members, 2.0))
    spot = lambda: Location(float(rng.randint(0, 3)), float(rng.randint(0, 3)))  # noqa: E731
    venues = {f"q{j}": spot() for j in range(rng.randint(1, 4))}
    return graph, SpatialDataset({m: spot() for m in members}, venues)


def _queries(rng, graph, data, mode):
    n = len(graph.vertices)
    p = rng.randint(1, min(6, n))
    k = rng.randint(0, p - 1)
    t = radius_for_quantile(graph, data, rng.choice([0.2, 0.5, 0.8, 1.0]))
    venues = tuple(sorted(data.venue_locations))
    yield Query(p, k, t, venues, mode)
    if len(venues) > 1:
        yield Query(p, k, t, venues[:1], mode)


def _exact_solvers(query):
    solvers = {
        "ssp": ssp_solve,
        "mags-srdo": lambda q, g, d: mags_solve(q, g, d, ordering="srdo"),
        "mags-apdo": lambda q, g, d: mags_solve(q, g, d, ordering="apdo"),
    }
    if query.is_single_venue:
        solvers["ssgs"] = ssgs_solve
    return solvers


@pytest.mark.parametrize("mode", [FamiliarityMode.AVERAGE], ids=lambda m: m.value)
@pytest.mark.parametrize(
    "make_instance",
    [_gnp_instance, _power_law_instance, _grid_instance],
    ids=["gnp", "power-law", "grid"],
)
def test_carried_pool_counts_match_sets(checked_counts, make_instance, mode):
    rng = random.Random(f"{make_instance.__name__}-{mode.value}")
    for seed in range(40):
        graph, data = make_instance(rng, 5100 + seed)
        for query in _queries(rng, graph, data, mode):
            oracle = brute_force(query, graph, data)
            for name, solver in _exact_solvers(query).items():
                sol = solver(query, graph, data)
                where = f"seed {seed}, {name}, {query}"
                if not oracle.found:
                    assert sol is None, where
                    continue
                assert sol is not None, where
                assert abs(sol.total_distance - oracle.total_distance) <= TOL, where
                assert is_feasible(sol.group, sol.venue, query, graph, data), where
    assert checked_counts["avg"] > 0
    assert checked_counts["root"] > 0


@pytest.mark.parametrize(
    "mode, any_k",
    [
        (FamiliarityMode.AVERAGE, False),
        (FamiliarityMode.PER_VERTEX, False),
        (FamiliarityMode.PER_VERTEX, True),
    ],
    ids=["average", "per-vertex", "per-vertex-every-k"],
)
def test_no_pool_counts_when_k_is_p_minus_1_or_per_vertex(monkeypatch, mode, any_k):
    # Only the average rule reads pool counts, and only average-mode frames
    # run it. With k = p - 1 its target p * (p - k - 1) is 0, so it can
    # never fire. So no frame of any exact solver builds or updates pool
    # counts in those queries, nor in a per-vertex query of any k, and every
    # solver still equals brute force.
    def refuse(*args):
        raise AssertionError("a search kept pool counts")

    # Both engines build and update counts in ``_GroupSearch``.
    monkeypatch.setattr(single_venue, "pool_degrees", refuse)
    monkeypatch.setattr(single_venue, "admit_from_pool", refuse)
    rng = random.Random(f"k-is-p-minus-1-{mode.value}{'-every-k' if any_k else ''}")
    solved = 0
    for seed in range(40):
        make_instance = rng.choice([_gnp_instance, _power_law_instance, _grid_instance])
        graph, data = make_instance(rng, 5700 + seed)
        for query in _queries(rng, graph, data, mode):
            if not any_k:
                query = Query(query.p, query.p - 1, query.t, query.venues, mode)
            oracle = brute_force(query, graph, data)
            for name, solver in _exact_solvers(query).items():
                sol = solver(query, graph, data)
                where = f"seed {seed}, {name}, {query}"
                if not oracle.found:
                    assert sol is None, where
                    continue
                assert sol is not None, where
                assert abs(sol.total_distance - oracle.total_distance) <= TOL, where
                solved += query.p >= 3
    # Queries with p >= 3 have frames that would otherwise keep counts.
    assert solved > 50, solved
