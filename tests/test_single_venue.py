import dataclasses
import functools
import itertools
import math
import random

import pytest

from rallypoint import (
    FamiliarityMode,
    Location,
    PruneConfig,
    Query,
    SearchStats,
    SocialGraph,
    SpatialDataset,
    brute_force,
    build_indexes,
    is_feasible,
    mags_solve,
    merge_prune,
    merge_rank,
    minimal_order_theta,
    ssgmerge_solve,
    ssgs_solve,
    ssp_solve,
    sso_admits,
)
from rallypoint import multi_venue, single_venue
from rallypoint.generator import radius_for_quantile, random_instance
from rallypoint.model import familiarity_ok
from rallypoint.pruning import member_familiarity_prune
from rallypoint.single_venue import MergeQueues, _GroupSearch, _QueueEntry, candidate_order

from conftest import make_query_instance
import test_frame_counts as frame_counts


# --- admission test -------------------------------------------------------


def test_sso_rejects_stranger(g1):
    assert not sso_admits(["a"], "b", 0, 3, g1)


def test_sso_admits_friend(g1):
    assert sso_admits(["a"], "c", 0, 3, g1)


def test_sso_vacuous_at_max_theta(g1):
    for group in (["a"], ["a", "b"], ["b", "f"]):
        for v in g1.vertices:
            if v not in group:
                assert sso_admits(group, v, 2, 3, g1)


def test_sso_always_true_for_p1(g1):
    assert sso_admits([], "a", 0, 1, g1)


def test_sso_rejects_existing_member(g1):
    with pytest.raises(ValueError):
        sso_admits(["a"], "a", 0, 3, g1)


# --- exact search ---------------------------------------------------------


def test_ssgs_g1_optimum(g1_instance, g1_query):
    graph, data = g1_instance
    sol = ssgs_solve(g1_query, graph, data)
    assert sol.group == ("a", "c", "d")
    assert sol.total_distance == 27.0
    assert is_feasible(sol.group, "q", g1_query, graph, data)


def test_ssgs_multi_venue_rejected(g1_instance):
    graph, data = g1_instance
    query = Query(p=2, k=1, t=10.0, venues=("q", "r"))
    with pytest.raises(ValueError):
        ssgs_solve(query, graph, data)


def test_ssgs_p1_returns_nearest(g1_instance):
    graph, data = g1_instance
    sol = ssgs_solve(Query(p=1, k=0, t=100.0, venues=("q",)), graph, data)
    assert sol.group == ("a",)
    assert sol.total_distance == 5.0


def test_ssgs_edgeless_k0_none():
    graph = SocialGraph(range(4), [])
    data = SpatialDataset(
        {i: Location(float(i + 1), 0.0) for i in range(4)}, {"q": Location(0, 0)}
    )
    query = Query(p=2, k=0, t=50.0, venues=("q",), familiarity_mode=FamiliarityMode.PER_VERTEX)
    assert ssgs_solve(query, graph, data) is None


def test_ssgs_range_smaller_than_p_none(g1_instance):
    graph, data = g1_instance
    assert ssgs_solve(Query(p=3, k=2, t=7.0, venues=("q",)), graph, data) is None


def test_ssgs_matches_oracle_random():
    for seed in range(60):
        graph, data, query = make_query_instance(seed, q_range=(1, 1))
        oracle = brute_force(query, graph, data)
        sol = ssgs_solve(query, graph, data)
        if oracle.found:
            assert sol is not None
            assert sol.total_distance == pytest.approx(oracle.total_distance, abs=1e-9)
            assert is_feasible(sol.group, query.venues[0], query, graph, data)
        else:
            assert sol is None


def test_ssgs_prune_subsets_equal_optimum():
    configs = [
        PruneConfig.none(),
        PruneConfig.from_enabled(["avg-familiarity"]),
        PruneConfig.from_enabled(["distance"]),
        PruneConfig.from_enabled(["avg-familiarity", "distance"]),
    ]
    for seed in range(20):
        graph, data, query = make_query_instance(900 + seed, q_range=(1, 1))
        answers = []
        for cfg in configs:
            sol = ssgs_solve(query, graph, data, config=cfg)
            answers.append(None if sol is None else round(sol.total_distance, 9))
        assert len(set(answers)) == 1


def test_ssgs_max_k_equals_pure_distance_search():
    for seed in range(25):
        graph, data, query = make_query_instance(500 + seed, q_range=(1, 1))
        relaxed = Query(
            p=query.p, k=query.p - 1, t=query.t, venues=query.venues,
            familiarity_mode=query.familiarity_mode,
        )
        oracle = brute_force(relaxed, graph, data)
        sol = ssgs_solve(relaxed, graph, data)
        if oracle.found:
            assert sol.total_distance == pytest.approx(oracle.total_distance, abs=1e-9)
        else:
            assert sol is None


def test_ssgs_explored_monotone_under_pruning():
    for seed in range(20):
        graph, data, query = make_query_instance(1200 + seed, q_range=(1, 1))
        off = SearchStats()
        ssgs_solve(query, graph, data, config=PruneConfig.none(), stats=off)
        for rule in ("avg_familiarity", "distance"):
            on = SearchStats()
            ssgs_solve(
                query, graph, data, config=PruneConfig.from_enabled([rule]), stats=on
            )
            assert on.explored_states <= off.explored_states


def test_located_non_vertex_is_not_a_candidate():
    # x has a location next to the venue but no vertex in the graph.
    graph = SocialGraph("abc", [("a", "b"), ("a", "c"), ("b", "c")])
    members = {
        "a": Location(1.0, 0.0),
        "b": Location(2.0, 0.0),
        "c": Location(3.0, 0.0),
        "x": Location(0.5, 0.0),
    }
    data = SpatialDataset(members, {"q": Location(0.0, 0.0)})
    query = Query(p=3, k=0, t=10.0, venues=("q",))
    oracle = brute_force(query, graph, data)
    assert oracle.group == ("a", "b", "c")
    solutions = [
        ssgs_solve(query, graph, data),
        ssp_solve(query, graph, data),
        ssgmerge_solve(query, graph, data),
        mags_solve(query, graph, data, ordering="srdo"),
        mags_solve(query, graph, data, ordering="apdo"),
    ]
    for sol in solutions:
        assert (sol.group, sol.venue) == (oracle.group, oracle.venue)
        assert sol.total_distance == pytest.approx(oracle.total_distance, abs=1e-9)


def test_candidate_order_pairs_in_range_vertices_by_distance_then_id():
    # x is located but not a vertex; b and d tie at 2.0 and c sits exactly on
    # the radius (a 3-4-5 triangle); e lies beyond it.
    graph = SocialGraph("abcde", [("a", "b")])
    members = {
        "d": Location(0.0, 2.0),
        "b": Location(2.0, 0.0),
        "a": Location(1.0, 0.0),
        "x": Location(0.5, 0.0),
        "c": Location(3.0, 4.0),
        "e": Location(5.0, 0.5),
    }
    data = SpatialDataset(members, {"q": Location(0.0, 0.0), "far": Location(90.0, 90.0)})
    query = Query(p=2, k=0, t=5.0, venues=("q",))
    order = candidate_order(query, graph, data, "q", build_indexes(data))
    assert order == [(1.0, "a"), (2.0, "b"), (2.0, "d"), (5.0, "c")]
    assert candidate_order(query, graph, data, "far", build_indexes(data)) == []


@pytest.mark.parametrize("seed", range(6))
def test_candidate_order_distances_are_the_datasets_exactly(seed):
    graph, data = random_instance(seed, 60, 6, edge_prob=0.2)
    indexes = build_indexes(data)
    for quantile in (0.05, 0.3, 1.0):
        t = radius_for_quantile(graph, data, quantile)
        query = Query(p=2, k=0, t=t, venues=tuple(data.venue_locations))
        for q in query.venues:
            # Each distance equal, bit for bit, to the dataset's: the engines'
            # reported totals rely on it.
            assert candidate_order(query, graph, data, q, indexes) == sorted(
                (data.member_venue_distance(m, q), m)
                for m in graph.vertices
                if data.member_venue_distance(m, q) <= t
            )


def test_candidate_order_rejects_an_unlocated_venue():
    graph = SocialGraph("ab", [("a", "b")])
    data = SpatialDataset({"a": Location(0.0, 0.0), "b": Location(1.0, 0.0)}, {"q": Location(0, 0)})
    query = Query(p=2, k=0, t=5.0, venues=("q",))
    with pytest.raises(ValueError, match="venue 'nowhere' has no location"):
        candidate_order(query, graph, data, "nowhere", build_indexes(data))


@pytest.mark.parametrize(
    "make_instance",
    [frame_counts._gnp_instance, frame_counts._power_law_instance, frame_counts._grid_instance],
    ids=["gnp", "power-law", "grid"],
)
def test_entry_test_admits_exactly_the_children_that_keep_the_budget(make_instance):
    # For every prefix that keeps the per-vertex budget and every member
    # outside it, the entry test admits the member exactly when the member
    # rule keeps the grown prefix, and exactly when that keeps the budget.
    # No test (None) means every member is admitted.
    per_vertex = FamiliarityMode.PER_VERTEX
    rng = random.Random(f"entry-test-{make_instance.__name__}")
    dropped = admitted = 0
    for seed in range(4):
        graph, _ = make_instance(rng, 5900 + seed)
        members = sorted(graph.vertices)
        for k in range(4):
            query = Query(len(members), k, 1.0, ("q",), per_vertex)
            search = _GroupSearch(query, graph, PruneConfig(), SearchStats())
            for size in range(5):
                for prefix in itertools.combinations(members, size):
                    if not familiarity_ok(prefix, k, per_vertex, graph):
                        continue
                    admits = search._entry_test(list(prefix), set(prefix))
                    assert (admits is None) == (size <= k)
                    for u in members:
                        if u in prefix:
                            continue
                        child = [*prefix, u]
                        keeps = familiarity_ok(child, k, per_vertex, graph)
                        assert keeps != member_familiarity_prune(child, k, graph), child
                        assert (admits is None or admits(u)) == keeps, (child, k)
                        admitted += keeps
                        dropped += not keeps
    assert dropped > 100 and admitted > 100, (dropped, admitted)


@pytest.mark.parametrize("member_rule", [True, False], ids=["rule-on", "rule-off"])
@pytest.mark.parametrize(
    "make_instance",
    [frame_counts._gnp_instance, frame_counts._power_law_instance, frame_counts._grid_instance],
    ids=["gnp", "power-law", "grid"],
)
def test_per_vertex_leaves_are_tested_by_the_entry_test(make_instance, member_rule, monkeypatch):
    # With the member rule on, every prefix that reaches a leaf scan keeps
    # the per-vertex budget, so the scans decide their leaves with the entry
    # test and never call ``familiarity_ok``. With the rule off, prefixes
    # that break the budget do reach the scans, which then test each leaf
    # with ``familiarity_ok`` and build no entry test. Every exact answer
    # matches the oracle either way.
    per_vertex = FamiliarityMode.PER_VERTEX
    original_scan = _GroupSearch._scan_leaves
    original_entry_test = _GroupSearch._entry_test
    original_ok = single_venue.familiarity_ok
    seen = {"scans": 0, "broken": 0, "ok_calls": 0, "entry_tests": 0}
    scanning = []

    def scan_leaves(self, prefix, *args):
        keeps = familiarity_ok(prefix, self.query.k, per_vertex, self.graph)
        assert keeps or not member_rule, prefix
        seen["scans"] += 1
        seen["broken"] += not keeps
        scanning.append(prefix)
        try:
            return original_scan(self, prefix, *args)
        finally:
            scanning.pop()

    def entry_test(self, *args):
        seen["entry_tests"] += bool(scanning)
        return original_entry_test(self, *args)

    def counting_ok(*args):
        seen["ok_calls"] += bool(scanning)
        return original_ok(*args)

    monkeypatch.setattr(_GroupSearch, "_scan_leaves", scan_leaves)
    monkeypatch.setattr(_GroupSearch, "_entry_test", entry_test)
    monkeypatch.setattr(single_venue, "familiarity_ok", counting_ok)
    config = PruneConfig()
    if not member_rule:
        config = config.without("member_familiarity")
    exact = {
        "ssp": ssp_solve,
        "srdo": functools.partial(mags_solve, ordering="srdo"),
        "apdo": functools.partial(mags_solve, ordering="apdo"),
    }
    rng = random.Random(f"leaf-test-{make_instance.__name__}-{member_rule}")
    # The joint searches' greedy seed cuts their leaf scans, so 45 instances
    # keep the floor below.
    for seed in range(45):
        graph, data = make_instance(rng, 6300 + seed)
        for query in frame_counts._queries(rng, graph, data, per_vertex):
            oracle = brute_force(query, graph, data)
            for name, solver in exact.items():
                sol = solver(query, graph, data, config=config)
                assert (sol is None) == (oracle.group is None), (name, seed, query)
                if sol is not None:
                    assert sol.total_distance == pytest.approx(oracle.total_distance), name
            if query.is_single_venue:
                ssgmerge_solve(query, graph, data, config=config, w=rng.choice([5, 50, 20000]))
    assert seen["scans"] > 200, seen
    if member_rule:
        assert seen["ok_calls"] == 0 and seen["entry_tests"] > 50, seen
    else:
        assert seen["entry_tests"] == 0 and seen["ok_calls"] > 50 and seen["broken"] > 10, seen


# --- leaf frames ------------------------------------------------------------


# --- root check ------------------------------------------------------------

ROOT_SEARCHES = {
    "ssgs": ssgs_solve,
    "ssgmerge": ssgmerge_solve,
    "ssp": ssp_solve,
    "mags-srdo": functools.partial(mags_solve, ordering="srdo"),
    "mags-apdo": functools.partial(mags_solve, ordering="apdo"),
}


@pytest.mark.parametrize("solver", sorted(ROOT_SEARCHES))
def test_a_refuted_root_generates_nothing(solver):
    # a..d sit 1..4 from q and e sits 10 from it; a, b and e form the one
    # triangle, and c knows d. With p = 3 and k = 0 a group needs all three
    # of its edges, 6 in twice the edge count. Within t = 5 each candidate
    # knows one other, so the three largest gains sum to 3: the root check
    # refutes the pool with one average prune and no state generated. The
    # joint root of two venues does the same over its union pool; ssp
    # refutes each venue's root. Within t = 10 the pool holds the triangle
    # and the check lets the search run.
    graph = SocialGraph("abcde", [("a", "b"), ("c", "d"), ("a", "e"), ("b", "e")])
    members = {m: Location(x, 0.0) for m, x in zip("abcde", (1.0, 2.0, 3.0, 4.0, 10.0))}
    data = SpatialDataset(members, {"q": Location(0.0, 0.0), "r": Location(0.0, 1.0)})
    solve = ROOT_SEARCHES[solver]
    one_venue_only = solver in ("ssgs", "ssgmerge")
    for venues in [("q",)] if one_venue_only else [("q",), ("q", "r")]:
        query = Query(3, 0, 5.0, venues, FamiliarityMode.AVERAGE)
        assert not brute_force(query, graph, data).found
        stats = SearchStats()
        assert solve(query, graph, data, stats=stats) is None
        roots = len(venues) if solver == "ssp" else 1
        assert (stats.explored_states, stats.generated_states) == (0, 0)
        assert stats.pruned == {"avg_familiarity": roots}
    stats = SearchStats()
    sol = solve(Query(3, 0, 10.0, ("q",), FamiliarityMode.AVERAGE), graph, data, stats=stats)
    assert (sol.group, sol.total_distance) == (("a", "b", "e"), 13.0)
    assert stats.explored_states > 0


@pytest.mark.parametrize(
    "make_instance",
    [frame_counts._gnp_instance, frame_counts._power_law_instance, frame_counts._grid_instance],
    ids=["gnp", "power-law", "grid"],
)
def test_root_check_fires_only_where_no_group_exists(make_instance, monkeypatch):
    # Each average-mode exact search runs the average rule on its root's
    # pool before its first child: the single-venue root of ssgs, ssgmerge
    # and srdo's one-venue hand-off, and the joint root of srdo and apdo.
    # Wherever the check fires, the query has no group, and the search
    # generates nothing and counts that one prune. Each query is run on
    # each venue alone and, for the joint roots, on all of them.
    fired = []
    original = _GroupSearch._root_refuted

    def spy(self, counts):
        verdict = original(self, counts)
        fired.append(verdict)
        return verdict

    monkeypatch.setattr(_GroupSearch, "_root_refuted", spy)
    rng = random.Random(f"root-check-{make_instance.__name__}")
    fires = passes = 0
    for seed in range(12):
        graph, data = make_instance(rng, 6100 + seed)
        venues = tuple(sorted(data.venue_locations))
        t = radius_for_quantile(graph, data, rng.choice([0.3, 0.6, 1.0]))
        queries = [(q,) for q in venues] + ([venues] if len(venues) > 1 else [])
        for p in range(2, 7):
            for k in range(p - 1):
                for its_venues in queries:
                    query = Query(p, k, t, its_venues, FamiliarityMode.AVERAGE)
                    found = None
                    # On one venue ssp is ssgs.
                    names = ["mags-srdo", "mags-apdo"]
                    if len(its_venues) == 1:
                        names += ["ssgs", "ssgmerge"]
                    for name in names:
                        fired.clear()
                        stats = SearchStats()
                        sol = ROOT_SEARCHES[name](query, graph, data, stats=stats)
                        assert len(fired) <= 1, (name, query)
                        if not any(fired):
                            passes += len(fired)
                            continue
                        if found is None:
                            found = brute_force(query, graph, data).found
                        where = (seed, name, query)
                        assert not found and sol is None, where
                        assert (stats.explored_states, stats.generated_states) == (0, 0), where
                        assert stats.pruned == {"avg_familiarity": 1}, where
                        fires += 1
    assert fires >= 100 and passes >= 100, (fires, passes)


@pytest.mark.parametrize(
    "solver, venues",
    [
        (ssgs_solve, (1, 1)),
        (ssp_solve, (2, 4)),
        pytest.param(functools.partial(mags_solve, ordering="srdo"), (2, 4), id="mags-srdo"),
        pytest.param(functools.partial(mags_solve, ordering="apdo"), (2, 4), id="mags-apdo"),
    ],
)
def test_pairs_never_escalate_theta(solver, venues):
    # No search applies the admission test, so the counter, which the
    # benchmark reads, stays 0.
    for seed in range(40):
        graph, data, query = make_query_instance(seed, p_range=(2, 2), q_range=venues)
        query = dataclasses.replace(query, k=0)
        stats = SearchStats()
        solver(query, graph, data, stats=stats)
        assert stats.theta_escalations == 0


@pytest.mark.parametrize("mode", list(FamiliarityMode))
def test_leaf_frame_stops_one_candidate_after_the_improving_leaf(mode):
    # a..e sit 1..5 from the venue; a knows c and e only. The root expands a
    # (the root then stops: 0 + 2 * d(b) reaches the incumbent a + c). The
    # leaf frame under [a] reads b (no edge to a, so infeasible), c (the
    # improving leaf, total 4) and stops at d with one distance prune; e,
    # which a knows, is never generated.
    graph = SocialGraph("abcde", [("a", "c"), ("a", "e")])
    members = {m: Location(float(i + 1), 0.0) for i, m in enumerate("abcde")}
    data = SpatialDataset(members, {"q": Location(0.0, 0.0)})
    query = Query(p=2, k=0, t=10.0, venues=("q",), familiarity_mode=mode)
    stats = SearchStats()
    sol = ssgs_solve(query, graph, data, stats=stats)
    assert (sol.group, sol.total_distance) == (("a", "c"), 4.0)
    assert (stats.explored_states, stats.generated_states, stats.theta_escalations) == (3, 3, 0)
    assert stats.pruned == {"distance": 2}


@pytest.mark.parametrize("mode", list(FamiliarityMode))
def test_multi_venue_leaf_frame_scans_each_venue_up_to_the_incumbent(mode, monkeypatch):
    # a and e sit 5 from r; a, b, c, d sit 6, 6.5, 7, 7.5 from q and e
    # farther; a knows c and e only.
    graph = SocialGraph("abcde", [("a", "c"), ("a", "e")])
    members = {
        "a": Location(3.0, 4.0),
        "b": Location(3.0, 16.5),
        "c": Location(3.0, 17.0),
        "d": Location(3.0, 17.5),
        "e": Location(-3.0, 4.0),
    }
    data = SpatialDataset(members, {"q": Location(3.0, 10.0), "r": Location(0.0, 0.0)})
    query = Query(p=2, k=0, t=20.0, venues=("q", "r"), familiarity_mode=mode)

    def search():
        stats = SearchStats()
        sol = mags_solve(query, graph, data, ordering="srdo", stats=stats)
        assert (sol.group, sol.venue, sol.total_distance) == (("a", "e"), "r", 10.0)
        return stats.explored_states, stats.generated_states, stats.theta_escalations, stats.pruned

    # The greedy seed keeps a and e at r, total 10, and stops before q,
    # whose bound 6 + 6.5 reaches 10. That leaves r the one venue to
    # prepare, so the root runs r's single-venue search over r's list: it
    # expands a, whose leaf frame reads e, the leaf the search takes, and
    # stops at the next candidate with a prune; the root's next head then
    # cannot beat 10, another prune. Two states, no theta escalation.
    assert search() == (2, 2, 0, {"venue_distance": 2})
    # From an infinite incumbent the root expands a, the closest member to
    # the reference venue r. The leaf frame under [a] walks q first: in
    # average mode it reads b (infeasible), c (the improving leaf, total
    # 13) and stops at d with one venue-distance prune. In per-vertex mode
    # b and d, who know no one, are peeled from both lists (with k = 0 each
    # member of a pair must know the other), so the walk reads c and stops
    # at e. The leaf frame's walk at r starts from the live incumbent: it
    # reads e (total 10, a strict improvement) and stops at the next
    # candidate. Back at the root, the re-bound drops both venues, neither
    # of which can beat 10 with the candidates left, with a prune each:
    # four states in average mode and three in per-vertex mode, each one
    # (candidate, venue) read.
    monkeypatch.setattr(multi_venue._MultiVenueSearch, "_greedy_seed", lambda self: None)
    states = 3 if mode is FamiliarityMode.PER_VERTEX else 4
    assert search() == (states, states, 0, {"venue_distance": 4})


# --- merge machinery ------------------------------------------------------


def test_merge_rank_anchors(merge_instance):
    graph, data, query = merge_instance
    # The groups' distances sum to 1 + 2 + 3 and 3 + 4 + 5.
    assert merge_rank(("a", "b", "c"), 6.0, query, graph) == 806.0
    assert merge_rank(("c", "d", "e"), 12.0, query, graph) == 412.0


def test_merge_rank_floor(merge_instance):
    graph, data, query = merge_instance
    # Tightest possible group: theta_bar stays at k.
    base = minimal_order_theta(("c", "d"), query.p, query.k, graph)
    assert base == query.k
    assert merge_rank(("c", "d"), 7.0, query, graph) == query.p * query.t * query.k + 7.0


def test_merge_prune_cases():
    assert not merge_prune(20.0, 2, 4, {2: 5.0, 3: 7.0}, math.inf)
    assert merge_prune(20.0, 2, 4, {2: 5.0, 3: 7.0}, 30.0)  # 20 + 2*5 >= 30
    assert merge_prune(1.0, 4, 4, {}, 1.0)
    assert not merge_prune(1.0, 4, 4, {}, 2.0)
    assert merge_prune(0.0, 2, 4, {}, 100.0)  # no queue material at all


def test_merge_queue_trim_keeps_smallest_ranks():
    queues = MergeQueues(capacity=2)
    for i, rank in enumerate([5.0, 1.0, 3.0, 2.0]):
        members = (f"m{i}", f"n{i}")
        queues.insert(_QueueEntry(members, frozenset(members), 1.0, rank))
    before = sorted(e.rank for e in queues.entries(2))
    queues.trim(2)
    after = [e.rank for e in queues.entries(2)]
    assert after == before[:2] == [1.0, 2.0]


def test_merge_queue_dedup_keeps_better_rank():
    queues = MergeQueues(capacity=5)
    queues.insert(_QueueEntry(("x", "y"), frozenset({"x", "y"}), 4.0, 9.0))
    queues.insert(_QueueEntry(("y", "x"), frozenset({"x", "y"}), 4.0, 3.0))
    (entry,) = queues.entries(2)
    assert entry.rank == 3.0


def test_ssgmerge_fixture_beats_first_feasible(merge_instance):
    graph, data, query = merge_instance
    sol = ssgmerge_solve(query, graph, data)
    assert sol.group == ("a", "b", "c", "d")
    assert sol.total_distance == 10.0
    # The merge result undercuts the cheaper-to-find 13-unit group.
    first_found = ("a", "c", "d", "e")
    assert sum(data.member_venue_distance(m, "q") for m in first_found) == 13.0
    assert is_feasible(first_found, "q", query, graph, data)


def test_ssgmerge_exact_with_large_budget():
    for seed in range(25):
        graph, data, query = make_query_instance(2100 + seed, q_range=(1, 1))
        oracle = brute_force(query, graph, data)
        sol = ssgmerge_solve(query, graph, data, w=10**9, lam=10**6)
        if oracle.found:
            assert sol is not None
            assert sol.total_distance == pytest.approx(oracle.total_distance, abs=1e-9)
        else:
            assert sol is None


def test_ssgmerge_never_beats_oracle_and_stays_feasible():
    for seed in range(40):
        graph, data, query = make_query_instance(2600 + seed, q_range=(1, 1))
        oracle = brute_force(query, graph, data)
        sol = ssgmerge_solve(query, graph, data, w=50, lam=8)
        if sol is not None:
            assert is_feasible(sol.group, query.venues[0], query, graph, data)
            assert oracle.found
            assert sol.total_distance >= oracle.total_distance - 1e-9


def test_ssgmerge_p1(g1_instance):
    graph, data = g1_instance
    sol = ssgmerge_solve(Query(p=1, k=0, t=100.0, venues=("q",)), graph, data)
    assert sol.group == ("a",)
    assert sol.total_distance == 5.0


@pytest.mark.parametrize("w", range(1, 31))
def test_ssgmerge_budget_is_respected(w, g1_instance, g1_query):
    # The budget is checked at each frame's loop head and before each leaf
    # of a leaf frame's scan. Stats that already count states must not
    # shrink it.
    instances = [(*g1_instance, g1_query)]
    instances += [make_query_instance(seed, q_range=(1, 1)) for seed in (3, 135, 2101, 2610)]
    for graph, data, query in instances:
        for mode in FamiliarityMode:
            stats = SearchStats(generated_states=7)
            query = dataclasses.replace(query, familiarity_mode=mode)
            ssgmerge_solve(query, graph, data, w=w, lam=5, stats=stats)
            assert stats.generated_states - 7 <= w


def test_ssgmerge_budget_counts_only_the_call():
    # The budget ``w`` holds for each call, whatever a shared ``stats``
    # already counts.
    graph, data, query = make_query_instance(135, q_range=(1, 1))
    stats = SearchStats()
    for _ in range(2):
        before = stats.generated_states
        sol = ssgmerge_solve(query, graph, data, w=20, lam=5, stats=stats)
        assert sol is not None
        assert sol.total_distance == pytest.approx(85.12357963565792, abs=1e-9)
        assert stats.generated_states - before <= 20


def test_sparse_average_mode_search_stays_small():
    # 100 candidates on a sparse graph, p=5, k=1. Bounds that charge every
    # open slot the largest pool degree, every prefix-to-pool edge and the
    # nearest distance explore 38.9M states here (close to a minute); the
    # per-member familiarity gains and the sorted-access distance bound
    # explore a few hundred. The answer was cross-checked against the
    # looser bounds.
    graph, data = random_instance(2, 200, 1, edge_prob=0.1)
    t = radius_for_quantile(graph, data, 0.5)
    query = Query(5, 1, t, ("q0",), FamiliarityMode.AVERAGE)
    stats = SearchStats()
    sol = ssgs_solve(query, graph, data, stats=stats)
    assert (sol.group, sol.venue) == ((26, 70, 140, 165, 193), "q0")
    assert sol.total_distance == pytest.approx(224.4590489387213, abs=1e-9)
    assert is_feasible(sol.group, sol.venue, query, graph, data)
    assert stats.explored_states <= 5000


# --- pinned search trees ----------------------------------------------------


def _pinned_record(seed, solver):
    multi = solver in ("ssp", "sfgp", "mags-srdo-avg")
    # Seeds from 20 on draw p from 1-3: the smallest groups, where few or no
    # search levels keep pool counts.
    graph, data, query = make_query_instance(
        9300 + seed,
        n_range=(20, 40),
        p_range=(1, 3) if seed >= 20 else (4, 6),
        q_range=(2, 5) if multi else (1, 1),
    )
    stats = SearchStats()
    if solver.endswith("-avg"):
        query = dataclasses.replace(query, familiarity_mode=FamiliarityMode.AVERAGE)
    if solver == "ssp":
        sol = ssp_solve(query, graph, data, stats=stats)
    elif solver in ("sfgp", "mags-srdo-avg"):
        sol = mags_solve(query, graph, data, ordering="srdo", stats=stats)
    elif solver == "ssgmerge":
        sol = ssgmerge_solve(query, graph, data, w=25, lam=6, stats=stats)
    else:
        assert solver in ("ssgs-avg", "ssgs-per-vertex")
        if solver == "ssgs-per-vertex":
            query = dataclasses.replace(query, familiarity_mode=FamiliarityMode.PER_VERTEX)
        sol = ssgs_solve(query, graph, data, stats=stats)
    answer = None if sol is None else (sol.group, sol.venue, round(sol.total_distance, 9))
    return (
        answer,
        (stats.explored_states, stats.generated_states),
        dict(sorted(stats.pruned.items())),
    )


# Answer, (explored, generated) and prune counters of the
# static-order engines: ssgs, ssp and mags-srdo, each in both familiarity
# modes, and ssgmerge with a budget small enough that its harvest order
# matters. Any change to the candidate order or a prune
# rule that alters a search tree shows up here. The "sfgp" keys pin
# mags-srdo in per-vertex mode: they keep the name of the former
# `sfgp_solve`, which built the same tree (seeded on the query's live
# venues) before it was folded into mags-srdo.
PINNED_STATIC_SEARCHES = {
    (0, 'sfgp'): (((12, 16, 17, 18), 'q2', 146.838995179), (70, 70), {'member_familiarity': 200, 'venue_distance': 108, 'venue_radius': 2}),
    (0, 'mags-srdo-avg'): (((12, 16, 17, 18), 'q2', 146.838995179), (41, 252), {'avg_familiarity': 211, 'venue_distance': 151, 'venue_radius': 2}),
    (0, 'ssgmerge'): (((6, 16, 17, 22), 'q0', 162.434731204), (14, 25), {'avg_familiarity': 11, 'distance': 1}),
    (0, 'ssgs-avg'): (((6, 16, 17, 22), 'q0', 162.434731204), (28, 69), {'avg_familiarity': 41, 'distance': 12}),
    (0, 'ssgs-per-vertex'): (((6, 16, 17, 22), 'q0', 162.434731204), (12, 12), {'distance': 9, 'member_familiarity': 91}),
    (0, 'ssp'): (((12, 16, 17, 18), 'q2', 146.838995179), (43, 43), {'distance': 30, 'member_familiarity': 301}),
    (1, 'sfgp'): (None, (0, 0), {}),
    (1, 'mags-srdo-avg'): (None, (0, 0), {}),
    (1, 'ssgmerge'): (None, (0, 0), {}),
    (1, 'ssgs-avg'): (None, (0, 0), {}),
    (1, 'ssgs-per-vertex'): (None, (0, 0), {}),
    (1, 'ssp'): (None, (0, 0), {}),
    (2, 'sfgp'): (((1, 17, 21, 32), 'q2', 61.862614784), (8, 8), {'member_familiarity': 32, 'venue_distance': 6}),
    (2, 'mags-srdo-avg'): (((1, 9, 17, 32), 'q2', 49.911977278), (12, 12), {'venue_distance': 5}),
    (2, 'ssgmerge'): (((1, 8, 9, 32), 'q0', 153.011938007), (12, 17), {'avg_familiarity': 5, 'distance': 7}),
    (2, 'ssgs-avg'): (((1, 8, 9, 32), 'q0', 153.011938007), (12, 17), {'avg_familiarity': 5, 'distance': 7}),
    (2, 'ssgs-per-vertex'): (((1, 8, 9, 32), 'q0', 153.011938007), (13, 13), {'distance': 7, 'member_familiarity': 49}),
    (2, 'ssp'): (((1, 17, 21, 32), 'q2', 61.862614784), (54, 54), {'distance': 12, 'member_familiarity': 141}),
    (3, 'sfgp'): (((13, 14, 19, 31), 'q0', 95.924272109), (38, 38), {'member_familiarity': 52, 'venue_distance': 43}),
    (3, 'mags-srdo-avg'): (((13, 14, 19, 31), 'q0', 95.924272109), (40, 76), {'avg_familiarity': 36, 'venue_distance': 44}),
    (3, 'ssgmerge'): (((13, 14, 19, 31), 'q0', 95.924272109), (14, 25), {'avg_familiarity': 11, 'distance': 3}),
    (3, 'ssgs-avg'): (((13, 14, 19, 31), 'q0', 95.924272109), (19, 39), {'avg_familiarity': 20, 'distance': 11}),
    (3, 'ssgs-per-vertex'): (((13, 14, 19, 31), 'q0', 95.924272109), (10, 10), {'distance': 9, 'member_familiarity': 52}),
    (3, 'ssp'): (((13, 14, 19, 31), 'q0', 95.924272109), (12, 12), {'distance': 12, 'member_familiarity': 71}),
    (4, 'sfgp'): (((5, 20, 27, 35), 'q0', 23.665987049), (4, 4), {'member_familiarity': 14, 'venue_distance': 4}),
    (4, 'mags-srdo-avg'): (((5, 20, 27, 35), 'q0', 23.665987049), (4, 4), {'venue_distance': 4}),
    (4, 'ssgmerge'): (((5, 20, 27, 35), 'q0', 23.665987049), (4, 4), {'distance': 4}),
    (4, 'ssgs-avg'): (((5, 20, 27, 35), 'q0', 23.665987049), (4, 4), {'distance': 4}),
    (4, 'ssgs-per-vertex'): (((5, 20, 27, 35), 'q0', 23.665987049), (4, 4), {'distance': 4, 'member_familiarity': 15}),
    (4, 'ssp'): (((5, 20, 27, 35), 'q0', 23.665987049), (4, 4), {'distance': 8, 'member_familiarity': 14}),
    (5, 'sfgp'): (((1, 3, 12, 18, 20), 'q3', 74.219417905), (5, 5), {'venue_distance': 5}),
    (5, 'mags-srdo-avg'): (((1, 3, 12, 18, 20), 'q3', 74.219417905), (5, 5), {'venue_distance': 5}),
    (5, 'ssgmerge'): (((0, 2, 15, 16, 19), 'q0', 143.595055695), (5, 5), {'distance': 5}),
    (5, 'ssgs-avg'): (((0, 2, 15, 16, 19), 'q0', 143.595055695), (5, 5), {'distance': 5}),
    (5, 'ssgs-per-vertex'): (((0, 2, 15, 16, 19), 'q0', 143.595055695), (5, 5), {'distance': 5}),
    (5, 'ssp'): (((1, 3, 12, 18, 20), 'q3', 74.219417905), (20, 20), {'distance': 16}),
    (6, 'sfgp'): (((7, 8, 9, 18, 35), 'q1', 59.033132348), (5, 5), {'member_familiarity': 3, 'venue_distance': 2}),
    (6, 'mags-srdo-avg'): (((7, 8, 12, 18, 35), 'q1', 48.318177), (7, 7), {'venue_distance': 5}),
    (6, 'ssgmerge'): (((22, 25, 27, 28, 30), 'q0', 79.179869095), (5, 5), {'distance': 5}),
    (6, 'ssgs-avg'): (((22, 25, 27, 28, 30), 'q0', 79.179869095), (5, 5), {'distance': 5}),
    (6, 'ssgs-per-vertex'): (((6, 22, 25, 28, 30), 'q0', 81.221176784), (5, 5), {'distance': 5, 'member_familiarity': 2}),
    (6, 'ssp'): (((7, 8, 9, 18, 35), 'q1', 59.033132348), (10, 10), {'distance': 9, 'member_familiarity': 5}),
    (7, 'sfgp'): (None, (0, 0), {}),
    (7, 'mags-srdo-avg'): (None, (0, 0), {}),
    (7, 'ssgmerge'): (None, (0, 0), {}),
    (7, 'ssgs-avg'): (None, (0, 0), {}),
    (7, 'ssgs-per-vertex'): (None, (0, 0), {}),
    (7, 'ssp'): (None, (0, 0), {}),
    (8, 'sfgp'): (((5, 9, 12, 16, 22), 'q0', 68.096883419), (5, 5), {'venue_distance': 5}),
    (8, 'mags-srdo-avg'): (((5, 9, 12, 16, 22), 'q0', 68.096883419), (5, 5), {'venue_distance': 5}),
    (8, 'ssgmerge'): (((5, 9, 12, 16, 22), 'q0', 68.096883419), (5, 5), {'distance': 5}),
    (8, 'ssgs-avg'): (((5, 9, 12, 16, 22), 'q0', 68.096883419), (5, 5), {'distance': 5}),
    (8, 'ssgs-per-vertex'): (((5, 9, 12, 16, 22), 'q0', 68.096883419), (5, 5), {'distance': 5}),
    (8, 'ssp'): (((5, 9, 12, 16, 22), 'q0', 68.096883419), (5, 5), {'distance': 9}),
    (9, 'sfgp'): (((2, 6, 9, 20), 'q0', 61.759824872), (4, 4), {}),
    (9, 'mags-srdo-avg'): (((2, 6, 9, 20), 'q0', 61.759824872), (4, 4), {}),
    (9, 'ssgmerge'): (((2, 6, 9, 20), 'q0', 61.759824872), (4, 4), {'distance': 4}),
    (9, 'ssgs-avg'): (((2, 6, 9, 20), 'q0', 61.759824872), (4, 4), {'distance': 4}),
    (9, 'ssgs-per-vertex'): (((2, 6, 9, 20), 'q0', 61.759824872), (4, 4), {'distance': 4}),
    (9, 'ssp'): (((2, 6, 9, 20), 'q0', 61.759824872), (4, 4), {'distance': 1}),
    (10, 'sfgp'): (((8, 11, 12, 14, 24, 27), 'q0', 101.655934538), (22, 22), {'member_familiarity': 11, 'venue_distance': 8}),
    (10, 'mags-srdo-avg'): (((1, 2, 7, 10, 18, 26), 'q1', 92.016890413), (13, 15), {'avg_familiarity': 2, 'venue_distance': 10}),
    (10, 'ssgmerge'): (((8, 11, 12, 14, 24, 27), 'q0', 101.655934538), (6, 7), {'avg_familiarity': 1, 'distance': 6}),
    (10, 'ssgs-avg'): (((8, 11, 12, 14, 24, 27), 'q0', 101.655934538), (6, 7), {'avg_familiarity': 1, 'distance': 6}),
    (10, 'ssgs-per-vertex'): (((8, 11, 12, 14, 24, 27), 'q0', 101.655934538), (6, 6), {'distance': 6, 'member_familiarity': 15}),
    (10, 'ssp'): (((8, 11, 12, 14, 24, 27), 'q0', 101.655934538), (12, 12), {'distance': 13, 'member_familiarity': 39}),
    (11, 'sfgp'): (None, (0, 0), {}),
    (11, 'mags-srdo-avg'): (None, (0, 0), {}),
    (11, 'ssgmerge'): (None, (0, 0), {}),
    (11, 'ssgs-avg'): (None, (0, 0), {}),
    (11, 'ssgs-per-vertex'): (None, (0, 0), {}),
    (11, 'ssp'): (None, (0, 0), {}),
    (12, 'sfgp'): (None, (0, 0), {}),
    (12, 'mags-srdo-avg'): (None, (0, 0), {}),
    (12, 'ssgmerge'): (None, (0, 0), {}),
    (12, 'ssgs-avg'): (None, (0, 0), {}),
    (12, 'ssgs-per-vertex'): (None, (0, 0), {}),
    (12, 'ssp'): (None, (0, 0), {}),
    (13, 'sfgp'): (None, (0, 0), {}),
    (13, 'mags-srdo-avg'): (None, (0, 0), {}),
    (13, 'ssgmerge'): (None, (0, 0), {}),
    (13, 'ssgs-avg'): (None, (0, 0), {}),
    (13, 'ssgs-per-vertex'): (None, (0, 0), {}),
    (13, 'ssp'): (None, (0, 0), {}),
    (14, 'sfgp'): (((1, 7, 8, 9, 16, 21), 'q0', 161.445110893), (37, 37), {'member_familiarity': 79, 'venue_distance': 7}),
    (14, 'mags-srdo-avg'): (((1, 3, 7, 9, 16, 19), 'q0', 129.481323171), (22, 36), {'avg_familiarity': 14, 'venue_distance': 18, 'venue_radius': 2}),
    (14, 'ssgmerge'): (((1, 3, 7, 16, 17, 18), 'q0', 155.507962595), (9, 24), {'avg_familiarity': 15, 'distance': 6}),
    (14, 'ssgs-avg'): (((1, 3, 7, 16, 17, 18), 'q0', 155.507962595), (9, 24), {'avg_familiarity': 15, 'distance': 6}),
    (14, 'ssgs-per-vertex'): (None, (27, 27), {'member_familiarity': 58}),
    (14, 'ssp'): (((1, 7, 8, 9, 16, 21), 'q0', 161.445110893), (45, 45), {'distance': 10, 'member_familiarity': 127}),
    (15, 'sfgp'): (((3, 8, 12, 26), 'q2', 47.513548511), (4, 4), {'venue_distance': 4}),
    (15, 'mags-srdo-avg'): (((3, 8, 12, 26), 'q2', 47.513548511), (4, 4), {'venue_distance': 4}),
    (15, 'ssgmerge'): (((3, 12, 19, 24), 'q0', 84.470982141), (4, 4), {'distance': 4}),
    (15, 'ssgs-avg'): (((3, 12, 19, 24), 'q0', 84.470982141), (4, 4), {'distance': 4}),
    (15, 'ssgs-per-vertex'): (((3, 12, 19, 24), 'q0', 84.470982141), (4, 4), {'distance': 4}),
    (15, 'ssp'): (((3, 8, 12, 26), 'q2', 47.513548511), (12, 12), {'distance': 13}),
    (16, 'sfgp'): (None, (13, 13), {'member_familiarity': 2}),
    (16, 'mags-srdo-avg'): (((4, 9, 11, 13, 22, 27), 'q3', 103.407003109), (7, 9), {'avg_familiarity': 2, 'venue_distance': 6, 'venue_radius': 1}),
    (16, 'ssgmerge'): (None, (0, 0), {'avg_familiarity': 1}),
    (16, 'ssgs-avg'): (None, (0, 0), {'avg_familiarity': 1}),
    (16, 'ssgs-per-vertex'): (None, (5, 5), {'member_familiarity': 12}),
    (16, 'ssp'): (None, (51, 51), {'member_familiarity': 72}),
    (17, 'sfgp'): (((9, 12, 17, 22, 25, 28), 'q1', 92.26972258), (6, 6), {'venue_distance': 6}),
    (17, 'mags-srdo-avg'): (((9, 12, 17, 22, 25, 28), 'q1', 92.26972258), (6, 6), {'venue_distance': 6}),
    (17, 'ssgmerge'): (((0, 4, 7, 10, 11, 22), 'q0', 107.58196521), (6, 6), {'distance': 6}),
    (17, 'ssgs-avg'): (((0, 4, 7, 10, 11, 22), 'q0', 107.58196521), (6, 6), {'distance': 6}),
    (17, 'ssgs-per-vertex'): (((0, 4, 7, 10, 11, 22), 'q0', 107.58196521), (6, 6), {'distance': 6}),
    (17, 'ssp'): (((9, 12, 17, 22, 25, 28), 'q1', 92.26972258), (12, 12), {'distance': 14}),
    (18, 'sfgp'): (((0, 9, 22, 24), 'q0', 66.141768787), (4, 4), {'venue_distance': 4}),
    (18, 'mags-srdo-avg'): (((0, 9, 22, 24), 'q0', 66.141768787), (4, 4), {'venue_distance': 4}),
    (18, 'ssgmerge'): (((0, 9, 22, 24), 'q0', 66.141768787), (4, 4), {'distance': 4}),
    (18, 'ssgs-avg'): (((0, 9, 22, 24), 'q0', 66.141768787), (4, 4), {'distance': 4}),
    (18, 'ssgs-per-vertex'): (((0, 9, 22, 24), 'q0', 66.141768787), (4, 4), {'distance': 4}),
    (18, 'ssp'): (((0, 9, 22, 24), 'q0', 66.141768787), (4, 4), {'distance': 5}),
    (19, 'sfgp'): (((11, 15, 17, 19), 'q1', 99.991611964), (27, 27), {'member_familiarity': 93, 'venue_distance': 11}),
    (19, 'mags-srdo-avg'): (((11, 15, 17, 19), 'q1', 99.991611964), (37, 104), {'avg_familiarity': 67, 'venue_distance': 16, 'venue_radius': 1}),
    (19, 'ssgmerge'): (None, (2, 25), {'avg_familiarity': 23}),
    (19, 'ssgs-avg'): (None, (2, 25), {'avg_familiarity': 23}),
    (19, 'ssgs-per-vertex'): (None, (15, 15), {'member_familiarity': 65}),
    (19, 'ssp'): (((11, 15, 17, 19), 'q1', 99.991611964), (29, 29), {'distance': 11, 'member_familiarity': 100}),
    (20, 'sfgp'): (((8,), 'q1', 16.175908729), (1, 1), {'venue_distance': 1}),
    (20, 'mags-srdo-avg'): (((8,), 'q1', 16.175908729), (1, 1), {'venue_distance': 1}),
    (20, 'ssgs-avg'): (((21,), 'q0', 16.717223358), (1, 1), {'distance': 1}),
    (20, 'ssp'): (((8,), 'q1', 16.175908729), (2, 2), {'distance': 3}),
    (21, 'sfgp'): (((3,), 'q1', 3.262545111), (1, 1), {'venue_distance': 1}),
    (21, 'mags-srdo-avg'): (((3,), 'q1', 3.262545111), (1, 1), {'venue_distance': 1}),
    (21, 'ssgs-avg'): (((34,), 'q0', 11.684118247), (1, 1), {'distance': 1}),
    (21, 'ssp'): (((3,), 'q1', 3.262545111), (2, 2), {'distance': 2}),
    (22, 'sfgp'): (((5, 8), 'q0', 25.407493745), (8, 8), {'venue_distance': 7, 'venue_radius': 1}),
    (22, 'mags-srdo-avg'): (((5, 8), 'q0', 25.407493745), (7, 8), {'avg_familiarity': 1, 'venue_distance': 6, 'venue_radius': 1}),
    (22, 'ssgs-avg'): (((5, 8), 'q0', 25.407493745), (2, 2), {'distance': 2}),
    (22, 'ssp'): (((5, 8), 'q0', 25.407493745), (7, 7), {'distance': 6}),
    (23, 'sfgp'): (((25,), 'q4', 5.405877277), (1, 1), {'venue_distance': 1}),
    (23, 'mags-srdo-avg'): (((25,), 'q4', 5.405877277), (1, 1), {'venue_distance': 1}),
    (23, 'ssgs-avg'): (((28,), 'q0', 6.493131993), (1, 1), {'distance': 1}),
    (23, 'ssp'): (((25,), 'q4', 5.405877277), (3, 3), {'distance': 5}),
    (24, 'sfgp'): (((16,), 'q1', 8.370518849), (1, 1), {'venue_distance': 1}),
    (24, 'mags-srdo-avg'): (((16,), 'q1', 8.370518849), (1, 1), {'venue_distance': 1}),
    (24, 'ssgs-avg'): (((22,), 'q0', 18.633951118), (1, 1), {'distance': 1}),
    (24, 'ssp'): (((16,), 'q1', 8.370518849), (2, 2), {'distance': 2}),
    (25, 'sfgp'): (((0,), 'q2', 5.339915216), (1, 1), {'venue_distance': 1}),
    (25, 'mags-srdo-avg'): (((0,), 'q2', 5.339915216), (1, 1), {'venue_distance': 1}),
    (25, 'ssgs-avg'): (((16,), 'q0', 10.020581902), (1, 1), {'distance': 1}),
    (25, 'ssp'): (((0,), 'q2', 5.339915216), (3, 3), {'distance': 5}),
    (26, 'sfgp'): (((7,), 'q1', 6.176773067), (1, 1), {'venue_distance': 1}),
    (26, 'mags-srdo-avg'): (((7,), 'q1', 6.176773067), (1, 1), {'venue_distance': 1}),
    (26, 'ssgs-avg'): (((1,), 'q0', 8.19347863), (1, 1), {'distance': 1}),
    (26, 'ssp'): (((7,), 'q1', 6.176773067), (2, 2), {'distance': 2}),
    (27, 'sfgp'): (((9,), 'q0', 4.316065695), (1, 1), {}),
    (27, 'mags-srdo-avg'): (((9,), 'q0', 4.316065695), (1, 1), {}),
    (27, 'ssgs-avg'): (((9,), 'q0', 4.316065695), (1, 1), {}),
    (27, 'ssp'): (((9,), 'q0', 4.316065695), (1, 1), {'distance': 2}),
    (28, 'sfgp'): (((0, 2, 28), 'q2', 32.299237237), (3, 3), {'member_familiarity': 5, 'venue_distance': 3}),
    (28, 'mags-srdo-avg'): (((0, 2, 28), 'q2', 32.299237237), (3, 3), {'venue_distance': 3}),
    (28, 'ssgs-avg'): (((10, 19, 34), 'q0', 59.505612319), (5, 11), {'avg_familiarity': 6, 'distance': 3}),
    (28, 'ssp'): (((0, 2, 28), 'q2', 32.299237237), (16, 16), {'distance': 8, 'member_familiarity': 16}),
    (29, 'sfgp'): (((17,), 'q3', 8.350594287), (1, 1), {'venue_distance': 1}),
    (29, 'mags-srdo-avg'): (((17,), 'q3', 8.350594287), (1, 1), {'venue_distance': 1}),
    (29, 'ssgs-avg'): (((22,), 'q0', 8.710353491), (1, 1), {'distance': 1}),
    (29, 'ssp'): (((17,), 'q3', 8.350594287), (2, 2), {'distance': 5}),
    (30, 'sfgp'): (((14, 18, 29), 'q0', 42.966906376), (11, 11), {'venue_distance': 6}),
    (30, 'mags-srdo-avg'): (((14, 18, 29), 'q0', 42.966906376), (9, 10), {'avg_familiarity': 1, 'venue_distance': 5}),
    (30, 'ssgs-avg'): (((14, 18, 29), 'q0', 42.966906376), (9, 10), {'avg_familiarity': 1, 'distance': 5}),
    (30, 'ssp'): (((14, 18, 29), 'q0', 42.966906376), (11, 11), {'distance': 7}),
    (31, 'sfgp'): (((8, 17), 'q1', 10.11784153), (2, 2), {'venue_distance': 2}),
    (31, 'mags-srdo-avg'): (((8, 17), 'q1', 10.11784153), (2, 2), {'venue_distance': 2}),
    (31, 'ssgs-avg'): (((2, 12), 'q0', 13.242927674), (2, 2), {'distance': 2}),
    (31, 'ssp'): (((8, 17), 'q1', 10.11784153), (4, 4), {'distance': 6}),
    (32, 'sfgp'): (((1, 8, 20), 'q2', 51.629094197), (3, 3), {}),
    (32, 'mags-srdo-avg'): (((1, 8, 20), 'q2', 51.629094197), (6, 28), {'avg_familiarity': 22, 'venue_distance': 4, 'venue_radius': 22}),
    (32, 'ssgs-avg'): (None, (0, 0), {'avg_familiarity': 1}),
    (32, 'ssp'): (((1, 8, 20), 'q2', 51.629094197), (17, 17), {'distance': 2, 'member_familiarity': 44}),
    (33, 'sfgp'): (((4,), 'q2', 4.40651612), (1, 1), {'venue_distance': 1}),
    (33, 'mags-srdo-avg'): (((4,), 'q2', 4.40651612), (1, 1), {'venue_distance': 1}),
    (33, 'ssgs-avg'): (((1,), 'q0', 9.870779188), (1, 1), {'distance': 1}),
    (33, 'ssp'): (((4,), 'q2', 4.40651612), (2, 2), {'distance': 4}),
    (34, 'sfgp'): (((11, 15, 16), 'q2', 45.008963241), (3, 3), {'member_familiarity': 2, 'venue_distance': 3}),
    (34, 'mags-srdo-avg'): (((11, 15, 16), 'q2', 45.008963241), (3, 5), {'avg_familiarity': 2, 'venue_distance': 8, 'venue_radius': 1}),
    (34, 'ssgs-avg'): (((3, 17, 19), 'q0', 47.036367447), (3, 3), {'distance': 3}),
    (34, 'ssp'): (((11, 15, 16), 'q2', 45.008963241), (9, 9), {'distance': 10, 'member_familiarity': 2}),
    (35, 'sfgp'): (((26,), 'q1', 0.70613056), (1, 1), {'venue_distance': 1}),
    (35, 'mags-srdo-avg'): (((26,), 'q1', 0.70613056), (1, 1), {'venue_distance': 1}),
    (35, 'ssgs-avg'): (((26,), 'q0', 8.787019051), (1, 1), {'distance': 1}),
    (35, 'ssp'): (((26,), 'q1', 0.70613056), (2, 2), {'distance': 2}),
    (36, 'sfgp'): (((0, 10, 17), 'q1', 24.817125455), (3, 3), {'venue_distance': 3}),
    (36, 'mags-srdo-avg'): (((0, 10, 17), 'q1', 24.817125455), (3, 3), {'venue_distance': 3}),
    (36, 'ssgs-avg'): (((1, 6, 20), 'q0', 37.99604031), (3, 3), {'distance': 3}),
    (36, 'ssp'): (((0, 10, 17), 'q1', 24.817125455), (6, 6), {'distance': 6}),
    (37, 'sfgp'): (((32,), 'q0', 2.306738546), (1, 1), {'venue_distance': 1}),
    (37, 'mags-srdo-avg'): (((32,), 'q0', 2.306738546), (1, 1), {'venue_distance': 1}),
    (37, 'ssgs-avg'): (((32,), 'q0', 2.306738546), (1, 1), {'distance': 1}),
    (37, 'ssp'): (((32,), 'q0', 2.306738546), (1, 1), {'distance': 3}),
    (38, 'sfgp'): (((17, 23, 26), 'q1', 40.991392142), (26, 26), {'venue_distance': 22, 'venue_radius': 1}),
    (38, 'mags-srdo-avg'): (((17, 23, 26), 'q1', 40.991392142), (8, 14), {'avg_familiarity': 6, 'venue_distance': 21}),
    (38, 'ssgs-avg'): (((19, 25, 26), 'q0', 44.698804555), (23, 24), {'avg_familiarity': 1, 'distance': 7}),
    (38, 'ssp'): (((17, 23, 26), 'q1', 40.991392142), (33, 33), {'distance': 15}),
    (39, 'sfgp'): (((12, 22), 'q1', 13.465650468), (2, 2), {'venue_distance': 2}),
    (39, 'mags-srdo-avg'): (((12, 22), 'q1', 13.465650468), (2, 2), {'venue_distance': 2}),
    (39, 'ssgs-avg'): (((7, 8), 'q0', 27.893268927), (2, 2), {'distance': 2}),
    (39, 'ssp'): (((12, 22), 'q1', 13.465650468), (4, 4), {'distance': 6}),
}


@pytest.mark.parametrize("seed, solver", sorted(PINNED_STATIC_SEARCHES))
def test_static_search_tree_is_pinned(seed, solver):
    assert _pinned_record(seed, solver) == PINNED_STATIC_SEARCHES[(seed, solver)]
