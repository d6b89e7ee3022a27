"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.
"""

import random

from rallypoint import (
    FamiliarityMode,
    Location,
    MagsAudit,
    PruneConfig,
    Query,
    SearchStats,
    brute_force,
    build_balltree,
    build_rtree,
    completion_bound_oracle,
    distance,
    distance_prune,
    enumerate_binary_optimum,
    export_mrgq_model,
    export_ssgq_model,
    is_feasible,
    mags_solve,
    member_familiarity_prune,
    merge_rank,
    mindist_mbr_ball,
    mindist_point_ball,
    mindist_point_mbr,
    pool_familiarity_prune,
    ssgmerge_solve,
    ssgs_solve,
    ssp_solve,
)
from rallypoint.cli import bench_rows
from rallypoint.generator import (
    radius_for_quantile,
    random_instance,
    random_threshold_graph,
    unit_distance_dataset,
)
from rallypoint.graph import core_decompose
from rallypoint.model import (
    PRUNE_AVG_FAMILIARITY,
    PRUNE_BALL_DISTANCE,
    PRUNE_DISTANCE,
    PRUNE_MEMBER_FAMILIARITY,
    PRUNE_VENUE_DISTANCE,
)
from rallypoint.pruning import avg_familiarity_prune
from rallypoint.rtree import Mbr

from conftest import make_query_instance

TOL = 1e-9


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _criterion1_instances():
    for seed in range(200):
        yield (seed,) + make_query_instance(seed)


def _solvers_for(query):
    solvers = {
        "ssp": ssp_solve,
        "mags-srdo": lambda q, g, d: mags_solve(q, g, d, ordering="srdo"),
        "mags-apdo": lambda q, g, d: mags_solve(q, g, d, ordering="apdo"),
    }
    if query.is_single_venue:
        solvers["ssgs"] = ssgs_solve
    return solvers


def test_criterion_1_oracle_equivalence():
    """Every exact solver equals brute force, including no-answer cases."""
    checked = 0
    expected = 0
    answers = 0
    for seed, graph, data, query in _criterion1_instances():
        # ssp and both mags orderings on every instance, ssgs on single-venue ones.
        expected += 4 if query.is_single_venue else 3
        oracle = brute_force(query, graph, data)
        for name, solver in _solvers_for(query).items():
            sol = solver(query, graph, data)
            if oracle.found:
                assert sol is not None, f"seed {seed}: {name} missed the answer"
                assert abs(sol.total_distance - oracle.total_distance) <= TOL, (
                    f"seed {seed}: {name} gave {sol.total_distance}, "
                    f"oracle {oracle.total_distance}"
                )
                assert is_feasible(sol.group, sol.venue, query, graph, data)
            else:
                assert sol is None, f"seed {seed}: {name} invented an answer"
            checked += 1
        answers += int(oracle.found)
    _report(
        1,
        checked == expected,
        f"{checked} solver runs over 200 instances agree with brute force "
        f"({answers} instances feasible)",
    )


def test_criterion_2_pruning_soundness_and_effectiveness():
    """Disabling any one rule never changes the optimum; enabling any rule
    never increases the number of explored states."""

    def run_ssgs(query, graph, data, cfg):
        stats = SearchStats()
        sol = ssgs_solve(query, graph, data, config=cfg, stats=stats)
        return (None if sol is None else round(sol.total_distance, 9)), stats

    def run_ssp(query, graph, data, cfg):
        stats = SearchStats()
        sol = ssp_solve(query, graph, data, config=cfg, stats=stats)
        return (None if sol is None else round(sol.total_distance, 9)), stats

    def run_srdo(query, graph, data, cfg):
        stats = SearchStats()
        sol = mags_solve(query, graph, data, ordering="srdo", config=cfg, stats=stats)
        return (None if sol is None else round(sol.total_distance, 9)), stats

    def run_mags(query, graph, data, cfg):
        stats = SearchStats()
        sol = mags_solve(query, graph, data, ordering="apdo", config=cfg, stats=stats)
        return (None if sol is None else round(sol.total_distance, 9)), stats

    plans = {
        PRUNE_AVG_FAMILIARITY: [run_ssgs, run_ssp],
        PRUNE_DISTANCE: [run_ssgs, run_ssp],
        PRUNE_VENUE_DISTANCE: [run_srdo, run_mags],
        PRUNE_MEMBER_FAMILIARITY: [run_ssp, run_srdo, run_mags],
        PRUNE_BALL_DISTANCE: [run_mags],
    }
    checks = 0
    for seed, graph, data, query in _criterion1_instances():
        single = Query(
            p=query.p, k=query.k, t=query.t, venues=query.venues[:1],
            familiarity_mode=FamiliarityMode.AVERAGE,
        )
        baselines = {
            run_ssgs: run_ssgs(single, graph, data, PruneConfig()),
            run_ssp: run_ssp(query, graph, data, PruneConfig()),
            run_srdo: run_srdo(query, graph, data, PruneConfig()),
            run_mags: run_mags(query, graph, data, PruneConfig()),
        }
        for rule, runners in plans.items():
            for runner in runners:
                q = single if runner is run_ssgs else query
                base_total, base_stats = baselines[runner]
                total_off, stats_off = runner(q, graph, data, PruneConfig().without(rule))
                assert total_off == base_total, (
                    f"seed {seed}: disabling {rule} changed optimum "
                    f"{base_total} -> {total_off}"
                )
                assert base_stats.explored_states <= stats_off.explored_states, (
                    f"seed {seed}: {rule} enabled explored "
                    f"{base_stats.explored_states} > disabled {stats_off.explored_states}"
                )
                checks += 1
    _report(2, checks >= 200 * 8, f"{checks} toggle comparisons sound and monotone")


def test_criterion_3_arithmetic_anchors(
    g1, g1_instance, merge_instance, fig4_instance
):
    """The worked micro-examples reproduce exactly, in integer arithmetic."""
    graph, data = g1_instance
    mg, md, mq = merge_instance

    # Ranking function values 806 and 412, for totals 1 + 2 + 3 and 3 + 4 + 5.
    assert merge_rank(("a", "b", "c"), 6.0, mq, mg) == 806.0
    assert merge_rank(("c", "d", "e"), 12.0, mq, mg) == 412.0

    # Distance bound: 11 + 1*19 = 30 >= 27 prunes.
    assert 11 + 1 * 19 == 30
    assert distance_prune(11.0, 2, 3, 19.0, 27.0) is True

    # Familiarity bound: (0 + 1*1 + 2*1)/3 = 1 < 2 prunes.
    inside = sum(len(g1.neighbors(v) & {"b", "d"}) for v in "bd")
    pool_best = max(len(g1.neighbors(v) & {"e", "f"}) for v in "ef")
    crossing = sum(len(g1.neighbors(v) & {"e", "f"}) for v in "bd")
    assert (inside, pool_best, crossing) == (0, 1, 1)
    assert inside + 1 * pool_best + 2 * crossing == 3  # i.e. average 1 < 2
    assert avg_familiarity_prune(["b", "d"], ["e", "f"], 3, 0, g1) is True

    # Member-level familiarity: 2 - 0 > 0 + 1 prunes.
    assert member_familiarity_prune(["a", "e"], 0, g1) is True

    # Pool-level familiarity: 8 < 12 prunes.
    pool_sum = sum(len(g1.neighbors(v) & set("bcdef")) for v in "bcdef")
    assert pool_sum == 8 and (5 - 1) * (5 - 1 - 0 - 1) == 12
    assert pool_familiarity_prune(["a"], list("bcdef"), 5, 0, g1) is True

    # Joint-search fixture lands on the 6-unit solution at the second venue.
    fgraph, fdata, fquery = fig4_instance
    for solver in (ssp_solve, lambda q, g, d: mags_solve(q, g, d, ordering="srdo")):
        sol = solver(fquery, fgraph, fdata)
        assert (sol.group, sol.venue, sol.total_distance) == (("a", "b", "c"), "q2", 6.0)

    # Merge heuristic: 10 beats the 13-unit group.
    msol = ssgmerge_solve(mq, mg, md)
    assert msol.group == ("a", "b", "c", "d") and msol.total_distance == 10.0
    assert sum(md.member_venue_distance(m, "q") for m in ("a", "c", "d", "e")) == 13.0

    # Single-venue fixture optimum 27.
    gsol = ssgs_solve(Query(p=3, k=0, t=100.0, venues=("q",)), graph, data)
    assert gsol.group == ("a", "c", "d") and gsol.total_distance == 27.0

    _report(3, True, "all worked-example values reproduced exactly")


def test_criterion_4_bound_validity():
    """Every ball-level bound computed during search is at most the exact
    minimum completion cost for its venue set."""
    total_bounds = 0
    instances = 0
    for seed in range(130):
        graph, data, query = make_query_instance(
            40_000 + seed, n_range=(6, 12), p_range=(2, 5), q_range=(2, 6)
        )
        instances += 1
        audit = MagsAudit()
        mags_solve(query, graph, data, ordering="apdo", audit=audit)
        for rec in audit.bounds:
            exact = completion_bound_oracle(
                rec.group, rec.pool, rec.venue_ids, query.p, data
            )
            assert rec.bound <= exact + TOL, (
                f"seed {seed}: {PRUNE_BALL_DISTANCE} bound {rec.bound} exceeds exact "
                f"completion cost {exact} (group={rec.group}, venues={rec.venue_ids})"
            )
            total_bounds += 1
    ok = instances >= 100 and total_bounds > 0
    _report(
        4,
        ok,
        f"{total_bounds} {PRUNE_BALL_DISTANCE} bounds over {instances} instances "
        f"all below the enumeration oracle",
    )


def test_criterion_5_threshold_graph_termination():
    """On threshold graphs with unit member-venue distances, the adaptive
    search finds the optimum after exactly p expansions."""
    done = 0
    attempts = 0
    rng = random.Random(555)
    while done < 20 and attempts < 200:
        attempts += 1
        n = rng.randint(20, 200)
        graph = random_threshold_graph(rng.randint(0, 10**6), n)
        p = rng.randint(3, min(10, n))
        k = rng.randint(0, p - 1)
        core = core_decompose(graph, p, k)
        if core.vertex_count < p:
            continue  # (p, k) does not admit a solution
        data = unit_distance_dataset(graph.vertices, rng.randint(1, 4))
        query = Query(p=p, k=k, t=2.0, venues=tuple(sorted(data.venue_locations)))
        stats = SearchStats()
        sol = mags_solve(query, graph, data, ordering="apdo", stats=stats)
        assert sol is not None, f"n={n} p={p} k={k}: no solution found"
        assert abs(sol.total_distance - p) <= TOL
        assert is_feasible(sol.group, sol.venue, query, graph, data)
        assert stats.explored_states == p, (
            f"n={n} p={p} k={k}: explored {stats.explored_states} != {p}"
        )
        done += 1
    _report(5, done >= 20, f"{done} threshold instances solved in exactly p expansions")


def test_criterion_6_ilp_equivalence():
    """Exhaustive enumeration of the exported models matches the solvers in
    average mode, for both the venue-set and the single-venue formulation."""
    checked = 0
    for seed in range(55):
        rng = random.Random(60_000 + seed)
        n = rng.randint(5, 8)
        nq = rng.randint(1, 3)
        p = rng.randint(2, min(4, n))
        k = rng.randint(0, p - 1)
        graph, data = random_instance(seed, n, nq, edge_prob=rng.choice([0.3, 0.5, 0.7]))
        t = radius_for_quantile(graph, data, rng.choice([0.3, 0.6, 0.9]))
        venues = tuple(sorted(data.venue_locations))
        query = Query(p=p, k=k, t=t, venues=venues, familiarity_mode=FamiliarityMode.AVERAGE)

        best = enumerate_binary_optimum(export_mrgq_model(query, graph, data))
        sol = mags_solve(query, graph, data, ordering="apdo")
        if best is None:
            assert sol is None, f"seed {seed}: model infeasible but solver answered"
        else:
            assert sol is not None, f"seed {seed}: solver missed a model-feasible answer"
            assert abs(best[0] - sol.total_distance) <= 1e-6, (
                f"seed {seed}: model {best[0]} vs solver {sol.total_distance}"
            )

        single = Query(
            p=p, k=k, t=t, venues=venues[:1], familiarity_mode=FamiliarityMode.AVERAGE
        )
        best1 = enumerate_binary_optimum(export_ssgq_model(single, graph, data))
        sol1 = ssgs_solve(single, graph, data)
        if best1 is None:
            assert sol1 is None
        else:
            assert sol1 is not None and abs(best1[0] - sol1.total_distance) <= 1e-6
        checked += 1
    _report(6, checked >= 50, f"{checked} instances: model optimum == solver optimum")


def test_criterion_7_merge_heuristic_quality():
    """The merge heuristic is always feasible and never better than the
    optimum; with unbounded budgets it is exact; the bench CSV reports the
    median optimality ratio."""
    exact_hits = 0
    answers = 0
    for seed, graph, data, query in _criterion1_instances():
        single = Query(
            p=query.p, k=query.k, t=query.t, venues=query.venues[:1],
            familiarity_mode=FamiliarityMode.AVERAGE,
        )
        oracle = brute_force(single, graph, data)
        sol = ssgmerge_solve(single, graph, data, w=60, lam=12)
        if sol is not None:
            assert oracle.found, f"seed {seed}: heuristic invented an answer"
            assert is_feasible(sol.group, single.venues[0], single, graph, data)
            assert sol.total_distance >= oracle.total_distance - TOL
            answers += 1
        big = ssgmerge_solve(single, graph, data, w=10**9, lam=10**6)
        if oracle.found:
            assert big is not None
            assert abs(big.total_distance - oracle.total_distance) <= TOL, (
                f"seed {seed}: unbounded merge {big.total_distance} "
                f"!= optimum {oracle.total_distance}"
            )
            exact_hits += 1
        else:
            assert big is None

    rows = bench_rows(
        algos=["ssgmerge"], seeds=20, n_members=12, n_venues=1, p=4, k=1,
        t_quantile=0.7, edge_prob=0.45, power_exponent=None, box=100.0,
        prune=None, check_oracle=True, deterministic=True,
    )
    medians = [r for r in rows if r["seed"] == "median"]
    assert len(medians) == 1, "bench CSV must report the median optimality ratio"
    median_ratio = float(medians[0]["ratio_to_oracle"])
    assert median_ratio >= 1.0 - TOL
    _report(
        7,
        exact_hits > 0 and answers > 0,
        f"heuristic feasible and never sub-optimal ({answers} answers); "
        f"unbounded budgets exact on {exact_hits} instances; "
        f"bench median ratio {median_ratio:.6f}",
    )


def test_criterion_8_index_invariants():
    """Ten thousand randomized checks per index property, zero violations."""
    rng = random.Random(2024)
    counts = {"rtree_mindist": 0, "range": 0, "ball_mindist": 0}

    # R-tree MINDIST soundness.
    for trial in range(20):
        pts = {
            i: Location(rng.uniform(0, 100), rng.uniform(0, 100)) for i in range(200)
        }
        tree = build_rtree(pts, max_fanout=8)
        nodes = list(tree.nodes())
        for _ in range(5):
            probe = Location(rng.uniform(-30, 130), rng.uniform(-30, 130))
            for node in nodes:
                lb = mindist_point_mbr(probe, node.mbr)
                under = [loc for _, loc in tree.points_under(node)]
                for loc in rng.sample(under, min(4, len(under))):
                    assert lb <= distance(probe, loc) + TOL
                    counts["rtree_mindist"] += 1

    # Range query equals the linear scan, pairs and order, bit for bit.
    for trial in range(320):
        n = rng.randint(20, 60)
        pts = {i: Location(rng.uniform(0, 100), rng.uniform(0, 100)) for i in range(n)}
        tree = build_rtree(pts, max_fanout=rng.choice([2, 4, 8]))
        center = Location(rng.uniform(-20, 120), rng.uniform(-20, 120))
        radius = rng.uniform(0, 90)
        expected = sorted(
            (distance(loc, center), m) for m, loc in pts.items() if distance(center, loc) <= radius
        )
        assert tree.range_query(center, radius) == expected
        counts["range"] += len(pts)

    # BallTree point and MBR MINDIST soundness.
    for trial in range(15):
        venues = {
            f"q{i}": Location(rng.uniform(0, 100), rng.uniform(0, 100))
            for i in range(120)
        }
        tree = build_balltree(venues)
        nodes = list(tree.nodes())
        for _ in range(2):
            probe = Location(rng.uniform(-30, 130), rng.uniform(-30, 130))
            x0, y0 = rng.uniform(-20, 100), rng.uniform(-20, 100)
            box = Mbr(x0, y0, x0 + rng.uniform(0, 25), y0 + rng.uniform(0, 25))
            inner = Location(
                rng.uniform(box.min_x, box.max_x), rng.uniform(box.min_y, box.max_y)
            )
            for node in nodes:
                lb_point = mindist_point_ball(probe, node.ball)
                lb_box = mindist_mbr_ball(box, node.ball)
                for vid in rng.sample(node.venue_ids, min(2, len(node.venue_ids))):
                    target = venues[vid]
                    assert lb_point <= distance(probe, target) + TOL
                    assert lb_box <= distance(inner, target) + TOL
                    counts["ball_mindist"] += 2

    ok = all(c >= 10_000 for c in counts.values())
    _report(8, ok, f"index checks with zero violations: {counts}")
