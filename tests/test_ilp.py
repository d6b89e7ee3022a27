import math

import pytest

from rallypoint import (
    FamiliarityMode,
    Location,
    Query,
    SocialGraph,
    SpatialDataset,
    brute_force,
    enumerate_binary_optimum,
    export_mrgq_model,
    export_ssgq_model,
    ssgs_solve,
    validate_assignment,
)
from rallypoint.generator import radius_for_quantile, random_instance


def small_instance():
    graph = SocialGraph("xyz", [("x", "y"), ("y", "z")])
    data = SpatialDataset(
        {"x": Location(1, 0), "y": Location(2, 0), "z": Location(3, 0)},
        {"q1": Location(0, 0), "q2": Location(10, 0)},
    )
    return graph, data


def test_mrgq_model_shape():
    graph, data = small_instance()
    query = Query(
        p=2, k=1, t=20.0, venues=("q1", "q2"), familiarity_mode=FamiliarityMode.AVERAGE
    )
    model = export_mrgq_model(query, graph, data)
    v, q = 3, 2
    assert len(model.constraints) == 1 + 1 + v + 1 + v * q + v
    assert len([x for x in model.binaries if x.startswith("phi")]) == v
    assert len([x for x in model.binaries if x.startswith("pi")]) == q
    names = [c.name for c in model.constraints]
    assert "A" in names and "B" in names and "D" in names
    assert any(n.startswith("C_u") for n in names)
    assert any(n.startswith("E_u") for n in names)
    assert any(n.startswith("F_u") for n in names)


def test_ssgq_model_shape():
    graph, data = small_instance()
    query = Query(p=2, k=1, t=20.0, venues=("q1",))
    model = export_ssgq_model(query, graph, data)
    v = 3
    assert len(model.constraints) == 1 + v + v + 1
    names = [c.name for c in model.constraints]
    assert "G" in names and "J" in names
    assert any(n.startswith("H_u") for n in names)
    assert any(n.startswith("I_u") for n in names)


def test_lp_text_sections():
    graph, data = small_instance()
    model = export_mrgq_model(Query(p=2, k=1, t=20.0, venues=("q1", "q2")), graph, data)
    text = model.lp_text()
    for section in ("Minimize", "Subject To", "Bounds", "Binary", "End"):
        assert section in text
    assert "phi_ux" in text and "pi_qq1" in text and "mu_ux" in text and "delta_ux" in text
    # Deterministic serialization.
    assert text == model.lp_text()


def test_relaxed_budget_admits_any_radius_group():
    graph, data = small_instance()
    query = Query(
        p=2, k=1, t=20.0, venues=("q1", "q2"), familiarity_mode=FamiliarityMode.AVERAGE
    )
    model = export_mrgq_model(query, graph, data)
    d_con = next(c for c in model.constraints if c.name == "D")
    assert d_con.rhs == query.k * query.p


def test_validate_assignment_all_zero_violates_cardinality():
    graph, data = small_instance()
    model = export_ssgq_model(Query(p=2, k=1, t=20.0, venues=("q1",)), graph, data)
    values = {v: 0.0 for v in model.variables}
    ok, violated = validate_assignment(model, values)
    assert not ok and "G" in violated


def test_validate_assignment_missing_variable():
    graph, data = small_instance()
    model = export_ssgq_model(Query(p=2, k=1, t=20.0, venues=("q1",)), graph, data)
    with pytest.raises(ValueError):
        validate_assignment(model, {})


def test_validate_assignment_encoded_optimum():
    graph, data = small_instance()
    query = Query(
        p=2, k=1, t=20.0, venues=("q1", "q2"), familiarity_mode=FamiliarityMode.AVERAGE
    )
    model = export_mrgq_model(query, graph, data)
    best = enumerate_binary_optimum(model)
    assert best is not None
    objective, values = best
    ok, violated = validate_assignment(model, values)
    assert ok, violated
    oracle = brute_force(query, graph, data)
    assert objective == pytest.approx(oracle.total_distance, abs=1e-6)


def test_delta_below_required_violates_linking():
    graph, data = small_instance()
    query = Query(p=2, k=1, t=20.0, venues=("q1", "q2"))
    model = export_mrgq_model(query, graph, data)
    best = enumerate_binary_optimum(model)
    _, values = best
    chosen = [v for v in model.member_vars.values() if values[v] == 1.0][0]
    member = next(m for m, var in model.member_vars.items() if var == chosen)
    values = dict(values)
    values[f"delta_u{member}"] = 0.0
    ok, violated = validate_assignment(model, values)
    assert not ok
    assert any(name.startswith(f"E_u{member}_") for name in violated)


def test_edgeless_k0_model_infeasible():
    graph = SocialGraph("xy", [])
    data = SpatialDataset(
        {"x": Location(1, 0), "y": Location(2, 0)}, {"q": Location(0, 0)}
    )
    query = Query(p=2, k=0, t=20.0, venues=("q",))
    model = export_ssgq_model(query, graph, data)
    assert enumerate_binary_optimum(model) is None


def test_p1_model_selects_nearest():
    graph = SocialGraph("xy", [])
    data = SpatialDataset(
        {"x": Location(5, 0), "y": Location(2, 0)}, {"q": Location(0, 0)}
    )
    query = Query(p=1, k=0, t=20.0, venues=("q",))
    best = enumerate_binary_optimum(export_ssgq_model(query, graph, data))
    assert best is not None
    assert best[0] == pytest.approx(2.0, abs=1e-9)


def test_enumeration_matches_solvers_random():
    from rallypoint import mags_solve

    for seed in range(15):
        graph, data = random_instance(seed, 6, 2, edge_prob=0.5)
        t = radius_for_quantile(graph, data, 0.7)
        query = Query(
            p=3, k=1, t=t, venues=tuple(sorted(data.venue_locations)),
            familiarity_mode=FamiliarityMode.AVERAGE,
        )
        best = enumerate_binary_optimum(export_mrgq_model(query, graph, data))
        sol = mags_solve(query, graph, data, ordering="apdo")
        if best is None:
            assert sol is None
        else:
            assert sol is not None
            assert best[0] == pytest.approx(sol.total_distance, abs=1e-6)

        single = Query(
            p=3, k=1, t=t, venues=query.venues[:1],
            familiarity_mode=FamiliarityMode.AVERAGE,
        )
        best1 = enumerate_binary_optimum(export_ssgq_model(single, graph, data))
        sol1 = ssgs_solve(single, graph, data)
        if best1 is None:
            assert sol1 is None
        else:
            assert best1[0] == pytest.approx(sol1.total_distance, abs=1e-6)


def test_per_vertex_models_cap_each_members_strangers():
    # In per-vertex mode each model replaces its aggregate budget row with
    # one row ``mu_u <= k`` per member.
    graph, data = small_instance()
    mode = FamiliarityMode.PER_VERTEX
    multi = Query(p=2, k=1, t=20.0, venues=("q1", "q2"), familiarity_mode=mode)
    single = Query(p=2, k=1, t=20.0, venues=("q1",), familiarity_mode=mode)
    for model, row in (
        (export_mrgq_model(multi, graph, data), "D"),
        (export_ssgq_model(single, graph, data), "J"),
    ):
        rows = {c.name: c for c in model.constraints if c.name.split("_")[0] == row}
        assert sorted(rows) == [f"{row}_ux", f"{row}_uy", f"{row}_uz"]
        for u in "xyz":
            con = rows[f"{row}_u{u}"]
            assert (con.coeffs, con.sense, con.rhs) == (((f"mu_u{u}", 1.0),), "<=", 1.0)


def test_per_vertex_enumeration_matches_the_oracle():
    # On instances the size of the average-mode check above, with one venue
    # and with several, the per-vertex model's optimum is the per-vertex
    # oracle's. Some of these queries have another optimum, or none, in
    # average mode, where an aggregate budget row would lead.
    differs = 0
    for seed in range(10):
        graph, data = random_instance(seed, 7, 3, edge_prob=0.4)
        t = radius_for_quantile(graph, data, 0.7)
        venues = tuple(sorted(data.venue_locations))
        for p, k in ((3, 1), (4, 1), (4, 2)):
            for its_venues in (venues, venues[:1]):
                query = Query(p, k, t, its_venues, FamiliarityMode.PER_VERTEX)
                export = export_ssgq_model if query.is_single_venue else export_mrgq_model
                best = enumerate_binary_optimum(export(query, graph, data))
                oracle = brute_force(query, graph, data)
                assert (best is not None) == oracle.found, (seed, query)
                if best is not None:
                    assert best[0] == pytest.approx(oracle.total_distance, abs=1e-6)
                average = brute_force(
                    Query(p, k, t, its_venues, FamiliarityMode.AVERAGE), graph, data
                )
                differs += average.total_distance != oracle.total_distance
    assert differs > 0


def _highs_optimum(model):
    """``scipy.optimize.milp`` (HiGHS) on ``model`` with no optimality gap:
    the solver's status and objective value."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_array

    column = {var: j for j, var in enumerate(model.variables)}
    rows, cols, coeffs = [], [], []
    lower, upper = [], []
    for i, con in enumerate(model.constraints):
        for var, coeff in con.coeffs:
            rows.append(i)
            cols.append(column[var])
            coeffs.append(coeff)
        lower.append(con.rhs if con.sense == "=" else -math.inf)
        upper.append(con.rhs)
    shape = (len(model.constraints), len(column))
    matrix = coo_array((coeffs, (rows, cols)), shape=shape).tocsr()
    c = [model.objective.get(var, 0.0) for var in model.variables]
    binary = len(model.binaries)
    result = milp(
        c,
        integrality=[1] * binary + [0] * len(model.continuous),
        bounds=Bounds([0.0] * len(column), [1.0] * binary + [math.inf] * len(model.continuous)),
        constraints=LinearConstraint(matrix, lower, upper),
        options={"mip_rel_gap": 0},
    )
    return result.status, result.fun


def test_exported_models_solved_by_highs_match_the_oracle():
    # HiGHS solves each exported model exactly: both exporters, the
    # single-venue one on one venue and the joint one on three, in both
    # familiarity modes. A feasible model's optimum is the oracle's total;
    # a query with no group gives an infeasible model (status 2).
    pytest.importorskip("scipy")
    solved = infeasible = 0
    for seed in range(40):
        graph, data = random_instance(seed, 12, 3, 0.4)
        t = radius_for_quantile(graph, data, 0.8)
        venues = tuple(sorted(data.venue_locations))
        p = 3 + seed % 3
        k = 1 + seed // 3 % 2
        for mode in FamiliarityMode:
            for export, its_venues in ((export_ssgq_model, venues[:1]), (export_mrgq_model, venues)):
                query = Query(p, k, t, its_venues, mode)
                status, total = _highs_optimum(export(query, graph, data))
                oracle = brute_force(query, graph, data)
                where = (seed, export.__name__, query)
                if oracle.found:
                    assert status == 0, where
                    assert total == pytest.approx(oracle.total_distance, rel=1e-6), where
                    solved += 1
                else:
                    assert status == 2, where
                    infeasible += 1
    assert solved > 100 and infeasible > 10, (solved, infeasible)
