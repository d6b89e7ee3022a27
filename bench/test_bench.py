"""Tests of the benchmark's own code: python3 -m pytest bench -q"""

from __future__ import annotations

import dataclasses
import gc
import itertools
import json
import math
import os
import random
import subprocess
import sys

import pytest

import run
from bench_gate import adjacency, check_answer, exact_reference, per_vertex_mode
from bench_inputs import WORKLOADS, CitySpec, RawCity, RawQuery, make_city, make_inputs
from bench_speed import REFERENCE_S, calibration, scale
from bench_trace import TARGETS, Span, Tracer, bindings, summarize

rp = run.import_package()


def tiny(workload):
    """The workload with one small city per city group and one query per class."""
    groups = tuple(
        (dataclasses.replace(spec, members=24, venues=max(8, workload.venues_per_query)), mix, 1)
        for spec, mix, _ in workload.city_groups
    )
    return dataclasses.replace(workload, city_groups=groups, queries_per_pair=1)


def test_self_time_subtracts_children_and_folded_leaves():
    spans = [
        Span("solver", 0.0, 10.0, -1, 0, busy=10.0),
        Span("candidate_order", 1.0, 4.0, 0, 0, busy=3.0),
        Span("range_query", 2.0, 3.0, 1, 0, busy=1.0),
        # three leaf calls folded into one span: 2 s of busy time in [5, 9]
        Span("sso_admits", 5.0, 9.0, 0, 0, calls=3, busy=2.0, value=2),
    ]
    summary = summarize(spans)
    assert summary["solver"].self_s == pytest.approx(10.0 - 3.0 - 2.0)
    assert summary["candidate_order"].self_s == pytest.approx(2.0)
    assert summary["range_query"].self_s == pytest.approx(1.0)
    assert summary["sso_admits"].calls == 3
    assert summary["sso_admits"].total_s == pytest.approx(2.0)
    assert summary["sso_admits"].value_sum == 2


def _bindings():
    """(namespace, attribute) -> bound object, for everything the tracer wraps."""
    found = {}
    for target in TARGETS:
        namespaces, attr, _ = bindings(target)
        for namespace in namespaces:
            found[(namespace, attr)] = vars(namespace)[attr]
    return found


def test_wrappers_are_restored_and_untraced_runs_call_the_originals():
    before = _bindings()
    # Functions imported into other modules are wrapped there too.
    assert (rp.multi_venue, "mindist_point_ball") in before
    assert (rp.multi_venue, "sso_admits") in before
    assert (rp.single_venue, "familiarity_ok") in before
    assert (rp.rtree.Rtree, "range_query") in before
    tracer = Tracer()
    with tracer.installed():
        during = _bindings()
        assert all(during[key] is not value for key, value in before.items())
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())

    recorded = len(tracer.all_spans())
    calls = tracer.counts["model.distance"]
    workload = tiny(WORKLOADS["mv-adaptive"])
    cities, raw_queries = make_inputs(workload, 3)
    built = [run.build_city(rp, city) for city in cities]
    queries = [run.make_query(rp, rq) for rq in raw_queries]
    run.run_pass(rp, workload, queries, built, raw_queries)
    assert len(tracer.all_spans()) == recorded
    assert tracer.counts["model.distance"] == calls


def test_traced_pass_records_layers_under_solver_spans():
    workload = tiny(WORKLOADS["mv-adaptive"])
    cities, raw_queries = make_inputs(workload, 5)
    tracer = Tracer()
    with tracer.installed():
        built = [run.build_city(rp, city) for city in cities]
        queries = [run.make_query(rp, rq) for rq in raw_queries]
        run.run_pass(rp, workload, queries, built, raw_queries, tracer)
    spans = tracer.all_spans()
    summary = summarize(spans)
    assert summary["solver.apdo"].calls == len(raw_queries)
    assert summary["indexes.build_indexes"].calls == len(cities)
    assert summary["balltree.mindist_point_ball"].calls > 0
    assert tracer.counts["model.distance"] > 0
    for span in spans:
        if span.name.startswith("balltree."):
            parent = spans[span.parent]
            assert parent.name in ("solver.apdo", "multi_venue.srdo_seed")
            assert span.query == parent.query >= 0


def test_calibration_scales_by_the_median_and_leaves_gc_on():
    assert calibration() > 0
    assert gc.isenabled()
    assert scale([REFERENCE_S / 2, REFERENCE_S * 9, REFERENCE_S]) == pytest.approx(1.0)
    assert scale([REFERENCE_S * 2] * 3) == pytest.approx(0.5)


def _instance(seed, n=14, venues=3, prob=0.5):
    rng = random.Random(seed)
    spec = CitySpec(members=n, venues=venues, edge_prob=prob)
    return make_city(rng, spec)


def _built(city):
    graph, data, _ = run.build_city(rp, city)
    return graph, data


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n_venues_in_query", [1, 3])
def test_exact_reference_matches_brute_force(seed, n_venues_in_query):
    city = _instance(seed)
    adj = adjacency(city)
    graph, data = _built(city)
    venues = tuple(f"q{j}" for j in range(n_venues_in_query))
    for p, k, radius in itertools.product((2, 3, 4), (0, 1, 2), (30.0, 60.0, 150.0)):
        if k > p - 1:
            continue
        rq = RawQuery(0, p, k, 0.0, radius, venues)
        mode = rp.FamiliarityMode.PER_VERTEX if per_vertex_mode(rq) else rp.FamiliarityMode.AVERAGE
        oracle = rp.brute_force(rp.Query(p, k, radius, venues, mode), graph, data)
        ours = exact_reference(city, rq, adj)
        if oracle.group is None:
            assert ours is None
        else:
            assert ours is not None
            assert ours[0] == pytest.approx(oracle.total_distance, rel=1e-12)


def _solved_case():
    """A city, a query with an answer, its reference and the solver's answer."""
    workload = tiny(WORKLOADS["sv-social"])
    streams = (make_inputs(workload, seed) for seed in range(2, 12))
    for cities, raw_queries in streams:
        for rq in raw_queries:
            city = cities[rq.city]
            built = run.build_city(rp, city)
            _, outcome = run.run_query(rp, workload, run.make_query(rp, rq), built)
            if outcome.answer is not None:
                adj = adjacency(city)
                reference = exact_reference(city, rq, adj)
                return city, rq, adj, outcome.answer, reference
    raise AssertionError("no query with an answer in the tiny streams")


def test_gate_accepts_the_solver_answer_and_flags_doctored_ones():
    city, rq, adj, answer, reference = _solved_case()
    assert check_answer(city, rq, adj, answer, reference) is None

    group, venue, total = answer
    # Same members and venue, but a total that is not the optimum.
    assert check_answer(city, rq, adj, (group, venue, total + 1.0), reference) is not None
    # A member swapped for an outsider changes the recomputed total.
    outsider = next(v for v in range(len(city.members)) if v not in group)
    swapped = tuple(sorted(group[1:] + (outsider,)))
    assert check_answer(city, rq, adj, (swapped, venue, total), reference) is not None
    # Wrong size.
    assert check_answer(city, rq, adj, (group[1:], venue, total), reference) is not None
    # No-answer mismatches in both directions.
    assert check_answer(city, rq, adj, None, reference) is not None
    assert check_answer(city, rq, adj, answer, None) is not None
    assert check_answer(city, rq, adj, None, None) is None


def test_gate_flags_stranger_budget_and_radius():
    city = RawCity(
        members=[(0.0, 1.0), (0.0, 2.0), (0.0, 3.0), (0.0, 50.0)],
        venues=[(0.0, 0.0)],
        edges=[(0, 1)],
    )
    adj = adjacency(city)
    rq = RawQuery(0, 3, 0, 0.0, 10.0, ("q0",))
    # Members 0, 1, 2 are in range, but member 2 knows nobody.
    assert "stranger budget" in check_answer(city, rq, adj, ((0, 1, 2), "q0", 6.0), (6.0, "q0"))
    rq_far = RawQuery(0, 2, 1, 0.0, 10.0, ("q0",))
    assert "radius" in check_answer(city, rq_far, adj, ((0, 3), "q0", 51.0), (3.0, "q0"))


def test_gate_counts_a_raised_exception_as_failed():
    workload = tiny(WORKLOADS["sv-social"])
    cities, raw_queries = make_inputs(workload, 4)
    built = [run.build_city(rp, city) for city in cities]
    queries = [run.make_query(rp, rq) for rq in raw_queries]
    _, outcomes = run.run_pass(rp, workload, queries, built, raw_queries)
    assert run.gate(cities, raw_queries, built, [outcomes]) == []

    def boom(*args, **kwargs):
        raise RuntimeError("solver exploded")

    original = rp.ssgs_solve
    rp.ssgs_solve = boom
    try:
        elapsed, outcome = run.run_query(rp, workload, queries[0], built[raw_queries[0].city])
    finally:
        rp.ssgs_solve = original
    assert outcome.error == "RuntimeError: solver exploded"
    failures = run.gate(cities, raw_queries, built, [[outcome] + outcomes[1:]])
    assert len(failures) == 1 and "raised RuntimeError" in failures[0]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_deterministic_per_seed(name):
    workload = tiny(WORKLOADS[name])
    assert make_inputs(workload, 7) == make_inputs(workload, 7)
    assert make_inputs(workload, 7) != make_inputs(workload, 8)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_stream_mixes_every_pair_over_stratified_radii(name):
    workload = WORKLOADS[name]
    cities, queries = make_inputs(workload, 1)
    assert len(queries) >= 100
    assert {len(rq.venues) for rq in queries} == {workload.venues_per_query}
    assert all(rq.radius > 0 for rq in queries)
    first = 0
    for spec, mix, count in workload.city_groups:
        group = [rq for rq in queries if first <= rq.city < first + count]
        first += count
        low, high = (math.log(q) for q in mix.quantiles)
        for p, k in itertools.product(mix.ps, mix.ks):
            cell = [rq for rq in group if (rq.p, rq.k) == (p, k)]
            assert len(cell) == count * workload.queries_per_pair
            # One quantile in each equal slice of the log range.
            slices = sorted(
                int((math.log(rq.quantile) - low) / (high - low) * len(cell)) for rq in cell
            )
            assert slices == list(range(len(cell)))
        assert len(group) == count * workload.queries_per_pair * len(mix.ps) * len(mix.ks)


DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_declared_workloads_match_the_definitions():
    assert [(w["name"], w["why"]) for w in DECLARED["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_prints_the_declared_metrics(name, trace, tmp_path):
    result, report = run.run_benchmark(rp, tiny(WORKLOADS[name]), 1, 0.01, trace, tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    assert {m["name"]: m["unit"] for m in declared} == {n: m["unit"] for n, m in metrics.items()}
    if trace:
        assert (tmp_path / f"spans-{name}-1.jsonl").is_file()
    else:
        assert all(m["value"] > 0 for m in metrics.values())


# A traced run of a tiny stream in a fresh interpreter; prints its metrics.
CHILD = """
import json, sys
sys.path.insert(0, {here!r})
import run, test_bench
workload = test_bench.tiny(run.WORKLOADS[{name!r}])
result, _ = run.run_benchmark(run.import_package(), workload, 9, 0.01, True, None)
print(json.dumps(result["metrics"]))
"""


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_exactly_across_processes(name):
    # Timed metrics differ from run to run by nature. In the multi-venue
    # solvers, _any_venue_viable stops at the first viable venue of a set of
    # venue-id strings, so how often distance_prune runs depends on the
    # string-hash order of the process.
    varying = (
        "search.us_per_explored",
        "trace.overhead_ratio",
        "pruning.distance_prune.calls",
        "pruning.distance_prune.fire_ratio",
    )

    def counts(hash_seed):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        code = CHILD.format(here=str(run.HERE), name=name)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        ).stdout
        metrics = json.loads(out.splitlines()[-1])
        return {
            metric: m["value"]
            for metric, m in metrics.items()
            if metric not in varying
            and (
                metric.startswith(("search.", "queries."))
                or metric.endswith((".calls", "_ratio", "hits_per_call"))
            )
        }

    first = counts(1)
    assert first["search.explored_states"] > 0
    assert counts(2) == first
