#!/usr/bin/env python3
"""Closed-loop query benchmark for rallypoint.

    python3 bench/run.py --workload sv-social --seed 1 --seconds 30 --trace 0

One client sends one query at a time, each only after the previous answer
returned, against indexes built once per city. ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` makes a traced run and prints the per-layer
metrics. The last line of standard output is one JSON object. See README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from bench_gate import adjacency, check_answer, per_vertex_mode, reference_answer  # noqa: E402
from bench_inputs import WORKLOADS, RawCity, RawQuery, Workload, make_inputs  # noqa: E402
from bench_speed import calibration, scale  # noqa: E402
from bench_trace import NameSummary, Tracer, summarize  # noqa: E402

# Clock of every reported time: CPU time of this thread. The solvers and
# the index builds are single-threaded and CPU-bound, so on an idle machine
# it equals wall time; on a shared one it leaves out the time other
# processes take the CPU away, which wall time would count. Reported times
# are then scaled to the reference machine (see bench_speed.py).
CLOCK = time.thread_time
# Solve seconds between two calibrations in an untraced pass.
CALIBRATE_EVERY_S = 0.2
# Builds of every city timed for setup_s; the median is reported.
SETUP_BUILDS = 5
SETUP_SECONDS = 2.0
# Passes over the stream in an untraced run, at the least; each query's
# time is its mean over passes.
MIN_PASSES = 1
OUT_DIR = ROOT / ".bench_out"

PRUNE_RULES = (
    "avg_familiarity",
    "distance",
    "member_familiarity",
    "pool_familiarity",
    "venue_distance",
    "venue_radius",
    "outer_triangle",
    "inner_triangle",
    "ball_distance",
)


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def import_package():
    """Import rallypoint from the checkout's ``src`` tree, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "rallypoint" / "__init__.py").is_file():
        raise BenchError(f"no rallypoint sources under {src}")
    sys.path.insert(0, str(src))
    import rallypoint

    if Path(rallypoint.__file__).resolve().parent != (src / "rallypoint").resolve():
        raise BenchError(f"imported rallypoint from {rallypoint.__file__}, not {src}")
    return rallypoint


def build_city(rp, city: RawCity):
    """Library objects for one city, from raw inputs: graph, dataset, indexes."""
    graph = rp.SocialGraph(range(len(city.members)), city.edges)
    data = rp.SpatialDataset(
        {m: rp.Location(x, y) for m, (x, y) in enumerate(city.members)},
        {f"q{j}": rp.Location(x, y) for j, (x, y) in enumerate(city.venues)},
    )
    return graph, data, rp.build_indexes(data)


def timed_setup(rp, cities: List[RawCity]):
    """Build every city again and again, at least ``SETUP_BUILDS`` times and
    for ``SETUP_SECONDS``, with a calibration before the first build and
    after each; the median seconds of one build, each scaled by the two
    calibrations around it, and the last build."""
    times = []
    marks = [calibration()]
    start = time.perf_counter()
    while len(times) < SETUP_BUILDS or time.perf_counter() - start < SETUP_SECONDS:
        begin = CLOCK()
        built = [build_city(rp, city) for city in cities]
        elapsed = CLOCK() - begin
        marks.append(calibration())
        times.append(elapsed * scale(marks[-2:]))
    return statistics.median(times), built


def make_query(rp, rq: RawQuery):
    mode = rp.FamiliarityMode.PER_VERTEX if per_vertex_mode(rq) else rp.FamiliarityMode.AVERAGE
    return rp.Query(rq.p, rq.k, rq.radius, rq.venues, mode)


def solve(rp, workload: Workload, query, built, stats):
    graph, data, indexes = built
    if workload.solver == "ssgs":
        return rp.ssgs_solve(query, graph, data, indexes, stats=stats)
    return rp.mags_solve(query, graph, data, indexes, ordering=workload.solver, stats=stats)


@dataclass
class Outcome:
    """Answer (group, venue, total) or error of one query, and its counters."""

    answer: Optional[tuple]
    error: Optional[str]
    stats: object


def run_query(rp, workload, query, built) -> Tuple[float, Outcome]:
    stats = rp.SearchStats()
    start = CLOCK()
    try:
        solution = solve(rp, workload, query, built, stats)
    except Exception as exc:  # a raising query is a failed query, not a crash
        elapsed = CLOCK() - start
        return elapsed, Outcome(None, f"{type(exc).__name__}: {exc}", stats)
    elapsed = CLOCK() - start
    answer = None
    if solution is not None:
        answer = (tuple(solution.group), solution.venue, solution.total_distance)
    return elapsed, Outcome(answer, None, stats)


def run_pass(rp, workload, queries, built, raw_queries, tracer=None):
    """One closed-loop pass: per-query seconds and outcomes."""
    times: List[float] = []
    outcomes: List[Outcome] = []
    for i, (query, rq) in enumerate(zip(queries, raw_queries)):
        if tracer is None:
            elapsed, outcome = run_query(rp, workload, query, built[rq.city])
        else:
            tracer.query_id = i
            with tracer.span(f"solver.{workload.solver}"):
                elapsed, outcome = run_query(rp, workload, query, built[rq.city])
        times.append(elapsed)
        outcomes.append(outcome)
    return times, outcomes


def calibrated_pass(rp, workload, queries, built, raw_queries):
    """One untraced pass with a calibration before it, after it and after
    every ``CALIBRATE_EVERY_S`` of solve time.

    Returns per-query CPU seconds, the same scaled to the reference speed,
    the outcomes and the pass's median scale. The queries between two
    calibrations are scaled by the median of the four calibrations nearest
    to them: load on the machine comes and goes within seconds.
    """
    times: List[float] = []
    segments: List[int] = []
    outcomes: List[Outcome] = []
    marks = [calibration()]
    since = 0.0
    for query, rq in zip(queries, raw_queries):
        elapsed, outcome = run_query(rp, workload, query, built[rq.city])
        times.append(elapsed)
        segments.append(len(marks) - 1)
        outcomes.append(outcome)
        since += elapsed
        if since >= CALIBRATE_EVERY_S:
            marks.append(calibration())
            since = 0.0
    marks.append(calibration())
    factors = [scale(marks[max(0, j - 1) : j + 3]) for j in range(len(marks) - 1)]
    scaled = [t * factors[j] for t, j in zip(times, segments)]
    return times, scaled, outcomes, scale(marks)


def gate(cities, raw_queries, built, passes: List[List[Outcome]]) -> List[str]:
    """Failure reasons, one per failed query of every pass; computed outside
    any timed loop."""
    adjs = [adjacency(city) for city in cities]
    failures = []
    for i, rq in enumerate(raw_queries):
        city, adj = cities[rq.city], adjs[rq.city]
        reference = reference_answer(city, rq, adj, built[rq.city][:2])
        for outcomes in passes:
            outcome = outcomes[i]
            if outcome.error is not None:
                failures.append(f"query {i}: raised {outcome.error}")
                continue
            reason = check_answer(city, rq, adj, outcome.answer, reference)
            if reason is not None:
                failures.append(f"query {i}: {reason}")
    return failures


TIMED_METRICS = ("query_p50_ms", "query_p90_ms", "queries_per_s")


def metric(value, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def end_to_end_metrics(times: List[float], setup_s: float, peak_rss_mb: float):
    ms = sorted(t * 1000.0 for t in times)
    return {
        "query_p50_ms": metric(statistics.median(ms), "ms"),
        "query_p90_ms": metric(statistics.quantiles(ms, n=10)[-1], "ms"),
        "queries_per_s": metric(len(times) / sum(times), "1/s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }


def search_metrics(outcomes: List[Outcome], solve_s: float):
    totals = {"explored_states": 0, "generated_states": 0, "theta_escalations": 0}
    pruned = {rule: 0 for rule in PRUNE_RULES}
    for outcome in outcomes:
        stats = outcome.stats
        totals["explored_states"] += stats.explored_states
        totals["generated_states"] += stats.generated_states
        totals["theta_escalations"] += stats.theta_escalations
        for rule, count in stats.pruned.items():
            if rule in pruned:
                pruned[rule] += count
    out = {f"search.{name}": metric(value, "count") for name, value in totals.items()}
    out.update({f"search.pruned.{rule}": metric(n, "count") for rule, n in pruned.items()})
    explored = totals["explored_states"]
    out["search.us_per_explored"] = metric(solve_s * 1e6 / explored if explored else 0.0, "us")
    found = sum(1 for o in outcomes if o.answer is not None)
    out["queries.found_frac"] = metric(found / len(outcomes), "ratio")
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary, explored: int) -> Dict[str, Dict[str, object]]:
    """Per-layer metrics from a traced run's span summary."""

    def get(name: str) -> NameSummary:
        return summary.get(name, NameSummary())

    out: Dict[str, Dict[str, object]] = {}

    def calls_ms(name: str) -> NameSummary:
        s = get(name)
        out[f"{name}.calls"] = metric(s.calls, "count")
        out[f"{name}.ms"] = metric(s.total_s * 1000.0, "ms")
        out[f"{name}.us_per_call"] = metric(_ratio(s.total_s * 1e6, s.calls), "us")
        return s

    point = calls_ms("balltree.mindist_point_ball")
    mbr = calls_ms("balltree.mindist_mbr_ball")
    out["balltree.mindist_calls_per_explored"] = metric(
        _ratio(point.calls + mbr.calls, explored), "ratio"
    )
    calls_ms("multi_venue.srdo_seed")
    for solver in ("ssgs", "srdo", "apdo"):
        out[f"solver.{solver}.self_ms"] = metric(get(f"solver.{solver}").self_s * 1000.0, "ms")
    admits = calls_ms("single_venue.sso_admits")
    out["single_venue.sso_admits.admit_ratio"] = metric(
        _ratio(admits.value_sum, admits.calls), "ratio"
    )
    calls_ms("single_venue.candidate_order")
    fam = calls_ms("model.familiarity_ok")
    out["model.familiarity_ok.pass_ratio"] = metric(_ratio(fam.value_sum, fam.calls), "ratio")
    for rule in ("avg_familiarity", "distance", "member_familiarity", "pool_familiarity"):
        s = calls_ms(f"pruning.{rule}_prune")
        out[f"pruning.{rule}_prune.fire_ratio"] = metric(_ratio(s.value_sum, s.calls), "ratio")
    for bound in ("outer_triangle_ball", "inner_triangle", "ball_distance"):
        calls_ms(f"pruning.{bound}_bound")
    ranges = calls_ms("rtree.range_query")
    out["rtree.range_query.hits_per_call"] = metric(
        _ratio(ranges.value_sum, ranges.calls), "count"
    )
    out["indexes.build_indexes.ms"] = metric(get("indexes.build_indexes").total_s * 1000.0, "ms")
    out["model.SocialGraph.ms"] = metric(get("model.SocialGraph").total_s * 1000.0, "ms")
    return out


def time_shares(summary: Dict[str, NameSummary]) -> List[str]:
    """Report lines: the share of the traced solve time that each traced
    function takes, in total and outside the traced functions it calls.

    ``summary`` covers the spans of the queries only. A solver's self share
    is its time outside every traced function. Times include the wrappers'
    own cost, which inflates functions called millions of times.
    """
    solve_s = sum(s.total_s for name, s in summary.items() if name.startswith("solver."))
    lines = ["  share of traced solve time (total, self):"]
    for name, s in sorted(summary.items(), key=lambda item: -item[1].total_s):
        lines.append(
            f"    {name:<36} {_ratio(s.total_s, solve_s):6.3f} {_ratio(s.self_s, solve_s):6.3f}"
        )
    return lines


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_untraced(rp, workload, cities, raw_queries, seconds: float):
    """Set-up and closed-loop passes over the stream for ``seconds``.

    After ``MIN_PASSES`` passes, a further pass starts only while it is
    expected to end in time. Each query's time is its mean scaled time over
    the passes. The mean, unlike the minimum, does not depend on how many
    passes fit, which is more on a faster machine.
    """
    setup_s, built = timed_setup(rp, cities)
    queries = [make_query(rp, rq) for rq in raw_queries]
    passes: List[List[Outcome]] = []
    scaled_sums = [0.0] * len(queries)
    cpu_sums = [0.0] * len(queries)
    factors: List[float] = []
    start = time.perf_counter()
    while True:
        times, scaled, outcomes, factor = calibrated_pass(
            rp, workload, queries, built, raw_queries
        )
        passes.append(outcomes)
        factors.append(factor)
        scaled_sums = [a + b for a, b in zip(scaled_sums, scaled)]
        cpu_sums = [a + b for a, b in zip(cpu_sums, times)]
        spent = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and spent + spent / len(passes) > seconds:
            break
    n = len(passes)
    metrics = end_to_end_metrics([t / n for t in scaled_sums], setup_s, peak_rss_mb())
    notes = [
        f"  solve CPU time {sum(cpu_sums):.2f} s in {spent:.2f} s of passes; "
        f"speed scale per pass {' '.join(f'{f:.3f}' for f in factors)}"
    ]
    unscaled = end_to_end_metrics([t / n for t in cpu_sums], setup_s, 0.0)
    notes.append(
        "  unscaled CPU time: "
        + " ".join(f"{name}={unscaled[name]['value']:.4g}" for name in TIMED_METRICS)
    )
    return metrics, built, passes, notes


def measure_traced(rp, workload, cities, raw_queries, out_path: Optional[Path]):
    """One untraced pass, then one traced pass; per-layer metrics.

    The untraced pass is the base of trace.overhead_ratio and the source of
    the search counters, which must not depend on tracing.
    """
    built = [build_city(rp, city) for city in cities]
    queries = [make_query(rp, rq) for rq in raw_queries]
    times, outcomes = run_pass(rp, workload, queries, built, raw_queries)
    untraced_s = sum(times)
    tracer = Tracer()
    with tracer.installed():
        traced_built = [build_city(rp, city) for city in cities]
        traced_times, traced_outcomes = run_pass(
            rp, workload, queries, traced_built, raw_queries, tracer
        )
    spans = tracer.all_spans()
    notes = time_shares(summarize(spans, queries_only=True))
    metrics = layer_metrics(summarize(spans), sum(o.stats.explored_states for o in outcomes))
    metrics.update(search_metrics(outcomes, untraced_s))
    metrics["model.distance.calls"] = metric(tracer.counts["model.distance"], "count")
    metrics["trace.overhead_ratio"] = metric(sum(traced_times) / untraced_s, "ratio")
    if out_path is not None:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(str(out_path))
    return metrics, built, [outcomes, traced_outcomes], notes


def run_benchmark(rp, workload: Workload, seed: int, seconds: float, trace: bool,
                  out_dir: Optional[Path] = OUT_DIR):
    """The result object of one run, and a readable report of it."""
    cities, raw_queries = make_inputs(workload, seed)
    if trace:
        out_path = None if out_dir is None else out_dir / f"spans-{workload.name}-{seed}.jsonl"
        metrics, built, passes, notes = measure_traced(
            rp, workload, cities, raw_queries, out_path
        )
    else:
        metrics, built, passes, notes = measure_untraced(
            rp, workload, cities, raw_queries, seconds
        )
    failures = gate(cities, raw_queries, built, passes)
    attempted = len(raw_queries) * len(passes)
    report = [f"FAILED {reason}" for reason in failures[:20]]
    report.append(
        f"workload={workload.name} seed={seed} cities={len(cities)} "
        f"queries={len(raw_queries)} passes={len(passes)} attempted={attempted} "
        f"failed={len(failures)}"
    )
    report += [f"  {name} = {m['value']} {m['unit']}" for name, m in metrics.items()]
    report += notes
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return result, report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        rp = import_package()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    result, report = run_benchmark(
        rp, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    print("\n".join(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
