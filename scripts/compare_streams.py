#!/usr/bin/env python3
"""Digests of every exact solver's answers and search counters on the
benchmark's query streams, to check that a change leaves both untouched.

    python3 scripts/compare_streams.py --workloads mv-static --seeds 1 3 5
    python3 scripts/compare_streams.py --seeds 1 --against ../parent-checkout
    python3 scripts/compare_streams.py --workloads mv-static --seeds 1 \
        --solvers srdo --against ../parent-checkout --time 5

For each workload, seed and solver it prints one sha256 over the answers,
``(group, venue, repr(total))`` per query, and one over the search counters
(explored and generated states, and each prune rule's count). With
``--against DIR`` it computes the same digests on the checkout at ``DIR``, in
a fresh interpreter that imports that checkout's ``bench/`` and ``src/``,
lists each mismatch with the first queries that differ, and exits with 1
when there is one. A counter mismatch also gives each side's explored and
generated states, summed over the stream. The script reads ``bench/`` and
never writes to it.

Besides the benchmark's workloads, workload ``hard`` holds two per-vertex
queries per seed ``s`` over every venue of ``random_instance(s, 300, 8,
edge_prob=0.3)``, with ``k = 2``, ``p = 6`` and ``p = 7``, and the radius at
the 0.3 quantile of the member-venue distances: the deeper searches that
the benchmark's streams do not reach.

``--time R`` (with ``--against``) also times the solver calls: it runs both
checkouts in fresh interpreters for ``R`` rounds, this checkout first in
even rounds and the other first in odd ones, so drift in machine speed
falls on both sides alike. For each workload, seed and solver it prints
each side's smallest CPU time (``process_time`` summed over the stream's
solver calls) and their ratio, this checkout over the other. The digests
then come from the first round.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SOLVERS = ("ssgs", "ssp", "srdo", "apdo")
# Query indexes listed for each mismatch.
SHOWN = 5

# (workload, seed, solver) -> (per-query answers, per-query counters)
Records = Dict[Tuple[str, int, str], Tuple[List[str], List[str]]]
# (workload, seed, solver) -> CPU seconds of the stream's solver calls
Seconds = Dict[Tuple[str, int, str], float]


def load_bench(root: Path):
    """The ``run`` module of ``root``'s benchmark and the rallypoint package
    it imports from ``root/src``."""
    sys.path.insert(0, str(root / "bench"))
    import run

    return run, run.import_package()


def solve(rp, solver: str, query, built, stats):
    graph, data, indexes = built
    if solver == "ssgs":
        return rp.ssgs_solve(query, graph, data, indexes, stats=stats)
    if solver == "ssp":
        return rp.ssp_solve(query, graph, data, indexes, stats=stats)
    return rp.mags_solve(query, graph, data, indexes, ordering=solver, stats=stats)


def stream(run, rp, name: str, seed: int) -> List[tuple]:
    """The queries of workload ``name`` at ``seed``, each with the graph,
    dataset and indexes it runs on."""
    if name == "hard":
        from rallypoint.generator import radius_for_quantile, random_instance

        graph, data = random_instance(seed, 300, 8, edge_prob=0.3)
        t = radius_for_quantile(graph, data, 0.3)
        built = (graph, data, rp.build_indexes(data))
        venues = tuple(sorted(data.venue_locations))
        mode = rp.FamiliarityMode.PER_VERTEX
        return [(rp.Query(p, 2, t, venues, mode), built) for p in (6, 7)]
    cities, raw_queries = run.make_inputs(run.WORKLOADS[name], seed)
    built = [run.build_city(rp, city) for city in cities]
    return [(run.make_query(rp, rq), built[rq.city]) for rq in raw_queries]


def stream_records(root: Path, workloads: Sequence[str], seeds: Sequence[int],
                   solvers: Sequence[str]) -> Tuple[Records, Seconds]:
    """Each query's answer and counters, as strings, for every workload,
    seed and solver, and the CPU time of each stream's solver calls.
    ``ssgs`` runs only on streams of one-venue queries."""
    run, rp = load_bench(root)
    records: Records = {}
    seconds: Seconds = {}
    for name in workloads:
        for seed in seeds:
            queries = stream(run, rp, name, seed)
            for solver in solvers:
                if solver == "ssgs" and any(len(q.venues) != 1 for q, _ in queries):
                    continue
                answers, counters = [], []
                cpu = 0.0
                for query, built in queries:
                    stats = rp.SearchStats()
                    start = time.process_time()
                    sol = solve(rp, solver, query, built, stats)
                    cpu += time.process_time() - start
                    answer = None
                    if sol is not None:
                        answer = (tuple(sol.group), sol.venue, repr(sol.total_distance))
                    answers.append(repr(answer))
                    counters.append(repr((
                        stats.explored_states,
                        stats.generated_states,
                        sorted(stats.pruned.items()),
                    )))
                records[(name, seed, solver)] = (answers, counters)
                seconds[(name, seed, solver)] = cpu
    return records, seconds


def digest(lines: List[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def report(records: Records) -> List[str]:
    return [
        f"{name} seed={seed} {solver} queries={len(answers)} "
        f"answers={digest(answers)} counters={digest(counters)}"
        for (name, seed, solver), (answers, counters) in records.items()
    ]


def records_of(root: Path, workloads, seeds, solvers) -> Tuple[Records, Seconds]:
    """``stream_records`` of the checkout at ``root``, in a fresh
    interpreter, so two checkouts' packages never meet in one process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--root", str(root), "--json",
           "--workloads", *workloads, "--seeds", *map(str, seeds), "--solvers", *solvers]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    rows = json.loads(out.splitlines()[-1])
    records = {(name, seed, solver): (answers, counters)
               for name, seed, solver, answers, counters, _ in rows}
    seconds = {(name, seed, solver): cpu for name, seed, solver, _, _, cpu in rows}
    return records, seconds


def timed_rounds(roots: Sequence[Path], rounds: int, workloads, seeds,
                 solvers) -> Tuple[List[Records], List[Seconds]]:
    """Each root's records from the first round, and its smallest CPU time
    per stream over ``rounds`` rounds. Each round runs every root in a
    fresh interpreter, in the given order in even rounds and reversed in
    odd ones."""
    records: List[Records] = [{} for _ in roots]
    fastest: List[Seconds] = [{} for _ in roots]
    for r in range(rounds):
        order = range(len(roots)) if r % 2 == 0 else reversed(range(len(roots)))
        for i in order:
            recs, seconds = records_of(roots[i], workloads, seeds, solvers)
            records[i] = records[i] or recs
            for key, cpu in seconds.items():
                fastest[i][key] = min(cpu, fastest[i].get(key, cpu))
    return records, fastest


def timing_lines(ours: Seconds, theirs: Seconds, rounds: int) -> List[str]:
    """One line per stream both sides ran, in this checkout's order: each
    side's smallest CPU time and their ratio, this checkout over the
    other."""
    return [
        "{} seed={} {} cpu min of {}: this {:.3f} s, other {:.3f} s, ratio {:.3f}".format(
            *key, rounds, ours[key], theirs[key], ours[key] / theirs[key])
        for key in ours if key in theirs
    ]


def summed_states(counters: List[str]) -> Tuple[int, int]:
    """Explored and generated states summed over per-query counter lines."""
    rows = [ast.literal_eval(line)[:2] for line in counters]
    return sum(row[0] for row in rows), sum(row[1] for row in rows)


def mismatches(ours: Records, theirs: Records) -> List[str]:
    """One line per (workload, seed, solver) and kind whose digests differ,
    or that only one side ran. A counter line ends with the summed explored
    and generated states, the other checkout's first."""
    lines = []
    for key in sorted(set(ours) | set(theirs)):
        label = "{} seed={} {}".format(*key)
        if key not in ours or key not in theirs:
            lines.append(f"{label}: only in {'this checkout' if key in ours else 'the other'}")
            continue
        for kind, mine, other in zip(("answers", "counters"), ours[key], theirs[key]):
            if mine == other:
                continue
            differ = [i for i, (a, b) in enumerate(zip(mine, other)) if a != b]
            if len(mine) != len(other):
                differ.append(min(len(mine), len(other)))
            shown = ", ".join(map(str, differ[:SHOWN]))
            line = f"{label}: {kind} differ on {len(differ)} queries, first {shown}"
            if kind == "counters":
                was, now = summed_states(other), summed_states(mine)
                line += (f"; explored {was[0]} -> {now[0]},"
                         f" generated {was[1]} -> {now[1]} (other -> this)")
            lines.append(line)
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=["sv-social", "mv-static", "mv-adaptive", "hard"])
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--solvers", nargs="+", choices=SOLVERS, default=list(SOLVERS))
    parser.add_argument("--against", type=Path, help="another checkout to compare with")
    parser.add_argument("--time", type=int, default=0, metavar="R",
                        help="time both checkouts' solver calls over R alternating rounds")
    parser.add_argument("--root", type=Path, default=ROOT, help=argparse.SUPPRESS)
    parser.add_argument("--json", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.time and args.against is None:
        parser.error("--time needs --against")
    streams = (args.workloads, args.seeds, args.solvers)
    if args.time:
        (records, theirs), (ours_cpu, theirs_cpu) = timed_rounds(
            [args.root.resolve(), args.against.resolve()], args.time, *streams)
    else:
        records, seconds = stream_records(args.root.resolve(), *streams)
    if args.json:
        print(json.dumps([[*key, *value, seconds[key]] for key, value in records.items()]))
        return 0
    print("\n".join(report(records)))
    if args.against is None:
        return 0
    if not args.time:
        theirs, _ = records_of(args.against.resolve(), *streams)
    lines = mismatches(records, theirs)
    print("\n".join(lines) if lines else f"no mismatch against {args.against}")
    if args.time:
        print("\n".join(timing_lines(ours_cpu, theirs_cpu, args.time)))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
