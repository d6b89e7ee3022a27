#!/usr/bin/env python3
"""Digests of every exact solver's answers and search counters on the
benchmark's query streams, to check that a change leaves both untouched.

    python3 scripts/compare_streams.py --workloads mv-static --seeds 1 3 5
    python3 scripts/compare_streams.py --seeds 1 --against ../parent-checkout
    python3 scripts/compare_streams.py --workloads mv-static --seeds 1 \
        --solvers srdo --against ../parent-checkout --time 5

For each workload, seed and solver it prints one sha256 over the answers,
``(group, venue, repr(total))`` per query, one over the search counters
(explored and generated states, and each prune rule's count), and the
explored and generated states summed over the stream. With ``--against
DIR`` it also runs the checkout at ``DIR`` on the same queries, adds that
checkout's sums to each line and lists each mismatch with the first queries
that differ. A counter mismatch also gives each side's explored and
generated states, summed over the stream. It exits with 3 when an answer
differs or a stream ran on one side only, and with 0 when only counters
differ, since a change that re-records pins moves counters on purpose.

Everything runs in one process. The queries come from this checkout's
``bench/``, which the script reads and never writes to. Each checkout's
``src/rallypoint`` is imported under a module name of its own, so the two
packages share no module, and each builds its own graphs and indexes.

Besides the benchmark's workloads, two workloads hold two queries per seed
``s`` over every venue of one generated instance, with the radius at a
quantile of the member-venue distances (``GENERATED``):

- ``hard``: per-vertex queries over ``random_instance(s, 300, 8,
  edge_prob=0.3)`` at the 0.3 quantile, with ``k = 2``, ``p = 6`` and
  ``p = 7``: the deeper searches that the benchmark's streams do not reach.
- ``many-venue``: average-mode queries over ``random_instance(s, 400, 256,
  edge_prob=0.3)`` at the 0.03 quantile, with ``(p, k)`` of ``(3, 1)`` and
  ``(4, 2)``: many venues, few of which can hold the optimum.

``--time R`` (with ``--against``) also times the solver calls, in ``R``
rounds per stream. A round runs each query of the stream on both checkouts
in turn, and the side that goes first alternates from query to query, so
drift in machine speed falls on both sides alike, and so does the cost of
going first on a query: on identical code, the side that always went first
read about 6% slow on sv-social's short queries. A round's ratio is this
checkout's CPU time over the other's, each ``process_time`` summed over the
round's solver calls. All rounds run twice, each time on freshly imported
packages: once with this checkout's imported first and once with the
other's, since the side imported first has read about 1% slow on identical
code. For each workload, seed and solver it prints the median ratio of each
import order and their geometric mean, then each side's median CPU seconds
over all rounds and its microseconds per explored state: those seconds over
the explored states summed over the stream. The digests come from the first
round.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import importlib
import importlib.util
import itertools
import math
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SOLVERS = ("ssgs", "ssp", "srdo", "apdo")
# Query indexes listed for each mismatch.
SHOWN = 5
# The exit status of a comparison in which an answer differs or a stream
# ran on one side only; a crash exits with 1 and a usage error with 2.
ANSWER_MISMATCH = 3
# Workloads over one generated instance per seed, with every venue in each
# query: (members, venues, edge probability, radius quantile, familiarity
# mode, (p, k) of each query).
GENERATED = {
    "hard": (300, 8, 0.3, 0.3, "PER_VERTEX", ((6, 2), (7, 2))),
    "many-venue": (400, 256, 0.3, 0.03, "AVERAGE", ((3, 1), (4, 2))),
}

Key = Tuple[str, int, str]
# (workload, seed, solver) -> (per-query answers, per-query counters)
Records = Dict[Key, Tuple[List[str], List[str]]]
# (workload, seed, solver) -> CPU seconds of the stream's solver calls, per round
Seconds = Dict[Key, List[float]]


def load_bench():
    """The ``run`` module of this checkout's benchmark."""
    sys.path.insert(0, str(ROOT / "bench"))
    import run

    return run


def load_packages(roots: Sequence[Path]) -> list:
    """Import each root's ``src/rallypoint``, in the given order, each under
    a module name that no module of the process has."""
    packages = []
    for root in roots:
        source = root / "src" / "rallypoint"
        name = next(f"_rallypoint_{i}" for i in itertools.count()
                    if f"_rallypoint_{i}" not in sys.modules)
        spec = importlib.util.spec_from_file_location(
            name, source / "__init__.py", submodule_search_locations=[str(source)]
        )
        package = importlib.util.module_from_spec(spec)
        sys.modules[name] = package
        spec.loader.exec_module(package)
        packages.append(package)
    return packages


def solve(rp, solver: str, query, built, stats):
    graph, data, indexes = built
    if solver == "ssgs":
        return rp.ssgs_solve(query, graph, data, indexes, stats=stats)
    if solver == "ssp":
        return rp.ssp_solve(query, graph, data, indexes, stats=stats)
    return rp.mags_solve(query, graph, data, indexes, ordering=solver, stats=stats)


def stream(run, rp, name: str, seed: int) -> List[tuple]:
    """The queries of workload ``name`` at ``seed``, each with the graph,
    dataset and indexes it runs on, built by package ``rp``."""
    if name in GENERATED:
        members, venue_count, edge_prob, quantile, mode, pairs = GENERATED[name]
        generator = importlib.import_module(f"{rp.__name__}.generator")
        graph, data = generator.random_instance(seed, members, venue_count, edge_prob=edge_prob)
        t = generator.radius_for_quantile(graph, data, quantile)
        built = (graph, data, rp.build_indexes(data))
        venues = tuple(sorted(data.venue_locations))
        mode = rp.FamiliarityMode[mode]
        return [(rp.Query(p, k, t, venues, mode), built) for p, k in pairs]
    cities, raw_queries = run.make_inputs(run.WORKLOADS[name], seed)
    built = [run.build_city(rp, city) for city in cities]
    return [(run.make_query(rp, rq), built[rq.city]) for rq in raw_queries]


def run_streams(run, packages: Sequence, workloads: Sequence[str], seeds: Sequence[int],
                solvers: Sequence[str], rounds: int = 1) -> Tuple[List[Records], List[Seconds]]:
    """Each package's records from the first round, and its CPU seconds per
    round, for every workload, seed and solver. Each round walks the stream
    once and runs each query on every package in turn, in the given order or
    reversed: the order flips from query to query and from round to round.
    ``ssgs`` runs only on streams of one-venue queries."""
    records: List[Records] = [{} for _ in packages]
    seconds: List[Seconds] = [{} for _ in packages]
    order = (range(len(packages)), range(len(packages) - 1, -1, -1))
    for name in workloads:
        for seed in seeds:
            streams = [stream(run, rp, name, seed) for rp in packages]
            for solver in solvers:
                if solver == "ssgs" and any(len(q.venues) != 1 for q, _ in streams[0]):
                    continue
                key = (name, seed, solver)
                for r in range(rounds):
                    cpu = [0.0] * len(packages)
                    for j in range(len(streams[0])):
                        for i in order[(r + j) % 2]:
                            rp = packages[i]
                            query, built = streams[i][j]
                            stats = rp.SearchStats()
                            start = time.process_time()
                            sol = solve(rp, solver, query, built, stats)
                            cpu[i] += time.process_time() - start
                            if r == 0:
                                answers, counters = records[i].setdefault(key, ([], []))
                                answers.append(answer_line(sol))
                                counters.append(counter_line(stats))
                    for i, spent in enumerate(cpu):
                        seconds[i].setdefault(key, []).append(spent)
    return records, seconds


def answer_line(sol) -> str:
    answer = None
    if sol is not None:
        answer = (tuple(sol.group), sol.venue, repr(sol.total_distance))
    return repr(answer)


def counter_line(stats) -> str:
    return repr((stats.explored_states, stats.generated_states, sorted(stats.pruned.items())))


def digest(lines: List[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def report(ours: Records, theirs: Optional[Records] = None) -> List[str]:
    """One line per (workload, seed, solver) of this checkout: its digests
    and its explored and generated states summed over the stream, then the
    other checkout's sums, when it ran the same stream."""
    lines = []
    for key, (answers, counters) in ours.items():
        line = "{} seed={} {} queries={} answers={} counters={} explored={} generated={}".format(
            *key, len(answers), digest(answers), digest(counters), *summed_states(counters)
        )
        if theirs is not None and key in theirs:
            line += " other explored={} generated={}".format(*summed_states(theirs[key][1]))
        lines.append(line)
    return lines


def median_ratio(ours: List[float], theirs: List[float]) -> float:
    """The median over rounds of this checkout's CPU time over the other's."""
    return statistics.median(a / b for a, b in zip(ours, theirs))


def timing_lines(this_first: Sequence[Seconds], other_first: Sequence[Seconds],
                 rounds: int, records: Sequence[Records]) -> List[str]:
    """One line per stream: the median ratio, this checkout over the other,
    with each import order, and their geometric mean; then each side's
    median CPU seconds over the rounds of both orders, and those seconds in
    microseconds per explored state, summed over the stream (``-`` where
    the stream explores none). Each sequence holds this checkout's seconds
    or records, then the other's."""
    lines = []
    for key in this_first[0]:
        a = median_ratio(this_first[0][key], this_first[1][key])
        b = median_ratio(other_first[0][key], other_first[1][key])
        line = (
            "{} seed={} {} cpu this/other, median of {} rounds: {:.3f} this imported first, "
            "{:.3f} other imported first, geometric mean {:.3f}".format(
                *key, rounds, a, b, math.sqrt(a * b))
        )
        for side, i in (("this", 0), ("other", 1)):
            cpu = statistics.median(this_first[i][key] + other_first[i][key])
            explored = summed_states(records[i][key][1])[0]
            per_state = f"{cpu * 1e6 / explored:.2f}" if explored else "-"
            line += f"; {side} cpu_s {cpu:.4f} us_per_explored {per_state}"
        lines.append(line)
    return lines


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


def answers_differ(ours: Records, theirs: Records) -> bool:
    """Whether a stream's answers differ, or a stream ran on one side only."""
    return any(
        key not in ours or key not in theirs or ours[key][0] != theirs[key][0]
        for key in set(ours) | set(theirs)
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=["sv-social", "mv-static", "mv-adaptive", *GENERATED])
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--solvers", nargs="+", choices=SOLVERS, default=list(SOLVERS))
    parser.add_argument("--against", type=Path, help="another checkout to compare with")
    parser.add_argument("--time", type=int, default=0, metavar="R",
                        help="time both checkouts' solver calls over R alternating rounds")
    args = parser.parse_args(argv)
    if args.time and args.against is None:
        parser.error("--time needs --against")
    run = load_bench()
    roots = [ROOT] if args.against is None else [ROOT, args.against.resolve()]
    streams = (args.workloads, args.seeds, args.solvers, max(args.time, 1))
    records, seconds = run_streams(run, load_packages(roots), *streams)
    print("\n".join(report(*records)))
    if args.against is None:
        return 0
    lines = mismatches(*records)
    print("\n".join(lines) if lines else f"no mismatch against {args.against}")
    if args.time:
        # The same rounds on fresh packages, the other checkout's imported first.
        _, flipped = run_streams(run, load_packages(roots[::-1])[::-1], *streams)
        print("\n".join(timing_lines(seconds, flipped, args.time, records)))
    return ANSWER_MISMATCH if answers_differ(*records) else 0


if __name__ == "__main__":
    sys.exit(main())
