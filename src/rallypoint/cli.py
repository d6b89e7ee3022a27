"""Command-line harness: dataset loading, query execution, LP export, and a
small benchmark generator with CSV output.

``SOLVERS`` is the one table of algorithms: ``solve_with`` calls from it, and
the ``--algo`` choices, the ``--algos`` check and the one-venue rule read
their names from it. ``bench_rows`` runs the ``ssgs`` and ``ssgmerge``
solvers on each instance's first venue and every other algorithm on all its
venues; with the oracle check, the brute-force oracle solves each distinct
query of a seed once. ``--seed`` only labels the report: no solver reads it.

Exit codes: 0 when a solution is found (or a file was exported), 2 when the
query has no answer, 1 on usage or data errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import statistics
import sys
import time
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .generator import radius_for_quantile, random_instance
from .ilp import export_mrgq_model, export_ssgq_model
from .indexes import build_indexes
from .model import (
    FamiliarityMode,
    Location,
    Query,
    SearchStats,
    SocialGraph,
    Solution,
    SpatialDataset,
)
from .multi_venue import mags_solve
from .oracle import OracleBudgetError, OracleResult, brute_force
from .pruning import PruneConfig
from .single_venue import ssgmerge_solve, ssgs_solve, ssp_solve


class Solver(NamedTuple):
    """One algorithm: its solver (None for the oracle, the one algorithm
    that needs no indexes), its extra keywords (a keyword given as None takes
    ``solve_with``'s argument of that name) and whether it answers
    one-venue queries only."""

    solve: Optional[Callable[..., Optional[Solution]]]
    keywords: Dict[str, Optional[str]]
    one_venue: bool


SOLVERS: Dict[str, Solver] = {
    "ssgs": Solver(ssgs_solve, {}, True),
    "ssgmerge": Solver(ssgmerge_solve, {"w": None, "lam": None}, True),
    "ssp": Solver(ssp_solve, {}, False),
    "mags-srdo": Solver(mags_solve, {"ordering": "srdo"}, False),
    "mags-apdo": Solver(mags_solve, {"ordering": "apdo"}, False),
    "oracle": Solver(None, {}, False),
}

# The bench CSV's columns, in order; the last two only with the oracle check.
_BENCH_COLUMNS = (
    "seed", "algorithm", "prune", "mode", "n_members", "n_venues", "p", "k", "t",
    "total_distance", "explored_states", "elapsed_seconds", "matches_oracle",
    "ratio_to_oracle",
)


class DatasetError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 1, since exit code 2 means
    that the query has no answer."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _csv_rows(path: str, expected: str) -> Iterator[Tuple[str, str, List[str]]]:
    """Yield ``(where, line, fields)`` for each non-blank row of a headerless
    CSV file: ``where`` is ``path:lineno``, ``line`` the stripped row and
    ``fields`` its stripped fields. A row with another field count than the
    ``expected`` format names is a DatasetError."""
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            fields = [field.strip() for field in line.split(",")]
            if len(fields) != expected.count(",") + 1:
                raise DatasetError(f"{path}:{lineno}: expected {expected!r}, got {line!r}")
            yield f"{path}:{lineno}", line, fields


def _parse_point_file(path: str, kind: str) -> Dict[str, Location]:
    out: Dict[str, Location] = {}
    for where, line, (ident, x, y) in _csv_rows(path, f"{kind} id,x,y"):
        if not ident:
            raise DatasetError(f"{where}: empty id")
        if ident in out:
            raise DatasetError(f"{where}: duplicate id {ident!r}")
        try:
            x, y = float(x), float(y)
        except ValueError:
            raise DatasetError(f"{where}: coordinates must be numbers, got {line!r}") from None
        try:
            out[ident] = Location(x, y)
        except ValueError as exc:
            raise DatasetError(f"{where}: {exc}") from None
    return out


def load_dataset(
    members_path: str, edges_path: str, venues_path: str
) -> Tuple[SocialGraph, SpatialDataset]:
    """Read the three headerless CSV files and build a validated instance.

    Members/venues: ``id,x,y``. Edges: ``u,v`` (undirected; a row listed in
    both directions still yields a single edge). A file that lists some
    pairs in both directions and others in one only gets a warning on
    stderr: it may have lost rows.
    """
    members = _parse_point_file(members_path, "member")
    venues = _parse_point_file(venues_path, "venue")

    directed = set()
    edges = set()
    for where, _, (u, v) in _csv_rows(edges_path, "u,v"):
        for endpoint in (u, v):
            if endpoint not in members:
                raise DatasetError(f"{where}: vertex {endpoint!r} has no coordinate row")
        if u == v:
            raise DatasetError(f"{where}: self-loop on {u!r}")
        directed.add((u, v))
        edges.add((u, v) if u < v else (v, u))
    one_way = sum((v, u) not in directed for (u, v) in directed)
    if 0 < one_way < len(directed):
        print(
            f"warning: {edges_path} lists some pairs in both directions and others "
            "in one direction only; treating the edge list as undirected",
            file=sys.stderr,
        )
    graph = SocialGraph(members, edges)
    data = SpatialDataset(members, venues)
    data.validate_against(graph)
    return graph, data


def _prune_config(spec_text: Optional[str]) -> PruneConfig:
    if spec_text is None or spec_text == "all":
        return PruneConfig()
    if spec_text == "none":
        return PruneConfig.none()
    names = [s for s in spec_text.split(",") if s]
    if not names:
        raise ValueError(f"--prune {spec_text!r} names no rule; use 'none' to turn every rule off")
    return PruneConfig.from_enabled(names)


def _mode(name: Optional[str]) -> Optional[FamiliarityMode]:
    if name is None:
        return None
    return FamiliarityMode(name)


def _timed_oracle(
    query: Query, graph: SocialGraph, data: SpatialDataset
) -> Tuple[OracleResult, float]:
    """The oracle's result on ``query`` and the seconds it took."""
    start = time.perf_counter()
    result = brute_force(query, graph, data)
    return result, time.perf_counter() - start


def _oracle_solution(
    result: OracleResult, seconds: float, stats: SearchStats
) -> Optional[Solution]:
    stats.explored_states = result.enumerated
    stats.elapsed_seconds = seconds
    if not result.found:
        return None
    return Solution(result.group, result.venue, result.total_distance, stats)


def solve_with(
    algo: str,
    query: Query,
    graph: SocialGraph,
    data: SpatialDataset,
    config: PruneConfig,
    stats: SearchStats,
    w: int = 20000,
    lam: int = 200,
) -> Optional[Solution]:
    """Run ``algo`` from ``SOLVERS`` on ``query``, building the indexes
    afresh for every solver but the oracle."""
    if algo not in SOLVERS:
        raise ValueError(f"unknown algorithm {algo!r}")
    solver = SOLVERS[algo]
    if solver.solve is None:
        return _oracle_solution(*_timed_oracle(query, graph, data), stats)
    budgets = {"w": w, "lam": lam}
    keywords = {
        key: budgets[key] if value is None else value for key, value in solver.keywords.items()
    }
    return solver.solve(
        query, graph, data, build_indexes(data), config=config, stats=stats, **keywords
    )


def run_query(args: argparse.Namespace) -> Tuple[dict, int]:
    """Execute one query and return (report, exit_code)."""
    graph, data = load_dataset(args.members, args.edges, args.venues)
    venues = sorted(data.venue_locations)
    query = Query(
        p=args.p, k=args.k, t=args.t, venues=tuple(venues), familiarity_mode=_mode(args.mode)
    )
    report = {
        "schema": 1,
        "query": {
            "p": query.p,
            "k": query.k,
            "t": query.t,
            "venues": [str(q) for q in query.venues],
            "mode": query.familiarity_mode.value,
        },
        "seed": args.seed,
    }

    if args.export_lp:
        model = (
            export_ssgq_model(query, graph, data)
            if query.is_single_venue
            else export_mrgq_model(query, graph, data)
        )
        with open(args.export_lp, "w", encoding="utf-8") as handle:
            handle.write(model.lp_text())
        return {**report, "algorithm": None, "exported_lp": args.export_lp}, 0

    if SOLVERS[args.algo].one_venue and not query.is_single_venue:
        raise DatasetError(f"algorithm {args.algo} requires exactly one venue")

    stats = SearchStats()
    solution = solve_with(
        args.algo, query, graph, data, _prune_config(args.prune), stats, args.w, args.lam
    )
    report["algorithm"] = args.algo
    report["solution"] = None if solution is None else {
        "group": [str(m) for m in solution.group],
        "venue": str(solution.venue),
        "total_distance": solution.total_distance,
    }
    report.update(stats.as_dict())
    if args.deterministic:
        report["elapsed_seconds"] = 0.0
    return report, (0 if solution is not None else 2)


def bench_rows(
    *,
    algos: Sequence[str],
    seeds: int,
    n_members: int,
    n_venues: int,
    p: int,
    k: int,
    t_quantile: float,
    edge_prob: Optional[float],
    power_exponent: Optional[float],
    box: float,
    prune: Optional[str],
    check_oracle: bool,
    deterministic: bool,
    w: int = 20000,
    lam: int = 200,
    mode: Optional[FamiliarityMode] = None,
) -> List[dict]:
    """One row per (seed, algorithm); optionally cross-checked against the
    brute-force optimum, with a trailing median-ratio row per algorithm.
    One-venue algorithms get each instance's first venue, the others all its
    venues; the oracle solves each distinct query of a seed once. Every
    query, the oracle's included, runs in ``mode``, or in the ``Query``
    default for its venue count when ``mode`` is None; the ``mode`` column
    names the mode each row ran in."""
    config = _prune_config(prune)
    rows: List[dict] = []
    ratios: Dict[str, List[float]] = {a: [] for a in algos}
    mode_of: Dict[str, str] = {}

    def row(seed, algo: str, *values) -> dict:
        # Without values for the oracle columns, zip leaves them out.
        head = (seed, algo, prune or "all", mode_of[algo], n_members, n_venues, p, k)
        return dict(zip(_BENCH_COLUMNS, head + values))

    for seed in range(seeds):
        graph, data = random_instance(
            seed, n_members, n_venues, edge_prob=edge_prob,
            power_exponent=power_exponent, box=box,
        )
        t = radius_for_quantile(graph, data, t_quantile)
        venues = tuple(sorted(data.venue_locations))
        venues_of = {a: venues[:1] if SOLVERS[a].one_venue else venues for a in algos}
        # Each distinct query once, with its optimum when checked. The
        # all-venue query goes first: an oracle over budget fails there first.
        asked: Dict[Tuple[str, ...], tuple] = {}
        for its_venues in sorted(set(venues_of.values()), key=len, reverse=True):
            query = Query(p=p, k=k, t=t, venues=its_venues, familiarity_mode=mode)
            checked = _timed_oracle(query, graph, data) if check_oracle else (None, 0.0)
            asked[its_venues] = (query, *checked)
        for algo in algos:
            query, oracle, oracle_seconds = asked[venues_of[algo]]
            mode_of[algo] = query.familiarity_mode.value
            stats = SearchStats()
            if oracle is not None and SOLVERS[algo].solve is None:
                # The checked query's optimum, and the time it took.
                solution = _oracle_solution(oracle, oracle_seconds, stats)
            else:
                solution = solve_with(algo, query, graph, data, config, stats, w, lam)
            values: tuple = (
                f"{t:.9g}",
                "" if solution is None else f"{solution.total_distance:.12g}",
                stats.explored_states,
                0.0 if deterministic else f"{stats.elapsed_seconds:.6f}",
            )
            if check_oracle and solution is not None and oracle.found:
                best = oracle.total_distance
                ratio = solution.total_distance / best if best > 0 else 1.0
                ratios[algo].append(ratio)
                values += (abs(solution.total_distance - best) <= 1e-9, f"{ratio:.12g}")
            elif check_oracle:
                # Both found nothing, or one found an answer the other did
                # not: only the heuristic can miss one, and the row says so.
                values += (True, 1.0) if solution is None and not oracle.found else (False, "")
            rows.append(row(seed, algo, *values))
    for algo in algos:
        if ratios[algo]:
            median = f"{statistics.median(ratios[algo]):.12g}"
            rows.append(row("median", algo, "", "", "", "", "", median))
    return rows


def write_csv(rows: List[dict], stream) -> None:
    if not rows:
        return
    fields = list(rows[0].keys())
    writer = csv.DictWriter(stream, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rallypoint",
        description="Pick a venue and a socially tight group minimizing total travel.",
    )
    parser.add_argument("--members", help="CSV of member id,x,y")
    parser.add_argument("--edges", help="CSV of undirected edges u,v")
    parser.add_argument("--venues", help="CSV of venue id,x,y")
    parser.add_argument("--algo", choices=list(SOLVERS), default="mags-apdo")
    parser.add_argument("--p", type=int, help="group size")
    parser.add_argument("--k", type=int, help="stranger budget per attendee")
    parser.add_argument("--t", type=float, help="spatial radius")
    parser.add_argument("--mode", choices=[m.value for m in FamiliarityMode], default=None)
    parser.add_argument(
        "--prune",
        default=None,
        help="'all', 'none', or comma list of: "
        + ", ".join(f.replace("_", "-") for f in PruneConfig.__dataclass_fields__),
    )
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--export-lp", metavar="PATH", default=None)
    parser.add_argument("--bench", action="store_true")
    parser.add_argument("--check-oracle", action="store_true")
    parser.add_argument("--deterministic", action="store_true")
    parser.add_argument("--w", type=int, default=20000, help="merge-heuristic state budget")
    parser.add_argument("--lam", type=int, default=200, help="merge-heuristic queue capacity")
    # benchmark generator parameters
    parser.add_argument("--algos", default="mags-apdo", help="comma list for --bench")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--gen-members", type=int, default=12)
    parser.add_argument("--gen-venues", type=int, default=3)
    parser.add_argument("--edge-prob", type=float, default=0.4)
    parser.add_argument("--power-exponent", type=float, default=None)
    parser.add_argument("--box", type=float, default=100.0)
    parser.add_argument("--t-quantile", type=float, default=0.5)
    parser.add_argument("--out", default=None, help="bench CSV path (default stdout)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.bench:
            algos = [a for a in args.algos.split(",") if a]
            if not algos:
                parser.error(f"--algos {args.algos!r} names no algorithm")
            for i, algo in enumerate(algos):
                if algo not in SOLVERS:
                    parser.error(f"unknown algorithm {algo!r}")
                if algo in algos[:i]:
                    parser.error(f"--algos lists {algo!r} more than once")
            if args.p is None or args.k is None:
                parser.error("--bench requires --p and --k")
            if args.seeds < 1 or args.gen_members < 1 or args.gen_venues < 1:
                parser.error("generator parameters must be positive")
            if not (0.0 <= args.t_quantile <= 1.0):
                parser.error("--t-quantile must lie in [0, 1]")
            rows = bench_rows(
                algos=algos,
                seeds=args.seeds,
                n_members=args.gen_members,
                n_venues=args.gen_venues,
                p=args.p,
                k=args.k,
                t_quantile=args.t_quantile,
                edge_prob=args.edge_prob,
                power_exponent=args.power_exponent,
                box=args.box,
                prune=args.prune,
                check_oracle=args.check_oracle,
                deterministic=args.deterministic,
                w=args.w,
                lam=args.lam,
                mode=_mode(args.mode),
            )
            if args.out:
                with open(args.out, "w", encoding="utf-8", newline="") as handle:
                    write_csv(rows, handle)
            else:
                write_csv(rows, sys.stdout)
            return 0
        for required in ("members", "edges", "venues", "p", "k", "t"):
            if getattr(args, required) is None:
                parser.error(f"--{required.replace('_', '-')} is required")
        report, code = run_query(args)
        print(json.dumps(report, sort_keys=True))
        return code
    except (DatasetError, ValueError, OSError, OracleBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
