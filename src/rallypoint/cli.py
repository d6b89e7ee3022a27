"""Command-line harness: dataset loading, query execution, LP export, and a
small benchmark generator with CSV output.

Exit codes: 0 when a solution is found (or a file was exported), 2 when the
query has no answer, 1 on usage or data errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import statistics
import sys
from typing import Dict, List, Optional, Sequence, Tuple

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
from .oracle import OracleBudgetError, brute_force
from .pruning import PruneConfig
from .single_venue import ssgmerge_solve, ssgs_solve, ssp_solve

ALGORITHMS = ("ssgs", "ssgmerge", "ssp", "mags-srdo", "mags-apdo", "oracle")

SINGLE_VENUE_ONLY = ("ssgs", "ssgmerge")


class DatasetError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 1, since exit code 2 means
    that the query has no answer."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_point_file(path: str, kind: str) -> Dict[str, Location]:
    out: Dict[str, Location] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise DatasetError(
                    f"{path}:{lineno}: expected '{kind} id,x,y', got {line!r}"
                )
            ident = parts[0].strip()
            if not ident:
                raise DatasetError(f"{path}:{lineno}: empty id")
            if ident in out:
                raise DatasetError(f"{path}:{lineno}: duplicate id {ident!r}")
            try:
                x, y = float(parts[1]), float(parts[2])
            except ValueError:
                raise DatasetError(
                    f"{path}:{lineno}: coordinates must be numbers, got {line!r}"
                ) from None
            try:
                out[ident] = Location(x, y)
            except ValueError as exc:
                raise DatasetError(f"{path}:{lineno}: {exc}") from None
    return out


def load_dataset(
    members_path: str, edges_path: str, venues_path: str
) -> Tuple[SocialGraph, SpatialDataset]:
    """Read the three headerless CSV files and build a validated instance.

    Members/venues: ``id,x,y``. Edges: ``u,v`` (undirected; a row listed in
    both directions still yields a single edge).
    """
    members = _parse_point_file(members_path, "member")
    venues = _parse_point_file(venues_path, "venue")

    directed = set()
    edges = set()
    with open(edges_path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise DatasetError(f"{edges_path}:{lineno}: expected 'u,v', got {line!r}")
            u, v = parts[0].strip(), parts[1].strip()
            for endpoint in (u, v):
                if endpoint not in members:
                    raise DatasetError(
                        f"{edges_path}:{lineno}: vertex {endpoint!r} has no coordinate row"
                    )
            if u == v:
                raise DatasetError(f"{edges_path}:{lineno}: self-loop on {u!r}")
            directed.add((u, v))
            edges.add((u, v) if u < v else (v, u))
    if any((v, u) not in directed for (u, v) in directed):
        print(
            f"warning: {edges_path} lists some pairs in one direction only; "
            "treating the edge list as undirected",
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
    indexes = build_indexes(data)
    if algo == "ssgs":
        return ssgs_solve(query, graph, data, indexes, config=config, stats=stats)
    if algo == "ssgmerge":
        return ssgmerge_solve(
            query, graph, data, indexes, w=w, lam=lam, config=config, stats=stats
        )
    if algo == "ssp":
        return ssp_solve(query, graph, data, indexes, config=config, stats=stats)
    if algo == "mags-srdo":
        return mags_solve(
            query, graph, data, indexes, ordering="srdo", config=config, stats=stats
        )
    if algo == "mags-apdo":
        return mags_solve(
            query, graph, data, indexes, ordering="apdo", config=config, stats=stats
        )
    if algo == "oracle":
        result = brute_force(query, graph, data)
        stats.explored_states = result.enumerated
        if not result.found:
            return None
        return Solution(result.group, result.venue, result.total_distance, stats)
    raise ValueError(f"unknown algorithm {algo!r}")


def run_query(args: argparse.Namespace) -> Tuple[dict, int]:
    """Execute one query and return (report, exit_code)."""
    graph, data = load_dataset(args.members, args.edges, args.venues)
    venues = sorted(data.venue_locations)
    query = Query(
        p=args.p, k=args.k, t=args.t, venues=tuple(venues), familiarity_mode=_mode(args.mode)
    )

    if args.export_lp:
        model = (
            export_ssgq_model(query, graph, data)
            if query.is_single_venue
            else export_mrgq_model(query, graph, data)
        )
        with open(args.export_lp, "w", encoding="utf-8") as handle:
            handle.write(model.lp_text())
        report = {
            "schema": 1,
            "algorithm": None,
            "exported_lp": args.export_lp,
            "query": _query_dict(query),
            "seed": args.seed,
        }
        return report, 0

    if args.algo in SINGLE_VENUE_ONLY and not query.is_single_venue:
        raise DatasetError(f"algorithm {args.algo} requires exactly one venue")

    stats = SearchStats()
    solution = solve_with(
        args.algo, query, graph, data, _prune_config(args.prune), stats, args.w, args.lam
    )
    report = {
        "schema": 1,
        "algorithm": args.algo,
        "query": _query_dict(query),
        "solution": None
        if solution is None
        else {
            "group": [str(m) for m in solution.group],
            "venue": str(solution.venue),
            "total_distance": solution.total_distance,
        },
        **stats.as_dict(),
        "seed": args.seed,
    }
    if args.deterministic:
        report["elapsed_seconds"] = 0.0
    return report, (0 if solution is not None else 2)


def _query_dict(query: Query) -> dict:
    return {
        "p": query.p,
        "k": query.k,
        "t": query.t,
        "venues": [str(q) for q in query.venues],
        "mode": query.familiarity_mode.value,
    }


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
) -> List[dict]:
    """One row per (seed, algorithm); optionally cross-checked against the
    brute-force optimum, with a trailing median-ratio row per algorithm."""
    config = _prune_config(prune)
    rows: List[dict] = []
    ratios: Dict[str, List[float]] = {a: [] for a in algos}
    for seed in range(seeds):
        graph, data = random_instance(
            seed, n_members, n_venues, edge_prob=edge_prob,
            power_exponent=power_exponent, box=box,
        )
        t = radius_for_quantile(graph, data, t_quantile)
        venues = tuple(sorted(data.venue_locations))
        query = Query(p=p, k=k, t=t, venues=venues)
        oracle_res = brute_force(query, graph, data) if check_oracle else None
        for algo in algos:
            if algo in SINGLE_VENUE_ONLY and len(venues) > 1:
                query_a = Query(p=p, k=k, t=t, venues=venues[:1])
            else:
                query_a = query
            stats = SearchStats()
            solution = solve_with(algo, query_a, graph, data, config, stats, w, lam)
            row = {
                "seed": seed,
                "algorithm": algo,
                "prune": prune or "all",
                "n_members": n_members,
                "n_venues": n_venues,
                "p": p,
                "k": k,
                "t": f"{t:.9g}",
                "total_distance": "" if solution is None else f"{solution.total_distance:.12g}",
                "explored_states": stats.explored_states,
                "elapsed_seconds": 0.0 if deterministic else f"{stats.elapsed_seconds:.6f}",
            }
            if check_oracle:
                oracle_for_algo = oracle_res
                if algo in SINGLE_VENUE_ONLY and len(venues) > 1:
                    oracle_for_algo = brute_force(query_a, graph, data)
                if solution is None and not oracle_for_algo.found:
                    row["matches_oracle"] = True
                    row["ratio_to_oracle"] = 1.0
                elif solution is not None and oracle_for_algo.found:
                    ratio = (
                        solution.total_distance / oracle_for_algo.total_distance
                        if oracle_for_algo.total_distance > 0
                        else 1.0
                    )
                    row["matches_oracle"] = (
                        abs(solution.total_distance - oracle_for_algo.total_distance) <= 1e-9
                    )
                    row["ratio_to_oracle"] = f"{ratio:.12g}"
                    ratios[algo].append(ratio)
                else:
                    # Only the heuristic can miss an answer the oracle finds;
                    # either way the row reports the mismatch.
                    row["matches_oracle"] = False
                    row["ratio_to_oracle"] = ""
            rows.append(row)
    if check_oracle:
        for algo in algos:
            if ratios[algo]:
                rows.append(
                    {
                        "seed": "median",
                        "algorithm": algo,
                        "prune": prune or "all",
                        "n_members": n_members,
                        "n_venues": n_venues,
                        "p": p,
                        "k": k,
                        "t": "",
                        "total_distance": "",
                        "explored_states": "",
                        "elapsed_seconds": "",
                        "matches_oracle": "",
                        "ratio_to_oracle": f"{statistics.median(ratios[algo]):.12g}",
                    }
                )
    return rows


def write_csv(rows: List[dict], stream) -> None:
    if not rows:
        return
    fields = list(rows[0].keys())
    writer = csv.DictWriter(stream, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rallypoint",
        description="Pick a venue and a socially tight group minimizing total travel.",
    )
    parser.add_argument("--members", help="CSV of member id,x,y")
    parser.add_argument("--edges", help="CSV of undirected edges u,v")
    parser.add_argument("--venues", help="CSV of venue id,x,y")
    parser.add_argument("--algo", choices=ALGORITHMS, default="mags-apdo")
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
            for algo in algos:
                if algo not in ALGORITHMS:
                    parser.error(f"unknown algorithm {algo!r}")
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
