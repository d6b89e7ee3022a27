import csv
import json
import subprocess
import sys

import pytest

from rallypoint import PruneConfig
from rallypoint.cli import DatasetError, bench_rows, build_parser, load_dataset


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def tiny_dataset(tmp_path):
    members = write(tmp_path / "members.csv", "a,5,0\nb,6,0\nc,10,0\nd,12,0\ne,19,0\nf,21,0\n")
    edges = write(tmp_path / "edges.csv", "a,c\na,d\nc,d\nb,e\nc,e\ne,f\n")
    venues = write(tmp_path / "venues.csv", "q,0,0\n")
    return members, edges, venues


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "rallypoint", *args],
        capture_output=True,
        text=True,
    )
    return proc


def test_load_dataset_counts(tiny_dataset):
    members, edges, venues = tiny_dataset
    graph, data = load_dataset(members, edges, venues)
    assert graph.vertex_count == 6
    assert graph.edge_count() == 6
    assert set(data.venue_locations) == {"q"}


def test_load_dataset_bidirectional_rows_single_edge(tmp_path):
    members = write(tmp_path / "m.csv", "a,0,0\nb,1,0\n")
    edges = write(tmp_path / "e.csv", "a,b\nb,a\n")
    venues = write(tmp_path / "v.csv", "q,0,0\n")
    graph, _ = load_dataset(members, edges, venues)
    assert graph.edge_count() == 1


def test_load_dataset_unknown_vertex_named(tmp_path):
    members = write(tmp_path / "m.csv", "a,0,0\n")
    edges = write(tmp_path / "e.csv", "a,zebra\n")
    venues = write(tmp_path / "v.csv", "q,0,0\n")
    with pytest.raises(DatasetError, match="zebra"):
        load_dataset(members, edges, venues)


def test_load_dataset_malformed_row_has_line_number(tmp_path):
    members = write(tmp_path / "m.csv", "a,0,0\nb,1\n")
    edges = write(tmp_path / "e.csv", "")
    venues = write(tmp_path / "v.csv", "q,0,0\n")
    with pytest.raises(DatasetError, match=":2"):
        load_dataset(members, edges, venues)


@pytest.mark.parametrize("coord", ["nan", "inf", "-inf"])
def test_load_dataset_non_finite_coordinate_has_line_number(tmp_path, coord):
    members = write(tmp_path / "m.csv", f"a,0,0\nb,{coord},1\n")
    edges = write(tmp_path / "e.csv", "")
    venues = write(tmp_path / "v.csv", "q,0,0\n")
    with pytest.raises(DatasetError, match=r"m\.csv:2: location coordinates must be finite"):
        load_dataset(members, edges, venues)
    proc = run_cli(["--members", members, "--edges", edges, "--venues", venues,
                    "--p", "1", "--k", "0", "--t", "5"])
    assert proc.returncode == 1
    assert f"{members}:2:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_run_query_json_and_exit_code(tiny_dataset):
    members, edges, venues = tiny_dataset
    proc = run_cli(
        [
            "--members", members, "--edges", edges, "--venues", venues,
            "--algo", "ssgs", "--p", "3", "--k", "0", "--t", "100",
            "--deterministic",
        ]
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["schema"] == 1
    assert report["solution"]["group"] == ["a", "c", "d"]
    assert report["solution"]["total_distance"] == 27.0
    assert report["elapsed_seconds"] == 0.0


def test_run_query_no_answer_exit_2(tiny_dataset):
    members, edges, venues = tiny_dataset
    proc = run_cli(
        [
            "--members", members, "--edges", edges, "--venues", venues,
            "--algo", "ssgs", "--p", "4", "--k", "0", "--t", "100",
        ]
    )
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["solution"] is None


def test_run_query_bad_k_exit_1(tiny_dataset):
    members, edges, venues = tiny_dataset
    proc = run_cli(
        [
            "--members", members, "--edges", edges, "--venues", venues,
            "--algo", "ssgs", "--p", "3", "--k", "5", "--t", "100",
        ]
    )
    assert proc.returncode == 1
    assert "error" in proc.stderr


def test_unknown_algo_is_a_usage_error_exit_1(tiny_dataset):
    members, edges, venues = tiny_dataset
    proc = run_cli(
        [
            "--members", members, "--edges", edges, "--venues", venues,
            "--algo", "bogus", "--p", "3", "--k", "0", "--t", "100",
        ]
    )
    assert proc.returncode == 1
    assert "bogus" in proc.stderr and proc.stdout == ""


def test_prune_help_names_exactly_the_config_fields():
    (action,) = [a for a in build_parser()._actions if "--prune" in a.option_strings]
    _, _, listed = action.help.partition("comma list of: ")
    fields = [f.replace("_", "-") for f in PruneConfig.__dataclass_fields__]
    assert listed.split(", ") == fields


@pytest.mark.parametrize("spec", ["", ","])
def test_empty_prune_list_is_a_usage_error_exit_1(tiny_dataset, spec):
    members, edges, venues = tiny_dataset
    proc = run_cli(
        [
            "--members", members, "--edges", edges, "--venues", venues,
            "--algo", "ssgs", "--p", "3", "--k", "0", "--t", "100", "--prune", spec,
        ]
    )
    assert proc.returncode == 1
    assert "'none'" in proc.stderr and proc.stdout == ""


def test_removed_prune_rule_is_a_usage_error_exit_1(tiny_dataset):
    members, edges, venues = tiny_dataset
    proc = run_cli(
        [
            "--members", members, "--edges", edges, "--venues", venues,
            "--algo", "ssgs", "--p", "3", "--k", "0", "--t", "100",
            "--prune", "distance,outer-triangle",
        ]
    )
    assert proc.returncode == 1
    assert "unknown prune rule" in proc.stderr and proc.stdout == ""


def test_removed_pool_familiarity_rule_is_a_usage_error_exit_1(tiny_dataset):
    members, edges, venues = tiny_dataset
    proc = run_cli(
        [
            "--members", members, "--edges", edges, "--venues", venues,
            "--algo", "mags-srdo", "--p", "3", "--k", "0", "--t", "100",
            "--prune", "pool-familiarity",
        ]
    )
    assert proc.returncode == 1
    assert "unknown prune rule" in proc.stderr and proc.stdout == ""


def test_missing_required_flag_is_a_usage_error_exit_1(tiny_dataset):
    members, edges, venues = tiny_dataset
    proc = run_cli(
        [
            "--members", members, "--edges", edges, "--venues", venues,
            "--algo", "ssgs", "--p", "3", "--k", "0",
        ]
    )
    assert proc.returncode == 1
    assert "--t is required" in proc.stderr and proc.stdout == ""
    bench = run_cli(["--bench", "--algos", "ssgs", "--p", "3"])
    assert bench.returncode == 1
    assert "--bench requires --p and --k" in bench.stderr


def test_oracle_over_budget_is_a_clean_error(tmp_path):
    # C(60, 10) combinations far exceed the oracle's enumeration budget.
    members = write(tmp_path / "members.csv", "".join(f"m{i},{i},0\n" for i in range(60)))
    edges = write(tmp_path / "edges.csv", "m0,m1\n")
    venues = write(tmp_path / "venues.csv", "q,0,0\n")
    proc = run_cli(
        [
            "--members", members, "--edges", edges, "--venues", venues,
            "--algo", "oracle", "--p", "10", "--k", "9", "--t", "1000",
        ]
    )
    assert proc.returncode == 1
    last = proc.stderr.strip().splitlines()[-1]
    assert last.startswith("error: ") and "budget" in last
    assert "Traceback" not in proc.stderr


def test_run_query_deterministic_output(tiny_dataset):
    members, edges, venues = tiny_dataset
    args = [
        "--members", members, "--edges", edges, "--venues", venues,
        "--algo", "oracle", "--p", "3", "--k", "0", "--t", "100",
        "--seed", "7", "--deterministic",
    ]
    a, b = run_cli(args), run_cli(args)
    assert a.stdout == b.stdout


def test_oracle_matches_solver_via_cli(tiny_dataset):
    members, edges, venues = tiny_dataset
    base = [
        "--members", members, "--edges", edges, "--venues", venues,
        "--p", "3", "--k", "0", "--t", "100", "--deterministic",
    ]
    oracle = json.loads(run_cli(base + ["--algo", "oracle"]).stdout)
    solver = json.loads(run_cli(base + ["--algo", "ssgs"]).stdout)
    assert oracle["solution"]["total_distance"] == solver["solution"]["total_distance"]


def test_export_lp_writes_file_without_solving(tiny_dataset, tmp_path):
    members, edges, venues = tiny_dataset
    out = tmp_path / "model.lp"
    proc = run_cli(
        [
            "--members", members, "--edges", edges, "--venues", venues,
            "--algo", "ssgs", "--p", "3", "--k", "0", "--t", "100",
            "--export-lp", str(out),
        ]
    )
    assert proc.returncode == 0
    text = out.read_text()
    assert text.startswith("Minimize") and text.rstrip().endswith("End")
    report = json.loads(proc.stdout)
    assert report["exported_lp"] == str(out)
    assert "solution" not in report


def test_multi_venue_algo_matches_oracle_via_cli(tmp_path):
    members = write(tmp_path / "m.csv", "a,1,0\nb,2,0\nc,3,0\n")
    edges = write(tmp_path / "e.csv", "a,b\nb,c\na,c\n")
    venues = write(tmp_path / "v.csv", "q1,0,0\nq2,9,9\n")
    base = [
        "--members", members, "--edges", edges, "--venues", venues,
        "--p", "3", "--k", "0", "--t", "50", "--deterministic",
    ]
    proc = run_cli(base + ["--algo", "mags-apdo"])
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["solution"]["venue"] == "q1"
    oracle = json.loads(run_cli(base + ["--algo", "oracle"]).stdout)
    assert report["solution"]["total_distance"] == oracle["solution"]["total_distance"]


def test_ssgs_rejects_multi_venue_files(tmp_path):
    members = write(tmp_path / "m.csv", "a,1,0\n")
    edges = write(tmp_path / "e.csv", "")
    venues = write(tmp_path / "v.csv", "q1,0,0\nq2,9,9\n")
    proc = run_cli(
        [
            "--members", members, "--edges", edges, "--venues", venues,
            "--algo", "ssgs", "--p", "1", "--k", "0", "--t", "50",
        ]
    )
    assert proc.returncode == 1


def test_bench_row_count_and_determinism():
    kwargs = dict(
        algos=["ssgs", "oracle"],
        seeds=5,
        n_members=8,
        n_venues=2,
        p=3,
        k=1,
        t_quantile=0.6,
        edge_prob=0.5,
        power_exponent=None,
        box=50.0,
        prune=None,
        check_oracle=False,
        deterministic=True,
    )
    rows = bench_rows(**kwargs)
    assert len(rows) == 10
    assert rows == bench_rows(**kwargs)


def test_bench_check_oracle_flags_all_true():
    rows = bench_rows(
        algos=["mags-apdo"],
        seeds=6,
        n_members=9,
        n_venues=2,
        p=3,
        k=1,
        t_quantile=0.7,
        edge_prob=0.5,
        power_exponent=None,
        box=50.0,
        prune=None,
        check_oracle=True,
        deterministic=True,
    )
    data_rows = [r for r in rows if r["seed"] != "median"]
    assert all(r["matches_oracle"] is True for r in data_rows)
    medians = [r for r in rows if r["seed"] == "median"]
    assert len(medians) == 1
    assert float(medians[0]["ratio_to_oracle"]) == pytest.approx(1.0, abs=1e-9)


def test_bench_cli_csv(tmp_path):
    out = tmp_path / "bench.csv"
    proc = run_cli(
        [
            "--bench", "--algos", "ssgs", "--seeds", "3",
            "--gen-members", "8", "--gen-venues", "1",
            "--p", "3", "--k", "1", "--deterministic", "--out", str(out),
        ]
    )
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 3
    assert {r["algorithm"] for r in rows} == {"ssgs"}


@pytest.mark.parametrize(
    "flag, value, name",
    [
        ("--power-exponent", "1", "power_exponent"),
        ("--power-exponent", "0.5", "power_exponent"),
        ("--edge-prob", "1.5", "edge_prob"),
        ("--edge-prob", "-1", "edge_prob"),
    ],
)
def test_bench_bad_generator_parameter_is_a_clean_error(flag, value, name):
    proc = run_cli(["--bench", "--seeds", "1", "--p", "3", "--k", "1", flag, value])
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: {name} ")
    assert "Traceback" not in proc.stderr
