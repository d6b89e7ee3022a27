"""Smoke test of ``scripts/compare_streams.py``: one benchmark stream,
compared with the checkout it runs in, matches itself."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "compare_streams.py"


def _module():
    spec = importlib.util.spec_from_file_location("compare_streams", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_stream_matches_its_own_checkout():
    args = ["--workloads", "mv-static", "--seeds", "1", "--solvers", "srdo", "--against", ROOT]
    out = subprocess.run(
        [sys.executable, str(SCRIPT), *map(str, args)],
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0].startswith("mv-static seed=1 srdo queries=320 answers=")
    assert lines[-1] == f"no mismatch against {ROOT}"


def test_hard_stream_holds_two_queries_per_seed():
    args = ["--workloads", "hard", "--seeds", "1", "--solvers", "ssp"]
    out = subprocess.run(
        [sys.executable, str(SCRIPT), *args], capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 1 and lines[0].startswith("hard seed=1 ssp queries=2 answers="), lines


def test_mismatches_name_the_stream_and_the_first_queries():
    compare = _module()
    counters = [repr((2, 3, [])), repr((4, 6, [("distance", 1)])), repr((0, 0, []))]
    ours = {("w", 1, "srdo"): (["a", "b", "c"], counters)}
    theirs = {
        ("w", 1, "srdo"): (["a", "x", "c"], counters),
        ("w", 1, "apdo"): (["a"], ["1"]),
    }
    assert compare.mismatches(ours, ours) == []
    assert compare.mismatches(ours, theirs) == [
        "w seed=1 apdo: only in the other",
        "w seed=1 srdo: answers differ on 1 queries, first 1",
    ]
    # Counter lines add each side's summed explored and generated states.
    moved = [repr((9, 20, [])), counters[1], repr((1, 1, [("member_familiarity", 4)]))]
    theirs = {("w", 1, "srdo"): (["a", "b", "c"], moved)}
    assert compare.mismatches(ours, theirs) == [
        "w seed=1 srdo: counters differ on 2 queries, first 0, 2;"
        " explored 14 -> 6, generated 27 -> 9 (other -> this)",
    ]


def test_timed_run_prints_both_sides_cpu_and_their_ratio():
    args = ["--workloads", "mv-static", "--seeds", "1", "--solvers", "srdo",
            "--against", ROOT, "--time", "1"]
    out = subprocess.run(
        [sys.executable, str(SCRIPT), *map(str, args)],
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0].startswith("mv-static seed=1 srdo queries=320 answers=")
    assert lines[1] == f"no mismatch against {ROOT}"
    timing = re.fullmatch(
        r"mv-static seed=1 srdo cpu min of 1: this (\S+) s, other (\S+) s, ratio (\S+)",
        lines[2],
    )
    assert len(lines) == 3 and timing, lines
    this, other, ratio = map(float, timing.groups())
    assert this > 0 and other > 0 and ratio == pytest.approx(this / other, rel=0.01)


def test_time_needs_a_checkout_to_compare_with():
    out = subprocess.run(
        [sys.executable, str(SCRIPT), "--time", "2"], capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 2 and "--time needs --against" in out.stderr


def test_timed_rounds_alternate_the_sides_and_keep_each_minimum(monkeypatch):
    compare = _module()
    calls = []
    cpu = {"a": iter([3.0, 1.0, 2.0]), "b": iter([5.0, 6.0, 4.0])}

    def records_of(root, workloads, seeds, solvers):
        calls.append(root)
        key = ("w", 1, "srdo")
        return {key: ([f"{root}{len(calls)}"], [])}, {key: next(cpu[root])}

    monkeypatch.setattr(compare, "records_of", records_of)
    records, fastest = compare.timed_rounds(["a", "b"], 3, ["w"], [1], ["srdo"])
    # Even rounds run this checkout first, odd rounds the other.
    assert calls == ["a", "b", "b", "a", "a", "b"]
    # The digests come from each side's first run.
    assert records == [{("w", 1, "srdo"): (["a1"], [])}, {("w", 1, "srdo"): (["b2"], [])}]
    assert fastest == [{("w", 1, "srdo"): 1.0}, {("w", 1, "srdo"): 4.0}]
    assert compare.timing_lines(*fastest, 3) == [
        "w seed=1 srdo cpu min of 3: this 1.000 s, other 4.000 s, ratio 0.250",
    ]
