"""Tests of ``scripts/compare_streams.py``: one benchmark stream, compared
with the checkout it runs in, matches itself; digest lines give each side's
summed states; mismatches name their queries; only an answer mismatch or a
one-sided stream exits 3; timed rounds alternate the sides and report both
import orders."""

import importlib.util
import re
import subprocess
import sys
import types
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
    # Both sides ran the same code, so they read the same sums.
    sums = re.search(
        r" explored=(\d+) generated=(\d+) other explored=(\d+) generated=(\d+)$", lines[0]
    )
    assert sums and sums.group(1, 2) == sums.group(3, 4), lines[0]
    assert lines[-1] == f"no mismatch against {ROOT}"


def test_hard_stream_holds_two_queries_per_seed():
    args = ["--workloads", "hard", "--seeds", "1", "--solvers", "ssp"]
    out = subprocess.run(
        [sys.executable, str(SCRIPT), *args], capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 1 and lines[0].startswith("hard seed=1 ssp queries=2 answers="), lines
    # With no other checkout, only this one's sums.
    assert re.search(r" counters=\w+ explored=\d+ generated=\d+$", lines[0]), lines


def test_digest_lines_sum_each_sides_states():
    compare = _module()
    key = ("w", 1, "srdo")
    ours = {key: (["a", "b"], [repr((2, 3, [])), repr((4, 6, [("distance", 1)]))])}
    theirs = {key: (["a", "b"], [repr((5, 9, [])), repr((1, 1, []))])}
    digests = "queries=2 answers={} counters={}".format(
        compare.digest(ours[key][0]), compare.digest(ours[key][1])
    )
    assert compare.report(ours) == [f"w seed=1 srdo {digests} explored=6 generated=9"]
    assert compare.report(ours, theirs) == [
        f"w seed=1 srdo {digests} explored=6 generated=9 other explored=6 generated=10"
    ]
    # A stream the other side did not run gets this side's sums only.
    assert compare.report(ours, {}) == compare.report(ours)


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


# One stream's records: per-query answers, then per-query counters.
KEY = ("w", 1, "srdo")
RECORDS = {KEY: (["a", "b"], [repr((2, 3, [])), repr((0, 0, []))])}


@pytest.mark.parametrize(
    "theirs, code, listed",
    [
        (RECORDS, 0, None),
        ({KEY: (["a", "b"], [repr((9, 20, [])), repr((0, 0, []))])}, 0, "counters differ"),
        ({KEY: (["a", "x"], RECORDS[KEY][1])}, 3, "answers differ"),
        ({**RECORDS, ("w", 1, "apdo"): (["a"], [repr((0, 0, []))])}, 3, "only in the other"),
        ({}, 3, "only in this checkout"),
    ],
    ids=["same", "counters", "answers", "only-other", "only-this"],
)
def test_exit_code_3_marks_an_answer_mismatch_or_a_one_sided_stream(
    monkeypatch, capsys, theirs, code, listed
):
    # Counters alone may move, when pins are re-recorded: that mismatch is
    # listed but exits 0. A differing answer, or a stream that ran on one
    # side only, exits 3, which no crash (1) or usage error (2) gives.
    compare = _module()
    monkeypatch.setattr(compare, "load_bench", lambda: None)
    monkeypatch.setattr(compare, "load_packages", lambda roots: [None] * len(roots))
    monkeypatch.setattr(compare, "run_streams", lambda *args: ([RECORDS, theirs], [{}, {}]))
    assert compare.main(["--against", str(ROOT)]) == code
    last = capsys.readouterr().out.splitlines()[-1]
    if listed is None:
        assert last == f"no mismatch against {ROOT}"
    else:
        assert listed in last, last


def test_timed_run_prints_each_import_order_and_their_geometric_mean():
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
        r"mv-static seed=1 srdo cpu this/other, median of 1 rounds: (\S+) this imported first,"
        r" (\S+) other imported first, geometric mean (\S+)",
        lines[2],
    )
    assert len(lines) == 3 and timing, lines
    this_first, other_first, mean = map(float, timing.groups())
    assert this_first > 0 and other_first > 0
    assert mean == pytest.approx((this_first * other_first) ** 0.5, abs=0.002)


def test_time_needs_a_checkout_to_compare_with():
    out = subprocess.run(
        [sys.executable, str(SCRIPT), "--time", "2"], capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 2 and "--time needs --against" in out.stderr


def test_rounds_alternate_the_sides_query_by_query(monkeypatch):
    compare = _module()
    calls = []

    def stream(run, rp, name, seed):
        return [(f"q{j}", None) for j in range(3)]

    def solve(rp, solver, query, built, stats):
        calls.append((rp.name, query))
        return None

    def package(name):
        stats = lambda: types.SimpleNamespace(  # noqa: E731
            explored_states=0, generated_states=0, pruned={}
        )
        return types.SimpleNamespace(name=name, SearchStats=stats)

    monkeypatch.setattr(compare, "stream", stream)
    monkeypatch.setattr(compare, "solve", solve)
    records, seconds = compare.run_streams(None, [package("a"), package("b")],
                                           ["w"], [1], ["srdo"], rounds=2)
    # Each query runs on both sides in turn, and the side that goes first
    # alternates from query to query and from round to round.
    assert calls == [
        ("a", "q0"), ("b", "q0"), ("b", "q1"), ("a", "q1"), ("a", "q2"), ("b", "q2"),
        ("b", "q0"), ("a", "q0"), ("a", "q1"), ("b", "q1"), ("b", "q2"), ("a", "q2"),
    ]
    # The records come from the first round only; the seconds from every round.
    assert records[0] == records[1] == {("w", 1, "srdo"): (["None"] * 3, ["(0, 0, [])"] * 3)}
    assert [len(side[("w", 1, "srdo")]) for side in seconds] == [2, 2]


def test_timing_lines_take_each_import_order_median_and_their_geometric_mean():
    compare = _module()
    key = ("w", 1, "srdo")
    # This checkout's seconds, then the other's, per round.
    this_first = [{key: [2.0, 1.0, 3.0]}, {key: [1.0, 1.0, 1.0]}]
    other_first = [{key: [1.0, 0.5, 2.0]}, {key: [2.0, 2.0, 2.0]}]
    assert compare.timing_lines(this_first, other_first, 3) == [
        "w seed=1 srdo cpu this/other, median of 3 rounds: 2.000 this imported first,"
        " 0.500 other imported first, geometric mean 1.000",
    ]


def test_each_import_is_a_package_of_its_own():
    compare = _module()
    first, again = compare.load_packages([ROOT, ROOT])
    assert first.__name__ != again.__name__
    assert first.Query is not again.Query
    # A later import, by another copy of the script, takes fresh names too.
    (later,) = _module().load_packages([ROOT])
    assert later.__name__ not in (first.__name__, again.__name__)
    assert Path(later.__file__).parent == ROOT / "src" / "rallypoint"
