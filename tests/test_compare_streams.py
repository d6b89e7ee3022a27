"""Smoke test of ``scripts/compare_streams.py``: one benchmark stream,
compared with the checkout it runs in, matches itself."""

import importlib.util
import subprocess
import sys
from pathlib import Path

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
