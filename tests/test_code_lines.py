"""Tests of ``scripts/code_lines.py``: only code lines count, never blank
lines, comments or docstrings."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "code_lines.py"

SOURCE = '''"""A module docstring
over two lines."""

# A comment line.
import os  # a trailing comment


def f(x):
    """A function docstring."""

    text = """a string, not a docstring:

# so this line and the blank one above count"""
    return x + len(text)


class C:
    """A class docstring."""
    value = 1
'''


def _module():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_only_code_lines_count():
    # import, def, text (3 lines), return, class, value
    assert _module().code_lines(SOURCE) == 8


def test_prints_each_module_and_the_directory_total(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "b.py").write_text("# only a comment\n\nx = 1\n", encoding="utf-8")
    out = subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path)], capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "     1  b.py",
        "     8  pkg/a.py",
        f"     9  total {tmp_path}",
    ]
