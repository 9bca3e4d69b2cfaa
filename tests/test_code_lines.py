"""The code-line counter behind the counts cited in CHANGES.md."""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "code_lines", ROOT / "benchmarks" / "code_lines.py"
)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
two lines."""

import os  # a comment


def f(a,
      b):
    """Function docstring."""
    # a comment line
    text = """a multi-line
string value"""
    return a + b
'''


def test_counts_code_tokens_only(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    # import, def (two lines), the assigned string (two), return.
    assert code_lines.code_lines(path) == 6
