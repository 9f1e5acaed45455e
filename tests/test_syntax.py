"""Every Python file of the project parses as Python 3.10, the oldest version it supports.

This checks syntax only, such as ``except*``, ``type X = ...`` and ``def f[T]``
from later versions; a call to a standard-library function that 3.10 lacks
still passes.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_python_file_parses_as_3_10():
    files = sorted(p for d in ("src", "tests", "demos", "bench") for p in (ROOT / d).rglob("*.py"))
    assert files
    failures = []
    for path in files:
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert failures == []
