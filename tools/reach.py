"""Which lines of ``src/flowcat`` no in-process test reaches.

Runs ``pytest tests`` in this process under a ``sys.settrace`` tracer and
prints, per module, the executable lines that never ran, then the total.
A line is executable when the compiled module has an instruction on it.
Tests that start a subprocess are not traced, so the lines that only they
run are listed too.  Stdlib only, apart from pytest itself::

    python tools/reach.py

It exits with pytest's code when the suite fails, and 1 when more than
``ALLOWED`` lines are unreached.  The allowed lines run only under a
subprocess test: the five of ``__main__.py``, the ``BrokenPipeError``
handler of ``cli.main`` (three) and the refusal of ``python -m
flowcat.cli`` (two).  The count is pinned on Python 3.11: each version
decides the lines a statement compiles to.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "flowcat"
ALLOWED = 10


def executable_lines(path: Path) -> set[int]:
    """The lines of a module that some instruction of it is on."""

    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines: set[int] = set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main() -> int:
    prefix = str(PACKAGE) + os.sep
    hits: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    # Imported here so that the tracer sees flowcat's own imports.
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    sys.settrace(call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        sys.settrace(None)

    total = unreached = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        missed = sorted(n for n in lines if (str(path), n) not in hits)
        total += len(lines)
        unreached += len(missed)
        if missed:
            print(f"{path.relative_to(ROOT)}: {' '.join(map(str, missed))}")
    print(f"unreached: {unreached} of {total} executable lines")
    if code:
        return int(code)
    return 1 if unreached > ALLOWED else 0


if __name__ == "__main__":
    sys.exit(main())
