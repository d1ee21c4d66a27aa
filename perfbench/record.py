"""Record the expected answers the benchmark gates every verdict against.

Usage (from the repository root):

    python3 perfbench/record.py

Brings every default-seed input (seed 0) of every workload to a verdict
with ``flowcat check`` and writes ``perfbench/expected.json``.  Per input it
records the exit code, a digest of the printed text, the per-tag instance
and strict counts, and per level the number of cells and a digest of their
sorted keys.  Per mutant of the ``mutate`` workload it records the text
digest, the counts and the number of failures.  Before writing, it checks
each input's printed text against ``check_all`` and its instance counts
against the independent recount in ``recount.py``; a mismatch writes
nothing.

Run it only when a change is meant to alter verdicts, and say so: the
recorded answers are what keeps a speed-up from checking less.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKDIR = HERE / "out" / "record"
sys.path.insert(0, str(HERE.parent / "src"))

import flowcat as fc  # noqa: E402

import recount  # noqa: E402
import workloads  # noqa: E402


def check_via_cli(path: Path) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = fc.cli.main(["check", str(path)])
    return code, out.getvalue()


def main() -> int:
    inputs: dict[str, dict] = {}
    for name in ("deep", "wide", "corpus"):
        items = workloads.render(name, 0)
        for (iid, text), (_, path) in zip(items, workloads.write_inputs(items, WORKDIR)):
            if iid in inputs:
                continue
            code, out = check_via_cli(path)
            tower = fc.build_tower(*fc.parse_tower_file(text))
            report = fc.check_all(tower)
            if out != workloads.check_output(report) or code != (0 if report.ok else 1):
                print(f"{iid}: flowcat check disagrees with check_all", file=sys.stderr)
                return 1
            got = {t.tag: t.instances for t in report.tags}
            if got != recount.tag_counts(tower):
                print(f"{iid}: checker counts {got} != recount", file=sys.stderr)
                return 1
            inputs[iid] = {
                "exit": code,
                "text": workloads.digest(out),
                "counts": workloads.tag_counts(out),
                "sizes": workloads.cell_sizes(tower),
                "cells": workloads.cell_digests(tower),
            }
            print(f"recorded {name} {iid}", flush=True)

    (iid, text), = workloads.render("mutate", 0)
    tower = fc.build_tower(*fc.parse_tower_file(text))
    view = fc.GlobularSet(tower)
    mutate = {}
    for tag, X in {**workloads.mutants(tower, view), "clean": view}.items():
        report = fc.check_all(X)
        text = report.to_text()
        mutate[tag] = {
            "failures": sum(len(t.failures) for t in report.tags),
            "counts": workloads.tag_counts(text),
            "text": workloads.digest(text),
        }
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump({"inputs": inputs, "mutate": mutate}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {workloads.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
