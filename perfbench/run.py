"""The flowcat benchmark: time from a tower file to a law verdict.

Usage (from the repository root):

    python3 perfbench/run.py --workload deep|wide|corpus|mutate \
        --seed N --seconds S --trace 0|1

One closed-loop client, no threads: each pass is one worker process
(``worker.py``) started after the previous one has ended, so caches start
cold every pass.  Passes repeat while another one fits in ``--seconds``
(at least one runs); set-up is sampled by extra set-up-only workers until
there are ``SETUP_SAMPLES``.  Every verdict is gated against the answers in
``expected.json``; a wrong verdict makes the run exit 1.

Times are scaled to a reference CPU speed sampled by a probe loop in the
worker (see ``worker.py``); the unscaled wall times are printed beside
them.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` one untraced
reference pass and one traced pass, then the per-layer metrics.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
Spans of a traced run are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("deep", "wide", "corpus", "mutate")
SETUP_SAMPLES = 5
# A run must end within 180 s; workers that would pass this are killed.
RUN_LIMIT_S = 170

LAW_FAMILIES = ("globular", "a", "b", "c", "d", "e", "f")


class BenchError(Exception):
    pass


def spawn(workload: str, seed: int, mode: str, *extra: str, deadline: float | None = None) -> dict:
    """Run one worker to completion and return its JSON result.

    The worker is killed if it is still running at ``deadline``
    (``time.monotonic()``), by default ``RUN_LIMIT_S`` from now.
    """

    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode, *extra,
    ]
    spawned = time.monotonic()
    timeout = RUN_LIMIT_S if deadline is None else max(deadline - spawned, 1.0)
    proc = subprocess.Popen(
        cmd + ["--spawned", repr(spawned)], cwd=ROOT, stdout=subprocess.PIPE, text=True
    )
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{mode} worker for {workload} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker for {workload} exited {proc.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - spawned
    return result


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def measure(workload: str, seed: int, seconds: float, deadline: float) -> list[dict]:
    """Untraced passes while another one fits in ``seconds``."""

    passes = []
    start = time.monotonic()
    while True:
        passes.append(spawn(workload, seed, "pass", deadline=deadline))
        if time.monotonic() - start + passes[-1]["wall_s"] > seconds:
            return passes


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, list[dict], dict]:
    passes = measure(workload, seed, seconds, deadline)
    setups = [(p["setup_s"], p["setup_wall_s"]) for p in passes]
    while len(setups) < SETUP_SAMPLES:
        extra = spawn(workload, seed, "setup", deadline=deadline)
        setups.append((extra["setup_s"], extra["setup_wall_s"]))
    setups, setup_walls = zip(*setups)
    n_pass = len(passes)
    per_pass = f"{n_pass} passes x {len(passes[0]['verdicts'])} verdicts"
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "pass_s": (statistics.median(p["pass_s"] for p in passes), "s", n_pass),
        # Percentiles within each pass, then the median over passes, so that
        # the number of passes cannot move them.
        "verdict_s.p50": (
            statistics.median(percentile(p["verdicts"], 50) for p in passes), "s", per_pass
        ),
        "verdict_s.p90": (
            statistics.median(percentile(p["verdicts"], 90) for p in passes), "s", per_pass
        ),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB", n_pass),
    }
    wall = {
        "setup_wall_s": statistics.median(setup_walls),
        "pass_wall_s": statistics.median(p["pass_wall_s"] for p in passes),
        "speed": statistics.median(p["pass_wall_s"] / p["pass_s"] for p in passes),
    }
    return metrics, passes, wall


def per_layer(workload: str, seed: int, deadline: float) -> tuple[dict, list[dict], dict]:
    reference = spawn(workload, seed, "pass", deadline=deadline)
    traced = spawn(workload, seed, "trace", deadline=deadline)
    t, c = traced["self_s"], traced["counts"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {
        "cli.parse.s": (t.get("cli.parse", 0.0), "s"),
        "cli.parse.bytes": (c.get("cli.parse.bytes", 0), "bytes"),
        "stratification.validate.s": (t.get("stratification.validate", 0.0), "s"),
        "stratification.validate.violations": (c.get("stratification.validate.violations", 0), "count"),
        "tower.build.s": (t.get("tower.build", 0.0), "s"),
        "tower.build.level1.s": (t.get("tower.build.level1", 0.0), "s"),
        "tower.build.upper.s": (t.get("tower.build", 0.0) - t.get("tower.build.level1", 0.0), "s"),
        "tower.build.levels": (c.get("tower.build.levels", 0), "count"),
        "tower.build.spaces": (c.get("tower.build.spaces", 0), "count"),
        "tower.build.cells": (c.get("tower.build.cells", 0), "count"),
        "category.view.s": (t.get("category.view", 0.0), "s"),
        "category.pairs.s": (t.get("category.pairs", 0.0), "s"),
        "category.pairs.count": (c.get("category.pairs.count", 0), "count"),
        "category.pairs.candidates": (c.get("category.pairs.candidates", 0), "count"),
        "category.pairs.yield": (
            ratio(c.get("category.pairs.count", 0), c.get("category.pairs.candidates", 0)), "ratio"
        ),
    }
    for tag in LAW_FAMILIES:
        metrics[f"axioms.law.{tag}.s"] = (t.get(f"axioms.law.{tag}", 0.0), "s")
    for name in ("instances", "strict", "failures", "e.candidates"):
        metrics[f"axioms.law.{name}"] = (c.get(f"axioms.law.{name}", 0), "count")
    metrics["axioms.law.e.yield"] = (
        ratio(c.get("axioms.law.e.instances", 0), c.get("axioms.law.e.candidates", 0)), "ratio"
    )
    metrics["harness.trace.overhead_frac"] = (
        (traced["pass_s"] - reference["pass_s"]) / reference["pass_s"], "ratio"
    )
    return metrics, [reference, traced], law_time_by_input(traced["spans"])


def law_time_by_input(spans: list[dict]) -> dict[str, float]:
    """Wall time of the law checks (pair scans included) per input, unscaled."""

    out: dict[str, float] = {}
    for s in spans:
        if s["name"].startswith("axioms.law."):
            out[s["input"]] = out.get(s["input"], 0.0) + s["end"] - s["start"]
    return out


def write_spans(workload: str, seed: int, spans: list[dict]) -> Path:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spans, fh)
    return path


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="flowcat benchmark: time to a law verdict.")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "flowcat" / "__init__.py").is_file():
        print(f"error: no flowcat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    try:
        if args.trace:
            metrics, workers, law_s = per_layer(args.workload, args.seed, deadline)
        else:
            metrics, workers, wall = end_to_end(args.workload, args.seed, args.seconds, deadline)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    print(
        f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
        f"{len(workers)} passes, {attempted} verdicts, "
        f"{time.monotonic() - started:.1f} s"
    )
    ids = workers[0]["inputs"]
    print(f"  {len(ids)} inputs: {' '.join(ids[:8])}{' ...' if len(ids) > 8 else ''}")
    for w in workers:
        for problem in w["problems"][:20]:
            print(f"  WRONG {problem}")
    print(f"  {'failed_frac':<36} {failed / attempted:.4f} ({failed} of {attempted})")
    if args.trace:
        path = write_spans(args.workload, args.seed, workers[1]["spans"])
        for name, (value, unit) in metrics.items():
            print(f"  {name:<36} {value:.6g} {unit}")
        if len(law_s) <= 8:
            times = list(law_s.values())
            print("  law time per input: " + ", ".join(f"{k} {v:.4g} s" for k, v in law_s.items()))
            print("  growth from input to input: " + ", ".join(
                f"x{b / a:.2f}" for a, b in zip(times, times[1:])
            ))
        print(f"  spans written to {path.relative_to(ROOT)}")
    else:
        for name, (value, unit, n) in metrics.items():
            print(f"  {name:<36} {value:.6g} {unit} (n={n})")
        print(
            f"  unscaled: set-up {wall['setup_wall_s']:.6g} s, pass {wall['pass_wall_s']:.6g} s; "
            f"probe time {wall['speed']:.3f}x its reference"
        )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m[0], "unit": m[1]} for name, m in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
