"""Run the benchmark on several seeds and record one trajectory point.

Usage (from the repository root):

    python3 perfbench/trajectory.py --label "<commit or change>"

Runs ``run.py --trace 0`` once per seed (1..RUNS) on every workload, one
run at a time, and prints for each end-to-end metric its median, first and
third quartiles (``statistics.quantiles(values, n=4)``), the quartile
spread as a share of the median, and the number of runs.  With
``--record`` the point is appended to ``perfbench/trajectory.json``.
Every run must be correct; otherwise nothing is recorded and the exit code
is 1.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRAJECTORY = HERE / "trajectory.json"
RUNS = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: run.py exited {proc.returncode}")
    return json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "runs": len(values),
    }


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    point = {"label": args.label, "machine": platform.platform(), "workloads": {}}
    for w in (item["name"] for item in bench["workloads"]):
        results = [run_once(w, seed, bench["run_seconds"]) for seed in range(1, RUNS + 1)]
        if not all(r["correct"] for r in results):
            print(f"{w}: a run was not correct", file=sys.stderr)
            return 1
        summary = {
            name: summarize([r["metrics"][name]["value"] for r in results])
            for name in bounds
        }
        summary["failed_frac"] = sum(r["failed"] for r in results) / sum(r["attempted"] for r in results)
        point["workloads"][w] = summary
        print(w)
        for name, s in summary.items():
            if name == "failed_frac":
                print(f"  {name:<16} {s}")
                continue
            flag = "" if s["spread"] < bounds[name] / 3 else "  (spread above a third of the bound)"
            print(
                f"  {name:<16} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                f"spread {s['spread']:.4f} (bound {bounds[name]})  n={s['runs']}{flag}",
                flush=True,
            )
    if args.record:
        points = json.loads(TRAJECTORY.read_text(encoding="utf-8")) if TRAJECTORY.exists() else []
        points.append(point)
        TRAJECTORY.write_text(json.dumps(points, indent=1) + "\n", encoding="utf-8")
        print(f"appended to {TRAJECTORY.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
