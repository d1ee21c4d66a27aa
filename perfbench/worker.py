"""One benchmark pass in a fresh interpreter.

``run.py`` starts this script once per pass, so the global ``lru_cache``s
of ``flowcat.category`` start cold, as they do for a ``flowcat check``
process.  The worker renders the workload's tower files (that is set-up),
brings every input to a verdict, gates each verdict and prints one JSON
object on stdout.  Set-up time runs from just before the process started
until the inputs are written; like every time, it is scaled to the speed
probe's reference speed.

Modes:
  setup  render the inputs, let the speed probe run for PROBE_WINDOW_S and
         stop: one more set-up sample.
  pass   untraced: ``flowcat.cli.main(["check", file])`` per input.
  trace  the same verdicts through the public entry points of each module,
         each call wrapped in a span; then, outside the per-input span, the
         call only tracing needs (a level-1 build).

The worker writes its inputs to ``out/inputs/<workload>/`` next to this
script.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import signal
import sys
import time
import weakref
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "flowcat" / "__init__.py").is_file():
    raise SystemExit(f"no flowcat sources under {SRC}")
sys.path.insert(0, str(SRC))

import flowcat as fc  # noqa: E402

import workloads  # noqa: E402

if Path(fc.__file__).resolve().parent != SRC / "flowcat":
    raise SystemExit(f"imported flowcat from {fc.__file__}, not from {SRC}")


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Spans kept in memory: name, start, end, parent span, input id."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.input = ""
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "input": self.input,
            "parent": self._open[-1] if self._open else None,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def current(self) -> str | None:
        """Name of the innermost open span."""

        return self.spans[self._open[-1]]["name"] if self._open else None

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover."""

        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - child[s["id"]]
        return out


class Counters(dict):
    def add(self, key: str, value: float) -> None:
        self[key] = self.get(key, 0) + value


def _wrap_category(tracer: Tracer, counts: Counters):
    """Span every view construction and every first pair scan of a view."""

    view_init = fc.GlobularSet.__init__
    pairs = fc.GlobularSet.composable_pairs
    scanned: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def traced_init(self, *args, **kwargs):
        with tracer.span("category.view"):
            view_init(self, *args, **kwargs)

    def traced_pairs(self, level, p):
        done = scanned.setdefault(self, set())
        if (level, p) in done:
            return pairs(self, level, p)
        done.add((level, p))
        with tracer.span("category.pairs"):
            out = pairs(self, level, p)
        counts.add("category.pairs.count", len(out))
        counts.add("category.pairs.candidates", len(self.cells(level)) ** 2)
        return out

    fc.GlobularSet.__init__ = traced_init
    fc.GlobularSet.composable_pairs = traced_pairs
    return pairs


def _wrap_validate(tracer: Tracer, counts: Counters) -> None:
    """Span the validate call that ``build_tower`` makes.

    The span nests under ``tower.build``, so the build's self time leaves
    validation out.  Inside the level-1 build it gets a name of its own, so
    that ``stratification.validate`` counts one validation per tower.
    """

    validate = fc.tower.validate_flow_system

    def traced_validate(fs):
        extra = tracer.current() == "tower.build.level1"
        with tracer.span("tower.build.level1.validate" if extra else "stratification.validate"):
            violations = validate(fs)
        if not extra:
            counts.add("stratification.validate.violations", len(violations))
        return violations

    fc.tower.validate_flow_system = traced_validate


def _raised(iid: str, e: Exception) -> list[str]:
    """A traceback is a failed verdict, not a crash."""

    return [f"{iid}: raised {type(e).__name__}: {e}"]


def _check_laws(tracer: Tracer, counts: Counters, view, pairs) -> fc.AxiomReport:
    reports = []
    with tracer.span("axioms.law.globular"):
        reports.append(fc.check_globular(view))
    for tag in fc.AXIOM_TAGS:
        with tracer.span(f"axioms.law.{tag}"):
            reports.append(fc.check_axiom(tag, view))
    report = fc.AxiomReport(tuple(reports))
    counts.add("axioms.law.instances", report.instances)
    counts.add("axioms.law.strict", sum(t.strict for t in report.tags))
    counts.add("axioms.law.failures", sum(len(t.failures) for t in report.tags))
    # The e scan compares every pair with every pair once per q < p.
    counts.add(
        "axioms.law.e.candidates",
        sum(
            p * len(pairs(view, level, p)) ** 2
            for level in range(2, view.n + 1)
            for p in range(1, level)
        ),
    )
    counts.add("axioms.law.e.instances", report.by_tag("e").instances)
    return report


def _tracing_extras(tracer: Tracer, fs, decls) -> None:
    with tracer.span("tower.build.level1"):
        fc.build_tower(fs, decls, max_level=1)


def _count_tower(counts: Counters, tower) -> None:
    counts.add("tower.build.levels", tower.max_level)
    counts.add(
        "tower.build.spaces",
        sum(len(tower.spaces(level)) for level in range(1, tower.max_level + 1)),
    )
    counts.add(
        "tower.build.cells",
        sum(len(fc.cells(tower, level)) for level in range(tower.max_level + 1)),
    )


def _parse(tracer: Tracer, counts: Counters, path: Path):
    with tracer.span("cli.parse"):
        text = path.read_text(encoding="utf-8")
        parsed = fc.parse_tower_file(text)
    counts.add("cli.parse.bytes", len(text.encode("utf-8")))
    return parsed


# The machine this was tuned on changes speed by 10-20% over seconds to
# minutes (a fixed loop timed in 20 s windows: coefficient of variation
# 0.11), which swamps the differences the benchmark must resolve.  A probe run every
# PROBE_INTERVAL_S from SIGALRM samples that speed during the pass; each
# timed interval is scaled by the probe's reference time over the probe's
# mean time around it.  The probe builds and hashes small nested tuples,
# as the checker's structural hashing does: on twelve 6 s windows of
# corpus work it cut the coefficient of variation from 0.13 to 0.04, where
# a dict-update probe reached 0.09.  Its tuples die at once, so it leaves
# the collector's counts as it found them.
PROBE_INTERVAL_S = 0.05
PROBE_REFERENCE_S = 0.17e-3
PROBE_WINDOW_S = 0.5


def _probe_loop() -> None:
    x = 0
    for i in range(400):
        x ^= hash(((i, (i, i + 1)), ("a", (i,))))


class SpeedProbe:
    """Samples CPU speed while the pass runs: (start, duration) per probe."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        _probe_loop()
        self.samples.append((start, time.perf_counter() - start))

    def spent(self, start: float, end: float) -> float:
        """Time the probe itself took between ``start`` and ``end``."""

        return sum(d for t, d in self.samples if start <= t < end)

    def scale(self, start: float, end: float) -> float:
        near = [d for t, d in self.samples if start - PROBE_WINDOW_S <= t < end + PROBE_WINDOW_S]
        near = near or [d for _, d in self.samples]
        return PROBE_REFERENCE_S * len(near) / sum(near) if near else 1.0


class Result:
    """Verdict times and gate outcomes of one pass.

    Times leave out the probe's own time.  Verdicts and ``pass_s`` are
    scaled to the probe's reference speed; ``pass_wall_s`` is as measured.
    """

    def __init__(self, probe: SpeedProbe) -> None:
        self.probe = probe
        self.verdicts: list[float] = []
        self.pass_s = 0.0
        self.pass_wall_s = 0.0
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0

    def timed(self, start: float, end: float, verdict: bool = True) -> None:
        wall = end - start - self.probe.spent(start, end)
        scaled = wall * self.probe.scale(start, end)
        self.pass_wall_s += wall
        self.pass_s += scaled
        if verdict:
            self.verdicts.append(scaled)

    def judge(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def run_files(files, gate: workloads.Gate, res: Result) -> None:
    """Untraced: ``flowcat check <file>`` in-process, per input."""

    cli = fc.cli
    built = []
    build = cli.build_tower

    def keep(*args, **kwargs):
        tower = build(*args, **kwargs)
        built.append(tower)
        return tower

    cli.build_tower = keep
    for iid, path in files:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["check", str(path)])
        except Exception as e:
            code, problem = None, _raised(iid, e)
        else:
            problem = []
        res.timed(start, time.perf_counter())
        tower = built.pop() if built else None
        res.judge(problem or gate.check(iid, code, out.getvalue(), tower))


def trace_files(files, gate: workloads.Gate, res: Result, tracer: Tracer, counts: Counters) -> None:
    pairs = _wrap_category(tracer, counts)
    _wrap_validate(tracer, counts)
    for iid, path in files:
        tracer.input = iid
        try:
            with tracer.span("verdict") as root:
                fs, decls = _parse(tracer, counts, path)
                with tracer.span("tower.build"):
                    tower = fc.build_tower(fs, decls)
                view = fc.GlobularSet(tower)
                report = _check_laws(tracer, counts, view, pairs)
                text = workloads.check_output(report)
        except Exception as e:
            res.timed(root["start"], root["end"])
            res.judge(_raised(iid, e))
            continue
        res.timed(root["start"], root["end"])
        res.judge(gate.check(iid, 0 if report.ok else 1, text, tower))
        _count_tower(counts, tower)
        _tracing_extras(tracer, fs, decls)


def _mutant_views(tower, limit: int | None) -> list:
    view = fc.GlobularSet(tower)
    return list({**workloads.mutants(tower, view), "clean": view}.items())[:limit]


def run_mutate(files, gate: workloads.Gate, res: Result, limit: int | None) -> None:
    """Untraced: each single-field mutant, then the clean view, through check_all."""

    (iid, path), = files
    start = time.perf_counter()
    fs, decls = fc.parse_tower_file(path.read_text(encoding="utf-8"))
    tower = fc.build_tower(fs, decls)
    checks = _mutant_views(tower, limit)
    res.timed(start, time.perf_counter(), verdict=False)
    # The deformed tower's cell keys are gated with the first verdict.
    cells = gate.check_cells(iid, tower)
    for tag, view in checks:
        start = time.perf_counter()
        try:
            report = fc.check_all(view)
        except Exception as e:
            problem = _raised(f"mutant-{tag}", e)
        else:
            problem = []
        res.timed(start, time.perf_counter())
        res.judge(cells + (problem or gate.check_mutant(tag, report)))
        cells = []


def trace_mutate(files, gate: workloads.Gate, res: Result, tracer: Tracer,
                 counts: Counters, limit: int | None) -> None:
    pairs = _wrap_category(tracer, counts)
    _wrap_validate(tracer, counts)
    (iid, path), = files
    tracer.input = iid
    with tracer.span("prepare") as root:
        fs, decls = _parse(tracer, counts, path)
        with tracer.span("tower.build"):
            tower = fc.build_tower(fs, decls)
        checks = _mutant_views(tower, limit)
    res.timed(root["start"], root["end"], verdict=False)
    cells = gate.check_cells(iid, tower)
    _count_tower(counts, tower)
    _tracing_extras(tracer, fs, decls)
    for tag, view in checks:
        tracer.input = f"mutant-{tag}"
        try:
            with tracer.span("verdict") as root:
                report = _check_laws(tracer, counts, view, pairs)
        except Exception as e:
            problem = _raised(tracer.input, e)
        else:
            problem = gate.check_mutant(tag, report)
        res.timed(root["start"], root["end"])
        res.judge(cells + problem)
        cells = []


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "pass", "trace"), required=True)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() just before this process was started")
    ap.add_argument("--limit", type=int, default=None, help="bring only the first N inputs to a verdict")
    ap.add_argument("--expected", type=Path, default=None)
    args = ap.parse_args(argv)

    with SpeedProbe() as probe:
        files = workloads.write_inputs(workloads.render(args.workload, args.seed), HERE / "out" / "inputs" / args.workload)
        setup_wall_s = time.monotonic() - args.spawned
        ready = time.perf_counter()
        res = Result(probe)
        mutate = args.workload == "mutate"
        if args.mode != "setup":
            gate = workloads.Gate(workloads.load_expected(args.expected or workloads.EXPECTED_PATH))
        if args.mode == "setup":
            # Let the probe sample the speed around the end of set-up.
            time.sleep(PROBE_WINDOW_S)
        elif args.mode == "pass" and mutate:
            run_mutate(files, gate, res, args.limit)
        elif args.mode == "pass":
            run_files(files[:args.limit], gate, res)
        else:
            tracer, counts = Tracer(), Counters()
            if mutate:
                trace_mutate(files, gate, res, tracer, counts, args.limit)
            else:
                trace_files(files[:args.limit], gate, res, tracer, counts)
    out = {
        "setup_s": setup_wall_s * probe.scale(ready - setup_wall_s, ready),
        "setup_wall_s": setup_wall_s,
    }
    if args.mode == "setup":
        print(json.dumps(out))
        return 0
    if args.mode == "trace":
        # Layer times get the pass's scale, so they add up to its scaled time.
        speed = res.pass_s / res.pass_wall_s
        out.update(
            self_s={k: v * speed for k, v in tracer.self_times().items()},
            counts=counts,
            spans=tracer.spans,
        )
    out.update(
        pass_s=res.pass_s,
        pass_wall_s=res.pass_wall_s,
        verdicts=res.verdicts,
        inputs=[iid for iid, _ in files],
        attempted=res.attempted,
        failed=res.failed,
        problems=res.problems,
        peak_rss_mb=_rss_mb(),
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
