"""Inputs, mutations and the correctness gate of the flowcat benchmark.

Entry points put the checkout's ``src`` first on ``sys.path`` before they
import this module, so the benchmark always measures the tree it ships in.

The seed renames points.  Every workload has fixed structures; a nonzero
seed renames the points of each system without declarations by a
permutation drawn from the seed, so its tower files differ byte for byte
while the towers stay isomorphic, with the same cost and the same report.
Seed 0 keeps the generated names.  Drawing other random systems per seed
instead made the time of a pass swing by a quarter from seed to seed:
cost per tower depends on more than its size.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from pathlib import Path

import flowcat as fc

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

WORKLOADS = ("deep", "wide", "corpus", "mutate")

# n >= 7 takes about 30 s per tower at the baseline; it joins once depth
# costs polynomial time.
DEEP_DIMENSIONS = tuple(range(1, 7))

# The first three seeds >= 0 whose random_system(seed, max_points=32) has at
# least 20 critical points: 127, 128 and 216 cells per level.
WIDE_SEEDS = (1, 4, 8)
WIDE_MAX_POINTS = 32

CORPUS_SPHERES = (1, 2, 3)
CORPUS_RANDOM_SEEDS = tuple(range(200))


def relabel(fs: fc.FlowSystem, seed: int) -> fc.FlowSystem:
    """``fs`` with its point ids permuted by a permutation drawn from ``seed``."""

    ids = [p.id for p in fs.points]
    shuffled = list(ids)
    random.Random(f"perfbench:{seed}").shuffle(shuffled)
    new = dict(zip(ids, shuffled))

    def end(pieces: fc.Endpoint) -> fc.Endpoint:
        return tuple(fc.PieceRef(new[r.source], new[r.target], r.component) for r in pieces)

    return fc.flow_system(
        [(new[p.id], p.index) for p in fs.points],
        {
            (new[s], new[t]): [(c.id, c.shape, tuple(map(end, c.boundary))) for c in comps]
            for s, t, comps in fs.pairs
        },
    )


def _renamed(name: str, fs: fc.FlowSystem, seed: int) -> tuple[str, fc.FlowSystem, fc.Declarations]:
    if seed == 0:
        return name, fs, fc.Declarations()
    return f"{name}~{seed}", relabel(fs, seed), fc.Declarations()


def systems(workload: str, seed: int) -> list[tuple[str, fc.FlowSystem, fc.Declarations]]:
    """The named systems one pass of ``workload`` brings to a verdict.

    An id is the recorded system's name, with ``~seed`` after it when the
    seed renamed its points.
    """

    if workload == "deep":
        return [(f"sphere-{n}", *fc.sphere_system(n)) for n in DEEP_DIMENSIONS]
    if workload == "wide":
        return [
            _renamed(f"random32-{s}", fc.random_system(s, max_points=WIDE_MAX_POINTS), seed)
            for s in WIDE_SEEDS
        ]
    if workload == "corpus":
        out = [_renamed("deformed", fc.deformed_sphere_system(), seed)]
        out += [(f"sphere-{n}", *fc.sphere_system(n)) for n in CORPUS_SPHERES]
        out += [_renamed(f"random-{s}", fc.random_system(s), seed) for s in CORPUS_RANDOM_SEEDS]
        return out
    if workload == "mutate":
        # The mutations name cells by key, so the points keep their names.
        return [("deformed", fc.deformed_sphere_system(), fc.Declarations())]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def render(workload: str, seed: int) -> list[tuple[str, str]]:
    """The tower files of a workload, as (input id, file text)."""

    return [
        (iid, fc.render_tower_file(fs, decls))
        for iid, fs, decls in systems(workload, seed)
    ]


def write_inputs(items: list[tuple[str, str]], directory: Path) -> list[tuple[str, Path]]:
    directory.mkdir(parents=True, exist_ok=True)
    out = []
    for iid, text in items:
        path = directory / f"{iid}.fct"
        path.write_text(text, encoding="utf-8")
        out.append((iid, path))
    return out


def mutants(tower: fc.Tower, view: fc.GlobularSet) -> dict[str, fc.GlobularSet]:
    """One single-field mutation of the deformed sphere per law family.

    The same cells and overrides as the checker's mutation tests, found by
    cell key.
    """

    index = {
        level: {fc.cell_key(c): c for c in fc.extended_cells(tower, level)}
        for level in (0, 1, 2)
    }
    p_cell = index[2][
        "(x/y:c0,y/w:a)/(x/y:c0,y/w:b):0 @ M((x/y:c0,y/w:a)>(x/y:c0,y/w:b)|x>w)"
    ]
    a_cell = index[1]["y/w:a @ M(y>w)"]
    c0x = index[1]["x/y:c0 @ M(x>y)"]
    end_a = index[1]["(x/y:c0,y/w:a) @ M(x>w)"]
    end_b = index[1]["(x/y:c0,y/w:b) @ M(x>w)"]
    s_a = index[2]["1(y/w:a) @ M(y/w:a>y/w:a|y>w)"]
    s_b = index[2]["1(y/w:b) @ M(y/w:b>y/w:b|y>w)"]
    t_z = index[2]["1(z/y:c0) @ M(z/y:c0>z/y:c0|z>y)"]
    z = index[0]["z"]
    return {
        "globular": view.with_target(p_cell, c0x),
        "a": view.with_source(end_a, z),
        "b": view.with_identity(a_cell, s_b),
        "c": view.with_compose(1, s_a, s_a, p_cell),
        "d": view.with_identity(c0x, t_z),
        "e": view.with_compose(1, s_a, s_a, p_cell),
        "f": view.with_identity(end_a, view.identity(end_b)),
    }


def check_output(report: fc.AxiomReport) -> str:
    """What ``flowcat check`` prints for a report."""

    last = (
        f"all laws hold ({report.instances} instances)" if report.ok else "laws FAILED"
    )
    return f"{report.to_text()}\n{last}\n"


_TAG_LINE = re.compile(
    r"^(\w+): (?:PASS|FAIL \(\d+ instances\)) — (\d+) instances, (\d+) strictly equal$",
    re.M,
)


def tag_counts(text: str) -> dict[str, list[int]]:
    """Per-tag [instances, strict] as printed in a report."""

    return {m[1]: [int(m[2]), int(m[3])] for m in _TAG_LINE.finditer(text)}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def cell_digests(tower: fc.Tower) -> list[str]:
    """One digest of the sorted cell keys per tower level."""

    return [
        digest("\n".join(sorted(fc.cell_key(c) for c in fc.cells(tower, level))))
        for level in range(tower.max_level + 1)
    ]


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def cell_sizes(tower: fc.Tower) -> list[int]:
    return [len(fc.cells(tower, level)) for level in range(tower.max_level + 1)]


class Gate:
    """Compares verdicts with the answers recorded by ``record.py``.

    Every input must match its recorded system in exit code, report text,
    per-tag instance and strict counts, and cells per level; a report that
    passes names no points, so renaming leaves its text unchanged.  Inputs
    that keep their recorded names must also have the recorded cell keys.
    """

    def __init__(self, expected: dict) -> None:
        self.inputs = expected["inputs"]
        self.mutate = expected["mutate"]

    def check(self, iid: str, code: int | None, text: str, tower: fc.Tower | None) -> list[str]:
        name = iid.split("~")[0]
        exp = self.inputs.get(name)
        if exp is None:
            return [f"{iid}: no recorded answer for {name}"]
        problems = []
        if code != exp["exit"]:
            problems.append(f"{iid}: exit {code}, expected {exp['exit']}")
        if digest(text) != exp["text"]:
            problems.append(f"{iid}: report text differs from the recorded one")
        if tag_counts(text) != exp["counts"]:
            problems.append(f"{iid}: per-tag counts {tag_counts(text)} != {exp['counts']}")
        if tower is None or cell_sizes(tower) != exp["sizes"]:
            problems.append(f"{iid}: cells per level differ from the recorded ones")
        elif iid == name:
            problems += self.check_cells(iid, tower)
        return problems

    def check_cells(self, iid: str, tower: fc.Tower) -> list[str]:
        if cell_digests(tower) == self.inputs[iid]["cells"]:
            return []
        return [f"{iid}: cell keys differ from the recorded ones"]

    def check_mutant(self, tag: str, report: fc.AxiomReport) -> list[str]:
        exp = self.mutate[tag]
        text = report.to_text()
        problems = []
        if tag == "clean":
            if not report.ok:
                problems.append("clean view: a law fails after the mutations")
        elif report.by_tag(tag).ok or not any(
            f.tag == tag for f in report.by_tag(tag).failures
        ):
            problems.append(f"mutant {tag}: the {tag} family does not fail")
        failures = sum(len(t.failures) for t in report.tags)
        if failures != exp["failures"]:
            problems.append(f"mutant {tag}: {failures} failures, expected {exp['failures']}")
        if tag_counts(text) != exp["counts"]:
            problems.append(f"mutant {tag}: per-tag counts {tag_counts(text)} != {exp['counts']}")
        if digest(text) != exp["text"]:
            problems.append(f"mutant {tag}: report text differs from the recorded one")
        return problems
