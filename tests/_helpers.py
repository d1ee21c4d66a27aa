"""Test utilities: cell and space lookup, the reference face rule over
strata, a four-grade family of flow systems, and an independent recount of
checker instances.

The recount walks boundaries with the module-level ``source``/``target``
functions and raw key strings, never through ``GlobularSet`` internals, so it
serves as a second opinion on the composability bookkeeping of ``check_all``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

import flowcat as fc
from flowcat.stratification import _PairTable, _chains, _end_str, _pair_table


def cell_map(tower: fc.Tower, level: int, extended: bool = False) -> dict[str, fc.Cell]:
    got = fc.extended_cells(tower, level) if extended else fc.cells(tower, level)
    return {fc.cell_key(c): c for c in got}


def find_cell(tower: fc.Tower, level: int, key: str) -> fc.Cell:
    return cell_map(tower, level, extended=True)[key]


def space_at(tower: fc.Tower, level: int, key: str) -> fc.SpaceData:
    """The one space of ``tower.spaces(level)`` with address key ``key``."""

    (sp,) = [sp for sp in tower.spaces(level) if sp.key == key]
    return sp


def boundary_key_raw(cell: fc.Cell, q: int, side: str) -> str:
    step = fc.source if side == "s" else fc.target
    x = cell
    while x.level > q:
        x = step(x)
    return fc.cell_key(fc.normalize(x))


@dataclass(frozen=True)
class Stratum:
    """One stratum of a compactified space.

    The open stratum of a component has no intermediates and its single
    factor is the component itself.  A boundary stratum breaks at the
    listed intermediate critical points, with one factor component per
    segment of the chain.
    """

    source: str
    target: str
    intermediates: tuple[str, ...]
    factors: tuple[fc.PieceRef, ...]

    @property
    def depth(self) -> int:
        return len(self.intermediates)


def _refines(
    sub: Stratum, sup: Stratum, comp_of: dict[tuple[str, str, str], fc.Component]
) -> bool:
    """Whether ``sub`` lies in the closure of ``sup``.

    The intermediates of ``sup`` must appear, in order, among those of
    ``sub``; over each single factor of ``sup``, the induced segment of
    ``sub`` must either be the same component or one of its boundary
    configurations.
    """

    sup_chain = (sup.source,) + sup.intermediates + (sup.target,)
    sub_chain = (sub.source,) + sub.intermediates + (sub.target,)
    if sub == sup:
        return False
    # locate sup's chain inside sub's chain
    positions = []
    start = 0
    for pt in sup_chain:
        try:
            pos = sub_chain.index(pt, start)
        except ValueError:
            return False
        positions.append(pos)
        start = pos + 1
    if positions[0] != 0 or positions[-1] != len(sub_chain) - 1:
        return False
    for k in range(len(sup.factors)):
        lo, hi = positions[k], positions[k + 1]
        segment = sub.factors[lo:hi]
        sup_factor = sup.factors[k]
        if len(segment) == 1 and segment[0] == sup_factor:
            continue
        comp = comp_of.get((sup_factor.source, sup_factor.target, sup_factor.component))
        if comp is None or segment not in comp.boundary:
            return False
    return True


def _strata(
    pt: _PairTable, source: str, target: str, chains: list[tuple[str, ...]]
) -> list[Stratum]:
    """The strata over the given chains of intermediates, one per choice of
    factor components, sorted by depth, intermediates and factors.

    ``pt`` is the pair table of the space one level down, whose points
    ``source`` and ``target`` are.
    """

    table = pt.pairs
    strata: list[Stratum] = []
    for mids in chains:
        chain = (source,) + mids + (target,)
        segs = list(zip(chain, chain[1:]))
        choices: list[tuple[fc.PieceRef, ...]] = [()]
        for s, t in segs:
            comps = table.get((s, t), ())
            choices = [
                chosen + (fc.PieceRef(s, t, c.id),) for chosen in choices for c in comps
            ]
        strata.extend(Stratum(source, target, mids, factors) for factors in choices)
    strata.sort(key=lambda s: (len(s.intermediates), s.intermediates, tuple(
        (r.source, r.target, r.component) for r in s.factors
    )))
    return strata


def stratify(table, source: str, target: str):
    """The strata of the space from ``source`` to ``target`` over a pair
    table, and the ``(i, j)`` pairs whose stratum i lies in the closure of
    stratum j by ``_refines``."""

    pt = _pair_table(table)
    strata = _strata(pt, source, target, _chains(pt, source, target))
    closure = [
        (i, j)
        for i, sub in enumerate(strata)
        for j, sup in enumerate(strata)
        if _refines(sub, sup, pt.comp_of)
    ]
    return strata, closure


def reference_face_rules(pt: _PairTable) -> Iterator[fc.Violation]:
    """The face-of-face rule over strata: every double break refines
    through a single break, by ``_refines``.

    Only pairs with a chain of two or more intermediates have a double
    break, and a stratum broken at ``mids`` with one point dropped can lie
    only in the closure of the strata broken at exactly the rest.
    """

    for x, z in sorted(pt.pairs):
        chains = _chains(pt, x, z)
        if not chains or len(chains[-1]) < 2:
            continue
        strata = _strata(pt, x, z, chains)
        by_mids: dict[tuple[str, ...], list[Stratum]] = {}
        for stratum in strata:
            by_mids.setdefault(stratum.intermediates, []).append(stratum)
        for sub in strata:
            if sub.depth < 2:
                continue
            for drop in range(sub.depth):
                mids = sub.intermediates[:drop] + sub.intermediates[drop + 1 :]
                if not any(_refines(sub, sup, pt.comp_of) for sup in by_mids.get(mids, ())):
                    yield fc.Violation(
                        "face-of-face",
                        f"stratum of ({x},{z}) broken at {sub.intermediates} through "
                        f"{_end_str(sub.factors)} does not lie in the closure of a "
                        f"stratum broken at {mids}",
                        (x, z),
                    )


def four_grade_system(seed: int) -> fc.FlowSystem:
    """A deterministic flow system over the index grades 3, 2, 1, 0.

    Neighbouring grades are joined by one or two point components (or
    none), not always listed in id order.  Grades two apart get interval components that pair the broken
    configurations through the grade between them, shuffled, with one left
    unpaired now and then, and sometimes a second interval reusing an id.
    Grades three apart get a closed ``SphereLike 2``.  Only index-dropping
    pairs of known points are listed, so the validator always reaches the
    face rule, and an unpaired configuration can break it.
    """

    rng = random.Random(f"four-grade:{seed}")
    at_grade = {g: [f"g{g}{k}" for k in range(rng.randint(1, 2))] for g in range(4)}
    points = [(pid, g) for g in (3, 2, 1, 0) for pid in at_grade[g]]
    moduli: dict = {}
    for g in (3, 2, 1):
        for x in at_grade[g]:
            for z in at_grade[g - 1]:
                ids = [f"c{k}" for k in range(rng.choice((0, 1, 1, 2)))]
                rng.shuffle(ids)
                if ids:
                    moduli[x, z] = [(c, fc.POINT, ()) for c in ids]
    for g in (3, 2):
        for x in at_grade[g]:
            for z in at_grade[g - 2]:
                broken = [
                    (fc.PieceRef(x, m, a), fc.PieceRef(m, z, b))
                    for m in at_grade[g - 1]
                    for a, _, _ in moduli.get((x, m), ())
                    for b, _, _ in moduli.get((m, z), ())
                ]
                rng.shuffle(broken)
                if broken and rng.random() < 0.3:
                    broken.pop()
                comps = [
                    (f"i{k}", fc.INTERVAL, (broken[2 * k], broken[2 * k + 1]))
                    for k in range(len(broken) // 2)
                ]
                if len(comps) > 1 and rng.random() < 0.2:
                    comps[-1] = ("i0",) + comps[-1][1:]
                if comps:
                    moduli[x, z] = comps
    for x in at_grade[3]:
        for z in at_grade[0]:
            if rng.random() < 0.8:
                moduli[x, z] = [("s0", fc.parse_shape("SphereLike 2"), ())]
    return fc.flow_system(points, moduli)


def independent_tag_counts(tower: fc.Tower) -> dict[str, int]:
    """Recount expected ``check_all`` instances from composability sets alone.

    Per tag, one instance is:
      globular -- one boundary-membership check per cell of level >= 1 plus
                  two iterated-boundary agreements per cell of level >= 2
      a        -- two endpoint comparisons per composable pair
      b        -- two boundary comparisons per cell below the top level
      c        -- one comparison per composable triple
      d        -- two unit comparisons per cell per boundary depth
      e        -- one comparison per interchange quadruple
      f        -- one comparison per composable pair below the top level
    """
    n = tower.max_level
    levels = {lv: fc.cells(tower, lv) for lv in range(0, n + 1)}
    skey: dict[tuple[int, int], dict[str, str]] = {}
    tkey: dict[tuple[int, int], dict[str, str]] = {}
    names: dict[int, list[str]] = {}
    for lv in range(1, n + 1):
        names[lv] = [fc.cell_key(c) for c in levels[lv]]
        for p in range(lv):
            skey[(lv, p)] = {
                fc.cell_key(c): boundary_key_raw(c, p, "s") for c in levels[lv]
            }
            tkey[(lv, p)] = {
                fc.cell_key(c): boundary_key_raw(c, p, "t") for c in levels[lv]
            }

    def pairs(lv: int, p: int) -> list[tuple[str, str]]:
        return [
            (c, a)
            for c in names[lv]
            for a in names[lv]
            if skey[(lv, p)][c] == tkey[(lv, p)][a]
        ]

    counts = dict.fromkeys(("globular",) + fc.AXIOM_TAGS, 0)
    counts["globular"] = sum(len(levels[lv]) for lv in range(1, n + 1)) + 2 * sum(
        len(levels[lv]) for lv in range(2, n + 1)
    )
    counts["b"] = 2 * sum(len(levels[lv]) for lv in range(0, n))
    counts["d"] = 2 * sum(lv * len(levels[lv]) for lv in range(1, n + 1))
    for lv in range(1, n + 1):
        for p in range(lv):
            got = pairs(lv, p)
            counts["a"] += 2 * len(got)
            if lv < n:
                counts["f"] += len(got)
            by_after: dict[str, list[str]] = {}
            for c, a in got:
                by_after.setdefault(c, []).append(a)
            for _, b in got:
                counts["c"] += len(by_after.get(b, ()))
            if p >= 1:
                for q in range(p):
                    sq = skey[(lv, q)]
                    tq = tkey[(lv, q)]
                    counts["e"] += sum(
                        1
                        for h, e in got
                        for c, a in got
                        if sq[h] == tq[c] and sq[e] == tq[a]
                    )
    return counts


def report_counts(report: fc.AxiomReport) -> dict[str, int]:
    return {tr.tag: tr.instances for tr in report.tags}


def units(X: fc.GlobularSet):
    """Law ``d``'s instances in check order: (level, p, A, left unit, right unit).

    The units are the iterated identities on the level-p target and source
    of ``A``, walked through the view's maps.
    """
    for level in range(1, X.n + 1):
        for A in X.cells(level):
            for p in range(level):
                tt, ss = A, A
                for _ in range(level - p):
                    tt, ss = X.t(tt), X.s(ss)
                for _ in range(level - p):
                    tt, ss = X.identity(tt), X.identity(ss)
                yield level, p, A, tt, ss


def reference_check_d(X: fc.GlobularSet) -> fc.TagReport:
    """Law ``d`` by raw composites: glue with ``X.compose``, compare raw, then normal.

    It builds every unit composite, so it is the reference that the
    checker's normal-form gluing must reproduce, strict counts and failure
    texts included.
    """
    instances = strict = 0
    failures: list[fc.Failure] = []

    def nkey(cell: fc.Cell) -> str:
        return fc.cell_key(fc.normalize(cell))

    for level, p, A, tt, ss in units(X):
        at = dict(tag="d", level=level, p=p, q=None, cells=(fc.cell_key(A),))
        try:
            for what, after, first in (("left unit", tt, A), ("right unit", A, ss)):
                glued = X.compose(p, after, first)
                instances += 1
                if glued == A:
                    strict += 1
                elif fc.normalize(glued) is not fc.normalize(A):
                    failures.append(
                        fc.Failure(detail=f"{what}: {nkey(glued)}  !=  {nkey(A)}", **at)
                    )
        except ValueError as e:
            instances += 1
            failures.append(fc.Failure(detail=str(e), **at))
    return fc.TagReport("d", instances, strict, tuple(failures))


def triples(X: fc.GlobularSet):
    """Law ``c``'s instances in check order: (level, p, E, C, A)."""
    for level in range(1, X.n + 1):
        for p in range(level):
            pairs = X.composable_pairs(level, p)
            for E, C in pairs:
                for C2, A in pairs:
                    if C2 == C:
                        yield level, p, E, C, A


def reference_check_c(X: fc.GlobularSet) -> fc.TagReport:
    """Law ``c`` by raw composites: build both sides with ``X.compose``, compare raw, then normal.

    It builds every outer composite, so it is the reference that the
    checker's normal-form gluing must reproduce, strict counts and failure
    texts included.
    """
    instances = strict = 0
    failures: list[fc.Failure] = []

    def nkey(cell: fc.Cell) -> str:
        return fc.cell_key(fc.normalize(cell))

    for level, p, E, C, A in triples(X):
        at = dict(tag="c", level=level, p=p, q=None, cells=tuple(map(fc.cell_key, (E, C, A))))
        instances += 1
        try:
            lhs = X.compose(p, X.compose(p, E, C), A)
            rhs = X.compose(p, E, X.compose(p, C, A))
        except ValueError as e:
            failures.append(fc.Failure(detail=str(e), **at))
            continue
        if lhs == rhs:
            strict += 1
        elif fc.normalize(lhs) is not fc.normalize(rhs):
            detail = f"re-associated composites: {nkey(lhs)}  !=  {nkey(rhs)}"
            failures.append(fc.Failure(detail=detail, **at))
    return fc.TagReport("c", instances, strict, tuple(failures))
