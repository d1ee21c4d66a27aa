"""Test utilities: cell lookup, strata as the face rule reads them, and an
independent recount of checker instances.

The recount walks boundaries with the module-level ``source``/``target``
functions and raw key strings, never through ``GlobularSet`` internals, so it
serves as a second opinion on the composability bookkeeping of ``check_all``.
"""

from __future__ import annotations

import flowcat as fc
from flowcat.stratification import _chains, _pair_table, _refines, _strata


def cell_map(tower: fc.Tower, level: int, extended: bool = False) -> dict[str, fc.Cell]:
    got = fc.extended_cells(tower, level) if extended else fc.cells(tower, level)
    return {fc.cell_key(c): c for c in got}


def find_cell(tower: fc.Tower, level: int, key: str) -> fc.Cell:
    return cell_map(tower, level, extended=True)[key]


def boundary_key_raw(cell: fc.Cell, q: int, side: str) -> str:
    step = fc.source if side == "s" else fc.target
    x = cell
    while x.level > q:
        x = step(x)
    return fc.cell_key(fc.normalize(x))


def stratify(table, source: str, target: str):
    """The strata of the space from ``source`` to ``target`` over a pair
    table, as the validator's face rule reads them, and the ``(i, j)`` pairs
    whose stratum i lies in the closure of stratum j by ``_refines``."""

    pt = _pair_table(table)
    strata = _strata(pt, source, target, _chains(pt, source, target))
    closure = [
        (i, j)
        for i, sub in enumerate(strata)
        for j, sup in enumerate(strata)
        if _refines(sub, sup, pt.comp_of)
    ]
    return strata, closure


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
