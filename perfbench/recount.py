"""An independent recount of the checker's law instances.

A copy of the recount in the test helpers, so that the benchmark stands on
its own: it walks boundaries with the module-level ``source``/``target``
functions and raw key strings, never through ``GlobularSet``, and so
cross-checks the composability bookkeeping of ``check_all``.
"""

from __future__ import annotations

import flowcat as fc


def _boundary_key(cell: fc.Cell, q: int, side: str) -> str:
    step = fc.source if side == "s" else fc.target
    x = cell
    while x.level > q:
        x = step(x)
    return fc.cell_key(fc.normalize(x))


def tag_counts(tower: fc.Tower) -> dict[str, int]:
    """Expected ``check_all`` instances per tag, from composability sets alone."""

    n = tower.max_level
    levels = {lv: fc.cells(tower, lv) for lv in range(0, n + 1)}
    skey: dict[tuple[int, int], dict[str, str]] = {}
    tkey: dict[tuple[int, int], dict[str, str]] = {}
    names: dict[int, list[str]] = {}
    for lv in range(1, n + 1):
        names[lv] = [fc.cell_key(c) for c in levels[lv]]
        for p in range(lv):
            skey[(lv, p)] = {fc.cell_key(c): _boundary_key(c, p, "s") for c in levels[lv]}
            tkey[(lv, p)] = {fc.cell_key(c): _boundary_key(c, p, "t") for c in levels[lv]}

    counts = dict.fromkeys(("globular",) + fc.AXIOM_TAGS, 0)
    counts["globular"] = sum(len(levels[lv]) for lv in range(1, n + 1)) + 2 * sum(
        len(levels[lv]) for lv in range(2, n + 1)
    )
    counts["b"] = 2 * sum(len(levels[lv]) for lv in range(0, n))
    counts["d"] = 2 * sum(lv * len(levels[lv]) for lv in range(1, n + 1))
    for lv in range(1, n + 1):
        for p in range(lv):
            s, t = skey[(lv, p)], tkey[(lv, p)]
            got = [(c, a) for c in names[lv] for a in names[lv] if s[c] == t[a]]
            counts["a"] += 2 * len(got)
            if lv < n:
                counts["f"] += len(got)
            by_after: dict[str, list[str]] = {}
            for c, a in got:
                by_after.setdefault(c, []).append(a)
            for _, b in got:
                counts["c"] += len(by_after.get(b, ()))
            for q in range(p):
                sq, tq = skey[(lv, q)], tkey[(lv, q)]
                counts["e"] += sum(
                    1
                    for h, e in got
                    for c, a in got
                    if sq[h] == tq[c] and sq[e] == tq[a]
                )
    return counts
