"""Acceptance suite: one visible verdict line per advertised guarantee.

Every test here re-derives its inputs from the public API and checks the
guarantee at full precision (exact rationals, no tolerances).  Each prints a
single ``ACCEPTANCE <k> <what>: PASS|FAIL`` line on the real stdout so the
verdicts survive pytest's output capture and land in piped logs.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

import flowcat as fc

from _helpers import find_cell, independent_tag_counts, report_counts, space_at, stratify
from test_axioms import _mutants

SPHERES = (1, 2, 3)
SEEDS = range(200)
# Deep spheres and their law instance counts; checking them takes time
# polynomial in the depth.
DEEP_SPHERES = {7: 226, 8: 272, 9: 322, 10: 376}

# Towers built by criterion 3 (inside its timing window) and reused by the
# later criteria; built on demand when a later test runs on its own.
_BUILT: dict[str, fc.Tower] = {}


def _build_corpus() -> dict[str, fc.Tower]:
    towers: dict[str, fc.Tower] = {}
    for n in SPHERES:
        towers[f"sphere{n}"] = fc.build_tower(*fc.sphere_system(n))
    towers["deformed"] = fc.build_tower(fc.deformed_sphere_system())
    for seed in SEEDS:
        towers[f"random{seed}"] = fc.build_tower(fc.random_system(seed))
    return towers


def _corpus() -> dict[str, fc.Tower]:
    if not _BUILT:
        _BUILT.update(_build_corpus())
    return _BUILT


@pytest.fixture()
def emit(capsys):
    @contextmanager
    def criterion(k: int, what: str):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"ACCEPTANCE {k} {what}: FAIL", flush=True)
            raise
        with capsys.disabled():
            print(f"ACCEPTANCE {k} {what}: PASS", flush=True)

    return criterion


def test_criterion_1_spheres_stay_discrete(emit):
    with emit(1, "sphere systems: two parallel cells per level, nothing composable"):
        for n in SPHERES:
            t0 = time.perf_counter()
            tower = fc.build_tower(*fc.sphere_system(n))
            view = fc.GlobularSet(tower)
            for level in range(n + 1):
                assert len(view.cells(level)) == 2, (n, level)
            for level in range(1, n + 1):
                for p in range(level):
                    assert view.composable_pairs(level, p) == (), (n, level, p)
            assert time.perf_counter() - t0 < 1.0, f"sphere {n} too slow"


def test_criterion_2_deformed_sphere_structure(emit):
    with emit(2, "deformed sphere: exact cells, composites, interval data"):
        t0 = time.perf_counter()
        tower = fc.build_tower(fc.deformed_sphere_system())
        view = fc.GlobularSet(tower)
        assert [len(view.cells(level)) for level in range(3)] == [4, 8, 6]
        assert len(view.composable_pairs(1, 0)) == 4
        assert len(view.composable_pairs(2, 1)) == 4
        assert len(view.composable_pairs(2, 0)) == 4
        # The composite glued at the middle point is — raw, not merely up to
        # normal form — the max end of the interval one level down.
        first = find_cell(tower, 1, "x/y:c0 @ M(x>y)")
        after = find_cell(tower, 1, "y/w:a @ M(y>w)")
        end = find_cell(tower, 1, "(x/y:c0,y/w:a) @ M(x>w)")
        assert view.compose(0, after=after, first=first) == end
        # Both derived level-2 spaces are single points.
        live = [sp for sp in tower.spaces(2) if not sp.stationary]
        assert len(live) == 2
        for sp in live:
            assert len(list(sp.morse)) == 1, sp.key
        assert time.perf_counter() - t0 < 1.0


def test_criterion_3_checker_clean_and_cross_checked(emit):
    with emit(3, "axiom checker: clean corpus, counts independently recounted"):
        t0 = time.perf_counter()
        towers = _build_corpus()
        for name, tower in towers.items():
            rep = fc.check_all(tower)
            failures = [f for tag in fc.AXIOM_TAGS for f in rep.by_tag(tag).failures]
            assert not failures, f"{name}:\n{rep.to_text()}"
            assert report_counts(rep) == independent_tag_counts(tower), name
        elapsed = time.perf_counter() - t0
        _BUILT.update(towers)
        assert elapsed < 60.0, f"corpus run took {elapsed:.1f}s"


def test_criterion_4_mutation_sensitivity(emit, deformed_tower, deformed_view):
    with emit(4, "every axiom family trips on a one-field mutation"):
        for tag, mutated in _mutants(deformed_tower, deformed_view).items():
            rep = fc.check_all(mutated)
            tag_report = rep.by_tag(tag)
            assert not tag_report.ok, f"mutation for {tag!r} did not trip it"
            assert any(f.tag == tag for f in tag_report.failures)
        clean = fc.check_all(deformed_view)
        assert all(clean.by_tag(tag).ok for tag in fc.AXIOM_TAGS)


def _parent_space(tower: fc.Tower, level: int, sp) -> fc.SpaceData:
    return space_at(tower, level - 1, fc.address_key(sp.address.ambient))


def test_criterion_5_stratification_laws(emit):
    with emit(5, "stratification: dimensions, product boundaries, nested faces"):
        towers = _corpus()
        product_strata = codim_strata = 0
        for name, tower in towers.items():
            fs = tower.base
            base_index = {p.id: p.index for p in fs.points}
            for src, tgt, comps in fs.pairs:
                gap = base_index[src] - base_index[tgt] - 1
                assert all(c.dim == gap for c in comps), (name, src, tgt)
            for level in range(1, tower.max_level + 1):
                for sp in tower.spaces(level):
                    # Derived components live one dimension below their gap.
                    index_of = {
                        fc.point_key(e.point): e.index for e in sp.morse
                    }
                    for srck, tgtk, comps in sp.derived:
                        gap = index_of[srck] - index_of[tgtk] - 1
                        assert all(c.dim == gap for c in comps), (name, sp.key)

                    if sp.stationary:
                        continue
                    # Factor lookup: the registry a boundary factor must come
                    # from is the base system for level 1 and the parent
                    # space's derived table above that.
                    if level == 1:
                        table = fs.table
                        index_below = base_index
                        known_point = base_index.__contains__
                    else:
                        parent = _parent_space(tower, level, sp)
                        table = {(a, b): cs for a, b, cs in parent.derived}
                        index_below = {fc.point_key(e.point): e.index for e in parent.morse}
                        known_point = index_below.__contains__

                    def factor_comp(ref, table=table):
                        for c in table.get((ref.source, ref.target), ()):
                            if c.id == ref.component:
                                return c
                        return None

                    own = {c.id: c for c in sp.components}
                    src_key = fc.point_key(sp.address.source)
                    tgt_key = fc.point_key(sp.address.target)
                    dim = index_below[src_key] - index_below[tgt_key] - 1
                    strata, closure = stratify(table, src_key, tgt_key)
                    assert strata, (name, sp.key)
                    by_signature = {}
                    for i, stratum in enumerate(strata):
                        assert stratum.source == src_key
                        assert stratum.target == tgt_key
                        chain = (stratum.source, *stratum.intermediates, stratum.target)
                        assert len(stratum.factors) == len(chain) - 1, (name, sp.key)
                        for j, ref in enumerate(stratum.factors):
                            assert ref.source == chain[j], (name, sp.key)
                            assert ref.target == chain[j + 1], (name, sp.key)
                        by_signature[
                            (stratum.intermediates, tuple(f.component for f in stratum.factors))
                        ] = i
                        # Codimension: a stratum broken at k points is a
                        # product of pieces from the registry one level down
                        # whose dimensions sum to the space's dimension less k.
                        factor_dims = []
                        for ref in stratum.factors:
                            comp = factor_comp(ref)
                            assert comp is not None, (name, sp.key, ref)
                            factor_dims.append(comp.dim)
                        assert sum(factor_dims) == dim - stratum.depth, (name, sp.key, i)
                        codim_strata += 1
                        if stratum.depth == 0:
                            assert stratum.intermediates == ()
                            assert stratum.factors[0].component in own
                            continue
                        # A proper boundary stratum is glued along known
                        # intermediate points.
                        product_strata += 1
                        assert all(known_point(m) for m in stratum.intermediates), (
                            name,
                            sp.key,
                        )
                        # Every proper stratum closes up into some open stratum.
                        assert any(
                            (i, j) in closure
                            for j, other in enumerate(strata)
                            if other.depth == 0
                        ), (name, sp.key, i)

                    for deep, shallow in closure:
                        a, b = strata[deep], strata[shallow]
                        assert a.depth > b.depth, (name, sp.key)
                        assert set(b.intermediates) < set(a.intermediates), (
                            name,
                            sp.key,
                        )

                    # Face-of-face: dropping one intermediate from a depth>=2
                    # stratum must land on a recorded stratum that the closure
                    # relation already connects.  (The corpus realizes depth
                    # <= 1, so this loop certifies absence of deeper strata
                    # rather than exercising the drop.)
                    for i, stratum in enumerate(strata):
                        if stratum.depth < 2:
                            continue
                        for keep in range(len(stratum.intermediates)):
                            mids = (
                                stratum.intermediates[:keep]
                                + stratum.intermediates[keep + 1 :]
                            )
                            matches = [
                                j
                                for (m, _), j in by_signature.items()
                                if m == mids
                            ]
                            assert matches, (name, sp.key, i, mids)
                            assert any((i, j) in closure for j in matches), (
                                name,
                                sp.key,
                                i,
                            )
        assert product_strata >= 200, product_strata
        assert codim_strata == 1174, codim_strata


# A chain a > b > c whose lower space M(b>c) holds two declared points, at
# heights up to two above its slot: they must still stay below M(a>b).
CHAIN_FILE = """[critical]
a 3
b 2
c 0

[moduli a b]
component c0 shape Point

[moduli b c]
component c0 shape Circle

[declare M(b>c)]
critical n index 1 component c0
critical s index 0 component c0
"""


def _point_index(point) -> int:
    if isinstance(point, fc.CritPoint):
        return point.index
    return sum(_point_index(q) for q in point.pieces)


def test_criterion_6_flow_value_laws(emit):
    with emit(6, "flow values: chain order, additivity, stationary tails, termination"):
        towers = {**_corpus(), "chain": fc.build_tower(*fc.parse_tower_file(CHAIN_FILE))}
        for name, tower in towers.items():
            for level in range(1, tower.max_level + 1):
                groups: dict[fc.ModuliAddress | None, list] = {}
                for sp in tower.spaces(level):
                    for entry in sp.morse:
                        if entry.role == "stationary":
                            assert entry.value == 0 and entry.index == 0, (
                                name,
                                sp.key,
                            )
                            continue
                        assert entry.value > 0, (name, sp.key)
                        if isinstance(entry.point, fc.Broken):
                            pieces = entry.point.pieces
                            assert entry.value == sum(
                                fc.point_value(q) for q in pieces
                            ), (name, sp.key)
                            # Interval ends carry the boundary convention
                            # {max: 1, min: 0}; any deeper product adds up.
                            if entry.role == "end_max":
                                assert entry.index == 1, (name, sp.key)
                            elif entry.role == "end_min":
                                assert entry.index == 0, (name, sp.key)
                            else:
                                assert entry.role == "corner"
                                assert entry.index == sum(
                                    _point_index(q) for q in pieces
                                ), (name, sp.key)
                    if not sp.stationary:
                        groups.setdefault(sp.address.ambient, []).append(sp)
                # Chain order: whenever two sibling spaces share an endpoint,
                # everything upstream of it is strictly slower than anything
                # downstream, and both stay strictly positive.
                for siblings in groups.values():
                    for up in siblings:
                        for down in siblings:
                            if fc.point_key(up.address.target) != fc.point_key(
                                down.address.source
                            ):
                                continue
                            slow = min(e.value for e in up.morse)
                            fast = max(e.value for e in down.morse)
                            assert slow > fast > 0, (name, up.key, down.key)
            # Termination: at most (top base dimension + 1) levels hold any
            # live space, and a complete tower ends on a stationary level.
            fs = tower.base
            index = {p.id: p.index for p in fs.points}
            top_dim = max(index[s] - index[t] - 1 for s, t, _ in fs.pairs)
            live_levels = [
                level
                for level in range(1, tower.max_level + 1)
                if any(not sp.stationary for sp in tower.spaces(level))
            ]
            assert len(live_levels) <= top_dim + 1, (name, live_levels)
            assert tower.complete, name
            assert all(sp.stationary for sp in tower.spaces(tower.max_level)), name


def _association_chain(length: int) -> list[fc.Cell]:
    """A synthetic composable chain of `length` level-1 cells."""
    base = [
        fc.CritPoint(f"b{i}", index=i, value=Fraction(i + 1), home=None)
        for i in range(length + 1)
    ]
    cells = []
    for i in range(length, 0, -1):
        address = fc.ModuliAddress(
            source=base[i],
            target=base[i - 1],
            ambient=None,
        )
        top = fc.CritPoint(f"c{i}", index=0, value=Fraction(1, i + 1), home=address)
        cells.append(fc.Cell(top=top, space=address))
    return cells


def _association_trees(view: fc.GlobularSet, cells):
    if len(cells) == 1:
        yield cells[0]
        return
    for cut in range(1, len(cells)):
        for left in _association_trees(view, cells[:cut]):
            for right in _association_trees(view, cells[cut:]):
                yield view.compose(0, after=right, first=left)


def test_criterion_7_normal_form(emit):
    with emit(7, "normal form: idempotent, association-free, interchange-sound"):
        towers = _corpus()

        idempotent_cells = 0
        for tower in towers.values():
            for level in range(tower.max_level + 1):
                for cell in fc.extended_cells(tower, level):
                    once = fc.normalize(cell)
                    assert fc.normalize(once) == once
                    idempotent_cells += 1
        assert idempotent_cells == 5431, idempotent_cells

        # Every way of bracketing a chain of up to five pieces produces a
        # distinct raw tree and the same normal form.  Gluing reads only the
        # cells, so a view of any tower glues the synthetic chain.
        chain = _association_chain(5)
        glue = fc.GlobularSet(towers["deformed"])
        for size, tree_count in ((2, 1), (3, 2), (4, 5), (5, 14)):
            trees = list(_association_trees(glue, chain[:size]))
            assert len(trees) == tree_count
            assert len({fc.cell_key(t) for t in trees}) == tree_count
            assert len({fc.cell_key(fc.normalize(t)) for t in trees}) == 1

        # Interchange: both bracketings of every double-composite quadruple
        # normalize to the same cell, across the deformed sphere and every
        # random system in the corpus.
        quadruples = raw_distinct = 0
        for tower in [towers["deformed"]] + [
            towers[f"random{seed}"] for seed in SEEDS
        ]:
            view = fc.GlobularSet(tower)
            for level in range(2, view.n + 1):
                for p in range(1, level):
                    pairs = view.composable_pairs(level, p)
                    for q in range(p):
                        key = lambda c, side: fc.cell_key(view.boundary(q, c, side))
                        for high, high_first in pairs:
                            for low, low_first in pairs:
                                if key(high, "s") != key(low, "t"):
                                    continue
                                if key(high_first, "s") != key(low_first, "t"):
                                    continue
                                lhs = view.compose(
                                    q,
                                    after=view.compose(p, after=high, first=high_first),
                                    first=view.compose(p, after=low, first=low_first),
                                )
                                rhs = view.compose(
                                    p,
                                    after=view.compose(q, after=high, first=low),
                                    first=view.compose(
                                        q, after=high_first, first=low_first
                                    ),
                                )
                                assert fc.cell_key(fc.normalize(lhs)) == fc.cell_key(
                                    fc.normalize(rhs)
                                )
                                quadruples += 1
                                if fc.cell_key(lhs) != fc.cell_key(rhs):
                                    raw_distinct += 1
        assert quadruples == 1038, quadruples
        assert raw_distinct == 600, raw_distinct


@pytest.mark.parametrize("n", sorted(DEEP_SPHERES))
def test_criterion_8_deep_spheres(emit, n):
    with emit(8, f"sphere {n}: clean, counts independently recounted, fast"):
        t0 = time.perf_counter()
        tower = fc.build_tower(*fc.sphere_system(n))
        rep = fc.check_all(tower)
        assert rep.ok, rep.to_text()
        assert rep.instances == DEEP_SPHERES[n]
        assert report_counts(rep) == independent_tag_counts(tower)
        assert time.perf_counter() - t0 < 10.0, f"sphere {n} too slow"
