"""Cells, boundaries, gluing, identities, and the normal form."""

from __future__ import annotations

import re

import pytest

import flowcat as fc
from flowcat.core import ambient_of_point, breaking_key, stationary_point

from _helpers import boundary_key_raw, cell_map, find_cell, units


def _nkey(cell) -> str:
    return fc.cell_key(fc.normalize(cell))


class TestCellEnumeration:
    def test_native_counts(self, deformed_tower):
        assert [len(fc.cells(deformed_tower, lv)) for lv in range(4)] == [4, 8, 6, 6]

    def test_extended_adds_iterated_identities(self, deformed_tower):
        assert [len(fc.extended_cells(deformed_tower, lv)) for lv in range(4)] == [
            4,
            12,
            14,
            14,
        ]
        native = set(map(fc.cell_key, fc.cells(deformed_tower, 2)))
        extended = set(map(fc.cell_key, fc.extended_cells(deformed_tower, 2)))
        assert native < extended

    @pytest.mark.parametrize("level", [-1, 4])
    def test_view_refuses_a_level_outside_the_tower(self, deformed_view, level):
        with pytest.raises(ValueError, match=f"^level {level} out of range 0..3$"):
            deformed_view.cells(level)

    @pytest.mark.parametrize("listing", [fc.cells, fc.extended_cells])
    @pytest.mark.parametrize("level", [-1, 4, 9])
    def test_cell_lists_refuse_a_level_outside_the_tower(
        self, deformed_tower, listing, level
    ):
        # Cells exist at level 0, so the range is not the one of Tower.spaces.
        with pytest.raises(ValueError, match=f"^level {level} out of range 0..3$"):
            listing(deformed_tower, level)

    def test_view_exposes_native_cells(self, deformed_tower, deformed_view):
        for lv in range(4):
            assert set(deformed_view.cells(lv)) == set(fc.cells(deformed_tower, lv))

    def test_sphere_cell_counts_are_all_two(self, sphere_towers):
        for n, t in sphere_towers.items():
            for lv in range(n + 1):
                assert len(fc.cells(t, lv)) == 2


class TestBoundaries:
    def test_source_target_of_level_one(self, deformed_tower):
        c = find_cell(deformed_tower, 1, "x/y:c0 @ M(x>y)")
        assert fc.cell_key(fc.source(c)) == "x"
        assert fc.cell_key(fc.target(c)) == "y"

    def test_source_target_of_derived_cell(self, deformed_tower):
        p = find_cell(
            deformed_tower,
            2,
            "(x/y:c0,y/w:a)/(x/y:c0,y/w:b):0 @ M((x/y:c0,y/w:a)>(x/y:c0,y/w:b)|x>w)",
        )
        assert fc.cell_key(fc.source(p)) == "(x/y:c0,y/w:a) @ M(x>w)"
        assert fc.cell_key(fc.target(p)) == "(x/y:c0,y/w:b) @ M(x>w)"

    def test_boundary_of_base_cell_is_undefined(self, deformed_tower):
        w = find_cell(deformed_tower, 0, "w")
        with pytest.raises(ValueError, match="^a level-0 cell has no source$"):
            fc.source(w)
        with pytest.raises(ValueError, match="^a level-0 cell has no target$"):
            fc.target(w)

    def test_view_boundary_key_matches_raw_walk(self, deformed_tower, deformed_view):
        for lv in range(1, 4):
            for c in fc.cells(deformed_tower, lv):
                for q in range(lv):
                    got = fc.cell_key(deformed_view.boundary(q, c, "s"))
                    assert got == boundary_key_raw(c, q, "s")
                    got = fc.cell_key(deformed_view.boundary(q, c, "t"))
                    assert got == boundary_key_raw(c, q, "t")

    def test_view_boundary_at_the_cell_level_and_out_of_range(self, deformed_tower):
        # Both walks: the view's table, and the steps of an overridden map.
        view = fc.GlobularSet(deformed_tower)
        c0x = find_cell(deformed_tower, 1, "x/y:c0 @ M(x>y)")
        mutated = view.with_source(c0x, find_cell(deformed_tower, 0, "z"))
        for X in (view, mutated):
            for lv in range(4):
                for c in fc.cells(deformed_tower, lv):
                    assert X.boundary(lv, c, "s") is fc.normalize(c)
                    for q in (-1, lv + 1):
                        with pytest.raises(ValueError, match="out of range"):
                            X.boundary(q, c, "s")

    def test_view_boundary_refuses_a_side_other_than_s_or_t(self, deformed_tower):
        # Both walks: the raw table, and the steps of an overridden map.
        view = fc.GlobularSet(deformed_tower)
        c0x = find_cell(deformed_tower, 1, "x/y:c0 @ M(x>y)")
        z = find_cell(deformed_tower, 0, "z")
        for X in (view, view.with_source(c0x, z), view.with_target(c0x, z)):
            for side in ("target", "source", "S", "", None):
                message = f"side must be 's' or 't', got {side!r}"
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    X.boundary(0, c0x, side)
        assert fc.cell_key(view.boundary(0, c0x, "t")) == "y"
        assert fc.cell_key(view.boundary(0, c0x, "s")) == "x"

    def test_normal_form_commutes_with_the_raw_maps(
        self, deformed_tower, sphere_towers, random_towers
    ):
        # The view's walk table keys only normal cells on this invariant.
        towers = [deformed_tower, *sphere_towers.values()]
        towers += [fc.build_tower(*fc.sphere_system(4))]
        towers += [random_towers[s] for s in (3, 5, 12)]
        checked = 0
        for t in towers:
            view = fc.GlobularSet(t)
            for level in range(1, t.max_level + 1):
                cs = list(fc.extended_cells(t, level))
                for p in range(level):
                    cs += [view.compose(p, c, a) for c, a in view.composable_pairs(level, p)]
                for c in cs:
                    assert fc.normalize(fc.source(c)) is fc.source(fc.normalize(c))
                    assert fc.normalize(fc.target(c)) is fc.target(fc.normalize(c))
                    checked += fc.normalize(c) is not c
        assert checked

    @pytest.mark.parametrize("name", ["deformed", "sphere4"])
    def test_view_boundary_table_is_the_raw_boundaries(self, name, deformed_tower):
        tower = (
            deformed_tower if name == "deformed" else fc.build_tower(*fc.sphere_system(4))
        )
        view = fc.GlobularSet(tower)
        own = [c for level in range(1, view.n + 1) for c in view.cells(level)]
        ones = [
            view.identity(c)
            for level in range(view.n)
            for c in fc.extended_cells(tower, level)
        ]
        assert ones and all(one.level >= 1 for one in ones)
        for c in own + ones:
            sources, targets = view._walk(fc.normalize(c))
            assert sources[-2] is fc.normalize(fc.source(c))
            assert targets[-2] is fc.normalize(fc.target(c))
            assert view.s(c) is fc.source(c)
            assert view.t(c) is fc.target(c)

    def test_view_boundary_table_keeps_only_own_and_identity_cells(self, deformed_tower):
        view = fc.GlobularSet(deformed_tower)
        fc.check_all(view)
        own = {c for level in range(view.n + 1) for c in view.cells(level)}
        kept = set(view._walks)
        assert kept - own
        # Only normal cells are keys, and those are own cells or identities.
        extended = {c for lv in range(view.n + 1) for c in fc.extended_cells(deformed_tower, lv)}
        for c in kept:
            assert fc.normalize(c) is c
            assert c in extended
        after = find_cell(deformed_tower, 1, "y/w:a @ M(y>w)")
        padded = view.compose(0, after, fc.identity(find_cell(deformed_tower, 0, "y")))
        assert view.s(padded) is fc.source(padded)
        assert fc.normalize(padded) is not padded
        assert padded not in view._walks


class TestIdentities:
    def test_identity_raises_level_and_is_stationary(self, deformed_tower):
        c = find_cell(deformed_tower, 1, "y/w:a @ M(y>w)")
        one = fc.identity(c)
        assert one.level == c.level + 1
        assert fc.is_stationary(one)
        assert fc.cell_key(one) == "1(y/w:a) @ M(y/w:a>y/w:a|y>w)"

    def test_identity_boundaries_are_raw_exact(self, deformed_tower):
        for lv in range(0, 3):
            for c in fc.cells(deformed_tower, lv):
                one = fc.identity(c)
                assert fc.source(one) == c
                assert fc.target(one) == c

    def test_identity_of_identity_stacks(self, deformed_tower):
        w = find_cell(deformed_tower, 0, "w")
        two = fc.identity(fc.identity(w))
        assert two.level == 2
        assert fc.source(fc.source(two)) == w


class TestComposition:
    def test_golden_composite_is_the_max_end_raw(self, deformed_tower):
        first = find_cell(deformed_tower, 1, "x/y:c0 @ M(x>y)")
        after = find_cell(deformed_tower, 1, "y/w:a @ M(y>w)")
        glued = fc.GlobularSet(deformed_tower).compose(0, after=after, first=first)
        end = find_cell(deformed_tower, 1, "(x/y:c0,y/w:a) @ M(x>w)")
        assert glued == end

    def test_composable_agrees_with_boundary_keys(self, deformed_tower, deformed_view):
        cells1 = fc.cells(deformed_tower, 1)
        for c in cells1:
            for a in cells1:
                expect = boundary_key_raw(c, 0, "s") == boundary_key_raw(a, 0, "t")
                assert deformed_view.composable(0, c, a) == expect

    def test_composable_pair_counts(self, deformed_view):
        expect = {(1, 0): 4, (2, 0): 4, (2, 1): 4, (3, 0): 4, (3, 1): 4, (3, 2): 6}
        for (lv, p), count in expect.items():
            assert len(deformed_view.composable_pairs(lv, p)) == count

    def test_composable_pairs_keep_the_scan_order(self, deformed_tower, sphere_towers):
        for tower in (deformed_tower, *sphere_towers.values()):
            view = fc.GlobularSet(tower)
            for level in range(1, view.n + 1):
                cs = view.cells(level)
                for p in range(level):
                    scan = tuple(
                        (c, a) for c in cs for a in cs if view.composable(p, c, a)
                    )
                    assert view.composable_pairs(level, p) == scan

    def test_composable_pairs_are_empty_off_the_gluing_levels(self, deformed_view):
        X = deformed_view
        for level in range(X.n + 1):
            cs = X.cells(level)
            for p in range(-1, level + 2):
                scan = tuple((c, a) for c in cs for a in cs if X.composable(p, c, a))
                assert X.composable_pairs(level, p) == scan, (level, p)

    def test_view_keeps_only_composites_of_its_own_cells(self, deformed_tower):
        view = fc.GlobularSet(deformed_tower)
        fc.check_all(view)
        own = {c for level in range(view.n + 1) for c in view.cells(level)}
        assert view._composites
        for (p, after, first), glued in view._composites.items():
            assert after in own and first in own
            assert view.compose(p, after, first) is glued
        unit = fc.identity(find_cell(deformed_tower, 0, "y"))
        after = find_cell(deformed_tower, 1, "y/w:a @ M(y>w)")
        assert unit not in own
        view.compose(0, after, unit)
        assert (0, after, unit) not in view._composites

    def test_non_composable_pairs_raise(self, deformed_tower):
        first = find_cell(deformed_tower, 1, "x/y:c0 @ M(x>y)")
        after = find_cell(deformed_tower, 1, "y/w:a @ M(y>w)")
        two = find_cell(deformed_tower, 2, "1(y/w:a) @ M(y/w:a>y/w:a|y>w)")
        view = fc.GlobularSet(deformed_tower)
        # The view checks gluing through its boundary table, and its
        # normal-form composite refuses with the same text.
        for p, c, a in ((0, first, after), (1, first, after), (0, two, first)):
            with pytest.raises(ValueError) as raw:
                view.compose(p, after=c, first=a)
            with pytest.raises(ValueError) as viewed:
                view.normal_compose(p, c, a)
            assert str(viewed.value) == str(raw.value)
            if c is first and p == 0:
                assert str(raw.value) == (
                    "cells do not glue along level 0: the level-0 source of "
                    "x/y:c0 @ M(x>y) differs from the level-0 target of y/w:a @ M(y>w)"
                )
            elif c is first:
                assert str(raw.value) == "p 1 out of range 0..0 for level-1 cells"

    def test_out_of_range_p_and_level_0_pairs_name_the_cause(self, deformed_tower):
        first = find_cell(deformed_tower, 1, "x/y:c0 @ M(x>y)")
        after = find_cell(deformed_tower, 1, "y/w:a @ M(y>w)")
        two = find_cell(deformed_tower, 2, "1(y/w:a) @ M(y/w:a>y/w:a|y>w)")
        x, y = (find_cell(deformed_tower, 0, k) for k in "xy")
        level_0 = "level-0 cells do not compose: they have no boundary to glue along"
        view = fc.GlobularSet(deformed_tower)
        for p, a, f, message in (
            (-1, after, first, "p -1 out of range 0..0 for level-1 cells"),
            (5, after, first, "p 5 out of range 0..0 for level-1 cells"),
            (2, two, two, "p 2 out of range 0..1 for level-2 cells"),
            (0, y, x, level_0),
            (-1, x, x, level_0),
        ):
            assert not view.composable(p, a, f)
            for glue in (view.compose, view.normal_compose):
                with pytest.raises(ValueError) as err:
                    glue(p, a, f)
                assert str(err.value) == message

    def test_level_mismatch_raises(self, deformed_tower):
        one = find_cell(deformed_tower, 1, "x/y:c0 @ M(x>y)")
        base = find_cell(deformed_tower, 0, "w")
        view = fc.GlobularSet(deformed_tower)
        with pytest.raises(ValueError):
            view.compose(0, after=one, first=base)
        with pytest.raises(ValueError):
            view.compose(1, after=one, first=one)

    def test_cells_of_different_levels_raise_one_message(self, deformed_tower):
        one = find_cell(deformed_tower, 1, "x/y:c0 @ M(x>y)")
        two = find_cell(deformed_tower, 2, "1(y/w:a) @ M(y/w:a>y/w:a|y>w)")
        view = fc.GlobularSet(deformed_tower)
        for after, first, message in (
            (two, one, "1(y/w:a) @ M(y/w:a>y/w:a|y>w) is a level-2 cell and "
             "x/y:c0 @ M(x>y) a level-1 cell"),
            (one, two, "x/y:c0 @ M(x>y) is a level-1 cell and "
             "1(y/w:a) @ M(y/w:a>y/w:a|y>w) a level-2 cell"),
        ):
            for p in (0, 1, 5):
                assert not view.composable(p, after, first)
                for glue in (view.compose, view.normal_compose):
                    with pytest.raises(ValueError) as err:
                        glue(p, after, first)
                    assert str(err.value) == (
                        f"cells of different levels do not glue: {message}"
                    )

    def test_composites_are_cells_of_the_tower(self, deformed_tower, random_towers):
        # Composition is the inclusion of broken flow lines: the composite of
        # every composable pair normalizes onto a cell of its level or onto
        # an iterated identity of a lower cell.  A tower cut by max_level
        # must stay closed at its top level too.
        towers = [
            deformed_tower,
            *(fc.build_tower(*fc.sphere_system(n)) for n in range(1, 9)),
            *random_towers.values(),
            *(fc.build_tower(fc.random_system(seed)) for seed in range(20, 40)),
        ]
        systems = [
            (fc.deformed_sphere_system(),),
            *(fc.sphere_system(n) for n in range(1, 7)),
            *((fc.random_system(seed),) for seed in range(40)),
        ]
        cut = [
            fc.build_tower(*args, max_level=m)
            for args in systems
            for m in range(1, fc.build_tower(*args).max_level)
        ]
        assert len(cut) == 78 and not any(t.complete for t in cut)

        def glue_all(towers) -> int:
            glued = 0
            for t in towers:
                X = fc.GlobularSet(t)
                for level in range(1, t.max_level + 1):
                    ext = {fc.normalize(c) for c in fc.extended_cells(t, level)}
                    for p in range(level):
                        for C, A in X.composable_pairs(level, p):
                            composite = fc.normalize(X.compose(p, C, A))
                            assert composite in ext, (t.max_level, p, _nkey(C), _nkey(A))
                            glued += 1
            return glued

        assert glue_all(towers) == 679
        assert glue_all(cut) == 345

    def test_unit_composite_normalizes_to_the_cell(self, deformed_tower):
        c = find_cell(deformed_tower, 1, "x/y:c0 @ M(x>y)")
        unit = fc.identity(fc.source(c))
        glued = fc.GlobularSet(deformed_tower).compose(0, after=c, first=unit)
        assert _nkey(glued) == _nkey(c)
        assert fc.cell_key(glued) != fc.cell_key(c)  # raw shapes differ


class TestNormalize:
    def test_idempotent_on_every_extended_cell(self, deformed_tower, sphere_towers):
        towers = [deformed_tower, *sphere_towers.values()]
        for t in towers:
            for lv in range(t.max_level + 1):
                for c in fc.extended_cells(t, lv):
                    once = fc.normalize(c)
                    again = fc.normalize(once)
                    assert again == once

    def test_normal_form_of_a_tower_cell_is_the_cell(self, deformed_tower):
        c = find_cell(deformed_tower, 1, "x/y:c0 @ M(x>y)")
        nc = fc.normalize(c)
        assert isinstance(nc, fc.Cell)
        assert nc is c

    def test_unsorted_pieces_normalize_to_flow_order(self, deformed_tower):
        end = find_cell(deformed_tower, 1, "(x/y:c0,y/w:a) @ M(x>w)")
        up, down = end.top.pieces
        scrambled = fc.Cell(top=fc.Broken((down, up)), space=end.space)
        assert _nkey(scrambled) == fc.cell_key(end)

    def test_the_normal_form_is_the_left_fold_of_the_normal_join(self, deformed_tower):
        # Left-nested grouping of any pieces normalizes as the flat point.
        c_a = fc.identity(find_cell(deformed_tower, 1, "x/y:c0 @ M(x>y)")).top
        c_b = fc.identity(find_cell(deformed_tower, 1, "y/w:a @ M(y>w)")).top
        moving = [c.top for c in fc.cells(deformed_tower, 2) if not fc.is_stationary(c)]
        pieces = [c_a, c_b, *moving]
        for x in pieces:
            for y in pieces:
                for z in pieces:
                    flat = fc.normalize_point(fc.Broken((x, y, z)))
                    assert flat is fc.normalize_point(fc.Broken((fc.Broken((x, y)), z)))
        # Right-nested grouping agrees only on chains that glue.  c_b does not
        # glue to itself, so no composite reaches these two nodes: the join
        # drops a repeated support only when the supports are one node.
        flat = fc.normalize_point(fc.Broken((c_a, c_b, c_b)))
        assert fc.point_key(flat) == "1((x/y:c0,y/w:a,y/w:a))"
        right = fc.normalize_point(fc.Broken((c_a, fc.Broken((c_b, c_b)))))
        assert fc.point_key(right) == "1((x/y:c0,y/w:a))"

    def test_association_through_identities(self, deformed_tower, random_towers):
        # Every composable triple of extended cells, identities included, so
        # that gluings which pass through a corner constantly are bracketed
        # both ways: their constant supports merge one level down.
        towers = [
            deformed_tower,
            *(fc.build_tower(*fc.sphere_system(n)) for n in range(1, 5)),
            *(random_towers[seed] for seed in range(10)),
        ]
        count = 0
        for t in towers:
            X = fc.GlobularSet(t)
            for level in range(1, X.n + 1):
                # A stationary tower cell is also an identity: list it once.
                cs = set(fc.extended_cells(t, level))
                for p in range(level):
                    by_target: dict[fc.Cell, list[fc.Cell]] = {}
                    for a in cs:
                        by_target.setdefault(X.boundary(p, a, "t"), []).append(a)
                    firsts = {c: by_target.get(X.boundary(p, c, "s"), []) for c in cs}
                    for E in cs:
                        for C in firsts[E]:
                            for A in firsts[C]:
                                lhs = X.compose(p, X.compose(p, E, C), A)
                                rhs = X.compose(p, E, X.compose(p, C, A))
                                assert fc.normalize(lhs) is fc.normalize(rhs), (
                                    p, _nkey(E), _nkey(C), _nkey(A)
                                )
                                count += 1
        assert count == 1807

    def test_cell_key_is_injective_on_normal_cells(
        self, deformed_tower, sphere_towers, random_towers
    ):
        # The checker compares normal nodes; the CLI's cell lookup and the
        # report text speak keys, so one key must name one normal node.
        spheres = [*sphere_towers.values(), fc.build_tower(*fc.sphere_system(4))]
        total = 0
        for t in (deformed_tower, *spheres, *random_towers.values()):
            X = fc.GlobularSet(t)
            normal = set()
            for lv in range(t.max_level + 1):
                for c in fc.extended_cells(t, lv):
                    normal |= {fc.normalize(c), fc.normalize(fc.identity(c))}
                for p in range(lv):
                    pairs = X.composable_pairs(lv, p)
                    normal |= {fc.normalize(X.compose(p, *ca)) for ca in pairs}
            assert len({fc.cell_key(c) for c in normal}) == len(normal)
            total += len(normal)
        assert total > 1000


class TestNormalGlue:
    """The normal form is compositional: gluing normal forms gives the
    normal form of the raw composite."""

    def test_glue_of_normal_forms_is_the_normal_raw_composite(
        self, deformed_tower, sphere_towers, random_towers
    ):
        # Built here, not in a session fixture, so that they are freed: the
        # intern-table tests expect a new sphere_system(5) to grow the tables.
        deeper = [fc.build_tower(*fc.sphere_system(n)) for n in (4, 5)]
        constant = 0
        for t in (deformed_tower, *sphere_towers.values(), *deeper, *random_towers.values()):
            X = fc.GlobularSet(t)
            glued = [
                (p, C, A)
                for level in range(1, X.n + 1)
                for p in range(level)
                for C, A in X.composable_pairs(level, p)
            ]
            for _, p, A, tt, ss in units(X):
                glued += [(p, tt, A), (p, A, ss)]
            # Identities of a glued pair: every piece is constant.
            for level in range(1, X.n):
                for p in range(level):
                    for C, A in X.composable_pairs(level, p):
                        glued.append((p, X.identity(C), X.identity(A)))
            for p, after, first in glued:
                normal = X.normal_compose(p, after, first)
                assert normal is fc.normalize(X.compose(p, after, first))
                tops = (fc.normalize(after).top, fc.normalize(first).top)
                constant += all(map(fc.is_stationary, tops))
        assert constant > 0

    def test_glue_of_two_identities_is_constant(self, deformed_tower):
        view = fc.GlobularSet(deformed_tower)
        one = fc.identity(find_cell(deformed_tower, 0, "y"))
        two = fc.identity(one)
        for p, c in ((0, one), (1, two), (0, two)):
            normal = view.normal_compose(p, c, c)
            assert fc.is_stationary(normal.top)
            assert normal is fc.normalize(view.compose(p, c, c))


def _normal_points_by_level(tower: fc.Tower) -> dict[int, set]:
    """The tops and address endpoints of normal cells, by point level.

    The normal cells are the normal forms of the extended cells and of the
    composites of every composable pair.
    """
    X = fc.GlobularSet(tower)
    normal = [fc.normalize(c) for lv in range(X.n + 1) for c in fc.extended_cells(tower, lv)]
    normal += [
        X.normal_compose(p, C, A)
        for lv in range(1, X.n + 1)
        for p in range(lv)
        for C, A in X.composable_pairs(lv, p)
    ]
    by_level: dict[int, set] = {}
    for cell in normal:
        points = [cell.top]
        space = cell.space
        while space is not None:
            points += [space.source, space.target]
            space = space.ambient
        for x in points:
            home = fc.flatten_point(x)[0].home
            by_level.setdefault(0 if home is None else home.level, set()).add(x)
    return by_level


def _reference_join(x, y):
    """The normal join of two normal points, spelled out without the
    normalizer: the normal form of the raw join, as ``category._merge``
    must build it."""
    if fc.is_stationary(x) and fc.is_stationary(y):
        sx, sy = x.home.source, y.home.source
        if sx is sy:
            return x
        base = _reference_join(sx, sy)
        return stationary_point(base, ambient_of_point(base))
    moving = [q for z in (x, y) if not fc.is_stationary(z) for q in fc.flatten_point(z)]
    moving.sort(key=breaking_key)
    return moving[0] if len(moving) == 1 else fc.Broken(tuple(moving))


class TestMergeContract:
    def test_merge_is_the_normal_form_of_the_raw_join(
        self, deformed_tower, sphere_towers, random_towers
    ):
        import flowcat.category as category

        seen = dict.fromkeys(("same support", "different supports", "reordered"), 0)
        towers = [deformed_tower, *sphere_towers.values()]
        towers += [random_towers[seed] for seed in range(10)]
        for t in towers:
            for points in _normal_points_by_level(t).values():
                for x in points:
                    for y in points:
                        try:
                            want = _reference_join(x, y)
                        except ValueError as e:
                            # Constant points that stay constant down to
                            # two base points have no space to glue over.
                            with pytest.raises(ValueError, match=re.escape(str(e))):
                                category._merge(x, y)
                            continue
                        assert category._merge(x, y) is want
                        if fc.is_stationary(x) and fc.is_stationary(y):
                            same = x.home.source is y.home.source
                            seen["same support" if same else "different supports"] += 1
                        elif not (fc.is_stationary(x) or fc.is_stationary(y)):
                            pieces = fc.flatten_point(x) + fc.flatten_point(y)
                            keys = [breaking_key(q) for q in pieces]
                            seen["reordered"] += keys != sorted(keys)
        assert all(seen.values()), seen


class TestMutatedViews:
    def test_with_source_changes_only_the_view(self, deformed_tower, deformed_view):
        end = find_cell(deformed_tower, 1, "(x/y:c0,y/w:a) @ M(x>w)")
        z = find_cell(deformed_tower, 0, "z")
        mutated = deformed_view.with_source(end, z)
        assert mutated is not deformed_view
        assert fc.cell_key(mutated.s(end)) == "z"
        assert fc.cell_key(deformed_view.s(end)) == "x"
        assert fc.cell_key(fc.source(end)) == "x"
        # The overrides win over the view's walk table, which it shares.
        both = mutated.with_target(end, z)
        assert both._walks is deformed_view._walks
        assert fc.cell_key(both._raw_boundary(0, end, "s")) == "x"
        assert both.s(end) is z and both.t(end) is z
        assert fc.cell_key(both.boundary(0, end, "t")) == "z"
        assert both.composable_pairs(1, 0) != deformed_view.composable_pairs(1, 0)
        assert deformed_view.t(end) is fc.target(end)

    def test_with_identity_and_compose_overrides(self, deformed_tower, deformed_view):
        a = find_cell(deformed_tower, 1, "y/w:a @ M(y>w)")
        b_tail = find_cell(deformed_tower, 2, "1(y/w:b) @ M(y/w:b>y/w:b|y>w)")
        mutated = deformed_view.with_identity(a, b_tail)
        assert mutated.identity(a) == b_tail
        assert fc.cell_key(deformed_view.identity(a)) == (
            "1(y/w:a) @ M(y/w:a>y/w:a|y>w)"
        )

        first = find_cell(deformed_tower, 1, "x/y:c0 @ M(x>y)")
        after = find_cell(deformed_tower, 1, "y/w:a @ M(y>w)")
        end_b = find_cell(deformed_tower, 1, "(x/y:c0,y/w:b) @ M(x>w)")
        patched = deformed_view.with_compose(0, after, first, end_b)
        assert patched.compose(0, after, first) == end_b
        assert fc.cell_key(deformed_view.compose(0, after, first)) == (
            "(x/y:c0,y/w:a) @ M(x>w)"
        )

    def test_chained_overrides_all_answer(self, deformed_tower, deformed_view, monkeypatch):
        end_a = find_cell(deformed_tower, 1, "(x/y:c0,y/w:a) @ M(x>w)")
        end_b = find_cell(deformed_tower, 1, "(x/y:c0,y/w:b) @ M(x>w)")
        first = find_cell(deformed_tower, 1, "x/y:c0 @ M(x>y)")
        after = find_cell(deformed_tower, 1, "y/w:a @ M(y>w)")
        z = find_cell(deformed_tower, 0, "z")
        tail = find_cell(deformed_tower, 2, "1(y/w:b) @ M(y/w:b>y/w:b|y>w)")
        chained = (
            deformed_view.with_source(end_a, z)
            .with_identity(after, tail)
            .with_compose(0, after, first, end_b)
        )
        assert chained.s(end_a) is z
        assert chained.identity(after) is tail
        assert chained.compose(0, after, first) is end_b
        # The target map has no override, so it never normalizes.
        import flowcat.category as category

        keyed = []
        normal = category.normalize
        monkeypatch.setattr(category, "normalize", lambda c: keyed.append(c) or normal(c))
        assert chained.t(end_a) is fc.target(end_a) and keyed == []
        monkeypatch.undo()
        # Every other entry of every map, the target map included, is the
        # clean view's.
        for lv in range(1, chained.n + 1):
            for c in chained.cells(lv):
                assert chained.t(c) is deformed_view.t(c)
                if c is not end_a:
                    assert chained.s(c) is deformed_view.s(c)
        for lv in range(chained.n):
            for c in chained.cells(lv):
                if c is not after:
                    assert chained.identity(c) is deformed_view.identity(c)
        for C, A in deformed_view.composable_pairs(1, 0):
            if (C, A) != (after, first):
                assert chained.compose(0, C, A) is deformed_view.compose(0, C, A)

    def test_mutant_of_a_used_view_reports_as_one_of_a_fresh_view(self, deformed_tower):
        p_cell = find_cell(
            deformed_tower, 2,
            "(x/y:c0,y/w:a)/(x/y:c0,y/w:b):0 @ M((x/y:c0,y/w:a)>(x/y:c0,y/w:b)|x>w)",
        )
        a_cell = find_cell(deformed_tower, 1, "y/w:a @ M(y>w)")
        c0x = find_cell(deformed_tower, 1, "x/y:c0 @ M(x>y)")
        end_a = find_cell(deformed_tower, 1, "(x/y:c0,y/w:a) @ M(x>w)")
        s_a = find_cell(deformed_tower, 2, "1(y/w:a) @ M(y/w:a>y/w:a|y>w)")
        s_b = find_cell(deformed_tower, 2, "1(y/w:b) @ M(y/w:b>y/w:b|y>w)")
        z = find_cell(deformed_tower, 0, "z")

        def mutants(view):
            return [
                view.with_target(p_cell, c0x),
                view.with_source(end_a, z),
                view.with_identity(a_cell, s_b),
                view.with_compose(1, s_a, s_a, p_cell),
            ]

        used = fc.GlobularSet(deformed_tower)
        assert fc.check_all(used).ok
        assert used._composites
        for old, new in zip(mutants(used), mutants(fc.GlobularSet(deformed_tower))):
            assert old._composites is used._composites
            text = fc.check_all(old).to_text()
            assert "FAIL" in text
            assert text == fc.check_all(new).to_text()
