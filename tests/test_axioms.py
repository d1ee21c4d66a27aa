"""The composition-law checker: green on the corpus, red under mutation."""

from __future__ import annotations

from fractions import Fraction

import pytest

import flowcat as fc

from flowcat.axioms import _law_e

from _helpers import (
    count_lookups,
    find_cell,
    independent_tag_counts,
    reference_check_c,
    reference_check_d,
    report_counts,
    triples,
)

DEFORMED_EXPECT = {
    "globular": (44, 24),
    "a": (52, 52),
    "b": (36, 36),
    "c": (14, 0),
    "d": (76, 0),
    "e": (16, 4),
    "f": (12, 0),
}


class TestGreenCorpus:
    def test_deformed_counts_frozen(self, deformed_tower):
        rep = fc.check_all(deformed_tower)
        assert rep.ok
        got = {tr.tag: (tr.instances, tr.strict) for tr in rep.tags}
        assert got == DEFORMED_EXPECT
        assert rep.instances == 250

    def test_sphere_totals_frozen(self, sphere_towers):
        totals = {}
        for n, t in sphere_towers.items():
            rep = fc.check_all(t)
            assert rep.ok
            totals[n] = rep.instances
        assert totals == {1: 34, 2: 56, 3: 82}

    def test_counts_match_independent_recount(self, deformed_tower, sphere_towers):
        for t in (deformed_tower, *sphere_towers.values()):
            assert report_counts(fc.check_all(t)) == independent_tag_counts(t)

    def test_tower_and_view_agree(self, deformed_tower, deformed_view):
        assert (
            fc.check_all(deformed_tower).to_text()
            == fc.check_all(deformed_view).to_text()
        )

    def test_report_text_is_deterministic(self, deformed_tower):
        text = fc.check_all(deformed_tower).to_text()
        assert text == fc.check_all(deformed_tower).to_text()
        assert "PASS" in text and "FAIL" not in text

    def test_single_tag_entry_points(self, deformed_tower):
        rep = fc.check_all(deformed_tower)
        for tag in fc.AXIOM_TAGS:
            solo = fc.check_axiom(tag, deformed_tower)
            joint = rep.by_tag(tag)
            assert (solo.tag, solo.instances, solo.strict) == (
                joint.tag,
                joint.instances,
                joint.strict,
            )
        glob = fc.check_globular(deformed_tower)
        assert glob.instances == rep.by_tag("globular").instances

    def test_unknown_tag_rejected(self, deformed_tower):
        with pytest.raises(ValueError):
            fc.check_axiom("z", deformed_tower)
        with pytest.raises(ValueError, match="unknown axiom tag 'globular'"):
            fc.check_axiom("globular", deformed_tower)

    def test_report_has_no_unknown_tag(self, deformed_tower):
        report = fc.check_all(deformed_tower)
        with pytest.raises(KeyError, match="no report for tag 'z'"):
            report.by_tag("z")


def _mutants(tower, view):
    c2 = lambda key: find_cell(tower, 2, key)
    c1 = lambda key: find_cell(tower, 1, key)
    p_cell = c2(
        "(x/y:c0,y/w:a)/(x/y:c0,y/w:b):0 @ M((x/y:c0,y/w:a)>(x/y:c0,y/w:b)|x>w)"
    )
    a_cell = c1("y/w:a @ M(y>w)")
    c0x = c1("x/y:c0 @ M(x>y)")
    end_a = c1("(x/y:c0,y/w:a) @ M(x>w)")
    end_b = c1("(x/y:c0,y/w:b) @ M(x>w)")
    s_a = c2("1(y/w:a) @ M(y/w:a>y/w:a|y>w)")
    s_b = c2("1(y/w:b) @ M(y/w:b>y/w:b|y>w)")
    t_z = c2("1(z/y:c0) @ M(z/y:c0>z/y:c0|z>y)")
    z = find_cell(tower, 0, "z")
    return {
        # target of the x-side derived cell rerouted to a level-1 cell with
        # the wrong boundary: iterated targets disagree
        "globular": view.with_target(p_cell, c0x),
        # source of the max interval end rerouted to the base point z:
        # glued cells no longer share endpoints with their pieces
        "a": view.with_source(end_a, z),
        # identity of y/w:a answered by the stationary cell over y/w:b
        "b": view.with_identity(a_cell, s_b),
        # self-gluing of the stationary cell over y/w:a answered by the
        # x-side derived cell: re-associating the triple breaks down
        "c": view.with_compose(1, s_a, s_a, p_cell),
        # identity of x/y:c0 answered by the tail over z/y:c0: unit gluings
        # stop matching
        "d": view.with_identity(c0x, t_z),
        # same patched self-gluing, seen by the interchange quadruples
        "e": view.with_compose(1, s_a, s_a, p_cell),
        # identity of the max end answered by the identity of the min end:
        # gluing identities no longer matches the identity of the gluing
        "f": view.with_identity(end_a, view.identity(end_b)),
    }


class TestMutationSensitivity:
    def test_each_tag_has_a_failing_single_field_mutation(
        self, deformed_tower, deformed_view
    ):
        for tag, mutated in _mutants(deformed_tower, deformed_view).items():
            rep = fc.check_all(mutated)
            assert not rep.by_tag(tag).ok, f"mutation for {tag!r} did not trip it"
            assert any(f.tag == tag for f in rep.by_tag(tag).failures)

    def test_mutations_do_not_leak_into_the_clean_view(
        self, deformed_tower, deformed_view
    ):
        _mutants(deformed_tower, deformed_view)
        assert fc.check_all(deformed_view).ok

    def test_check_all_is_globular_then_each_tag(self, deformed_tower):
        clean = fc.GlobularSet(deformed_tower)
        for X in (clean, *_mutants(deformed_tower, clean).values()):
            assert fc.check_all(X).tags == (fc.check_globular(X),) + tuple(
                fc.check_axiom(tag, X) for tag in fc.AXIOM_TAGS
            )

    def test_failure_reports_carry_context(self, deformed_tower, deformed_view):
        mutated = _mutants(deformed_tower, deformed_view)["b"]
        rep = fc.check_all(mutated)
        failures = rep.by_tag("b").failures
        assert failures
        for f in failures:
            assert f.tag == "b"
            assert f.level >= 1
            assert f.cells
            assert str(f)

    def test_failing_report_text_says_fail(self, deformed_tower, deformed_view):
        mutated = _mutants(deformed_tower, deformed_view)["globular"]
        rep = fc.check_all(mutated)
        assert not rep.ok
        assert "FAIL" in rep.to_text()

    def test_compose_override_wins_over_the_parent_table(self, deformed_tower):
        # The c and e mutants patch the self-gluing of the stationary cell
        # over y/w:a, a composable pair whose composite a checked view has
        # already tabled.  The override must win over that table.
        parent = fc.GlobularSet(deformed_tower)
        fc.check_all(parent)
        s_a = find_cell(deformed_tower, 2, "1(y/w:a) @ M(y/w:a>y/w:a|y>w)")
        assert (1, s_a, s_a) in parent._composites
        fresh = _mutants(deformed_tower, fc.GlobularSet(deformed_tower))["c"]
        mutated = _mutants(deformed_tower, parent)["c"]
        text = fc.check_all(mutated).to_text()
        assert text == fc.check_all(fresh).to_text()
        assert text == fc.check_all(mutated).to_text()
        rep = fc.check_all(mutated)
        assert {t.tag for t in rep.tags if not t.ok} == {"a", "c", "d", "e", "f"}
        patched = "(x/y:c0,y/w:a)/(x/y:c0,y/w:b):0 @ M((x/y:c0,y/w:a)>(x/y:c0,y/w:b)|x>w)"
        assert [f.detail for f in rep.by_tag("c").failures] == [
            f"cells do not glue along level 1: the level-1 source of {patched} "
            "differs from the level-1 target of 1(y/w:a) @ M(y/w:a>y/w:a|y>w)"
        ]
        assert [f.detail for f in rep.by_tag("e").failures] == [
            f"cells do not glue along level 0: the level-0 source of {patched} "
            f"differs from the level-0 target of ({one}) @ M({base}>{base}|{down})"
            for one, base, down in (
                ("1(x/y:c0),1(x/y:c0)", "x/y:c0", "x>y"),
                ("1(z/y:c0),1(z/y:c0)", "z/y:c0", "z>y"),
            )
        ]
        assert fc.check_all(parent).ok

    def test_a_shared_table_never_leaks_an_override(self, deformed_tower):
        # The clean view fills the pair memo and the normal-composite table
        # first; each mutant, checked in the benchmark's order, must report
        # what the same mutation of a view that has checked nothing reports.
        clean = fc.GlobularSet(deformed_tower)
        assert fc.check_all(clean).ok
        for tag, mutated in _mutants(deformed_tower, clean).items():
            fresh = _mutants(deformed_tower, fc.GlobularSet(deformed_tower))[tag]
            got, want = fc.check_all(mutated), fc.check_all(fresh)
            assert got.to_text() == want.to_text(), tag
            assert [(t.tag, t.instances, t.strict) for t in got.tags] == [
                (t.tag, t.instances, t.strict) for t in want.tags
            ], tag
            # Only an s or t override changes the composable pairs.
            kind = next(iter(mutated._over))[0]
            assert mutated._normals is clean._normals, tag
            assert (mutated._pairs_memo is clean._pairs_memo) == (kind not in ("s", "t")), tag

    def test_a_derived_view_shares_the_pairs_of_its_own_parent(self, deformed_tower):
        clean = fc.GlobularSet(deformed_tower)
        c0x = find_cell(deformed_tower, 1, "x/y:c0 @ M(x>y)")
        a_cell = find_cell(deformed_tower, 1, "y/w:a @ M(y>w)")
        # y/w:a now ends at x, where x/y:c0 starts.
        moved = clean.with_target(a_cell, find_cell(deformed_tower, 0, "x"))
        unit = moved.with_identity(c0x, c0x)
        assert unit._pairs_memo is moved._pairs_memo is not clean._pairs_memo
        assert (c0x, a_cell) in unit.composable_pairs(1, 0)
        assert (c0x, a_cell) not in clean.composable_pairs(1, 0)


class TestFailureBranches:
    """Mutants that reach the checker's landing and identity-level failures."""

    @pytest.fixture
    def cells(self, deformed_tower):
        view = fc.GlobularSet(deformed_tower)
        c1 = lambda key: find_cell(deformed_tower, 1, key)
        p_cell = find_cell(
            deformed_tower,
            2,
            "(x/y:c0,y/w:a)/(x/y:c0,y/w:b):0 @ M((x/y:c0,y/w:a)>(x/y:c0,y/w:b)|x>w)",
        )
        one_x = view.identity(find_cell(deformed_tower, 0, "x"))
        return (
            view, p_cell, one_x, c1("(x/y:c0,y/w:a) @ M(x>w)"),
            c1("y/w:a @ M(y>w)"), c1("x/y:c0 @ M(x>y)"),
        )

    @staticmethod
    def _first_failure(view, tag):
        rep = fc.check_all(view).by_tag(tag)
        return rep.line(), rep.failures[0].detail

    def test_target_at_the_wrong_level(self, cells):
        view, _, _, end_a, _, c0x = cells
        assert self._first_failure(view.with_target(end_a, c0x), "globular") == (
            "globular: FAIL (2 instances) — 44 instances, 23 strictly equal",
            "target not a level-0 cell",
        )

    def test_target_at_the_right_level_outside_the_view(self, cells):
        # The identity of x is a level-1 cell that the view does not list.
        view, p_cell, one_x, _, _, _ = cells
        assert one_x.level == 1 and one_x not in view.cells(1)
        assert self._first_failure(view.with_target(p_cell, one_x), "globular") == (
            "globular: FAIL (1 instances) — 42 instances, 22 strictly equal",
            "target not a level-1 cell",
        )

    def test_identity_at_the_wrong_level(self, cells):
        view, _, _, _, a_cell, c0x = cells
        assert self._first_failure(view.with_identity(a_cell, c0x), "b") == (
            "b: FAIL (1 instances) — 35 instances, 34 strictly equal",
            "identity lands at level 1, expected 2",
        )

    def test_identities_of_a_gluable_pair_that_do_not_glue(self, cells):
        view, _, one_x, _, a_cell, _ = cells
        assert self._first_failure(view.with_identity(a_cell, one_x), "f") == (
            "f: FAIL (2 instances) — 12 instances, 0 strictly equal",
            "identities of a gluable pair do not glue",
        )

    def test_a_composite_that_does_not_glue_is_one_law_a_failure(self, deformed_tower):
        # The rerouted target makes six pairs composable under the view's maps
        # that do not glue raw: each is one failed instance, not one per side.
        mutated = _mutants(deformed_tower, fc.GlobularSet(deformed_tower))["globular"]
        rep = fc.check_axiom("a", mutated)
        assert rep.line() == "a: FAIL (6 instances) — 58 instances, 52 strictly equal"
        assert all("do not glue" in f.detail for f in rep.failures)


def _stray(cell: fc.Cell) -> fc.Cell:
    """A cell on the space of ``cell``'s normal form, so with its boundaries,
    whose point no tower holds."""

    space = fc.normalize(cell).space
    value = Fraction(0) if fc.is_stationary(space) else Fraction(1, 7)
    return fc.Cell(fc.CritPoint("stray", 0, value, space), space)


class TestComposeOverrideOutsideTheTower:
    """A ``with_compose`` override onto a well-bounded cell that is no cell of
    the tower: which laws catch it."""

    def test_below_the_top_level_laws_a_and_f_catch_it(
        self, deformed_tower, sphere_towers, random_towers
    ):
        # Law a glues the pair's identities one level up, whose boundaries
        # are the pair; law f compares the identity of the composite.
        caught = constant = 0
        for t in (deformed_tower, *sphere_towers.values(), *random_towers.values()):
            X = fc.GlobularSet(t)
            for level in range(1, X.n):
                tower_cells = {fc.normalize(c) for c in fc.extended_cells(t, level)}
                for p in range(level):
                    for C, A in X.composable_pairs(level, p):
                        stray = _stray(X.compose(p, C, A))
                        if fc.normalize(stray) in tower_cells:
                            constant += 1
                            continue
                        rep = fc.check_all(X.with_compose(p, C, A, stray))
                        assert {r.tag for r in rep.tags if not r.ok} == {"a", "f"}
                        caught += 1
        assert (caught, constant) == (52, 129)

    def test_at_the_top_level_every_composite_is_constant(
        self, deformed_tower, sphere_towers, random_towers
    ):
        # A constant point has one normal form over its support, so a cell
        # with the boundaries of a constant composite normalizes onto it:
        # there is no stray cell to override with.
        for t in (deformed_tower, *sphere_towers.values(), *random_towers.values()):
            X = fc.GlobularSet(t)
            for p in range(X.n):
                for C, A in X.composable_pairs(X.n, p):
                    glued = fc.normalize(X.compose(p, C, A))
                    assert fc.is_stationary(glued)
                    assert fc.normalize(_stray(glued)) is glued
        X = fc.GlobularSet(deformed_tower)
        C, A = X.composable_pairs(X.n, 0)[0]
        assert fc.check_all(X.with_compose(0, C, A, _stray(X.compose(0, C, A)))).ok

    def test_no_law_catches_it_at_the_top_of_a_cut_tower(self, deformed_fs):
        # Cut at level 1, the top composites move; no law glues them again,
        # so closure there is guarded by the tests alone.
        X = fc.GlobularSet(fc.build_tower(deformed_fs, max_level=1))
        pairs = X.composable_pairs(1, 0)
        assert len(pairs) == 4
        for C, A in pairs:
            stray = _stray(X.compose(0, C, A))
            assert not fc.is_stationary(stray)
            assert fc.check_all(X.with_compose(0, C, A, stray)).ok


def _count_joins(monkeypatch):
    """Patch ``category._join`` to record its calls; returns the record."""
    import flowcat.category as category

    joins = []
    raw_join = category._join
    monkeypatch.setattr(
        category, "_join", lambda x, y: joins.append((x, y)) or raw_join(x, y)
    )
    return joins


class TestUnitLawReference:
    """Law d on normal forms against the raw-composite reference checker."""

    def test_matches_the_reference_on_clean_towers(
        self, deformed_tower, sphere_towers, random_towers
    ):
        spheres = [*sphere_towers.values(), fc.build_tower(*fc.sphere_system(4))]
        for t in (deformed_tower, *spheres, *random_towers.values()):
            rep = fc.check_axiom("d", fc.GlobularSet(t))
            assert rep.ok and rep.strict == 0
            assert rep == reference_check_d(fc.GlobularSet(t))

    def test_matches_the_reference_on_the_mutants(self, deformed_tower):
        mutants = _mutants(deformed_tower, fc.GlobularSet(deformed_tower))
        assert len(mutants) == 7
        for tag, mutated in mutants.items():
            assert fc.check_axiom("d", mutated) == reference_check_d(mutated), tag
        assert not fc.check_axiom("d", mutants["d"]).ok

    def _left_unit_of_c0(self, tower):
        view = fc.GlobularSet(tower)
        c0x = find_cell(tower, 1, "x/y:c0 @ M(x>y)")
        return view, c0x, view.identity(view.t(c0x))

    def test_unit_override_by_the_cell_itself_is_one_strict_instance(
        self, deformed_tower
    ):
        view, c0x, unit = self._left_unit_of_c0(deformed_tower)
        mutated = view.with_compose(0, unit, c0x, c0x)
        rep = fc.check_axiom("d", mutated)
        assert rep.ok
        assert (rep.instances, rep.strict) == (76, 1)
        assert rep == reference_check_d(mutated)

    def test_unit_override_by_a_wrong_cell_is_one_left_unit_failure(
        self, deformed_tower
    ):
        view, c0x, unit = self._left_unit_of_c0(deformed_tower)
        end_a = find_cell(deformed_tower, 1, "(x/y:c0,y/w:a) @ M(x>w)")
        mutated = view.with_compose(0, unit, c0x, end_a)
        rep = fc.check_axiom("d", mutated)
        assert [f.detail for f in rep.failures] == [
            "left unit: (x/y:c0,y/w:a) @ M(x>w)  !=  x/y:c0 @ M(x>y)"
        ]
        assert (rep.instances, rep.strict) == (76, 0)
        assert rep == reference_check_d(mutated)

    def test_builds_no_raw_composite_without_an_override(
        self, deformed_tower, monkeypatch
    ):
        joins = _count_joins(monkeypatch)
        rep = fc.check_axiom("d", fc.GlobularSet(deformed_tower))
        assert rep.ok and rep.instances == 76
        assert joins == []
        # The patched join is the one that raw composites go through.
        c0x = find_cell(deformed_tower, 1, "x/y:c0 @ M(x>y)")
        fc.GlobularSet(deformed_tower).compose(0, c0x, fc.identity(fc.source(c0x)))
        assert joins

    @pytest.mark.parametrize("name", ["deformed", "sphere4"])
    def test_unit_law_interns_nothing_the_second_time(
        self, name, deformed_tower, monkeypatch
    ):
        tower = (
            deformed_tower if name == "deformed" else fc.build_tower(*fc.sphere_system(4))
        )
        X = fc.GlobularSet(tower)
        first = fc.check_axiom("d", X)
        # Every node the unit law glues is part of a live normal form, so a
        # second run finds each one in its intern table.
        lookups = count_lookups(monkeypatch)
        assert fc.check_axiom("d", X) == first
        misses = [cls for cls, found in lookups if not found]
        assert misses == []

    @pytest.mark.parametrize("name", ["deformed", "sphere8"])
    def test_unit_composite_is_the_held_normal_cell(
        self, name, deformed_tower, monkeypatch
    ):
        tower = (
            deformed_tower if name == "deformed" else fc.build_tower(*fc.sphere_system(8))
        )
        X = fc.GlobularSet(tower)
        # Every identity stack and every walk first, so that the gluing
        # below finds each node it reads in the view or on the node.
        units = []
        for level in range(1, X.n + 1):
            for A in X.cells(level):
                sources, targets = X.boundaries(A)
                for p in range(level):
                    tt, ss = targets[p], sources[p]
                    for _ in range(level - p):
                        tt, ss = X.identity(tt), X.identity(ss)
                    for unit in (tt, ss):
                        X.boundaries(unit)
                    units += [(p, tt, A, A), (p, A, ss, A)]
        assert len(units) == fc.check_axiom("d", fc.GlobularSet(tower)).instances
        calls = count_lookups(monkeypatch)
        for p, after, first, A in units:
            assert X.normal_compose(p, after, first) is fc.normalize(A)
        # The unit composite is the normal form of A, held by the view: the
        # gluing looks up and builds no node.
        assert calls == []

    def test_identity_stacks_walk_without_lookups(self, monkeypatch):
        # The view's identity fills the walk entry of each identity of a
        # walked cell from the cell's, so no stack entry's walk finds its
        # support again through the intern tables.
        X = fc.GlobularSet(fc.build_tower(*fc.sphere_system(8)))
        stacks = []
        for level in range(1, X.n + 1):
            for A in X.cells(level):
                sources, targets = X.boundaries(A)
                for p in range(level):
                    tt, ss = targets[p], sources[p]
                    for _ in range(level - p):
                        tt, ss = X.identity(tt), X.identity(ss)
                        stacks += [tt, ss]
        lookups = count_lookups(monkeypatch)
        for unit in stacks:
            sources, targets = X.boundaries(unit)
            assert sources[-1] is targets[-1] is fc.normalize(unit) is unit
        assert stacks and lookups == []

    def test_identity_walk_entry_is_kept_for_normal_identities_only(self, deformed_tower):
        # A hand-built normal cell whose broken top does not bound its space:
        # its raw identity is not normal, so its walk is that of its normal
        # form, which the view's identity must not fill from the cell's.
        X = fc.GlobularSet(deformed_tower)
        end = find_cell(deformed_tower, 1, "(x/y:c0,y/w:a) @ M(x>w)")
        odd = fc.Cell(end.top, find_cell(deformed_tower, 1, "x/y:c0 @ M(x>y)").space)
        assert fc.normalize(odd) is odd and X.boundaries(odd)
        unit = X.identity(odd)
        assert fc.normalize(unit) is not unit
        assert X.boundaries(unit)[0][-1] is fc.normalize(unit)


class TestAssociativityReference:
    """Law c on normal forms against the raw-composite reference checker."""

    def test_matches_the_reference_on_clean_towers(
        self, deformed_tower, sphere_towers, random_towers
    ):
        spheres = [*sphere_towers.values(), fc.build_tower(*fc.sphere_system(4))]
        for t in (deformed_tower, *spheres, *random_towers.values()):
            rep = fc.check_axiom("c", fc.GlobularSet(t))
            assert rep.ok and rep.strict == 0
            assert rep == reference_check_c(fc.GlobularSet(t))

    def test_matches_the_reference_on_the_mutants(self, deformed_tower):
        mutants = _mutants(deformed_tower, fc.GlobularSet(deformed_tower))
        assert len(mutants) == 7
        for tag, mutated in mutants.items():
            assert fc.check_axiom("c", mutated) == reference_check_c(mutated), tag
        assert not fc.check_axiom("c", mutants["c"]).ok

    def test_inner_overrides_make_an_instance_strict(self, deformed_tower):
        view = fc.GlobularSet(deformed_tower)
        _, p, E, C, A = next(triples(view))
        # E∘C := E and C∘A := A make both sides the raw E∘A.  Every triple
        # of these towers glues one cell to itself, so the two overrides
        # are one entry.
        mutated = view.with_compose(p, E, C, E).with_compose(p, C, A, A)
        rep = fc.check_axiom("c", mutated)
        assert rep.ok
        assert (rep.instances, rep.strict) == (14, 1)
        assert rep == reference_check_c(mutated)

    def test_outer_override_by_the_other_side_is_strict(self, deformed_tower):
        view = fc.GlobularSet(deformed_tower)
        _, p, E, C, A = next(triples(view))
        right = view.compose(p, E, view.compose(p, C, A))
        mutated = view.with_compose(p, view.compose(p, E, C), A, right)
        rep = fc.check_axiom("c", mutated)
        assert rep.ok
        assert (rep.instances, rep.strict) == (14, 1)
        assert rep == reference_check_c(mutated)

    def test_builds_no_raw_composite_without_an_override(
        self, deformed_tower, sphere_towers, monkeypatch
    ):
        joins = _count_joins(monkeypatch)
        for t in (deformed_tower, *sphere_towers.values()):
            X = fc.GlobularSet(t)
            # Law a fills the view's table with the inner composites.
            fc.check_axiom("a", X)
            joins.clear()
            rep = fc.check_axiom("c", X)
            assert rep.ok and rep.instances > 0
            assert joins == []


class TestWorkAtDepth:
    def test_check_all_walks_each_boundary_and_identity_stack_once(self, monkeypatch):
        # Counted on a fresh view of sphere_system(32); rebuilding iterated
        # boundaries, identity stacks and glued unit addresses per instance
        # made 447,832 s/t calls, 26,246 identity calls and 26,186 glue frames.
        import flowcat.category as category

        calls = {"s": 0, "t": 0, "identity": 0, "glue": 0}

        def counting(fn, name):
            def counted(*args):
                calls[name] += 1
                return fn(*args)

            return counted

        for name in ("s", "t", "identity"):
            monkeypatch.setattr(
                fc.GlobularSet, name, counting(getattr(fc.GlobularSet, name), name)
            )
        monkeypatch.setattr(
            category, "_glue_address", counting(category._glue_address, "glue")
        )
        rep = fc.check_all(fc.GlobularSet(fc.build_tower(*fc.sphere_system(32))))
        assert rep.to_text() == "\n".join(
            [
                "globular: PASS — 194 instances, 128 strictly equal",
                "a: PASS — 4 instances, 4 strictly equal",
                "b: PASS — 132 instances, 132 strictly equal",
                "c: PASS — 2 instances, 0 strictly equal",
                "d: PASS — 2244 instances, 0 strictly equal",
                "e: PASS — 0 instances, 0 strictly equal",
                "f: PASS — 0 instances, 0 strictly equal",
            ]
        )
        assert calls["s"] + calls["t"] <= 10_000
        assert calls["identity"] <= 2_500
        assert calls["glue"] <= 5_000

    def test_law_d_reads_the_walk_table(self, deformed_tower, monkeypatch):
        # Each unit's boundary is the view's walk-table entry, so on a view
        # with no s or t override law d never steps those maps.
        calls = []
        for name in ("s", "t"):
            step = getattr(fc.GlobularSet, name)
            monkeypatch.setattr(
                fc.GlobularSet,
                name,
                lambda view, cell, step=step: calls.append(cell) or step(view, cell),
            )
        for t in (deformed_tower, fc.build_tower(*fc.sphere_system(8))):
            rep = fc.check_axiom("d", fc.GlobularSet(t))
            assert rep.ok and rep.instances > 0
        assert calls == []


def _law_e_instances(X):
    """Each law-e instance of ``X`` with its two raw sides and the inner
    composites they glue."""

    for _, p, q, (H, E, C, A), _, _ in _law_e(X):
        HE, CA = X.compose(p, H, E), X.compose(p, C, A)
        HC, EA = X.compose(q, H, C), X.compose(q, E, A)
        raw = (X.compose(q, HE, CA), X.compose(p, HC, EA))
        yield p, q, (H, E, C, A), (HE, CA, HC, EA), raw


class TestInterchangeShortcut:
    """Law e on normal forms, with raw sides only where they can be one node."""

    @pytest.fixture(scope="class")
    def views(self, deformed_tower, random_towers):
        towers = [deformed_tower, *random_towers.values()]
        towers += [fc.build_tower(fc.random_system(seed)) for seed in range(20, 40)]
        return [fc.GlobularSet(t) for t in towers]

    def test_distinct_middle_tops_give_distinct_raw_sides(self, views):
        seen = same_top = 0
        for X in views:
            for _, _, (H, E, C, A), _, (lhs, rhs) in _law_e_instances(X):
                seen += 1
                if C.top is E.top:
                    same_top += 1
                else:
                    assert lhs is not rhs
        assert seen > same_top > 0

    def test_normal_sides_are_the_normal_forms_of_the_raw_sides(self, views):
        for X in views:
            for p, q, _, (HE, CA, HC, EA), (lhs, rhs) in _law_e_instances(X):
                assert X.normal_compose(q, HE, CA) is fc.normalize(lhs)
                assert X.normal_compose(p, HC, EA) is fc.normalize(rhs)

    def test_interchange_interns_only_the_same_top_raw_sides(
        self, deformed_tower, monkeypatch
    ):
        X = fc.GlobularSet(deformed_tower)
        first = fc.check_axiom("e", X)
        same_top = sum(C.top is E.top for *_, (H, E, C, A), _, _ in _law_e(X))
        # A second run finds every normal side and inner composite in the
        # view's tables; only the raw outer cell and its broken top of each
        # instance whose C and E share a top are built again.
        lookups = count_lookups(monkeypatch)
        assert fc.check_axiom("e", X) == first
        misses = [cls for cls, found in lookups if not found]
        assert (first.strict, same_top) == (4, 4)
        assert sorted(misses) == ["Broken"] * same_top + ["Cell"] * same_top
