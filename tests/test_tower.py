"""Tower construction: Morse data, derived spaces, termination, declarations."""

from __future__ import annotations

from fractions import Fraction

import pytest

import flowcat as fc

from _helpers import four_grade_system, space_at
from test_acceptance import _corpus


def _morse(tower: fc.Tower, level: int, space_key: str) -> dict[str, fc.MorseEntry]:
    sp = space_at(tower, level, space_key)
    return {fc.point_key(e.point): e for e in sp.morse}


class TestDeformedLevelOne:
    def test_space_keys(self, deformed_tower):
        assert [sp.key for sp in deformed_tower.spaces(1)] == [
            "M(x>w)",
            "M(x>y)",
            "M(y>w)",
            "M(z>w)",
            "M(z>y)",
        ]

    def test_point_component_values_are_slot_plus_tag(self, deformed_tower):
        assert _morse(deformed_tower, 1, "M(x>y)")["x/y:c0"].value == Fraction(65, 16)
        assert _morse(deformed_tower, 1, "M(z>y)")["z/y:c0"].value == Fraction(161, 32)
        yw = _morse(deformed_tower, 1, "M(y>w)")
        assert yw["y/w:a"].value == Fraction(9, 4)
        assert yw["y/w:b"].value == Fraction(17, 8)
        assert {e.role for e in yw.values()} == {"point"}

    def test_values_on_upstream_spaces_dominate_downstream(self, deformed_tower):
        up = min(e.value for e in _morse(deformed_tower, 1, "M(x>y)").values())
        down = max(e.value for e in _morse(deformed_tower, 1, "M(y>w)").values())
        assert up > down > 0

    def test_interval_end_entries(self, deformed_tower):
        xw = _morse(deformed_tower, 1, "M(x>w)")
        hi = xw["(x/y:c0,y/w:a)"]
        lo = xw["(x/y:c0,y/w:b)"]
        assert (hi.role, lo.role) == ("end_max", "end_min")
        assert (hi.index, lo.index) == (1, 0)
        assert hi.value == Fraction(65, 16) + Fraction(9, 4) == Fraction(101, 16)
        assert lo.value == Fraction(65, 16) + Fraction(17, 8) == Fraction(99, 16)
        zw = _morse(deformed_tower, 1, "M(z>w)")
        assert zw["(z/y:c0,y/w:a)"].value == Fraction(233, 32)
        assert zw["(z/y:c0,y/w:b)"].value == Fraction(229, 32)

    def test_all_values_within_a_level_are_distinct(self, deformed_tower):
        for level in range(1, deformed_tower.max_level + 1):
            live = [
                e.value
                for sp in deformed_tower.spaces(level)
                for e in sp.morse
                if e.role != "stationary"
            ]
            assert len(live) == len(set(live))


class TestDeformedHigherLevels:
    def test_level_two_spaces(self, deformed_tower):
        keys = [sp.key for sp in deformed_tower.spaces(2)]
        assert keys == [
            "M((x/y:c0,y/w:a)>(x/y:c0,y/w:b)|x>w)",
            "M((z/y:c0,y/w:a)>(z/y:c0,y/w:b)|z>w)",
            "M(x/y:c0>x/y:c0|x>y)",
            "M(y/w:a>y/w:a|y>w)",
            "M(y/w:b>y/w:b|y>w)",
            "M(z/y:c0>z/y:c0|z>y)",
        ]
        stat = [sp.stationary for sp in deformed_tower.spaces(2)]
        assert stat == [False, False, True, True, True, True]

    def test_derived_point_spaces_are_singletons(self, deformed_tower):
        p = _morse(deformed_tower, 2, "M((x/y:c0,y/w:a)>(x/y:c0,y/w:b)|x>w)")
        q = _morse(deformed_tower, 2, "M((z/y:c0,y/w:a)>(z/y:c0,y/w:b)|z>w)")
        assert len(p) == 1 and len(q) == 1
        (pe,) = p.values()
        (qe,) = q.values()
        assert pe.value == Fraction(5, 4) and pe.index == 0 and pe.role == "point"
        assert qe.value == Fraction(17, 8) and qe.index == 0 and qe.role == "point"

    def test_stationary_tails_have_zero_value(self, deformed_tower):
        for sp in deformed_tower.spaces(3):
            assert sp.stationary
            for e in sp.morse:
                assert e.role == "stationary"
                assert e.value == 0 and e.index == 0

    def test_tower_terminates_once_all_spaces_are_stationary(self, deformed_tower):
        assert deformed_tower.max_level == 3
        assert deformed_tower.complete
        assert all(sp.stationary for sp in deformed_tower.spaces(3))
        with pytest.raises(ValueError):
            deformed_tower.spaces(4)

    def test_space_lookup_by_key(self, deformed_tower):
        for level in range(1, deformed_tower.max_level + 1):
            keys = [sd.key for sd in deformed_tower.spaces(level)]
            assert len(set(keys)) == len(keys)
            for sd in deformed_tower.spaces(level):
                assert space_at(deformed_tower, level, sd.key) is sd
        assert "M(w>x)" not in [sd.key for sd in deformed_tower.spaces(1)]
        with pytest.raises(ValueError):
            deformed_tower.spaces(4)

    def test_derived_table_links_parent_entries(self, deformed_tower):
        sp = space_at(deformed_tower, 1, "M(x>w)")
        assert len(sp.derived) == 1
        src, tgt, comps = sp.derived[0]
        assert src == "(x/y:c0,y/w:a)" and tgt == "(x/y:c0,y/w:b)"
        assert [c.dim for c in comps] == [0]


class TestSphereTowers:
    def test_sphere_one(self, sphere_towers):
        t = sphere_towers[1]
        assert t.max_level == 2 and t.complete
        entries = _morse(t, 1, "M(N>S)")
        assert entries["N/S:c0"].value == Fraction(5, 4)
        assert entries["N/S:c1"].value == Fraction(9, 8)
        assert {e.role for e in entries.values()} == {"point"}
        assert all(sp.stationary for sp in t.spaces(2))

    def test_sphere_two_declared_points(self, sphere_towers):
        t = sphere_towers[2]
        entries = _morse(t, 1, "M(N>S)")
        assert entries["hi1"].index == 1 and entries["hi1"].value == Fraction(13, 4)
        assert entries["lo1"].index == 0 and entries["lo1"].value == Fraction(17, 8)
        assert {e.role for e in entries.values()} == {"declared"}
        circle = _morse(t, 2, "M(hi1>lo1|N>S)")
        assert circle["hi1/lo1:0"].value == Fraction(5, 4)
        assert circle["hi1/lo1:1"].value == Fraction(9, 8)

    def test_sphere_three_iterates_three_nontrivial_levels(self, sphere_towers):
        t = sphere_towers[3]
        assert t.max_level == 4 and t.complete
        assert [sp.key for sp in t.spaces(2)] == ["M(hi1>lo1|N>S)"]
        assert [sp.key for sp in t.spaces(3)] == ["M(hi2>lo2|hi1>lo1;N>S)"]
        assert all(sp.stationary for sp in t.spaces(4))
        nontrivial = [
            lv
            for lv in range(1, t.max_level + 1)
            if any(not sp.stationary for sp in t.spaces(lv))
        ]
        fs = t.base
        index = {p.id: p.index for p in fs.points}
        base_dim = max(index[s] - index[x] - 1 for s, x, _ in fs.pairs)
        assert len(nontrivial) <= base_dim + 1

    def test_repr_grows_polynomially_with_depth(self):
        # A point's repr leaves out its home, the space printed around it;
        # printing the home chain with every point made n = 10 take 157 MB.
        assert len(repr(fc.build_tower(*fc.sphere_system(10)))) < 100_000

    def test_sibling_ambients_keep_their_own_points(self):
        # Both circles declare points named n and s, so the level-2 spaces
        # M(n>s|N>S) and M(n>s|M>S) have ends with the same point keys.
        fs = fc.flow_system(
            [("N", 2), ("M", 2), ("S", 0)],
            {("N", "S"): [("c0", fc.CIRCLE, ())], ("M", "S"): [("c0", fc.CIRCLE, ())]},
        )
        poles = fc.ComponentDecl(points=(fc.DeclaredPoint("n", 1), fc.DeclaredPoint("s", 0)))
        decls = fc.Declarations.build({("M(N>S)", "c0"): poles, ("M(M>S)", "c0"): poles})
        t = fc.build_tower(fs, decls)
        values = []
        for key in ("M(n>s|M>S)", "M(n>s|N>S)"):
            morse = space_at(t, 2, key).morse
            assert [fc.point_key(e.point) for e in morse] == ["n/s:0", "n/s:1"]
            assert {fc.address_key(e.point.home) for e in morse} == {key}
            values += [e.value for e in morse]
        assert len(set(values)) == 4


class TestPointNodes:
    def test_critical_points_are_the_point_nodes(
        self, deformed_tower, sphere_towers, random_towers
    ):
        # A level-0 cell's top is the base point itself, and every critical
        # point a round mints lives on its own space.
        for t in (deformed_tower, *sphere_towers.values(), *random_towers.values()):
            tops = [c.top for c in fc.cells(t, 0)]
            assert sorted(map(id, tops)) == sorted(map(id, t.base.points))
            minted = 0
            for level in range(1, t.max_level + 1):
                for sp in t.spaces(level):
                    for e in sp.morse:
                        if isinstance(e.point, fc.CritPoint):
                            assert e.point.home is sp.address, (sp.key, e)
                            minted += 1
                        else:
                            assert e.role in ("corner", "end_max", "end_min"), (sp.key, e)
            assert minted >= len(t.spaces(t.max_level))


def _at_level(addr: fc.ModuliAddress | None, level: int) -> fc.ModuliAddress | None:
    """The address of ``addr``'s ambient chain at ``level``; None at level 0."""

    while addr is not None and addr.level > level:
        addr = addr.ambient
    return addr


class TestAmbientChain:
    """Every space names the space that holds its endpoints, one level down."""

    def test_ambients_are_spaces_one_level_down(self, deformed_tower, random_towers):
        # Built here, not in a session fixture, so that it is freed: the
        # intern-table tests expect a new sphere_system(5) to grow the tables.
        sphere = fc.build_tower(*fc.sphere_system(4))
        for t in (deformed_tower, sphere, *random_towers.values()):
            below: set[fc.ModuliAddress] = set()
            for level in range(1, t.max_level + 1):
                here = {sp.address for sp in t.spaces(level)}
                for addr in here:
                    assert addr.level == level
                    if level == 1:
                        assert addr.ambient is None
                    else:
                        # Nodes are interned: membership is identity.
                        assert addr.ambient in below
                        assert addr.level == addr.ambient.level + 1
                below = here
            X = fc.GlobularSet(t)
            for level in range(2, t.max_level + 1):
                for c in fc.extended_cells(t, level):
                    assert fc.source(c).space is c.space.ambient
                    assert fc.target(c).space is c.space.ambient
                for p in range(level - 1):
                    for C, A in X.composable_pairs(level, p):
                        glued = X.compose(p, C, A).space
                        assert glued.level == level
                        assert _at_level(glued, p) is _at_level(A.space, p)
                        joint = _at_level(glued, p + 1)
                        assert joint.source is _at_level(A.space, p + 1).source
                        assert joint.target is _at_level(C.space, p + 1).target


class TestBuildControls:
    def test_max_level_truncation(self, deformed_fs):
        t = fc.build_tower(deformed_fs, max_level=1)
        assert t.max_level == 1
        assert not t.complete
        assert [sp.key for sp in t.spaces(1)] == [
            "M(x>w)",
            "M(x>y)",
            "M(y>w)",
            "M(z>w)",
            "M(z>y)",
        ]

    def test_a_complete_build_has_at_most_max_index_plus_one_levels(self):
        # The bound build_tower's docstring proves and its loop relies on,
        # over the acceptance corpus and the larger spheres.
        towers = [*_corpus().values()]
        towers += [fc.build_tower(*fc.sphere_system(n)) for n in range(4, 13)]
        for tower in towers:
            assert tower.complete and tower.max_level <= tower.base.max_index + 1
        at_bound = sum(t.max_level == t.base.max_index + 1 for t in towers)
        assert (len(towers), at_bound) == (213, 55)
        built = []
        for seed in range(300):
            fs = four_grade_system(seed)
            try:
                tower = fc.build_tower(fs)
            except fc.BuildError:
                continue
            assert tower.complete and tower.max_level <= fs.max_index + 1
            built.append(seed)
        assert built == [143, 148, 178]

    @pytest.mark.parametrize("max_level", [0, -1])
    def test_max_level_below_one_is_rejected(self, deformed_fs, max_level):
        with pytest.raises(ValueError, match=f"max_level must be >= 1, got {max_level}"):
            fc.build_tower(deformed_fs, max_level=max_level)

    def test_invalid_system_is_rejected_up_front(self):
        bad = fc.flow_system(
            [("x", 2), ("m", 1), ("y", 0)],
            {("x", "m"): [("c0", fc.POINT, ())], ("m", "y"): [("c0", fc.POINT, ())]},
        )
        with pytest.raises(fc.InvalidFlowSystemError):
            fc.build_tower(bad)

    def test_closed_component_requires_declaration(self):
        fs, _ = fc.sphere_system(2)
        with pytest.raises(fc.MissingDeclarationError):
            fc.build_tower(fs)

    def test_missing_declaration_names_first_space_by_key(self):
        # M(q>t) ranks below M(p>q) in the height order, but declarations are
        # read in address-key order.
        fs = fc.flow_system(
            [("p", 4), ("q", 2), ("t", 0)],
            {
                ("p", "q"): [("c0", fc.CIRCLE, ())],
                ("q", "t"): [("c0", fc.CIRCLE, ())],
            },
        )
        with pytest.raises(fc.MissingDeclarationError) as err:
            fc.build_tower(fs)
        assert (err.value.address, err.value.component) == ("M(p>q)", "c0")

    def test_declared_component_requires_declaration(self):
        fs = fc.flow_system(
            [("N", 2), ("S", 0)], {("N", "S"): [("c0", fc.parse_shape("Declared 1"), ())]}
        )
        with pytest.raises(fc.MissingDeclarationError):
            fc.build_tower(fs)

    def test_a_hand_built_one_sphere_is_refused_by_sphere_like(self):
        # No tower file can declare a SphereLike 1; built through the API, its
        # poles would be joined by a 0-sphere, which the build never derives.
        text = fc.render_tower_file(*fc.sphere_system(2))
        _, decls = fc.parse_tower_file(text.replace("N 2", "N 3").replace("S 0", "S 1"))
        fs = fc.flow_system(
            [("N", 3), ("S", 1)], {("N", "S"): [("c0", fc.Shape("sphere", 1), ())]}
        )
        with pytest.raises(ValueError, match=r"^sphere_like\(0\)"):
            fc.build_tower(fs, decls)

    def test_no_space_lists_one_point_twice(self, deformed_tower):
        # derive_moduli is asked only about two different entries of a space,
        # and different entries have different point keys.
        towers = [deformed_tower]
        towers += [fc.build_tower(*fc.sphere_system(n)) for n in range(1, 7)]
        towers += [fc.build_tower(fc.random_system(s)) for s in range(40)]
        for t in towers:
            for level in range(1, t.max_level + 1):
                for sd in t.spaces(level):
                    keys = [fc.point_key(e.point) for e in sd.morse]
                    assert len(keys) == len(set(keys)), sd.key

    def test_a_name_declared_on_two_components_of_one_space_is_refused(self):
        # The parser refuses a name used twice; through the API, the build
        # does, since a space keys its points by name.
        fs = fc.flow_system(
            [("N", 2), ("S", 0)],
            {("N", "S"): [("c0", fc.CIRCLE, ()), ("c1", fc.CIRCLE, ())]},
        )
        pts = {
            "c0": (fc.DeclaredPoint("m", 1), fc.DeclaredPoint("n", 0)),
            "c1": (fc.DeclaredPoint("n", 1), fc.DeclaredPoint("m", 0)),
        }
        decls = fc.Declarations.build(
            {("M(N>S)", c): fc.ComponentDecl(points=p) for c, p in pts.items()}
        )
        with pytest.raises(fc.BuildError) as err:
            fc.build_tower(fs, decls)
        assert type(err.value) is fc.BuildError
        assert str(err.value) == "name 'n' declared on components 'c0' and 'c1' of M(N>S)"
        pts["c1"] = (fc.DeclaredPoint("u", 1), fc.DeclaredPoint("v", 0))
        decls = fc.Declarations.build(
            {("M(N>S)", c): fc.ComponentDecl(points=p) for c, p in pts.items()}
        )
        assert fc.build_tower(fs, decls).complete

    def test_a_point_derives_nothing_with_itself(self, deformed_tower):
        for level in range(1, deformed_tower.max_level + 1):
            for sd in deformed_tower.spaces(level):
                for e in sd.morse:
                    assert fc.derive_moduli(sd, e, e, fc.Declarations()) == ()

    def test_declarations_lookup_and_rebuild(self):
        fs, decls = fc.sphere_system(2)
        assert decls.get("M(N>S)", "c0") is not None
        assert decls.get("M(N>S)", "ghost") is None
        assert decls.get("M(no>pe)", "c0") is None
        first, second = fc.ComponentDecl(), fc.ComponentDecl(points=(fc.DeclaredPoint("p", 0),))
        twice = fc.Declarations((("M(N>S)", "c0", first), ("M(N>S)", "c0", second)))
        assert twice.get("M(N>S)", "c0") is first
        rebuilt = fc.Declarations.build(
            {(a, c): d for a, c, d in decls.entries}
        )
        assert rebuilt == decls


def _interval(*mids: str) -> fc.Component:
    """An interval from hi1 to lo1 with one endpoint through each of ``mids``."""

    ends = tuple((fc.PieceRef("hi1", m, "0"), fc.PieceRef(m, "lo1", "0")) for m in mids)
    return fc.Component("0", fc.INTERVAL, ends)


class TestDeclarationRules:
    """Declared points and moduli obey the point and pair rules of base data."""

    @pytest.mark.parametrize(
        "points, moduli, lines",
        [
            (
                ("hi1", "lo1"),
                (("hi1", "lo1", (_interval(),)),),
                ["[interval-ends] interval '0' of (hi1,lo1) needs exactly 2 endpoints, has 0"],
            ),
            (
                ("hi1", "lo1"),
                (("hi1", "lo1", (_interval("a", "b"),)),),
                [
                    f"[endpoint-ref] endpoint of '0' of (hi1,lo1) references missing "
                    f"component '0' of ({s},{t})"
                    for s, t in (("hi1", "a"), ("a", "lo1"), ("hi1", "b"), ("b", "lo1"))
                ],
            ),
            (
                ("hi1", "lo1"),
                (
                    ("hi1", "lo1", (fc.Component("0", fc.CIRCLE),)),
                    ("hi1", "lo1", (fc.Component("1", fc.CIRCLE),)),
                ),
                ["[dup-pair] pair (hi1,lo1) listed twice"],
            ),
            (
                ("hi1", "lo1"),
                (("hi1", "hi1", (fc.Component("0", fc.POINT),)),),
                ["[self-pair] pair (hi1,hi1): stationary spaces are implicit, not input"],
            ),
            (
                ("hi1", "hi1"),
                (),
                ["[dup-point] duplicate critical point id 'hi1'"],
            ),
        ],
        ids=["interval-ends", "endpoint-ref", "dup-pair", "self-pair", "dup-point"],
    )
    def test_declarations_breaking_a_rule_are_refused(self, points, moduli, lines):
        fs = fc.flow_system([("N", 3), ("S", 0)], {("N", "S"): [("c0", fc.sphere_like(2), ())]})
        top, bottom = (fc.DeclaredPoint(name, k) for name, k in zip(points, (2, 0)))
        decl = fc.ComponentDecl(points=(top, bottom), moduli=moduli)
        with pytest.raises(fc.BuildError) as err:
            fc.build_tower(fs, fc.Declarations.build({("M(N>S)", "c0"): decl}))
        assert type(err.value) is fc.BuildError
        assert str(err.value).splitlines() == [
            "invalid declarations of component 'c0' of M(N>S):",
            *lines,
        ]


class TestParentPairTable:
    """Each built space runs between a pair of its parent's pair table."""

    def test_spaces_are_the_pairs_of_the_parent_table(self, deformed_tower, random_towers):
        spheres = [fc.build_tower(*fc.sphere_system(n)) for n in (1, 2, 3, 4)]
        for t in (deformed_tower, *spheres, *random_towers.values()):
            for level in range(1, t.max_level + 1):
                for sp in t.spaces(level):
                    a, b = fc.point_key(sp.address.source), fc.point_key(sp.address.target)
                    if level == 1:
                        table = t.base.table
                    else:
                        parent = space_at(t, level - 1, fc.address_key(sp.address.ambient))
                        table = {(x, y): cs for x, y, cs in parent.derived}
                    if (a, b) in table:
                        assert sp.components == table[a, b], sp.key
                    else:
                        assert sp.stationary, sp.key

    def test_two_builds_compare_equal(self, deformed_fs):
        assert fc.build_tower(deformed_fs) == fc.build_tower(deformed_fs)
