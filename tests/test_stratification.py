"""Shapes, flow systems, the validator, and base-level boundary strata."""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import pytest

import flowcat as fc

from _helpers import Stratum, four_grade_system, reference_face_rules, stratify


def _codes(fs: fc.FlowSystem) -> set[str]:
    return {v.code for v in fc.validate_flow_system(fs)}


def _swap_xw(fs: fc.FlowSystem, *comps: fc.Component) -> fc.FlowSystem:
    pairs = tuple(
        (s, t, tuple(comps) if (s, t) == ("x", "w") else cs) for s, t, cs in fs.pairs
    )
    return dataclasses.replace(fs, pairs=pairs)


class TestShapes:
    def test_labels_round_trip(self):
        for shape in (fc.POINT, fc.INTERVAL, fc.CIRCLE, fc.sphere_like(2), fc.sphere_like(5)):
            assert fc.parse_shape(fc.shape_label(shape)) == shape

    def test_dims_and_closedness(self):
        assert (fc.POINT.dim, fc.INTERVAL.dim, fc.CIRCLE.dim) == (0, 1, 1)
        assert fc.sphere_like(2).dim == 2
        assert fc.POINT.closed and fc.CIRCLE.closed and fc.sphere_like(3).closed
        assert not fc.INTERVAL.closed

    def test_low_dimensional_spheres_have_dedicated_shapes(self):
        with pytest.raises(ValueError):
            fc.sphere_like(1)
        with pytest.raises(ValueError):
            fc.sphere_like(0)

    def test_parse_rejects_unknown_label(self):
        with pytest.raises(ValueError):
            fc.parse_shape("Blob")

    def test_piece_refs_order_lexicographically(self):
        a = fc.PieceRef("x", "y", "c0")
        b = fc.PieceRef("x", "y", "c1")
        c = fc.PieceRef("y", "w", "a")
        assert sorted([c, b, a]) == [a, b, c]


class TestFlowSystem:
    def test_deformed_base_values_are_rank_plus_tag(self, deformed_fs):
        values = {p.id: p.value for p in deformed_fs.points}
        assert values == {
            "w": Fraction(3, 2),
            "y": Fraction(9, 4),
            "x": Fraction(25, 8),
            "z": Fraction(49, 16),
        }

    def test_values_strictly_drop_along_every_edge(self, deformed_fs):
        value = {p.id: p.value for p in deformed_fs.points}
        for s, t, _ in deformed_fs.pairs:
            assert value[s] > value[t] > 0

    def test_lookup_helpers(self, deformed_fs):
        assert [p.id for p in deformed_fs.points].count("y") == 1
        assert "nope" not in {p.id for p in deformed_fs.points}
        assert [p.index for p in deformed_fs.points if p.id == "x"] == [2]
        assert [t for s, t in deformed_fs.table if s == "x"] == ["w", "y"]
        assert deformed_fs.max_index == 2
        assert [c.id for c in deformed_fs.table.get(("y", "w"), ())] == ["a", "b"]
        assert deformed_fs.table.get(("w", "x"), ()) == ()

    def test_lookups_return_the_first_listed_entry(self, deformed_fs):
        x, y, w = (next(p for p in deformed_fs.points if p.id == i) for i in "xyw")
        first, second = deformed_fs.table["y", "w"], deformed_fs.table["x", "y"]
        fs = fc.FlowSystem(
            points=(x, dataclasses.replace(y, id="x"), y),
            pairs=(("y", "w", first), ("y", "w", second)),
        )
        assert fs.table.get(("y", "w"), ()) is first
        # The validator reads a point's index from its first listing: there
        # x has index 2, so (x,y) drops index and only the repeat is reported.
        fs = fc.FlowSystem(
            points=(x, dataclasses.replace(y, id="x"), y, w),
            pairs=(("x", "y", second),),
        )
        assert [str(v) for v in fc.validate_flow_system(fs)] == [
            "[dup-point] duplicate critical point id 'x'"
        ]

    def test_component_dimension_is_index_gap_minus_one(self, deformed_fs):
        index = {p.id: p.index for p in deformed_fs.points}
        for (s, t), dim in {("x", "w"): 1, ("x", "y"): 0, ("z", "y"): 0}.items():
            assert index[s] - index[t] - 1 == dim
            comps = deformed_fs.table.get((s, t), ())
            assert comps and all(c.dim == dim for c in comps)

    def test_a_two_cycle_gets_distinct_positive_heights(self, tmp_path, capsys):
        # Ranking by longest chain leaves the cycle x <-> y unranked; both
        # points then get the fallback rank, 1, and distinct offsets.
        from flowcat.cli import main

        fs = fc.flow_system(
            [("x", 1), ("y", 1)],
            {("x", "y"): [("c0", fc.POINT, ())], ("y", "x"): [("c0", fc.POINT, ())]},
        )
        assert {p.id: p.value for p in fs.points} == {"x": Fraction(3, 2), "y": Fraction(5, 4)}
        assert [(v.code, v.subjects) for v in fc.validate_flow_system(fs)] == [
            ("index-order", ("x", "y")),
            ("index-order", ("y", "x")),
        ]
        path = tmp_path / "cycle.fct"
        path.write_text(fc.render_tower_file(fs))
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr() == (
            "",
            "error: invalid flow system:\n"
            "[index-order] flow from 'x' (index 1) to 'y' (index 1) must strictly drop index\n"
            "[index-order] flow from 'y' (index 1) to 'x' (index 1) must strictly drop index\n",
        )


class TestValidatorAcceptsCorpus:
    def test_deformed_and_spheres_validate(self, deformed_fs):
        assert fc.validate_flow_system(deformed_fs) == ()
        for n in (1, 2, 3):
            fs, _ = fc.sphere_system(n)
            assert fc.validate_flow_system(fs) == ()


class TestValidatorViolations:
    def test_dup_point(self):
        fs = fc.flow_system([("a", 1), ("a", 0)], {})
        assert "dup-point" in _codes(fs)
        assert [p.index for p in fs.points] == [1, 1]

    def test_bad_id(self):
        assert _codes(fc.flow_system([("a b", 1), ("w", 0)], {})) == {"bad-id"}

    def test_negative_index_is_unrepresentable(self):
        # CritPoint refuses to hold a negative index, so the system can never
        # reach the validator; the constructor raises instead.
        with pytest.raises(ValueError):
            fc.flow_system([("a", -1)], {})

    def test_dup_pair(self, deformed_fs):
        pairs = deformed_fs.pairs + (deformed_fs.pairs[1],)
        assert "dup-pair" in _codes(dataclasses.replace(deformed_fs, pairs=pairs))
        # The first listing wins everywhere: a second (x,w) listing, whose
        # point component would break the dimension formula, is only a repeat.
        first = deformed_fs.table["x", "w"]
        k9 = dataclasses.replace(first[0], id="k9", shape=fc.POINT, boundary=())
        fs = dataclasses.replace(deformed_fs, pairs=deformed_fs.pairs + (("x", "w", (k9,)),))
        assert fs.table["x", "w"] is first
        assert stratify(fs.table, "x", "w") == stratify(deformed_fs.table, "x", "w")
        assert [str(v) for v in fc.validate_flow_system(fs)] == ["[dup-pair] pair (x,w) listed twice"]

    def test_unknown_point(self, deformed_fs):
        points = tuple(p for p in deformed_fs.points if p.id != "z")
        assert "unknown-point" in _codes(
            dataclasses.replace(deformed_fs, points=points)
        )

    def test_flow_system_reports_unknown_point(self):
        with pytest.raises(fc.InvalidFlowSystemError) as err:
            fc.flow_system(
                [("x", 1), ("y", 0)], {("x", "q"): [("c0", fc.parse_shape("Point"), ())]}
            )
        (v,) = err.value.violations
        assert (v.code, v.subjects) == ("unknown-point", ("x", "q"))
        assert str(v) == "[unknown-point] pair (x,q) names unknown point 'q'"

    def test_self_pair(self, deformed_fs):
        comps = deformed_fs.table["x", "y"]
        pairs = deformed_fs.pairs + (("x", "x", comps),)
        assert "self-pair" in _codes(dataclasses.replace(deformed_fs, pairs=pairs))

    def test_index_order(self):
        bad = fc.flow_system(
            [("x", 2), ("y", 1)], {("y", "x"): [("c0", fc.POINT, ())]}
        )
        assert _codes(bad) == {"index-order"}

    def test_dup_component(self, deformed_fs):
        c = deformed_fs.table["x", "w"][0]
        assert "dup-component" in _codes(_swap_xw(deformed_fs, c, c))

    def test_dimension(self):
        bad = fc.flow_system(
            [("x", 2), ("m", 1), ("y", 0)],
            {
                ("x", "m"): [("c0", fc.POINT, ())],
                ("m", "y"): [("c0", fc.POINT, ())],
                ("x", "y"): [("flat", fc.POINT, ())],
            },
        )
        assert "dimension" in _codes(bad)

    def test_closed_boundary(self, deformed_fs):
        c = dataclasses.replace(deformed_fs.table["x", "w"][0], shape=fc.CIRCLE)
        assert "closed-boundary" in _codes(_swap_xw(deformed_fs, c))

    def test_interval_needs_two_distinct_ends(self, deformed_fs):
        c = deformed_fs.table["x", "w"][0]
        assert "interval-ends" in _codes(
            _swap_xw(deformed_fs, dataclasses.replace(c, boundary=()))
        )
        b0 = c.boundary[0]
        assert "interval-ends" in _codes(
            _swap_xw(deformed_fs, dataclasses.replace(c, boundary=(b0, b0)))
        )

    def test_endpoint_shape(self, deformed_fs):
        c = deformed_fs.table["x", "w"][0]
        b0, b1 = c.boundary
        bad = dataclasses.replace(c, boundary=((b0[0],), b1))
        assert "endpoint-shape" in _codes(_swap_xw(deformed_fs, bad))

    def test_endpoint_chain(self, deformed_fs):
        c = deformed_fs.table["x", "w"][0]
        b0, b1 = c.boundary
        broken = (fc.PieceRef("x", "y", "c0"), fc.PieceRef("z", "y", "c0"))
        bad = dataclasses.replace(c, boundary=(b0, broken))
        assert "endpoint-chain" in _codes(_swap_xw(deformed_fs, bad))

    def test_endpoint_ref(self, deformed_fs):
        c = deformed_fs.table["x", "w"][0]
        b0, b1 = c.boundary
        missing = (fc.PieceRef("x", "y", "ghost"), fc.PieceRef("y", "w", "a"))
        bad = dataclasses.replace(c, boundary=(b0, missing))
        assert "endpoint-ref" in _codes(_swap_xw(deformed_fs, bad))

    def test_endpoint_dim_and_phantom(self, deformed_fs):
        c = deformed_fs.table["x", "w"][0]
        b0, _ = c.boundary
        ghost = (fc.PieceRef("x", "z", "ghost"), fc.PieceRef("z", "w", "c0"))
        bad = dataclasses.replace(c, boundary=(b0, ghost))
        codes = _codes(_swap_xw(deformed_fs, bad))
        assert "phantom-endpoint" in codes
        assert "endpoint-dim" in codes

    def test_missing_space(self):
        moduli = {("x", "m"): [("c0", fc.POINT, ())], ("m", "y"): [("c0", fc.POINT, ())]}
        bad = fc.flow_system([("x", 2), ("m", 1), ("y", 0)], moduli)
        assert _codes(bad) == {"missing-space"}
        # A repeated point id is reported, and the breaking still only once.
        twice = fc.flow_system([("x", 2), ("m", 1), ("y", 0), ("x", 2)], moduli)
        assert [v.code for v in fc.validate_flow_system(twice)] == ["dup-point", "missing-space"]

    def test_uncovered_breaking(self):
        # Also with a repeated point id, which reports the breaking only once.
        for twice in [(), (("y", 0),)]:
            bad = fc.flow_system(
                [("x", 2), ("m", 1), ("y", 0), *twice],
                {
                    ("x", "m"): [("c0", fc.POINT, ())],
                    ("m", "y"): [
                        ("a", fc.POINT, ()),
                        ("b", fc.POINT, ()),
                        ("c", fc.POINT, ()),
                    ],
                    ("x", "y"): [
                        (
                            "j",
                            fc.INTERVAL,
                            (
                                (fc.PieceRef("x", "m", "c0"), fc.PieceRef("m", "y", "a")),
                                (fc.PieceRef("x", "m", "c0"), fc.PieceRef("m", "y", "b")),
                            ),
                        )
                    ],
                },
            )
            codes = [v.code for v in fc.validate_flow_system(bad)]
            assert codes == ["dup-point"] * len(twice) + ["uncovered-breaking"]

    def test_reused_breaking(self, deformed_fs):
        c = deformed_fs.table["x", "w"][0]
        twin = dataclasses.replace(c, id="c1")
        assert "reused-breaking" in _codes(_swap_xw(deformed_fs, c, twin))

    def test_face_of_face(self):
        # (x,b) is closed, so neither stratum of (x,w) broken at a and b (one
        # per point of (a,b)) lies in the closure of the one broken at b
        # alone; both do lie in the closure of the one broken at a.  Each line
        # names its configuration, so the two differ.  A repeated point id
        # still reports each stratum once.
        R = fc.PieceRef
        messages = [
            "[face-of-face] stratum of (x,w) broken at ('a', 'b') through "
            f"(c0@x>a,{c}@a>b,c0@b>w) does not lie in the closure of a stratum "
            "broken at ('b',)"
            for c in ("c0", "c1")
        ]
        assert messages[0] != messages[1]
        for twice in [(), (("x", 4),)]:
            bad = fc.flow_system(
                [("x", 4), ("a", 2), ("b", 1), ("w", 0), *twice],
                {
                    ("x", "a"): [("c0", fc.CIRCLE, ())],
                    ("a", "b"): [("c0", fc.POINT, ()), ("c1", fc.POINT, ())],
                    ("b", "w"): [("c0", fc.POINT, ())],
                    ("a", "w"): [
                        (
                            "c0",
                            fc.INTERVAL,
                            (
                                (R("a", "b", "c0"), R("b", "w", "c0")),
                                (R("a", "b", "c1"), R("b", "w", "c0")),
                            ),
                        )
                    ],
                    ("x", "b"): [("c0", fc.parse_shape("SphereLike 2"), ())],
                    ("x", "w"): [("c0", fc.parse_shape("SphereLike 3"), ())],
                },
            )
            dup = ["[dup-point] duplicate critical point id 'x'"] * len(twice)
            assert [str(v) for v in fc.validate_flow_system(bad)] == dup + messages

    def test_face_of_face_holds_on_a_chain_broken_twice(self):
        # x > a > b > w: each broken pair of neighbours bounds an interval,
        # so every stratum of (x,w) broken at a and b refines through both
        # single breaks, and the closed (x,w) lists no boundary.
        R = fc.PieceRef
        fs = fc.flow_system(
            [("x", 3), ("a", 2), ("b", 1), ("w", 0)],
            {
                ("x", "a"): [("c0", fc.POINT, ()), ("c1", fc.POINT, ())],
                ("a", "b"): [("c0", fc.POINT, ())],
                ("b", "w"): [("c0", fc.POINT, ()), ("c1", fc.POINT, ())],
                ("x", "b"): [
                    (
                        "c0",
                        fc.INTERVAL,
                        (
                            (R("x", "a", "c0"), R("a", "b", "c0")),
                            (R("x", "a", "c1"), R("a", "b", "c0")),
                        ),
                    )
                ],
                ("a", "w"): [
                    (
                        "c0",
                        fc.INTERVAL,
                        (
                            (R("a", "b", "c0"), R("b", "w", "c0")),
                            (R("a", "b", "c0"), R("b", "w", "c1")),
                        ),
                    )
                ],
                ("x", "w"): [("c0", fc.parse_shape("SphereLike 2"), ())],
            },
        )
        assert fc.validate_flow_system(fs) == ()
        strata, _ = stratify(fs.table, "x", "w")
        assert [s.intermediates for s in strata if s.depth == 2] == [("a", "b")] * 4

    def test_violation_messages_name_subjects(self, deformed_fs):
        points = tuple(p for p in deformed_fs.points if p.id != "z")
        got = fc.validate_flow_system(dataclasses.replace(deformed_fs, points=points))
        assert all(v.subjects for v in got)
        assert any("z" in v.message for v in got)


def _chains_reference(pt, source, target):
    """The chain walker before it pruned dead ends: every path out of source."""

    out = []
    stack = [(source, ())]
    while stack:
        at, mids = stack.pop()
        if pt.pairs.get((at, target)):
            out.append(mids)
        for nxt in pt.succ.get(at, ()):
            if nxt != target and nxt != source and nxt not in mids:
                stack.append((nxt, mids + (nxt,)))
    return sorted(out, key=lambda m: (len(m), m))


class TestFaceRule:
    def test_matches_the_reference_on_the_four_grade_family(self):
        from flowcat.stratification import _face_rules, _pair_table

        total = broken = 0
        for seed in range(300):
            pt = _pair_table(four_grade_system(seed).table)
            got = tuple(_face_rules(pt))
            assert got == tuple(reference_face_rules(pt)), seed
            total += len(got)
            broken += bool(got)
        # The family does break the rule, on many of its systems.
        assert (total, broken) == (930, 184)


class TestChains:
    def test_matches_the_unpruned_walk_on_every_base_pair(self, deformed_fs):
        from flowcat.stratification import _chains, _pair_table

        systems = [deformed_fs, *(fc.sphere_system(n)[0] for n in (1, 2, 3))]
        systems += [fc.random_system(seed) for seed in range(200)]
        systems += [fc.random_system(seed, max_points=32) for seed in (1, 4, 8)]
        found = 0
        for fs in systems:
            pt = _pair_table(fs.table)
            for x, z in pt.pairs:
                chains = _chains(pt, x, z)
                assert chains == _chains_reference(pt, x, z)
                found += sum(len(m) > 0 for m in chains)
        # The systems do break: some chains pass intermediate points.
        assert found > 0


def _factor_dim(fs: fc.FlowSystem, stratum: Stratum) -> int:
    return sum(
        next(c.dim for c in fs.table.get((r.source, r.target), ()) if c.id == r.component)
        for r in stratum.factors
    )


class TestBoundaryStrata:
    def test_deformed_interval_breaks_once_through_y(self, deformed_fs):
        strata, closure = stratify(deformed_fs.table, "x", "w")
        dims = [(s.depth, _factor_dim(deformed_fs, s)) for s in strata]
        assert dims == [(0, 1), (1, 0), (1, 0)]
        top = strata[0]
        assert top.intermediates == ()
        assert top.factors == (fc.PieceRef("x", "w", "c0"),)
        for s in strata[1:]:
            assert s.intermediates == ("y",)
            assert [f.source for f in s.factors] == ["x", "y"]
            assert [f.target for f in s.factors] == ["y", "w"]
        assert closure == [(1, 0), (2, 0)]

    def test_closure_pairs_point_from_deeper_to_shallower(self, deformed_fs):
        for s, t, _ in deformed_fs.pairs:
            strata, closure = stratify(deformed_fs.table, s, t)
            for i, j in closure:
                assert strata[i].depth > strata[j].depth
                mids_j = set(strata[j].intermediates)
                mids_i = set(strata[i].intermediates)
                assert mids_j < mids_i

    def test_point_pair_has_single_zero_stratum_per_component(self, deformed_fs):
        strata, closure = stratify(deformed_fs.table, "y", "w")
        assert [(s.depth, _factor_dim(deformed_fs, s)) for s in strata] == [(0, 0), (0, 0)]
        assert closure == []
