"""Node and record types: their ``repr``, pickling and immutability.

The reprs are pinned byte for byte, as they read when these types were
dataclasses; a tower's repr is pinned by digest.
"""

from __future__ import annotations

import hashlib
import pickle

import pytest

import flowcat as fc

from _helpers import find_cell

NODES = (fc.ModuliAddress, fc.CritPoint, fc.Broken, fc.Cell)
RECORDS = (
    fc.Shape, fc.PieceRef, fc.Component, fc.FlowSystem, fc.Violation,
    fc.DeclaredPoint, fc.ComponentDecl, fc.Declarations, fc.MorseEntry, fc.SpaceData, fc.Tower,
    fc.Failure, fc.TagReport, fc.AxiomReport,
)

END_A = (
    "Cell(top=Broken(pieces=(CritPoint(id='x/y:c0', index=0, value=Fraction(65, 16)), "
    "CritPoint(id='y/w:a', index=0, value=Fraction(9, 4)))), space=ModuliAddress("
    "source=CritPoint(id='x', index=2, value=Fraction(25, 8)), target=CritPoint("
    "id='w', index=0, value=Fraction(3, 2)), ambient=None))"
)


def _digest(*objs) -> str:
    """The digest of the objects' reprs, one after another."""

    digest = hashlib.sha256()
    for obj in objs:
        digest.update(repr(obj).encode())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def mutant_report(deformed_tower, deformed_view) -> fc.AxiomReport:
    # The source of the max interval end rerouted to the base point z.
    end_a = find_cell(deformed_tower, 1, "(x/y:c0,y/w:a) @ M(x>w)")
    z = find_cell(deformed_tower, 0, "z")
    return fc.check_all(deformed_view.with_source(end_a, z))


@pytest.fixture(scope="module")
def instances(deformed_fs, deformed_tower, mutant_report) -> list:
    """One instance of every node and record type."""

    end = find_cell(deformed_tower, 1, "(x/y:c0,y/w:a) @ M(x>w)")
    comp = deformed_fs.table["x", "w"][0]
    decls = fc.sphere_system(2)[1]
    (_, _, decl), = decls.entries
    space = deformed_tower.spaces(1)[0]
    tag = mutant_report.by_tag("a")
    violation = fc.validate_flow_system(deformed_fs._replace(points=deformed_fs.points[1:]))[0]
    return [
        end.space, end.top.pieces[0], end.top, end,
        comp.shape, comp.boundary[0][0], comp, deformed_fs, violation,
        decl.points[0], decl, decls, space.morse[0], space, deformed_tower,
        tag.failures[0], tag, mutant_report,
    ]


class TestRepr:
    def test_every_type_is_covered(self, instances):
        assert [type(x) for x in instances] == [*NODES, *RECORDS]

    def test_nodes(self, deformed_tower):
        end = find_cell(deformed_tower, 1, "(x/y:c0,y/w:a) @ M(x>w)")
        assert repr(end) == END_A

    def test_flow_data(self, deformed_fs):
        assert repr(deformed_fs.table["x", "w"][0]) == (
            "Component(id='c0', shape=Shape(kind='interval', k=0), boundary=("
            "(PieceRef(source='x', target='y', component='c0'), "
            "PieceRef(source='y', target='w', component='a')), "
            "(PieceRef(source='x', target='y', component='c0'), "
            "PieceRef(source='y', target='w', component='b'))))"
        )
        got = fc.validate_flow_system(deformed_fs._replace(points=deformed_fs.points[1:]))
        assert repr(got[0]) == (
            "Violation(code='unknown-point', message=\"pair (x,w) names unknown point 'w'\", "
            "subjects=('x', 'w'))"
        )

    def test_declarations(self):
        assert repr(fc.sphere_system(1)[1]) == "Declarations(entries=())"
        assert repr(fc.sphere_system(2)[1]) == (
            "Declarations(entries=(('M(N>S)', 'c0', ComponentDecl(points=("
            "DeclaredPoint(name='hi1', index=1), DeclaredPoint(name='lo1', index=0)), "
            "moduli=())),))"
        )

    def test_towers(self, deformed_tower):
        assert repr(deformed_tower.spaces(1)[0].morse[0]) == (
            "MorseEntry(point=" + END_A[len("Cell(top="):END_A.index(", space=")]
            + ", index=1, value=Fraction(101, 16), component='c0', role='end_max')"
        )
        assert _digest(deformed_tower) == (
            "4ee7b9e6edd398fafe9be46faf3ae43d6929da3277d8b71772be3e7a24801f24"
        )
        assert _digest(fc.build_tower(*fc.sphere_system(3))) == (
            "6e83e604dba7d2f71c5ff3734dfc005c6034f9eb9c81933f6c350544e32fd0c5"
        )

    def test_random_and_wide_towers(self):
        # A wrong height can pass every verdict, but it shows in the repr.
        assert _digest(*(fc.build_tower(fc.random_system(s)) for s in range(20))) == (
            "75c05f0a6d3ab6c8bbfda6d3e3d148c5f70153d77856df63a03da2eecf5d224b"
        )
        wide = (fc.build_tower(fc.random_system(s, max_points=32)) for s in (1, 4, 8))
        assert _digest(*wide) == (
            "cd3ebc08cfc571b2b40e26e23856c4a76bd2db4be56c1a48654f02255feb1139"
        )

    def test_reports(self, mutant_report):
        assert repr(mutant_report.by_tag("a")) == (
            "TagReport(tag='a', instances=52, strict=51, failures=(Failure(tag='a', "
            "level=1, p=0, q=None, cells=('y/w:a @ M(y>w)', 'x/y:c0 @ M(x>y)'), "
            "detail='s of composite: z  !=  x'),))"
        )
        assert _digest(mutant_report) == (
            "e6aa91aeac84ac7a6a35b8eda2ff3ff01c5b2ae561abb4eb4c59f96b84e118da"
        )


class TestValueSemantics:
    def test_pickle_round_trip(self, instances):
        for obj in instances:
            back = pickle.loads(pickle.dumps(obj))
            assert back == obj and repr(back) == repr(obj), type(obj)
            if isinstance(obj, NODES):
                assert back is obj

    def test_fields_refuse_assignment(self, instances):
        for obj in instances:
            names = type(obj)._names if isinstance(obj, NODES) else obj._fields
            assert names, type(obj)
            for name in names:
                before = getattr(obj, name)
                with pytest.raises(AttributeError):
                    setattr(obj, name, None)
                with pytest.raises(AttributeError):
                    delattr(obj, name)
                assert getattr(obj, name) is before

    def test_replace_derives_a_modified_record(self, deformed_fs):
        comp = deformed_fs.table["x", "w"][0]
        point = comp._replace(id="k9", shape=fc.POINT, boundary=())
        assert point == fc.Component("k9", fc.POINT)
        assert comp.id == "c0"
        with pytest.raises((TypeError, ValueError)):  # TypeError from Python 3.13
            comp._replace(ids="k9")

    def test_declarations_refuse_new_attributes(self):
        decls = fc.sphere_system(2)[1]
        assert decls.get("M(N>S)", "c0") is decls.entries[0][2]
        with pytest.raises(AttributeError):
            decls.extra = 1
        with pytest.raises(AttributeError):
            del decls._by_key
        assert decls._replace(entries=()) == fc.Declarations()
        assert type(decls._replace(entries=())) is fc.Declarations
