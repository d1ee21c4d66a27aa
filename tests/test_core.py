"""Points, addresses, and key strings: the vocabulary everything else builds on."""

from __future__ import annotations

import copy
import gc
import inspect
import pickle
import re
import weakref
from fractions import Fraction

import pytest

import flowcat as fc
import flowcat.core
from flowcat.core import ambient_of_point, breaking_key, stationary_point

from _helpers import cell_map, find_cell


def _crit(id: str, index: int, value, home=None) -> fc.CritPoint:
    return fc.CritPoint(id, index, Fraction(value), home)


class TestAddressKeys:
    def test_base_level_key_has_no_history(self, deformed_tower):
        keys = {sp.key for sp in deformed_tower.spaces(1)}
        assert keys == {"M(x>w)", "M(x>y)", "M(y>w)", "M(z>w)", "M(z>y)"}

    def test_higher_level_key_lists_history_most_recent_first(self, sphere_towers):
        t3 = sphere_towers[3]
        assert [sp.key for sp in t3.spaces(3)] == ["M(hi2>lo2|hi1>lo1;N>S)"]
        assert [sp.key for sp in t3.spaces(4)] == [
            "M(hi2/lo2:0>hi2/lo2:0|hi2>lo2;hi1>lo1;N>S)",
            "M(hi2/lo2:1>hi2/lo2:1|hi2>lo2;hi1>lo1;N>S)",
        ]

    def test_address_key_matches_space_address(self, deformed_tower):
        for sp in deformed_tower.spaces(2):
            assert fc.address_key(sp.address) == sp.key


class TestCellAndPointKeys:
    def test_base_cell_key_is_bare_id(self, deformed_tower):
        assert sorted(cell_map(deformed_tower, 0)) == ["w", "x", "y", "z"]

    def test_level_one_keys_name_point_and_home(self, deformed_tower):
        keys = sorted(cell_map(deformed_tower, 1))
        assert "x/y:c0 @ M(x>y)" in keys
        assert "(x/y:c0,y/w:a) @ M(x>w)" in keys

    def test_stationary_cell_key_wraps_base_point(self, deformed_tower):
        assert "1(y/w:a) @ M(y/w:a>y/w:a|y>w)" in cell_map(deformed_tower, 2)

    def test_broken_point_value_is_sum_of_pieces(self, deformed_tower):
        end = find_cell(deformed_tower, 1, "(x/y:c0,y/w:a) @ M(x>w)")
        pt = end.top
        assert isinstance(pt, fc.Broken)
        assert fc.point_value(pt) == sum(
            (fc.point_value(q) for q in pt.pieces), Fraction(0)
        )
        assert fc.point_value(pt) == Fraction(101, 16)

    def test_flatten_point(self, deformed_tower):
        end = find_cell(deformed_tower, 1, "(x/y:c0,y/w:a) @ M(x>w)")
        flat = fc.flatten_point(end.top)
        assert [q.id for q in flat] == ["x/y:c0", "y/w:a"]
        crit = flat[0]
        assert fc.flatten_point(crit) == (crit,)
        nested = fc.Broken((fc.Broken((flat[0], flat[1])), flat[1]))
        assert fc.flatten_point(nested) == (flat[0], flat[1], flat[1])

    def test_flatten_point_refuses_a_non_point(self, deformed_tower):
        end = find_cell(deformed_tower, 1, "(x/y:c0,y/w:a) @ M(x>w)")
        for thing in ("x", end):
            with pytest.raises(ValueError, match=f"^not a point: {re.escape(repr(thing))}$"):
                fc.flatten_point(thing)


class TestBreakingOrder:
    def test_pieces_sort_upstream_first(self, deformed_tower):
        end = find_cell(deformed_tower, 1, "(x/y:c0,y/w:a) @ M(x>w)")
        up, down = end.top.pieces
        assert up.id == "x/y:c0" and down.id == "y/w:a"
        assert sorted([down, up], key=breaking_key) == [up, down]

    def test_a_broken_point_has_no_breaking_key(self, deformed_tower):
        end = find_cell(deformed_tower, 1, "(x/y:c0,y/w:a) @ M(x>w)")
        message = f"breaking_key is defined on critical points, got {end.top!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            breaking_key(end.top)


class TestStationaryHelpers:
    def test_stationary_point_over_base(self, deformed_tower):
        w = find_cell(deformed_tower, 0, "w").top
        s = stationary_point(w, None)
        assert s.id == "1(w)"
        assert s.index == 0 and s.value == 0
        assert fc.is_stationary(s)

    def test_stationary_address_without_ambient(self, deformed_tower):
        w = find_cell(deformed_tower, 0, "w").top
        addr = fc.ModuliAddress(w, w)
        assert addr.source == w and addr.target == w
        assert addr.ambient is None
        assert fc.is_stationary(addr)

    def test_live_objects_are_not_stationary(self, deformed_tower):
        live = find_cell(deformed_tower, 1, "x/y:c0 @ M(x>y)")
        assert not fc.is_stationary(live)
        assert not fc.is_stationary(live.top)
        assert fc.is_stationary(fc.identity(live))

    def test_ambient_of_glued_point_spans_the_chain(self, deformed_tower):
        end = find_cell(deformed_tower, 1, "(x/y:c0,y/w:a) @ M(x>w)")
        assert fc.address_key(ambient_of_point(end.top)) == "M(x>w)"
        base = find_cell(deformed_tower, 0, "w")
        assert ambient_of_point(base.top) is None


def _reachable_points(towers) -> tuple[list, list]:
    """Every point and address reachable from the cells, identities and
    checked composites of the towers: (points, addresses)."""

    todo: list = []
    for tower in towers:
        view = fc.GlobularSet(tower)
        fc.check_all(view)
        for level in range(tower.max_level + 1):
            todo += fc.extended_cells(tower, level)
        todo += view._normals.values()
        todo += view._composites.values()
    seen: dict[int, object] = {}
    while todo:
        node = todo.pop()
        if node is None or id(node) in seen:
            continue
        seen[id(node)] = node
        if isinstance(node, fc.Cell):
            todo += (node.top, node.space)
        elif isinstance(node, fc.ModuliAddress):
            todo += (node.source, node.target, node.ambient)
        elif isinstance(node, fc.CritPoint):
            todo.append(node.home)
        else:
            todo += node.pieces
    nodes = list(seen.values())
    points = [x for x in nodes if isinstance(x, (fc.CritPoint, fc.Broken))]
    return points, [x for x in nodes if isinstance(x, fc.ModuliAddress)]


class TestStationaryFact:
    def test_fact_is_is_stationary_on_every_corpus_node(self):
        towers = [
            fc.build_tower(fc.deformed_sphere_system()),
            *(fc.build_tower(*fc.sphere_system(n)) for n in (1, 2, 3)),
            *(fc.build_tower(fc.random_system(seed)) for seed in range(200)),
        ]
        points, addresses = _reachable_points(towers)
        assert all(x.stationary is fc.is_stationary(x) for x in points)
        # An address keeps no fact: a point built on it reads its own off it.
        for addr in addresses:
            flat = fc.is_stationary(addr)
            probe = fc.CritPoint("probe", 0, Fraction(0 if flat else 1), addr)
            assert probe.stationary is flat
        kinds = {(type(x).__name__, x.stationary) for x in points}
        assert kinds == {("CritPoint", False), ("CritPoint", True), ("Broken", False)}

    def test_fact_is_frozen_and_outside_the_fields(self, deformed_tower):
        end = find_cell(deformed_tower, 1, "(x/y:c0,y/w:a) @ M(x>w)")
        tail = find_cell(deformed_tower, 2, "1(y/w:a) @ M(y/w:a>y/w:a|y>w)")
        for pt in (end.top, end.top.pieces[0], tail.top):
            for change in (
                lambda: setattr(pt, "stationary", not pt.stationary),
                lambda: delattr(pt, "stationary"),
            ):
                with pytest.raises(AttributeError):
                    change()
            assert copy.copy(pt) is pt and copy.deepcopy(pt) is pt
            assert pickle.loads(pickle.dumps(pt)) is pt
            assert "stationary" not in repr(pt) and "stationary" not in type(pt)._names
        assert fc.Broken.stationary is False and "stationary" not in vars(end.top)
        assert tail.top.stationary and vars(tail.top)["stationary"] is True
        assert repr(tail.top) == (
            "CritPoint(id='1(y/w:a)', index=0, value=Fraction(0, 1))"
        )
        assert tail.top.__reduce__() == (
            fc.CritPoint, ("1(y/w:a)", 0, Fraction(0), tail.space)
        )


class TestCritPointValidation:
    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            fc.CritPoint("p", -1, Fraction(1), None)

    def test_live_point_needs_positive_value(self):
        with pytest.raises(ValueError):
            fc.CritPoint("p", 0, Fraction(0), None)
        with pytest.raises(ValueError):
            fc.CritPoint("p", 0, Fraction(-3), None)

    def test_stationary_point_needs_zero_value(self, deformed_tower):
        tail = find_cell(deformed_tower, 2, "1(y/w:a) @ M(y/w:a>y/w:a|y>w)")
        addr = tail.space
        assert fc.is_stationary(addr)
        with pytest.raises(ValueError):
            fc.CritPoint("bad", 0, Fraction(1), addr)
        ok = fc.CritPoint("fine", 0, Fraction(0), addr)
        assert ok.value == 0


NODE_CLASSES = (
    fc.ModuliAddress,
    fc.CritPoint,
    fc.Broken,
    fc.Cell,
)


def _table_sizes() -> dict[str, int]:
    return {cls.__name__: len(cls._table) for cls in NODE_CLASSES}


class TestInterning:
    def test_equal_addresses_and_cells_are_one_object(self):
        x, w = _crit("x", 2, 3), _crit("w", 0, 1)
        addr = fc.ModuliAddress(x, w)
        again = fc.ModuliAddress(
            source=_crit("x", 2, 3), target=_crit("w", 0, 1), ambient=None
        )
        assert again is addr
        top = _crit("x/w:0", 0, Fraction(1, 2), addr)
        cell = fc.Cell(top, addr)
        assert fc.Cell(top=_crit("x/w:0", 0, Fraction(1, 2), again), space=again) is cell
        assert fc.Cell(_crit("x/w:1", 0, Fraction(1, 2), addr), addr) is not cell

    def test_independently_built_towers_share_their_cells(self, deformed_fs):
        one = fc.cells(fc.build_tower(deformed_fs), 2)
        two = fc.cells(fc.build_tower(fc.deformed_sphere_system()), 2)
        assert all(a is b for a, b in zip(one, two)) and len(one) == len(two)

    def test_equal_values_that_print_differently_stay_apart(self):
        as_int = fc.CritPoint("p", 1, 1)
        as_fraction = fc.CritPoint("p", 1, Fraction(1))
        as_bool = fc.CritPoint("p", True, 1)
        bool_value = fc.CritPoint("p", 1, True)
        points = (as_int, as_fraction, as_bool, bool_value)
        assert len({id(p) for p in points}) == len({repr(p) for p in points}) == 4
        assert fc.CritPoint("p", 1, Fraction(1)) is as_fraction
        assert fc.CritPoint("p", 1, True) is bool_value

    @pytest.mark.parametrize("value", [1.5, 1.0, "1", None, 1j])
    def test_values_that_are_not_rational_are_refused(self, value):
        # A float has an integer ratio too; it must not become a node.
        for _ in range(2):
            with pytest.raises(ValueError) as refused:
                fc.CritPoint("p", 1, value)
            assert str(refused.value) == (
                f"critical point 'p': value must be an int or a Fraction, got {value!r}"
            )

    def test_failing_checks_raise_on_every_build(self):
        for _ in range(2):
            with pytest.raises(ValueError):
                fc.CritPoint("p", -1, Fraction(1))
            with pytest.raises(ValueError):
                fc.Broken((_crit("x", 2, 3),))

    def test_normal_form_is_memoized(self, deformed_tower):
        after = find_cell(deformed_tower, 1, "y/w:a @ M(y>w)")
        unit = fc.identity(find_cell(deformed_tower, 0, "y"))
        padded = fc.GlobularSet(deformed_tower).compose(0, after, unit)
        assert fc.normalize(padded) is after
        for cell in (*fc.extended_cells(deformed_tower, 2), padded):
            assert fc.normalize(cell) is fc.normalize(cell)
            assert fc.normalize(fc.normalize(cell)) is fc.normalize(cell)

    def test_copy_and_pickle_return_the_interned_node(self, deformed_tower):
        cell = find_cell(deformed_tower, 2, "1(y/w:a) @ M(y/w:a>y/w:a|y>w)")
        assert copy.copy(cell) is cell
        assert copy.deepcopy(cell) is cell
        assert pickle.loads(pickle.dumps(cell)) is cell

    def test_dropped_tower_leaves_the_intern_tables(self):
        gc.collect()
        before = _table_sizes()
        tower = fc.build_tower(*fc.sphere_system(5))
        fc.check_all(tower)
        grown = _table_sizes()
        assert sum(grown.values()) > sum(before.values())
        del tower
        gc.collect()
        assert _table_sizes() == before

    def test_dropped_view_leaves_the_intern_tables(self):
        gc.collect()
        before = _table_sizes()
        view = fc.GlobularSet(fc.build_tower(*fc.sphere_system(5)))
        fc.check_all(view)
        assert view._composites
        grown = _table_sizes()
        assert grown["Cell"] > before["Cell"]
        del view
        gc.collect()
        assert _table_sizes() == before

    def test_constant_point_memo_pins_nothing(self):
        # Towers share their base points, so a memo on a base point of the
        # live tower must not keep a dropped tower's constant points.  With
        # gc off, a reference cycle would keep them too.
        gc.collect()
        gc.disable()
        try:
            live = fc.build_tower(fc.random_system(3))
            fc.check_all(live)
            one_tower = _table_sizes()
            for n in (1, 2, 3, 8, None):
                system = fc.sphere_system(n) if n else (fc.random_system(5),)
                fc.check_all(fc.build_tower(*system))
                del system
            assert _table_sizes() == one_tower
        finally:
            gc.enable()

    def test_entries_are_dropped_by_one_callback_per_class(self):
        node = fc.CritPoint("probe", 0, Fraction(7, 3))
        table = fc.CritPoint._table
        key = ("probe", 0, 7, 3, None, int, Fraction)
        ref = table[key]
        assert type(ref) is weakref.KeyedRef and ref.key == key and ref() is node
        assert ref.__callback__ is fc.CritPoint._drop
        assert len({cls._drop for cls in NODE_CLASSES}) == len(NODE_CLASSES)
        for cls in NODE_CLASSES:
            assert all(r.__callback__ is cls._drop for r in cls._table.values())
        del node, ref
        # Reference counting alone frees the node and fires the callback.
        assert key not in table
        assert "partial" not in inspect.getsource(flowcat.core)


class TestInternFastPath:
    def test_failed_construction_leaves_the_tables_alone(self):
        x = _crit("x", 2, 3)
        flat = fc.ModuliAddress(x, x)
        gc.collect()
        before = _table_sizes()
        for build in (
            lambda: fc.CritPoint("p", -1, Fraction(1)),
            lambda: fc.Broken((x,)),
            lambda: fc.CritPoint("s", 0, Fraction(1), flat),
            lambda: fc.CritPoint("p", 1, 1.5),
        ):
            with pytest.raises(ValueError):
                build()
            assert _table_sizes() == before

    def test_fields_lead_the_node_dict_and_stay_frozen(self, deformed_tower):
        deep = find_cell(deformed_tower, 2, "1(y/w:a) @ M(y/w:a>y/w:a|y>w)")
        end = find_cell(deformed_tower, 1, "(x/y:c0,y/w:a) @ M(x>w)")
        piece = end.top.pieces[0]
        nodes = (deep.space, piece, end.top, end)
        assert [type(n) for n in nodes] == list(NODE_CLASSES)
        fields = (
            ("source", "target", "ambient"),
            ("id", "index", "value", "home"),
            ("pieces",),
            ("top", "space"),
        )
        for node, names in zip(nodes, fields):
            assert type(node)._names == names
            assert tuple(vars(node))[: len(names)] == names
            for name in (*names, "level", "other"):
                with pytest.raises(AttributeError, match="cannot assign to field"):
                    setattr(node, name, None)
                with pytest.raises(AttributeError):
                    delattr(node, name)
            assert tuple(vars(node))[: len(names)] == names

    def test_stationarity_of_every_kind(self, deformed_tower):
        end = find_cell(deformed_tower, 1, "(x/y:c0,y/w:a) @ M(x>w)")
        assert not fc.is_stationary(end.top)
        assert not fc.is_stationary(find_cell(deformed_tower, 0, "w"))
        with pytest.raises(ValueError):
            fc.is_stationary("x")

    def test_glued_raw_keys_below_the_top_boundary(self, deformed_tower):
        # Pinned strings: the raw history of a composite glued below its top
        # boundary shares, joins and pairs entries by position.
        sphere = fc.build_tower(*fc.sphere_system(3))
        X = fc.GlobularSet(sphere)
        units = []
        for a in fc.cells(sphere, 3):
            for p in (0, 1):
                unit = a
                for _ in range(3 - p):
                    unit = fc.target(unit)
                for _ in range(3 - p):
                    unit = fc.identity(unit)
                units.append(fc.cell_key(X.compose(p, unit, a)))
        assert units == [
            "(hi2/lo2:0,1(1(1(S)))) @ M((hi2,1(1(S)))>(lo2,1(1(S)))|(hi1,1(S))>(lo1,1(S));N>S)",
            "(hi2/lo2:0,1(1(lo1))) @ M((hi2,1(lo1))>(lo2,1(lo1))|hi1>lo1;N>S)",
            "(hi2/lo2:1,1(1(1(S)))) @ M((hi2,1(1(S)))>(lo2,1(1(S)))|(hi1,1(S))>(lo1,1(S));N>S)",
            "(hi2/lo2:1,1(1(lo1))) @ M((hi2,1(lo1))>(lo2,1(lo1))|hi1>lo1;N>S)",
        ]
        view = fc.GlobularSet(deformed_tower)
        glued = {
            p: [fc.cell_key(view.compose(p, c, a)) for c, a in view.composable_pairs(3, p)]
            for p in (0, 1)
        }
        assert glued == {
            0: [
                "(1(1(x/y:c0)),1(1(y/w:a))) @ M((1(x/y:c0),1(y/w:a))>(1(x/y:c0),1(y/w:a))"
                "|(x/y:c0,y/w:a)>(x/y:c0,y/w:a);x>w)",
                "(1(1(z/y:c0)),1(1(y/w:a))) @ M((1(z/y:c0),1(y/w:a))>(1(z/y:c0),1(y/w:a))"
                "|(z/y:c0,y/w:a)>(z/y:c0,y/w:a);z>w)",
                "(1(1(x/y:c0)),1(1(y/w:b))) @ M((1(x/y:c0),1(y/w:b))>(1(x/y:c0),1(y/w:b))"
                "|(x/y:c0,y/w:b)>(x/y:c0,y/w:b);x>w)",
                "(1(1(z/y:c0)),1(1(y/w:b))) @ M((1(z/y:c0),1(y/w:b))>(1(z/y:c0),1(y/w:b))"
                "|(z/y:c0,y/w:b)>(z/y:c0,y/w:b);z>w)",
            ],
            1: [
                "(1(1(x/y:c0)),1(1(x/y:c0))) @ M((1(x/y:c0),1(x/y:c0))>(1(x/y:c0),1(x/y:c0))"
                "|x/y:c0>x/y:c0;x>y)",
                "(1(1(y/w:a)),1(1(y/w:a))) @ M((1(y/w:a),1(y/w:a))>(1(y/w:a),1(y/w:a))"
                "|y/w:a>y/w:a;y>w)",
                "(1(1(y/w:b)),1(1(y/w:b))) @ M((1(y/w:b),1(y/w:b))>(1(y/w:b),1(y/w:b))"
                "|y/w:b>y/w:b;y>w)",
                "(1(1(z/y:c0)),1(1(z/y:c0))) @ M((1(z/y:c0),1(z/y:c0))>(1(z/y:c0),1(z/y:c0))"
                "|z/y:c0>z/y:c0;z>y)",
            ],
        }
