"""Ready-made systems: spheres, the deformed sphere, and the seeded generator."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowcat as fc
import flowcat.generators


class TestSphereSystems:
    def test_two_critical_points_at_extreme_indices(self):
        for n in (1, 2, 3):
            fs, _ = fc.sphere_system(n)
            assert sorted((p.id, p.index) for p in fs.points) == [
                ("N", n),
                ("S", 0),
            ]
            assert [(s, t) for s, t, _ in fs.pairs] == [("N", "S")]

    def test_moduli_shape_grows_with_dimension(self):
        fs1, d1 = fc.sphere_system(1)
        comps1 = fs1.table.get(("N", "S"), ())
        assert [c.shape for c in comps1] == [fc.POINT, fc.POINT]
        assert d1.entries == ()

        fs2, d2 = fc.sphere_system(2)
        assert [c.shape for c in fs2.table.get(("N", "S"), ())] == [fc.CIRCLE]
        assert len(d2.entries) == 1

        fs3, d3 = fc.sphere_system(3)
        assert [c.shape for c in fs3.table.get(("N", "S"), ())] == [fc.sphere_like(2)]
        assert len(d3.entries) == 2

    def test_dimension_zero_and_negative_rejected(self):
        with pytest.raises(ValueError):
            fc.sphere_system(0)
        with pytest.raises(ValueError):
            fc.sphere_system(-1)


class TestDeformedSystem:
    def test_shape_of_the_five_moduli(self, deformed_fs):
        shapes = {
            (s, t): [(c.id, c.shape.kind) for c in cs] for s, t, cs in deformed_fs.pairs
        }
        assert shapes == {
            ("x", "y"): [("c0", "point")],
            ("z", "y"): [("c0", "point")],
            ("y", "w"): [("a", "point"), ("b", "point")],
            ("x", "w"): [("c0", "interval")],
            ("z", "w"): [("c0", "interval")],
        }

    def test_interval_ends_break_through_y(self, deformed_fs):
        (c,) = deformed_fs.table.get(("x", "w"), ())
        assert c.boundary == (
            (fc.PieceRef("x", "y", "c0"), fc.PieceRef("y", "w", "a")),
            (fc.PieceRef("x", "y", "c0"), fc.PieceRef("y", "w", "b")),
        )


class TestRandomSystems:
    def test_deterministic_per_seed(self):
        assert fc.random_system(7) == fc.random_system(7)
        assert fc.random_system(7) != fc.random_system(8)

    def test_corpus_of_seeds_is_valid_and_buildable(self):
        for seed in range(30):
            fs = fc.random_system(seed)
            assert fc.validate_flow_system(fs) == ()
            t = fc.build_tower(fs)
            assert t.complete

    def test_bounds_respected(self):
        for seed in range(30):
            fs = fc.random_system(seed, max_points=6, max_index=3)
            assert len(fs.points) <= 6
            assert fs.max_index <= 3
            for _, _, comps in fs.pairs:
                for c in comps:
                    assert c.shape in (fc.POINT, fc.INTERVAL)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        max_points=st.integers(min_value=2, max_value=5),
    )
    def test_any_seed_yields_a_valid_bounded_system(self, seed, max_points):
        fs = fc.random_system(seed, max_points=max_points, max_index=2)
        assert len(fs.points) <= max_points
        assert fs.max_index <= 2
        assert fc.validate_flow_system(fs) == ()

    def test_gives_up_after_its_attempts(self, monkeypatch):
        monkeypatch.setattr(flowcat.generators, "_ATTEMPTS", 0)
        with pytest.raises(fc.BuildError, match="^no valid random system found for seed 7$"):
            fc.random_system(7)

    def test_random_towers_never_need_declarations(self, random_towers):
        for t in random_towers.values():
            assert t.complete
