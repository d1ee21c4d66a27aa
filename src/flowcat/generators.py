"""Ready-made flow systems: round spheres, a deformed sphere, random data.

The sphere family exercises deep towers with declared interior points;
the deformed sphere exercises intervals, broken flow lines, and
nontrivial gluing; the random generator produces arbitrary valid systems
built from point and interval components only, for property testing.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .core import CritPoint, ModuliAddress, address_key
from .stratification import (
    CIRCLE,
    Endpoint,
    FlowSystem,
    INTERVAL,
    PieceRef,
    POINT,
    Shape,
    flow_system,
    sphere_like,
    validate_flow_system,
)
from .tower import BuildError, ComponentDecl, DeclaredPoint, Declarations

__all__ = [
    "sphere_system",
    "deformed_sphere_system",
    "random_system",
]


def sphere_system(n: int) -> tuple[FlowSystem, Declarations]:
    """Height flow on the round n-sphere: two base points, one space.

    The space between the maximum ``N`` (index n) and the minimum ``S``
    (index 0) is a closed (n-1)-manifold: two points for n = 1, a circle
    for n = 2, and a sphere-like component for n >= 3.  Each closed
    component of positive dimension carries two declared critical points
    ``hi{l}``/``lo{l}`` (a max and a min for its own height), so the
    derivation can iterate all the way down.
    """

    if n < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {n}")
    if n == 1:
        comps = [("c0", POINT, ()), ("c1", POINT, ())]
    elif n == 2:
        comps = [("c0", CIRCLE, ())]
    else:
        comps = [("c0", sphere_like(n - 1), ())]
    fs = flow_system([("N", n), ("S", 0)], {("N", "S"): comps})

    items: dict[tuple[str, str], ComponentDecl] = {}
    addr = ModuliAddress(CritPoint("N", n, Fraction(2)), CritPoint("S", 0, Fraction(1)))
    comp_id = "c0"
    for level in range(1, n):
        hi = DeclaredPoint(f"hi{level}", n - level)
        lo = DeclaredPoint(f"lo{level}", 0)
        items[(address_key(addr), comp_id)] = ComponentDecl(points=(hi, lo))
        addr = ModuliAddress(
            CritPoint(hi.name, hi.index, Fraction(2), addr),
            CritPoint(lo.name, lo.index, Fraction(1), addr),
            addr,
        )
        comp_id = "0"
    return fs, Declarations.build(items)


def deformed_sphere_system() -> FlowSystem:
    """A 2-sphere squeezed so its height has four critical points.

    One minimum ``w``, one saddle ``y``, two maxima ``x`` and ``z``.
    Flow lines from each maximum to the minimum form an interval whose
    two endpoints break at the saddle, through the two flow lines ``a``
    and ``b`` from saddle to minimum.  Needs no declarations: every
    derived space is forced.
    """

    def chain(top: str, mid_comp: str) -> Endpoint:
        return (PieceRef(top, "y", "c0"), PieceRef("y", "w", mid_comp))

    moduli = {
        ("x", "y"): [("c0", POINT, ())],
        ("z", "y"): [("c0", POINT, ())],
        ("y", "w"): [("a", POINT, ()), ("b", POINT, ())],
        ("x", "w"): [("c0", INTERVAL, (chain("x", "a"), chain("x", "b")))],
        ("z", "w"): [("c0", INTERVAL, (chain("z", "a"), chain("z", "b")))],
    }
    return flow_system([("w", 0), ("x", 2), ("y", 1), ("z", 2)], moduli)


_ATTEMPTS = 500


def random_system(seed: int, max_points: int = 6, max_index: int = 3) -> FlowSystem:
    """A deterministic pseudo-random valid flow system for one seed.

    Components are points and intervals only, so no declarations are
    ever needed.  Indices occupy a window of two or three consecutive
    values; flow connects indices one apart through point components,
    and every pair two apart whose chains exist gets interval components
    covering each broken configuration exactly once.  Attempts whose
    chain count is odd somewhere (intervals pair chains two by two) are
    discarded and retried with a derived sub-seed.
    """

    if max_points < 2:
        raise ValueError("need room for at least 2 points")
    if max_index < 1:
        raise ValueError("need at least two index values")
    for attempt in range(_ATTEMPTS):
        rng = random.Random(f"flowcat:{seed}:{attempt}")
        fs = _attempt_random(rng, max_points, max_index)
        if fs is not None and not validate_flow_system(fs):
            return fs
    raise BuildError(f"no valid random system found for seed {seed}")


def _attempt_random(
    rng: random.Random, max_points: int, max_index: int
) -> FlowSystem | None:
    # Three grades need three points and three index values; otherwise two.
    span = 2 if max_index < 2 or max_points < 3 else rng.choice((2, 3, 3))
    low = rng.randint(0, max_index + 1 - span)
    grades = list(range(low, low + span))

    count = rng.randint(span, max_points)
    indices = list(grades)
    indices += [rng.choice(grades) for _ in range(count - span)]
    rng.shuffle(indices)
    points = [(f"p{i}", indices[i]) for i in range(count)]
    at_grade = {g: [pid for pid, idx in points if idx == g] for g in grades}

    moduli: dict[tuple[str, str], list[tuple[str, Shape, tuple[Endpoint, ...]]]] = {}
    for g in grades[:-1]:
        for x in at_grade[g + 1]:
            for z in at_grade[g]:
                r = rng.random()
                if r < 0.55:
                    moduli[(x, z)] = [("c0", POINT, ())]
                elif r < 0.75:
                    moduli[(x, z)] = [("c0", POINT, ()), ("c1", POINT, ())]

    if span == 3:
        gt, gm, gb = grades[2], grades[1], grades[0]
        for x in at_grade[gt]:
            for z in at_grade[gb]:
                chains: list[Endpoint] = []
                for y in at_grade[gm]:
                    for cxy, _, _ in moduli.get((x, y), []):
                        for cyz, _, _ in moduli.get((y, z), []):
                            chains.append(
                                (PieceRef(x, y, cxy), PieceRef(y, z, cyz))
                            )
                if not chains:
                    continue
                if len(chains) % 2:
                    return None
                moduli[(x, z)] = [
                    (f"c{k}", INTERVAL, (chains[2 * k], chains[2 * k + 1]))
                    for k in range(len(chains) // 2)
                ]

    if not moduli:
        return None
    return flow_system(points, moduli)
