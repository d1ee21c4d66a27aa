"""Iterated construction of compactified spaces of flow lines.

Starting from a flow system, each round equips every current space with
Morse data (exact heights and stratum-intrinsic indices for its critical
points) and derives, for every ordered pair of critical points, the
components of the next space of flow lines between them.  Points whose
pairs all derive to nothing get a stationary (one-point) space, so every
critical point keeps a space over it.  The build terminates when a round
produces only stationary spaces; the number of rounds is bounded by the
largest base index plus one.

Heights are exact rationals chosen so that (a) they strictly decrease
along every flow line, (b) along a chain x > y > z every height on the
space (x,y) exceeds every height on (y,z), and (c) any two sums over
distinct sets of critical-point heights differ — each critical point's
height gets a distinct dyadic tag, so a sum determines its set of
summands.  Property (c) orients every interval unambiguously: its endpoint
heights are sums over different broken configurations and therefore never
tie.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .core import (
    CritPoint,
    ModuliAddress,
    Point,
    Broken,
    _refuse_assignment,
    address_key,
    is_stationary,
    point_key,
    stationary_point,
)
from .stratification import (
    CIRCLE,
    Component,
    FlowSystem,
    INTERVAL,
    POINT,
    _base_ranks,
    _pair_rules,
    _pair_table,
    _point_rules,
    sphere_like,
    validate_flow_system,
)

__all__ = [
    "DeclaredPoint",
    "ComponentDecl",
    "Declarations",
    "MorseEntry",
    "SpaceData",
    "Tower",
    "InvalidFlowSystemError",
    "MissingDeclarationError",
    "BuildError",
    "derive_moduli",
    "build_tower",
]


class BuildError(ValueError):
    """The tower cannot be built from the given data."""


class InvalidFlowSystemError(BuildError):
    """The base flow system breaks one or more laws."""

    def __init__(self, violations) -> None:
        self.violations = tuple(violations)
        lines = "\n".join(str(v) for v in self.violations)
        super().__init__(f"invalid flow system:\n{lines}")


class MissingDeclarationError(BuildError):
    """A component needs interior data that no declaration supplies."""

    def __init__(self, address: str, component: str, detail: str) -> None:
        self.address = address
        self.component = component
        super().__init__(
            f"component {component!r} of {address} needs a declaration: {detail}"
        )


class DeclaredPoint(NamedTuple):
    """One declared interior critical point: a name and its index."""

    name: str
    index: int


class ComponentDecl(NamedTuple):
    """Interior data declared for one component of one space: its points,
    and the components between pairs of them as ``(source, target,
    components)`` triples, the shape of :attr:`FlowSystem.pairs`."""

    points: tuple[DeclaredPoint, ...] = ()
    moduli: tuple[tuple[str, str, tuple[Component, ...]], ...] = ()


class _Entries(NamedTuple):
    entries: tuple[tuple[str, str, ComponentDecl], ...] = ()


class Declarations(_Entries):
    """Named interior data, keyed by (canonical address, component id).

    A subclass of its one-field tuple, so that it has a ``__dict__`` to
    keep its lookup table in; it refuses any other assignment.
    """

    __setattr__ = __delattr__ = _refuse_assignment

    @cached_property
    def _by_key(self) -> dict[tuple[str, str], ComponentDecl]:
        # Built from the end, so that the first entry listed per key wins.
        return {(a, c): d for a, c, d in reversed(self.entries)}

    def get(self, addr_key: str, comp_id: str) -> ComponentDecl | None:
        return self._by_key.get((addr_key, comp_id))

    @staticmethod
    def build(items: dict[tuple[str, str], ComponentDecl]) -> "Declarations":
        return Declarations(tuple((a, c, d) for (a, c), d in sorted(items.items())))


class MorseEntry(NamedTuple):
    """One critical point of the height function on one space.

    ``component`` names the component the point lies on (or whose
    boundary it lies on); ``role`` records how it arose: the point of a
    0-dimensional component, an interval endpoint (``end_max`` or
    ``end_min``), a ``declared`` interior point, or the point of a
    ``stationary`` space.
    """

    point: Point
    index: int
    value: Fraction
    component: str = ""
    role: str = ""


class SpaceData(NamedTuple):
    """One built space: its components, Morse data, and the components
    derived for every ordered pair of its critical points."""

    address: ModuliAddress
    components: tuple[Component, ...]
    # All critical points of the space, highest first.
    morse: tuple[MorseEntry, ...]
    derived: tuple[tuple[str, str, tuple[Component, ...]], ...] = ()

    @property
    def key(self) -> str:
        return address_key(self.address)

    @property
    def stationary(self) -> bool:
        return is_stationary(self.address)


class Tower(NamedTuple):
    """The full iterated construction over one flow system."""

    base: FlowSystem
    declarations: Declarations
    levels: tuple[tuple[SpaceData, ...], ...]
    complete: bool

    @property
    def max_level(self) -> int:
        return len(self.levels)

    def spaces(self, level: int) -> tuple[SpaceData, ...]:
        if not 1 <= level <= self.max_level:
            raise ValueError(
                f"level {level} out of range: tower has levels 1..{self.max_level}"
            )
        return self.levels[level - 1]


def _declared_points(
    decls: Declarations, addr_key_str: str, comp: Component
) -> tuple[DeclaredPoint, ...]:
    """Declared interior points of a component, highest first.

    Closed positive-dimensional shapes require exactly two points with
    the extreme indices, and declared positive-dimensional shapes at
    least one point; a missing or malformed declaration is an error
    naming the space and component.  The declared names and ``moduli``
    lines then obey the point and pair rules of base flow data, with no
    component for an endpoint to name; all violations are listed at once.
    """

    decl = decls.get(addr_key_str, comp.id) or ComponentDecl()
    pts = decl.points
    if comp.shape.kind == "declared" and comp.dim >= 1 and not pts:
        raise MissingDeclarationError(
            addr_key_str,
            comp.id,
            f"a declared {comp.dim}-dimensional component needs declared "
            "critical points",
        )
    if comp.shape.kind in ("circle", "sphere"):
        want_top = comp.dim if comp.shape.kind == "sphere" else 1
        if not pts:
            raise MissingDeclarationError(
                addr_key_str,
                comp.id,
                f"a closed {comp.dim}-dimensional component needs two declared "
                f"critical points (indices {want_top} and 0)",
            )
        if sorted(p.index for p in pts) != [0, want_top] or len(pts) != 2:
            raise BuildError(
                f"component {comp.id!r} of {addr_key_str}: a closed shape of "
                f"dimension {comp.dim} needs exactly two points with indices "
                f"{want_top} and 0, got {[(p.name, p.index) for p in pts]}"
            )
    for p in pts:
        if not 0 <= p.index <= comp.dim:
            raise BuildError(
                f"declared point {p.name!r} of {comp.id!r} of {addr_key_str}: "
                f"index {p.index} outside 0..{comp.dim}"
            )
    index = {p.name: p.index for p in reversed(pts)}
    violations = [*_point_rules(p.name for p in pts), *_pair_rules(decl.moduli, index, {})]
    if violations:
        raise BuildError(
            f"invalid declarations of component {comp.id!r} of {addr_key_str}:\n"
            + "\n".join(map(str, violations))
        )
    return tuple(sorted(pts, key=lambda p: (-p.index, p.name)))


def derive_moduli(
    space: SpaceData,
    p: MorseEntry,
    q: MorseEntry,
    decls: Declarations,
) -> tuple[Component, ...]:
    """Components of the next space between two critical points.

    ``p`` and ``q`` are two different entries of the space's Morse data,
    so the space is not stationary: a stationary space has one entry.
    Forced cases: points of different components give nothing; no flow
    runs up the height order or fails to drop index, so a point gives
    nothing with itself; an interval flows from its higher endpoint to
    its lower through one point; the two poles of a circle are joined by
    two points, those of a k-sphere by a (k-1)-sphere shape.  Remaining
    pairs need declared components, which are trusted as
    :func:`build_tower` has validated them; a pair without them is an
    error naming the space and component.
    """

    akey = space.key
    pk, qk = point_key(p.point), point_key(q.point)

    if p.component != q.component or p.value <= q.value or p.index <= q.index:
        return ()

    comp = next(c for c in space.components if c.id == p.component)
    decl = decls.get(akey, comp.id)
    for s, t, comps in decl.moduli if decl else ():
        if (s, t) == (pk, qk):
            return comps

    if comp.shape == INTERVAL and {p.role, q.role} == {"end_max", "end_min"}:
        return (Component("0", POINT),)
    if comp.shape == CIRCLE and p.role == q.role == "declared":
        return (Component("0", POINT), Component("1", POINT))
    if comp.shape.kind == "sphere" and p.role == q.role == "declared":
        k = comp.dim - 1
        shape = CIRCLE if k == 1 else sphere_like(k)
        return (Component("0", shape),)

    raise MissingDeclarationError(
        akey,
        comp.id,
        f"no forced rule for flow from {pk} to {qk}; declare its components",
    )


def _stationary_space(at: Point, ambient: ModuliAddress | None) -> SpaceData:
    """The one-point space over a critical point, with its Morse datum."""

    pt = stationary_point(at, ambient)
    entry = MorseEntry(pt, 0, Fraction(0), "0", "stationary")
    return SpaceData(address=pt.home, components=(Component("0", POINT),), morse=(entry,))


def _schedule(
    table: dict[tuple[str, str], tuple[Component, ...]],
    points: list[Point],
    ambient: ModuliAddress | None,
) -> tuple[list[SpaceData], list[SpaceData], set[tuple[str, str]]]:
    """The next round over the pair table of one space.

    ``table`` maps pairs of point keys of the space to the components
    between them, ``points`` lists the space's critical points and
    ``ambient`` is its address.  Each pair seeds a space, with no Morse
    data until its round mints it; each point in no pair gets a stationary
    tail; each chain a > b > c of pairs yields the edge (a,b) > (b,c):
    heights on the first space exceed those on the second.  The points of
    a chain are distinct: every pair of ``table`` drops index, by the
    validator's ``index-order`` rule or by :func:`derive_moduli`.
    """

    point_of = {point_key(p): p for p in points}
    pt = _pair_table(table)
    seeds = {
        (a, b): SpaceData(ModuliAddress(point_of[a], point_of[b], ambient), comps, ())
        for (a, b), comps in table.items()
    }
    used = {k for pair in table for k in pair}
    tails = [_stationary_space(p, ambient) for p in points if point_key(p) not in used]
    edges = {(seeds[a, b].key, seeds[b, c].key) for a, b in table for c in pt.succ.get(b, ())}
    return list(seeds.values()), tails, edges


_Minted = dict[tuple[ModuliAddress | None, str, str, str], tuple[MorseEntry, ...]]


def _mint(
    seeds: list[SpaceData], edges: set[tuple[str, str]], decls: Declarations
) -> _Minted:
    """The points of one round's components, with their heights.

    ``seeds`` come in address-key order, the order declarations are read
    in, so a missing one names the first such space by key.  ``edges``
    holds ``(hi, lo)`` address-key pairs from chains: every height on
    ``hi`` must exceed every height on ``lo``.  Each space gets an integer
    slot respecting the edges; the point of a 0-dimensional component gets
    ``slot + tag``, declared interior points (highest first) get ``slot +
    position + tag``, where the tags are distinct dyadic fractions below
    1/2 handed out in slot order.  The next space's slot is one above the
    tallest position, so no space's heights reach into a later slot.  The
    result is keyed ``(ambient, source key, target key, component id)``:
    sibling spaces over one ambient space share it, so interval endpoints can
    be resolved across them, and spaces over different ambient spaces never
    share a point.  A space keys its points by name, so it refuses a name
    declared on two of its components.
    """

    # Per space, per component in id order: the name, index, height above
    # the slot and role of each point to mint.
    made: dict[str, list[tuple[str, list[tuple[str, int, int, str]]]]] = {}
    for seed in seeds:
        made[seed.key] = []
        source, target = point_key(seed.address.source), point_key(seed.address.target)
        owner: dict[str, str] = {}
        for comp in sorted(seed.components, key=lambda c: c.id):
            if comp.dim == 0:
                names = [(f"{source}/{target}:{comp.id}", 0, 0, "point")]
            else:
                dps = _declared_points(decls, seed.key, comp)
                names = []
                for m, dp in enumerate(dps):
                    if owner.setdefault(dp.name, comp.id) != comp.id:
                        on = f"components {owner[dp.name]!r} and {comp.id!r} of {seed.key}"
                        raise BuildError(f"name {dp.name!r} declared on {on}")
                    names.append((dp.name, dp.index, len(dps) - m, "declared"))
            made[seed.key].append((comp.id, names))
    ranks = _base_ranks(list(made), edges)
    minted: _Minted = {}
    tag = Fraction(1, 2)
    order = sorted(seeds, key=lambda sd: (ranks[sd.key], sd.key))
    slot = 1
    for seed in order:
        a = seed.address
        top = 0
        for cid, names in made[seed.key]:
            entries = []
            for name, index, height, role in names:
                tag /= 2
                pt = CritPoint(name, index, slot + height + tag, a)
                entries.append(MorseEntry(pt, index, pt.value, cid, role))
                top = max(top, height)
            minted[a.ambient, point_key(a.source), point_key(a.target), cid] = tuple(entries)
        slot += top + 1
    return minted


def _critical_points(space: SpaceData, minted: _Minted) -> tuple[MorseEntry, ...]:
    """All critical points of the height function on one seeded space.

    Each component contributes its points from ``minted``; an interval
    also contributes its two endpoints (broken points whose pieces are
    points of sibling spaces, height the sum over pieces, index 1 at the
    higher endpoint).  A component without boundary adds no ends; the
    validator gives every interval two, in base data and declarations.
    """

    entries: list[MorseEntry] = []
    a = space.address
    source, target = point_key(a.source), point_key(a.target)
    for comp in sorted(space.components, key=lambda c: c.id):
        entries.extend(minted[a.ambient, source, target, comp.id])
        ends: list[MorseEntry] = []
        for end in comp.boundary:
            pieces = [minted[a.ambient, r.source, r.target, r.component][0] for r in end]
            point = Broken(tuple(e.point for e in pieces))
            value = sum((e.value for e in pieces), Fraction(0))
            ends.append(MorseEntry(point, 0, value, comp.id, "corner"))
        if comp.shape == INTERVAL:
            hi, lo = sorted(ends, key=lambda e: -e.value)
            ends = [
                MorseEntry(hi.point, 1, hi.value, comp.id, "end_max"),
                MorseEntry(lo.point, 0, lo.value, comp.id, "end_min"),
            ]
        entries.extend(ends)
    entries.sort(key=lambda e: (-e.value, point_key(e.point)))
    return tuple(entries)


def _refuse_unread(
    decls: Declarations, levels: list[tuple[SpaceData, ...]], complete: bool
) -> None:
    """Raise :class:`BuildError` listing the declaration entries the build
    never read.

    The build reads the entry of every positive-dimensional component of
    every space it makes.  A build cut short by ``max_level`` refuses only
    entries on spaces it built: the others may name spaces of levels it
    did not build.
    """

    built = {sd.key for spaces in levels for sd in spaces}
    read = {(sd.key, c.id) for spaces in levels for sd in spaces for c in sd.components if c.dim}
    unread = sorted(k for k in decls._by_key if k not in read and (complete or k[0] in built))
    if unread:
        raise BuildError(
            "declarations the build never reads: "
            + "; ".join(f"component {cid!r} of {akey}" for akey, cid in unread)
        )


def build_tower(
    fs: FlowSystem,
    decls: Declarations | None = None,
    max_level: int | None = None,
) -> Tower:
    """Run the iterated construction until only stationary spaces remain.

    Raises :class:`InvalidFlowSystemError` on bad base data,
    :class:`MissingDeclarationError` where interior data is needed but not
    declared, and :class:`BuildError` on declarations that break a law (see
    :func:`_declared_points` and :func:`_mint`) or that the build never
    reads (see :func:`_refuse_unread`).  ``max_level`` optionally
    truncates the build; :class:`ValueError` if it is below 1.

    A complete build has at most ``fs.max_index + 1`` levels.  A space
    between p and q has dimension index(p) - index(q) - 1 (the dimension
    rule on base and declared pairs, and :func:`derive_moduli`'s forced
    cases), and no point of it has an index above that dimension.  So the
    points of level l have index at most ``max_index - l``: those of level
    ``max_index`` form no pair, and the next level is all stationary.
    """

    if max_level is not None and max_level < 1:
        raise ValueError(f"max_level must be >= 1, got {max_level}")
    decls = decls or Declarations()
    violations = validate_flow_system(fs)
    if violations:
        raise InvalidFlowSystemError(violations)

    levels: list[tuple[SpaceData, ...]] = []
    # The base flow system is the pair table of a level-0 space: its
    # points are the base critical points and it has no address.
    rounds = [(fs.table, list(fs.points), None)]
    while True:
        seeds: list[SpaceData] = []
        tails: list[SpaceData] = []
        chain_edges: set[tuple[str, str]] = set()
        for table, points, ambient in rounds:
            more_seeds, more_tails, edges = _schedule(table, points, ambient)
            seeds += more_seeds
            tails += more_tails
            chain_edges |= edges
        seeds.sort(key=lambda sd: sd.key)

        # Finish every space: its Morse data, then its pair table, the
        # components of the next space for every ordered pair of its
        # critical points.
        minted = _mint(seeds, chain_edges, decls)
        rounds = []
        finished: list[SpaceData] = []
        for space in seeds + tails:
            morse = space.morse if space.stationary else _critical_points(space, minted)
            table: dict[tuple[str, str], tuple[Component, ...]] = {}
            for p in morse:
                for q in morse:
                    if p is q:
                        continue
                    comps = derive_moduli(space, p, q, decls)
                    if comps:
                        table[(point_key(p.point), point_key(q.point))] = comps
            rounds.append((table, [e.point for e in morse], space.address))
            derived = tuple((a, b, comps) for (a, b), comps in sorted(table.items()))
            finished.append(space._replace(morse=morse, derived=derived))

        finished.sort(key=lambda d: d.key)
        levels.append(tuple(finished))
        complete = all(d.stationary for d in finished)
        if complete or len(levels) == max_level:
            _refuse_unread(decls, levels, complete)
            return Tower(
                base=fs,
                declarations=decls,
                levels=tuple(levels),
                complete=complete,
            )
