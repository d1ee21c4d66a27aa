"""Cells, boundaries, composition, and the canonical normal form.

The built tower yields one cell per critical point per space: level-0
cells are the base critical points, level-l cells the critical points of
the level-l spaces.  Source and target of a cell read off the endpoint
pair one level down; gluing two cells along a shared level-p boundary
concatenates their points and pairs their addresses entrywise above p.

Raw composites are trees; two raw cells represent the same cell exactly
when their normal forms agree.  The normalizer erases grouping, deletes
constant pieces, collapses repeated constant passage to a single one,
and sorts glued pieces into flow order.
"""

from __future__ import annotations

import weakref
from functools import reduce

from .core import (
    Broken,
    Cell,
    CritPoint,
    ModuliAddress,
    Point,
    ambient_of_point,
    breaking_key,
    cell_key,
    flatten_point,
    memo_on_node,
    stationary_point,
)
from .tower import Tower

__all__ = [
    "cells",
    "extended_cells",
    "source",
    "target",
    "identity",
    "normalize",
    "normalize_point",
    "GlobularSet",
]


def cells(tower: Tower, level: int) -> tuple[Cell, ...]:
    """The cells of one level, in canonical order.

    Level 0 lists the base critical points; level l <= max_level lists
    one cell per critical point per level-l space.
    """

    if not 0 <= level <= tower.max_level:
        raise ValueError(f"level {level} out of range 0..{tower.max_level}")
    if level == 0:
        return tuple(Cell(p, None) for p in sorted(tower.base.points, key=lambda p: p.id))
    out = [
        Cell(entry.point, sd.address)
        for sd in tower.spaces(level)
        for entry in sd.morse
    ]
    return tuple(sorted(out, key=cell_key))


def extended_cells(tower: Tower, level: int) -> tuple[Cell, ...]:
    """Cells of one level together with iterated identities from below.

    Composites of tower cells normalize into this family: gluing two
    cells can land on an identity over a lower cell (a corner passed
    through constantly), which the level's own list omits.
    """

    out = list(cells(tower, level))
    if level >= 1:
        out.extend(identity(c) for c in extended_cells(tower, level - 1))
    return tuple(sorted(dict.fromkeys(out), key=cell_key))


def source(cell: Cell) -> Cell:
    """The cell one level down at the source side."""

    if cell.space is None:
        raise ValueError("a level-0 cell has no source")
    return Cell(cell.space.source, cell.space.ambient)


def target(cell: Cell) -> Cell:
    """The cell one level down at the target side."""

    if cell.space is None:
        raise ValueError("a level-0 cell has no target")
    return Cell(cell.space.target, cell.space.ambient)


@memo_on_node
def identity(cell: Cell) -> Cell:
    """The constant cell one level up: the stationary space at the point.

    Its source and target are the given cell itself.  A critical point on
    the cell's own space gets the constant point ``_stationary_over`` keeps,
    so normalizing the identity finds that point and builds nothing.
    """

    top, space = cell.top, cell.space
    if type(top) is CritPoint and top.home is space:
        pt = _stationary_over(top)
    else:
        pt = stationary_point(top, space)
    return Cell(pt, pt.home)


def _gluing_error(p: int, after: Cell, first: Cell) -> str:
    """Why a pair that does not glue along level p does not."""

    level = after.level
    if first.level != level:
        return (
            f"cells of different levels do not glue: {cell_key(after)} is a "
            f"level-{level} cell and {cell_key(first)} a level-{first.level} cell"
        )
    if level == 0:
        return "level-0 cells do not compose: they have no boundary to glue along"
    if not 0 <= p < level:
        return f"p {p} out of range 0..{level - 1} for level-{level} cells"
    return (
        f"cells do not glue along level {p}: the level-{p} source of "
        f"{cell_key(after)} differs from the level-{p} target of {cell_key(first)}"
    )


def _join(x: Point, y: Point) -> Point:
    """The raw join of two pieces: the broken point that runs x, then y."""

    return Broken((x, y))


def _merge(x: Point, y: Point) -> Point:
    """The normal join of two normal points: the normal form of the broken
    point that runs x, then y, and the step that ``normalize_point`` folds.

    A normal point is constant only as a constant critical point; a moving
    one has only moving pieces, in flow order.  A constant side next to a
    moving one is deleted.  Two constant points join as x when they sit over
    one support, and otherwise as the constant point over the join of their
    supports, one level down.  Every node built is part of the result.
    """

    if x.stationary:
        if not y.stationary:
            return y
        sx, sy = x.home.source, y.home.source
        return x if sx is sy else _stationary_over(_merge(sx, sy))
    if y.stationary:
        return x
    return Broken(tuple(sorted(flatten_point(x) + flatten_point(y), key=breaking_key)))


def _glue(p: int, after: Cell, first: Cell, join, memo: dict | None = None) -> Cell:
    """The composite of a pair known to glue along level p, joining pieces by ``join``.

    ``_join`` gives the raw composite; ``_merge`` on normal cells, its normal form.
    A composite whose top and address are those of ``first`` or ``after`` is
    that node, returned as it stands: a unit composite glues to the cell.
    """

    space = _glue_address(p, after.space, first.space, join, memo)
    top = join(first.top, after.top)
    if top is first.top and space is first.space:
        return first
    if top is after.top and space is after.space:
        return after
    return Cell(top, space)


def _glue_address(
    p: int, after: ModuliAddress, first: ModuliAddress, join, memo: dict | None = None
) -> ModuliAddress:
    """The address of two glued spaces of the same level above p.

    At level p + 1 the space runs from ``first``'s source to ``after``'s
    target over ``first``'s ambient; above it the endpoints join and the
    ambients glue in turn.  A ``memo`` keeps each address glued above
    level p + 1, by ``(p, after, first)``.  An address whose parts are those
    of ``first`` or ``after`` is that node, returned without an intern lookup.
    """

    if after.level == p + 1:
        if after.target is first.target:
            return first
        if first.source is after.source and first.ambient is after.ambient:
            return after
        return ModuliAddress(first.source, after.target, first.ambient)
    key = (p, after, first)
    glued = memo and memo.get(key)
    if not glued:
        source = join(first.source, after.source)
        target = join(first.target, after.target)
        ambient = _glue_address(p, after.ambient, first.ambient, join, memo)
        if source is first.source and target is first.target and ambient is first.ambient:
            glued = first
        elif source is after.source and target is after.target and ambient is after.ambient:
            glued = after
        else:
            glued = ModuliAddress(source, target, ambient)
        if memo is not None:
            memo[key] = glued
    return glued


def _stationary_over(base: Point) -> CritPoint:
    """The canonical constant point over a normal point: the point of the
    stationary space at ``base``, over the space ``base`` lives on.

    Memoized on the base through a weak reference.  A base point is shared
    by every live tower with a point of that name, so a strong memo would
    keep one tower's constant points alive after the tower is dropped; the
    constant point refers to its base, so the weak memo forms no cycle.
    ``identity`` fills it for a critical point on the cell's own space.
    """

    memo = base.__dict__
    ref = memo.get("_memo_stationary_over")
    pt = None if ref is None else ref()
    if pt is None:
        pt = stationary_point(base, ambient_of_point(base))
        memo["_memo_stationary_over"] = weakref.ref(pt)
    return pt


@memo_on_node
def normalize_point(pt: Point) -> Point:
    """Canonical form of a point.

    A constant critical point is the constant point over its normal
    support, so the level of the input is always preserved; a moving one is
    already canonical.  A broken point is the left fold of the normal join
    ``_merge`` over its normalized pieces: grouping is erased, constant
    pieces next to moving ones are deleted, and the moving pieces are sorted
    into flow order.
    """

    if isinstance(pt, Broken):
        return reduce(_merge, map(normalize_point, pt.pieces))
    if not pt.stationary:
        return pt
    return _stationary_over(normalize_point(pt.home.source))


@memo_on_node
def _normalize_address(addr: ModuliAddress) -> ModuliAddress:
    source, target, ambient = addr.source, addr.target, addr.ambient
    normal = (
        normalize_point(source),
        normalize_point(target),
        None if ambient is None else _normalize_address(ambient),
    )
    return addr if normal == (source, target, ambient) else ModuliAddress(*normal)


@memo_on_node
def normalize(cell: Cell) -> Cell:
    """Canonical form of a cell: point and address normalized alike.

    Levels are preserved; two cells represent the same cell exactly when
    their normal forms are one node.  The normal form is memoized on the
    cell, and a normal cell is its own normal form.
    """

    top, space = cell.top, cell.space
    normal = (normalize_point(top), None if space is None else _normalize_address(space))
    return cell if normal == (top, space) else Cell(*normal)


class GlobularSet:
    """The levelwise cells with their boundary maps, as checkable data.

    Sources and targets are read off the address, for tower cells and raw
    composites alike.  The boundary maps, the identity assignment, and the
    composition table can each be overridden entry by entry, so that every
    law the checker verifies can be broken by a single targeted mutation.
    Sameness is one test throughout: two cells are the same exactly when
    their normal forms are one node, so an override answers for every raw
    cell with the normal form of the one it was given for.
    For the life of the view it keeps the composites of two of its own
    cells, the iterated raw boundaries of each normal cell it has walked,
    the glued normal addresses, and the normal composite of each pair that
    ``normal_compose`` glued.  These tables ignore the overrides, so a view
    derived by a ``with_*`` call shares them; the iterated boundaries through
    an overridden ``s`` or ``t`` are walked afresh on each call.  A derived
    view shares the composable pairs too, unless its new override is on
    ``s`` or ``t``.
    """

    def __init__(self, tower: Tower) -> None:
        self.tower = tower
        self.n = tower.max_level
        # The overrides, keyed (map, normal form) for the maps "s", "t" and
        # "identity", and ("compose", p, normal after, normal first).
        # ``_maps`` names the overridden maps: a map with no override never
        # normalizes, and its lookup reads False.
        self._over: dict[tuple, Cell] = {}
        self._maps: frozenset[str] = frozenset()
        self._cells = {l: cells(tower, l) for l in range(self.n + 1)}
        self._own_cells = {c for cs in self._cells.values() for c in cs}
        self._pairs_memo: dict[tuple[int, int], tuple[tuple[Cell, Cell], ...]] = {}
        # Composites of two of the view's own cells, keyed (p, after, first):
        # the pairs that laws a, c, e and f glue again and again.
        self._composites: dict[tuple[int, Cell, Cell], Cell] = {}
        # The raw iterated boundaries of a normal cell, filled by ``_walk``.
        self._walks: dict[Cell, tuple[tuple[Cell, ...], tuple[Cell, ...]]] = {}
        # Glued normal addresses, keyed (p, after, first).
        self._glued: dict[tuple[int, ModuliAddress, ModuliAddress], ModuliAddress] = {}
        # Normal composites, keyed (p, after, first): every pair that
        # ``normal_compose`` glued without a compose override.
        self._normals: dict[tuple[int, Cell, Cell], Cell] = {}

    def cells(self, level: int) -> tuple[Cell, ...]:
        if not 0 <= level <= self.n:
            raise ValueError(f"level {level} out of range 0..{self.n}")
        return self._cells[level]

    def s(self, cell: Cell) -> Cell:
        new = "s" in self._maps and self._over.get(("s", normalize(cell)))
        return new or source(cell)

    def t(self, cell: Cell) -> Cell:
        new = "t" in self._maps and self._over.get(("t", normalize(cell)))
        return new or target(cell)

    def identity(self, cell: Cell) -> Cell:
        new = "identity" in self._maps and self._over.get(("identity", normalize(cell)))
        return new or identity(cell)

    def boundary(self, q: int, cell: Cell, side: str) -> Cell:
        """The normal form of the iterated level-q source or target, for q in
        0..level: ``cell.level - q`` steps of the view's ``s`` or ``t``."""

        if side not in ("s", "t"):
            raise ValueError(f"side must be 's' or 't', got {side!r}")
        if not 0 <= q <= cell.level:
            raise ValueError(f"level {q} out of range 0..{cell.level}")
        if side not in self._maps:
            return self._raw_boundary(q, cell, side)
        step = self.s if side == "s" else self.t
        for _ in range(cell.level - q):
            cell = step(cell)
        return normalize(cell)

    def _raw_boundary(self, q: int, cell: Cell, side: str) -> Cell:
        """``boundary`` through the raw maps, which ignore the overrides."""

        walk = self._walks.get(cell) or self._walk(normalize(cell))
        return walk[side == "t"][q]

    def boundaries(self, cell: Cell) -> tuple[tuple[Cell, ...], tuple[Cell, ...]]:
        """Two tuples whose entry q is ``boundary(q, cell, side)`` for q in
        0..level, sources then targets: the cell's walk-table entry on a view
        with no ``s`` or ``t`` override, else one ``boundary`` call an entry,
        the targets first."""

        if "s" in self._maps or "t" in self._maps:
            levels = range(cell.level + 1)
            targets = tuple(self.boundary(q, cell, "t") for q in levels)
            return tuple(self.boundary(q, cell, "s") for q in levels), targets
        return self._walks.get(cell) or self._walk(normalize(cell))

    def _walk(self, cell: Cell) -> tuple[tuple[Cell, ...], tuple[Cell, ...]]:
        """The iterated raw sources and targets of a normal cell, memoized:
        entry q of each tuple is the level-q one, and the last is the cell.

        They are normal, since the normal form commutes with the raw maps:
        ``normalize(source(c)) is source(normalize(c))``.
        """

        walk = self._walks.get(cell)
        if walk is None:
            if cell.space is None:
                walk = ((cell,), (cell,))
            else:
                # A stationary cell's raw source is its raw target.
                below = self._walk(source(cell))
                if cell.space.source is not cell.space.target:
                    below = below[0], self._walk(target(cell))[1]
                walk = (below[0] + (cell,), below[1] + (cell,))
            self._walks[cell] = walk
        return walk

    def composable(self, p: int, after: Cell, first: Cell) -> bool:
        """Whether the pair glues along level p under the view's own boundary
        maps, overrides included: the gluing rule of ``compose``."""

        level = after.level
        return (
            first.level == level
            and 0 <= p < level
            and self.boundary(p, after, "s") is self.boundary(p, first, "t")
        )

    def composable_pairs(self, level: int, p: int) -> tuple[tuple[Cell, Cell], ...]:
        """All ordered pairs of level cells gluing along level p, memoized;
        empty for p outside 0..level-1, where no pair is composable."""

        memo_key = (level, p)
        if memo_key not in self._pairs_memo:
            cs = self.cells(level)  # raises on a level out of range
            if not 0 <= p < level:
                cs = ()
            firsts: dict[Cell, list[Cell]] = {}
            for a in cs:
                firsts.setdefault(self.boundary(p, a, "t"), []).append(a)
            self._pairs_memo[memo_key] = tuple(
                (c, a) for c in cs for a in firsts.get(self.boundary(p, c, "s"), ())
            )
        return self._pairs_memo[memo_key]

    def _compose_override(self, p: int, after: Cell, first: Cell):
        """The overridden composite of the pair, or a false value."""

        return "compose" in self._maps and self._over.get(
            ("compose", p, normalize(after), normalize(first))
        )

    def _gluing(self, p: int, after: Cell, first: Cell) -> tuple[Cell, Cell]:
        """The normal forms of a pair that glues along level p under the raw
        maps, the last entries of its two walks; :class:`ValueError` if the
        walks differ in length, p is not below the level, or entry p of
        ``after``'s sources is not that of ``first``'s targets."""

        walks = self._walks
        sources = (walks.get(after) or self._walk(normalize(after)))[0]
        targets = (walks.get(first) or self._walk(normalize(first)))[1]
        if len(sources) == len(targets) and 0 <= p < len(sources) - 1 and sources[p] is targets[p]:
            return sources[-1], targets[-1]
        raise ValueError(_gluing_error(p, after, first))

    def compose(self, p: int, after: Cell, first: Cell) -> Cell:
        """Glue two cells along their shared level-p boundary, unless an
        override applies.

        The result's point is the broken point (first, after): the piece
        traversed first comes first.  Addresses pair entrywise above level
        p, join at level p, and share the data below.  Raises
        :class:`ValueError` if the pair does not glue under the raw maps.
        """

        new = self._compose_override(p, after, first)
        if new:
            return new
        key = (p, after, first)
        glued = self._composites.get(key)
        if glued is None:
            self._gluing(p, after, first)
            glued = _glue(p, after, first, _join)
            if after in self._own_cells and first in self._own_cells:
                self._composites[key] = glued
        return glued

    def normal_compose(self, p: int, after: Cell, first: Cell) -> Cell:
        """The normal form of ``compose(p, after, first)``.

        Unless an override applies, it glues the normal forms of the two cells
        and keeps the result, keyed ``(p, after, first)``.
        """

        new = self._compose_override(p, after, first)
        return normalize(new) if new else self._normal_glue(p, after, first)

    def _normal_glue(self, p: int, after: Cell, first: Cell) -> Cell:
        """``normal_compose`` past the override lookup: the kept normal
        composite of the pair, glued on first use."""

        key = (p, after, first)
        glued = self._normals.get(key)
        if glued is None:
            glued = _glue(p, *self._gluing(p, after, first), _merge, self._glued)
            self._normals[key] = glued
        return glued

    def _with(self, key: tuple, new: Cell) -> "GlobularSet":
        """A view over the same tower with one more override.

        It shares the cell lists and the walk, composite, glue and normal
        composite tables, which ignore the overrides.  It shares the pair memo
        too unless the new override is on ``s`` or ``t``, the only maps that
        ``composable_pairs`` reads.
        """

        view = object.__new__(GlobularSet)
        view.__dict__.update(self.__dict__)
        view._over = {**self._over, key: new}
        view._maps = frozenset(k[0] for k in view._over)
        if key[0] in ("s", "t"):
            view._pairs_memo = {}
        return view

    def with_source(self, cell: Cell, new: Cell) -> "GlobularSet":
        return self._with(("s", normalize(cell)), new)

    def with_target(self, cell: Cell, new: Cell) -> "GlobularSet":
        return self._with(("t", normalize(cell)), new)

    def with_identity(self, cell: Cell, new: Cell) -> "GlobularSet":
        return self._with(("identity", normalize(cell)), new)

    def with_compose(self, p: int, after: Cell, first: Cell, new: Cell) -> "GlobularSet":
        return self._with(("compose", p, normalize(after), normalize(first)), new)
