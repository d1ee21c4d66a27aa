"""Core data model: critical points, space addresses, and broken points.

A *flow system* describes finitely many critical points joined by flow
lines.  The space of flow lines between two critical points, compactified
by broken flow lines, is identified combinatorially by a
:class:`ModuliAddress`: the pair of endpoints plus the address of the
ambient space that holds them, one level down.

Points of such a space are either a :class:`CritPoint` (a single
critical point) or :class:`Broken` (an ordered tuple of pieces, one per
factor of a product stratum on the boundary).  Broken points are glued
along matching endpoints; flattening erases the grouping and yields the
critical points in gluing order.

The four node classes are hash-consed (Filliâtre & Conchon, "Type-Safe
Modular Hash-Consing", 2006): building a node whose fields are those of a
live node returns that node.  Equal nodes are therefore one object, and
``==`` and ``hash`` are identity, O(1) however deep the node.  Derived
data such as key strings and normal forms is memoized on the node.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from functools import wraps
from typing import Union

__all__ = [
    "CritPoint",
    "ModuliAddress",
    "Point",
    "Broken",
    "Cell",
    "flatten_point",
    "breaking_key",
    "is_stationary",
    "point_value",
    "point_key",
    "address_key",
    "cell_key",
    "stationary_point",
    "ambient_of_point",
]


def _hashconsed(cls):
    """Class decorator: give a node class, whose fields are its annotations
    in order, an intern table and the methods of an immutable value.

    The table maps each key to a weak reference that carries the key, with
    one removal callback per class, so a node nobody else holds is freed and
    its entry leaves the table.  The class gets a ``repr`` of its fields,
    minus those it lists in ``_unshown``, a ``__reduce__`` that rebuilds the
    node from its fields, and refuses assignment and deletion of attributes.
    """

    names = cls._names = tuple(cls.__annotations__)
    table = cls._table = {}

    def drop(ref: weakref.KeyedRef) -> None:
        # Weak reference callback: drop the entry of a freed node, unless
        # a new node has taken its key since.
        if table.get(ref.key) is ref:
            del table[ref.key]

    shown = [n for n in names if n not in getattr(cls, "_unshown", ())]
    form = f"{cls.__qualname__}({', '.join(f'{n}=%r' for n in shown)})"
    cls._drop = staticmethod(drop)
    cls.__repr__ = lambda node: form % tuple(getattr(node, n) for n in shown)
    cls.__setattr__ = cls.__delattr__ = _refuse_assignment
    cls.__reduce__ = lambda node: (cls, tuple(getattr(node, n) for n in names))
    return cls


def _refuse_assignment(obj, name: str, *value) -> None:
    """``__setattr__`` and ``__delattr__`` of an immutable object."""

    raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def _keep(cls, key, **fields):
    """A new node of ``cls`` with these fields, first in its ``__dict__``,
    entered in the class's table under ``key``.  Called once the node's
    checks have passed, so a node that fails them never enters the table.
    ``weakref.ref.__new__`` skips ``KeyedRef``'s Python frames."""

    node = object.__new__(cls)
    node.__dict__.update(fields)
    ref = weakref.ref.__new__(weakref.KeyedRef, node, cls._drop)
    ref.key = key
    cls._table[key] = ref
    return node


_SELF = object()


def memo_on_node(fn):
    """Memoize a function of one node in the node's own ``__dict__``.

    A result that is the node itself is stored as a marker, so that the
    memo never makes a node refer to itself and a dropped tower is freed by
    reference counting alone.
    """

    attr = f"_memo_{fn.__name__}"

    @wraps(fn)
    def memoized(node):
        memo = node.__dict__
        out = memo.get(attr)
        if out is None:
            out = fn(node)
            memo[attr] = _SELF if out is node else out
            return out
        return node if out is _SELF else out

    return memoized


@_hashconsed
class ModuliAddress:
    """Identity of one compactified space of flow lines.

    ``source``/``target`` are the endpoints of the flow lines the space
    parametrizes; ``ambient`` is the address of the space that holds
    them, or ``None`` when they are base critical points.  Level-1 spaces
    sit over the base flow system, level-2 spaces over level-1 spaces,
    and so on; the level is stored on the node when it is built.  A space
    with ``source == target`` is *stationary*: it consists of a single
    constant flow line.
    """

    source: "Point"
    target: "Point"
    ambient: ModuliAddress | None

    def __new__(cls, source, target, ambient=None):
        return intern_address(source, target, ambient)


def intern_address(source, target, ambient=None) -> ModuliAddress:
    """The live address with these fields, built on first use."""

    key = (source, target, ambient)
    ref = _ADDRESSES.get(key)
    return ref and ref() or _keep(
        ModuliAddress, key, source=source, target=target, ambient=ambient,
        level=1 if ambient is None else ambient.level + 1,
    )


@_hashconsed
class CritPoint:
    """A critical point: a point of a space that is not broken.

    ``home`` is ``None`` for base critical points and the address of the
    space the point lives on otherwise.  ``value`` is the exact height
    assigned to the point by the level's Morse data, an ``int`` or a
    ``Fraction``; it is positive unless the home space is stationary, in
    which case it is zero.  Whether it is, ``is_stationary(point)``, is kept
    on the node as ``stationary``, outside its fields.
    """

    id: str
    index: int
    value: Fraction
    home: ModuliAddress | None
    _unshown = ("home",)

    def __new__(cls, id, index, value, home=None):
        return intern_critpoint(id, index, value, home)


def intern_critpoint(id, index, value, home=None) -> CritPoint:
    """The live critical point with these fields, built on first use.

    Keyed by the value's integer ratio, whose hash runs no Python code as a
    Fraction's does, and the checks read it too.  The key holds the types
    of the scalar fields, so ``1``, ``True`` and ``Fraction(1)`` stay apart.
    """

    if not isinstance(value, (int, Fraction)):
        raise ValueError(
            f"critical point {id!r}: value must be an int or a Fraction, got {value!r}"
        )
    num, den = value.as_integer_ratio()
    key = (id, index, num, den, home, type(index), type(value))
    ref = _CRITPOINTS.get(key)
    node = ref and ref()
    if node is not None:
        return node
    if index < 0:
        raise ValueError(f"critical point {id!r}: index must be >= 0")
    stationary = home is not None and home.source is home.target
    if stationary:
        if num:
            raise ValueError(f"critical point {id!r}: stationary points have value 0")
    elif num <= 0:
        raise ValueError(f"critical point {id!r}: value must be positive, got {value}")
    return _keep(CritPoint, key, id=id, index=index, value=value, home=home, stationary=stationary)


@_hashconsed
class Broken:
    """An ordered tuple of points glued along matching endpoints.

    The pieces are listed in gluing order: the piece whose source is the
    source of the ambient space comes first.  Pieces may themselves be
    broken; flattening erases the nesting.  A broken point is never
    stationary.
    """

    pieces: tuple["Point", ...]
    stationary = False

    def __new__(cls, pieces):
        return intern_broken(pieces)


def intern_broken(pieces: tuple) -> Broken:
    """The live broken point with these pieces, built on first use."""

    ref = _BROKEN.get(pieces)
    node = ref and ref()
    if node is not None:
        return node
    if len(pieces) < 2:
        raise ValueError("a broken point needs at least two pieces")
    return _keep(Broken, pieces, pieces=pieces)


Point = Union[CritPoint, Broken]


@_hashconsed
class Cell:
    """A cell of the globular set: a critical point on a named space.

    ``space`` is ``None`` exactly for level-0 cells (base critical
    points); then ``top`` is the base critical point itself.
    """

    top: "Point"
    space: ModuliAddress | None

    def __new__(cls, top, space):
        return intern_cell(top, space)

    @property
    def level(self) -> int:
        return 0 if self.space is None else self.space.level


def intern_cell(top, space) -> Cell:
    """The live cell with these fields, built on first use."""

    key = (top, space)
    ref = _CELLS.get(key)
    return ref and ref() or _keep(Cell, key, top=top, space=space)


_ADDRESSES = ModuliAddress._table
_CRITPOINTS = CritPoint._table
_BROKEN = Broken._table
_CELLS = Cell._table


def flatten_point(p: Point) -> tuple[CritPoint, ...]:
    """Erase nested grouping of a broken point.

    Returns the critical points in gluing order.  A critical point yields
    the one-element tuple.
    """

    if isinstance(p, CritPoint):
        return (p,)
    if isinstance(p, Broken):
        out: list[CritPoint] = []
        for piece in p.pieces:
            out.extend(flatten_point(piece))
        return tuple(out)
    raise ValueError(f"not a point: {p!r}")


def point_value(p: Point) -> Fraction:
    """Exact height of a point: its own value, or the sum over pieces."""

    if isinstance(p, CritPoint):
        return p.value
    return sum((point_value(q) for q in p.pieces), Fraction(0))


@memo_on_node
def point_key(p: Point) -> str:
    """Deterministic canonical string for a point."""

    if isinstance(p, CritPoint):
        return p.id
    return "(" + ",".join(point_key(q) for q in p.pieces) + ")"


@memo_on_node
def address_key(a: ModuliAddress) -> str:
    """Deterministic canonical string for a space address.

    The endpoint pairs of the ambient chain follow the bar, top-down
    (the level-1 ancestor's pair last).
    """

    core, *below = (f"{point_key(b.source)}>{point_key(b.target)}" for b in _chain(a))
    return f"M({core}|{';'.join(below)})" if below else f"M({core})"


@memo_on_node
def cell_key(c: Cell) -> str:
    """Deterministic canonical string for a cell."""

    if c.space is None:
        return point_key(c.top)
    return f"{point_key(c.top)} @ {address_key(c.space)}"


def _chain(a: ModuliAddress | None):
    """The address and its ambient spaces, from the top down."""

    while a is not None:
        yield a
        a = a.ambient


@memo_on_node
def breaking_key(p: CritPoint) -> tuple:
    """Sort key that orders glued pieces in flow order.

    The key lists, per level from the base up, the (negated) heights of
    the piece's home endpoints: heights strictly decrease along the flow,
    so ascending key order is flow order.  Pieces with the same endpoint
    chain at every level tie-break on their canonical string, which keeps
    the order total and deterministic.
    """

    if not isinstance(p, CritPoint):
        raise ValueError(f"breaking_key is defined on critical points, got {p!r}")
    levels = tuple(
        (j, -point_value(b.source), -point_value(b.target),
         point_key(b.source), point_key(b.target))
        for j, b in enumerate(reversed([*_chain(p.home)]))
    )
    return (levels, point_key(p))


def is_stationary(obj: Cell | ModuliAddress | Point) -> bool:
    """Whether the object sits over a constant flow line.

    Addresses are stationary when source equals target; cells when their
    space is; critical points when their home space is.  Base cells and
    broken points are never stationary.
    """

    kind = type(obj)
    if kind is CritPoint:
        obj = obj.home
    elif kind is Cell:
        obj = obj.space
    elif kind is Broken:
        return False
    elif kind is not ModuliAddress:
        raise ValueError(f"cannot decide stationarity of {obj!r}")
    # Endpoints are interned, so equal endpoints are one object.
    return obj is not None and obj.source is obj.target


def ambient_of_point(p: Point) -> ModuliAddress | None:
    """Address of the space a point naturally lives on.

    For a critical point this is its home.  For a broken point it is the
    space the glued configuration bounds: endpoints from the outermost
    pieces, ambient shared by the pieces.  Returns ``None`` for base
    points (no home).
    """

    if isinstance(p, CritPoint):
        return p.home
    crits = flatten_point(p)
    first = crits[0].home
    last = crits[-1].home
    if first is None or last is None:
        raise ValueError(
            f"broken point {point_key(p)} has base pieces and no ambient space"
        )
    return intern_address(first.source, last.target, first.ambient)


_ZERO = Fraction(0)


def stationary_point(at: Point, ambient: ModuliAddress | None) -> CritPoint:
    """The canonical point of the stationary space at ``at``."""

    return intern_critpoint(f"1({point_key(at)})", 0, _ZERO, intern_address(at, at, ambient))
