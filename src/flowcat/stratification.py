"""Flow systems, component shapes, and the laws of flow data.

A :class:`FlowSystem` is the finite input datum: base critical points
with indices, and for selected ordered pairs the components of the
compactified space of flow lines between them.  Component shapes are
combinatorial stand-ins for the topology; each carries a dimension and,
for intervals, the two boundary configurations (broken flow lines).

The validator checks the laws that make such data consistent: index
monotonicity, the dimension formula, the exact matching between broken
configurations and interval endpoints, and the face-of-face condition:
a flow line broken at two or more intermediate critical points lies on a
face broken at one point fewer, read directly off the broken pieces.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Iterable, Iterator, NamedTuple

from .core import CritPoint

__all__ = [
    "Shape",
    "POINT",
    "INTERVAL",
    "CIRCLE",
    "sphere_like",
    "declared_shape",
    "PieceRef",
    "Component",
    "FlowSystem",
    "flow_system",
    "Violation",
    "validate_flow_system",
]


class Shape(NamedTuple):
    """Topological type of one component of a compactified space.

    ``kind`` is one of ``point``, ``interval``, ``circle``, ``sphere``
    (a k-sphere, k >= 2), or ``declared`` (dimension known, interior
    structure supplied by declarations).
    """

    kind: str
    k: int = 0

    @property
    def dim(self) -> int:
        if self.kind == "point":
            return 0
        if self.kind in ("interval", "circle"):
            return 1
        return self.k

    @property
    def closed(self) -> bool:
        """Whether the shape has no boundary of its own."""

        return self.kind in ("point", "circle", "sphere")


POINT = Shape("point")
INTERVAL = Shape("interval")
CIRCLE = Shape("circle")


def sphere_like(k: int) -> Shape:
    """The k-sphere shape for k >= 2 (lower k have their own names)."""

    if k < 2:
        raise ValueError(
            f"sphere_like({k}): use CIRCLE for k=1 and two POINT components for k=0"
        )
    return Shape("sphere", k)


def declared_shape(dim: int) -> Shape:
    if dim < 0:
        raise ValueError(f"declared_shape({dim}): dimension must be >= 0")
    return Shape("declared", dim)


class PieceRef(NamedTuple):
    """Reference to one factor component of a broken configuration.

    Names the component ``component`` of the space between the critical
    points keyed ``source`` and ``target`` (canonical point strings at
    the level the reference lives on).
    """

    source: str
    target: str
    component: str


# One boundary configuration: the chain of factor components it breaks into.
Endpoint = tuple[PieceRef, ...]


class Component(NamedTuple):
    """One connected component of a compactified space.

    ``boundary`` lists the component's 0-dimensional boundary
    configurations (for an interval: exactly two), each as the tuple of
    factor components of the broken flow line it represents.
    """

    id: str
    shape: Shape
    boundary: tuple[Endpoint, ...] = ()

    @property
    def dim(self) -> int:
        return self.shape.dim


class FlowSystem(NamedTuple):
    """Finite flow data: base critical points and level-1 components.

    ``pairs`` maps each directly connected ordered pair of base points to
    the components of the space of flow lines between them, in a fixed
    deterministic order.
    """

    points: tuple[CritPoint, ...]
    pairs: tuple[tuple[str, str, tuple[Component, ...]], ...]

    @property
    def table(self) -> dict[tuple[str, str], tuple[Component, ...]]:
        """The nonempty pairs as a ``{(source, target): components}`` table.

        This is the pair table of a level-0 space whose points are the
        base critical points: the build's first round reads it exactly
        as later rounds read the tables derived on built spaces.  The first
        listing of a pair wins; pairs keep their listing order.
        """

        first: dict[tuple[str, str], tuple[Component, ...]] = {}
        for s, t, comps in self.pairs:
            first.setdefault((s, t), comps)
        return {pair: comps for pair, comps in first.items() if comps}

    @property
    def max_index(self) -> int:
        return max((p.index for p in self.points), default=0)


def _base_ranks(
    ids: list[str] | tuple[str, ...], edges: set[tuple[str, str]]
) -> dict[str, int]:
    """Longest-path rank against the ``(hi, lo)`` edges; sinks get rank 1.

    Ranks the base points along the flow, and the spaces of one build
    round along their chain constraints.  Tolerates cycles (invalid input
    the validator will report): nodes on a cycle get one more than the
    largest acyclic rank.
    """

    succs: dict[str, set[str]] = {}
    for hi, lo in edges:
        succs.setdefault(hi, set()).add(lo)
    ranks: dict[str, int] = {}
    remaining = set(ids)
    changed = True
    while changed:
        changed = False
        for v in sorted(remaining):
            if remaining.isdisjoint(succs.get(v, ())):
                ranks[v] = 1 + max(
                    (ranks[w] for w in succs.get(v, ()) if w in ranks), default=0
                )
                remaining.discard(v)
                changed = True
    fallback = 1 + max(ranks.values(), default=0)
    for v in sorted(remaining):
        ranks[v] = fallback
    return ranks


def flow_system(
    points: list[tuple[str, int]],
    moduli: dict[tuple[str, str], list[tuple[str, Shape, tuple[Endpoint, ...]]]],
) -> FlowSystem:
    """Build a flow system from raw data, assigning base heights.

    ``points`` lists ``(id, index)``; ``moduli`` maps ordered pairs to
    component specs ``(component_id, shape, boundary)``.  Heights strictly
    decrease along the flow and are pairwise distinct: each point gets its
    longest-chain rank plus a dyadic offset by rank-then-id order.  Raises
    :class:`InvalidFlowSystemError` with an ``unknown-point`` violation for
    every pair naming a point not in ``points``.
    """

    index_of = dict(reversed(points))  # the first listing of an id wins
    unknown = [
        _unknown_point(s, t, e) for s, t in sorted(moduli) for e in (s, t) if e not in index_of
    ]
    if unknown:
        from .tower import InvalidFlowSystemError  # tower imports this module

        raise InvalidFlowSystemError(unknown)
    ids = tuple(pid for pid, _ in points)
    ranks = _base_ranks(ids, {pair for pair, comps in moduli.items() if comps})
    order = sorted(ids, key=lambda i: (ranks.get(i, 0), i))
    ordinal = {pid: n for n, pid in enumerate(order)}
    crit = tuple(
        CritPoint(
            id=pid,
            index=index_of[pid],
            value=Fraction(ranks[pid]) + Fraction(1, 2 ** (ordinal[pid] + 1)),
        )
        for pid, _ in points
    )
    pairs = tuple(
        (s, t, tuple(Component(cid, shape, boundary) for cid, shape, boundary in comps))
        for (s, t), comps in sorted(moduli.items())
    )
    return FlowSystem(points=crit, pairs=pairs)


class Violation(NamedTuple):
    """One law the flow data breaks, with the ids involved."""

    code: str
    message: str
    subjects: tuple[str, ...] = ()

    def __str__(self) -> str:
        return f"[{self.code}] {self.message}"


def _unknown_point(s: str, t: str, e: str) -> Violation:
    return Violation("unknown-point", f"pair ({s},{t}) names unknown point {e!r}", (s, t))


class _PairTable(NamedTuple):
    """A pair table with the maps that walking its chains reads.

    ``pairs`` maps ordered pairs of points to the components between
    them, ``succ`` maps each point to the other points it has components
    to, in table order, ``pred`` each point to the points that have
    components to it, and ``comp_of`` maps ``(source, target, component
    id)`` to the first component listed with that id.  Built once per table
    by :func:`_pair_table`.
    """

    pairs: dict[tuple[str, str], tuple[Component, ...]]
    succ: dict[str, list[str]]
    pred: dict[str, list[str]]
    comp_of: dict[tuple[str, str, str], Component]


def _pair_table(table: dict[tuple[str, str], tuple[Component, ...]]) -> _PairTable:
    succ: dict[str, list[str]] = {}
    pred: dict[str, list[str]] = {}
    for (a, b), comps in table.items():
        if comps and a != b:
            succ.setdefault(a, []).append(b)
            pred.setdefault(b, []).append(a)
    comp_of = {(s, t, c.id): c for (s, t), cs in table.items() for c in reversed(cs)}
    return _PairTable(table, succ, pred, comp_of)


def _chains(pt: _PairTable, source: str, target: str) -> list[tuple[str, ...]]:
    """All chains of intermediate points from source to target.

    Every consecutive pair along a chain must have components in
    ``pt.pairs``.  Returns tuples of intermediates (possibly empty),
    shortest first.
    """

    table, succ = pt.pairs, pt.succ
    # The points from which target is reachable without passing source:
    # only through them can a chain go on.
    live, todo = {target, source}, [target]
    while todo:
        for prev in pt.pred.get(todo.pop(), ()):
            if prev not in live:
                live.add(prev)
                todo.append(prev)
    out: list[tuple[str, ...]] = []
    # A stack, not a recursive closure: a closure that calls itself is a
    # reference cycle and would keep the table alive until a gc pass.
    stack: list[tuple[str, tuple[str, ...]]] = [(source, ())]
    while stack:
        at, mids = stack.pop()
        if table.get((at, target)):
            out.append(mids)
        for nxt in succ.get(at, ()):
            if nxt in live and nxt != target and nxt != source and nxt not in mids:
                stack.append((nxt, mids + (nxt,)))
    return sorted(out, key=lambda m: (len(m), m))


_ID_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.+-")


def validate_flow_system(fs: FlowSystem) -> tuple[Violation, ...]:
    """Check every law of the flow data, reporting all violations.

    Covers: well-formed unique ids, index monotonicity along connections
    (hence acyclicity), the dimension formula per component, interval
    endpoints being well-formed broken configurations, the exact matching
    of broken configurations to interval endpoints, and the face-of-face
    condition on configurations broken twice or more.  The first listing of
    a pair wins, as it does for every reader of the system; each violation
    is reported once.
    """

    pt = _pair_table(fs.table)
    index = {p.id: p.index for p in reversed(fs.points)}
    out = [*_point_rules(p.id for p in fs.points), *_pair_rules(fs.pairs, index, pt.comp_of)]
    # The last two families walk chains, which need known, distinct, index-dropping ends.
    if not any(v.code in ("index-order", "unknown-point", "self-pair") for v in out):
        out += [*_breaking_rules(index, pt), *_face_rules(pt)]
    return tuple(out)


def _point_rules(ids: Iterable[str]) -> Iterator[Violation]:
    """Unique, well-formed point ids; ``CritPoint`` refuses negative indices."""

    seen: set[str] = set()
    for pid in ids:
        if pid in seen:
            yield Violation("dup-point", f"duplicate critical point id {pid!r}", (pid,))
        seen.add(pid)
        if not pid or not set(pid) <= _ID_OK:
            yield Violation(
                "bad-id",
                f"critical point id {pid!r} has characters outside [A-Za-z0-9_.+-]",
                (pid,),
            )


def _pair_rules(
    pairs: Iterable[tuple[str, str, tuple[Component, ...]]],
    index: dict[str, int],
    comp_of: dict[tuple[str, str, str], Component],
) -> Iterator[Violation]:
    """Known, distinct, index-dropping ends per pair, then its components;
    a pair listed again is reported and otherwise ignored.  ``index`` maps
    point ids to indices, ``comp_of`` the pieces endpoints may name."""

    seen: set[tuple[str, str]] = set()
    for s, t, comps in pairs:
        subj = (s, t)
        if subj in seen:
            yield Violation("dup-pair", f"pair ({s},{t}) listed twice", subj)
            continue
        seen.add(subj)
        unknown = [_unknown_point(s, t, e) for e in (s, t) if e not in index]
        if unknown:
            yield from unknown
            continue
        if s == t:
            yield Violation("self-pair", f"pair ({s},{t}): stationary spaces are implicit, not input", subj)
            continue
        if not comps:
            continue
        si, ti = index[s], index[t]
        if si <= ti:
            yield Violation(
                "index-order",
                f"flow from {s!r} (index {si}) to {t!r} (index {ti}) must strictly drop index",
                subj,
            )
            continue
        dim = si - ti - 1
        cids: set[str] = set()
        for c in comps:
            if c.id in cids:
                yield Violation("dup-component", f"pair ({s},{t}): duplicate component id {c.id!r}", subj + (c.id,))
            cids.add(c.id)
            if c.dim != dim:
                yield Violation(
                    "dimension",
                    f"component {c.id!r} of ({s},{t}) has dimension {c.dim}, "
                    f"but index difference gives {dim}",
                    subj + (c.id,),
                )
            if c.shape.closed and c.boundary:
                yield Violation(
                    "closed-boundary",
                    f"component {c.id!r} of ({s},{t}) is closed but lists boundary",
                    subj + (c.id,),
                )
            if c.shape == INTERVAL and len(c.boundary) != 2:
                yield Violation(
                    "interval-ends",
                    f"interval {c.id!r} of ({s},{t}) needs exactly 2 endpoints, has {len(c.boundary)}",
                    subj + (c.id,),
                )
            if c.shape == INTERVAL and len(c.boundary) == 2 and c.boundary[0] == c.boundary[1]:
                yield Violation(
                    "interval-ends",
                    f"interval {c.id!r} of ({s},{t}) has two equal endpoints",
                    subj + (c.id,),
                )
            for end in c.boundary:
                if len(end) < 2:
                    yield Violation(
                        "endpoint-shape",
                        f"endpoint of {c.id!r} of ({s},{t}) must break into >= 2 pieces",
                        subj + (c.id,),
                    )
                elif end[0].source != s or end[-1].target != t or any(
                    a.target != b.source for a, b in zip(end, end[1:])
                ):
                    yield Violation(
                        "endpoint-chain",
                        f"endpoint of {c.id!r} of ({s},{t}) is not a chain from {s!r} to {t!r}",
                        subj + (c.id,),
                    )
                else:
                    for r in end:
                        rc = comp_of.get((r.source, r.target, r.component))
                        if rc is None:
                            yield Violation(
                                "endpoint-ref",
                                f"endpoint of {c.id!r} of ({s},{t}) references missing "
                                f"component {r.component!r} of ({r.source},{r.target})",
                                subj + (c.id,),
                            )
                        elif rc.dim != 0:
                            yield Violation(
                                "endpoint-dim",
                                f"endpoint piece {r.component!r} of ({r.source},{r.target}) "
                                "must be 0-dimensional",
                                subj + (c.id,),
                            )


def _breaking_rules(index: dict[str, int], pt: _PairTable) -> Iterator[Violation]:
    """Broken configurations x > m > z of 0-dimensional pieces need a space
    (x,z); on a 1-dimensional one they are its interval endpoints, once each."""

    zero = {pair: [c.id for c in comps if c.dim == 0] for pair, comps in pt.pairs.items()}
    configs: dict[tuple[str, str], set[Endpoint]] = {pair: set() for pair in pt.pairs}
    for x, m in pt.pairs:
        for z in pt.succ.get(m, ()):
            configs.setdefault((x, z), set()).update(
                (PieceRef(x, m, a), PieceRef(m, z, b)) for a in zero[x, m] for b in zero[m, z]
            )
    for x, z in sorted(configs):
        broken, comps = configs[x, z], pt.pairs.get((x, z))
        if broken and not comps:
            yield Violation(
                "missing-space",
                f"flow lines break from {x!r} to {z!r} but no space ({x},{z}) is given",
                (x, z),
            )
        if not comps or index[x] - index[z] - 1 != 1:
            continue
        used = [end for c in comps for end in c.boundary if len(end) == 2]
        for cfg in sorted(broken - set(used)):
            yield Violation(
                "uncovered-breaking",
                f"broken configuration {_end_str(cfg)} of ({x},{z}) "
                "is no interval endpoint",
                (x, z),
            )
        for cfg in sorted(set(used) - broken):
            yield Violation(
                "phantom-endpoint",
                f"interval endpoint {_end_str(cfg)} of ({x},{z}) "
                "matches no broken configuration",
                (x, z),
            )
        for cfg in sorted(cfg for cfg in broken if used.count(cfg) > 1):
            yield Violation(
                "reused-breaking",
                f"broken configuration {_end_str(cfg)} of ({x},{z}) "
                "is an endpoint of more than one interval",
                (x, z),
            )


def _face_rules(pt: _PairTable) -> Iterator[Violation]:
    """Face-of-face: a line broken twice lies on a face broken once.

    A configuration broken at ``mids`` lies on a face broken at ``mids``
    less one point ``m`` when its two pieces around ``m`` are an endpoint
    of some component between the neighbours of ``m``.  Only pairs with a
    chain of two or more intermediates break twice.
    """

    for x, z in sorted(pt.pairs):
        chains = _chains(pt, x, z)
        if not chains or len(chains[-1]) < 2:
            continue
        for mids in chains:
            if len(mids) < 2:
                continue
            chain = (x, *mids, z)
            choices = [
                [PieceRef(s, t, c.id) for c in pt.pairs[s, t]] for s, t in zip(chain, chain[1:])
            ]
            for refs in sorted(product(*choices)):
                for k in range(len(mids)):
                    a, b = chain[k], chain[k + 2]
                    if not any(
                        refs[k : k + 2] in pt.comp_of[a, b, c.id].boundary
                        for c in pt.pairs.get((a, b), ())
                    ):
                        yield Violation(
                            "face-of-face",
                            f"stratum of ({x},{z}) broken at {mids} through {_end_str(refs)} "
                            "does not lie in the closure of a stratum broken at "
                            f"{mids[:k] + mids[k + 1 :]}",
                            (x, z),
                        )


def _end_str(end: Endpoint) -> str:
    """An endpoint as tower files write it: ``(c@s>t,...)``."""
    return "(" + ",".join(f"{r.component}@{r.source}>{r.target}" for r in end) + ")"
