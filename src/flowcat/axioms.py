"""Machine verification of the composition laws, up to normal form.

The checker quantifies over the finitely many cells of a built tower
and verifies, per law, every instance: boundary coherence of the cell
maps, sources and targets of composites, identity boundaries, unit
laws, associativity, and the two interchange laws.

Each law family is a generator of instances ``(level, p, q, cells, what,
sides)``, and one loop, ``_tally``, runs them all.  ``sides()`` returns
``(lhs, rhs, strict)``, or raises ``ValueError`` with the failure text.
An instance is strict when ``strict`` is true; otherwise it holds when
the two sides have one normal form, and fails naming both.  The loop
calls ``sides`` before it resumes the generator, so ``sides`` may close
over the generator's loop variables, and it sends back whether ``sides``
returned, so a family skips the rest of a group after a side that raised.

Every law is checked through the view's maps and tables, so a single
overridden entry (a redirected boundary, a rewired identity, a patched
composition result) makes exactly the affected law fail.
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from typing import NamedTuple

from .category import GlobularSet, normalize
from .core import Cell, cell_key
from .tower import Tower

__all__ = [
    "Failure",
    "TagReport",
    "AxiomReport",
    "check_globular",
    "check_axiom",
    "check_all",
    "AXIOM_TAGS",
]

AXIOM_TAGS = ("a", "b", "c", "d", "e", "f")


class Failure(NamedTuple):
    """One broken law instance with the cells that witness it."""

    tag: str
    level: int
    p: int | None
    q: int | None
    cells: tuple[str, ...]
    detail: str

    def __str__(self) -> str:
        at = f"level {self.level}"
        if self.p is not None:
            at += f", p={self.p}"
        if self.q is not None:
            at += f", q={self.q}"
        lines = [f"{self.tag} fails at {at}: {self.detail}"]
        for c in self.cells:
            lines.append(f"    {c}")
        return "\n".join(lines)


class TagReport(NamedTuple):
    """Result of checking one law over its whole quantification domain."""

    tag: str
    instances: int
    strict: int
    failures: tuple[Failure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def line(self) -> str:
        status = "PASS" if self.ok else f"FAIL ({len(self.failures)} instances)"
        return (
            f"{self.tag}: {status} — {self.instances} instances, "
            f"{self.strict} strictly equal"
        )


class AxiomReport(NamedTuple):
    """All law reports for one tower, in a fixed order."""

    tags: tuple[TagReport, ...]

    @property
    def ok(self) -> bool:
        return all(t.ok for t in self.tags)

    @property
    def instances(self) -> int:
        return sum(t.instances for t in self.tags)

    def by_tag(self, tag: str) -> TagReport:
        for t in self.tags:
            if t.tag == tag:
                return t
        raise KeyError(f"no report for tag {tag!r}")

    def to_text(self) -> str:
        lines = [t.line() for t in self.tags]
        for t in self.tags:
            for f in t.failures:
                lines.append(str(f))
        return "\n".join(lines)


_Sides = Callable[[], tuple[Cell, Cell, bool]]
_Instances = Generator[
    tuple[int, int | None, int | None, tuple[Cell, ...], str, _Sides], bool, None
]


def _raw(lhs: Cell, rhs: Cell) -> tuple[Cell, Cell, bool]:
    """Two sides, strict when they are one raw node."""

    return lhs, rhs, lhs is rhs


def _refused(message: str) -> _Sides:
    """The sides of an instance whose precondition fails with ``message``."""

    def sides():
        raise ValueError(message)

    return sides


def _globular(X: GlobularSet) -> _Instances:
    """Boundary coherence: maps land one level down and agree two down.

    # s(s(c)) = s(t(c)) and t(s(c)) = t(t(c))

    The landing check is one instance, never strict.
    """

    for level in range(1, X.n + 1):
        below = {normalize(c) for c in X.cells(level - 1)}
        for c in X.cells(level):
            s, t = X.s(c), X.t(c)
            bad = [
                side
                for side, cell in (("source", s), ("target", t))
                if cell.level != level - 1 or normalize(cell) not in below
            ]
            at = (level, None, None, (c,))
            if bad:
                yield *at, "", _refused(f"{' and '.join(bad)} not a level-{level - 1} cell")
                continue
            yield *at, "", lambda: (c, c, False)
            if level >= 2:
                yield *at, "s∘s vs s∘t", lambda: _raw(X.s(s), X.s(t))
                yield *at, "t∘s vs t∘t", lambda: _raw(X.t(s), X.t(t))


def _law_a(X: GlobularSet) -> _Instances:
    """Sources and targets of composites.

    # p = l-1:  s(C∘A) = s(A),  t(C∘A) = t(C)
    # p < l-1:  s(C∘A) = s(C)∘s(A),  t(C∘A) = t(C)∘t(A)
    """

    for level in range(1, X.n + 1):
        for p in range(level):
            for C, A in X.composable_pairs(level, p):
                at = (level, p, None, (C, A))
                if p == level - 1:
                    s = lambda: _raw(X.s(X.compose(p, C, A)), X.s(A))
                    t = lambda: _raw(X.t(X.compose(p, C, A)), X.t(C))
                else:
                    s = lambda: _raw(X.s(X.compose(p, C, A)), X.compose(p, X.s(C), X.s(A)))
                    t = lambda: _raw(X.t(X.compose(p, C, A)), X.compose(p, X.t(C), X.t(A)))
                if (yield *at, "s of composite", s):
                    yield *at, "t of composite", t


def _law_b(X: GlobularSet) -> _Instances:
    """Identity boundaries.

    # s(1_A) = A = t(1_A)
    """

    for level in range(X.n):
        for A in X.cells(level):
            one = X.identity(A)
            at = (level, None, None, (A,))
            if one.level != level + 1:
                yield *at, "", _refused(
                    f"identity lands at level {one.level}, expected {level + 1}"
                )
                continue
            yield *at, "s of identity", lambda: _raw(X.s(one), A)
            yield *at, "t of identity", lambda: _raw(X.t(one), A)


def _law_c(X: GlobularSet) -> _Instances:
    """Associativity of each gluing.

    # (E∘C)∘A = E∘(C∘A)

    Both outer gluings are taken as normal forms.  Without a compose
    override the raw sides are never one node: the first piece of the left
    top is A's top, that of the right top the raw join of A's and C's tops.
    So the raw sides are built, to count strict instances, only on a view
    with a compose override.
    """

    raw = "compose" in X._maps
    for level in range(1, X.n + 1):
        for p in range(level):
            pairs = X.composable_pairs(level, p)
            by_left: dict[Cell, list[Cell]] = {}
            for c, a in pairs:
                by_left.setdefault(c, []).append(a)
            for E, C in pairs:
                for A in by_left.get(C, []):

                    def sides():
                        EC = X.compose(p, E, C)
                        lhs = X.normal_compose(p, EC, A)
                        CA = X.compose(p, C, A)
                        rhs = X.normal_compose(p, E, CA)
                        return lhs, rhs, raw and X.compose(p, EC, A) == X.compose(p, E, CA)

                    yield level, p, None, (E, C, A), "re-associated composites", sides


def _identities(X: GlobularSet, stacks: dict, x: Cell, k: int) -> Cell:
    """``1^k(x)`` through ``X.identity``, built once per ``(x, k)`` in ``stacks``
    from ``1^{k-1}(x)``."""

    if k == 0:
        return x
    one = stacks.get((x, k))
    if one is None:
        one = stacks[x, k] = X.identity(_identities(X, stacks, x, k - 1))
    return one


def _law_d(X: GlobularSet) -> _Instances:
    """Units: iterated identities on either boundary absorb.

    # 1^{l-p}(t^{l-p}(A)) ∘ A = A = A ∘ 1^{l-p}(s^{l-p}(A))
    """

    stacks: dict[tuple[Cell, int], Cell] = {}
    for level in range(1, X.n + 1):
        for A in X.cells(level):
            for p in range(level):
                k = level - p
                tt = _identities(X, stacks, X.boundary(p, A, "t"), k)
                ss = _identities(X, stacks, X.boundary(p, A, "s"), k)
                for what, after, first in (("left unit", tt, A), ("right unit", A, ss)):
                    # A glued unit composite is never A itself: its top is
                    # broken.  Only an overridden one can be strict.
                    sides = lambda: (
                        X.normal_compose(p, after, first),
                        normalize(A),
                        X._compose_override(p, after, first) is A,
                    )
                    if not (yield level, p, None, (A,), what, sides):
                        break


def _law_e(X: GlobularSet) -> _Instances:
    """Interchange of two gluings at different levels.

    # (H∘ₚE)∘_q(C∘ₚA) = (H∘_qC)∘ₚ(E∘_qA)   for q < p

    Each side's outer gluing is taken as a normal form of the inner
    composites.  Without a compose override the raw tops are
    ((A,C),(E,H)) and ((A,E),(C,H)), one node only when C's top is E's.
    So the raw sides are built, to count strict instances, only on a view
    with a compose override or when C and E share their top.
    """

    raw = "compose" in X._maps
    bd = X.boundary
    for level in range(2, X.n + 1):
        for p in range(1, level):
            pairs = X.composable_pairs(level, p)
            if not pairs:
                continue
            for q in range(p):
                # The pairs (C, A) by their level-q targets, in pair order.
                below: dict[tuple[Cell, Cell], list[tuple[Cell, Cell]]] = {}
                for C, A in pairs:
                    below.setdefault((bd(q, C, "t"), bd(q, A, "t")), []).append((C, A))
                for H, E in pairs:
                    for C, A in below.get((bd(q, H, "s"), bd(q, E, "s")), ()):

                        def sides():
                            HE, CA = X.compose(p, H, E), X.compose(p, C, A)
                            lhs = X.normal_compose(q, HE, CA)
                            HC, EA = X.compose(q, H, C), X.compose(q, E, A)
                            rhs = X.normal_compose(p, HC, EA)
                            strict = (raw or C.top is E.top) and (
                                X.compose(q, HE, CA) is X.compose(p, HC, EA)
                            )
                            return lhs, rhs, strict

                        yield level, p, q, (H, E, C, A), "interchanged composites", sides


def _law_f(X: GlobularSet) -> _Instances:
    """Interchange of identities with gluing.

    # 1_C ∘ₚ 1_A = 1_{C∘ₚA}
    """

    for level in range(1, X.n):
        for p in range(level):
            for C, A in X.composable_pairs(level, p):
                oneC, oneA = X.identity(C), X.identity(A)
                at = (level, p, None, (C, A))
                if not X.composable(p, oneC, oneA):
                    yield *at, "", _refused("identities of a gluable pair do not glue")
                    continue
                yield *at, "identity of composite", lambda: _raw(
                    X.compose(p, oneC, oneA), X.identity(X.compose(p, C, A))
                )


_LAWS: dict[str, Callable[[GlobularSet], _Instances]] = {
    "globular": _globular,
    "a": _law_a,
    "b": _law_b,
    "c": _law_c,
    "d": _law_d,
    "e": _law_e,
    "f": _law_f,
}


def _tally(tag: str, X: GlobularSet) -> TagReport:
    """Count, compare and record every instance of one law family."""

    instances = _LAWS[tag](X)
    count = strict = 0
    failures: list[Failure] = []
    returned = None
    while True:
        try:
            level, p, q, cells, what, sides = instances.send(returned)
        except StopIteration:
            break
        count += 1
        returned = False
        try:
            lhs, rhs, same = sides()
        except ValueError as e:
            detail = str(e)
        else:
            returned = True
            if same:
                strict += 1
                continue
            # _Sides that are one node are never normalized.
            if lhs is rhs or (nl := normalize(lhs)) is (nr := normalize(rhs)):
                continue
            detail = f"{what}: {cell_key(nl)}  !=  {cell_key(nr)}"
        failures.append(Failure(tag, level, p, q, tuple(map(cell_key, cells)), detail))
    return TagReport(tag, count, strict, tuple(failures))


def _as_view(x: GlobularSet | Tower) -> GlobularSet:
    return x if isinstance(x, GlobularSet) else GlobularSet(x)


def check_globular(x: GlobularSet | Tower) -> TagReport:
    """Boundary coherence: maps land one level down and agree two down."""

    return _tally("globular", _as_view(x))


def check_axiom(tag: str, x: GlobularSet | Tower) -> TagReport:
    """Check one law over its full quantification domain."""

    if tag not in AXIOM_TAGS:
        raise ValueError(f"unknown axiom tag {tag!r}; expected one of {AXIOM_TAGS}")
    return _tally(tag, _as_view(x))


def check_all(x: GlobularSet | Tower) -> AxiomReport:
    """Check boundary coherence and all six laws; deterministic order."""

    X = _as_view(x)
    return AxiomReport(tuple(_tally(tag, X) for tag in _LAWS))
