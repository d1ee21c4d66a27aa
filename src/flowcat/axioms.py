"""Machine verification of the composition laws, up to normal form.

The checker quantifies over the finitely many cells of a built tower
and verifies, per law, every instance: boundary coherence of the cell
maps, sources and targets of composites, identity boundaries, unit
laws, associativity, and the two interchange laws.  Two sides of a law
count as equal when their normal forms agree; the report also counts
how often they agree as raw trees, which measures how far the structure
is from strict.

Every law is checked through the view's maps and tables, so a single
overridden entry (a redirected boundary, a rewired identity, a patched
composition result) makes exactly the affected law fail.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class Failure:
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


@dataclass(frozen=True)
class TagReport:
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


@dataclass(frozen=True)
class AxiomReport:
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


class _Recorder:
    """Collects instances, strict matches, and failures for one tag."""

    def __init__(self, tag: str) -> None:
        self.tag = tag
        self.instances = 0
        self.strict = 0
        self.failures: list[Failure] = []

    def compare(self, lhs: Cell, rhs: Cell, *, what: str, strict=None, **at) -> None:
        """Count one instance: strict, equal up to normal form, or failed.

        Two sides are equal when their normal forms are one node.  ``strict``
        says whether the raw sides are one node, by default ``lhs is rhs``;
        the laws that pass normal forms give it.  Sides that are one node are
        never normalized.
        """

        if lhs is rhs if strict is None else strict:
            self.strict += 1
        elif lhs is not rhs and (nl := normalize(lhs)) is not (nr := normalize(rhs)):
            self.error(f"{what}: {cell_key(nl)}  !=  {cell_key(nr)}", **at)
            return
        self.instances += 1

    def error(
        self,
        message: str,
        *,
        level: int,
        p: int | None = None,
        q: int | None = None,
        cells: tuple[Cell, ...] = (),
    ) -> None:
        self.instances += 1
        self.failures.append(
            Failure(
                tag=self.tag,
                level=level,
                p=p,
                q=q,
                cells=tuple(cell_key(c) for c in cells),
                detail=message,
            )
        )

    def report(self) -> TagReport:
        return TagReport(
            tag=self.tag,
            instances=self.instances,
            strict=self.strict,
            failures=tuple(self.failures),
        )


def _as_view(x: GlobularSet | Tower) -> GlobularSet:
    return x if isinstance(x, GlobularSet) else GlobularSet(x)


def check_globular(x: GlobularSet | Tower) -> TagReport:
    """Boundary coherence: maps land one level down and agree two down.

    # s(s(c)) = s(t(c)) and t(s(c)) = t(t(c))
    """

    X = _as_view(x)
    rec = _Recorder("globular")
    for level in range(1, X.n + 1):
        below = {normalize(c) for c in X.cells(level - 1)}
        for c in X.cells(level):
            s, t = X.s(c), X.t(c)
            bad = [
                side
                for side, cell in (("source", s), ("target", t))
                if cell.level != level - 1 or normalize(cell) not in below
            ]
            if bad:
                rec.error(
                    f"{' and '.join(bad)} not a level-{level - 1} cell",
                    level=level, cells=(c,),
                )
                continue
            # The landing check is one instance, never counted as strict.
            rec.instances += 1
            if level >= 2:
                rec.compare(
                    X.s(s), X.s(t), level=level, cells=(c,), what="s∘s vs s∘t"
                )
                rec.compare(
                    X.t(s), X.t(t), level=level, cells=(c,), what="t∘s vs t∘t"
                )
    return rec.report()


def _check_a(X: GlobularSet) -> TagReport:
    """Sources and targets of composites.

    # p = l-1:  s(C∘A) = s(A),  t(C∘A) = t(C)
    # p < l-1:  s(C∘A) = s(C)∘s(A),  t(C∘A) = t(C)∘t(A)
    """

    rec = _Recorder("a")
    for level in range(1, X.n + 1):
        for p in range(level):
            for C, A in X.composable_pairs(level, p):
                try:
                    glued = X.compose(p, C, A)
                    if p == level - 1:
                        rec.compare(
                            X.s(glued), X.s(A), level=level, p=p,
                            cells=(C, A), what="s of composite",
                        )
                        rec.compare(
                            X.t(glued), X.t(C), level=level, p=p,
                            cells=(C, A), what="t of composite",
                        )
                    else:
                        rec.compare(
                            X.s(glued), X.compose(p, X.s(C), X.s(A)),
                            level=level, p=p, cells=(C, A), what="s of composite",
                        )
                        rec.compare(
                            X.t(glued), X.compose(p, X.t(C), X.t(A)),
                            level=level, p=p, cells=(C, A), what="t of composite",
                        )
                except ValueError as e:
                    rec.error(str(e), level=level, p=p, cells=(C, A))
    return rec.report()


def _check_b(X: GlobularSet) -> TagReport:
    """Identity boundaries.

    # s(1_A) = A = t(1_A)
    """

    rec = _Recorder("b")
    for level in range(X.n):
        for A in X.cells(level):
            one = X.identity(A)
            if one.level != level + 1:
                rec.error(
                    f"identity lands at level {one.level}, expected {level + 1}",
                    level=level, cells=(A,),
                )
                continue
            rec.compare(X.s(one), A, level=level, cells=(A,), what="s of identity")
            rec.compare(X.t(one), A, level=level, cells=(A,), what="t of identity")
    return rec.report()


def _check_c(X: GlobularSet) -> TagReport:
    """Associativity of each gluing.

    # (E∘C)∘A = E∘(C∘A)

    Both outer gluings are taken as normal forms.  Without a compose
    override the raw sides are never one node: the first piece of the left
    top is A's top, that of the right top the raw join of A's and C's tops.
    So the raw sides are built, to count strict instances, only on a view
    with a compose override.
    """

    rec = _Recorder("c")
    raw = "compose" in X._maps
    for level in range(1, X.n + 1):
        for p in range(level):
            pairs = X.composable_pairs(level, p)
            by_left: dict[Cell, list[Cell]] = {}
            for c, a in pairs:
                by_left.setdefault(c, []).append(a)
            for E, C in pairs:
                for A in by_left.get(C, []):
                    try:
                        EC = X.compose(p, E, C)
                        lhs = X.normal_compose(p, EC, A)
                        CA = X.compose(p, C, A)
                        rhs = X.normal_compose(p, E, CA)
                        rec.compare(
                            lhs, rhs,
                            strict=raw and X.compose(p, EC, A) == X.compose(p, E, CA),
                            level=level, p=p, cells=(E, C, A),
                            what="re-associated composites",
                        )
                    except ValueError as e:
                        rec.error(str(e), level=level, p=p, cells=(E, C, A))
    return rec.report()


def _identities(X: GlobularSet, stacks: dict, x: Cell, k: int) -> Cell:
    """``1^k(x)`` through ``X.identity``, built once per ``(x, k)`` in ``stacks``
    from ``1^{k-1}(x)``."""

    if k == 0:
        return x
    one = stacks.get((x, k))
    if one is None:
        one = stacks[x, k] = X.identity(_identities(X, stacks, x, k - 1))
    return one


def _check_d(X: GlobularSet) -> TagReport:
    """Units: iterated identities on either boundary absorb.

    # 1^{l-p}(t^{l-p}(A)) ∘ A = A = A ∘ 1^{l-p}(s^{l-p}(A))
    """

    rec = _Recorder("d")
    stacks: dict[tuple[Cell, int], Cell] = {}
    for level in range(1, X.n + 1):
        for A in X.cells(level):
            # The iterated targets and sources of A, from A down to level 0:
            # entry level - p is the level-p boundary.
            targets, sources = [A], [A]
            for _ in range(level):
                targets.append(X.t(targets[-1]))
                sources.append(X.s(sources[-1]))
            for p in range(level):
                k = level - p
                tt = _identities(X, stacks, targets[k], k)
                ss = _identities(X, stacks, sources[k], k)
                try:
                    for what, after, first in (
                        ("left unit", tt, A), ("right unit", A, ss)
                    ):
                        # A glued unit composite is never A itself: its top is
                        # broken.  Only an overridden one can be strict.
                        rec.compare(
                            X.normal_compose(p, after, first), normalize(A),
                            strict=X._compose_override(p, after, first) is A,
                            level=level, p=p, cells=(A,), what=what,
                        )
                except ValueError as e:
                    rec.error(str(e), level=level, p=p, cells=(A,))
    return rec.report()


def _check_e(X: GlobularSet) -> TagReport:
    """Interchange of two gluings at different levels.

    # (H∘ₚE)∘_q(C∘ₚA) = (H∘_qC)∘ₚ(E∘_qA)   for q < p
    """

    rec = _Recorder("e")
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
                        try:
                            lhs = X.compose(
                                q, X.compose(p, H, E), X.compose(p, C, A)
                            )
                            rhs = X.compose(
                                p, X.compose(q, H, C), X.compose(q, E, A)
                            )
                            rec.compare(
                                lhs, rhs, level=level, p=p, q=q,
                                cells=(H, E, C, A), what="interchanged composites",
                            )
                        except ValueError as e:
                            rec.error(
                                str(e), level=level, p=p, q=q, cells=(H, E, C, A)
                            )
    return rec.report()


def _check_f(X: GlobularSet) -> TagReport:
    """Interchange of identities with gluing.

    # 1_C ∘ₚ 1_A = 1_{C∘ₚA}
    """

    rec = _Recorder("f")
    for level in range(1, X.n):
        for p in range(level):
            for C, A in X.composable_pairs(level, p):
                oneC, oneA = X.identity(C), X.identity(A)
                if not X.composable(p, oneC, oneA):
                    rec.error(
                        "identities of a gluable pair do not glue",
                        level=level, p=p, cells=(C, A),
                    )
                    continue
                try:
                    lhs = X.compose(p, oneC, oneA)
                    rhs = X.identity(X.compose(p, C, A))
                    rec.compare(
                        lhs, rhs, level=level, p=p, cells=(C, A),
                        what="identity of composite",
                    )
                except ValueError as e:
                    rec.error(str(e), level=level, p=p, cells=(C, A))
    return rec.report()


_CHECKS = {
    "globular": check_globular,
    "a": _check_a,
    "b": _check_b,
    "c": _check_c,
    "d": _check_d,
    "e": _check_e,
    "f": _check_f,
}


def check_axiom(tag: str, x: GlobularSet | Tower) -> TagReport:
    """Check one law over its full quantification domain."""

    if tag not in AXIOM_TAGS:
        raise ValueError(f"unknown axiom tag {tag!r}; expected one of {AXIOM_TAGS}")
    return _CHECKS[tag](_as_view(x))


def check_all(x: GlobularSet | Tower) -> AxiomReport:
    """Check boundary coherence and all six laws; deterministic order."""

    X = _as_view(x)
    return AxiomReport(tuple(check(X) for check in _CHECKS.values()))
