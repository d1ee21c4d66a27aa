"""The tower file format: flow data and declarations as plain text.

A tower file is a plain-text description of a flow system plus any
declared interior data, in three kinds of section::

    [critical]
    x 2                         # id and index, one point per line

    [moduli x w]                # components of the space from x to w
    component c0 shape Interval endpoints (c0@x>y,a@y>w) (c0@x>y,b@y>w)

    [declare M(N>S)]            # interior data of one built space
    critical hi1 index 1 component c0
    critical lo1 index 0 component c0
    moduli hi1 lo1 component 0 shape Point

Endpoints list one parenthesized group per boundary configuration, each
a comma-separated chain of ``component@source>target`` pieces.  A
``moduli`` line inside ``[declare]`` names two points declared earlier in
the same section on one component, and the components of the space
between them (any shape except ``Interval``, whose endpoints the format
cannot express at depth); the lines of one component parse to ``(source, target,
components)`` triples, the shape of ``FlowSystem.pairs``.  The build
checks declared names and ``moduli`` lines by the rules for base points
and ``[moduli]`` sections.  ``#`` starts a comment; declared point names
must not collide with each other or with base point ids.
"""

from __future__ import annotations

import re

from .stratification import (
    Component,
    Endpoint,
    FlowSystem,
    INTERVAL,
    PieceRef,
    Shape,
    _end_str,
    declared_shape,
    flow_system,
    sphere_like,
)
from .tower import ComponentDecl, DeclaredPoint, Declarations

__all__ = ["ParseError", "parse_shape", "parse_tower_file", "render_tower_file", "shape_label"]

# The shape labels, one row per ``Shape.kind``: the label's word, and the
# constructor of the dimension written after it (None: the word alone).
_SHAPES = {
    "point": ("Point", None),
    "interval": ("Interval", None),
    "circle": ("Circle", None),
    "sphere": ("SphereLike", sphere_like),
    "declared": ("Declared", declared_shape),
}
_BY_WORD = {word: (kind, make) for kind, (word, make) in _SHAPES.items()}

_PIECE_RE = re.compile(
    r"([A-Za-z0-9_.+-]+)@([A-Za-z0-9_.+-]+)>([A-Za-z0-9_.+-]+)$"
)
_GROUP_RE = re.compile(r"\(([^()]*)\)")


def parse_shape(text: str) -> Shape:
    """Parse a shape label: Point | Interval | Circle | SphereLike k | Declared d."""

    word, *dim = text.split() or [""]
    kind, make = _BY_WORD.get(word, (None, None))
    if kind and len(dim) == (make is not None):
        return make(int(dim[0])) if make else Shape(kind)
    raise ValueError(f"unknown shape {text!r}")


def shape_label(shape: Shape) -> str:
    word, make = _SHAPES[shape.kind]
    return f"{word} {shape.k}" if make else word


class ParseError(ValueError):
    """A tower file line that cannot be understood."""

    def __init__(self, lineno: int, message: str) -> None:
        self.lineno = lineno
        super().__init__(f"line {lineno}: {message}")


def _parse_endpoint(lineno: int, group: str) -> Endpoint:
    pieces = []
    for raw in group.split(","):
        raw = raw.strip()
        m = _PIECE_RE.fullmatch(raw)
        if not m:
            raise ParseError(
                lineno, f"bad endpoint piece {raw!r}; expected component@source>target"
            )
        cid, src, tgt = m.groups()
        pieces.append(PieceRef(src, tgt, cid))
    return tuple(pieces)


def _parse_shape_tokens(lineno: int, tokens: list[str]) -> tuple[Shape, int]:
    """Parse a shape at the head of ``tokens`` (callers pass at least one);
    return it and the number of tokens used."""

    used = 1 if _BY_WORD.get(tokens[0], (None, None))[1] is None else 2
    if used == 2 and len(tokens) < 2:
        raise ParseError(lineno, f"shape {tokens[0]!r} needs a dimension")
    try:
        return parse_shape(" ".join(tokens[:used])), used
    except ValueError as e:
        raise ParseError(lineno, str(e)) from None


def _parse_index(lineno: int, token: str) -> int:
    try:
        idx = int(token)
    except ValueError:
        raise ParseError(lineno, f"bad index {token!r}") from None
    if idx < 0:
        raise ParseError(lineno, f"negative index {idx}")
    return idx


def parse_tower_file(text: str) -> tuple[FlowSystem, Declarations]:
    """Parse a tower file into a flow system and its declarations."""

    points: list[tuple[str, int]] = []
    moduli: dict[tuple[str, str], list[tuple[str, Shape, tuple[Endpoint, ...]]]] = {}
    moduli_line: dict[tuple[str, str], int] = {}
    # declare sections: addr -> {comp -> (points, moduli-lines)}
    declared: dict[str, dict[str, tuple[list[DeclaredPoint], list[tuple]]]] = {}
    point_of_name: dict[str, str] = {}  # declared name -> owning comp (per section)
    names_seen: dict[str, int] = {}

    section: tuple | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError(lineno, f"unterminated section header {line!r}")
            head = line[1:-1].split()
            if head == ["critical"]:
                section = ("critical",)
            elif len(head) == 3 and head[0] == "moduli":
                key = (head[1], head[2])
                if key in moduli:
                    raise ParseError(lineno, f"second [moduli {head[1]} {head[2]}] section")
                moduli[key] = []
                moduli_line[key] = lineno
                section = ("moduli", key)
            elif len(head) == 2 and head[0] == "declare":
                declared.setdefault(head[1], {})
                point_of_name = {}
                section = ("declare", head[1])
            else:
                raise ParseError(lineno, f"unknown section {line!r}")
            continue

        tokens = line.split()
        if section is None:
            raise ParseError(lineno, f"content before any section: {line!r}")

        if section[0] == "critical":
            if len(tokens) != 2:
                raise ParseError(lineno, f"expected 'id index', got {line!r}")
            idx = _parse_index(lineno, tokens[1])
            if tokens[0] in names_seen:
                raise ParseError(lineno, f"duplicate name {tokens[0]!r}")
            names_seen[tokens[0]] = lineno
            points.append((tokens[0], idx))

        elif section[0] == "moduli":
            if len(tokens) < 4 or tokens[0] != "component" or tokens[2] != "shape":
                raise ParseError(
                    lineno, f"expected 'component <id> shape <shape> ...', got {line!r}"
                )
            cid = tokens[1]
            shape, used = _parse_shape_tokens(lineno, tokens[3:])
            rest = tokens[3 + used:]
            boundary: tuple[Endpoint, ...] = ()
            if rest:
                if rest[0] != "endpoints":
                    raise ParseError(lineno, f"unexpected token {rest[0]!r}")
                blob = " ".join(rest[1:])
                groups = _GROUP_RE.findall(blob)
                if not groups or _GROUP_RE.sub("", blob).strip():
                    raise ParseError(lineno, f"bad endpoints syntax in {line!r}")
                boundary = tuple(_parse_endpoint(lineno, g) for g in groups)
            comps = moduli[section[1]]
            if any(c == cid for c, _, _ in comps):
                raise ParseError(lineno, f"duplicate component id {cid!r}")
            comps.append((cid, shape, boundary))

        else:  # declare
            addr = section[1]
            if tokens[0] == "critical":
                if (
                    len(tokens) != 6
                    or tokens[2] != "index"
                    or tokens[4] != "component"
                ):
                    raise ParseError(
                        lineno,
                        "expected 'critical <name> index <k> component <id>', "
                        f"got {line!r}",
                    )
                name, cid = tokens[1], tokens[5]
                idx = _parse_index(lineno, tokens[3])
                if name in names_seen:
                    raise ParseError(
                        lineno,
                        f"name {name!r} already used at line {names_seen[name]}",
                    )
                names_seen[name] = lineno
                pts, dms = declared[addr].setdefault(cid, ([], []))
                pts.append(DeclaredPoint(name, idx))
                point_of_name[name] = cid
            elif tokens[0] == "moduli":
                if (
                    len(tokens) < 7
                    or tokens[3] != "component"
                    or tokens[5] != "shape"
                ):
                    raise ParseError(
                        lineno,
                        "expected 'moduli <p> <q> component <id> shape <shape>', "
                        f"got {line!r}",
                    )
                p, q, cid = tokens[1], tokens[2], tokens[4]
                shape, used = _parse_shape_tokens(lineno, tokens[6:])
                if tokens[6 + used:]:
                    raise ParseError(lineno, f"unexpected trailing tokens in {line!r}")
                if shape == INTERVAL:
                    raise ParseError(
                        lineno,
                        "declared moduli cannot be Interval: endpoints are not "
                        "expressible at depth",
                    )
                for name in (p, q):
                    if name not in point_of_name:
                        raise ParseError(
                            lineno, f"{name!r} is not a declared point of this section"
                        )
                owner = point_of_name[p]
                if point_of_name[q] != owner:
                    raise ParseError(
                        lineno,
                        f"{p!r} is a point of component {owner!r} and {q!r} of "
                        f"component {point_of_name[q]!r}: no flow runs between components",
                    )
                pts, dms = declared[addr].setdefault(owner, ([], []))
                dms.append((p, q, cid, shape))
            else:
                raise ParseError(lineno, f"unknown declare line {line!r}")

    if not points:
        raise ParseError(1, "no [critical] section with points")
    known = {pid for pid, _ in points}
    for (s, t), lineno in moduli_line.items():
        for e in (s, t):
            if e not in known:
                raise ParseError(lineno, f"[moduli {s} {t}] names unknown point {e!r}")

    items: dict[tuple[str, str], ComponentDecl] = {}
    for addr, per_comp in declared.items():
        for cid, (pts, dms) in per_comp.items():
            grouped: dict[tuple[str, str], list[Component]] = {}
            for p, q, mcid, shape in dms:
                grouped.setdefault((p, q), []).append(Component(mcid, shape))
            pairs = tuple((p, q, tuple(cs)) for (p, q), cs in sorted(grouped.items()))
            items[(addr, cid)] = ComponentDecl(points=tuple(pts), moduli=pairs)
    return flow_system(points, moduli), Declarations.build(items)


def render_tower_file(fs: FlowSystem, decls: Declarations | None = None) -> str:
    """Serialize a flow system and declarations; parses back to the same."""

    out: list[str] = ["[critical]"]
    for p in fs.points:
        out.append(f"{p.id} {p.index}")
    for s, t, comps in fs.pairs:
        out.append("")
        out.append(f"[moduli {s} {t}]")
        for c in comps:
            line = f"component {c.id} shape {shape_label(c.shape)}"
            if c.boundary:
                line += " endpoints " + " ".join(map(_end_str, c.boundary))
            out.append(line)
    by_addr: dict[str, list[tuple[str, ComponentDecl]]] = {}
    for addr, cid, decl in (decls.entries if decls else ()):
        by_addr.setdefault(addr, []).append((cid, decl))
    for addr, comps in by_addr.items():
        out.append("")
        out.append(f"[declare {addr}]")
        # Every point first, then the moduli lines that name them.
        for cid, decl in comps:
            for dp in decl.points:
                out.append(f"critical {dp.name} index {dp.index} component {cid}")
        for _, decl in comps:
            for s, t, mcomps in decl.moduli:
                for c in mcomps:
                    out.append(f"moduli {s} {t} component {c.id} shape {shape_label(c.shape)}")
    return "\n".join(out) + "\n"
