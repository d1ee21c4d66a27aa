"""Command-line interface and the tower file format.

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
``moduli`` line inside ``[declare]`` names two points declared in the
same section and the components of the space between them (any shape
except ``Interval``, whose endpoints the format cannot express at
depth).  ``#`` starts a comment; declared point names must not collide
with each other or with base point ids.

Exit codes: 0 success, 1 failed law check or failed composition,
2 unreadable/invalid input or an unwritable ``-o`` file, 3 missing
declaration, 141 (128 + SIGPIPE) stdout closed by its reader before the
output was written.

``main(argv)`` may be called many times in one process.  It builds its
parser on the first call and reuses it, so each call parses only its own
arguments; a ``_cmd_*`` function patched after that call is not the one
dispatched to.  ``python -m flowcat`` runs ``main`` too; ``python -m
flowcat.cli`` runs nothing and exits 2 with one ``error:`` line.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys

from .category import GlobularSet, extended_cells, normalize
from .core import Cell, cell_key, point_key
from .axioms import check_all
from .generators import deformed_sphere_system, random_system, sphere_system
from .stratification import (
    Endpoint,
    FlowSystem,
    INTERVAL,
    PieceRef,
    Shape,
    _end_str,
    flow_system,
    parse_shape,
    shape_label,
)
from .tower import (
    ComponentDecl,
    DeclaredModuli,
    DeclaredPoint,
    Declarations,
    MissingDeclarationError,
    Tower,
    build_tower,
)

__all__ = ["ParseError", "parse_tower_file", "render_tower_file", "main"]

_PIECE_RE = re.compile(
    r"([A-Za-z0-9_.+-]+)@([A-Za-z0-9_.+-]+)>([A-Za-z0-9_.+-]+)$"
)
_GROUP_RE = re.compile(r"\(([^()]*)\)")


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

    used = 2 if tokens[0] in ("SphereLike", "Declared") else 1
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
            grouped: dict[tuple[str, str], list[tuple[str, Shape]]] = {}
            for p, q, mcid, shape in dms:
                grouped.setdefault((p, q), []).append((mcid, shape))
            items[(addr, cid)] = ComponentDecl(
                points=tuple(pts),
                moduli=tuple(
                    DeclaredModuli(p, q, tuple(comps))
                    for (p, q), comps in sorted(grouped.items())
                ),
            )
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
        # Every point first: a moduli line may name a point of a later component.
        for cid, decl in comps:
            for dp in decl.points:
                out.append(f"critical {dp.name} index {dp.index} component {cid}")
        for _, decl in comps:
            for dm in decl.moduli:
                for mcid, shape in dm.components:
                    out.append(
                        f"moduli {dm.source} {dm.target} component {mcid} "
                        f"shape {shape_label(shape)}"
                    )
    return "\n".join(out) + "\n"


def _read(path: str) -> tuple[FlowSystem, Declarations] | int:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        return 2
    try:
        return parse_tower_file(text)
    except ParseError as e:
        print(f"error: {path}: {e}", file=sys.stderr)
        return 2


def _build(
    fs: FlowSystem, decls: Declarations, max_level: int | None = None
) -> Tower | int:
    try:
        return build_tower(fs, decls, max_level=max_level)
    except MissingDeclarationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        # An invalid flow system, a failed build or a bad max_level.
        print(f"error: {e}", file=sys.stderr)
        return 2


def _load_tower(path: str, max_level: int | None = None) -> Tower | int:
    loaded = _read(path)
    if isinstance(loaded, int):
        return loaded
    return _build(*loaded, max_level=max_level)


def _cmd_generate(args) -> int:
    try:
        if args.kind == "sphere":
            fs, decls = sphere_system(args.n)
        elif args.kind == "deformed":
            fs, decls = deformed_sphere_system(), Declarations()
        else:
            fs = random_system(args.seed, args.max_points, args.max_index)
            decls = Declarations()
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    text = render_tower_file(fs, decls)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            print(f"error: cannot write {args.out}: {e}", file=sys.stderr)
            return 2
    else:
        print(text, end="")
    return 0


def _cmd_build(args) -> int:
    tower = _load_tower(args.file, max_level=args.max_level)
    if isinstance(tower, int):
        return tower
    state = "complete" if tower.complete else f"truncated at level {tower.max_level}"
    print(f"tower with {tower.max_level} levels ({state})")
    for level in range(1, tower.max_level + 1):
        spaces = tower.spaces(level)
        ncells = sum(len(sp.morse) for sp in spaces)
        print(f"level {level}: {len(spaces)} spaces, {ncells} cells")
        for sp in spaces:
            pts = ", ".join(point_key(e.point) for e in sp.morse)
            print(f"  {sp.key}: {pts}")
    return 0


def _cmd_check(args) -> int:
    tower = _load_tower(args.file)
    if isinstance(tower, int):
        return tower
    report = check_all(tower)
    print(report.to_text())
    if report.ok:
        print(f"all laws hold ({report.instances} instances)")
        return 0
    print("laws FAILED")
    return 1


def _cmd_cells(args) -> int:
    tower = _load_tower(args.file)
    if isinstance(tower, int):
        return tower
    levels = [args.level] if args.level is not None else list(range(tower.max_level + 1))
    for level in levels:
        if not 0 <= level <= tower.max_level:
            print(
                f"error: level {level} out of range 0..{tower.max_level}",
                file=sys.stderr,
            )
            return 2
        for c in extended_cells(tower, level):
            print(f"{level}: {cell_key(c)}")
    return 0


def _cell_index(tower: Tower) -> dict[str, Cell]:
    index: dict[str, Cell] = {}
    for level in range(tower.max_level + 1):
        for c in extended_cells(tower, level):
            index.setdefault(cell_key(c), c)
            index.setdefault(cell_key(normalize(c)), c)
    return index


def _cmd_compose(args) -> int:
    tower = _load_tower(args.file)
    if isinstance(tower, int):
        return tower
    index = _cell_index(tower)
    missing = [k for k in (args.after, args.first) if k not in index]
    if missing:
        for k in missing:
            print(f"error: no cell {k!r}", file=sys.stderr)
        return 2
    after, first = index[args.after], index[args.first]
    X = GlobularSet(tower)
    try:
        glued = X.compose(args.p, after, first)
    except ValueError as e:
        level = after.level
        if first.level != level:
            message = str(e)
        elif not 0 <= args.p < level:
            message = f"--p {args.p} out of range 0..{level - 1} for level-{level} cells"
        else:
            print(f"not composable: {e}", file=sys.stderr)
            return 1
        print(f"error: {message}", file=sys.stderr)
        return 2
    print(f"after:  {cell_key(after)}")
    print(f"first:  {cell_key(first)}")
    print(f"raw:    {cell_key(glued)}")
    print(f"normal: {cell_key(normalize(glued))}")
    return 0


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _cmd_export_dot(args) -> int:
    tower = _load_tower(args.file)
    if isinstance(tower, int):
        return tower
    level = args.level
    if not 1 <= level <= tower.max_level:
        print(f"error: level {level} out of range 1..{tower.max_level}", file=sys.stderr)
        return 2
    X = GlobularSet(tower)
    lines = ["digraph tower {", "  rankdir=LR;"]
    for node in X.cells(level - 1):
        lines.append(f"  {_dot_quote(cell_key(node))};")
    for c in X.cells(level):
        s, t = cell_key(X.s(c)), cell_key(X.t(c))
        label = point_key(c.top)
        lines.append(
            f"  {_dot_quote(s)} -> {_dot_quote(t)} [label={_dot_quote(label)}];"
        )
    lines.append("}")
    print("\n".join(lines))
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The ``flowcat`` parser, built on the first call and reused after it."""

    parser = argparse.ArgumentParser(
        prog="flowcat",
        description="Build flow-line towers and verify their composition laws.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a ready-made tower file")
    gsub = gen.add_subparsers(dest="kind", required=True)
    g_sphere = gsub.add_parser("sphere", help="round n-sphere height flow")
    g_sphere.add_argument("--n", type=int, required=True, help="sphere dimension")
    gsub.add_parser("deformed", help="deformed 2-sphere with four critical points")
    g_random = gsub.add_parser("random", help="seeded random valid system")
    g_random.add_argument("--seed", type=int, required=True)
    g_random.add_argument("--max-points", type=int, default=6)
    g_random.add_argument("--max-index", type=int, default=3)
    for g in (g_sphere, gsub.choices["deformed"], g_random):
        g.add_argument("-o", "--out", help="write to a file instead of stdout")
    gen.set_defaults(func=_cmd_generate)

    b = sub.add_parser("build", help="build the tower and list its spaces")
    b.add_argument("file")
    b.add_argument("--max-level", type=int, default=None)
    b.set_defaults(func=_cmd_build)

    c = sub.add_parser("check", help="verify all composition laws")
    c.add_argument("file")
    c.set_defaults(func=_cmd_check)

    ce = sub.add_parser("cells", help="list cells (including identity cells)")
    ce.add_argument("file")
    ce.add_argument("--level", type=int, default=None)
    ce.set_defaults(func=_cmd_cells)

    co = sub.add_parser("compose", help="glue two cells along a shared boundary")
    co.add_argument("file")
    co.add_argument("--p", type=int, required=True, help="boundary level to glue along")
    co.add_argument("--after", required=True, help="cell key of the later cell")
    co.add_argument("--first", required=True, help="cell key of the earlier cell")
    co.set_defaults(func=_cmd_compose)

    d = sub.add_parser("export-dot", help="emit one level as a DOT digraph")
    d.add_argument("file")
    d.add_argument("--level", type=int, default=1)
    d.set_defaults(func=_cmd_export_dot)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout is gone (``flowcat cells f | head -1``).  Point
        # stdout at the null device, so that the flush at exit cannot fail too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    # Run as ``python -m flowcat.cli``: say so instead of exiting 0 unchecked.
    print("error: flowcat.cli is not a command; run python -m flowcat", file=sys.stderr)
    raise SystemExit(2)
