"""The ``flowcat`` command line: build, check and inspect tower files.

The file format lives in :mod:`flowcat.towerfile`.

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
import sys

from .category import GlobularSet, extended_cells, normalize
from .core import Cell, cell_key, point_key
from .axioms import check_all
from .generators import deformed_sphere_system, random_system, sphere_system
from .stratification import FlowSystem
from .tower import Declarations, MissingDeclarationError, Tower, build_tower
from .towerfile import ParseError, parse_tower_file, render_tower_file

__all__ = ["main"]


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
        elif level == 0:
            message = "level-0 cells do not compose: they have no boundary to glue along"
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
