"""Print the statements of the package that a run never reaches.

    python scripts/unreached.py [--refine 0 2 3] [--entry NAME ...] [--library]

Runs the default catalog (every entry, or only the ``--entry`` ones) at
seed 42 in this process, through ``cli.execute_suite(specs, 1)``, once per
refine level; ``--library`` adds one library-large pass at seed 42, the
calls of ``perfbench/library.py``, which is only read.  The run is traced
with ``sys.settrace``, limited to the files of ``src/sobolev_banach``,
which is imported from this tree; tracing starts before the package is
imported, so module-level code counts as reached.

For each module the statements (AST ``stmt`` nodes, docstrings left out)
none of whose own lines ran are printed as ``path:first-last: source``.
A statement counts as reached when a line of its own code ran: its
decorators and header for a compound statement, all its lines for a
simple one, or any statement nested in it.  An unreached compound
statement is printed once, without the statements it holds.  Each
module ends with its count of unreached statements.
"""
from __future__ import annotations

import argparse
import ast
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sobolev_banach"
SEED = 42


def _children(node):
    """The statements nested directly in ``node``, those of its except
    clauses and match cases included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.stmt):
            yield child
        elif isinstance(child, (ast.excepthandler, ast.match_case)):
            yield from _children(child)


def _own_lines(node) -> range:
    """The lines of ``node``'s own code: from its first decorator to the
    line before its first nested statement (to its last line if it has
    none)."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    inner = [child.lineno for child in _children(node)]
    return range(first, min(inner) if inner else node.end_lineno + 1)


def _docstrings(tree) -> set[int]:
    """The ids of the docstring statements of the module, its classes and
    its functions."""
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return {
        id(node.body[0])
        for node in ast.walk(tree)
        if isinstance(node, scopes)
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
        and isinstance(node.body[0].value.value, str)
    }


def unreached(path: Path, ran: set[int]) -> list[tuple[int, int, str]]:
    """``(first, last, source line)`` of each outermost statement of the
    module at ``path`` that is not reached, given the lines ``ran``."""
    source = path.read_text(encoding="utf-8")
    tree, lines = ast.parse(source), source.splitlines()
    skip = _docstrings(tree)
    reached = {}

    def is_reached(node) -> bool:
        if id(node) not in reached:
            reached[id(node)] = not ran.isdisjoint(_own_lines(node)) or any(
                is_reached(child) for child in _children(node) if id(child) not in skip
            )
        return reached[id(node)]

    out = []

    def walk(nodes):
        for node in nodes:
            if id(node) in skip:
                continue
            if not is_reached(node):
                first = _own_lines(node).start
                out.append((first, node.end_lineno, lines[first - 1].strip()))
            else:
                walk(_children(node))

    walk(tree.body)
    return out


def _specs(entries, refine_levels):
    from sobolev_banach import suite

    names = entries or list(suite.CATALOG)
    return [{"name": n, "seed": SEED, "refine": r} for r in refine_levels for n in names]


def _run(args):
    """The traced work: the catalog runs, then the library-large pass."""
    from sobolev_banach import cli

    for res in cli.execute_suite(_specs(args.entry, args.refine), 1):
        if "error" in res:
            print(f"error: entry {res['entry']} raised {res['error']}", file=sys.stderr)
    if args.library:
        sys.path.insert(0, str(ROOT / "perfbench"))
        from library import Inputs, calls

        for _, thunk, _ in calls(Inputs(SEED)):
            thunk()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--refine", type=int, nargs="+", default=[0], choices=range(4),
                        help="refine levels to run the catalog at (default: 0)")
    parser.add_argument("--entry", nargs="+", help="run only these catalog entries")
    parser.add_argument("--library", action="store_true",
                        help="add one library-large pass from perfbench/library.py")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(PACKAGE.parent))
    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, _arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, _event, _arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(call)
    try:
        _run(args)
    finally:
        sys.settrace(None)

    for path in sorted(PACKAGE.glob("*.py")):
        missed = unreached(path, ran.get(str(path), set()))
        rel = path.relative_to(ROOT)
        for first, last, text in missed:
            print(f"{rel}:{first}-{last}: {text}")
        print(f"{rel}: {len(missed)} unreached statements")
    return 0


if __name__ == "__main__":
    sys.exit(main())
