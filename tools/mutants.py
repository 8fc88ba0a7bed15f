"""Mutation audit: which one-node changes to a function does tier-1 miss?

Usage, from the root of a source checkout:

    python tools/mutants.py src/hilbprod/decision.py _annotate_rules
    python tools/mutants.py src/hilbprod/partitions.py Partition.__str__

Each mutant changes one node inside the named functions (every function of
the module when none is named; ``Class.method`` names a method): a
comparison operator becomes its negation (``==``/``!=``, ``<``/``>=``,
``>``/``<=``, ``is``/``is not``, ``in``/``not in``), ``and`` becomes ``or``
and back, or an int constant c becomes c + 1.  The checkout is copied once
to a temporary directory, and the tree itself is never written.  In the
copy each audited function is the ``ast.unparse`` of its syntax tree, and
the rest of the module keeps its text, comments included (a test may read a
``# noqa`` mark), so the first run, of the functions unparsed without a
change, must pass.  Then each mutant is written there in turn, and tier-1 runs on it with ``-x`` and without
bytecode files, so a mutant of the same size as the last is never read from
a stale cache.  A mutant survives when tier-1 passes on it; a run that
outlasts five times the first one is stopped and counts as killed (a hang).
Survivors are printed to stdout, one per line, as ``module:line function:
change``, and progress goes to stderr.  Exit status 2 when the module is
outside the checkout, a function is not found or the unchanged run fails.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

NEGATED = {
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Lt: ast.GtE, ast.GtE: ast.Lt,
    ast.Gt: ast.LtE, ast.LtE: ast.Gt,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}
TIER_1 = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
IGNORED = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".perfbench_out", ".perfbench_tmp"
)


def functions(tree: ast.Module, names: list[str]) -> list[tuple[str, ast.AST]]:
    """The named function nodes, as (qualified name, node), in the order named."""
    found = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            found[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    found[f"{node.name}.{item.name}"] = item
    missing = [name for name in names if name not in found]
    if missing:
        print(f"error: no function {', '.join(missing)} in the module", file=sys.stderr)
        raise SystemExit(2)
    return [(name, found[name]) for name in names or found]


def sites(tree: ast.Module, names: list[str]) -> list[tuple[str, ast.AST, int]]:
    """Every mutable node of the functions, with the operator index of a comparison."""
    found = []
    for name, function in functions(tree, names):
        for node in ast.walk(function):
            if isinstance(node, ast.Compare):
                found += [(name, node, i) for i in range(len(node.ops))]
            elif isinstance(node, ast.BoolOp) or (
                isinstance(node, ast.Constant) and type(node.value) is int
            ):
                found.append((name, node, 0))
    return found


def mutate(node: ast.AST, i: int) -> str:
    """Apply the one change of this site to ``node``; return its description."""
    if isinstance(node, ast.Compare):
        old = node.ops[i]
        node.ops[i] = NEGATED[type(old)]()
        return f"{type(old).__name__} -> {type(node.ops[i]).__name__}"
    if isinstance(node, ast.BoolOp):
        old = node.op
        node.op = ast.Or() if isinstance(old, ast.And) else ast.And()
        return f"{type(old).__name__} -> {type(node.op).__name__}"
    node.value += 1
    return f"{node.value - 1} -> {node.value}"


def spliced(source: str, tree: ast.Module, names: list[str]) -> str:
    """``source`` with each function of ``names`` (every function when none is
    named) replaced by the unparse of its node in ``tree``, decorators
    included, at the function's own indentation."""
    lines = source.splitlines(keepends=True)
    # from the bottom up, so the functions above keep their line numbers
    for _, node in sorted(functions(tree, names), key=lambda item: -item[1].lineno):
        start = min([node.lineno] + [d.lineno for d in node.decorator_list]) - 1
        lines[start:node.end_lineno] = [
            textwrap.indent(ast.unparse(node), " " * node.col_offset) + "\n"
        ]
    return "".join(lines)


def tier_1(root: Path, timeout: float | None) -> str:
    """``"passed"``, ``"failed"`` or ``"timeout"``: tier-1 run in ``root``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(
            [sys.executable, *TIER_1], cwd=root, env=env, timeout=timeout,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if done.returncode == 0 else "failed"


def main(argv: list[str]) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0 if argv else 2
    # relative to the checkout, so that the copy is the only file written
    module, names = Path(argv[0]).resolve(), argv[1:]
    if not module.is_relative_to(Path.cwd().resolve()):
        print(f"error: {argv[0]} is not inside the checkout", file=sys.stderr)
        return 2
    module = module.relative_to(Path.cwd().resolve())
    source = module.read_text()
    count = len(sites(ast.parse(source), names))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "tree"
        shutil.copytree(Path.cwd(), root, ignore=IGNORED)
        target = root / module
        target.write_text(spliced(source, ast.parse(source), names))
        start = time.perf_counter()
        if tier_1(root, None) != "passed":
            print("error: tier-1 fails on the unparsed module", file=sys.stderr)
            return 2
        timeout = 5 * (time.perf_counter() - start)
        survivors = 0
        for k in range(count):
            tree = ast.parse(source)
            name, node, i = sites(tree, names)[k]
            change = mutate(node, i)
            target.write_text(spliced(source, tree, names))
            label = f"{module}:{node.lineno} {name}: {change}"
            status = tier_1(root, timeout)
            print(f"[{k + 1}/{count}] {status} {label}", file=sys.stderr)
            if status == "passed":
                survivors += 1
                print(label, flush=True)
    print(f"{survivors} of {count} mutants survived", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
