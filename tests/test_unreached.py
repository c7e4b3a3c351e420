"""scripts/unreached.py lists the package statements that a run never reaches."""

import ast
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sobolev_banach"


def _function(module: str, name: str) -> ast.FunctionDef:
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    return next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == name)


def _unreached(*args: str) -> tuple[str, dict[str, list[range]]]:
    """The output of ``scripts/unreached.py`` with ``args``, and the lines
    of each statement it lists, by module."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "unreached.py"), *args],
        capture_output=True, text=True, check=True, cwd=ROOT,
    ).stdout
    listed = {}
    for module, first, last in re.findall(r"^src/sobolev_banach/(\w+\.py):(\d+)-(\d+): ", out, re.M):
        listed.setdefault(module, []).append(range(int(first), int(last) + 1))
    return out, listed


def _overlaps(lines: list[range], node: ast.AST) -> bool:
    return any(r.start <= node.end_lineno and node.lineno < r.stop for r in lines)


def test_unreached_lists_the_kernel_a_product_rule_run_never_calls():
    # product_rule takes finite differences but no Hölder seminorm
    out, lines = _unreached("--entry", "product_rule", "--refine", "0")
    listed = {module: {r.start for r in ranges} for module, ranges in lines.items()}
    holder = _function("_kernels.py", "holder_max")
    assert {stmt.lineno for stmt in holder.body[1:]} <= listed["_kernels.py"]
    fd = _function("gridfn.py", "finite_difference")
    assert not any(fd.lineno <= line <= fd.end_lineno for line in listed["gridfn.py"])
    count = len(listed["_kernels.py"])
    assert f"src/sobolev_banach/_kernels.py: {count} unreached statements" in out


def test_a_norm_chain_rule_run_reaches_every_one_sided_expression():
    # the catalog's sup and ell^1 members pair through the one expression of
    # their kind: every statement of the sup kernel, and ell^1's sum over
    # zero coordinates, runs on rows with one tie and no zero coordinate
    _, listed = _unreached("--entry", "norm_chain_rule", "--refine", "0")
    kernel = _function("_kernels.py", "sup_pairing")
    assert not _overlaps(listed.get("_kernels.py", []), kernel)
    zero_part = next(
        n for n in ast.walk(_function("banach.py", "_pairing_at"))
        if isinstance(n, ast.Assign) and getattr(n.targets[0], "id", None) == "zero_part"
    )
    assert not _overlaps(listed.get("banach.py", []), zero_part)


def test_the_lattice_and_gateaux_rules_run_the_one_chain_rule_pass():
    # lattice_chain_rules (|u| and u+) and gateaux_chain_agreement (the
    # norm's plus and minus sides) reach every statement of the pass's
    # per-block loop, the loop that norm_chain_rule runs too
    _, listed = _unreached(
        "--entry", "lattice_chain_rules", "gateaux_chain_agreement", "--refine", "0"
    )
    loop = next(n for n in _function("calculus.py", "_chain_pass").body if isinstance(n, ast.For))
    assert not _overlaps(listed.get("calculus.py", []), loop)
