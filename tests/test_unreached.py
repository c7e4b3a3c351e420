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


def test_unreached_lists_the_kernel_a_product_rule_run_never_calls():
    # product_rule takes finite differences but no Hölder seminorm
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "unreached.py"),
         "--entry", "product_rule", "--refine", "0"],
        capture_output=True, text=True, check=True, cwd=ROOT,
    ).stdout
    listed = {}
    for module, first in re.findall(r"^src/sobolev_banach/(\w+\.py):(\d+)-\d+: ", out, re.M):
        listed.setdefault(module, set()).add(int(first))
    holder = _function("_kernels.py", "holder_max")
    assert {stmt.lineno for stmt in holder.body[1:]} <= listed["_kernels.py"]
    fd = _function("gridfn.py", "finite_difference")
    assert not any(fd.lineno <= line <= fd.end_lineno for line in listed["gridfn.py"])
    count = len(listed["_kernels.py"])
    assert f"src/sobolev_banach/_kernels.py: {count} unreached statements" in out
