"""The library keeps its checks under python -O: no assert statements, and a passing selftest."""

import ast
import glob
import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_library_has_no_assert_statements():
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "rungemod", "*.py"))):
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read(), filename=path)
        found += ["%s:%d" % (os.path.basename(path), node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_no_functools_cache_takes_a_group():
    # a module cache keyed by a group keeps it alive; per-group results go
    # through modnt.per_group into the group's own dict instead
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "rungemod", "*.py"))):
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read(), filename=path)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
            names = {d.attr if isinstance(d, ast.Attribute) else getattr(d, "id", None)
                     for d in decorators}
            params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            if names & {"lru_cache", "cache"} and any(
                    a.annotation is not None and "SubgroupG" in ast.unparse(a.annotation)
                    for a in params):
                found.append("%s:%s" % (os.path.basename(path), node.name))
    assert found == []


def test_selftest_passes_under_python_O():
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "rungemod.cli", "selftest", "--format", "json"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["passed"] is True
