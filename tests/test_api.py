"""The public names: every exported name resolves, and the README's Python
example and commands run against the code as it stands."""

import ast
import importlib
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import femprob

README = Path(__file__).resolve().parents[1] / "README.md"
SUBMODULES = [f"femprob.{m.name}" for m in pkgutil.iter_modules(femprob.__path__)]


@pytest.mark.parametrize("name", ["femprob", *SUBMODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_exports_exactly_what_it_imports():
    # the error classes are imported with the package, every other API name
    # on first access through `_LAZY`
    tree = ast.parse(Path(femprob.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    assert imported.isdisjoint(femprob._LAZY)
    assert sorted(femprob.__all__) == sorted(imported | femprob._LAZY.keys() | {"__version__"})


def test_lazy_names_are_their_modules_own():
    for name, module in femprob._LAZY.items():
        value = getattr(femprob, name)
        assert value is getattr(importlib.import_module(f"femprob.{module}"), name), name
        assert name not in vars(femprob)  # resolved on every access, never copied
    namespace = {}
    exec("from femprob import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(femprob.__all__)
    assert set(femprob.__all__) <= set(dir(femprob))
    with pytest.raises(AttributeError, match="has no attribute 'prob_two_step'"):
        femprob.prob_two_step  # public in `femprob.laws`, not in the package


def test_package_exports_the_readme_api():
    # the README's Python block, the Problem1D it asks users to build, and
    # the error classes; every other name lives in its own module
    assert sorted(femprob.__all__) == sorted([
        "ElementPair", "prob_sigmoid", "trapezium_ratio", "mc_estimate",
        "get_problem", "build_mesh", "assemble_solve", "h1_error",
        "convergence_study", "fit_constant", "Problem1D", "FemProbError",
        "ParameterError", "InsufficientDataError", "UnsupportedProblemError",
        "__version__",
    ])


def test_readme_python_block_runs():
    # the README shows results as "expression  # value"; a plain number is
    # checked exactly, anything else ("~0.75", a tuple) only has to run
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    checked = 0
    for code, value in re.findall(r"^([^=#\n]+?)\s+# (-?\d+\.?\d*)\b", block, re.M):
        assert eval(code, namespace) == float(value), code
        checked += 1
    assert checked >= 3


def test_readme_commands_run(tmp_path):
    # every `femprob ...` line of the "Command line" block, run where its
    # files may land, exits 0
    section = README.read_text().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```sh\n(.*?)```", section, re.S)
    commands = [
        shlex.split(line)
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("femprob ")
    ]
    assert len(commands) == 4
    env = {**os.environ, "PYTHONPATH": str(Path(femprob.__file__).parents[1])}
    for command in commands:
        result = subprocess.run(
            [sys.executable, "-m", "femprob.cli", *command[1:]],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )
        assert result.returncode == 0, (command, result.stderr)
