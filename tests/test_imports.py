"""No gose module, test or demo keeps a top-level import it never uses.

The package __init__ re-exports, so it is left out; so is benchmarks/.
Numbers are range-checked in one place, core.check_number, and vector norms
are taken in one place, core.norm.
"""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gose"
MODULES = sorted(path.name for path in SRC.glob("*.py") if path.name != "__init__.py")
SCRIPTS = sorted(str(path.relative_to(ROOT)) for folder in ("tests", "demos")
                 for path in (ROOT / folder).glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports that the module never reads.

    An import statement with "# noqa" on any of its lines is exempt, as is
    `from __future__ import ...`.  `import a.b` binds, and is used through, a.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = set()
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_checker_finds_unused_imports_and_honours_noqa():
    source = ("from __future__ import annotations\n"
              "import os\nimport numpy.random  # noqa: F401\nimport importlib.util\n"
              "from .core import (ConfigError,\n    is_integer)\n"
              "from .ncfind import BOTTOM as B\n"
              "x = importlib.util.find_spec('x') if is_integer(1) else B\n")
    assert unused_imports(source) == ["ConfigError", "os"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((SRC / module).read_text()) == []


@pytest.mark.parametrize("script", SCRIPTS)
def test_test_or_demo_uses_every_import(script):
    assert unused_imports((ROOT / script).read_text()) == []


def number_checks(source: str) -> set:
    """Functions that raise NonPositiveConstant or read numbers.Real or numbers.Integral."""
    found = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        raises = isinstance(node, ast.Raise) and any(
            isinstance(n, ast.Name) and n.id == "NonPositiveConstant" for n in ast.walk(node))
        reads = (isinstance(node, ast.Attribute) and node.attr in ("Real", "Integral")
                 and isinstance(node.value, ast.Name) and node.value.id == "numbers")
        imports = isinstance(node, ast.ImportFrom) and node.module == "numbers"
        if raises or reads or imports:
            found.add(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_numbers_are_checked_only_in_check_number():
    found = {module: number_checks((SRC / module).read_text()) for module in MODULES}
    assert found == {module: {"check_number"} if module == "core.py" else set()
                     for module in MODULES}


@pytest.mark.parametrize("name", ["check_real", "_check_L", "BudgetZero", "InvalidP",
                                  "is_integer"])
def test_removed_number_checks_are_gone(name):
    assert not [path.name for path in SRC.glob("*.py")
                if re.search(rf"\b{name}\b", path.read_text())]



def mentions_outside(source: str, text: str, function) -> list[int]:
    """Lines that contain `text` outside every top-level def named `function` (None: any line)."""
    inside = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name == function:
            inside |= set(range(node.lineno, node.end_lineno + 1))
    return [k for k, line in enumerate(source.splitlines(), 1)
            if text in line and k not in inside]


def test_checker_finds_mentions_outside_the_function():
    source = ("import numpy as np\n"
              "def norm(v):\n    'np.linalg.norm bits'\n    return v\n"
              "def f(v):\n    return np.linalg.norm(v)\n")
    assert mentions_outside(source, "linalg.norm", "norm") == [6]
    assert mentions_outside(source, "linalg.norm", None) == [3, 6]


@pytest.mark.parametrize("module", MODULES)
def test_vector_norms_are_taken_only_in_core_norm(module):
    # core.norm is np.linalg.norm's own path for a vector without its
    # dispatch; nothing else in the package may call np.linalg.norm
    source = (SRC / module).read_text()
    helper = "norm" if module == "core.py" else None
    for text in ("linalg.norm", "linalg import norm"):
        assert mentions_outside(source, text, helper) == [], text
