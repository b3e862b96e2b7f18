"""Source hygiene: no module of the package imports a name it never uses.

No linter ships with the test dependencies, so this walks each module's
syntax tree with the standard library. An import made inside a function
counts as used only when that function uses the name; a module-level import
counts as used anywhere in the module. `__init__.py` is skipped, because its
imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

import randset

MODULES = sorted(p for p in Path(randset.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _imports_and_functions(scope):
    """The imports made directly in scope and the functions defined directly in it."""
    imports, functions = [], []
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.append(node)
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imports.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return imports, functions


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name that its scope never reads."""
    out = []
    scopes = [ast.parse(source)]
    while scopes:
        scope = scopes.pop()
        imports, functions = _imports_and_functions(scope)
        scopes += functions
        used = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        for imp in imports:
            if isinstance(imp, ast.ImportFrom) and imp.module == "__future__":
                continue
            for alias in imp.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    out.append((imp.lineno, name))
    return sorted(out)


def test_checker_finds_module_and_function_imports():
    src = "import os\nimport math as m\n\ndef f():\n    from json import dumps, loads\n    return loads\n\nm.pi\n"
    assert unused_imports(src) == [(1, "os"), (5, "dumps")]


def test_checker_scopes_function_imports_to_their_function():
    src = "from json import dumps\n\ndef f():\n    from json import loads\n\ndef g(loads):\n    return loads, dumps\n"
    assert unused_imports(src) == [(4, "loads")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
