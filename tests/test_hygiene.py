"""Source hygiene: no module of the package imports a name it never uses, no
private module-level name goes unread, and no module reads the environment.

No linter ships with the test dependencies, so this walks each module's
syntax tree with the standard library. An import made inside a function
counts as used only when that function uses the name; a module-level import
counts as used anywhere in the module. `__init__.py` is skipped, because its
imports are the package's exports. A private function, class or constant
defined at module level counts as read when any module of the package loads
it, by name or as an attribute. Importing the package, and building a cell
whose vertex a cone absorbs, loads no `scipy` module: no solver is used, and
only a normal law imports `scipy.special`, at its first use. Neither the
import nor a Markov driver's running means load `fractions` or `decimal`: the
exact block sums are plain integer arithmetic. No module touches
`os.environ`, `os.getenv` or `os.putenv`, or imports one of them from `os`,
so a config alone decides every output.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import randset

PACKAGE = sorted(Path(randset.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


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


def _private_definitions(tree):
    """(line, name) of each private function, class or constant defined at top level."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        out += [(node.lineno, n) for n in names if n.startswith("_") and not n.startswith("__")]
    return out


def unread_private_names(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """(module, line, name) of each private module-level name no module reads."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    read = {
        n.id if isinstance(n, ast.Name) else n.attr
        for tree in trees.values()
        for n in ast.walk(tree)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    }
    return sorted((m, *d) for m, tree in trees.items() for d in _private_definitions(tree) if d[1] not in read)


def test_private_name_checker_finds_unread_definitions():
    a = "def _f():\n    pass\n\nclass _C:\n    pass\n\n_K = 1\n_T: int = 2\n\ndef g():\n    return _K\n"
    b = "import a\n\na._T\n"
    assert unread_private_names({"a.py": a, "b.py": b}) == [("a.py", 1, "_f"), ("a.py", 4, "_C")]


def test_no_unread_private_names():
    assert unread_private_names({p.name: p.read_text() for p in PACKAGE}) == []


_ENV_NAMES = ("environ", "getenv", "putenv")


def environment_reads(source: str) -> list[tuple[int, str]]:
    """(line, name) of each use of os.environ, os.getenv or os.putenv, and of
    each import of one of them from os."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "os" and node.attr in _ENV_NAMES:
                out.append((node.lineno, f"os.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            out += [(node.lineno, f"os.{a.name}") for a in node.names if a.name in _ENV_NAMES]
    return sorted(out)


def test_environment_checker_finds_reads():
    src = "import os\nfrom os import environ as env, path\n\nos.environ.get('X')\nos.getenv('Y')\nos.cpu_count()\n"
    assert environment_reads(src) == [(2, "os.environ"), (4, "os.environ"), (5, "os.getenv")]


def test_package_reads_no_environment_variable():
    assert [(p.name, *r) for p in PACKAGE for r in environment_reads(p.read_text())] == []


def _fresh_process_output(code: str) -> list[str]:
    env = {**os.environ, "PYTHONPATH": str(Path(randset.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return run.stdout.split()


def test_import_loads_no_scipy():
    code = (
        "import sys, randset\n"
        "cell = randset.poly_cell([(0, 0), (1, 0)], [(1, 0)])  # the cone absorbs the vertex (1, 0)\n"
        "print(cell == randset.ray_cell((0, 0), (1, 0)))\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    assert _fresh_process_output(code) == ["True", "[]"]


def test_import_and_markov_means_load_no_fractions_or_decimal():
    code = (
        "import sys, randset\n"
        "print(sorted(m for m in ('fractions', 'decimal') if m in sys.modules))\n"
        "d = randset.mixing.markov_driver([[0.5, 0.5], [0.5, 0.5]], [0.5, 0.5], [-1.0, 1 / 3])\n"
        "randset.mixing.checkpoint_means(d, 100, [1, 100], 0, clamp=True)\n"
        "print(sorted(m for m in ('fractions', 'decimal') if m in sys.modules))"
    )
    assert _fresh_process_output(code) == ["[]", "[]"]
