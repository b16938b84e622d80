"""Every name a module of the package imports is referenced in it, and no
module reads the process environment."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cfswarm"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_scan_flags_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == [
        "os (line 1)", "b (line 2)"]
    assert unused_imports("import a.b\nfrom . import t as T\na.b.c(T)\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


ENV_NAMES = ("environ", "getenv", "putenv")


def environment_reads(source: str) -> list[str]:
    """Each use of os.environ, os.getenv or os.putenv, by attribute (under
    any name os is imported as) or by from-import."""
    tree = ast.parse(source)
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names
               if alias.name == "os"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ENV_NAMES \
                and isinstance(node.value, ast.Name) \
                and node.value.id in aliases:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name in ENV_NAMES]
    return [f"os.{name} (line {line})" for line, name in sorted(found)]


def test_scan_flags_an_environment_read():
    assert environment_reads(
        "import os\nx = os.environ['A']\ny = os.getenv('B')\n"
        "from os import putenv\nimport os as o\no.environ.get('C')\n") == [
        "os.environ (line 2)", "os.getenv (line 3)", "os.putenv (line 4)",
        "os.environ (line 6)"]
    assert environment_reads("import os\nos.getpid()\nenviron = 1\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_reads_no_environment_variable(path):
    assert environment_reads(path.read_text()) == []
