"""Every module-level import in the package is used by its module."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ncball"


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom json import dumps, loads\nsys.exit(loads('0'))\n") == [
        "os",
        "dumps",
    ]


def test_no_unused_module_imports():
    modules = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
    assert modules, f"no modules found under {PACKAGE}"
    found = {path.name: unused_imports(path.read_text(encoding="utf-8")) for path in modules}
    assert not {name: names for name, names in found.items() if names}
