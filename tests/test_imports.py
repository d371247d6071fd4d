"""Every module-level import in the package and in its tests is used by its
module, every module-level function or class, private method or property of
a module-level class, and UPPER_CASE constant is read by some module of the
package (a public name is read where __init__ exports it), and ncball.__all__ lists
exactly the names that the package's __init__ imports.  Only the modules of
the two function kinds, freealg and realize, test an object against
FreePolynomial or Realization, and only opball names a ball kind of the
shorthand.
The modules import one another in one acyclic order, only at module level,
and import nothing beyond the standard library and numpy."""

import ast
import graphlib
import re
import sys
from pathlib import Path

import ncball
from ncball.opball import BALL_KINDS

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ncball"
TESTS = Path(__file__).resolve().parent


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
    tests = sorted(TESTS.glob("*.py"))
    assert modules and tests, f"no modules found under {PACKAGE} or {TESTS}"
    found = {path.name: unused_imports(path.read_text(encoding="utf-8")) for path in modules + tests}
    assert not {name: names for name, names in found.items() if names}


def unread_definitions(sources: dict[str, str]) -> list[str]:
    """'module: name' for each module-level function, class or UPPER_CASE
    constant, and 'module: Class.name' for each _private method or property of
    a module-level class, of the given sources that none of them reads by name.

    A public function or class counts as read when some source imports it,
    so a name that the package's __init__ exports is read.  A method is read
    through a class name, or through self or cls inside a class, only for that
    class and its bases and subclasses; through any other receiver, for every
    class that defines it."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    classes = [node for tree in trees.values() for node in tree.body if isinstance(node, ast.ClassDef)]
    bases = {node.name: {getattr(b, "id", None) or getattr(b, "attr", None) for b in node.bases} for node in classes}
    subclasses = {name: {sub for sub in bases if name in bases[sub]} for name in bases}
    family = {}  # each class with its bases and subclasses among the module-level classes
    for name in bases:
        family[name] = {name}
        for edges in (bases, subclasses):
            todo = [name]
            while todo:
                new = edges.get(todo.pop(), set()) - family[name]
                family[name] |= new
                todo += new
    owner = {id(inner): node.name for node in classes for inner in ast.walk(node)}
    read, read_in = set(), set()  # names read anywhere; (class, name) pairs read within a class family
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                receiver = getattr(node.value, "id", None)
                if receiver in bases:
                    read_in.update((c, node.attr) for c in family[receiver])
                elif receiver in ("self", "cls") and id(node) in owner:
                    read_in.update((c, node.attr) for c in family[owner[id(node)]])
                else:
                    read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                methods = [f.name for f in node.body if isinstance(f, ast.FunctionDef) and re.fullmatch(r"_[^_].*", f.name)]
                found += [f"{module}: {node.name}.{name}" for name in methods if name not in read and (node.name, name) not in read_in]
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not re.fullmatch(r"__.*__", node.name):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*", t.id)]
            else:
                continue
            found += [f"{module}: {name}" for name in names if name not in read]
    return found


def test_scan_finds_an_unread_definition():
    sources = {
        "a.py": "LIMIT = 1\nUNUSED = 2\ndef _helper():\n    return LIMIT\nclass _Gone:\n    pass\ndef stale():\n    pass\n",
        "b.py": "from .a import _helper\nprint(_helper())\n",
        "c.py": (
            "class Box:\n"
            "    def __len__(self):\n"
            "        return self._size\n"
            "    @property\n"
            "    def _size(self):\n"
            "        return 0\n"
            "    def _stale(self):\n"
            "        return 1\n"
            "    @classmethod\n"
            "    def _built(cls):\n"
            "        return cls()\n"
        ),
        "d.py": "from .c import Box\nBox._built()\n",
        # two unrelated classes define _make: a read through one does not credit the other
        "e.py": (
            "class Left:\n"
            "    @classmethod\n"
            "    def _make(cls):\n"
            "        return cls()\n"
            "class Right:\n"
            "    @classmethod\n"
            "    def _make(cls):\n"
            "        return cls()\n"
            "    def _run(self):\n"
            "        return 0\n"
            "class Base:\n"
            "    def go(self):\n"
            "        return self._hook()\n"
            "class Leaf(Base):\n"
            "    def _hook(self):\n"
            "        return 0\n"
        ),
        "f.py": "from .e import Leaf, Left, Right\nLeft._make()\nr = Right\nr()._run()\nLeaf().go()\n",
    }
    assert unread_definitions(sources) == ["a.py: UNUSED", "a.py: _Gone", "a.py: stale", "c.py: Box._stale", "e.py: Right._make"]


def test_no_unread_private_definitions_or_constants():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_definitions(sources) == []


def batch_bytes_readers(source: str) -> list[str]:
    """The name of each top-level definition, or '<module>' for any other statement, once per read or import of BATCH_BYTES."""
    found = []
    for node in ast.parse(source).body:
        for inner in ast.walk(node):
            name = getattr(inner, "id", None) if isinstance(getattr(inner, "ctx", None), ast.Load) else None
            imported = [alias.name for alias in inner.names] if isinstance(inner, ast.ImportFrom) else []
            if "BATCH_BYTES" in (name, getattr(inner, "attr", None), *imported):
                found.append(getattr(node, "name", "<module>"))
    return found


def test_scan_finds_a_batch_bytes_reader():
    source = (
        "BATCH_BYTES = 1\n"
        "def _batch_size(n):\n"
        "    return BATCH_BYTES // n\n"
        "class Walk:\n"
        "    def chunk(self):\n"
        "        return freealg.BATCH_BYTES\n"
        "from .freealg import BATCH_BYTES\n"
    )
    assert batch_bytes_readers(source) == ["_batch_size", "Walk", "<module>"]


def test_only_the_batch_size_rule_reads_the_byte_bound():
    # every stack size comes from _batch_size, so the byte rule cannot fork
    found = {path.name: batch_bytes_readers(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
    assert {name: hits for name, hits in found.items() if hits} == {"freealg.py": ["_batch_size"]}


KINDS = {"FreePolynomial", "Realization"}


def kind_dispatches(source: str) -> list[str]:
    """'line: kind' for each isinstance call whose class argument names a function kind."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
            for part in ast.walk(node.args[1]):
                name = getattr(part, "id", None) or getattr(part, "attr", None)  # a Name or an Attribute
                if name in KINDS:
                    found.append(f"{node.lineno}: {name}")
    return found


def test_scan_finds_a_kind_dispatch():
    source = (
        "if isinstance(f, FreePolynomial | realize.Realization):\n"
        "    pass\n"
        "ok = isinstance(f, (NCFunction, int))\n"
        "also = isinstance(f, (int, Realization))\n"
    )
    assert kind_dispatches(source) == ["1: FreePolynomial", "1: Realization", "4: Realization"]


def test_only_the_kinds_own_modules_dispatch_on_them():
    # every other module asks an nc function for its split, label or column through NCFunction's hooks
    owners = {"freealg.py", "realize.py"}
    found = {path.name: kind_dispatches(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
    assert not {name: hits for name, hits in found.items() if hits and name not in owners}


def kind_names(source: str, kinds) -> list[str]:
    """'line: kind' for each string constant that is one of kinds, outside the module's __all__."""
    tree = ast.parse(source)
    exports = [node.value for node in tree.body if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]]
    skipped = {id(part) for value in exports for part in ast.walk(value)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and node.value in kinds and id(node) not in skipped:
            found.append(f"{node.lineno}: {node.value}")
    return found


def test_scan_finds_a_ball_kind_name():
    source = '__all__ = ["row", "polydisk"]\nif kind == "row":\n    ball = f"polydisk:{d}"\nnames = ("polydisk", "rows")\n'
    assert kind_names(source, {"row", "polydisk"}) == ["2: row", "4: polydisk"]


def test_only_opball_names_a_ball_kind():
    # a new kind of the shorthand is one BALL_KINDS entry: no other module spells out a kind
    found = {path.name: kind_names(path.read_text(encoding="utf-8"), set(BALL_KINDS)) for path in PACKAGE.glob("*.py")}
    assert not {name: hits for name, hits in found.items() if hits and name != "opball.py"}
    assert found["opball.py"]


def function_imports(source: str) -> list[int]:
    """The lines of the import statements inside a function or method."""
    functions = [node for node in ast.walk(ast.parse(source)) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    imports = [inner for node in functions for inner in ast.walk(node) if isinstance(inner, (ast.Import, ast.ImportFrom))]
    return sorted({node.lineno for node in imports})


def test_scan_finds_a_function_import():
    source = (
        "import os\n"
        "def f():\n"
        "    from .a import b\n"
        "    def g():\n"
        "        import json\n"
        "class C:\n"
        "    def m(self):\n"
        "        import re\n"
    )
    assert function_imports(source) == [3, 5, 8]


def test_no_module_imports_inside_a_function():
    found = {path.name: function_imports(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
    assert not {name: lines for name, lines in found.items() if lines}


def package_imports(source: str) -> set[str]:
    """The modules of the package a module imports; ``from . import name`` imports __init__."""
    nodes = ast.walk(ast.parse(source))
    return {node.module or "__init__" for node in nodes if isinstance(node, ast.ImportFrom) and node.level}


def import_cycle(graph: dict[str, set[str]]) -> list[str]:
    """A cycle [a, ..., a] of a graph of module -> imported modules, or [] if there is none."""
    try:
        tuple(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as exc:
        return exc.args[1]
    return []


def test_scan_finds_an_import_cycle():
    graph = {name: package_imports(source) for name, source in {"a": "from .b import x\n", "b": "from . import c\n"}.items()}
    assert graph == {"a": {"b"}, "b": {"__init__"}}
    assert import_cycle(graph) == []
    graph["__init__"] = {"a"}
    assert sorted(import_cycle(graph)[1:]) == ["__init__", "a", "b"]


def test_the_package_imports_form_one_acyclic_order():
    graph = {path.stem: package_imports(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
    assert graph["mattuple"] == set()  # the points layer sits below every other module
    assert import_cycle(graph) == []


def outside_imports(source: str) -> list[str]:
    """The modules an absolute import names that are neither the standard library, numpy nor the package."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.append(node.module)
    allowed = sys.stdlib_module_names | {"numpy", "ncball"}
    return [name for name in names if name.split(".")[0] not in allowed]


def test_scan_finds_an_outside_import():
    source = "import os.path\nimport numpy as np\nfrom scipy import linalg\nimport hypothesis\nfrom .freealg import parse\n"
    assert outside_imports(source) == ["scipy", "hypothesis"]


def test_the_package_needs_only_numpy_beyond_the_standard_library():
    found = {path.name: outside_imports(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
    assert not {name: names for name, names in found.items() if names}


def test_all_lists_exactly_the_names_the_package_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(ncball.__all__) == sorted(imported) == sorted(set(imported))
    assert [name for name in ncball.__all__ if not hasattr(ncball, name)] == []
