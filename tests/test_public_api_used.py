"""Every public name of ``prism`` has a caller outside the tests.

A public top-level function or class of a module under ``src/prism``, or
a public method of one of its classes, must be referenced from program
code: a module under ``src/prism`` or a non-test file of ``perfbench/``.
A reference is a name, an attribute, an imported name or a string that
is an identifier, since the benchmark's tracer names what it wraps as
strings. Package ``__init__.py`` files only re-export, so they neither
define nor reference. A definition does not reference itself.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "prism"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
CALLERS = MODULES + sorted(
    p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")
)

# README's library quick start calls it.
DOCUMENTED_ENTRY_POINTS = {"run_paired"}


def public_definitions(source: str) -> list[str]:
    """Public top-level functions and classes, and public methods as ``Class.name``."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found.append(node.name)
        if isinstance(node, ast.ClassDef):
            found += [
                f"{node.name}.{item.name}"
                for item in node.body
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
            ]
    return found


def references(source: str) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names.add(node.value)
    return names


def test_the_scan_finds_an_unreferenced_definition():
    source = (
        "class A:\n    def used(self): ...\n    def spare(self): ...\n    def _own(self): ...\n"
        "def f(): return A().used()\ndef g(): ...\ndef _h(): ...\nTRACED = 'g'\n"
    )
    defined = public_definitions(source)
    assert defined == ["A", "A.used", "A.spare", "f", "g"]
    used = references(source)
    assert [d for d in defined if d.rpartition(".")[2] not in used] == ["A.spare", "f"]


def test_every_public_name_has_a_caller():
    used = DOCUMENTED_ENTRY_POINTS.union(
        *(references(path.read_text(encoding="utf-8")) for path in CALLERS)
    )
    unused = [
        f"{path.relative_to(SRC)}: {name}"
        for path in MODULES
        for name in public_definitions(path.read_text(encoding="utf-8"))
        if name.rpartition(".")[2] not in used
    ]
    assert unused == []
