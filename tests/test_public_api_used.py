"""Every public name and every defaulted parameter of ``prism`` has a
caller outside the tests.

A public top-level function or class of a module under ``src/prism``, or
a public method of one of its classes, must be referenced from program
code: a module under ``src/prism`` or a non-test file of ``perfbench/``.
A function or class is referenced by a name, an attribute, an imported
name or a string that is an identifier, since the benchmark's tracer
names what it wraps as strings. A method is referenced only by an
attribute (``.name``) or an identifier string: a local variable or
parameter that happens to share its name calls nothing. Package
``__init__.py`` files only re-export, so they neither define nor
reference. A definition does not reference itself.

Every defaulted parameter of a function, method or constructor
(``__init__`` or ``__new__``) under ``src/prism``, private ones
included, must be passed by some call in program code: by keyword, by
position, or through ``**``. A call is matched to a definition by the
name it calls (a class's name for its constructor), so two definitions
that share a name share their callers. A plain field default of a
dataclass, a value rather than a ``field(...)`` call, is a defaulted
parameter of its constructor and is scanned too, except in a subclass of
``Record``: records are rebuilt through ``Record.from_dict``'s
``cls(**doc)``, which no name ties to a class.
"""

import ast
import math
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


def references(source: str) -> tuple[set[str], set[str]]:
    """The names ``source`` references, and the subset that can reach a
    method: attributes and identifier strings."""
    names, attributes = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                attributes.add(node.value)
    return names | attributes, attributes


def unreferenced(defined: list[str], names: set[str], attributes: set[str]) -> list[str]:
    """The definitions no reference reaches: a method ``Class.name`` needs
    ``name`` among the attributes, anything else among the names."""
    return [
        d for d in defined
        if d.rpartition(".")[2] not in (attributes if "." in d else names)
    ]


def test_the_scan_finds_an_unreferenced_definition():
    source = (
        "class A:\n    def used(self): ...\n    def spare(self): ...\n    def _own(self): ...\n"
        "    def local(self): ...\n"
        "def f(): return A().used()\ndef g(): ...\ndef _h(): ...\nTRACED = 'g'\n"
        "def k(local): spare = local; return spare\nk(1)\n"
    )
    defined = public_definitions(source)
    assert defined == ["A", "A.used", "A.spare", "A.local", "f", "g", "k"]
    # A local variable or parameter of a method's name is not a caller.
    assert unreferenced(defined, *references(source)) == ["A.spare", "A.local", "f"]


def test_every_public_name_has_a_caller():
    names, attributes = set(DOCUMENTED_ENTRY_POINTS), set()
    for path in CALLERS:
        found, found_attributes = references(path.read_text(encoding="utf-8"))
        names |= found
        attributes |= found_attributes
    unused = [
        f"{path.relative_to(SRC)}: {name}"
        for path in MODULES
        for name in unreferenced(public_definitions(path.read_text(encoding="utf-8")), names, attributes)
    ]
    assert unused == []


def defaulted_parameters(source: str) -> list[tuple[str, str, int | None]]:
    """Each defaulted parameter of a function, method or constructor as
    ``(callee, parameter, position)``. The callee is the name a call
    uses; the position counts the arguments a call passes before the
    parameter, past ``self`` or ``cls``, and is None for a keyword-only
    parameter."""
    found = []

    def add(node: ast.FunctionDef, callee: str, bound: bool) -> None:
        args = node.args
        positional = (args.posonlyargs + args.args)[int(bound):]
        first = len(positional) - len(args.defaults)
        found.extend((callee, arg.arg, first + i) for i, arg in enumerate(positional[first:]))
        found.extend(
            (callee, arg.arg, None)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None
        )

    def visit(body: list, cls: str | None) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                if is_dataclass(node) and not any(
                    isinstance(base, ast.Name) and base.id == "Record" for base in node.bases
                ):
                    found.extend(field_defaults(node))
                visit(node.body, node.name)
            elif isinstance(node, ast.FunctionDef):
                static = any(
                    isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list
                )
                constructor = cls is not None and node.name in ("__init__", "__new__")
                add(node, cls if constructor else node.name, cls is not None and not static)
                for inner in ast.walk(node):
                    if inner is not node and isinstance(inner, ast.FunctionDef):
                        add(inner, inner.name, False)

    visit(ast.parse(source).body, None)
    return found


def is_dataclass(node: ast.ClassDef) -> bool:
    """Whether ``node`` is decorated with ``dataclass``, called or not."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def field_defaults(node: ast.ClassDef) -> list[tuple[str, str, int]]:
    """The plain field defaults of dataclass ``node`` as ``(class, field,
    position)``. The position counts the constructor's fields before it;
    a ``field(init=False)`` is not one of them, and neither is a
    ``ClassVar``."""
    found, position = [], 0
    for item in node.body:
        if not isinstance(item, ast.AnnAssign) or "ClassVar" in ast.unparse(item.annotation):
            continue
        value = item.value
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
            if any(kw.arg == "init" and getattr(kw.value, "value", True) is False for kw in value.keywords):
                continue
        elif value is not None:
            found.append((node.name, item.target.id, position))
        position += 1
    return found


def passed_arguments(sources: list[str]) -> dict[str, tuple[set[str], float, bool]]:
    """Per name called: the keywords passed, the most positional
    arguments passed (infinite after a ``*``) and whether a call passes
    ``**``."""
    calls: dict[str, tuple[set[str], float, bool]] = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None:
                continue
            keywords, most, spread = calls.get(name, (set(), 0, False))
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            calls[name] = (
                keywords | {kw.arg for kw in node.keywords if kw.arg is not None},
                max(most, math.inf if starred else len(node.args)),
                spread or any(kw.arg is None for kw in node.keywords),
            )
    return calls


def unpassed(source: str, calls: dict[str, tuple[set[str], float, bool]]) -> list[tuple[str, str]]:
    """The defaulted parameters in ``source`` that no call in ``calls`` passes."""
    missing = []
    for callee, parameter, position in defaulted_parameters(source):
        keywords, most, spread = calls.get(callee, (set(), 0, False))
        if not (parameter in keywords or spread or (position is not None and most > position)):
            missing.append((callee, parameter))
    return missing


def test_the_scan_finds_an_unpassed_default():
    source = (
        "def f(x, never=0): ...\n"
        "def g(*, by_keyword=0): ...\n"
        "class C:\n"
        "    def __init__(self, x, by_position=0): ...\n"
        "    def m(self, through=0): ...\n"
        "f(1)\ng(by_keyword=1)\nC(1, 2).m(**{'through': 1})\n"
    )
    assert defaulted_parameters(source) == [
        ("f", "never", 1), ("g", "by_keyword", None), ("C", "by_position", 1), ("m", "through", 0),
    ]
    assert unpassed(source, passed_arguments([source])) == [("f", "never")]


def test_the_scan_finds_an_unpassed_field_default():
    source = (
        "@dataclass\n"
        "class A:\n"
        "    x: int\n"
        "    never: int = 0\n"
        "    by_keyword: int = 0\n"
        "    made: list = field(default_factory=list)\n"
        "    derived: int = field(init=False)\n"
        "    shared: ClassVar[int] = 0\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class B:\n"
        "    x: int\n"
        "    by_position: int = 0\n"
        "    through: int = 0\n"
        "@dataclass\n"
        "class R(Record):\n"
        "    rebuilt: int = 0\n"
        "class Plain:\n"
        "    attribute: int = 0\n"
        "A(1, by_keyword=2)\nB(1, 2, **{'through': 3})\n"
    )
    assert defaulted_parameters(source) == [
        ("A", "never", 1), ("A", "by_keyword", 2), ("B", "by_position", 1), ("B", "through", 2),
    ]
    assert unpassed(source, passed_arguments([source])) == [("A", "never")]


def test_every_defaulted_parameter_is_passed():
    calls = passed_arguments([path.read_text(encoding="utf-8") for path in CALLERS])
    missing = [
        f"{path.relative_to(SRC)}: {callee}({parameter}=)"
        for path in MODULES
        for callee, parameter in unpassed(path.read_text(encoding="utf-8"), calls)
    ]
    assert missing == []
