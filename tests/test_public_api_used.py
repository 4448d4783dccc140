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

Every public field, method and property of a class under ``src/prism``
must be read on its own class while program code runs. A field is a
dataclass field, a ``__slots__`` entry or an attribute that ``__init__``
sets on ``self``. The scan runs a fixed program corpus in a fresh
interpreter: every CLI subcommand, the benchmark's run checks on each run
directory and one arm under the benchmark's tracer. Meanwhile it wraps
``__getattribute__`` on every class and records each read made from a
frame in ``src/prism`` or in a non-test file of ``perfbench/``. A read
belongs to the class that defines the name, the first in the object's
MRO, so a name that another class also has is not read by its reads, as
it would be for a scan of names alone (Ernst, "Static and dynamic
analysis: synergy and duality", WODA 2003). A store is not a read. Nor
is a class's read of a field of ``self`` in its own constructor
(``__init__``, ``__post_init__`` or ``__new__``), so state kept only to
be checked there is caught; a method called there is read. Left out:
NamedTuples, which are read by unpacking; class and static methods,
which are read on the class and stay with the public-name scan; and an
override of a method of a base class from outside the program, which
that library reads.
"""

import ast
import contextlib
import dataclasses
import importlib
import importlib.util
import inspect
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import textwrap
import types

import pytest

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


# -- Run-time read scan ---------------------------------------------------------

CONSTRUCTORS = ("__init__", "__post_init__", "__new__")
PERFBENCH = ROOT / "perfbench"
KEYS = {"token_key": "11" * 32, "encryption_key": "22" * 32}
# Small enough to run in under a second under the scan, big enough that the
# adaptive arm decides rows both one at a time and in passes, and that the
# assistant drafts, edits, discards and delivers and leaves drafts pending.
CORPUS_SCENARIO = {
    "seed": 3, "n_users": 50, "n_groups": 6, "n_coaches": 2, "capacity_min": 10,
    "capacity_max": 14, "horizon_weeks": 10, "w_pre": 4, "w_post": 5, "message_prob": 0.5,
    "review_approve_prob": 0.4, "review_edit_prob": 0.2, "review_discard_prob": 0.2,
}


def own_fields(cls: type, in_program) -> list[str]:
    """The public fields ``cls`` itself defines: its own dataclass fields,
    its ``__slots__`` and the attributes its own ``__init__`` sets on
    ``self``, when that ``__init__`` is program code."""
    names = []
    if dataclasses.is_dataclass(cls):
        annotated = cls.__dict__.get("__annotations__", {})
        names += [f.name for f in dataclasses.fields(cls) if f.name in annotated]
    slots = cls.__dict__.get("__slots__", ())
    names += [slots] if isinstance(slots, str) else list(slots)
    init = cls.__dict__.get("__init__")
    if isinstance(init, types.FunctionType) and in_program(init.__code__.co_filename):
        own = init.__code__.co_varnames[0]
        names += [
            node.attr for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(init))))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == own
        ]
    return [name for name in dict.fromkeys(names) if not name.startswith("_")]


def own_methods(cls: type, watched: set) -> list[str]:
    """The public methods and properties ``cls`` itself defines, except
    class and static methods, which are read on the class, and overrides
    of a base class that is not watched, which that base's library reads."""
    outside = [vars(base) for base in cls.__mro__[1:] if base not in watched]
    return [
        name for name, value in cls.__dict__.items()
        if not name.startswith("_") and isinstance(value, (types.FunctionType, property))
        and not any(name in names for names in outside)
    ]


def watch(classes: list[type], in_program) -> set[tuple[type, str]]:
    """Wrap ``__getattribute__`` on each class, and return the set that
    collects ``(class, name)`` for each read made from a program frame.
    A read belongs to the first class in the object's MRO that defines
    the name as a class attribute or as one of its fields. A read of a
    field of ``self`` inside the owning class's own constructor is not
    counted."""
    watched = set(classes)
    fields = {cls: set(own_fields(cls, in_program)) for cls in classes}
    constructors = {
        cls: {
            getattr(cls.__dict__[name], "__func__", cls.__dict__[name]).__code__
            for name in CONSTRUCTORS if name in cls.__dict__
        }
        for cls in classes
    }
    reads: set[tuple[type, str]] = set()
    counted: set[tuple[type, str]] = set()  # (type of the object, name) pairs already in reads
    programs: dict[str, bool] = {}

    def owner(kind: type, name: str) -> type | None:
        for cls in kind.__mro__:
            if name in cls.__dict__ or name in fields.get(cls, ()):
                return cls if cls in watched else None
        return None

    def wrap(get):
        def __getattribute__(self, name):
            key = (type(self), name)
            if key not in counted:
                frame = sys._getframe(1)
                code = frame.f_code
                program = programs.get(code.co_filename)
                if program is None:
                    program = programs[code.co_filename] = in_program(code.co_filename)
                cls = owner(*key) if program else None
                if cls is not None and not (
                    name in fields[cls] and code in constructors[cls]
                    and frame.f_locals.get(code.co_varnames[0]) is self
                ):
                    reads.add((cls, name))
                    counted.add(key)
            return get(self, name)

        return __getattribute__

    # Every original is taken before any is wrapped, so a subclass's
    # wrapper never calls its base's.
    originals = [(cls, cls.__getattribute__) for cls in classes]
    for cls, get in originals:
        cls.__getattribute__ = wrap(get)
    return reads


def public_members(classes: list[type], in_program) -> list[tuple[type, str]]:
    """Each public field, method and property of ``classes`` as ``(class, name)``."""
    watched = set(classes)
    return [
        (cls, name)
        for cls in classes
        for name in own_fields(cls, in_program) + own_methods(cls, watched)
    ]


def defined_classes(modules: list) -> list[type]:
    """Every class the modules define, NamedTuples left out: they are read by unpacking."""
    return [
        obj for module in modules for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__ == module.__name__
        and not (issubclass(obj, tuple) and hasattr(obj, "_fields"))
    ]


def under(roots: tuple[pathlib.Path, ...]):
    """Whether a file is a non-test Python file under one of ``roots``."""
    def in_program(filename: str) -> bool:
        path = pathlib.Path(filename)
        return not path.name.startswith("test_") and any(path.is_relative_to(r) for r in roots)

    return in_program


def load_file(path: pathlib.Path):
    """Load a file as a module, as ``tests/test_trace_hooks.py`` loads the tracer."""
    spec = importlib.util.spec_from_file_location(f"scanned_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def program_corpus(work: pathlib.Path) -> None:
    """Every CLI subcommand, the benchmark's run checks on each run
    directory, and one arm under the benchmark's tracer."""
    from prism.cli import main
    from prism.redaction import default_rules

    checks, tracing = load_file(PERFBENCH / "checks.py"), load_file(PERFBENCH / "tracing.py")
    files = {
        "scenario": CORPUS_SCENARIO,
        "keys": KEYS,
        "config": {"policy": {"beta": 0.5}, "engagement_alphas": [0.2] * 5, "keys": str(work / "keys.json")},
        "rules": [
            {"entity_type": r.entity_type, "pattern": r.pattern.pattern, "placeholder": r.placeholder}
            for r in default_rules()
        ],
    }
    for name, doc in files.items():
        (work / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    runs = {arm: work / arm for arm in ("static", "adaptive", "traced")}

    def run(*argv: str) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(list(argv)) == 0, argv

    def simulate(arm: str, out: pathlib.Path, *keys: str) -> None:
        run("simulate", "--scenario", str(work / "scenario.json"), "--policy", arm,
            "--config", str(work / "config.json"), *keys, "--out", str(out))

    simulate("static", runs["static"], "--keys", str(work / "keys.json"))
    simulate("adaptive", runs["adaptive"], "--keys", str(work / "keys.json"))
    tracer = tracing.Tracer()
    with tracer.installed():
        tracer.arm = "adaptive"
        simulate("adaptive", runs["traced"])  # keys from the config file
        tracer.arm = None
    assert tracer.accounting_errors() == []
    run("compare", "--a", str(runs["static"]), "--b", str(runs["adaptive"]))
    run("inspect", str(runs["adaptive"]))
    messages = str(runs["adaptive"] / "deid_messages.jsonl")
    run("leak-audit", "--in", messages)
    run("leak-audit", "--in", messages, "--rules", str(work / "rules.json"))
    run("tokenize-demo", "--value", "pat@example-mail.test", "--context", "email",
        "--keys", str(work / "keys.json"))
    run("restore-demo", "--role", "coach", "--keys", str(work / "keys.json"))
    run("restore-demo", "--role", "analyst", "--keys", str(work / "keys.json"))
    drafts = (runs["adaptive"] / "drafts.jsonl").read_text(encoding="utf-8").splitlines()
    pending = [doc["draft_id"] for doc in map(json.loads, drafts) if doc["status"] == "pending"]
    run("review", "--run", str(runs["adaptive"]), "--draft", pending[0], "--decision", "approve")
    run("review", "--run", str(runs["adaptive"]), "--draft", pending[1], "--decision", "edit",
        "--text", "Keep going this week.")
    s = CORPUS_SCENARIO
    for arm, run_dir in runs.items():
        expected = 0 if arm == "static" else s["n_users"] * (s["horizon_weeks"] - s["w_pre"])
        assert checks.check_run_dir(run_dir, 0, expected) == [], arm


def scan(scratch: pathlib.Path | None) -> list[str]:
    """Run the program corpus, or a scratch directory's ``scratch.main()``,
    under the read scan, and return what it leaves unread."""
    if scratch is None:
        in_program = under((SRC, PERFBENCH))
        modules = [
            importlib.import_module(".".join(("prism", *path.relative_to(SRC).with_suffix("").parts)))
            for path in MODULES
        ]
    else:
        in_program = under((scratch,))
        sys.path.insert(0, str(scratch))
        modules = [importlib.import_module("scratch")]
    classes = defined_classes(modules)
    # Taken before the corpus runs: the tracer puts its wrappers on classes.
    members = public_members(classes, in_program)
    reads = watch(classes, in_program)
    if scratch is None:
        with tempfile.TemporaryDirectory() as work:
            program_corpus(pathlib.Path(work))
    else:
        modules[0].main()
    return [
        f"{cls.__module__}: {cls.__qualname__}.{name}"
        for cls, name in members if (cls, name) not in reads
    ]


def run_scan(*args: str) -> list[str]:
    """The scan's findings, from a fresh interpreter running this file."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, __file__, *args], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


SCRATCH = """
import argparse
from dataclasses import dataclass
from typing import NamedTuple

from test_reader import peek


@dataclass
class A:
    read: int
    spare: int
    checked: int
    lent: int
    _own: int = 0

    def __post_init__(self):
        if self.checked < 0:
            raise ValueError
        self.called()

    def called(self):
        return self.read

    def spare_method(self):
        return self.read

    @property
    def shown(self):
        return 1

    @classmethod
    def make(cls):
        return cls(1, 2, 3, 4)


class B:
    def __init__(self, a):
        self.kept = a.lent
        self.stored_only = self.kept

    def later(self):
        return self.kept


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


class T(NamedTuple):
    unpacked: int


def main():
    a = A.make()
    B(a).later()
    peek(a)
    T(a.shown)
    Parser(prog="p")
"""


@pytest.fixture(scope="module")
def scratch_findings(tmp_path_factory):
    root = tmp_path_factory.mktemp("scan")
    (root / "scratch.py").write_text(SCRATCH, encoding="utf-8")
    # A test file reads too, but is not program code.
    (root / "test_reader.py").write_text(
        "def peek(a):\n    return a.spare, a.spare_method(), a.checked\n", encoding="utf-8"
    )
    return run_scan(str(root))


def test_the_scan_finds_an_unread_field(scratch_findings):
    # An unread field, a field read only in its own constructor, an
    # unread method and a field that is only stored. Class methods, an
    # override of a library method and NamedTuple fields are out of the
    # scan.
    assert scratch_findings == [
        "scratch: A.spare", "scratch: A.checked", "scratch: A.spare_method", "scratch: B.stored_only",
    ]


def test_a_read_in_the_own_constructor_is_not_a_read(scratch_findings):
    # A.__post_init__ reads ``checked``, which nothing else reads, and
    # calls ``called``, which is a read. B's constructor reads ``lent``
    # of an A, which is a read too.
    assert "scratch: A.checked" in scratch_findings
    assert "scratch: A.called" not in scratch_findings
    assert "scratch: A.lent" not in scratch_findings


def test_every_public_field_is_read():
    assert run_scan() == []


if __name__ == "__main__":
    print(json.dumps(scan(pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else None)))
