"""The package's code surface: every function and module-level name it
defines has a reader, every name a module imports is read there, and it
imports nothing outside the standard library."""

import ast
import importlib
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qcpsim"
# where a use of a package function may live
SEARCHED = ("src", "tests", "demos", "perfbench")


def _searched_words() -> tuple[Counter, Counter]:
    """How often each identifier appears as a whole word in the searched
    sources, and how often it is the name a `def` defines."""
    text = "\n".join(path.read_text()
                     for top in SEARCHED
                     for path in sorted((ROOT / top).rglob("*.py")))
    return (Counter(re.findall(r"\w+", text)),
            Counter(re.findall(r"\bdef\s+(\w+)", text)))


def _package_modules() -> list[ast.Module]:
    return [ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))]


def _defined_functions() -> set[str]:
    names = set()
    for module in _package_modules():
        for node in ast.walk(module):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (node.name.startswith("__")
                        and node.name.endswith("__")):
                    names.add(node.name)
    return names


def _module_assignments() -> Counter:
    """How many module-level assignments bind each name; dunder names such
    as `__all__` and `__version__` are read by tools, not by code."""
    counts = Counter()
    for module in _package_modules():
        for node in module.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not (
                            name.id.startswith("__")
                            and name.id.endswith("__")):
                        counts[name.id] += 1
    return counts


def test_no_unused_functions():
    words, defs = _searched_words()
    unused = [name for name in sorted(_defined_functions())
              if words[name] <= defs[name]]
    assert unused == []


def test_no_unused_module_names():
    words, _ = _searched_words()
    unused = [name for name, defs in sorted(_module_assignments().items())
              if words[name] <= defs]
    assert unused == []


def _slots(cls: ast.ClassDef) -> tuple[str, ...]:
    for node in cls.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__"
                for t in node.targets):
            return ast.literal_eval(node.value)
    return ()


def _attributes(cls: ast.ClassDef) -> set[str]:
    """The attribute names a class defines: its slots, the names its body
    binds, and those its methods assign on `self`."""
    names = set(_slots(cls))
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names.add(node.target.id)
    for node in ast.walk(cls):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            names.add(node.attr)
    return names


def test_no_unread_slots():
    # every slot holds state that some code reads, not only writes. A slot
    # whose name another class of the package also defines (a record's
    # field, say) counts as read only in the module of its own class, so
    # a read of the other class's attribute cannot stand in for it
    loads: dict[str, set[str]] = {}     # attribute name -> modules loading it
    classes = []        # (module, class, slots, attribute names)
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                              ast.Load):
                loads.setdefault(node.attr, set()).add(path.stem)
            elif isinstance(node, ast.ClassDef):
                classes.append((path.stem, node.name, _slots(node),
                                _attributes(node)))
    unread = []
    for stem, name, slots, _ in classes:
        for slot in slots:
            shared = any(slot in attributes
                         for other_stem, other, _, attributes in classes
                         if (other_stem, other) != (stem, name))
            where = loads.get(slot, set())
            if not (stem in where if shared else where):
                unread.append(f"{stem}.{name}.{slot}")
    assert classes
    assert unread == []


def _unread_imports(module: ast.Module) -> list[str]:
    """Names `module` imports but never reads; `__future__` imports are
    compiler directives, not names."""
    imported = []
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0]
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(module)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read]


def test_no_unused_imports():
    # the package's `__init__` imports to re-export, so it is not checked
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            module = ast.parse(path.read_text(), str(path))
            unused += [f"{path.stem}.{name}" for name in _unread_imports(module)]
    assert unused == []


def test_import_loads_only_the_standard_library():
    # `site` may have loaded third-party modules before the import, so only
    # the modules the import adds are checked
    code = ("import sys; before = set(sys.modules); "
            f"sys.path.insert(0, {str(PACKAGE.parent)!r}); import qcpsim; "
            "print(*sorted(set(sys.modules) - before))")
    added = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, check=True).stdout.split()
    assert "qcpsim.engine" in added
    foreign = [name for name in added if name.split(".")[0] != "qcpsim"
               and name.split(".")[0] not in sys.stdlib_module_names]
    assert foreign == []


def _is_tuple_new(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "__new__"
            and isinstance(node.value, ast.Name) and node.value.id == "tuple")


def test_direct_record_construction_is_complete():
    # `tuple.__new__(Cls, (...))` builds a named tuple without running its
    # `__new__`, so no field default applies: every one must be passed
    built = set()
    bad = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = ast.parse(path.read_text(), str(path))
        namespace = vars(importlib.import_module(f"qcpsim.{path.stem}"))
        calls = {id(node.func) for node in ast.walk(module)
                 if isinstance(node, ast.Call)}
        for node in ast.walk(module):
            if _is_tuple_new(node) and id(node) not in calls:
                bad.append(f"{path.stem}:{node.lineno}: not called directly")
            if not (isinstance(node, ast.Call) and _is_tuple_new(node.func)):
                continue
            where = f"{path.stem}:{node.lineno}"
            if len(node.args) != 2 or node.keywords \
                    or not isinstance(node.args[0], ast.Name):
                bad.append(f"{where}: not tuple.__new__(Cls, (...))")
                continue
            cls = namespace.get(node.args[0].id)
            fields = getattr(cls, "_fields", None)
            if not (isinstance(cls, type) and issubclass(cls, tuple)
                    and fields is not None):
                bad.append(f"{where}: {node.args[0].id} is not a NamedTuple")
                continue
            built.add(cls.__name__)
            if not (isinstance(node.args[1], ast.Tuple)
                      and len(node.args[1].elts) == len(fields)):
                bad.append(f"{where}: {cls.__name__} needs a literal tuple "
                           f"of {len(fields)} items")
    assert bad == []
    assert built == {"IssueEvent", "StepRecord", "StepMetrics",
                     "SchedulerEvent"}
