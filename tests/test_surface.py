"""Every public function, class and member of the library has a user besides its unit tests.

The paper's claims are tested through the CLI subcommands, the benchmark
workloads and the acceptance checks c01-c10, so the library exports what
those run and no more.  A public module-level function or class of
``src/cauchylab``, and a public method or property of a public class,
passes when its name is read

* in the package outside its own definition (the ``__init__``
  re-exports do not count),
* in ``bench/*.py``,
* as the ``<module>.<function>`` of a ``per_layer`` name in
  ``BENCHMARK.json``, or
* in ``tests/test_acceptance.py``.

A private module-level function, class or constant (one name with a
leading underscore, dunders such as ``__version__`` aside) passes when
its name is read in the package outside its own definition.

An annotated field of a public dataclass passes when its name is read
outside its own declaration: in the package, in ``bench/*.py`` or in
``tests/test_acceptance.py``.  A field that nothing reads cannot change
a result.

Names are collected with ``ast``, so a mention in a docstring or a
comment keeps nothing alive.  A bare name matches any read of it, so an
unrelated attribute of the same name (``np.median``) also counts.
"""

import ast
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cauchylab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def read_names(tree, skip=range(0)):
    """Names and attributes read anywhere in ``tree`` outside the lines ``skip``."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and node.lineno not in skip
    }


def public_definitions():
    """``module, name, lines`` of each public module-level function and class."""
    out = []
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                lines = range(node.lineno, node.end_lineno + 1)
                out.append(pytest.param(path.stem, node.name, lines,
                                        id=f"{path.stem}.{node.name}"))
    return out


def private_definitions():
    """``module, name, lines`` of each private module-level function, class and constant."""
    out = []
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            lines = range(node.lineno, node.end_lineno + 1)
            for name in names:
                dunder = name.startswith("__") and name.endswith("__")
                if name.startswith("_") and not dunder:
                    out.append(pytest.param(path.stem, name, lines, id=f"{path.stem}.{name}"))
    return out


def public_members():
    """``module, name, lines`` of each public method and property of a public class."""
    out = []
    for path in MODULES:
        for cls in ast.parse(path.read_text()).body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    lines = range(node.lineno, node.end_lineno + 1)
                    out.append(pytest.param(path.stem, node.name, lines,
                                            id=f"{path.stem}.{cls.name}.{node.name}"))
    return out


def is_dataclass(cls):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               for d in (d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list))


def dataclass_fields():
    """``module, name, lines`` of each annotated field of a public dataclass."""
    out = []
    for path in MODULES:
        for cls in ast.parse(path.read_text()).body:
            if not (isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
                    and is_dataclass(cls)):
                continue
            for node in cls.body:
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    name = node.target.id
                    lines = range(node.lineno, node.end_lineno + 1)
                    out.append(pytest.param(path.stem, name, lines,
                                            id=f"{path.stem}.{cls.name}.{name}"))
    return out


def outside_users():
    """Names read by the benchmark, its traced names and the acceptance checks."""
    names = set()
    for path in [*ROOT.glob("bench/*.py"), ROOT / "tests" / "test_acceptance.py"]:
        names |= read_names(ast.parse(path.read_text()))
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    traced = {tuple(m["name"].split(".")[:2]) for m in per_layer}
    return names, traced


TREES = {path.stem: ast.parse(path.read_text()) for path in MODULES}
OUTSIDE, TRACED = outside_users()


def read_in_package(module, name, lines):
    return any(name in read_names(tree, lines if stem == module else range(0))
               for stem, tree in TREES.items())


def has_a_user(module, name, lines):
    return read_in_package(module, name, lines) or name in OUTSIDE or (module, name) in TRACED


@pytest.mark.parametrize("module, name, lines", public_definitions())
def test_public_name_has_a_user(module, name, lines):
    assert has_a_user(module, name, lines), (
        f"cauchylab.{module}.{name} is run only by its own unit tests: "
        f"delete it, or give it a caller in the CLI, the benchmark or c01-c10"
    )


@pytest.mark.parametrize("module, name, lines", public_members())
def test_public_member_has_a_user(module, name, lines):
    assert has_a_user(module, name, lines), (
        f"the member {name} of cauchylab.{module} is run only by its own unit tests: "
        f"delete it, or give it a caller in the CLI, the benchmark or c01-c10"
    )


@pytest.mark.parametrize("module, name, lines", private_definitions())
def test_private_name_has_a_reader(module, name, lines):
    assert read_in_package(module, name, lines), (
        f"cauchylab.{module}.{name} is private and nothing in the package reads it: delete it"
    )


@pytest.mark.parametrize("module, name, lines", dataclass_fields())
def test_dataclass_field_is_read(module, name, lines):
    assert read_in_package(module, name, lines) or name in OUTSIDE, (
        f"the field {name} of cauchylab.{module} is never read: delete it, "
        f"or read it in the package, the benchmark or c01-c10"
    )
