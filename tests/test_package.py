"""Package surface: every exported name exists, and README's example runs."""

import ast
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import betabound
from betabound.proof import SweepResult
from betabound.signs import RootDigits

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_names_resolve():
    missing = [name for name in betabound.__all__ if not hasattr(betabound, name)]
    assert missing == []
    assert len(set(betabound.__all__)) == len(betabound.__all__)


def library_example() -> str:
    """The python block under README's "Library example" heading."""
    section = README.read_text().split("## Library example", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_runs():
    # run the block statement by statement and keep each bare expression's
    # value, so that the values its comments state can be checked
    namespace, shown = {}, []
    for stmt in ast.parse(library_example()).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), str(README), "eval")
            shown.append(eval(code, namespace))
        else:
            exec(compile(ast.Module([stmt], []), str(README), "exec"), namespace)
    margin, log_margin, positive, enclosure = shown
    assert abs(3 * margin - 1) < 1e-45                    # exactly 1/3
    assert f"{float(log_margin):.1e}" == "5.4e-08"
    assert positive is True
    assert F("0.03733") <= enclosure.lo < enclosure.hi < F("0.03734")


# Under -S no site hook preloads anything, so whatever is in sys.modules after
# the import, the package loaded. hashlib loads OpenSSL, dataclasses loads
# inspect, importlib.resources is heavier than the one file it would read, and
# mpmath is imported by the mpf functions alone, when they first run.
COLD_IMPORT = """
import site, sys
sys.path[:0] = [{src!r}, *site.getsitepackages()]
import betabound, betabound.cli
unused = ["hashlib", "_hashlib", "dataclasses", "inspect", "importlib.resources",
          "mpmath"]
print(" ".join(name for name in unused if name in sys.modules))
"""
SRC = str(Path(betabound.__file__).resolve().parents[1])


def test_cold_import_loads_no_unused_stdlib_package():
    run = subprocess.run([sys.executable, "-S", "-c", COLD_IMPORT.format(src=SRC)],
                         capture_output=True, text=True, check=True)
    assert run.stdout.split() == []


# replay, sweep and roots read integer enclosures and exact algebra, and print
# on integers: after the import and after each command, mpmath is not loaded
WITHOUT_MPMATH = """
import io, site, sys
sys.path[:0] = [{src!r}, *site.getsitepackages()]
import betabound, betabound.cli, betabound.quadrature
loaded = ["mpmath" in sys.modules]
for argv in {argvs!r}:
    assert betabound.cli.main(argv, environ={{}}, stdout=io.StringIO()) == 0
    loaded.append("mpmath" in sys.modules)
print(loaded)
"""


def test_replay_sweep_and_roots_never_load_mpmath(tmp_path):
    argvs = [
        ["replay", "--precision", "30", "--out", str(tmp_path / "r30.json")],
        ["replay", "--precision", "50", "--out", str(tmp_path / "r50.json")],
        ["sweep", "--grid", "5", "--out", str(tmp_path / "s5.csv")],
        ["sweep", "--grid", "150", "--out", str(tmp_path / "s150.csv")],
        ["roots"],
    ]
    code = WITHOUT_MPMATH.format(src=SRC, argvs=argvs)
    run = subprocess.run([sys.executable, "-S", "-c", code],
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip() == str([False] * (len(argvs) + 1))


RECORDS = [betabound.Catalogue, betabound.NamedConstants, betabound.Enclosure,
           RootDigits, betabound.ProofStep, betabound.ProofReport, SweepResult]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
def test_records_are_immutable_and_replace_gives_a_new_one(record):
    first = record._fields[0]
    old = record._make(range(len(record._fields)))
    with pytest.raises(AttributeError):
        setattr(old, first, -1)
    new = old._replace(**{first: -1})
    assert type(new) is record and getattr(new, first) == -1
    assert getattr(old, first) == 0 and new[1:] == old[1:]


PACKAGE = Path(betabound.__file__).resolve().parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def private_reads(path: Path) -> list[str]:
    """"line: module._name" for each private name of another betabound module
    that the module at `path` imports or reads as an attribute."""
    tree, own = ast.parse(path.read_text()), path.stem
    package = {"betabound"}   # local names bound to the package itself
    aliases = {}   # local name -> the betabound module it is bound to
    found = []

    def module_of(node):
        if isinstance(node, ast.Name):
            return aliases.get(node.id)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            return node.attr if node.value.id in package and node.attr in MODULES else None
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] != "betabound" or not alias.asname:
                    continue   # "import betabound.x" binds the package's own name
                if len(parts) == 2:
                    aliases[alias.asname] = parts[1]
                else:
                    package.add(alias.asname)
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            inside = node.level > 0 or parts[0] == "betabound"
            target = parts[-1] if parts[-1] in MODULES else None
            if inside and target is None:   # from . import specials
                aliases.update({a.asname or a.name: a.name for a in node.names
                                if a.name in MODULES})
            elif inside and target != own:
                found += [f"{node.lineno}: {target}.{a.name}" for a in node.names
                          if a.name.startswith("_")]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            target = module_of(node.value)
            if target not in (None, own) and not node.attr.endswith("__"):
                found.append(f"{node.lineno}: {target}.{node.attr}")
    return sorted(found)


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_module_reads_another_modules_private_names(name):
    assert private_reads(PACKAGE / f"{name}.py") == []


def test_private_reads_sees_each_form(tmp_path):
    source = ("from .specials import _bits, exact\n"
              "from betabound.quadrature import _times\n"
              "from . import specials as sp, polys\n"
              "import betabound.signs as sg\n"
              "import betabound\n"
              "sp._stirling(1, 2, 0, 64), polys.Poly, sg._x, betabound.specials._ln\n"
              "sp.__name__\n")
    (tmp_path / "own.py").write_text(source)
    assert private_reads(tmp_path / "own.py") == [
        "1: specials._bits", "2: quadrature._times", "6: signs._x", "6: specials._ln",
        "6: specials._stirling"]


def door_names(path: Path) -> list[str]:
    """"line: name" for each ``localcontext`` that the module at `path` imports or
    names, and each ``context`` that it imports from or reads off ``specials``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            if "localcontext" in names:
                found.append(f"{node.lineno}: localcontext")
            if (node.module or "").split(".")[-1] == "specials" and "context" in names:
                found.append(f"{node.lineno}: context")
        elif "localcontext" in (getattr(node, "id", None), getattr(node, "attr", None)):
            found.append(f"{node.lineno}: localcontext")
        elif (isinstance(node, ast.Attribute) and node.attr == "context"
              and ast.unparse(node.value).split(".")[-1] == "specials"):
            found.append(f"{node.lineno}: context")
    return sorted(found)


@pytest.mark.parametrize("name", sorted(MODULES - {"specials"}))
def test_only_specials_opens_a_decimal_or_an_mpf_context(name):
    # every library mpf comes through specials.evaluate, which alone opens a
    # decimal context; cli imports context for its --x reader alone
    names = [found.split(": ")[1] for found in door_names(PACKAGE / f"{name}.py")]
    assert names == (["context"] if name == "cli" else [])


def test_door_names_sees_each_form(tmp_path):
    source = ("import decimal\n"
              "from decimal import localcontext\n"
              "from .specials import context, evaluate\n"
              "from betabound import specials\n"
              "decimal.localcontext(), specials.context(30), value.context, localcontext\n")
    (tmp_path / "own.py").write_text(source)
    assert door_names(tmp_path / "own.py") == [
        "2: localcontext", "3: context", "5: context", "5: localcontext", "5: localcontext"]
