"""Package surface: every exported name exists, and README's example runs."""

import ast
from fractions import Fraction as F
from pathlib import Path

import betabound

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
