"""Every threshold of the package is an entry of jacobi.tolerances: no
other module spells a tolerance-sized float."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "jacobi"


def tolerance_literals(path):
    """Float literals x with 0 < |x| < 1e-3 or |x| > 1e6 in the file."""
    return [(path.name, node.lineno, node.value)
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Constant) and type(node.value) is float
            and (0 < abs(node.value) < 1e-3 or abs(node.value) > 1e6)]


def test_thresholds_live_in_the_table():
    hits = [hit for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "tolerances.py"
            for hit in tolerance_literals(path)]
    assert hits == []


def test_the_guard_sees_the_table():
    # the matcher finds each tolerance-sized entry of the table
    from jacobi import tolerances

    entries = [v for k, v in vars(tolerances).items()
               if k.isupper() and (0 < abs(v) < 1e-3 or abs(v) > 1e6)]
    found = [v for *_, v in tolerance_literals(PACKAGE / "tolerances.py")]
    assert sorted(found) == sorted(entries) and len(entries) > 10
