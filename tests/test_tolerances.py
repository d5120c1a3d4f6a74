"""Every threshold of the package is an entry of jacobi.tolerances: no
other module spells a tolerance-sized float, and only symspace reads the
condition-number threshold."""

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


def identifiers(path):
    """(identifier, enclosing function) of every name, attribute and
    imported name in the file; code outside a function is in `<module>`."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        name = (node.id if isinstance(node, ast.Name) else
                node.attr if isinstance(node, ast.Attribute) else
                node.name if isinstance(node, ast.alias) else None)
        if name is not None:
            found.append((name, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), "<module>")
    return found


def test_one_invertibility_rule():
    # the condition gate has one home: chart_inverse for every matrix the
    # package inverts or gates, velocity_form's spectrum for an
    # uncertified S'
    sites = {"COND_MAX": set(), "cond": set(), "eigvalsh": set()}
    for path in sorted(PACKAGE.glob("*.py")):
        for name, scope in identifiers(path):
            if name in sites:
                sites[name].add(path.stem if name == "COND_MAX" else
                                (path.stem, scope))
    assert sites == {"COND_MAX": {"symspace", "tolerances"},
                     "cond": {("symspace", "chart_inverse")},
                     "eigvalsh": {("symspace", "velocity_form")}}


def test_one_read_off_rule_and_one_conformal_factor():
    # a chart point is read off its basis [A; B] as B A^(-1) through the
    # inverse that judges A (symspace.chart_point), so solve is left to
    # the linear systems that are not read-offs; the conformal factor of a
    # map is a trace in conformal_symplectic alone
    sites = {"solve": set(), "trace": set()}
    for path in sorted(PACKAGE.glob("*.py")):
        for name, scope in identifiers(path):
            if name in sites:
                sites[name].add((path.stem, scope))
    assert sites == {"solve": {("curvature", "matrix_schwarzian"),
                               ("frames", "reduced_invariants"),
                               ("reconstruct", "integrate_frame")},
                     "trace": {("curvature", "ricci"),
                               ("geom", "centered_schwarzian_det"),
                               ("symspace", "conformal_symplectic")}}
