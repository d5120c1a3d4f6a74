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
    # uncertified S'; no SVD is called by name (mobius_fit reads a Moebius
    # map off three samples)
    sites = {"COND_MAX": set(), "cond": set(), "eigvalsh": set(),
             "svd": set()}
    for path in sorted(PACKAGE.glob("*.py")):
        for name, scope in identifiers(path):
            if name in sites:
                sites[name].add(path.stem if name == "COND_MAX" else
                                (path.stem, scope))
    assert sites == {"COND_MAX": {"symspace", "tolerances"},
                     "cond": {("symspace", "chart_inverse")},
                     "eigvalsh": {("symspace", "velocity_form")},
                     "svd": set()}


def test_one_read_off_rule_and_one_conformal_factor():
    # a chart point is read off its basis [A; B] as B A^(-1) through the
    # inverse that judges A (symspace.chart_point), so solve is left to
    # the linear systems that are not read-offs (the Schwarzian and the
    # Cayley steps), inv to the rule that judges a matrix, and eigh to the
    # one generalized eigensolve, whose M^(-1) is a product; the conformal
    # factor of a map is a trace in conformal_symplectic alone
    sites = {"solve": set(), "trace": set(), "inv": set(), "eigh": set()}
    for path in sorted(PACKAGE.glob("*.py")):
        for name, scope in identifiers(path):
            if name in sites:
                sites[name].add((path.stem, scope))
    assert sites == {"solve": {("curvature", "matrix_schwarzian"),
                               ("reconstruct", "integrate_frame")},
                     "trace": {("curvature", "ricci"),
                               ("geom", "centered_schwarzian_det"),
                               ("symspace", "conformal_symplectic")},
                     "inv": {("symspace", "chart_inverse")},
                     "eigh": {("symspace", "definite_eigh")}}


def test_one_inflection_point_raiser():
    # only the derivative curve's chart point S - 2 S' corr^(-1) S' leaves
    # the chart where corr is singular; the moving frame is a product in
    # corr and takes no verdict on it
    sites = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if any(isinstance(node, ast.ClassDef)
               and node.name == "InflectionPoint"
               for node in ast.walk(ast.parse(path.read_text()))):
            sites.add((path.stem, "<class>"))
        sites |= {(path.stem, scope) for name, scope in identifiers(path)
                  if name == "InflectionPoint"}
    assert sites == {("errors", "<class>"), ("curvature", "<module>"),
                     ("curvature", "derivative_curve")}


def transposed(node):
    """x of a transpose x.T, x.swapaxes(...) or x.transpose(...), else
    None."""
    if isinstance(node, ast.Attribute) and node.attr == "T":
        return node.value
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("swapaxes", "transpose")):
        return node.func.value
    return None


def factors(node):
    """The factors of a product (divisors included), or [node]."""
    if isinstance(node, ast.BinOp) and isinstance(node.op,
                                                  (ast.Mult, ast.Div)):
        return factors(node.left) + factors(node.right)
    return [node]


def is_constant(node):
    if isinstance(node, ast.UnaryOp):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) in (int, float)


def sum_first_means(source):
    """Line of each constant times the sum of an expression and its
    transpose, such as 0.5 * (x + x.T) or 0.5 * s * (x + x.swapaxes(-1,
    -2)): a mean spelled by hand."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        parts = factors(node)
        if len(parts) < 2 or not any(map(is_constant, parts)):
            continue
        for part in parts:
            if isinstance(part, ast.BinOp) and isinstance(part.op, ast.Add):
                for x, y in ((part.left, part.right), (part.right, part.left)):
                    base = transposed(y)
                    if base is not None and ast.dump(base) == ast.dump(x):
                        lines.add(part.lineno)
    return sorted(lines)


def test_one_mean_rule():
    # every average of a matrix with its transpose is symspace.symmetrize,
    # which halves first, so the mean of two finite entries is finite
    hits = [(path.name, line) for path in sorted(PACKAGE.glob("*.py"))
            for line in sum_first_means(path.read_text())]
    assert hits == []
    # the matcher finds the hand-written forms, and passes a sum that is
    # not a mean (S'' = X + X^T) and the halved-first rule itself
    assert sum_first_means("\n".join([
        "0.5 * (x + x.T)",
        "0.5 * s * (c + c.swapaxes(-1, -2))",
        "(a.transpose(0, 2, 1) + a) / 2",
        "x + x.swapaxes(-1, -2)",
        "0.5 * s + 0.5 * s.swapaxes(-1, -2)",
        "0.5 * (2 * u + u.T)"])) == [1, 2, 3]
