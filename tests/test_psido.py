"""Operator calculus: roots and fractional powers off the power table,
checked against the reference composition calculus of the oracle; and the
AST rules that keep test references out of the engine."""

import ast
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest

import gdtau
from gdtau import DiffPoly, LaxOperator, ParamPoly, PsiDO, frac_power, rth_root
from gdtau.errors import InsufficientDepth
from oracle import (add, coeff, commutator, compose, evaluate, grading, lax_operator, minus_part,
                    plus_part, residue)

SRC = Path(__file__).resolve().parents[1] / "src"


def v(a, k=0):
    return DiffPoly.jet(a, k)


def mult(p):
    return PsiDO({0: p})


def D(e=1):
    return PsiDO({e: 1})


def trimmed(A, floor):
    """A restricted to powers >= floor, which A must know."""
    assert A.floor is None or A.floor <= floor
    return PsiDO(A.coeffs, floor)


# -- composition ---------------------------------------------------------------


def test_first_order_leibniz():
    out = compose(D(), mult(v(1)))
    assert coeff(out, 1) == v(1)
    assert coeff(out, 0) == v(1, 1)
    assert out.floor is None  # finite expansion stays exact


def test_negative_power_series():
    out = compose(D(-1), mult(v(1)), floor=-4)
    assert coeff(out, -1) == v(1)
    assert coeff(out, -2) == -v(1, 1)
    assert coeff(out, -3) == v(1, 2)
    assert coeff(out, -4) == -v(1, 3)
    with pytest.raises(InsufficientDepth):
        coeff(out, -5)


def test_infinite_tail_needs_a_floor():
    with pytest.raises(InsufficientDepth):
        compose(D(-1), mult(v(1)))


def test_composition_window_rule():
    A = compose(D(-1), mult(v(1)), floor=-3)
    # composing with a top-1 operator cannot be guaranteed deeper than -4
    with pytest.raises(InsufficientDepth):
        compose(A, D(1), floor=-5)
    ok = compose(A, D(1), floor=-2)
    assert ok.floor == -2


def test_root_squares_back_to_the_operator():
    L = LaxOperator(2)
    R = rth_root(L, -7)
    sq = compose(R, R, -6)
    for e in range(-6, 3):
        assert coeff(sq, e) == coeff(lax_operator(2), e), f"power {e}"


def test_square_root_leading_coefficient():
    # matching at D^0 forces u1 = v1/2
    assert coeff(rth_root(LaxOperator(2), -1), -1) == v(1) * Fraction(1, 2)


def test_cube_root_leading_coefficient():
    assert coeff(rth_root(LaxOperator(3), -1), -1) == v(1) * Fraction(1, 3)


def test_root_of_bare_power_is_d():
    # with every variable sent to zero only the D term survives
    R = rth_root(LaxOperator(3), -4)
    zero = lambda a, k: ParamPoly.zero("d")
    for e, c in R.coeffs.items():
        val = evaluate(c, zero)
        assert val.is_zero() if e != 1 else val == 1


def test_root_depth_guard():
    with pytest.raises(InsufficientDepth):
        rth_root(LaxOperator(2), 0)
    L = LaxOperator(3)
    with pytest.raises(InsufficientDepth):
        frac_power(L, 1, 0)
    # R^i at floor f reads the root down to f - i + 1, which must be <= -1
    for i in (2, 4, 5):
        assert frac_power(L, i, i - 2).floor == i - 2
        with pytest.raises(InsufficientDepth):
            frac_power(L, i, i - 1)


def test_power_index_must_be_positive():
    L = LaxOperator(3)
    for k, floor in ((-1, -5), (0, -2)):
        with pytest.raises(ValueError, match="the power index must be >= 1"):
            frac_power(L, k, floor)
    with pytest.raises(ValueError, match="the power index must be >= 1"):
        frac_power(L, 0, -1)


def test_flow_index_must_be_positive():
    # refused by the one index rule, not a KeyError from the power table
    L = LaxOperator(3)
    for i in (0, -2):
        with pytest.raises(ValueError, match="bad index"):
            L.flow(i)


# -- fractional powers -----------------------------------------------------------


def test_integer_power_is_differential():
    L = LaxOperator(3)
    P = frac_power(L, 3)
    assert P.floor is None
    assert P == lax_operator(3)
    P6 = frac_power(L, 6)
    assert min(P6.coeffs) >= 0
    assert residue(P6).is_zero()
    # rows 0..kr of R^(kr), read off the table, are L^k composed; the rows
    # below them vanish
    for r in (2, 3, 4, 5):
        L = LaxOperator(r)
        for k in (1, 2, 3):
            i = k * r
            assert frac_power(L, i, -5) == reduce(compose, [lax_operator(r)] * k), (r, k)
            L._fill(i, i + 3)
            assert all(row.is_zero() for row in L._rows[i][i + 1:i + 4]), (r, k)


def test_fractional_power_needs_floor():
    with pytest.raises(InsufficientDepth):
        frac_power(LaxOperator(2), 3)
    for i in (1, 2, 4, 5, 7):
        with pytest.raises(InsufficientDepth):
            frac_power(LaxOperator(3), i)


def test_three_halves_power_plus_part():
    P = plus_part(frac_power(LaxOperator(2), 3, -1))
    assert {e: str(c) for e, c in P.coeffs.items()} == {3: "1", 1: "3/2*v1", 0: "3/4*v1_1"}


def test_two_thirds_power_residue():
    got = residue(frac_power(LaxOperator(3), 2, -1))
    want = (v(2) * 2 - v(1, 1)) * Fraction(1, 3)
    assert got == want
    assert str(got) == "2/3*v2 - 1/3*v1_1"


def test_residue_of_half_power():
    assert residue(frac_power(LaxOperator(2), 1, -1)) == v(1) * Fraction(1, 2)


def test_power_coefficients_are_homogeneous():
    # the coefficient at D^-k of the (i/r) power weighs i - (-k) ... i.e.
    # residue-after-shift weighs i - k
    L = LaxOperator(3)
    for i in (1, 2, 4, 5):
        P = frac_power(L, i, -6)
        for e, c in P.coeffs.items():
            assert grading(c) == i - e


def test_residue_degree_after_shift():
    # res(P D^-k) picks the D^(k-1) coefficient of P, so it weighs i-k+1
    L = LaxOperator(3)
    for i, k in ((2, 1), (4, 2), (5, 3)):
        shifted = compose(frac_power(L, i, -2 - k), D(-k), floor=-1 - k)
        assert grading(residue(shifted)) == i - k + 1


# -- the power table against plain composition -------------------------------------


# Each case checks R^i for every i < 2r not divisible by r: at every floor
# from -1 down to `deepest` for i < r, and down to `deepest_lifted` for i > r.
# The oracle builds R^m, m < r, as R R ... R by compose from rth_root, and
# R^(r+m) as L R^m, an identity the table (which fills R^k, k > r, from
# R^(k-r) L) never uses; it also checks that R^m commutes with L, the fact
# the table does use.  At r = 6 the rows for i > r stop at floor -2: for
# floor -6 there the table alone needs 4-6 s on a 2-vCPU host (Python 3.11),
# and the oracle about 16 s more (the root down to floor -16, R^2..R^5).
@pytest.mark.parametrize("r, deepest, deepest_lifted", [
    (2, -6, -6), (3, -6, -6), (4, -6, -6), (5, -6, -6), (6, -6, -2),
])
def test_power_table_matches_repeated_composition(r, deepest, deepest_lifted):
    # R^m must hold down to `low`; by the window rule R R ... R (m factors) at
    # floor low needs the root down to low - m + 1
    low = min(deepest, deepest_lifted - r)
    root_floor = low - r + 2
    R = rth_root(LaxOperator(r), root_floor)
    chain = {1: R}
    for m in range(2, r):
        chain[m] = compose(chain[m - 1], R, root_floor + m - 1)
    L = LaxOperator(r)
    for m in range(1, r):
        lifted = compose(lax_operator(r), chain[m], deepest_lifted)
        assert compose(chain[m], lax_operator(r), deepest_lifted) == lifted, m
        for floor in range(-1, deepest - 1, -1):
            assert frac_power(L, m, floor) == trimmed(chain[m], floor), (m, floor)
        for floor in range(-1, deepest_lifted - 1, -1):
            assert frac_power(L, r + m, floor) == trimmed(lifted, floor), (r + m, floor)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_request_order_does_not_matter(r):
    # (i, floor) requests; i = 1 asks for the root itself
    requests = [(1, -9), (1, -3), (r - 1, -4), (r + 1, -2), (2 * r + 1, -3), (2 * r + 1, -1)]

    def ask(L, i, floor):
        return rth_root(L, floor) if i == 1 else frac_power(L, i, floor)

    deep, shallow = LaxOperator(r), LaxOperator(r)
    deep_first = {(i, f): ask(deep, i, f) for i, f in requests}
    shallow_first = {(i, f): ask(shallow, i, f) for i, f in reversed(requests)}
    assert deep_first == shallow_first
    assert rth_root(deep, -3) == rth_root(shallow, -3)


# -- parts, residue, commutator ----------------------------------------------------


def test_plus_minus_split():
    A = add(compose(D(-1), mult(v(1)), floor=-3), D(2))
    assert plus_part(A).coeffs == {2: DiffPoly.const(1)}
    assert minus_part(A).floor == -3
    total = add(plus_part(A), minus_part(A))
    assert total.coeffs == A.coeffs


def test_minus_part_of_differential_operator_is_zero():
    assert not minus_part(lax_operator(4)).coeffs


def test_residue_below_floor_raises():
    A = PsiDO({0: 1}, floor=0)
    with pytest.raises(InsufficientDepth):
        residue(A)


def test_commutator_d_with_function():
    assert commutator(D(), mult(v(1))).coeffs == {0: v(1, 1)}


def test_commutator_with_itself_vanishes():
    L = lax_operator(2)
    assert not commutator(L, L).coeffs


def test_kdv_flow_commutator():
    L = LaxOperator(2)
    P = plus_part(frac_power(L, 3, -1))
    C = commutator(P, lax_operator(2))
    want = v(1, 3) * Fraction(1, 4) + v(1) * v(1, 1) * Fraction(3, 2)
    assert C.coeffs == {0: want}


def test_flow_commutator_stays_differential():
    # [ (L^{i/r})_+, L ] must live between D^0 and D^(r-2)
    for r, i in ((2, 5), (3, 4), (4, 3)):
        L = LaxOperator(r)
        C = commutator(plus_part(frac_power(L, i, -1)), lax_operator(r))
        assert max(C.coeffs) <= r - 2
        assert min(C.coeffs) >= 0


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_flows_and_residues_match_the_composed_commutator(r):
    # LaxOperator.flow expands [(R^i)_+, L] term by term on the table's rows;
    # the reference composes the whole operators on a second table.  Its
    # component X_a^i is the coefficient at D^(r-1-a), and nothing survives
    # above D^(r-2)
    L, ref = LaxOperator(r), LaxOperator(r)
    for i in range(1, 2 * r):
        if i % r == 0:
            continue
        R = frac_power(ref, i, -1)
        C = commutator(plus_part(R), lax_operator(r))
        assert max(C.coeffs) <= r - 2 and min(C.coeffs) >= 0, i
        assert L.flow(i) == {a: coeff(C, r - 1 - a) for a in range(1, r)}, i
        assert L.residue(i) == residue(R), i


# -- bookkeeping -----------------------------------------------------------------


def test_lax_operator_layout():
    L = lax_operator(4)
    assert coeff(L, 4) == 1
    assert coeff(L, 3).is_zero()
    assert coeff(L, 2) == v(1)
    assert coeff(L, 1) == v(2)
    assert coeff(L, 0) == v(3)
    with pytest.raises(ValueError):
        LaxOperator(1)


# -- the commands' routes -----------------------------------------------------------


def test_commands_never_reach_the_operator_calculus():
    # in a fresh interpreter (no table or constant memoised yet), with every
    # whole-operator builder, PsiDO itself and the DiffPoly.terms view
    # refusing to run, one command of each family still succeeds: the density
    # route (connected and disconnected), the c tables, the sigma alphabet,
    # the constraint checks, the constants and the stabilized values read
    # flows and residues off the power tables alone, and the kernels read the
    # packed fields.  Neither table holds an operator or builds one
    code = """if True:
        import contextlib, io, sys
        sys.path.insert(0, sys.argv[1])
        from gdtau import LaxOperator, algebra, psido

        def refuse(*args, **kwargs):
            raise AssertionError("the operator calculus was reached")

        patches = [(psido, "frac_power", refuse), (psido, "rth_root", refuse),
                   (psido.PsiDO, "__init__", refuse),
                   (algebra.DiffPoly, "terms", property(refuse))]
        for owner, name, patch in patches:
            assert name in vars(owner), name  # a stale name would be added silently
            setattr(owner, name, patch)
        for bite in (lambda: psido.rth_root(LaxOperator(2), -1),
                     lambda: psido.PsiDO({1: 1}),
                     lambda: algebra.DiffPoly.jet(1).terms):
            try:
                bite()
            except AssertionError:
                pass
            else:
                raise SystemExit("the patch does not bite")

        from gdtau import (c_from_d, connected_correlators_pde, stabilized_correlators,
                           verify_constraints)
        from gdtau.cli import main
        from gdtau.hierarchy import hierarchy, initial_values
        connected_correlators_pde(4, 10)
        c_from_d(6)
        stabilized_correlators((2, 3))
        assert verify_constraints(4, 8).ok
        commands = ["correlators --r 4 --weight 10 --alphabet d",
                    "correlators --r 3 --weight 8 --alphabet d --disconnected",
                    "correlators --r 3 --weight 10 --disconnected",
                    "correlators --r 4 --weight 10",
                    "correlators --r 3 --weight 8 --alphabet sigma",
                    "verify --r 4 --weight 8",
                    "constants --r 6",
                    "stabilized --indices 2,2,3"]
        with contextlib.redirect_stdout(io.StringIO()):
            codes = {command: main(command.split()) for command in commands}
        assert codes == dict.fromkeys(commands, 0), codes
        for table in (hierarchy(4), initial_values(4)):
            assert not hasattr(table, "op") and not hasattr(table, "power")
        print("ok")
    """
    out = subprocess.run([sys.executable, "-c", code, str(SRC)],
                         capture_output=True, text=True, timeout=300)
    assert (out.returncode, out.stdout.strip()) == (0, "ok"), out.stderr


def test_only_the_package_root_imports_the_calculus():
    # the power table and the index rule live beside the two rings that
    # subclass the table, so no engine module but the package root (which
    # exports PsiDO and the powers) imports psido, and psido defines none of
    # them
    def top_level(path):
        return ast.parse((SRC / "gdtau" / path).read_text(), filename=path)

    def imported(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                yield from (alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                yield node.module or ""
                yield from (alias.name for alias in node.names)

    def defined(tree):
        return {node.name for node in tree.body
                if isinstance(node, (ast.ClassDef, ast.FunctionDef))}

    modules = sorted(path.name for path in (SRC / "gdtau").glob("*.py"))
    assert "psido.py" in modules
    importers = [path for path in modules
                 if any("psido" in name.split(".") for name in imported(top_level(path)))]
    assert importers == ["__init__.py"]
    table = {"LaxOperator", "_row_plan", "check_index"}
    assert table <= defined(top_level("hierarchy.py"))
    assert not table & defined(top_level("psido.py"))


def test_the_composition_calculus_lives_in_the_oracle():
    # psido reads every power off the power table and composes nothing; the
    # composition calculus, the antiderivative and Omega are test references,
    # so no engine module defines or exports them
    tree = ast.parse((SRC / "gdtau" / "psido.py").read_text())
    assert {node.name for node in tree.body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef))} == {"PsiDO", "rth_root",
                                                                    "frac_power"}
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not names & {"compose", "commutator", "reduce"}
    moved = ("compose", "commutator", "plus_part", "minus_part", "residue", "lax_operator",
             "integrate_x", "NotExact", "omega", "grading", "degrees", "NotHomogeneous",
             "apply_S", "coeff", "add", "sub", "evaluate")
    engine = [gdtau, gdtau.algebra, gdtau.errors, gdtau.hierarchy, gdtau.psido,
              gdtau.wconstraints]
    assert [(module.__name__, name) for module in engine for name in moved
            if hasattr(module, name)] == []
    assert not hasattr(gdtau.Hierarchy, "omega")
    assert not hasattr(DiffPoly, "evaluate") and not hasattr(ParamPoly, "degrees")


def test_every_engine_name_has_a_reader():
    # a module-level function or class of the engine is referenced (a Name,
    # an Attribute or an ImportFrom) by another engine module than the
    # package root, by perfbench or by the scripts: none exists only for
    # the tests.  Method names (zero, d, trim, dump) collide across
    # classes, so PsiDO's own list is pinned: the container and equality
    root = SRC.parent
    readers = [path for path in (SRC / "gdtau").glob("*.py") if path.name != "__init__.py"]
    readers += sorted((root / "perfbench").rglob("*.py")) + sorted((root / "scripts").rglob("*.py"))
    assert len(readers) > 8
    referenced = set()
    for path in readers:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced |= {alias.name for alias in node.names}
    unread, defined = [], 0
    for path in sorted((SRC / "gdtau").glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                defined += 1
                if node.name not in referenced:
                    unread.append(f"{path.name}:{node.name}")
    assert defined > 50 and unread == []
    tree = ast.parse((SRC / "gdtau" / "psido.py").read_text())
    (psido_cls,) = [node for node in tree.body
                    if isinstance(node, ast.ClassDef) and node.name == "PsiDO"]
    assert [node.name for node in psido_cls.body
            if isinstance(node, ast.FunctionDef)] == ["__init__", "__eq__"]
