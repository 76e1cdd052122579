"""Acceptance gate: one test per shipped guarantee, in order.

Run with `pytest tests/test_acceptance.py -s` to see one PASS line per
criterion.  Budgets are wall-clock seconds and deliberately generous; the
exact engine finishes each item orders of magnitude faster.
"""

import random
import time
from fractions import Fraction

from gdtau import (DiffPoly, LaxOperator, ParamPoly, compose, diff_x, grading, integrate_x,
                   lax_operator, rth_root)
from gdtau.bgw import (
    connected_correlators_pde,
    series_from_correlators,
    string_residual,
    tau_exp,
)
from gdtau.hierarchy import omega
from gdtau.wconstraints import (
    constants,
    rho_in_d,
    solve_sigma_from_c,
    stabilized_correlators,
    table_in_c,
    verify_constraints,
)


def C(i):
    return ParamPoly.var("c", i)


def _assert_table_values(r, expected, kind):
    for path in ("pde", "recursion"):
        table = table_in_c(r, 4, path, kind)
        for I, value in expected.items():
            assert table.value(I) == value, (r, path, kind, I)


def test_criterion_01_order_two_tables():
    start = time.perf_counter()
    c1 = C(1)
    disconnected = {
        (1,): c1,
        (1, 1): c1 * (c1 + 1),
        (3,): c1 * (c1 + 1) / 2,
        (1, 1, 1): c1 * (c1 + 1) * (c1 + 2),
    }
    connected = {
        (1,): c1,
        (1, 1): c1,
        (3,): c1 * (c1 + 1) / 2,
        (1, 1, 1): c1 * 2,
        (1, 3): c1 * (c1 + 1) * Fraction(3, 2),
    }
    _assert_table_values(2, disconnected, "disconnected")
    _assert_table_values(2, connected, "connected")
    assert time.perf_counter() - start < 5
    print("CRITERION 1 PASS")


def test_criterion_02_order_three_tables():
    start = time.perf_counter()
    c1, c2 = C(1), C(2)
    disconnected = {
        (1,): c1,
        (2,): c2,
        (1, 1): c1 * (c1 + 1),
        (1, 2): c2 * (c1 + 2),
        (1, 1, 1): c1 * (c1 + 1) * (c1 + 2),
        (4,): c2 * (c1 + 2),
        (2, 2): c2 * c2 - c1 * (c1 + 1) * 2,
        (1, 1, 2): c2 * (c1 + 2) * (c1 + 3),
        (1, 1, 1, 1): c1 * (c1 + 1) * (c1 + 2) * (c1 + 3),
    }
    connected = {
        (1,): c1,
        (2,): c2,
        (1, 1): c1,
        (1, 2): c2 * 2,
        (1, 1, 1): c1 * 2,
        (4,): c2 * (c1 + 2),
        (2, 2): c1 * (c1 + 1) * -2,
        (1, 1, 2): c2 * 6,
        (1, 1, 1, 1): c1 * 6,
    }
    _assert_table_values(3, disconnected, "disconnected")
    _assert_table_values(3, connected, "connected")
    assert time.perf_counter() - start < 30
    print("CRITERION 2 PASS")


def test_criterion_03_order_four_tables():
    start = time.perf_counter()
    c1, c2, c3 = C(1), C(2), C(3)
    disconnected = {
        (1,): c1,
        (2,): c2,
        (1, 1): c1 * (c1 + 1),
        (3,): c3,
        (1, 2): c2 * (c1 + 2),
        (1, 1, 1): c1 * (c1 + 1) * (c1 + 2),
        (1, 3): c3 * (c1 + 3),
        (2, 2): c3 * 4 + c2 * c2 - c1 * (c1 + 1) * 2,
        (1, 1, 2): c2 * (c1 + 2) * (c1 + 3),
        (1, 1, 1, 1): c1 * (c1 + 1) * (c1 + 2) * (c1 + 3),
    }
    connected = {
        (1,): c1,
        (2,): c2,
        (1, 1): c1,
        (3,): c3,
        (1, 2): c2 * 2,
        (1, 1, 1): c1 * 2,
        (1, 3): c3 * 3,
        (2, 2): c3 * 4 - c1 * (c1 + 1) * 2,
        (1, 1, 2): c2 * 6,
        (1, 1, 1, 1): c1 * 6,
    }
    _assert_table_values(4, disconnected, "disconnected")
    _assert_table_values(4, connected, "connected")
    assert time.perf_counter() - start < 120
    print("CRITERION 3 PASS")


def test_criterion_04_constant_dictionaries():
    c1, c2, c3 = C(1), C(2), C(3)
    for r in (2, 3, 4):
        assert solve_sigma_from_c(r)[1] == c1
        assert constants(r).d_c[1] == c1 * r
    three = constants(3)
    assert three.d_c[2] == c2 * Fraction(3, 2) + c1 * 3
    four = constants(4)
    sigma = solve_sigma_from_c(4)
    assert sigma[2] == c2 + c1 * 2
    assert sigma[3] == c3 + c2 * Fraction(9, 2) - c1 * c1 * Fraction(3, 2) + c1 * Fraction(9, 2)
    assert four.d_c[3] == c3 * Fraction(4, 3) + c2 * 3 + c1 * c1 * 2 + c1 * 10
    print("CRITERION 4 PASS")


def test_criterion_05_constraint_sweep():
    start = time.perf_counter()
    for r, cap in ((2, 10), (3, 10), (4, 8)):
        report = verify_constraints(r, cap, qextra=2)
        assert report.ok, report.text()
        assert all(line.endswith("PASS") for line in report.lines)
    assert time.perf_counter() - start < 600
    print("CRITERION 5 PASS")


def test_criterion_06_eigenvalue_shape():
    # past the leading jet, each eigenvalue only involves strictly lower jets
    for r in (4, 5):
        rho = rho_in_d(r)
        for alpha in range(1, r):
            rest = rho[alpha] - ParamPoly.var("d", alpha) * Fraction(1, r)
            assert rest.is_zero() or rest.max_index() < alpha, (r, alpha)
    print("CRITERION 6 PASS")


def test_criterion_07_routes_agree():
    for r in (2, 3, 4, 5, 6):
        for kind in ("connected", "disconnected"):
            a = table_in_c(r, 10, "pde", kind)
            b = table_in_c(r, 10, "recursion", kind)
            assert set(a.values) == set(b.values)
            for I in a.values:
                assert a.value(I) == b.value(I), (r, kind, I)
    print("CRITERION 7 PASS")


def test_criterion_08_string_annihilation():
    for r, cap in ((2, 10), (3, 10), (4, 8)):
        conn = connected_correlators_pde(r, cap + 1)
        tau = tau_exp(series_from_correlators(conn))
        residual = string_residual(tau, r)
        assert residual.cap == cap
        assert residual.is_zero(), (r, residual.first_nonzero())
    print("CRITERION 8 PASS")


def test_criterion_09_stabilized_values():
    c1, c2, c3, c4 = C(1), C(2), C(3), C(4)
    expected = {
        (1,): c1,
        (2,): c2,
        (1, 1): c1,
        (3,): c3,
        (1, 2): c2 * 2,
        (1, 1, 1): c1 * 2,
        (4,): c4,
        (1, 3): c3 * 3,
        (2, 2): c3 * 4 - c1 * (c1 + 1) * 2,
        (1, 1, 2): c2 * 6,
        (1, 1, 1, 1): c1 * 6,
    }
    for I, value in expected.items():
        assert stabilized_correlators(I) == value, I
    print("CRITERION 9 PASS")


def test_criterion_10_calculus_backbone():
    start = time.perf_counter()

    # the planned root power reproduces the operator itself
    for r in range(2, 6):
        L = LaxOperator(r)
        R = rth_root(L, -6 - (r - 1))
        acc = R
        for step in range(2, r + 1):
            acc = compose(R, acc, -6 - (r - step))
        for e in range(-6, r + 1):
            assert acc.coeff(e) == lax_operator(r).coeff(e), (r, e)

    # two-point densities: symmetric, homogeneous of the total weight
    for r in (2, 3):
        pairs = [
            (i, j)
            for i in range(1, 9)
            for j in range(i, 9)
            if i % r and j % r
        ]
        for i, j in pairs:
            om = omega(r, i, j)
            assert om == omega(r, j, i)
            assert grading(om) == i + j, (r, i, j)

    # integration inverts differentiation, in bulk
    rng = random.Random(20240817)
    for _ in range(1000):
        poly = DiffPoly.const(0)
        for _ in range(rng.randint(1, 4)):
            term = DiffPoly.const(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
            if rng.random() < 0.3:
                term = term * Fraction(1, rng.randint(1, 3) + 1)
            for _ in range(rng.randint(1, 3)):
                jet = DiffPoly.jet(rng.randint(1, 3), rng.randint(0, 3))
                term = term * jet ** rng.randint(1, 2)
            if rng.random() < 0.5:
                term = -term
            poly = poly + term
        assert integrate_x(diff_x(poly)) == poly

    assert time.perf_counter() - start < 300
    print("CRITERION 10 PASS")
