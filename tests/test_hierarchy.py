"""Flows, time derivatives along them, and the two-point densities."""

from fractions import Fraction

import pytest

from conftest import conn_table
from gdtau import (
    DiffPoly,
    Hierarchy,
    ParamPoly,
    bgw,
    connected_correlators_pde,
    diff_x,
    gd_flow,
    grading,
    hierarchy,
    index_multisets,
    lax,
    omega,
)
from gdtau.errors import IndexDivisible
from gdtau.hierarchy import InitialValues, LaxOperator, initial_jet, initial_values
from gdtau.psido import frac_power, residue


def v(a, k=0):
    return DiffPoly.jet(a, k)


def test_first_flow_is_x_translation():
    for r in (2, 3, 4):
        flow = gd_flow(r, 1)
        assert flow == {a: v(a, 1) for a in range(1, r)}


def test_r2_third_flow():
    got = gd_flow(2, 3)[1]
    assert got == v(1, 3) * Fraction(1, 4) + v(1) * v(1, 1) * Fraction(3, 2)


def test_flow_degrees_r3():
    # the flow of v_a along t_i weighs a+i+1
    for i in (1, 2, 4, 5, 7):
        for a, p in gd_flow(3, i).items():
            assert grading(p) == a + i + 1


def test_flow_index_divisible_by_r_rejected():
    with pytest.raises(IndexDivisible):
        gd_flow(3, 6)
    with pytest.raises(IndexDivisible):
        gd_flow(2, 4)
    with pytest.raises(ValueError):
        gd_flow(2, 0)


def test_t1_derivative_is_diff_x():
    H = hierarchy(3)
    p = v(1) ** 2 * v(2, 1)
    assert H.t_derivative(p, 1) == diff_x(p)
    assert H.t_derivative(v(1), 1) == v(1, 1)


def test_t_derivative_of_constants_vanishes():
    H = hierarchy(3)
    const = DiffPoly.const(Fraction(5, 3))
    assert H.t_derivative(const, 5).is_zero()


def test_t_derivatives_commute():
    H = hierarchy(3)
    for p in (v(1) * v(2), v(1, 1) + v(2) ** 2, v(1) ** 3):
        for i, j in ((1, 2), (2, 4), (1, 5)):
            ij = H.t_derivative(H.t_derivative(p, i), j)
            ji = H.t_derivative(H.t_derivative(p, j), i)
            assert ij == ji, (i, j, str(p))


def test_flow_derivative_caches_x_derivatives():
    H = hierarchy(2)
    assert H.flow_derivative(3, 1, 0) == gd_flow(2, 3)[1]
    assert H.flow_derivative(3, 1, 2) == diff_x(diff_x(gd_flow(2, 3)[1]))


# -- two-point densities ----------------------------------------------------------


def test_omega_1_1_is_v1_over_r():
    for r in (2, 3, 4):
        assert omega(r, 1, 1) == v(1) * Fraction(1, r)


def test_omega_1_alpha_equals_residue():
    # pairing with t_1 recovers the density of the alpha-th residue
    L3 = lax(3)
    for a in (1, 2, 4, 5):
        assert omega(3, 1, a) == residue(frac_power(L3, a, -1))


def test_omega_symmetric():
    for r, pairs in ((2, [(1, 3), (3, 5), (1, 5)]),
                     (3, [(1, 2), (2, 4), (4, 5), (2, 5)])):
        for i, j in pairs:
            assert omega(r, i, j) == omega(r, j, i), (r, i, j)


def test_omega_degree_is_sum_of_indices():
    for i, j in ((1, 1), (1, 2), (2, 2), (2, 4), (4, 5)):
        assert grading(omega(3, i, j)) == i + j


def test_omega_rejects_divisible_indices():
    with pytest.raises(IndexDivisible):
        omega(3, 3, 1)
    with pytest.raises(IndexDivisible):
        omega(3, 1, 6)


def test_omega_has_no_constant_term():
    for i, j in ((1, 1), (2, 2), (1, 4)):
        w = omega(3, i, j)
        assert () not in w.terms


def test_omega_table_matches_free_function():
    H = hierarchy(3)
    assert H.omega(2, 4) == omega(3, 2, 4)
    assert H.density((2,)) == residue(frac_power(lax(3), 2, -1))
    with pytest.raises(IndexDivisible):
        H.density((3,))


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_one_pass_evaluation_matches_the_reference(r):
    # the value table forms each flow component at the initial point in one
    # pass, with no differential polynomial built; the symbolic component
    # under DiffPoly.evaluate is the reference.  For j > r the flow reads
    # lifted rows (R^j = R^(j-r) L); every flow reads row x-derivatives
    H, V = hierarchy(r), InitialValues(r)
    for j in range(1, 2 * r + 2):
        if j % r == 0:
            continue
        assert sorted(V.flow(j)) == list(range(1, r))
        for a, X in H.flow(j).items():
            assert V.flow(j)[a] == X.evaluate(initial_jet), (j, a)


def test_prefix_densities_are_built_once():
    H = Hierarchy(3)
    D = H.density((2, 2, 4))
    assert D == H.t_derivative(H.density((2, 2)), 4)
    assert H.density((2, 2, 4)) is D
    assert H.density((2,)) is H.density((2,))
    with pytest.raises(ValueError):
        H.density(())


def test_omega_is_the_antiderivative_of_the_pair_density():
    # d/dx Omega_ij = d/dt_j res L^(i/r), the density of (i, j)
    for r, pairs in ((2, [(1, 3), (3, 5)]), (3, [(1, 2), (2, 2), (2, 4), (4, 5)]),
                     (4, [(2, 3), (3, 5)])):
        H = hierarchy(r)
        for i, j in pairs:
            assert diff_x(H.omega(i, j)) == H.density((i, j)), (r, i, j)


# -- the last flow read on values ---------------------------------------------------


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_t_derivative_value_matches_the_reference(r):
    # the chain rule on values against the built t-derivative, evaluated
    H, V = hierarchy(r), initial_values(r)
    polys = [H.density(I) for I in index_multisets(r, 8) if 1 not in I]
    polys.append(H.density((1,)) * Fraction(3, 2) + v(1, 2))  # not homogeneous
    flows = [j for j in range(1, 8) if j % r]
    for p in polys:
        for j in flows:
            want = H.t_derivative(p, j).evaluate(initial_jet)
            assert V.t_derivative_value(p, j) == want, (str(p), j)
    for const in (DiffPoly.const(5), DiffPoly.const(Fraction(-2, 7)), DiffPoly.zero()):
        for j in flows:
            assert V.t_derivative_value(const, j).is_zero()


def test_t_derivative_value_evaluates_each_flow_component_once(monkeypatch):
    # the density route builds symbolic flows only to extend prefix
    # densities (t_2, t_3, t_5 at r = 4, weight 12) and reads every entry's
    # last flow off the value table, which computes each flow once
    computed = []

    class Memo(dict):
        def __setitem__(self, j, flow):
            computed.append(j)
            super().__setitem__(j, flow)

    H = Hierarchy(4)
    monkeypatch.setattr(bgw, "hierarchy", lambda order: H)
    initial_values.cache_clear()
    initial_values(4)._flows = Memo()
    assert connected_correlators_pde(4, 12).values == conn_table(4, 12).values
    assert sorted(H._flows) == [2, 3, 5]
    assert sorted(computed) == [2, 3, 5, 6, 7, 9, 10]  # each value flow once


def test_t_derivative_value_guards_jets_like_evaluate():
    # a jet v_a with a >= r has no value at the initial point; a bad flow
    # index is refused by the one index rule (test_bgw)
    V = initial_values(3)
    for a in (3, 4):
        for j in (1, 2, 4):
            with pytest.raises(ValueError, match=f"^no variable v{a} for r=3$"):
                V.t_derivative_value(v(1) * v(a, 1), j)


# -- the power table at the initial point -------------------------------------------


def test_jets_are_built_once_per_table():
    # the lifted rows and the flows read v_a^(j) through one memo, in
    # both rings
    for L in (LaxOperator(4), InitialValues(4)):
        jet = L._jet(2, 3)
        assert L._jet(2, 3) is jet
        assert L._jet(2, 2) is not jet
    assert InitialValues(4)._jet(2, 3) == initial_jet(2, 3)
    assert LaxOperator(4)._jet(2, 3) == DiffPoly.jet(2, 3)


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_value_table_equals_the_evaluated_symbolic_table(r):
    # every row of R^k down to floor -1, the lifted rows (k > r) included, is
    # the symbolic row at the initial point: a polynomial in d, never a jet
    H, V = hierarchy(r), InitialValues(r)
    for k in range(1, 2 * r + 2):
        if k % r == 0:
            continue
        H._fill(k, k + 1)
        V._fill(k, k + 1)
        for t in range(k + 2):  # row t is the coefficient at D^(k-t)
            val = V._rows[k][t]
            assert isinstance(val, ParamPoly), (k, t)
            assert val == H._rows[k][t].evaluate(initial_jet), (k, t)
        assert V.residue(k) == H.density((k,)).evaluate(initial_jet), k
