"""Randomized structural laws, checked with hypothesis."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from gdtau import (
    DiffPoly,
    ParamPoly,
    PsiDO,
    compose,
    diff_x,
    grading,
    integrate_x,
    minus_part,
    plus_part,
)
from gdtau.bgw import TauSeries, index_multisets, log_tau, tau_exp
from gdtau.wconstraints import WOperatorSpec, apply_S

fractions = st.builds(
    Fraction, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=4)
)


def _param_from_spec(spec):
    poly = ParamPoly.zero("c")
    for coef, factors in spec:
        term = ParamPoly.const("c", coef)
        for idx, e in factors:
            term = term * ParamPoly.var("c", idx) ** e
        poly = poly + term
    return poly


param_specs = st.lists(
    st.tuples(
        fractions,
        st.lists(
            st.tuples(st.integers(min_value=1, max_value=3),
                      st.integers(min_value=1, max_value=3)),
            max_size=2,
        ),
    ),
    max_size=3,
)
param_polys = st.builds(_param_from_spec, param_specs)


def _diff_from_spec(spec, constant_free=False):
    poly = DiffPoly.const(0)
    for coef, factors in spec:
        if constant_free and not factors:
            continue
        term = DiffPoly.const(coef)
        for a, k, e in factors:
            term = term * DiffPoly.jet(a, k) ** e
        poly = poly + term
    return poly


diff_specs = st.lists(
    st.tuples(
        fractions,
        st.lists(
            st.tuples(st.integers(min_value=1, max_value=2),
                      st.integers(min_value=0, max_value=2),
                      st.integers(min_value=1, max_value=2)),
            max_size=2,
        ),
    ),
    max_size=3,
)
diff_polys = st.builds(_diff_from_spec, diff_specs)
constant_free_diff_polys = st.builds(
    lambda s: _diff_from_spec(s, constant_free=True), diff_specs
)


# -- parameter polynomial ring -----------------------------------------------


@given(param_polys, param_polys, param_polys)
def test_ring_axioms(p, q, s):
    assert (p + q) + s == p + (q + s)
    assert p * q == q * p
    assert p * (q + s) == p * q + p * s
    assert (p * q) * s == p * (q * s)


@given(param_polys, param_polys,
       st.tuples(fractions, fractions, fractions))
def test_evaluate_is_a_ring_homomorphism(p, q, values):
    assignment = {i + 1: values[i] for i in range(3)}
    assert (p + q).evaluate(assignment) == p.evaluate(assignment) + q.evaluate(assignment)
    assert (p * q).evaluate(assignment) == p.evaluate(assignment) * q.evaluate(assignment)


# -- jet polynomial calculus -------------------------------------------------


@given(diff_polys, diff_polys)
def test_diff_x_satisfies_leibniz(p, q):
    assert diff_x(p * q) == diff_x(p) * q + p * diff_x(q)


@given(constant_free_diff_polys)
def test_integrate_undoes_diff(p):
    assert integrate_x(diff_x(p)) == p


monomial_specs = st.tuples(
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=3),
                  st.integers(min_value=0, max_value=2),
                  st.integers(min_value=1, max_value=2)),
        min_size=1,
        max_size=3,
    ),
    st.integers(min_value=0, max_value=2),
)


def _monomial(spec):
    factors, param_idx = spec
    term = DiffPoly.const(ParamPoly.var("d", param_idx) if param_idx else Fraction(3, 2))
    for a, k, e in factors:
        term = term * DiffPoly.jet(a, k) ** e
    return term


@given(st.builds(_monomial, monomial_specs), st.builds(_monomial, monomial_specs))
def test_grading_is_additive_on_monomials(m, n):
    assert grading(m * n) == grading(m) + grading(n)


# -- operator calculus ---------------------------------------------------------


def _diff_operator(coeff_list):
    op = PsiDO()
    for e, p in enumerate(coeff_list):
        if p.is_zero():
            continue
        op = op + compose(PsiDO.from_diffpoly(p), PsiDO.d(e))
    return op


diff_operators = st.builds(_diff_operator, st.lists(diff_polys, max_size=3))


@settings(max_examples=30, deadline=None)
@given(diff_operators, diff_operators, diff_operators)
def test_compose_is_associative_on_differential_operators(A, B, C):
    assert compose(A, compose(B, C)) == compose(compose(A, B), C)


@settings(max_examples=30, deadline=None)
@given(diff_operators, st.integers(min_value=1, max_value=4))
def test_plus_and_minus_parts_partition(A, depth):
    # glue a finite negative tail onto a differential operator
    tail = compose(PsiDO.from_diffpoly(DiffPoly.jet(1)), PsiDO.d(-depth))
    B = A + tail
    assert plus_part(B) + minus_part(B) == B
    assert plus_part(B) == plus_part(A) + plus_part(tail)


# -- truncated series ----------------------------------------------------------


def _series_from(vals, cap=5, unit=False):
    keys = index_multisets(3, cap)
    coeffs = {}
    if unit:
        coeffs[()] = ParamPoly.const("d", 1)
    for I, v in zip(keys, vals):
        poly = ParamPoly.const("d", v[0]) + ParamPoly.var("d", 1) * v[1]
        if not poly.is_zero():
            coeffs[I] = poly
    return TauSeries("d", cap, coeffs)


series_values = st.lists(st.tuples(fractions, fractions), max_size=8)


@settings(max_examples=40, deadline=None)
@given(series_values)
def test_exp_log_round_trip(vals):
    log_series = _series_from(vals)
    assert log_tau(tau_exp(log_series)) == log_series


@settings(max_examples=20, deadline=None)
@given(series_values, st.sampled_from([(1, 1), (2, 2), (1, 2), (2, 3)]))
def test_first_operator_measures_the_shift(vals, bidegree):
    # conjugating by the weight-counting operator scales any operator by
    # minus its column shift, whatever series it acts on
    series = _series_from(vals, cap=7, unit=True)
    s11 = WOperatorSpec(3, 1, 1)
    op = WOperatorSpec(3, *bidegree)
    left = apply_S(apply_S(series, op), s11)
    right = apply_S(apply_S(series, s11), op)
    scaled = apply_S(series, op).trim(left.cap).scale(-op.shift)
    assert left - right == scaled
