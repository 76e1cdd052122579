"""Randomized structural laws, checked with hypothesis."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

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
from gdtau.algebra import degrees, substitute_all
from gdtau.bgw import TauSeries, index_multisets, log_tau, tau_exp
from gdtau.cli import _latex_poly
from gdtau.errors import AlphabetMismatch, InvariantViolated
from gdtau.wconstraints import WOperatorSpec, apply_S

from oracle import (frac_add, frac_evaluate, frac_exp, frac_log, frac_mul, frac_scale,
                    frac_substitute, jet_degrees, jet_diff_x, jet_jets, jet_mono, jet_mul,
                    jet_partial, print_jet, print_latex, print_param)

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


# -- the integer kernels against plain fractions --------------------------------

# denominators from primes that divide r for small orders and primes that
# divide none of them
kernel_fractions = st.builds(
    Fraction, st.integers(min_value=-40, max_value=40),
    st.sampled_from([1, 2, 3, 4, 6, 7, 9, 11, 12, 13, 35, 143, 2 * 3 * 5 * 7 * 11 * 13]),
)
kernel_terms = st.lists(
    st.tuples(kernel_fractions, st.lists(st.integers(min_value=0, max_value=2), max_size=3)),
    max_size=4,
)


def _kernel_poly(alphabet, spec, cancel):
    """A ParamPoly summed term by term through `+`, with its plain-Fraction
    reference; `cancel` appends the negation of every other term, so sums
    cancel to zero and the empty polynomial comes up."""
    if cancel:
        spec = spec + [(-c, e) for c, e in spec[::2]]
    poly, ref = ParamPoly.zero(alphabet), {}
    for c, expts in spec:
        poly = poly + ParamPoly(alphabet, {tuple(expts): c})
        trimmed = tuple(expts)
        while trimmed and trimmed[-1] == 0:
            trimmed = trimmed[:-1]
        ref = frac_add(ref, {trimmed: c})
    return poly, ref


def kernel_polys(alphabet="c"):
    return st.builds(lambda spec, cancel: _kernel_poly(alphabet, spec, cancel),
                     kernel_terms, st.booleans())


def assert_canonical(p):
    # integer numerators over one positive denominator, in lowest terms
    num, den = p._num, p._den
    assert type(den) is int and den >= 1, p
    assert all(type(c) is int and c for c in num.values()), p
    assert math.gcd(den, *num.values()) == 1, p


def assert_matches(p, ref):
    assert_canonical(p)
    assert p.terms == ref


@settings(max_examples=150)
@given(kernel_polys(), kernel_polys(), kernel_fractions.filter(bool))
def test_kernels_match_plain_fractions(p_pair, q_pair, s):
    (p, pref), (q, qref) = p_pair, q_pair
    assert_matches(p, pref)
    assert_matches(p + q, frac_add(pref, qref))
    assert_matches(p - q, frac_add(pref, frac_scale(qref, -1)))
    assert_matches(p * q, frac_mul(pref, qref))
    assert_matches(p * s, frac_scale(pref, s))
    assert_matches(p * s.numerator, frac_scale(pref, s.numerator))
    assert_matches(p / s, frac_scale(pref, 1 / s))
    assert_matches(p * 0, {})
    assert_matches(p - p, {})
    assert (p == q) == (pref == qref)


@settings(max_examples=100)
@given(kernel_polys(), st.tuples(kernel_polys("d"), kernel_polys("d"), kernel_polys("d")),
       st.dictionaries(st.integers(min_value=1, max_value=4), kernel_fractions, max_size=3))
def test_substitute_and_evaluate_match_plain_fractions(p_pair, vals, assignment):
    p, pref = p_pair
    values = {i + 1: v for i, (v, _) in enumerate(vals)}
    refs = {i + 1: ref for i, (_, ref) in enumerate(vals)}
    assert_matches(p.substitute(values, "d"), frac_substitute(pref, refs))
    assert_matches(p.evaluate(assignment), frac_evaluate(pref, assignment))


kernel_series = st.lists(kernel_polys("d"), max_size=6)


@settings(max_examples=40, deadline=None)
@given(kernel_series)
def test_exp_log_match_plain_fractions(polys):
    cap = 5
    keys = index_multisets(3, cap)
    F = TauSeries("d", cap, {I: p for I, (p, _) in zip(keys, polys)})
    Fref = {I: ref for I, (_, ref) in zip(keys, polys) if ref}
    T = tau_exp(F)
    Tref = frac_exp(Fref, cap)
    assert {I: c.terms for I, c in T.coeffs.items()} == Tref
    for c in T.coeffs.values():
        assert_canonical(c)
    back = log_tau(T)
    assert back == F
    assert {I: c.terms for I, c in back.coeffs.items()} == frac_log(Tref, cap)


# -- packed monomial keys ------------------------------------------------------

# an exponent field holds 0..32767; the next bit is the guard
MAX_EXPONENT = 2**15 - 1


def _trimmed(expts):
    expts = tuple(expts)
    while expts and expts[-1] == 0:
        expts = expts[:-1]
    return expts


def _wide_poly(alphabet, spec):
    """A ParamPoly from {exponent tuple: coefficient} specs, with its
    plain-Fraction reference."""
    poly, ref = ParamPoly.zero(alphabet), {}
    for c, expts in spec:
        poly = poly + ParamPoly(alphabet, {tuple(expts): c})
        ref = frac_add(ref, {_trimmed(expts): c})
    return poly, ref


# parameter indices up to 24 (r = 25): keys span up to 24 fields
wide_terms = st.lists(
    st.tuples(kernel_fractions,
              st.lists(st.integers(min_value=0, max_value=3), max_size=24)),
    max_size=4,
)
wide_polys = st.builds(lambda spec: _wide_poly("c", spec), wide_terms)


def _sparse(factors):
    expts = [0] * 24
    for index, e in factors:
        expts[index - 1] += e
    return expts


# the same indices, at most three factors a term: substitution stays small
sparse_terms = st.lists(
    st.tuples(kernel_fractions,
              st.lists(st.tuples(st.integers(min_value=1, max_value=24),
                                 st.integers(min_value=1, max_value=2)),
                       max_size=3).map(_sparse)),
    max_size=4,
)
sparse_polys = st.builds(lambda spec: _wide_poly("c", spec), sparse_terms)


def _assert_shape(p, ref):
    assert_matches(p, ref)
    assert p.max_index() == max((len(e) for e in ref), default=0)
    assert p.degrees() == {sum(e * (i + 2) for i, e in enumerate(expts)) for expts in ref}
    assert p.is_constant() == all(not e for e in ref)
    if p.is_constant():
        assert p.constant_value() == ref.get((), 0)
    else:
        with pytest.raises(ValueError):
            p.constant_value()


@settings(max_examples=100)
@given(wide_polys, wide_polys)
def test_packed_keys_span_many_fields(p_pair, q_pair):
    (p, pref), (q, qref) = p_pair, q_pair
    _assert_shape(p, pref)
    _assert_shape(p + q, frac_add(pref, qref))
    _assert_shape(p * q, frac_mul(pref, qref))
    assert str(p * q) == str(q * p)


near_guard = st.integers(min_value=MAX_EXPONENT - 3, max_value=MAX_EXPONENT)


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=24),
       st.integers(min_value=0, max_value=MAX_EXPONENT), near_guard,
       st.lists(st.integers(min_value=0, max_value=3), max_size=24))
@example(index=2, a=0, b=32765, others=[0, 3])  # others' exponent of c_index overflows
def test_products_at_the_guard_raise_instead_of_wrapping(index, a, b, others):
    # (c_index^a + 3 prod c^others) * c_index^b next to the guard: exact
    # while every exponent of c_index in p plus b fits the field, an error
    # once one of them would reach the guard bit
    field = [0] * (index - 1)
    p = ParamPoly("c", {tuple(field) + (a,): 1}) + ParamPoly("c", {tuple(others): 3})
    q = ParamPoly("c", {tuple(field) + (b,): Fraction(1, 2)})
    pref = frac_add({_trimmed(field + [a]): Fraction(1)}, {_trimmed(others): Fraction(3)})
    qref = {_trimmed(field + [b]): Fraction(1, 2)}
    assert_matches(q, qref)
    in_field = [a] + others[index - 1:index]  # p's exponents of c_index
    if max(in_field) + b > MAX_EXPONENT:
        with pytest.raises(InvariantViolated):
            p * q
        with pytest.raises(InvariantViolated):
            q * p
    else:
        _assert_shape(p * q, frac_mul(pref, qref))


def test_constructor_refuses_what_a_field_cannot_hold():
    assert ParamPoly("c", {(0, MAX_EXPONENT): 1}).degrees() == {3 * MAX_EXPONENT}
    for expts in [(MAX_EXPONENT + 1,), (0, 2**16), (-1,), (1.5,), (Fraction(1),), ("1",)]:
        with pytest.raises(ValueError):
            ParamPoly("c", {expts: 1})
    for coef in [1.5, 0.0, "1/2", None]:
        with pytest.raises(TypeError):
            ParamPoly("c", {(1,): coef})
    assert ParamPoly("c", {(1,): True}) == ParamPoly.var("c", 1)


@settings(max_examples=60)
@given(st.lists(sparse_polys, min_size=1, max_size=4),
       st.lists(kernel_polys("d"), min_size=24, max_size=24))
def test_shared_substitution_matches_each_polynomial_alone(pairs, vals):
    values = {i + 1: v for i, (v, _) in enumerate(vals)}
    refs = {i + 1: ref for i, (_, ref) in enumerate(vals)}
    polys = [p for p, _ in pairs] * 2  # repeated monomials hit the shared memo
    got = substitute_all(polys, values, "d")
    assert len(got) == len(polys)
    for out, (_, pref) in zip(got, pairs * 2):
        assert_matches(out, frac_substitute(pref, refs))
    assert got[:len(pairs)] == [p.substitute(values, "d") for p, _ in pairs]


def test_shared_substitution_errors():
    c1, c2 = ParamPoly.var("c", 1), ParamPoly.var("c", 2)
    d1 = ParamPoly.var("d", 1)
    with pytest.raises(ValueError, match="^no substitution given for c2$"):
        substitute_all([c1 ** 2, c1 * c2], {1: d1}, "d")
    with pytest.raises(ValueError, match="^no substitution given for sigma3$"):
        substitute_all([ParamPoly.var("sigma", 3)], {1: d1}, "d")
    with pytest.raises(AlphabetMismatch, match="^substitution values use the wrong alphabet$"):
        substitute_all([c1, c2], {1: d1, 2: ParamPoly.var("e", 2)}, "d")
    # a parameter that occurs nowhere needs no value, and nothing maps to nothing
    assert substitute_all([c1 * 2 + 1, ParamPoly.zero("c")], {1: d1}, "d") == [
        d1 * 2 + 1, ParamPoly.zero("d")]
    assert substitute_all([], {}, "d") == []


# -- jet polynomial calculus -------------------------------------------------


@given(diff_polys, diff_polys)
def test_diff_x_satisfies_leibniz(p, q):
    assert diff_x(p * q) == diff_x(p) * q + p * diff_x(q)


@given(constant_free_diff_polys)
def test_integrate_undoes_diff(p):
    assert integrate_x(diff_x(p)) == p


# every jet up to weight 16: the heaviest own fields 105..119
JETS = [(a, w - 1 - a) for w in range(2, 17) for a in range(1, w)]


def _jet_poly(spec):
    """A DiffPoly summed term by term through `+`, each term built from
    factors in the order drawn (unsorted, a jet possibly repeated), with its
    plain-Fraction reference."""
    poly, ref = DiffPoly.zero(), {}
    for c, factors in spec:
        poly = poly + DiffPoly({tuple(factors): c})
        ref = frac_add(ref, {jet_mono(factors): c})
    return poly, ref


jet_polys = st.builds(_jet_poly, st.lists(
    st.tuples(kernel_fractions,
              st.lists(st.tuples(st.sampled_from(JETS), st.integers(min_value=1, max_value=3)),
                       max_size=3)),
    max_size=4))


def assert_jet_matches(p, ref):
    assert_canonical(p)
    view = p.terms
    assert all(c.alphabet == "d" and c.is_constant() for c in view.values()), p
    assert {m: c.constant_value() for m, c in view.items()} == ref


@settings(max_examples=100)
@given(jet_polys, jet_polys, kernel_fractions.filter(bool), st.sampled_from(JETS))
def test_packed_jet_kernels_match_plain_fractions(p_pair, q_pair, s, jet):
    (p, pref), (q, qref) = p_pair, q_pair
    assert_jet_matches(p, pref)
    assert_jet_matches(p + q, frac_add(pref, qref))
    assert_jet_matches(p - q, frac_add(pref, frac_scale(qref, -1)))
    assert_jet_matches(p * q, jet_mul(pref, qref))
    assert_jet_matches(p * s, frac_scale(pref, s))
    assert_jet_matches(diff_x(p), jet_diff_x(pref))
    assert_jet_matches(p.partial(*jet), jet_partial(pref, jet))
    assert p.jets() == jet_jets(pref)
    assert degrees(p) == jet_degrees(pref)
    assert (p == q) == (pref == qref)


@settings(max_examples=60)
@given(st.sampled_from(JETS), st.integers(min_value=0, max_value=MAX_EXPONENT), near_guard)
@example(jet=(1, 0), a=0, b=MAX_EXPONENT)  # v1 in p reaches the guard of v1
def test_jet_products_and_derivatives_at_the_guard_raise(jet, a, b):
    # (jet^a + 3 v1) * jet^b, and d/dx of jet * (its derivative)^b: exact
    # while every exponent fits the field, an error once one would reach
    # the guard bit, never a carry into the next jet's field
    p = DiffPoly({((jet, a),): 1}) + DiffPoly({(((1, 0), 1),): 3})
    q = DiffPoly({((jet, b),): Fraction(1, 2)})
    pref = frac_add({jet_mono([(jet, a)]): Fraction(1)}, {(((1, 0), 1),): Fraction(3)})
    in_field = [a, 1 if jet == (1, 0) else 0]  # p's exponents of jet
    if max(in_field) + b > MAX_EXPONENT:
        with pytest.raises(InvariantViolated):
            p * q
        with pytest.raises(InvariantViolated):
            q * p
    else:
        assert_jet_matches(p * q, jet_mul(pref, {jet_mono([(jet, b)]): Fraction(1, 2)}))
    up = (jet[0], jet[1] + 1)
    r = DiffPoly({((jet, 1), (up, b)): 1})
    if b + 1 > MAX_EXPONENT:
        with pytest.raises(InvariantViolated):
            diff_x(r)
    else:
        assert_jet_matches(diff_x(r), jet_diff_x({jet_mono([(jet, 1), (up, b)]): Fraction(1)}))


# -- the printers against a Fraction reference ---------------------------------

# small numerators over denominators sharing factors: terms of one
# polynomial reduce to different ratios, and +-1 and integers come up often
print_fractions = st.builds(Fraction, st.integers(min_value=-12, max_value=12),
                            st.sampled_from([1, 1, 2, 3, 4, 6, 12]))
print_params = st.lists(
    st.tuples(print_fractions, st.lists(st.integers(min_value=0, max_value=2), max_size=3)),
    max_size=4)
print_jets = st.lists(
    st.tuples(print_fractions,
              st.lists(st.tuples(st.sampled_from(JETS[:10]), st.integers(min_value=1, max_value=2)),
                       max_size=3)),
    max_size=4)


@settings(max_examples=200)
@given(st.sampled_from(["c", "d", "sigma"]), print_params, print_jets, st.booleans())
@example(alphabet="c", param_spec=[], jet_spec=[], cancel=False)  # zero
@example(alphabet="c", param_spec=[(Fraction(-1), [])], jet_spec=[(Fraction(-1), [])],
         cancel=False)
@example(alphabet="sigma", param_spec=[(Fraction(-1), [0, 1]), (Fraction(4, 6), [2]),
                                       (Fraction(1), [0, 0, 1]), (Fraction(9, 6), [])],
         jet_spec=[(Fraction(-1), [((1, 0), 1)]), (Fraction(3, 6), [((2, 1), 2)]),
                   (Fraction(-6, 4), [])], cancel=False)
def test_printers_match_the_fraction_reference(alphabet, param_spec, jet_spec, cancel):
    # `cancel` adds the negation of every other term, so terms cancel and
    # the zero polynomial comes up
    if cancel:
        param_spec = param_spec + [(-c, e) for c, e in param_spec[::2]]
        jet_spec = jet_spec + [(-c, f) for c, f in jet_spec[::2]]
    p = ParamPoly.zero(alphabet)
    for c, expts in param_spec:
        p = p + ParamPoly(alphabet, {tuple(expts): c})
    q = DiffPoly.zero()
    for c, factors in jet_spec:
        q = q + DiffPoly({tuple(factors): c})
    assert str(p) == print_param(p)
    assert _latex_poly(p) == print_latex(p)
    assert str(q) == print_jet(q)


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
    term = DiffPoly.const(Fraction(3, 2) * (param_idx + 1))
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
