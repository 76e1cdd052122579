"""Exact polynomial layer: parameter polynomials and jet polynomials."""

from fractions import Fraction

import pytest

from gdtau import (
    DiffPoly,
    Hierarchy,
    ParamPoly,
    PsiDO,
    bgw,
    compose,
    connected_correlators_pde,
    diff_x,
    grading,
    integrate_x,
)
from gdtau.algebra import degrees, jet_weight
from gdtau.errors import AlphabetMismatch, NotExact, NotHomogeneous


def c(i):
    return ParamPoly.var("c", i)


def v(a, k=0):
    return DiffPoly.jet(a, k)


# -- ParamPoly ---------------------------------------------------------------


def test_distributivity_example():
    c1 = c(1)
    assert c1 * (c1 + 1) == c1**2 + c1


def test_mul_by_zero_annihilates():
    p = c(1) ** 3 + c(2) * 7
    assert (p * 0).is_zero()
    assert (p * ParamPoly.zero("c")).is_zero()


def test_sum_and_scalar_division():
    p, q = c(1) + 2, c(2) - c(1)
    assert p + q == c(2) + 2
    assert p * Fraction(1, 3) == p / 3


def test_substitute_and_expand():
    # 3*c1 + 3/2*c2 with c1 -> d1/3 (and c2 carried along as d2)
    p = c(1) * 3 + c(2) * Fraction(3, 2)
    values = {1: ParamPoly.var("d", 1) / 3, 2: ParamPoly.var("d", 2)}
    q = p.substitute(values, "d")
    assert str(q) == "3/2*d2 + d1"


def test_substitute_needs_every_parameter():
    p = c(1) + c(2)
    with pytest.raises(ValueError):
        p.substitute({1: ParamPoly.var("d", 1)}, "d")
    with pytest.raises(ValueError, match="no substitution given for c2"):
        (c(1) ** 2 + c(2) ** 2).substitute({1: ParamPoly.var("d", 1)}, "d")
    with pytest.raises(AlphabetMismatch, match="substitution values use the wrong alphabet"):
        (c(1) ** 2).substitute({1: ParamPoly.var("sigma", 1)}, "d")


def test_substitute_is_a_ring_map():
    vals = {1: ParamPoly.var("d", 1) + 1, 2: ParamPoly.var("d", 1) * ParamPoly.var("d", 2)}
    p = c(1) * c(2) + c(2) * 5
    q = c(1) ** 2 - 3
    lhs = (p * q).substitute(vals, "d")
    rhs = p.substitute(vals, "d") * q.substitute(vals, "d")
    assert lhs == rhs


def _naive_substitute(p, values, alphabet):
    # term by term: each term is its own product of fresh powers
    out = ParamPoly.zero(alphabet)
    for expts, coef in p.terms.items():
        term = ParamPoly.const(alphabet, coef)
        for i, e in enumerate(expts, start=1):
            term = term * values[i] ** e
        out = out + term
    return out


def test_substitute_matches_naive_expansion():
    # repeated exponents share one power per call; the result must not care
    d1, d2, d3 = (ParamPoly.var("d", i) for i in (1, 2, 3))
    values = {1: d1 * 2 - d2 + Fraction(1, 3), 2: d2 * d1 - 5, 3: d3 + d1 * d1}
    polys = [
        c(1) ** 2 * c(2) * 3 - c(1) ** 2 * Fraction(2, 5) + c(2) ** 3 * c(1)
        + c(3) ** 2 * c(1) ** 2 + 7,
        (c(1) + c(2) + c(3)) ** 4,
        c(2) ** 2 * c(3) ** 2 - c(1) ** 2 * c(3) ** 2 + c(1) ** 2 * c(2) ** 2,
        ParamPoly.const("c", Fraction(-4, 9)),
        ParamPoly.zero("c"),
    ]
    for p in polys:
        assert p.substitute(values, "d") == _naive_substitute(p, values, "d"), p
    # cancellation across terms leaves no zero coefficient behind
    q = c(1) ** 2 - c(2)
    assert q.substitute({1: d1, 2: d1 * d1}, "d").terms == {}


def test_evaluate_is_partial():
    p = c(1) ** 2 + c(2)
    out = p.evaluate({1: 2})
    assert out == c(2) + 4
    # fully numeric
    assert p.evaluate({1: Fraction(1, 2), 2: 3}).constant_value() == Fraction(13, 4)
    # an index above max_index() is ignored
    assert p.evaluate({1: 2, 7: 5}) == c(2) + 4
    assert p.evaluate({3: 5}) == p
    # an assigned 0 removes every term it divides
    assert p.evaluate({2: 0}) == c(1) ** 2
    assert (c(1) * c(2) - c(3)).evaluate({1: 0}).terms == {(0, 0, 1): Fraction(-1)}
    # assigning every parameter gives a constant
    q = c(1) * c(3) ** 2 - c(2) * Fraction(1, 3) + 5
    out = q.evaluate({1: -1, 2: Fraction(3, 2), 3: 2})
    assert out.is_constant() and out.constant_value() == Fraction(1, 2)


def test_evaluate_refuses_indices_below_one():
    # a list position below 0 would name another parameter
    for bad in (0, -1):
        with pytest.raises(ValueError, match="parameter indices start at 1"):
            (c(1) * c(2)).evaluate({bad: 5})


def test_constructors_refuse_impossible_keys():
    # the named constructors and __init__ share one rule per class
    for bad in ({(-1,): 1}, {(2, -1): 3}, {(0, 0, -2): Fraction(1, 2)}):
        with pytest.raises(ValueError, match="parameter exponents must be >= 0"):
            ParamPoly("c", bad)
    for jet in ((0, 0), (0, -2), (1, -1), (-3, 2)):
        with pytest.raises(ValueError, match="jet variables need a >= 1, k >= 0"):
            DiffPoly({((jet, 1),): 1})
        with pytest.raises(ValueError, match="jet variables need a >= 1, k >= 0"):
            DiffPoly.jet(*jet)
    # a bad jet next to a good one is refused too
    with pytest.raises(ValueError):
        DiffPoly({(((1, 0), 1), ((2, -1), 1)): 1})
    assert str(ParamPoly("c", {(0, 2): 3, (): -1})) == "3*c2^2 - 1"
    assert str(DiffPoly({(((1, 0), 2), ((2, 3), 1)): 5})) == "5*v2_3*v1^2"


def test_diffpoly_constructor_canonicalises_its_monomials():
    # jets in any order, or repeated, name one monomial; an exponent a
    # field cannot hold is refused as ParamPoly refuses it
    assert DiffPoly({(((2, 0), 1), ((1, 0), 1)): 1}) == v(1) * v(2)
    assert DiffPoly({(((1, 0), 1), ((2, 0), 1), ((1, 0), 2)): 3}) == v(1) ** 3 * v(2) * 3
    assert str(DiffPoly({(((2, 0), 1), ((1, 0), 1)): 1}) - v(1) * v(2)) == "0"
    assert DiffPoly({(((1, 1), 0), ((2, 0), 1)): 1}) == v(2)
    for e in (-1, 1.5, Fraction(1), "1", 2**15):
        with pytest.raises(ValueError, match="jet exponents must be"):
            DiffPoly({(((1, 0), e),): 1})
    with pytest.raises(ValueError, match="jet exponents must be <= 32767"):
        DiffPoly({(((1, 0), 2**14), ((1, 0), 2**14)): 1})


def test_diffpoly_coefficients_are_rational():
    # a ParamPoly coefficient must be a constant over d
    d1 = ParamPoly.var("d", 1)
    for make in (lambda: DiffPoly({(((1, 0), 1),): d1}), lambda: DiffPoly.const(d1 + 1),
                 lambda: v(1) * d1, lambda: d1 * v(1), lambda: v(1) + d1, lambda: v(1) - d1,
                 lambda: PsiDO({0: d1})):
        with pytest.raises(ValueError, match="jet coefficients are rational"):
            make()
    for make in (lambda: DiffPoly({(((1, 0), 1),): ParamPoly.const("c", 2)}),
                 lambda: DiffPoly.const(ParamPoly.var("c", 1)),
                 lambda: v(1) * ParamPoly.const("e", 1)):
        with pytest.raises(AlphabetMismatch):
            make()
    assert DiffPoly({(((1, 0), 1),): ParamPoly.const("d", Fraction(2, 3))}) == v(1) * Fraction(2, 3)
    assert v(1) * ParamPoly.const("d", 3) == v(1) * 3
    assert v(1) != d1 and (DiffPoly.const(1) == d1) is False


def test_alphabet_mismatch_rejected():
    with pytest.raises(AlphabetMismatch):
        c(1) + ParamPoly.var("d", 1)
    with pytest.raises(AlphabetMismatch):
        c(1) * ParamPoly.var("sigma", 1)
    # jet coefficients and scalars are over d only
    with pytest.raises(AlphabetMismatch):
        DiffPoly({(((1, 0), 1),): c(1)})
    with pytest.raises(AlphabetMismatch):
        DiffPoly.const(c(1))
    with pytest.raises(AlphabetMismatch):
        v(1) * c(1)
    with pytest.raises(AlphabetMismatch):
        v(1) + ParamPoly.var("sigma", 1)
    # equality answers across alphabets, as ParamPoly's does
    assert (v(1) == c(1)) is False
    assert (DiffPoly.const(2) == ParamPoly.const("c", 2)) is False
    assert v(1) != ParamPoly.var("sigma", 1)
    assert (c(1) == ParamPoly.var("d", 1)) is False
    assert DiffPoly.const(2) == ParamPoly.const("d", 2)
    assert not hasattr(v(1), "alphabet") and not hasattr(PsiDO.d(), "alphabet")


def test_canonical_string_output():
    p = (c(1) ** 2 + c(1)) * Fraction(3, 2)
    assert str(p) == "3/2*c1^2 + 3/2*c1"
    assert str(ParamPoly.zero("c")) == "0"
    assert str(c(2) - c(1)) == "c2 - c1"
    assert str(ParamPoly.const("c", Fraction(-1, 4))) == "-1/4"
    # a negative leading term, negative fractions after the first term
    assert str(c(1) - c(2) * 3) == "-3*c2 + c1"
    assert str(-c(1) ** 2 - c(2)) == "-c2 - c1^2"
    assert str(c(2) - c(1) * Fraction(3, 4)) == "c2 - 3/4*c1"
    assert str(c(1) ** 2 - Fraction(5, 2)) == "c1^2 - 5/2"


def test_no_zero_terms_stored():
    p = c(1) - c(1)
    assert p.terms == {}
    q = ParamPoly("c", {(1, 0): 1, (1,): -1})  # same key after trimming
    assert q.is_zero()


def test_constant_handling():
    p = ParamPoly.const("c", 5)
    assert p.is_constant() and p.constant_value() == 5
    assert not (c(1) + 1).is_constant()
    with pytest.raises(ValueError):
        (c(1) + 1).constant_value()
    assert p.max_index() == 0
    assert (c(3) + c(1)).max_index() == 3


def test_var_index_must_be_positive():
    with pytest.raises(ValueError):
        ParamPoly.var("c", 0)


def test_pow_and_division():
    assert c(1) ** 0 == 1
    assert (c(1) * 2) / 2 == c(1)
    with pytest.raises(ValueError):
        c(1) ** (-1)


def test_parameter_weights():
    # index a weighs a+1
    assert c(1).degrees() == {2}
    assert (c(2) ** 2).degrees() == {6}
    assert (c(1) ** 3 + c(2) * c(1)).degrees() == {6, 5}


# -- DiffPoly: derivative and integral ----------------------------------------


def test_diff_x_single_jet():
    assert diff_x(v(1)) == v(1, 1)


def test_diff_x_product_rule():
    assert diff_x(v(1) * v(2)) == v(1, 1) * v(2) + v(1) * v(2, 1)


def test_diff_x_kills_constants():
    assert diff_x(DiffPoly.const(Fraction(3, 2))).is_zero()


def test_integrate_x_inverts_diff_x():
    assert integrate_x(v(1, 1)) == v(1)
    assert integrate_x(v(1) * v(1, 1)) == v(1) ** 2 * Fraction(1, 2)


def test_integrate_x_rejects_non_derivatives():
    with pytest.raises(NotExact):
        integrate_x(v(1))
    with pytest.raises(NotExact):
        integrate_x(DiffPoly.const(1))
    with pytest.raises(NotExact):
        integrate_x(v(1) ** 2)


def test_integrate_x_multi_term():
    p = v(1) ** 2 * v(2) + v(1, 2) * 3 - v(2, 1) * v(1, 1)
    assert integrate_x(diff_x(p)) == p


def test_diff_after_integrate_is_identity_on_image():
    q = diff_x(v(1) * v(2, 1) + v(1, 1) ** 2)
    assert diff_x(integrate_x(q)) == q


# -- grading -------------------------------------------------------------------


def test_jet_weights():
    assert jet_weight((1, 1)) == 3
    assert jet_weight((2, 0)) == 3
    assert grading(v(1, 1)) == 3
    assert grading(v(2)) == 3


def test_grading_mixed_raises_with_degrees():
    with pytest.raises(NotHomogeneous) as exc:
        grading(v(1) + v(1, 1))
    assert exc.value.degrees == frozenset({2, 3})


def test_grading_includes_parameter_weight():
    # jet coefficients are rational: a coefficient adds no weight
    p = v(1) * v(2) * Fraction(2, 3)  # 2 + 3
    assert grading(p) == 5
    assert degrees(v(1) ** 2 * 7 + v(1, 2)) == {4}


def test_grading_additive_under_product():
    p = v(1, 1) * v(2)  # 3 + 3
    q = v(3) * v(1) * Fraction(-5, 2)  # 4 + 2
    assert grading(p * q) == grading(p) + grading(q)


def test_grading_of_zero():
    assert grading(DiffPoly.zero()) == 0


def test_diff_x_raises_degree_by_one():
    p = v(1) * v(2) + v(1, 1) * v(1) * Fraction(1, 2) + v(3, 1)
    assert grading(diff_x(p)) == grading(p) + 1


def test_diffpoly_string_canonical():
    p = v(1, 3) * Fraction(1, 4) + v(1, 1) * v(1) * Fraction(3, 2)
    assert str(p) == "1/4*v1_3 + 3/2*v1_1*v1"
    assert str(DiffPoly.zero()) == "0"
    # heavier terms first, the constant last
    assert str(v(1) * 2 - v(2) * Fraction(1, 3)) == "-1/3*v2 + 2*v1"
    assert str(DiffPoly.const(Fraction(2, 5)) - v(1, 2) * Fraction(2, 3)) == \
        "-2/3*v1_2 + 2/5"
    # a negative leading term
    assert str(3 - v(1, 2) - v(1) * v(1) * Fraction(1, 2)) == "-v1_2 - 1/2*v1^2 + 3"


def test_diffpoly_partial():
    p = v(1) ** 2 * v(2, 1)
    assert p.partial(1, 0) == v(1) * v(2, 1) * 2
    assert p.partial(2, 1) == v(1) ** 2
    assert p.partial(3, 0).is_zero()


# -- sums built in place: invariants --------------------------------------------


def dp(i):
    return ParamPoly.var("d", i)


def assert_clean(p: DiffPoly) -> None:
    for coef in p.terms.values():
        assert coef.terms and all(coef.terms.values()), p


def test_sums_store_no_zero_coefficient_when_terms_cancel():
    # the v1_1*v2_1 terms cancel but for 5/6 - 1/2 = 1/3
    p = v(1, 1) * v(2) * Fraction(5, 6) - v(1) * v(2, 1) * Fraction(1, 2)
    dx = diff_x(p)
    assert_clean(dx)
    assert dx.terms[(((1, 1), 1), ((2, 1), 1))] == ParamPoly.const("d", Fraction(1, 3))
    assert diff_x(v(1, 1) * v(2) - v(1) * v(2, 1)) == v(1, 2) * v(2) - v(1) * v(2, 2)

    back = integrate_x(dx)
    assert_clean(back)
    assert back == p

    # constructors and container sums cancel through the same kernels
    m = (((1, 0), 1),)
    assert DiffPoly({m: 3, (): 0}).terms == {m: ParamPoly.const("d", 3)}
    assert (v(1) * Fraction(2, 3) + v(1) * Fraction(-2, 3)).terms == {}
    op = PsiDO({1: v(1) * 3, 0: 1}) + PsiDO({1: -v(1) * 3, 0: v(2)})
    assert op.coeffs == {0: v(2) + 1}
    for coef in op.coeffs.values():
        assert_clean(coef)

    # the first flow is d/dx: the chain rule terms cancel across jets
    q = v(1, 1) * v(2) - v(1) * v(2, 1)
    dt = Hierarchy(3).t_derivative(q, 1)
    assert_clean(dt)
    assert dt == v(1, 2) * v(2) - v(1) * v(2, 2)

    A = PsiDO({1: 1, 0: v(1)})
    B = PsiDO({1: 1, 0: -v(1)})
    AB = compose(A, B)
    assert 1 not in AB.coeffs
    for coef in AB.coeffs.values():
        assert_clean(coef)
    assert AB == PsiDO({2: 1, 0: -v(1, 1) - v(1) ** 2})

    def jets(a, k):
        return dp(1) if a == 3 else dp(a)

    assert (v(1) + v(2) - v(3)).evaluate(jets).terms == {(0, 1): Fraction(1)}
    assert (v(1) - v(3)).evaluate(jets).terms == {}


def test_sums_never_mutate_shared_objects(monkeypatch):
    # a private hierarchy, so the weight-10 table must grow the shared
    # tables (power rows, root derivatives, flows, prefix densities) past
    # what weight 8 built
    H = Hierarchy(4)
    monkeypatch.setattr(bgw, "hierarchy", lambda r: H)

    def snapshot():
        return {
            "flows": {i: {a: str(p) for a, p in f.items()} for i, f in H._flows.items()},
            "flow_derivs": {key: [str(p) for p in chain] for key, chain in H._flow_derivs.items()},
            "densities": {I: str(p) for I, p in H._densities.items()},
            "rows": {k: [str(p) for p in row] for k, row in H._rows.items()},
            "derivs": {n: [str(p) for p in chain] for n, chain in H._row_derivs.items()},
        }

    connected_correlators_pde(4, 8)
    H.flow(5)  # reads the lifted rows of R^5, which weight 8 does not build
    before = snapshot()
    connected_correlators_pde(4, 10)
    after = snapshot()
    for name in ("flows", "densities"):  # the residues are the densities of (i,)
        assert {key: after[name][key] for key in before[name]} == before[name], name
    assert before["densities"] and len(after["densities"]) > len(before["densities"])
    assert any(k > 4 for k in before["rows"])  # rows filled from R^(k-r) L
    assert after["rows"] != before["rows"]  # the power rows did grow
    for k, old in before["rows"].items():
        assert after["rows"][k][:len(old)] == old
    for name in ("derivs", "flow_derivs"):  # x-derivative chains only grow
        for key, chain in before[name].items():
            assert after[name][key][:len(chain)] == chain, name
