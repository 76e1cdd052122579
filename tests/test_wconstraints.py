"""Constraint operators, the constants they pin down, and both table routes."""

from fractions import Fraction

import pytest
import sympy as sp

from gdtau.algebra import ParamPoly
from gdtau.bgw import (TauSeries, _mult_factorial, connected_correlators_pde,
                       connected_from_disconnected, index_multisets, series_from_correlators,
                       string_residual, tau_exp)
from gdtau import wconstraints
from gdtau.errors import WeightExceeded
from gdtau.hierarchy import hierarchy, initial_jet, initial_values
from gdtau.wconstraints import (
    WOperatorSpec,
    _coefficient_terms,
    _current_monomials,
    _solve_entries,
    apply_Wred,
    c_from_d,
    constants,
    d_from_c,
    recursion_correlators,
    rho_in_d,
    solve_sigma_from_c,
    stabilized_correlators,
    table_in_c,
    verify_constraints,
)

import oracle
from conftest import bgw_tau
from oracle import apply_S, evaluate


def d(i):
    return ParamPoly.var("d", i)


def _same(series_a, series_b):
    return (series_a + series_b.scale(-1)).is_zero()


# -- operator bidegrees ------------------------------------------------------


def test_operator_spec_validation():
    spec = WOperatorSpec(5, 2, 4)
    assert spec.shift == 10
    with pytest.raises(ValueError):
        WOperatorSpec(1, 1, 1)
    with pytest.raises(ValueError):
        WOperatorSpec(3, 0, 1)
    with pytest.raises(ValueError):
        WOperatorSpec(3, 3, 3)
    with pytest.raises(ValueError):
        WOperatorSpec(3, 2, 1)


def test_records_are_immutable_values():
    spec = WOperatorSpec(5, 2, 4)
    assert spec == WOperatorSpec(r=5, alpha=2, q=4) and spec != WOperatorSpec(5, 2, 3)
    assert hash(spec) == hash(WOperatorSpec(5, 2, 4))
    assert repr(spec) == "WOperatorSpec(r=5, alpha=2, q=4)"
    with pytest.raises(ValueError, match="^alpha must lie in 1..4$"):
        WOperatorSpec(r=5, alpha=5, q=6)
    rep = verify_constraints(3, 4)
    book = constants(3)
    for record, field in ((spec, "alpha"), (rep, "ok"), (book, "r")):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        assert not hasattr(record, "__dict__")
    assert rep == verify_constraints(3, 4) and hash(rep) == hash(verify_constraints(3, 4))
    assert book == constants.__wrapped__(3)


def test_window_guard():
    tau = bgw_tau(3, 2)
    with pytest.raises(WeightExceeded):
        apply_S(tau, WOperatorSpec(3, 1, 3))
    with pytest.raises(WeightExceeded):
        apply_Wred(tau, WOperatorSpec(3, 2, 4))


# -- brute-force oracle ------------------------------------------------------
#
# oracle.py walks the ordered slots of the normal-ordered power literally
# over sympy; it shares no code with the grouped implementation.


def _assert_matches(series, brute, syms):
    eng = oracle.series_to_dict(series, syms)
    for I in set(eng) | set(brute):
        assert sp.expand(eng.get(I, 0) - brute.get(I, 0)) == 0, I


@pytest.mark.parametrize("alpha,q", [(1, 1), (2, 2), (1, 2)])
def test_plain_operator_matches_brute_force(alpha, q):
    tau = bgw_tau(3, 5)
    syms = oracle.symbols_for(3)
    td = oracle.series_to_dict(tau, syms)
    op = WOperatorSpec(3, alpha, q)
    out_cap = tau.cap - op.shift - alpha
    _assert_matches(
        apply_S(tau, op), oracle.brute_plain(td, 3, alpha, q, out_cap, tau.cap), syms
    )


@pytest.mark.parametrize("alpha,q", [(1, 1), (2, 2), (1, 2)])
def test_expanded_power_matches_brute_force(alpha, q):
    tau = bgw_tau(3, 5)
    syms = oracle.symbols_for(3)
    td = oracle.series_to_dict(tau, syms)
    op = WOperatorSpec(3, alpha, q)
    out_cap = tau.cap - op.shift - alpha
    _assert_matches(
        apply_Wred(tau, op),
        oracle.brute_expanded(td, 3, alpha, q, out_cap, tau.cap),
        syms,
    )


def test_operators_match_brute_force_off_solution():
    # an arbitrary series, so agreement cannot hide behind a residual that
    # happens to vanish
    d1, d2 = d(1), d(2)
    coeffs = {
        (): ParamPoly.const("d", 1),
        (1,): d1 + 2,
        (2,): d1 * d1,
        (1, 1): d2 * Fraction(3, 2),
        (1, 2): ParamPoly.const("d", 5),
        (4,): d2 - d1,
        (1, 1, 2): d1 * d2,
        (2, 2): ParamPoly.const("d", -3),
        (1, 1, 1, 1): d2,
    }
    arb = TauSeries("d", 4, coeffs)
    syms = oracle.symbols_for(3)
    td = oracle.series_to_dict(arb, syms)
    for alpha, q in [(1, 1), (2, 2), (1, 2)]:
        op = WOperatorSpec(3, alpha, q)
        out_cap = arb.cap - op.shift - alpha
        _assert_matches(
            apply_S(arb, op),
            oracle.brute_plain(td, 3, alpha, q, out_cap, arb.cap),
            syms,
        )
        _assert_matches(
            apply_Wred(arb, op),
            oracle.brute_expanded(td, 3, alpha, q, out_cap, arb.cap),
            syms,
        )


def test_top_order_expanded_power_matches_brute_force():
    # alpha = 3 is the first power whose expansion contains a genuinely
    # mixed derivative-order monomial (1, 1)
    tau = bgw_tau(4, 5)
    syms = oracle.symbols_for(4)
    td = oracle.series_to_dict(tau, syms)
    _assert_matches(
        apply_Wred(tau, WOperatorSpec(4, 3, 3)),
        oracle.brute_expanded(td, 4, 3, 3, tau.cap - 3, tau.cap),
        syms,
    )


def test_fifth_power_matches_brute_force():
    # alpha = 4 brings the mixed monomials (0, 1, 1) and (1, 2)
    tau = bgw_tau(5, 6)
    syms = oracle.symbols_for(5)
    td = oracle.series_to_dict(tau, syms)
    _assert_matches(
        apply_Wred(tau, WOperatorSpec(5, 4, 4)),
        oracle.brute_expanded(td, 5, 4, 4, tau.cap - 4, tau.cap),
        syms,
    )


def _off_solution(tau):
    # the series with every third coefficient moved, keys unchanged: the
    # constraints no longer hold, so no residual vanishes by accident
    bumped = dict(tau.coeffs)
    for n, key in enumerate(tau.keys()[1::3]):
        bumped[key] = bumped[key] + d(1) * Fraction(n + 1, 7) + Fraction(1, n + 2)
    return TauSeries("d", tau.cap, bumped)


@pytest.mark.parametrize("r", [6, 7])
def test_three_group_monomial_matches_brute_force(r):
    # (0, 1, 2) is the first monomial with three factor groups (orders 0, 1
    # and 2), so the residue pins the differentiation moves of all three
    # together; it enters the degree-6 current power with multiplicity 60
    orders, alpha = (0, 1, 2), 5
    assert dict(_current_monomials(alpha))[orders] == 60
    arb = _off_solution(bgw_tau(r, 8))
    syms = oracle.symbols_for(r)
    out_cap = arb.cap - alpha
    image = {}
    for I in [()] + index_multisets(r, out_cap):
        nums, den = _coefficient_terms(I, r, alpha, orders)
        image[I] = sum((arb.get(J) * Fraction(w * _mult_factorial(J), den)
                        for J, w in nums.items()), ParamPoly.zero("d"))
    brute = oracle.brute_current(oracle.series_to_dict(arb, syms), r, alpha, orders,
                                 out_cap, arb.cap)
    assert brute
    _assert_matches(TauSeries("d", out_cap, image), brute, syms)


def _per_monomial(series, op):
    # one kernel call and one scaled add per current monomial and index
    out_cap = series.cap - op.shift - op.alpha
    balance = op.alpha + op.shift
    out = {}
    for orders, cf in _current_monomials(op.alpha):
        for I in [()] + index_multisets(op.r, out_cap):
            nums, den = _coefficient_terms(I, op.r, balance, orders)
            for J, w in nums.items():
                scale = Fraction(cf * w, (op.alpha + 1) * den) * _mult_factorial(J)
                out[I] = out.get(I, ParamPoly.zero("d")) + series.get(J) * scale
    return {I: v for I, v in out.items() if not v.is_zero()}


@pytest.mark.parametrize("r", [4, 5, 6])
def test_one_pass_kernel_equals_per_monomial_sum(r):
    tau = bgw_tau(r, 8)
    for alpha in range(1, r):
        for q in (alpha, alpha + 1):
            op = WOperatorSpec(r, alpha, q)
            if tau.cap < op.shift + alpha:
                with pytest.raises(WeightExceeded):
                    apply_Wred(tau, op)
                continue
            got = apply_Wred(tau, op)
            assert got.cap == tau.cap - op.shift - alpha
            assert got.coeffs == _per_monomial(tau, op), (alpha, q)


def test_single_factor_monomial_has_no_weight():
    # `_reduced_operator` skips the monomial (alpha,): its moves would need the
    # times k = -(q - alpha) r and k = (q - alpha) r, neither of them valid
    cases = 0
    for r in range(2, 8):
        for alpha in range(1, r):
            for q in range(alpha, alpha + 3):
                for I in [()] + index_multisets(r, 8):
                    form, _ = _coefficient_terms(I, r, alpha + (q - alpha) * r, (alpha,))
                    assert not any(form.values()), (r, alpha, q, I)
                    cases += 1
    assert cases == 3660


def test_monomial_table_matches_independent_recursion():
    for alpha in range(1, 7):
        assert dict(_current_monomials(alpha)) == oracle.power_monomials(alpha)
    assert dict(_current_monomials(1)) == {(0, 0): 1, (1,): 1}
    assert dict(_current_monomials(2)) == {(0, 0, 0): 1, (0, 1): 3, (2,): 1}
    assert dict(_current_monomials(3)) == {
        (0, 0, 0, 0): 1,
        (0, 0, 1): 6,
        (0, 2): 4,
        (1, 1): 3,
        (3,): 1,
    }


# -- action on the constraint solution ---------------------------------------


@pytest.mark.parametrize("r", [2, 3, 4])
def test_first_diagonal_operator_rescales_by_lowest_jet(r):
    tau = bgw_tau(r, 6)
    out = apply_S(tau, WOperatorSpec(r, 1, 1))
    assert _same(out, tau.trim(out.cap).scale(d(1) * Fraction(-1, r)))


@pytest.mark.parametrize("alpha,q", [(1, 2), (1, 3), (2, 3)])
def test_plain_shifted_operators_annihilate(alpha, q, tau3):
    assert apply_S(tau3, WOperatorSpec(3, alpha, q)).is_zero()


def test_highest_plain_operator_fails_to_annihilate(tau4):
    # from the third order on, the plain operator misses the lower-order
    # corrections and leaves a finite residual
    res = apply_S(tau4, WOperatorSpec(4, 3, 4))
    assert not res.is_zero()
    assert str(res.get(())) == (
        "1/4*d3*d1 + 21/4*d3 + 9/64*d2^2 - 15/16*d2*d1 - 63/8*d2"
        " - 1/32*d1^3 - 1/4*d1^2 + 3/2*d1"
    )


def test_reduced_equals_plain_for_first_order(tau3):
    for q in (1, 2):
        op = WOperatorSpec(3, 1, q)
        assert _same(apply_Wred(tau3, op), apply_S(tau3, op))


def test_reduced_diagonal_eigenvalues(tau3):
    rho = rho_in_d(3)
    assert str(rho[1]) == "1/3*d1"
    assert str(rho[2]) == "1/3*d2 + 1/3*d1"
    for alpha in (1, 2):
        out = apply_Wred(tau3, WOperatorSpec(3, alpha, alpha))
        eig = rho[alpha] * (-1) ** alpha
        assert _same(out, tau3.trim(out.cap).scale(eig))


def test_reduced_off_diagonal_annihilates(tau3, tau4):
    assert apply_Wred(tau3, WOperatorSpec(3, 2, 3)).is_zero()
    assert apply_Wred(tau4, WOperatorSpec(4, 3, 4)).is_zero()


def test_raw_eigenvalues_frozen():
    assert {a: str(p) for a, p in rho_in_d(2).items()} == {1: "1/2*d1"}
    assert {a: str(p) for a, p in rho_in_d(3).items()} == {
        1: "1/3*d1",
        2: "1/3*d2 + 1/3*d1",
    }
    assert {a: str(p) for a, p in rho_in_d(4).items()} == {
        1: "1/4*d1",
        2: "1/4*d2",
        3: "1/4*d3 + 3/4*d2 - 1/8*d1^2 - d1",
    }
    assert {a: str(p) for a, p in rho_in_d(5).items()} == {
        1: "1/5*d1",
        2: "1/5*d2 - 1/5*d1",
        3: "1/5*d3 + 3/10*d2 - 1/10*d1^2 - 7/5*d1",
        4: "1/5*d4 + 6/5*d3 - 1/5*d2*d1 - 8/5*d2 - 1/5*d1^2 - 14/5*d1",
    }


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_string_check_is_the_first_reduced_operator(r):
    # the string constraint is the (1, 1) reduced operator: string_residual
    # and apply_Wred compute the same image through two independent
    # implementations, which is why verify prints both lines
    tau = bgw_tau(r, 6)
    for series in (tau, _off_solution(tau)):
        first = apply_Wred(series, WOperatorSpec(r, 1, 1))
        shifted = first + series.trim(series.cap - 1).scale(rho_in_d(r)[1])
        assert string_residual(series, r) == shifted
    assert not string_residual(_off_solution(tau), r).is_zero()


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6, 7])
def test_eigenvalues_match_the_density_series(r):
    # rho_in_d is sigma(c) after c(d), both from the initial point; the
    # diagonal images of the density-built series must carry the same values
    tau = tau_exp(series_from_correlators(connected_correlators_pde(r, r - 1)))
    rho = rho_in_d(r)
    for alpha in range(1, r):
        image = apply_Wred(tau, WOperatorSpec(r, alpha, alpha))
        assert image.get(()) * (-1) ** alpha == rho[alpha], alpha


# -- constant dictionaries ---------------------------------------------------


def test_dictionaries_match_pinned_values():
    two = constants(2)
    assert str(solve_sigma_from_c(2)[1]) == "c1"
    assert str(two.d_c[1]) == "2*c1"

    three = constants(3)
    assert str(solve_sigma_from_c(3)[2]) == "c2 + 2*c1"
    assert str(three.c_d[2]) == "2/3*d2 - 2/3*d1"
    assert str(three.d_c[1]) == "3*c1"
    assert str(three.d_c[2]) == "3/2*c2 + 3*c1"

    four = constants(4)
    assert str(solve_sigma_from_c(4)[2]) == "c2 + 2*c1"
    assert str(solve_sigma_from_c(4)[3]) == "c3 + 9/2*c2 - 3/2*c1^2 + 9/2*c1"
    assert str(four.c_d[3]) == "3/4*d3 - 9/8*d2 - 3/32*d1^2 + 3/8*d1"
    assert str(four.d_c[3]) == "4/3*c3 + 3*c2 + 2*c1^2 + 10*c1"


def test_recursion_dictionaries_above_four_pinned():
    # sigma(c) comes from the weight recursion; captured at r = 6, where every
    # value is also the one of every smaller order that has it
    six = solve_sigma_from_c(6)
    assert {a: str(p) for a, p in six.items()} == {
        1: "c1",
        2: "c2 + 2*c1",
        3: "c3 + 9/2*c2 - 3/2*c1^2 + 9/2*c1",
        4: "c4 + 8*c3 - 4*c2*c1 + 16*c2 - 12*c1^2 + 12*c1",
        5: "c5 + 25/2*c4 - 5*c3*c1 + 125/3*c3 - 5/2*c2^2 - 50*c2*c1 + 50*c2"
           " + 10/3*c1^3 - 75*c1^2 + 125/3*c1",
    }
    for r in range(2, 6):
        assert solve_sigma_from_c(r) == {a: six[a] for a in range(1, r)}, r


@pytest.mark.parametrize("r", [3, 4, 5])
def test_jet_constant_round_trip(r):
    cd = c_from_d(r)
    dc = d_from_c(r)
    for alpha in range(1, r):
        assert dc[alpha].substitute(cd, "d") == d(alpha)
        assert cd[alpha].substitute(dc, "c") == ParamPoly.var("c", alpha)


def test_constants_build_no_hierarchy():
    # c(d) and d(c) come from the value table, so a cold constants(12)
    # never asks for hierarchy(12) (neither hit nor miss)
    constants.cache_clear()
    initial_values.cache_clear()
    before = hierarchy.cache_info()
    book = constants(12)
    assert hierarchy.cache_info() == before  # currsize, hits and misses alike
    assert sorted(book.c_d) == sorted(book.d_c) == list(range(1, 12))


@pytest.mark.parametrize("r", [1, 0, -2])
def test_constants_refuse_orders_below_two(r):
    for build in (c_from_d, d_from_c, solve_sigma_from_c, constants):
        with pytest.raises(ValueError, match="the operator order r must be >= 2"):
            build(r)


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6, 7, 8, 12])
def test_value_ring_equals_symbolic_residues(r):
    # the symbolic residue at the initial jets is the reference
    H = hierarchy(r)
    cd = c_from_d(r)
    assert sorted(cd) == list(range(1, r))
    for a in range(1, r):
        assert cd[a] == evaluate(H.density((a,)), initial_jet), a


@pytest.mark.parametrize("r", range(2, 17))
def test_constants_equal_the_indicial_symbol_calculus(r):
    # res L^(alpha/r) at the initial point from the symbol of R = L^(1/r) on
    # powers of 1 - x: no power table, jet or derivative chain is read
    symbol = oracle.symbol_constants(r)
    for alpha, c in symbol.items():  # leading term alpha/r d_alpha
        assert (c - d(alpha) * Fraction(alpha, r)).max_index() < alpha, alpha
    assert symbol == c_from_d(r)


@pytest.mark.parametrize("r", [3, 4, 5, 6, 7, 8, 12])
def test_closure_solver_matches_full_table(r):
    full = _solve_entries(r, index_multisets(r, r - 1))
    part = _solve_entries(r, [(a,) for a in range(1, r)])
    assert all((a,) in part for a in range(1, r))
    for I, value in part.items():
        assert value == full[I], I
    if r >= 6:
        assert len(part) < len(full)


# -- the weight recursion and the two table routes ---------------------------


def test_recursion_tables_match_pinned_values():
    two = table_in_c(2, 4, "recursion", "disconnected")
    assert str(two.value((1, 1, 1))) == "c1^3 + 3*c1^2 + 2*c1"
    three = table_in_c(3, 4, "recursion", "disconnected")
    assert str(three.value((2, 2))) == "c2^2 - 2*c1^2 - 2*c1"
    conn3 = table_in_c(3, 4, "recursion", "connected")
    assert str(conn3.value((2, 2))) == "-2*c1^2 - 2*c1"
    four = table_in_c(4, 4, "recursion", "disconnected")
    assert str(four.value((2, 2))) == "4*c3 + c2^2 - 2*c1^2 - 2*c1"


def test_recursion_table_carries_sigma_alphabet():
    raw = recursion_correlators(3, 3)
    assert raw.alphabet == "sigma"
    assert str(raw.value((1,))) == "sigma1"


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("kind", ["connected", "disconnected"])
def test_both_routes_agree_at_low_weight(r, kind):
    a = table_in_c(r, 6, "pde", kind)
    b = table_in_c(r, 6, "recursion", kind)
    keys = set(a.values) | set(b.values)
    assert keys
    for I in keys:
        assert a.value(I) == b.value(I), I


def test_routes_agree_for_every_order():
    # the reduced operator's recursion equals the density route entry by
    # entry; (2, 3) at r = 4 is the first entry a recursion on the plain
    # operator alone gets wrong (-6*c2*c1 - 15*c2)
    for r, weight in ((2, 12), (3, 12), (4, 10), (4, 12), (5, 10), (6, 10), (7, 9), (8, 9)):
        for kind in ("connected", "disconnected"):
            pde = table_in_c(r, weight, "pde", kind)
            rec = table_in_c(r, weight, "recursion", kind)
            assert pde.values.keys() == rec.values.keys()
            assert [I for I in pde.values if pde.value(I) != rec.value(I)] == [], (r, kind)
    assert str(table_in_c(4, 5, "recursion").value((2, 3))) == "-6*c2*c1 - 12*c2"


@pytest.mark.parametrize("r", [2, 3])
def test_recursion_route_substitutes_the_connected_table(r):
    # the log is taken in sigma before sigma -> c; taking it in c after the
    # substitution gives the same table
    conn = table_in_c(r, 10, "recursion", "connected")
    disc = table_in_c(r, 10, "recursion", "disconnected")
    via_c = connected_from_disconnected(disc)
    assert (conn.alphabet, conn.kind, conn.cap) == (via_c.alphabet, via_c.kind, via_c.cap)
    assert conn.values == via_c.values


def test_table_in_c_rejects_unknown_path():
    with pytest.raises(ValueError):
        table_in_c(3, 4, "magic")


# -- the adjoint reflection --------------------------------------------------
#
# iota, the linear involution of the d alphabet that reflects the indicial
# polynomial P(lam) -> (-1)^r P(r-1-lam) of L at the initial point (its
# roots mu -> -mu about (r-1)/2), sends <t_I> to (-1)^(|I|+len(I)) <t_I> and
# c_alpha to (-1)^(alpha+1) c_alpha.  Neither rule is an input of either
# route, so both check the power table, the flows and the weight recursion.
# `oracle.reflection` solves iota from P itself.


@pytest.mark.parametrize("r,weight", [(2, 12), (3, 12), (4, 10), (5, 9), (6, 9), (7, 10),
                                      (8, 10)])
@pytest.mark.parametrize("path", ["pde", "recursion"])
@pytest.mark.parametrize("kind", ["connected", "disconnected"])
def test_c_tables_keep_the_reflection_parity(r, weight, path, kind):
    # c_alpha weighs alpha + 1 mod 2 under iota, so every monomial
    # prod c_a^e_a of <t_I> has sum (a + 1) e_a = |I| + len(I) mod 2
    table = table_in_c(r, weight, path, kind)
    assert table.values
    for I, value in table.values.items():
        parities = {sum(a * e for a, e in enumerate(exps, start=2)) % 2 for exps in value.terms}
        assert parities <= {(sum(I) + len(I)) % 2}, (I, str(value))


def test_the_reflection_is_solved_from_the_indicial_polynomial():
    # pins of the solve; iota fixes d1, is the identity at r = 2, and is an
    # involution at every order
    pins = {
        2: {1: d(1)},
        3: {1: d(1), 2: d(1) * 2 - d(2)},
        4: {1: d(1), 2: d(1) * 4 - d(2), 3: d(3) - d(2) * 3 + d(1) * 6},
        5: {1: d(1), 2: d(1) * 6 - d(2), 3: d(3) - d(2) * 6 + d(1) * 18,
            4: -d(4) + d(3) * 4 - d(2) * 12 + d(1) * 24},
    }
    for r, iota in pins.items():
        assert oracle.reflection(r) == iota, r
    for r in range(2, 9):
        iota = oracle.reflection(r)
        assert {a: p.substitute(iota, "d") for a, p in iota.items()} == {
            a: d(a) for a in range(1, r)}, r


@pytest.mark.parametrize("r,weight", [(2, 12), (3, 14), (4, 12), (5, 12), (6, 12), (7, 10),
                                      (8, 10)])
def test_density_tables_change_sign_under_the_reflection(r, weight):
    iota = oracle.reflection(r)
    table = connected_correlators_pde(r, weight)
    assert table.values
    for I, value in table.values.items():
        assert value.substitute(iota, "d") == value * (-1) ** (sum(I) + len(I)), I
    for alpha, c in c_from_d(r).items():
        assert c.substitute(iota, "d") == c * (-1) ** (alpha + 1), alpha


# -- the eigenvalues through the indicial roots --------------------------------
#
# p_k, the power sums of the centred indicial roots (`oracle.centred_power_sums`),
# are polynomials in d with p_1 = 0.  r rho_alpha is affine-linear in
# p_2..p_(alpha+1), with no product of power sums.


def _closed_forms(r):
    """alpha -> (b_alpha(r), {k: a_(alpha,k)(r)}) where known in closed form
    (alpha <= 4); each was found from the fewest orders."""
    s = Fraction(r * (r * r - 1))
    return {1: (s / 24, {2: Fraction(-1, 2)}),
            2: (s / 12, {2: -1}),
            3: (-s * (7 * r * r - 223) / 960, {2: Fraction(r * r - 23, 8)}),
            4: (-s * (7 * r * r - 103) / 120, {2: r * r - 11, 3: Fraction(43 - r * r, 6)})}


@pytest.mark.parametrize("r", range(2, 11))
def test_eigenvalues_are_affine_in_the_centred_power_sums(r):
    # r rho_alpha = b + sum_(k=2..alpha+1) a_k p_k by one exact solve per
    # alpha; the top two coefficients do not depend on r
    p = oracle.centred_power_sums(r)
    assert p[1].is_zero()
    rho = rho_in_d(r)
    closed = _closed_forms(r)
    for alpha in range(1, r):
        b, *coords = oracle.affine_coordinates(rho[alpha] * r, [p[k] for k in range(2, alpha + 2)])
        a = dict(enumerate(coords, start=2))
        assert a[alpha + 1] == Fraction((-1) ** alpha, alpha + 1), alpha
        if alpha >= 2:
            assert a[alpha] == Fraction((-1) ** (alpha + 1) * alpha, 2), alpha
        if alpha in closed:
            assert (b, {k: a[k] for k in closed[alpha][1]}) == closed[alpha], alpha


# -- the verification sweep --------------------------------------------------


def test_verification_report_all_pass():
    rep = verify_constraints(3, 6)
    assert rep.ok
    assert rep.lines[0] == "r=3 string window=5 PASS"
    assert "r=3 alpha=1 q=1 window=5 PASS" in rep.lines
    assert "r=3 alpha=1 q=3 window=-1 PASS" in rep.lines  # vacuous window
    assert all(line.endswith("PASS") for line in rep.lines)
    assert rep.text() == "\n".join(rep.lines)


@pytest.mark.parametrize("r", [5, 6, 7, 8])
def test_verification_passes_with_mixed_monomials(r):
    # alpha = 4, 5 are the first powers with monomials such as (0, 1, 1)
    # and (1, 2); every check of the sweep must still pass
    rep = verify_constraints(r, 8)
    assert rep.ok, [line for line in rep.lines if "FAIL" in line]
    assert f"r={r} alpha=4 q=4 window=4 PASS" in rep.lines


def test_verification_detects_corruption():
    tau = bgw_tau(3, 6)
    coeffs = dict(tau.coeffs)
    key = max(coeffs, key=lambda I: (sum(I), I))
    coeffs[key] = coeffs[key] + Fraction(1, 7)
    rep = verify_constraints(3, 6, tau=TauSeries("d", 6, coeffs))
    assert not rep.ok
    bad = [line for line in rep.lines if "FAIL" in line]
    assert bad and all("residual=" in line for line in bad)


def test_verification_builds_each_raw_image_once(monkeypatch):
    # one reduced operator per check: no check builds a second image
    tau = bgw_tau(4, 10)
    seen = []
    real = wconstraints.apply_Wred

    def counting(series, op):
        seen.append(op)
        return real(series, op)

    monkeypatch.setattr(wconstraints, "apply_Wred", counting)
    assert verify_constraints(4, 10, tau=tau).ok
    assert len(seen) == len(set(seen)) == 8  # one per non-vacuous (alpha, q)


def test_verification_solves_the_one_point_closure_once(monkeypatch):
    # rho_in_d is memoised per (r, top), so the diagonal checks of every
    # alpha share one solve of sigma(c), bounded by the last alpha with a
    # window (alpha <= weight)
    calls = []
    real = wconstraints.solve_sigma_from_c

    def counting(r, top=None):
        calls.append((r, top))
        return real(r, top)

    monkeypatch.setattr(wconstraints, "solve_sigma_from_c", counting)
    wconstraints._rho_in_d.cache_clear()
    try:
        assert verify_constraints(8, 8).ok
        assert verify_constraints(12, 3).ok
    finally:
        wconstraints._rho_in_d.cache_clear()
    assert calls == [(8, 7), (12, 3)]


@pytest.mark.parametrize("r", [3, 5, 8])
def test_bounded_constants_are_the_leading_whole_ones(r):
    # c_alpha(d), sigma_alpha(c) and rho_alpha(d) read nothing above alpha,
    # so a bound only drops the higher alphas; rho_in_d memoises the
    # resolved bound, so the default shares the entry of top = r - 1
    for build in (c_from_d, solve_sigma_from_c, rho_in_d):
        whole = build(r)
        for top in range(1, r):
            assert build(r, top) == {a: whole[a] for a in range(1, top + 1)}, (build, top)
    assert rho_in_d(r) is rho_in_d(r, r - 1)


@pytest.mark.parametrize("r, top", [(3, 3), (4, 9), (3, 0), (5, -1)])
def test_a_top_outside_the_orders_is_refused(r, top):
    # one rule for every bounded constant: 1 <= top <= r - 1, refused before
    # the closure or the value table is read
    for build in (c_from_d, solve_sigma_from_c, rho_in_d):
        with pytest.raises(ValueError, match=f"top must lie in 1..{r - 1}, not {top}"):
            build(r, top)


def test_verification_rejects_wrong_alphabet():
    stub = TauSeries("c", 2, {(): ParamPoly.const("c", 1)})
    with pytest.raises(ValueError):
        verify_constraints(3, 2, tau=stub)


# -- the stable range --------------------------------------------------------


def test_stabilized_values_frozen():
    expected = {
        (1,): "c1",
        (2,): "c2",
        (1, 1): "c1",
        (3,): "c3",
        (1, 2): "2*c2",
        (1, 1, 1): "2*c1",
        (4,): "c4",
        (1, 3): "3*c3",
        (2, 2): "4*c3 - 2*c1^2 - 2*c1",
        (1, 1, 2): "6*c2",
        (1, 1, 1, 1): "6*c1",
        (5,): "c5",
        (2, 3): "6*c4 - 6*c2*c1 - 12*c2",
    }
    for I, text in expected.items():
        assert str(stabilized_correlators(I)) == text, I


def test_stabilized_guards():
    with pytest.raises(ValueError):
        stabilized_correlators(())
    with pytest.raises(ValueError):
        stabilized_correlators((0, 2))
    with pytest.raises(ValueError):
        stabilized_correlators((-1,))
