"""Initial data, the density-route correlators, and tau-series plumbing."""

import itertools
from fractions import Fraction

import pytest
import sympy as sp

import oracle
from conftest import bgw_tau, conn_table
from gdtau import (
    CorrelatorTable,
    DiffPoly,
    Hierarchy,
    ParamPoly,
    TauSeries,
    bgw,
    connected_correlators_pde,
    connected_from_disconnected,
    disconnected_from_connected,
    gd_flow,
    hierarchy,
    index_multisets,
    log_tau,
    pde_correlator,
    recursion_correlators,
    series_from_correlators,
    stabilized_correlators,
    string_residual,
    tau_exp,
)
from gdtau.bgw import correlators_from_series, valid_multisets, _mult_factorial
from gdtau.errors import AlphabetMismatch, IndexDivisible, WeightExceeded
from gdtau.hierarchy import initial_jet, initial_values


def d(i):
    return ParamPoly.var("d", i)


# -- initial jets -------------------------------------------------------------


def test_jet_values():
    assert initial_jet(1, 0) == d(1)
    assert initial_jet(1, 1) == d(1) * 2
    assert initial_jet(2, 2) == d(2) * 12


def test_jet_values_match_symbolic_derivatives():
    # v_a(x) = d_a (1-x)^(-a-1); the k-th derivative at x=0 must agree
    x = sp.Symbol("x")
    for a in (1, 2, 3):
        profile = (1 - x) ** (-a - 1)
        for k in range(5):
            want = int(sp.diff(profile, x, k).subs(x, 0))
            got = initial_jet(a, k)
            assert got == d(a) * want, (a, k)


def test_jet_variable_range_guard():
    # v3 has no value at r = 3, and no jet has a negative derivative order
    for a, k in ((3, 0), (1, -1), (2, -2)):
        with pytest.raises(ValueError):
            initial_values(3).t_derivative_value(DiffPoly.jet(a, k), 2)


def test_jets_evaluate_diffpoly():
    p = DiffPoly.jet(1, 1) * DiffPoly.jet(2, 0)
    assert oracle.evaluate(p, initial_jet) == d(1) * d(2) * 2


# -- index bookkeeping -----------------------------------------------------------


def test_index_multisets_order_and_content():
    got = index_multisets(2, 4)
    assert got == [(1,), (1, 1), (1, 1, 1), (3,), (1, 1, 1, 1), (1, 3)]
    assert all(i % 3 for I in index_multisets(3, 7) for i in I)


def _brute_multisets(r, length, total):
    """Valid ascending tuples of one length by an independent filter."""
    valid = [i for i in range(1, total + 1) if i % r]
    return [K for K in itertools.combinations_with_replacement(valid, length)
            if sum(K) == total]


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_valid_multisets_match_brute_force(r):
    for total in range(11):
        every = []
        for length in range(5):
            got = valid_multisets(r, total, length)
            assert list(got) == _brute_multisets(r, length, total), (length, total)
            every += got
        # any length: the union over lengths, in increasing order
        assert [K for K in valid_multisets(r, total) if len(K) <= 4] == sorted(every)
    # an empty length fits only the empty sum; a negative sum fits nothing
    assert valid_multisets(r, 0, 0) == ((),)
    assert valid_multisets(r, 3, 0) == ()
    assert valid_multisets(r, 0) == ((),)
    assert valid_multisets(r, -1, 2) == ()
    # bounded sums: index_multisets is every fixed sum up to the bound
    for bound in range(9):
        want = [K for length in range(1, bound + 1) for total in range(bound + 1)
                for K in _brute_multisets(r, length, total)]
        assert index_multisets(r, bound) == sorted(want, key=lambda K: (sum(K), K))


def test_enumerator_refuses_orders_below_two():
    for r in (0, 1):
        for enumerate_indices in (lambda: valid_multisets(r, 3),
                                  lambda: index_multisets(r, 3),
                                  lambda: index_multisets(r, 1),
                                  lambda: index_multisets(r, 0),
                                  lambda: index_multisets(r, -1),
                                  lambda: connected_correlators_pde(r, 3),
                                  lambda: recursion_correlators(r, 3)):
            with pytest.raises(ValueError, match="r must be >= 2"):
                enumerate_indices()


# -- the density route -------------------------------------------------------------


def test_one_point_values():
    for r in (2, 3, 4):
        assert pde_correlator(r, (1,)) == d(1) * Fraction(1, r)


def test_r2_weight3_one_point():
    # equals c1(c1+1)/2 with c1 = d1/2
    assert pde_correlator(2, (3,)) == d(1) ** 2 * Fraction(1, 8) + d(1) * Fraction(1, 4)


def test_r3_two_point():
    # equals -2 c1 (c1+1) with c1 = d1/3
    want = d(1) ** 2 * Fraction(-2, 9) + d(1) * Fraction(-2, 3)
    assert pde_correlator(3, (2, 2)) == want


def test_seed_pair_independence():
    # Omega of any two insertions, differentiated along the others, gives
    # the same value as the default seed (the two smallest)
    for r, I in ((3, (1, 1, 2)), (3, (1, 2, 2)), (4, (1, 2, 3)), (3, (1, 1, 2, 2))):
        H = hierarchy(r)
        default = pde_correlator(r, I)
        for si in range(len(I)):
            for sj in range(si + 1, len(I)):
                density = oracle.omega(r, I[si], I[sj])
                for k in I[:si] + I[si + 1:sj] + I[sj + 1:]:
                    density = H.t_derivative(density, k)
                got = oracle.evaluate(density, initial_jet)
                assert got == default, (r, I, (I[si], I[sj]))


def test_omega_is_the_reference_of_the_density_route():
    # the table divides the value of a residue's t-derivatives by the
    # weight; the reference takes the antiderivative Omega of the first pair
    # and moves it along the other flows, with no division
    checked = 0
    for r, top in ((3, 9), (4, 9), (5, 8)):
        H = hierarchy(r)
        for I in index_multisets(r, top):
            if len(I) < 2 or 1 in I:
                continue
            density = oracle.omega(r, I[0], I[1])
            for k in I[2:]:
                density = H.t_derivative(density, k)
            assert pde_correlator(r, I) == oracle.evaluate(density, initial_jet), (r, I)
            checked += 1
    assert checked == 37


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_density_route_without_integration(r):
    # d/dx Omega_ij = d/dt_j res_i, and at the initial point d/dx of a
    # weight-W density evaluates to W times its value, so for every i in I
    # E(d/dt_(I minus i) res_i) = |I| <tau_I>, with no antiderivative taken
    H = hierarchy(r)
    table = conn_table(r, 8)
    for I in index_multisets(r, 8):
        if len(I) < 2:
            continue
        for i in sorted(set(I)):
            rest = list(I)
            rest.remove(i)
            density = H.density((i,))
            for k in rest:
                density = H.t_derivative(density, k)
            assert oracle.evaluate(density, initial_jet) == table.value(I) * sum(I), (I, i)


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_index_one_entries_match_flow_one(r):
    # the table takes every entry with an index 1 from the rising-factor
    # rule; here each one goes through Omega_{1,j} and the t-derivatives
    H = hierarchy(r)
    table = conn_table(r, 10)
    checked = 0
    for I in index_multisets(r, 10):
        if I[0] != 1 or len(I) < 2:
            continue
        density = oracle.omega(r, 1, I[1])
        for k in I[2:]:
            density = H.t_derivative(density, k)
        assert oracle.evaluate(density, initial_jet) == table.value(I), I
        checked += 1
    assert checked > 0


@pytest.mark.parametrize("r", [3, 4])
def test_entries_in_reverse_order_match_the_table(r, monkeypatch):
    # a cold private hierarchy asked for the heaviest entries first: each
    # builds the densities of its index prefixes on the way, and no value
    # may depend on the order the table sweeps in
    table = conn_table(r, 10)
    H = Hierarchy(r)
    monkeypatch.setattr(bgw, "hierarchy", lambda order: H)
    for I in reversed(table.keys()):
        assert pde_correlator(r, I) == table.value(I), I
    assert H._densities  # prefix densities were built and kept


def test_last_flow_is_read_on_values(monkeypatch):
    # connected_correlators_pde(4, 12) built 52 t-derivatives and x-derivative
    # chains of total length 103 when every entry's last flow was a DiffPoly;
    # now only the memoised prefix densities take a t_derivative
    H = Hierarchy(4)
    monkeypatch.setattr(bgw, "hierarchy", lambda order: H)
    calls = []
    build = Hierarchy.t_derivative

    def counted(self, p, j):
        calls.append(j)
        return build(self, p, j)

    monkeypatch.setattr(Hierarchy, "t_derivative", counted)
    assert connected_correlators_pde(4, 12).values == conn_table(4, 12).values
    assert len(calls) == sum(len(I) >= 2 for I in H._densities) == 11
    assert sum(len(chain) for chain in H._flow_derivs.values()) <= 37


def test_divisible_index_rejected():
    with pytest.raises(IndexDivisible):
        pde_correlator(3, (3,))


def test_index_below_one_rejected():
    for bad in ((0,), (0, 2), (-1, 2), (-1, 1, 4)):
        with pytest.raises(ValueError, match=f"bad index {bad[0]}"):
            pde_correlator(3, bad)


def test_correlator_degrees_are_bounded():
    # the time shift mixes parameter weights, but never above weight+1 and
    # never below the lightest parameter
    table = conn_table(3, 6)
    for I in table.keys():
        degs = oracle.param_degrees(table.value(I))
        assert degs and min(degs) >= 2 and max(degs) <= sum(I) + 1, (I, degs)


def test_table_starts_at_weight_one():
    for r in (2, 3, 5):
        table = connected_correlators_pde(r, 1)
        assert table.cap == 1
        assert table.values == {(1,): d(1) * Fraction(1, r)}
    for bad in (0, -1):
        with pytest.raises(ValueError, match="max_weight >= 1"):
            connected_correlators_pde(3, bad)


# -- the one index rule -----------------------------------------------------------

# every entry point that takes insertion indices, called with one bad index
# b next to a good one; r = 3 throughout
INDEX_ENTRIES = {
    "LaxOperator.flow": lambda b: hierarchy(3).flow(b),
    "LaxOperator.residue": lambda b: hierarchy(3).residue(b),
    "InitialValues.residue": lambda b: initial_values(3).residue(b),
    "InitialValues.flow": lambda b: initial_values(3).flow(b),
    "Hierarchy.density": lambda b: hierarchy(3).density((2, b)),
    "Hierarchy.t_derivative": lambda b: hierarchy(3).t_derivative(DiffPoly.const(5), b),
    # the value chain rule, InitialValues.t_derivative_value; key kept for stable test ids
    "Hierarchy.t_derivative_value": lambda b: initial_values(3).t_derivative_value(DiffPoly.const(5), b),
    "pde_correlator": lambda b: pde_correlator(3, (2, b)),
    "CorrelatorTable": lambda b: CorrelatorTable(3, 6, "d", "connected", {(2, b): d(1)}),
    "CorrelatorTable.value": lambda b: CorrelatorTable(3, 6, "d", "connected", {}).value((2, b)),
    "stabilized_correlators": lambda b: stabilized_correlators((2, b)),
}


@pytest.mark.parametrize("entry,bad", [
    (entry, bad) for entry in sorted(INDEX_ENTRIES) for bad in (0, -1, 3, 6)
    # the stable orders exceed the total weight, so they divide no index
    if bad < 1 or entry != "stabilized_correlators"
])
def test_one_index_rule_for_every_entry_point(entry, bad):
    expected = ((ValueError, f"bad index {bad}") if bad < 1
                else (IndexDivisible, f"index {bad} is a multiple of 3"))
    with pytest.raises(Exception) as err:
        INDEX_ENTRIES[entry](bad)
    assert (type(err.value), str(err.value)) == expected


def test_orders_below_two_have_no_times():
    for r in (0, 1):
        with pytest.raises(ValueError, match="r must be >= 2"):
            pde_correlator(r, (1,))
        with pytest.raises(ValueError, match="r must be >= 2"):
            CorrelatorTable(r, 3, "d", "connected", {(1,): d(1)})
        with pytest.raises(ValueError, match="bad index 0"):  # the index is named first
            pde_correlator(r, (0,))


def test_table_holds_nothing_above_its_cap():
    with pytest.raises(WeightExceeded, match="weight 5 exceeds this table's cap 2"):
        CorrelatorTable(3, 2, "d", "connected", {(5,): d(1)})
    for bad in (0, -3):
        with pytest.raises(ValueError, match="max_weight >= 1"):
            CorrelatorTable(3, bad, "d", "connected", {})
        with pytest.raises(ValueError, match="max_weight >= 1"):
            recursion_correlators(3, bad)


def test_table_guards():
    table = conn_table(3, 6)
    with pytest.raises(WeightExceeded):
        table.value((5, 2))
    with pytest.raises(IndexDivisible):
        table.value((3,))
    with pytest.raises(ValueError):
        table.value(())


# -- series plumbing ------------------------------------------------------------


def test_series_cap_is_enforced():
    s = TauSeries("d", 3, {(1,): d(1)})
    with pytest.raises(WeightExceeded):
        s.get((1, 3))
    with pytest.raises(WeightExceeded):
        s.trim(5)
    assert s.trim(1).cap == 1


def test_series_drops_overweight_and_zero_coefficients():
    s = TauSeries("d", 2, {(1, 1, 1): d(1), (1,): ParamPoly.zero("d"), (2,): 5})
    assert s.coeffs == {(2,): ParamPoly.const("d", 5)}


def test_series_refuses_indices_below_one():
    for bad in ((0,), (2, 0), (-1, 3)):
        with pytest.raises(ValueError):
            TauSeries("d", 2, {bad: 1})
    with pytest.raises(ValueError):  # refused even past the cap
        TauSeries("d", 1, {(0, 5): 1})


def test_series_lookup_refuses_indices_below_one():
    s = TauSeries("d", 3, {(1,): 1})
    for bad in ((0, 1), (0,), (-2, 3)):
        with pytest.raises(ValueError):
            s.get(bad)


def test_series_adds_reordered_duplicate_keys():
    s = TauSeries("d", 3, {(1, 2): 1, (2, 1): 1})
    assert s.coeffs == {(1, 2): ParamPoly.const("d", 2)}
    assert TauSeries("d", 3, {(1, 2): d(1), (2, 1): -d(1)}).is_zero()


def test_series_store_the_coefficients_they_are_given():
    p = d(1) * d(2) - Fraction(1, 3)
    assert TauSeries("d", 3, {(1, 2): p}).coeffs[(1, 2)] is p
    assert TauSeries("d", 3, {(2, 1): p}).coeffs[(1, 2)] is p
    s = TauSeries("d", 3, {(2, 1): p, (1, 2): d(2), (1,): d(1), (1, 1): d(1) * 2,
                           (1, 1, 1): -d(1) * 2, (3,): 0, (2, 2): d(1), (4,): 1})
    # reordered duplicates sum, zero sums and zeros vanish, keys above the cap
    # are dropped
    assert s.coeffs == {(1, 2): p + d(2), (1,): d(1), (1, 1): d(1) * 2, (1, 1, 1): -d(1) * 2}
    assert TauSeries("d", 3, {(2, 1): d(1), (1, 2): -d(1), (1,): d(2)}).coeffs == {(1,): d(2)}
    assert TauSeries("d", 2, {(2, 1): p, (1, 2): p}).is_zero()


def test_string_residual_of_a_perturbed_series_matches_the_reference():
    tau = bgw_tau(3, 7)
    assert string_residual(tau, 3).is_zero()
    bumped = dict(tau.coeffs)
    for I, bump in (((1,), Fraction(1, 7)), ((2, 4), d(1) * d(2)), ((1, 5), -d(2)),
                    ((1, 1, 2), Fraction(-3, 2)), ((1, 1, 1, 1, 2), d(1)), ((7,), d(2) ** 2)):
        bumped[I] = bumped.get(I, 0) + bump
    res = string_residual(TauSeries("d", 7, bumped), 3)
    want = oracle.string_residual_reference(TauSeries("d", 7, bumped), d(1) * Fraction(1, 3))
    assert res.cap == 6 and len(want) > 3
    assert res.coeffs == want
    c1, c2 = ParamPoly.var("c", 1), ParamPoly.var("c", 2)
    c_series = TauSeries("c", 5, {(): 1, (1,): c1, (1, 1): c1 * c2 - 2, (2,): Fraction(3, 5),
                                  (1, 2): c2, (1, 1, 1, 2): c1 ** 2, (4,): c2 * Fraction(-1, 4)})
    want = oracle.string_residual_reference(c_series, c1)
    assert string_residual(c_series, 3).coeffs == want and len(want) > 3


def test_correlator_table_refuses_duplicate_keys():
    with pytest.raises(ValueError):
        CorrelatorTable(3, 3, "d", "connected", {(1, 2): d(1), (2, 1): d(2)})


def test_correlator_table_refuses_invalid_keys():
    with pytest.raises(IndexDivisible):
        CorrelatorTable(3, 4, "d", "connected", {(3,): ParamPoly.const("d", 5)})
    for bad in ((0, 2), (-1,), ()):
        with pytest.raises(ValueError):
            CorrelatorTable(3, 4, "d", "connected", {bad: ParamPoly.const("d", 1)})


def test_containers_refuse_coefficients_over_another_alphabet():
    c = TauSeries("c", 3, {(1,): ParamPoly.var("c", 1)})
    other = TauSeries("d", 3, {(2,): d(1)})  # no key in common with c
    for build in (lambda: TauSeries("c", 3, {(1,): d(1)}),
                  lambda: TauSeries("c", 1, {(2,): d(1)}),  # refused past the cap too
                  lambda: c + other,
                  lambda: other + c,
                  lambda: c - other,
                  lambda: other - c,
                  lambda: CorrelatorTable(3, 3, "c", "connected", {(1,): d(2)})):
        with pytest.raises(AlphabetMismatch):
            build()
    assert (c + c).get((1,)) == ParamPoly.var("c", 1) * 2


def test_series_sum_takes_shallower_cap():
    a = TauSeries("d", 5, {(1,): 1})
    b = TauSeries("d", 3, {(1,): 2})
    assert (a + b).cap == 3
    assert (a + b).get((1,)) == 3


def test_series_difference_is_taken_key_by_key():
    p = d(1) * d(2) - Fraction(1, 3)
    a = TauSeries("d", 5, {(1,): p, (2,): d(1), (1, 2): d(2)})
    b = TauSeries("d", 4, {(1,): p, (2,): d(2), (3,): d(1) * 2})
    diff = a - b
    # (1,) cancels to zero and is dropped; (3,) lives only in the subtrahend
    assert diff.cap == 4
    assert diff.coeffs == {(2,): d(1) - d(2), (1, 2): d(2), (3,): d(1) * -2}
    assert diff.coeffs[(1, 2)] is a.coeffs[(1, 2)]  # a key b lacks is kept as given
    assert (a - a).is_zero()


def test_exp_log_round_trip():
    logt = series_from_correlators(conn_table(3, 6))
    tau = tau_exp(logt)
    assert tau.constant() == 1
    back = log_tau(tau)
    assert back == logt


def test_exp_requires_zero_constant():
    with pytest.raises(ValueError):
        tau_exp(TauSeries.one("d", 3))
    with pytest.raises(ValueError):
        log_tau(TauSeries("d", 3, {(1,): 1}))


def _oracle_sample(r, cap, alphabet):
    """A ParamPoly coefficient at every valid key of weight <= cap."""
    return TauSeries(alphabet, cap, {
        I: ParamPoly(alphabet, {(): Fraction(n % 5 - 2, 3), (1,): 1,
                                (0, n % 2): Fraction(1, n + 1)})
        for n, I in enumerate(index_multisets(r, cap))
    })


def _assert_matches_oracle(got, series, take_log, syms):
    want = oracle.exp_log_coefficients(series, take_log, syms)
    have = oracle.series_to_dict(got, syms)
    assert got.cap == series.cap
    assert set(have) == set(want)
    for I in want:
        assert sp.expand(have[I] - want[I]) == 0, I


@pytest.mark.parametrize(
    "r, cap, alphabet, coeffs",
    [
        (3, 8, "d", None),  # every valid key of weight <= 8
        (4, 6, "c", None),
        (3, 0, "d", {}),
        (3, 7, "d", {(2, 5): ParamPoly.var("d", 2) * Fraction(-3, 4)}),  # top weight only
    ],
)
def test_exp_and_log_match_sympy(r, cap, alphabet, coeffs):
    syms = oracle.symbols_for(r, alphabet)
    log_series = (_oracle_sample(r, cap, alphabet) if coeffs is None
                  else TauSeries(alphabet, cap, coeffs))
    _assert_matches_oracle(tau_exp(log_series), log_series, False, syms)
    # log of a generic series with unit constant term, not an exp image
    tau_series = log_series + TauSeries.one(alphabet, cap)
    _assert_matches_oracle(log_tau(tau_series), tau_series, True, syms)


def test_log_tau_linear_coefficient():
    for r in (2, 3, 4):
        logt = series_from_correlators(conn_table(r, 2))
        assert logt.get((1,)) == d(1) * Fraction(1, r)


def test_r2_tau_second_coefficient():
    # <t1 t1>* = c1(c1+1) with c1 = d1/2; the series stores it over 2!
    tau = bgw_tau(2, 4)
    want = (d(1) ** 2 * Fraction(1, 4) + d(1) * Fraction(1, 2)) * Fraction(1, 2)
    assert tau.get((1, 1)) == want


def test_moment_cumulant_round_trip():
    conn = conn_table(3, 6)
    disc = disconnected_from_connected(conn)
    back = connected_from_disconnected(disc)
    for I in conn.keys():
        assert back.value(I) == conn.value(I), I


def test_disconnected_values_are_tau_derivatives():
    conn = conn_table(3, 5)
    disc = disconnected_from_connected(conn)
    tau = bgw_tau(3, 5)
    for I in disc.keys():
        assert disc.value(I) == tau.get(I) * _mult_factorial(I), I


def test_correlators_from_series_inverts():
    conn = conn_table(2, 5)
    series = series_from_correlators(conn)
    back = correlators_from_series(series, 2, "connected")
    assert back.values == conn.values


# -- the weight-one constraint ------------------------------------------------------


def test_string_residual_vanishes_on_tau():
    for r in (2, 3):
        res = string_residual(bgw_tau(r, 6), r)
        assert res.is_zero(), res.first_nonzero()


def test_string_residual_detects_wrong_normalization():
    res = string_residual(TauSeries.one("d", 3), 2)
    first = res.first_nonzero()
    assert first is not None
    assert first[0] == ()
    assert first[1] == d(1) * Fraction(1, 2)


def test_variable_level_string_relation():
    # at the initial point: -(d/dt_1) v_a + (a+1) v_a = 0 once jets are set
    for a in (1, 2, 3):
        combo = gd_flow(4, 1)[a] * (-1) + DiffPoly.jet(a, 0) * (a + 1)
        assert oracle.evaluate(combo, initial_jet).is_zero(), a
