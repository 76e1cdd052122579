"""Tau data at the distinguished initial point.

The initial point fixes every jet: v_a^(k) evaluates to d_a (a+1)(a+2)...(a+k)
with one free parameter d_a per variable (`hierarchy.initial_jet`).  All correlators are weighted-
homogeneous-in-spirit tables of exact polynomials in whichever parameter
alphabet is in play: `d` (jet parameters), `c` (single-correlator constants),
or `sigma` (constraint eigenvalue constants).

Correlators of weight W come in two kinds:

* connected  <tau_I>  — from residues and their t-derivatives evaluated at
  the initial jets (the PDE route), or from the weight recursion (see
  wconstraints);
* disconnected <tau_I>* — moments of the tau function itself.

The tau function is handled as a truncated series in the times: TauSeries
stores the *monomial* coefficient a_I of prod(t_i for i in I), so the
disconnected correlator is a_I times the product of multiplicities factorial.
Keys are multisets of time indices >= 1; t_i has weight i.  Series and
tables are listed in one entry order, by weight and then by index tuple.

A correlator's insertions obey the one index rule of the hierarchy
(`hierarchy.check_index`: i >= 1, r not dividing i), whether it is computed
(`pde_correlator`), stored in a table or looked up.  Tables start at weight 1:
the weight-1 table holds <tau_1> = d_1 / r alone.

exp and log move between the two kinds through the Euler operator
E = sum_i i t_i d/dt_i, which multiplies a weight-w part by w.  From
E(tau) = tau E(log tau), with F_k and T_k the weight-k parts of log tau and
tau and T_0 = 1,

    w T_w = sum_{k=1..w} k F_k T_(w-k),

so with S_w = (1/w) sum_{0<k<w} k F_k T_(w-k) exp sets T_w = F_w + S_w and
log sets F_w = T_w - S_w, each weight once, in increasing order.

The density route takes no flow for an insertion of index 1: t_1 is x, and
at the initial point d/dx multiplies a weight-W value by W, so
<tau_1^m tau_J> is |J| (|J|+1) ... (|J|+m-1) <tau_J> (see pde_correlator).
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import cache
from typing import Iterable, Mapping, Optional, Union

from .algebra import (ParamPoly, _add_coef, _add_coef_product, _add_param_product, _add_terms,
                      _coef_over, _wrap_coefs, _wrap_param)
from .errors import WeightExceeded
from .hierarchy import check_index, hierarchy, initial_values

Rat = Union[int, Fraction]
Index = tuple[int, ...]


# --------------------------------------------------------------------------
# index bookkeeping
# --------------------------------------------------------------------------


@cache
def valid_multisets(r: int, total: int, length: Optional[int] = None) -> tuple[Index, ...]:
    """Ascending tuples of valid indices (>= 1, not divisible by r) summing
    to `total`, of the given length (any length when None), in increasing
    order.  The one enumerator of index multisets."""
    if r < 2:
        raise ValueError("the operator order r must be >= 2")
    out: list[Index] = []

    def rec(prefix: Index, start: int, left: int) -> None:
        if length is None:
            if not left:
                out.append(prefix)
            top = left
        else:
            slots = length - len(prefix)
            if not slots:
                if not left:
                    out.append(prefix)
                return
            top = left // slots
        for i in range(start, top + 1):
            if i % r:
                rec(prefix + (i,), i, left - i)

    if total >= 0:
        rec((), 1, total)
    return tuple(out)


def index_multisets(r: int, max_weight: int) -> list[Index]:
    """Nonempty ascending tuples of valid indices with total <= max_weight,
    in entry order."""
    if r < 2:
        raise ValueError("the operator order r must be >= 2")
    return [I for w in range(1, max_weight + 1) for I in valid_multisets(r, w)]


def entry_order(I: Index) -> tuple[int, Index]:
    """Sort key of series and table entries: weight, then the tuple."""
    return sum(I), I


def _normalize(indices: Iterable[int]) -> Index:
    return tuple(sorted(indices))


def correlator_key(r: int, indices: Iterable[int]) -> Index:
    """The ascending tuple of a correlator's insertions: nonempty, each index
    valid for order r (`check_index`)."""
    I = _normalize(indices)
    if not I:
        raise ValueError("correlators need at least one insertion")
    for i in I:
        check_index(r, i)
    return I


def _series_key(indices: Iterable[int]) -> Index:
    """A series key: the ascending tuple of time indices, each >= 1."""
    I = _normalize(indices)
    if I and I[0] < 1:
        raise ValueError(f"bad index {I[0]}: time indices start at 1")
    return I


@cache
def _mult_factorial(I: Index) -> int:
    """prod of m! over the multiplicities m of I.  Memoised: the constraint
    kernel asks for the same few multisets many times over."""
    out = 1
    for m in Counter(I).values():
        out *= math.factorial(m)
    return out


# --------------------------------------------------------------------------
# truncated series in the times
# --------------------------------------------------------------------------


class TauSeries:
    """Series sum_I a_I t^I known exactly for all weights <= cap.

    Keys are ascending index tuples; t^I is the plain monomial (no
    multiplicity factorials — those belong to the correlator dictionary).
    Indices below 1 are refused.  Each coefficient is stored as given: keys
    naming the same multiset add up, and zero sums and keys above the cap
    are dropped.
    """

    __slots__ = ("alphabet", "cap", "coeffs")

    def __init__(self, alphabet: str, cap: int,
                 coeffs: Optional[Mapping[Index, ParamPoly | Rat]] = None):
        if cap < 0:
            raise ValueError("the weight cap must be >= 0")
        self.alphabet = alphabet
        self.cap = cap
        self.coeffs: dict[Index, ParamPoly] = {}
        for I, c in (coeffs or {}).items():
            I = _series_key(I)
            c = _coef_over(alphabet, c)
            if sum(I) <= cap:
                if I in self.coeffs:
                    c = self.coeffs.pop(I) + c
                if c._num:
                    self.coeffs[I] = c

    @classmethod
    def one(cls, alphabet: str, cap: int) -> "TauSeries":
        return cls(alphabet, cap, {(): 1})

    def get(self, indices: Iterable[int]) -> ParamPoly:
        I = _series_key(indices)
        if sum(I) > self.cap:
            raise WeightExceeded(
                f"weight {sum(I)} coefficient requested from a cap-{self.cap} series"
            )
        return self.coeffs.get(I, ParamPoly.zero(self.alphabet))

    def constant(self) -> ParamPoly:
        return self.coeffs.get((), ParamPoly.zero(self.alphabet))

    def keys(self) -> list[Index]:
        return sorted(self.coeffs, key=entry_order)

    def is_zero(self) -> bool:
        return not self.coeffs

    def first_nonzero(self) -> Optional[tuple[Index, ParamPoly]]:
        """Smallest (weight, tuple) key with a nonzero coefficient."""
        ks = self.keys()
        return (ks[0], self.coeffs[ks[0]]) if ks else None

    def trim(self, cap: int) -> "TauSeries":
        if cap > self.cap:
            raise WeightExceeded(f"cannot deepen a cap-{self.cap} series to cap {cap}")
        return TauSeries(self.alphabet, cap, self.coeffs)

    def _plus(self, other: "TauSeries", sign: int) -> "TauSeries":
        coeffs = dict(self.coeffs)
        for I, c in other.coeffs.items():
            coeffs[I] = coeffs[I]._plus(c, sign) if I in coeffs else c * sign
        return TauSeries(self.alphabet, min(self.cap, other.cap), coeffs)

    def __add__(self, other: "TauSeries") -> "TauSeries":
        return self._plus(other, 1)

    def __sub__(self, other: "TauSeries") -> "TauSeries":
        return self._plus(other, -1)

    def scale(self, s: ParamPoly | Rat) -> "TauSeries":
        return TauSeries(self.alphabet, self.cap,
                         {I: c * s for I, c in self.coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, TauSeries):
            return NotImplemented
        return (self.alphabet, self.cap, self.coeffs) == (other.alphabet, other.cap, other.coeffs)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self):
        parts = [f"{c}*t{list(I)}" for I, c in list(self.coeffs.items())[:4]]
        return f"TauSeries(cap={self.cap}: {' + '.join(parts)}{' + ...' if len(self.coeffs) > 4 else ''})"


def _graded(series: TauSeries) -> list[dict[Index, ParamPoly]]:
    """The weight-w parts of a series, w = 0..cap."""
    parts: list[dict[Index, ParamPoly]] = [{} for _ in range(series.cap + 1)]
    for I, c in series.coeffs.items():
        parts[sum(I)][I] = c
    return parts


def _euler_step(F: list[dict[Index, ParamPoly]], T: list[dict[Index, ParamPoly]],
                w: int, base: dict[Index, ParamPoly], sign: int,
                alphabet: str) -> dict[Index, ParamPoly]:
    """base + sign * S_w, S_w = (1/w) sum_{0<k<w} k F_k T_(w-k), from the
    weight parts F_k of log tau and T_k of tau below weight w (module doc)."""
    out: dict = {}
    for I, c in base.items():
        _add_coef(out, I, c)
    for k in range(1, w):
        s = Fraction(sign * k, w)
        for J, a in F[k].items():
            for K, b in T[w - k].items():
                _add_coef_product(out, _normalize(J + K), a, b, s)
    return _wrap_coefs(alphabet, out)


def tau_exp(log_series: TauSeries) -> TauSeries:
    """exp of a series with vanishing constant term."""
    if not log_series.constant().is_zero():
        raise ValueError("exp needs a vanishing constant term")
    F = _graded(log_series)
    T = [{(): ParamPoly.const(log_series.alphabet, 1)}]
    for w in range(1, log_series.cap + 1):
        T.append(_euler_step(F, T, w, F[w], 1, log_series.alphabet))
    return TauSeries(log_series.alphabet, log_series.cap,
                     {I: c for Tw in T for I, c in Tw.items()})


def log_tau(tau_series: TauSeries) -> TauSeries:
    """log of a series with constant term 1."""
    if tau_series.constant() != 1:
        raise ValueError("log needs constant term exactly 1")
    T = _graded(tau_series)
    F: list[dict[Index, ParamPoly]] = [{}]
    for w in range(1, tau_series.cap + 1):
        F.append(_euler_step(F, T, w, T[w], -1, tau_series.alphabet))
    return TauSeries(tau_series.alphabet, tau_series.cap,
                     {I: c for Fw in F for I, c in Fw.items()})


# --------------------------------------------------------------------------
# correlator tables
# --------------------------------------------------------------------------


class CorrelatorTable:
    """Exact correlator values <tau_I> for all valid I with weight <= cap.

    Keys and lookups alike go through `correlator_key`, and values must be
    over the table's alphabet (AlphabetMismatch otherwise).  The cap is at
    least 1, and an entry above it raises WeightExceeded, as its lookup does.
    """

    __slots__ = ("r", "cap", "alphabet", "kind", "values")

    def __init__(self, r: int, cap: int, alphabet: str, kind: str,
                 values: Mapping[Index, ParamPoly]):
        if kind not in ("connected", "disconnected"):
            raise ValueError(f"unknown correlator kind {kind!r}")
        if cap < 1:
            raise ValueError("the table needs max_weight >= 1")
        self.r = r
        self.cap = cap
        self.alphabet = alphabet
        self.kind = kind
        self.values: dict[Index, ParamPoly] = {}
        for I, v in values.items():
            I = correlator_key(r, I)
            if I in self.values:
                raise ValueError(f"correlator {list(I)} given twice")
            self.values[self._capped(I)] = _coef_over(alphabet, v)

    def _capped(self, I: Index) -> Index:
        if sum(I) > self.cap:
            raise WeightExceeded(f"weight {sum(I)} exceeds this table's cap {self.cap}")
        return I

    def value(self, indices: Iterable[int]) -> ParamPoly:
        I = self._capped(correlator_key(self.r, indices))
        return self.values.get(I, ParamPoly.zero(self.alphabet))

    def keys(self) -> list[Index]:
        return sorted(self.values, key=entry_order)


def series_from_correlators(table: CorrelatorTable) -> TauSeries:
    """Monomial-coefficient series with a_I = <tau_I> / prod(mult!).

    For a disconnected table the unit constant term is included, making the
    result the tau series itself; for a connected table this is log tau.
    """
    coeffs: dict[Index, ParamPoly] = {}
    if table.kind == "disconnected":
        coeffs[()] = ParamPoly.const(table.alphabet, 1)
    for I, v in table.values.items():
        coeffs[I] = v * Fraction(1, _mult_factorial(I))
    return TauSeries(table.alphabet, table.cap, coeffs)


def correlators_from_series(series: TauSeries, r: int, kind: str) -> CorrelatorTable:
    """Inverse of series_from_correlators (the constant term is dropped)."""
    values = {I: c * _mult_factorial(I) for I, c in series.coeffs.items() if I}
    return CorrelatorTable(r, series.cap, series.alphabet, kind, values)


def disconnected_from_connected(table: CorrelatorTable) -> CorrelatorTable:
    if table.kind != "connected":
        raise ValueError("expected a connected table")
    tau = tau_exp(series_from_correlators(table))
    return correlators_from_series(tau, table.r, "disconnected")


def connected_from_disconnected(table: CorrelatorTable) -> CorrelatorTable:
    if table.kind != "disconnected":
        raise ValueError("expected a disconnected table")
    logt = log_tau(series_from_correlators(table))
    return correlators_from_series(logt, table.r, "connected")


# --------------------------------------------------------------------------
# the PDE route: densities evaluated at the initial jets
# --------------------------------------------------------------------------


def _without_ones(I: Index) -> tuple[Index, int]:
    """(J, f) with <I> = f <J>: J is I without its indices 1 (J = (1,) when I
    has no other index) and f the rising factor of pde_correlator."""
    J = I[I.count(1):] or I[-1:]
    w = sum(J)
    return J, math.prod(range(w, w + len(I) - len(J)))


def pde_correlator(r: int, indices: Iterable[int]) -> ParamPoly:
    """One connected correlator via the density route.

    The density of I (`Hierarchy.density`) is res L^(I_0/r) moved along the
    flows of I's further indices.  As d/dx Omega_{i,j} = d/dt_j res L^(i/r)
    and the flows commute with d/dx, it is the x-derivative of a density of
    weight |I| whose value is <tau_I>.  The jets v_a^(k) -> d_a (a+1)...(a+k)
    are the x-derivatives at x = 0 of v_a = d_a (1-x)^(-(a+1)), so along x a
    weight-W value is E (1-x)^(-W) and d/dx multiplies its value by W.
    Hence <tau_I> = value(density(I)) / |I|, with no antiderivative.  One
    index is one read of the value table (`hierarchy.initial_values`); for
    more, the value is that table's `t_derivative_value` of the prefix
    density(I[:-1]) along t_(I_n), which reads the flow off the table.  Only
    the memoised prefix densities are built as differential polynomials.

    Insertions of index 1 cost no flow: the t_1 flow is d/dx itself, so with
    rising factors

        <tau_1^m tau_J> = |J| (|J|+1) ... (|J|+m-1) <tau_J>   (J without 1),
        <tau_1^m>       = (m-1)! <tau_1>                    (J = (1,)).
    """
    I = correlator_key(r, indices)
    J, rising = _without_ones(I)
    if J != I:
        return pde_correlator(r, J) * rising
    if len(I) == 1:
        return initial_values(r).residue(I[0]) * Fraction(1, I[0])
    return (initial_values(r).t_derivative_value(hierarchy(r).density(I[:-1]), I[-1])
            * Fraction(1, sum(I)))


def connected_correlators_pde(r: int, max_weight: int) -> CorrelatorTable:
    """Connected correlators through the given weight, all in the d alphabet."""
    values: dict[Index, ParamPoly] = {}
    for I in index_multisets(r, max_weight):
        J, rising = _without_ones(I)
        # J weighs less than I unless J == I, so the sweep has reached it
        values[I] = pde_correlator(r, I) if J == I else values[J] * rising
    return CorrelatorTable(r, max_weight, "d", "connected", values)


# --------------------------------------------------------------------------
# the string relation
# --------------------------------------------------------------------------


def _string_constant(alphabet: str, r: int) -> ParamPoly:
    if alphabet == "d":
        return ParamPoly.var("d", 1) * Fraction(1, r)
    if alphabet in ("c", "sigma"):
        return ParamPoly.var(alphabet, 1)
    raise ValueError(f"no string constant for alphabet {alphabet!r}")


def string_residual(tau: TauSeries, r: int) -> TauSeries:
    """Coefficients of the lowest-weight constraint applied to a tau series.

    Entry at I (any weight <= cap-1), summed in one accumulator:

        a_I (const + sum I)  -  (mult_I(1) + 1) a_(I + [1])

    with const the alphabet's own value of the weight-one constant.  For an
    actual tau series every entry vanishes.
    """
    if tau.cap < 1:
        raise WeightExceeded("need cap >= 1 to form the string residual")
    const = _string_constant(tau.alphabet, r)
    out: dict[Index, ParamPoly] = {}
    # entries can be nonzero only where one of the two source coefficients is
    candidates = {I for I in tau.coeffs if sum(I) < tau.cap}
    candidates.update(I[1:] for I in tau.coeffs if I and I[0] == 1)
    for I in sorted(candidates, key=entry_order):
        acc: dict = {}
        a, a1 = tau.coeffs.get(I), tau.coeffs.get((1,) + I)
        if a is not None:
            _add_param_product(acc, a, const + sum(I))
        if a1 is not None:
            _add_terms(acc, a1, -(I.count(1) + 1))
        out[I] = _wrap_param(tau.alphabet, acc)
    return TauSeries(tau.alphabet, tau.cap - 1, out)
