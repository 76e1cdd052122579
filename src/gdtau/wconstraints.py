"""Symmetry constraints on the tau series and everything they pin down.

One rule serves everything: the reduced operator of bidegree (alpha, q),
the residue of the expanded degree-(alpha+1) current power at exponent
alpha + (q - alpha) r, each monomial weighted over alpha + 1
(`_reduced_operator`).  It kills the tau series for q > alpha and
reproduces it with eigenvalue (-1)^alpha rho_alpha at q = alpha.  Two
viewpoints read it:

* `apply_Wred` acts on a truncated tau series coefficient-wise, and
  `verify_constraints` checks it window by window against rho_alpha.

* The same identities, read off at a single coefficient, give a recursion
  that determines every disconnected correlator from lower weight.  Running
  it with formal eigenvalues (`sigma` alphabet) produces tables whose
  entries can then be rewritten in terms of the one-point constants (`c`)
  or the jet parameters (`d`); sigma(c) solves the one-point entries.

Both read one kernel, `_coefficient_terms`: coefficient I of one
normal-ordered current monomial applied to a series, as a linear form in the
correlators, summed over the operator's monomials by `_linear_form`, and
applied to a series by `_apply_power`.  The tests' plain operator
(``apply_S`` in ``tests/oracle.py``) is the leading monomial alone (alpha + 1
underived factors) through the same pass.

c(d) is read off the Lax operator's power table at the initial point
(`hierarchy.initial_values`).  Every change of constants back, d(c) in
either normalization and sigma(c), is one `_triangular_inverse`.  The
eigenvalues that `verify_constraints` checks, rho_alpha in the jets, are
sigma(c) composed with c(d): both come from the initial point, and nothing
is fitted on the series under test.

The `c` alphabet comes in two normalizations.  Tables use the one-point
value itself (c_alpha = <tau_alpha>); residue formulas produce the scaled
variant (alpha * c_alpha), which is what `c_from_d`/`d_from_c` speak.
`_ctab_in_d` divides c_alpha(d) by alpha, and `d_of_ctab` inverts that.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import cache
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .algebra import (ParamPoly, _add_coef, _add_param_product, _add_terms, _wrap_coefs,
                      _wrap_param, substitute_all)
from .bgw import (
    CorrelatorTable,
    Index,
    TauSeries,
    connected_correlators_pde,
    connected_from_disconnected,
    disconnected_from_connected,
    entry_order,
    index_multisets,
    pde_correlator,
    series_from_correlators,
    string_residual,
    tau_exp,
    valid_multisets,
    _mult_factorial,
    _normalize,
)
from .errors import InvariantViolated, NotStable, WeightExceeded
from .hierarchy import initial_values


class _Bidegree(NamedTuple):
    r: int
    alpha: int
    q: int


class WOperatorSpec(_Bidegree):
    """Bidegree of one constraint operator: 1 <= alpha <= r-1, q >= alpha."""

    __slots__ = ()

    def __new__(cls, r: int, alpha: int, q: int):
        if r < 2:
            raise ValueError("need r >= 2")
        if not 1 <= alpha <= r - 1:
            raise ValueError(f"alpha must lie in 1..{r - 1}")
        if q < alpha:
            raise ValueError("q must be >= alpha")
        return super().__new__(cls, r, alpha, q)

    @property
    def shift(self) -> int:
        return (self.q - self.alpha) * self.r


# --------------------------------------------------------------------------
# the operators on tau series
# --------------------------------------------------------------------------


@cache
def _splits(I: Index, size: int) -> tuple[tuple[Index, Index], ...]:
    """Every way to take a sub-multiset of the given size out of I, as
    ascending (taken, kept) pairs, peeling off the copies of the first
    value.  Memoised: the kernel asks for the same splits for every output
    index and every monomial of a current power."""
    if not I:
        return (((), ()),) if size == 0 else ()
    v, m = I[0], I.count(I[0])
    return tuple(((v,) * take + taken, (v,) * (m - take) + kept)
                 for take in range(min(m, size) + 1)
                 for taken, kept in _splits(I[m:], size - take))


def _coefficient_terms(I: Index, r: int, balance: int,
                       orders: Index) -> tuple[dict[Index, int], int]:
    """Coefficient I of one normal-ordered current monomial applied to a
    series, as a linear form {J: w_J} in the correlators <J> = a_J mult!(J),
    returned as integer numerators over one denominator, mult!(I):
    ({J: w_J mult!(I)}, mult!(I)).

    `orders` lists the derivative order j of each factor.  A factor expands
    into elementary moves: multiply by the k-th variable with weight
    k (k-1) ... (k-j), differentiate by the k-th variable with weight
    (-1)^j (k+j) ... (k+1), or (order 0 only) the constant shift sitting at
    the first variable with weight -1.  Each move carries a formal exponent
    (k-1-j, -k-1-j, or 0 respectively) and only configurations whose
    exponents plus `balance` sum to -1 survive the residue, which pins the
    index sum of all differentiation moves at once.  Differentiating t^J
    down to the kept part of I multiplies by mult!(J) / mult!(kept), so each
    configuration weighs its coefficient over mult!(kept) on <J>.
    """
    groups = sorted(Counter(orders).items())
    # every mult!(kept) divides mult!(I): sum integers over that denominator
    denom = _mult_factorial(I)
    nums: dict[Index, int] = {}

    def rec(gi: int, rest: Index, moving: Index, lam: int, coef: int) -> None:
        if gi == len(groups):
            scale = denom // _mult_factorial(rest)
            for K, wk in _derivative_moves(r, moving, lam + balance + 1).items():
                J = _normalize(rest + K)
                nums[J] = nums.get(J, 0) + coef * wk * scale
            return
        j, n = groups[gi]
        for c in range(n + 1 if j == 0 else 1):
            for tlen in range(n - c + 1):
                klen = n - c - tlen
                for L, kept in _splits(rest, tlen):
                    wl = math.prod(math.perm(k, j + 1) for k in L)
                    if wl == 0:
                        continue
                    lam_t = lam + sum(L) - (1 + j) * (tlen + klen)
                    base = coef * wl * (-1) ** (c + j * klen) * math.factorial(n)
                    # `_derivative_moves` orders each group's indices: take klen! off
                    base //= math.factorial(c) * _mult_factorial(L) * math.factorial(klen)
                    rec(gi + 1, kept, moving + (j,) * klen, lam_t, base)

    rec(0, I, (), 0, 1)
    return nums, denom


@cache
def _derivative_moves(r: int, moving: Index, total: int) -> dict[Index, int]:
    """{K: w} for the index multisets K of all differentiation moves
    together: one valid index k per entry j of `moving` (the derivative
    orders of the factors that differentiate), summing to `total`.  w sums
    prod (k+j)!/k! over the distinct ways to deal K to the moves, peeling
    off the first move.  Memoised and shared: callers only read it."""
    if not moving:
        return {(): 1} if total == 0 else {}
    j = moving[0]
    return {K: sum(math.perm(k + j, j) * _derivative_moves(r, moving[1:], total - k)[kept]
                   for (k,), kept in _splits(K, 1))
            for K in valid_multisets(r, total, len(moving))}


def _linear_form(I: Index, r: int, balance: int,
                 monomials: Sequence[tuple[Index, int]]) -> dict[Index, int]:
    """Coefficient I of a sum of current monomials (derivative orders,
    integer weight) applied to a series, as one linear form {J: w} in the
    correlators: `_coefficient_terms` summed on integers over mult!(I)."""
    form: dict[Index, int] = {}
    for orders, cf in monomials:
        nums, _ = _coefficient_terms(I, r, balance, orders)
        for J, w in nums.items():
            form[J] = form.get(J, 0) + cf * w
    return form


def _apply_power(series: TauSeries, op: WOperatorSpec,
                 monomials: Sequence[tuple[Index, int]]) -> TauSeries:
    """Image of a truncated series under a sum of normal-ordered current
    monomials, each weighted by an integer over alpha + 1, exact through
    cap - shift - alpha.

    One pass over the output indices: the monomials' linear forms at I are
    summed into one {J: w} before the series is read, so each output
    coefficient takes one scaled add per correlator it involves.
    """
    out_cap = series.cap - op.shift - op.alpha
    if out_cap < 0:
        raise WeightExceeded(f"cap {series.cap} leaves no window for (alpha={op.alpha}, q={op.q})")
    terms: dict = {}
    for I in [()] + index_multisets(op.r, out_cap):
        den = (op.alpha + 1) * _mult_factorial(I)
        for J, w in _linear_form(I, op.r, op.alpha + op.shift, monomials).items():
            aJ = series.coeffs.get(J)
            if w and aJ is not None:
                _add_coef(terms, I, aJ, w * _mult_factorial(J), den)
    return TauSeries(series.alphabet, out_cap, _wrap_coefs(series.alphabet, terms))


@cache
def _current_monomials(alpha: int) -> tuple[tuple[Index, int], ...]:
    """Normal-ordered monomials of the degree-(alpha+1) current power.

    Raising the degree by one multiplies by a fresh factor or differentiates
    one existing factor (product rule), so each monomial is recorded as the
    ascending tuple of per-factor derivative orders with its multiplicity.
    alpha = 1 gives {(0, 0): 1, (1,): 1}; from alpha = 3 on, mixed monomials
    such as (1, 1) appear that no rebracketing removes.
    """
    P: dict[Index, int] = {(0,): 1}
    for _ in range(alpha):
        nxt: dict[Index, int] = {}
        for mono, cf in P.items():
            grown = tuple(sorted(mono + (0,)))
            nxt[grown] = nxt.get(grown, 0) + cf
            for s in range(len(mono)):
                bumped = list(mono)
                bumped[s] += 1
                key = tuple(sorted(bumped))
                nxt[key] = nxt.get(key, 0) + cf
        P = nxt
    return tuple(sorted(P.items()))


@cache
def _reduced_operator(alpha: int) -> tuple[tuple[Index, int], ...]:
    """The reduced operator of order alpha: every monomial of the
    degree-(alpha+1) current power, weighted by its multiplicity over
    alpha + 1.  The monomial (alpha,) is left out: its multiply move needs
    t_k at k = -(q - alpha) r and its derivative move k = (q - alpha) r,
    and neither is a valid time."""
    return tuple(m for m in _current_monomials(alpha) if m[0] != (alpha,))


def apply_Wred(series: TauSeries, op: WOperatorSpec) -> TauSeries:
    """Image under the reduced operator of bidegree (alpha, q): the residue
    of the expanded degree-(alpha+1) current power at exponent alpha + shift,
    over alpha + 1.  Exact through cap - shift - alpha."""
    return _apply_power(series, op, _reduced_operator(op.alpha))


# --------------------------------------------------------------------------
# the weight recursion for disconnected correlators
# --------------------------------------------------------------------------


def _solve_entries(r: int, targets: Iterable[Index]) -> dict[Index, ParamPoly]:
    """Disconnected correlators in the sigma alphabet: the targets, every
    entry their equations reach, and the empty set (value 1).

    Each M = A + (nu,), nu its largest index, comes from the reduced
    operator of bidegree (alpha, q) with nu = alpha + (q - alpha) r, read
    off at coefficient A: it vanishes for q > alpha and is (-1)^alpha
    sigma_alpha a_A at q = alpha, so sigma_alpha is the operator's diagonal
    eigenvalue.  Of the correlators it involves, only <M> reaches weight |M|.

    So the entries are solved in two passes.  The first collects the
    closure of the targets under the equations, with an explicit stack and
    one linear form per entry, keeping each equation; the second solves the
    closure in `entry_order`, where every other entry of an equation (and A)
    comes earlier.  Every value depends on its own equation only, so a
    closure entry equals the same entry of the full table.
    """
    if r < 2:
        raise ValueError("the operator order r must be >= 2")
    equations: dict[Index, tuple[int, dict[Index, int]]] = {}
    stack = [M for M in targets if M]
    while stack:
        M = stack.pop()
        if M in equations:
            continue
        nu, A = M[-1], M[:-1]
        # numerators over (alpha + 1) mult!(A): the equation times that
        terms = _linear_form(A, r, nu, _reduced_operator(nu % r))
        lead = terms.pop(M)
        terms = {J: w for J, w in terms.items() if w}
        equations[M] = (lead, terms)
        stack.extend(J for J in terms if J)
        if nu < r and A:
            stack.append(A)
    table: dict[Index, ParamPoly] = {(): ParamPoly.const("sigma", 1)}
    for M in sorted(equations, key=entry_order):
        lead, terms = equations[M]
        nu, A = M[-1], M[:-1]
        val: dict = {}
        if nu < r:  # q = alpha = nu: the eigenvalue term, times (nu + 1) mult!(A)
            _add_param_product(val, table[A], ParamPoly.var("sigma", nu), (-1) ** nu * (nu + 1))
        for J, w in terms.items():
            _add_terms(val, table[J], -w)
        table[M] = _wrap_param("sigma", val) / lead
    return table


def recursion_correlators(r: int, max_weight: int) -> CorrelatorTable:
    """Disconnected correlators through max_weight, sigma alphabet."""
    values = {I: v for I, v in _solve_entries(r, index_multisets(r, max_weight)).items() if I}
    return CorrelatorTable(r, max_weight, "sigma", "disconnected", values)


# --------------------------------------------------------------------------
# constants: sigma, c, d and the maps between them
# --------------------------------------------------------------------------


def _triangular_inverse(images: Mapping[int, ParamPoly], leads: Mapping[int, Fraction],
                        alphabet: str, message: str) -> dict[int, ParamPoly]:
    """Solve y_alpha = images[alpha] for x_alpha as polynomials in the y, named by
    `alphabet`, where images[alpha] = leads[alpha] x_alpha + (a polynomial in the
    x_beta, beta < alpha); any other shape raises InvariantViolated(message)."""
    out: dict[int, ParamPoly] = {}
    for alpha, image in sorted(images.items()):
        rest = image - ParamPoly.var(image.alphabet, alpha) * leads[alpha]
        if rest.max_index() >= alpha:
            raise InvariantViolated(message)
        out[alpha] = (ParamPoly.var(alphabet, alpha) - rest.substitute(out, alphabet)) / leads[alpha]
    return out


def _alphas(r: int, top: Optional[int]) -> range:
    """alpha = 1..top, top defaulting to r - 1: the orders of the reduced
    operators and of the one-point constants.  A top outside 1..r-1 is
    refused here, before any table is read."""
    if r < 2:
        raise ValueError("the operator order r must be >= 2")
    top = r - 1 if top is None else top
    if not 1 <= top <= r - 1:
        raise ValueError(f"top must lie in 1..{r - 1}, not {top}")
    return range(1, top + 1)


def solve_sigma_from_c(r: int, top: Optional[int] = None) -> dict[int, ParamPoly]:
    """sigma_alpha, the diagonal eigenvalue of the reduced operator of
    order alpha, as a polynomial in the one-point constants c (table
    normalization), solved triangularly from <tau_alpha> = c_alpha, for
    alpha = 1..top (1..r-1 by default, `_alphas`).  sigma_alpha reads only
    the one-point entries of weight <= alpha, so a bound drops no term."""
    alphas = _alphas(r, top)
    singles = _solve_entries(r, [(a,) for a in alphas])
    return _triangular_inverse({a: singles[(a,)] for a in alphas},
                               dict.fromkeys(alphas, Fraction(1)), "c",
                               "one-point value is not triangular in sigma")


def c_from_d(r: int, top: Optional[int] = None) -> dict[int, ParamPoly]:
    """Scaled one-point constants from the jet parameters:
    c_alpha (residue normalization) = res L^(alpha/r) at the initial jets,
    i.e. row alpha + 1 of R^alpha, for alpha = 1..top (1..r-1 by default,
    `_alphas`).

    Read off the value table (`hierarchy.initial_values`, memoised per r):
    `LaxOperator`'s own recurrence run on values at the initial point, with
    no hierarchy built.  c_alpha is homogeneous of weight alpha + 1 with
    leading term alpha/r d_alpha (what `d_from_c` inverts).
    """
    alphas = _alphas(r, top)
    table = initial_values(r)
    return {alpha: table.residue(alpha) for alpha in alphas}


def d_from_c(r: int) -> dict[int, ParamPoly]:
    """Triangular inverse of c_from_d (residue normalization throughout)."""
    return _triangular_inverse(c_from_d(r), {a: Fraction(a, r) for a in range(1, r)}, "c",
                               "residue constant is not triangular in d")


def _ctab_in_d(r: int, top: Optional[int] = None) -> dict[int, ParamPoly]:
    """Table-normalized one-point constants in the jets: c_alpha / alpha,
    leading term d_alpha / r, for alpha = 1..top (1..r-1 by default)."""
    return {b: p / b for b, p in c_from_d(r, top).items()}


def d_of_ctab(r: int) -> dict[int, ParamPoly]:
    """Jet parameters in terms of table-normalized one-point constants."""
    return _triangular_inverse(_ctab_in_d(r), {a: Fraction(1, r) for a in range(1, r)}, "c",
                               "residue constant is not triangular in d")


def rho_in_d(r: int, top: Optional[int] = None) -> dict[int, ParamPoly]:
    """The diagonal eigenvalues rho_alpha of the reduced operators in the
    jets, for alpha = 1..top (1..r-1 by default, `_alphas`): sigma(c)
    composed with the table-normalized c(d).  Both come from the initial
    point alone, so no value is fitted on the series a check reads.
    Memoised per r and resolved top, so rho_in_d(r) is rho_in_d(r, r - 1)."""
    return _rho_in_d(r, _alphas(r, top)[-1])


@cache
def _rho_in_d(r: int, top: int) -> dict[int, ParamPoly]:
    tab_in_d = _ctab_in_d(r, top)
    return {a: p.substitute(tab_in_d, "d") for a, p in solve_sigma_from_c(r, top).items()}


class ConstantsDictionary(NamedTuple):
    """The jet bridge for one hierarchy order: the residue-normalized
    one-point constants in the jets, and back."""

    r: int
    c_d: Mapping[int, ParamPoly]
    d_c: Mapping[int, ParamPoly]


@cache
def constants(r: int) -> ConstantsDictionary:
    return ConstantsDictionary(r=r, c_d=c_from_d(r), d_c=d_from_c(r))


# --------------------------------------------------------------------------
# table plumbing
# --------------------------------------------------------------------------


def table_substitute(table: CorrelatorTable, mapping: Mapping[int, ParamPoly],
                     alphabet: str) -> CorrelatorTable:
    """The table with `mapping` substituted into every entry, all entries
    sharing one memo of monomial images (`substitute_all`)."""
    keys = list(table.values)
    images = substitute_all([table.values[I] for I in keys], mapping, alphabet)
    return CorrelatorTable(table.r, table.cap, alphabet, table.kind, dict(zip(keys, images)))


def table_in_c(r: int, max_weight: int, path: str, kind: str = "connected") -> CorrelatorTable:
    """Correlator table in the table-normalized c alphabet, via either route.

    path="recursion": weight recursion with formal sigma, then sigma -> c.
    path="pde": densities at the initial jets (d alphabet), then d -> c.

    Tables are substituted connected.  The map to c is a ring homomorphism,
    so it commutes with exp and log, and the connected table has fewer
    terms: a connected recursion table takes its log in sigma, before the
    substitution, and a disconnected density table its exp in c, after it.
    Only the disconnected recursion table is substituted disconnected, as
    it comes.
    """
    if path == "recursion":
        disc = recursion_correlators(r, max_weight)
        table = disc if kind == "disconnected" else connected_from_disconnected(disc)
        return table_substitute(table, solve_sigma_from_c(r), "c")
    if path == "pde":
        conn = table_substitute(
            connected_correlators_pde(r, max_weight), d_of_ctab(r), "c"
        )
        return conn if kind == "connected" else disconnected_from_connected(conn)
    raise ValueError(f"unknown path {path!r}")


# --------------------------------------------------------------------------
# verification
# --------------------------------------------------------------------------


class VerificationReport(NamedTuple):
    r: int
    weight: int
    qextra: int
    ok: bool
    lines: tuple[str, ...]

    def text(self) -> str:
        return "\n".join(self.lines)


def verify_constraints(r: int, max_weight: int, qextra: int = 2,
                       tau: Optional[TauSeries] = None) -> VerificationReport:
    """Check every constraint whose window fits under max_weight.

    The tau series (d alphabet) is built from the density route unless one is
    injected.  One line per check; a negative window means there is nothing
    to compare and the check passes vacuously.
    """
    if tau is None:
        conn = connected_correlators_pde(r, max_weight)
        tau = tau_exp(series_from_correlators(conn))
    if tau.alphabet != "d":
        raise ValueError("verification expects a tau series over the d alphabet")
    rho = rho_in_d(r, min(r - 1, max_weight))  # only alpha <= max_weight has a window
    lines: list[str] = []
    all_ok = True

    def check(label: str, window: int, series: Optional[TauSeries]) -> None:
        nonlocal all_ok
        if series is None or series.is_zero():
            lines.append(f"{label} window={window} PASS")
            return
        bad = series.first_nonzero()
        lines.append(f"{label} window={window} FAIL residual={bad[1]}")
        all_ok = False

    sres = string_residual(tau, r)
    check(f"r={r} string", max_weight - 1, sres)
    for alpha in range(1, r):
        for q in range(alpha, alpha + qextra + 1):
            window = max_weight - (q - alpha) * r - alpha
            label = f"r={r} alpha={alpha} q={q}"
            if window < 0:
                check(label, window, None)
                continue
            res = apply_Wred(tau, WOperatorSpec(r, alpha, q))
            if q == alpha:
                eig = rho[alpha] * ((-1) ** alpha)
                res = res - tau.trim(window).scale(eig)
            check(label, window, res)
    return VerificationReport(r, max_weight, qextra, all_ok, tuple(lines))


# --------------------------------------------------------------------------
# the large-r limit
# --------------------------------------------------------------------------


def _assert_stable(first: ParamPoly, second: ParamPoly, indices: Index) -> ParamPoly:
    if first != second:
        raise NotStable(
            f"correlator at {list(indices)} still moves with r: "
            f"{first} vs {second}"
        )
    return first


def stabilized_correlators(indices: Iterable[int]) -> ParamPoly:
    """Connected correlator in the stable range (r beyond the total weight),
    as a polynomial in the table-normalized c constants.  Computed entry by
    entry from the density route, whose tables this limit belongs to; the
    indices are checked there (`bgw.correlator_key`).  Both orders exceed
    every valid index, so only an empty entry or an index below 1 fails."""
    I = _normalize(indices)
    weight = sum(I)
    samples = [pde_correlator(r, I).substitute(d_of_ctab(r), "c")
               for r in (weight + 1, weight + 2)]
    return _assert_stable(samples[0], samples[1], I)
