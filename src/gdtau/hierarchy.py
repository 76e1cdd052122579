"""The Lax operator's power table and the flows of the order-r hierarchy.

The time variables are t_i with i >= 1 and i not divisible by r (t_1 is x
itself).  That rule is `check_index`, run by the power table's own reads
(`LaxOperator.flow`, `LaxOperator.residue`), by `Hierarchy.t_derivative`,
by `InitialValues.t_derivative_value` and, through `bgw.correlator_key`, by
the correlators, their tables and the stabilized values.  An index below 1
raises ValueError("bad index i"), a multiple of r IndexDivisible("index i is
a multiple of r").

The i-th flow moves the operator L = D^r + v1 D^(r-2) + ... by

    dL/dt_i = [ (L^(i/r))_+ , L ]

and its components X_a^i (the coefficient at D^(r-1-a)) tell how each v_a
moves (`LaxOperator.flow`).  Derivatives of differential polynomials along a
flow, and the densities (res L^(i/r), `LaxOperator.residue`, moved along
further flows), are assembled from those components.  The correlators read
them at the initial point, where v_a^(k) takes the value
d_a (a+1)(a+2)...(a+k) (`initial_jet`).

`LaxOperator` is the power table (rows of R^k, R = L^(1/r), one recurrence
`_row_plan`), and its two rings are its subclasses.  `Hierarchy` runs it on
differential polynomials, `InitialValues` on the values at the initial
point: ParamPolys over d, so res L^(i/r), the flows and the chain rule
(`t_derivative_value`) there are reads of it (`wconstraints.c_from_d`,
`pde_correlator`).  Neither holds an operator: `psido.frac_power` reads
whole powers off this table, and the tests check its recurrence against
whole operators composed by the Leibniz rule (``tests/oracle.py``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

from .algebra import (_FIELD, DiffPoly, ParamPoly, _add_param_product, _add_scaled, _add_terms,
                      _field_jet, _fields, _wrap_diff, _wrap_param, nth_diff_x)
from .errors import IndexDivisible, InvariantViolated


def initial_jet(a: int, k: int) -> ParamPoly:
    """Value of v_a^(k) at the initial point: d_a * (a+1)...(a+k)."""
    return ParamPoly.var("d", a) * math.perm(a + k, k)


def _binom(n: int, k: int) -> int:
    """Binomial coefficient with integer (possibly negative) upper index."""
    num = 1
    for t in range(k):
        num *= n - t
    return num // math.factorial(k)


def check_index(r: int, i: int) -> None:
    """Refuse i unless t_i is a time of the order-r hierarchy: i >= 1 and r
    does not divide i.  The index is checked first, so a bad index is named
    whatever r is; an order below 2 has no times at all."""
    if i < 1:
        raise ValueError(f"bad index {i}")
    if r < 2:
        raise ValueError("the operator order r must be >= 2")
    if i % r == 0:
        raise IndexDivisible(f"index {i} is a multiple of {r}")


@cache
def _row_plan(m: int, t: int, top: int) -> tuple[tuple[int, tuple[tuple[int, int, int], ...]], ...]:
    """The sum over s+j+n = t-1, 1 <= n <= top, of C(m-s, j) row_s f_n^(j),
    grouped by s as (s, ((j, n, C(m-s, j)), ...)), zero binomials left out:
    the one statement of the recurrence of `LaxOperator`'s power table
    (R = L^(1/r), row t of R^k its coefficient at D^(k-t)).

    For k <= r, R^k = R^(k-1) R: with m = k-1, top = t-2 and f_n = u_n (the
    root coefficient at D^-n) it is what row t of R^k adds to row t of
    R^(k-1) besides k u_(t-1).  For k > r, R^k = R^(k-r) L: with m = k-r,
    top = r-1 and f_n = v_n it is what row t of R^k adds to row t of
    R^(k-r)."""
    out = []
    for s in range(t - 1):
        terms = tuple((j, t - 1 - s - j, c) for j in range(max(0, t - 1 - s - top), t - 1 - s)
                      if (c := _binom(m - s, j)))
        if terms:
            out.append((s, terms))
    return tuple(out)


class LaxOperator:
    """The power table of L = D^r + v1 D^(r-2) + ... + v(r-1), filled lazily.

    Row t of R^k (R = L^(1/r)) is its coefficient at D^(k-t), each built
    once.  For k <= r rows come from R^k = R^(k-1) R: row t of R^1 is the
    root coefficient u_(t-1), which enters row t of R^k only as k * u_(t-1)
    and is solved from row t of R^r against L.  Above r, L commutes with its
    fractional powers, so R^k = R^(k-r) L: each product is a row of R^(k-r)
    times one jet.  Both recurrences read `_row_plan`; the flows (`flow`)
    and the residues (`residue`) are read off the same table, each after
    `check_index`.

    The ring enters only through `_wrap` (a ring element around a kernel
    accumulator), `_new_jet` (v_a^(j), memoised by `_jet`, which is also
    where the root reads L: its coefficient at D^(r-t) is v_(t-1)) and
    `_row_deriv` (the x-derivatives of a row, u_n^(j) among them).  No
    operator is built; a subclass that overrides the three runs the same
    table and flows on values (`InitialValues`).
    """

    def __init__(self, r: int):
        if r < 2:
            raise ValueError("the operator order r must be >= 2")
        self.r = r
        one = self._wrap({1: {0: 1}})
        self._rows: dict[int, list[DiffPoly]] = {k: [one] for k in range(1, r + 1)}
        self._row_derivs: dict[tuple[int, int], list[DiffPoly]] = {}  # (k, t) -> [row, row', ...]
        self._flows: dict[int, dict[int, DiffPoly]] = {}
        self._jets: dict[tuple[int, int], DiffPoly] = {}

    def _wrap(self, acc: dict) -> DiffPoly:
        return _wrap_diff(acc)

    def _new_jet(self, a: int, j: int) -> DiffPoly:
        return DiffPoly.jet(a, j)

    def _jet(self, a: int, j: int) -> DiffPoly:
        """v_a^(j) in this table's ring, built once per instance."""
        got = self._jets.get((a, j))
        if got is None:
            got = self._jets[(a, j)] = self._new_jet(a, j)
        return got

    def _row_deriv(self, k: int, t: int, j: int) -> DiffPoly:
        """The j-th x-derivative of row t of R^k."""
        return nth_diff_x(self._row_derivs.setdefault((k, t), [self._rows[k][t]]), j)

    def _row(self, base: DiffPoly, rows: list[DiffPoly], plan, f) -> DiffPoly:
        """base + the sum `plan` lays out (`_row_plan`) over `rows`, with
        f(n, j) the factor f_n^(j)."""
        acc: dict = {}
        _add_terms(acc, base)
        for s, terms in plan:
            if rows[s].is_zero():
                continue
            inner: dict = {}
            for j, n, c in terms:
                _add_terms(inner, f(n, j), c)
            _add_param_product(acc, rows[s], self._wrap(inner))
        return self._wrap(acc)

    def _grow_root(self, depth: int) -> None:
        """Fill R^1..R^r down to row `depth`, one root coefficient per row."""
        for t in range(len(self._rows[1]), depth + 1):
            partial = [self._wrap({})]
            for k in range(2, self.r + 1):
                partial.append(self._row(partial[-1], self._rows[k - 1], _row_plan(k - 1, t, t - 2),
                                         lambda n, j: self._row_deriv(1, n + 1, j)))
            lead = self._jet(t - 1, 0) if 1 < t <= self.r else self._wrap({})
            u = (lead - partial[-1]) * Fraction(1, self.r)
            for k, p in enumerate(partial, start=1):
                self._rows[k].append(p + u * k)

    def _fill(self, k: int, depth: int) -> None:
        """Rows 0..depth of R^k (and of R^(k-r), R^(k-2r), ... below it)."""
        if k <= self.r:
            self._grow_root(depth)
            return
        self._fill(k - self.r, depth)
        rho = self._rows[k - self.r]
        rows = self._rows.setdefault(k, [self._rows[1][0]])
        for t in range(len(rows), depth + 1):
            rows.append(self._row(rho[t], rho, _row_plan(k - self.r, t, self.r - 1), self._jet))

    def flow(self, i: int) -> dict[int, DiffPoly]:
        """Components a -> X_a^i (at D^(r-1-a)) of dL/dt_i = [(R^i)_+, L],
        memoised per i.  (R^i)_+ holds the rows p_t, t <= i, at D^m (m = i-t),
        and L the terms v_b D^n (n = r-1-b) and D^r.  By the Leibniz rule

            [p_t D^m, v D^n] = sum_(k>=1) (C(m,k) p_t v^(k) - C(n,k) v p_t^(k)) D^(m+n-k),

        the k = 0 terms cancelling.  A surviving coefficient above D^(r-2)
        raises InvariantViolated; i must be a time (`check_index`).
        """
        check_index(self.r, i)
        got = self._flows.get(i)
        if got is None:
            r = self.r
            self._fill(i, i)
            out: dict[int, dict] = {}
            for t, p in enumerate(self._rows[i][:i + 1]):
                m = i - t
                for k in range(1, m + 1):
                    for b in range(1, r):
                        _add_param_product(out.setdefault(m + r - 1 - b - k, {}), p,
                                           self._jet(b, k), _binom(m, k))
                for k in range(1, r + 1):
                    dp = self._row_deriv(i, t, k)
                    _add_terms(out.setdefault(m + r - k, {}), dp, -_binom(r, k))
                    for b in range(1, r - k):  # C(r-1-b, k) = 0 once k > r-1-b
                        _add_param_product(out.setdefault(m + r - 1 - b - k, {}), dp,
                                           self._jet(b, 0), -_binom(r - 1 - b, k))
            coeffs = {e: self._wrap(acc) for e, acc in out.items()}
            if any(not c.is_zero() for e, c in coeffs.items() if e > r - 2):
                raise InvariantViolated("flow commutator reaches above D^(r-2)")
            got = self._flows[i] = {a: coeffs.get(r - 1 - a, self._wrap({})) for a in range(1, r)}
        return got

    def residue(self, i: int) -> DiffPoly:
        """res L^(i/r): row i + 1 of R^i; i must be a time (`check_index`)."""
        check_index(self.r, i)
        self._fill(i, i + 1)
        return self._rows[i][i + 1]


class Hierarchy(LaxOperator):
    """The order-r hierarchy as differential polynomials, built on demand.

    The Lax operator's power table (with its flows) on DiffPolys, plus the
    flow components' x-derivatives and one memo of densities: res L^(i/r)
    for (i,) and its t-derivatives along the further indices of a longer
    tuple; each is computed once.  The correlators read every entry's last
    flow on values (`InitialValues.t_derivative_value`), so a density is
    built only as the prefix of a longer entry.
    """

    def __init__(self, r: int):
        super().__init__(r)
        self._flow_derivs: dict[tuple[int, int], list[DiffPoly]] = {}  # (i, a) -> [X, X', ...]
        self._densities: dict[tuple[int, ...], DiffPoly] = {}

    def flow_derivative(self, i: int, a: int, k: int) -> DiffPoly:
        """k-th x-derivative of X_a^i."""
        return nth_diff_x(self._flow_derivs.setdefault((i, a), [self.flow(i)[a]]), k)

    def t_derivative(self, p: DiffPoly, j: int) -> DiffPoly:
        """Derivative of a differential polynomial along the t_j flow.

        Chain rule over the jet variables: each v_a^(k) moves with the k-th
        x-derivative of X_a^j.
        """
        check_index(self.r, j)
        out: dict = {}
        for (a, k) in sorted(p.jets()):
            _add_param_product(out, self.flow_derivative(j, a, k), p.partial(a, k))
        return _wrap_diff(out)

    def density(self, I: tuple[int, ...]) -> DiffPoly:
        """res L^(I0/r) moved along t_i for each further index i of I, in
        order; memoised per index tuple, so a longer tuple extends the
        density of its prefix by one flow."""
        if not I:
            raise ValueError("a density needs at least one index")
        got = self._densities.get(I)
        if got is None:
            got = self._densities[I] = (self.t_derivative(self.density(I[:-1]), I[-1])
                                        if len(I) > 1 else self.residue(I[0]))
        return got


class InitialValues(LaxOperator):
    """The power table of L at the initial point.

    There every coefficient of weight w is E (1-x)^(-w) with E in Q[d], and
    d/dx maps it to w E (1-x)^(-w-1).  Evaluation commutes with sums,
    products and d/dx, so `LaxOperator`'s own recurrence runs on the values
    E: each row, jet and flow component is a ParamPoly over d, v_a is d_a,
    v_a^(j) is `initial_jet(a, j)`, and the j-th x-derivative of row t of
    R^k (weight t) is t (t+1) ... (t+j-1) times the row.  Each row and flow
    is the symbolic one evaluated at `initial_jet` (``evaluate`` in
    ``tests/oracle.py``, the tests' reference); `residue` and `flow` are the
    inherited reads, and `t_derivative_value` reads a DiffPoly's t-derivative
    off the flows.
    """

    def _wrap(self, acc: dict) -> ParamPoly:
        return _wrap_param("d", acc)

    def _new_jet(self, a: int, j: int) -> ParamPoly:
        return initial_jet(a, j)

    def _row_deriv(self, k: int, t: int, j: int) -> ParamPoly:
        chain = self._row_derivs.setdefault((k, t), [self._rows[k][t]])
        while len(chain) <= j:
            chain.append(chain[-1] * (t + len(chain) - 1))
        return chain[j]

    def t_derivative_value(self, p: DiffPoly, j: int) -> ParamPoly:
        """The value of ``Hierarchy.t_derivative(p, j)``, without building it.

        X_a^j is homogeneous of weight a + j + 1 (v_b^(m) weighs b + 1 + m),
        so at the initial point the value of its k-th x-derivative is
        perm(a+j+k, k) times the value of X_a^j.  The chain rule on values
        then reads

            value(dP/dt_j) = sum_(a,k) value(dP/dv_a^(k)) perm(a+j+k, k) value(X_a^j)

        for any P, homogeneous or not.  One pass over P sums the first two
        factors into one group G_a per variable, on P's own integer
        numerators; the result is sum_a G_a value(X_a^j), each value(X_a^j)
        read off this table's flows.  A jet monomial prod (v_a^(k))^e is
        worth prod d_a^e prod ((a+1)...(a+k))^e.
        """
        flow = self.flow(j)
        groups: dict[int, dict] = {}
        for key, c in p._num.items():
            jets = [(_field_jet(i), e) for i, e in _fields(key)]
            dkey, factor = 0, 1
            for (a, k), e in jets:
                if not 1 <= a <= self.r - 1:
                    raise ValueError(f"no variable v{a} for r={self.r}")
                dkey += e << (_FIELD * (a - 1))
                factor *= math.perm(a + k, k) ** e
            for (a, k), e in jets:
                # the monomial without one v_a^(k): perm(a+k, k) divides factor
                scale = e * math.perm(a + j + k, k) * factor // math.perm(a + k, k)
                _add_scaled(groups.setdefault(a, {}), {dkey - (1 << (_FIELD * (a - 1))): c},
                            scale, p._den)
        out: dict = {}
        for a, group in groups.items():
            _add_param_product(out, _wrap_param("d", group), flow[a])
        return _wrap_param("d", out)


@cache
def hierarchy(r: int) -> Hierarchy:
    """The process-wide Hierarchy of order r."""
    return Hierarchy(r)


@cache
def initial_values(r: int) -> InitialValues:
    """The process-wide value table of order r."""
    return InitialValues(r)


lax = hierarchy  # the symbolic table is the Lax operator's power table


def gd_flow(r: int, i: int) -> dict[int, DiffPoly]:
    """Components a -> X_a^i of the i-th flow of the order-r hierarchy."""
    return hierarchy(r).flow(i)
