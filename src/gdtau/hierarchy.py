"""Commuting flows of the order-r reduced hierarchy.

The time variables are t_i with i >= 1 and i not divisible by r (t_1 is x
itself).  That rule is `psido.check_index`, run by the power table's own
reads (`LaxOperator.flow`, `LaxOperator.residue`), by `Hierarchy.t_derivative`,
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

`Hierarchy` is the Lax operator's power table on differential polynomials.
`InitialValues` is the same table run on those values: its rows, jets and
flow components are plain ParamPolys over d, so res L^(i/r), the flows and
the chain rule (`t_derivative_value`) at the initial point are reads of it,
with no differential polynomial built (`wconstraints.c_from_d`,
`pde_correlator`).  Neither table holds an operator.
"""

from __future__ import annotations

import math
from functools import cache

from .algebra import (_FIELD, DiffPoly, ParamPoly, _add_param_product, _add_scaled, _field_jet,
                      _fields, _wrap_diff, _wrap_param, integrate_x, nth_diff_x)
from .psido import LaxOperator, check_index


def initial_jet(a: int, k: int) -> ParamPoly:
    """Value of v_a^(k) at the initial point: d_a * (a+1)...(a+k)."""
    return ParamPoly.var("d", a) * math.perm(a + k, k)


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

    def omega(self, i: int, j: int) -> DiffPoly:
        """The density Omega_{i,j}: x-antiderivative of d(res L^(i/r))/dt_j.

        Symmetric in (i, j), vanishing constant term; NotExact propagates if
        the antiderivative ever failed to close (it does close for every
        valid pair).  Not memoised: the correlators never ask for it.
        """
        return integrate_x(self.density((i, j)))

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
    is the symbolic one under `DiffPoly.evaluate(initial_jet)`, the tests'
    reference; `residue` and `flow` are the inherited reads, and
    `t_derivative_value` reads a DiffPoly's t-derivative off the flows.
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


def omega(r: int, i: int, j: int) -> DiffPoly:
    return hierarchy(r).omega(i, j)
