"""Commuting flows of the order-r reduced hierarchy.

The time variables are t_i with i >= 1 and i not divisible by r (t_1 is x
itself).  The i-th flow moves the operator L = D^r + v1 D^(r-2) + ... by

    dL/dt_i = [ (L^(i/r))_+ , L ]

and its components X_a^i (the coefficient at D^(r-1-a)) tell how each v_a
moves.  Everything downstream — derivatives of differential polynomials along
a flow, and the densities Omega_{i,j} = d/dt_j integral(res L^(i/r)) — is
assembled from those components.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .algebra import DiffPoly, diff_x, integrate_x
from .errors import IndexDivisible, InvariantViolated, MissingFlow
from .psido import LaxOperator, commutator, frac_power, plus_part, residue

# Lax operators hold their power tables (root and fractional powers), so share
# one per (r, alphabet) across the whole process.
_lax_cache: dict[tuple[int, str], LaxOperator] = {}


def lax(r: int, alphabet: str = "d") -> LaxOperator:
    key = (r, alphabet)
    op = _lax_cache.get(key)
    if op is None:
        op = _lax_cache[key] = LaxOperator(r, alphabet)
    return op


_flow_cache: dict[tuple[int, str, int], dict[int, DiffPoly]] = {}


def gd_flow(r: int, i: int, alphabet: str = "d") -> dict[int, DiffPoly]:
    """Components a -> X_a^i of the i-th flow of the order-r hierarchy."""
    if i < 1:
        raise ValueError("flow index must be >= 1")
    if i % r == 0:
        raise IndexDivisible(f"t_{i} acts trivially: {i} is a multiple of {r}")
    key = (r, alphabet, i)
    got = _flow_cache.get(key)
    if got is None:
        L = lax(r, alphabet)
        P = plus_part(frac_power(L, i, -1))
        C = commutator(P, L.op)  # both purely differential, stays exact
        top = C.top
        if top is not None and top > r - 2:
            raise InvariantViolated("flow commutator reaches above D^(r-2)")
        got = {a: C.coeff(r - 1 - a) for a in range(1, r)}
        _flow_cache[key] = got
    return got


class FlowTable:
    """Flow components and their x-derivatives for one hierarchy.

    With `indices` given the table is closed: asking for a flow outside the
    declared set raises MissingFlow.  Without it, flows are filled in lazily.
    """

    def __init__(self, r: int, alphabet: str = "d", indices: Optional[Iterable[int]] = None):
        self.r = r
        self.alphabet = alphabet
        self.indices = None if indices is None else frozenset(indices)
        self._flows: dict[int, dict[int, DiffPoly]] = {}
        self._derivs: dict[tuple[int, int, int], DiffPoly] = {}
        if self.indices is not None:
            for i in sorted(self.indices):
                self._flows[i] = gd_flow(r, i, alphabet)

    def flow(self, i: int) -> dict[int, DiffPoly]:
        got = self._flows.get(i)
        if got is None:
            if self.indices is not None:
                raise MissingFlow(f"flow t_{i} was not built into this table")
            got = self._flows[i] = gd_flow(self.r, i, self.alphabet)
        return got

    def flow_derivative(self, i: int, a: int, k: int) -> DiffPoly:
        """k-th x-derivative of X_a^i."""
        key = (i, a, k)
        got = self._derivs.get(key)
        if got is None:
            if k == 0:
                got = self.flow(i)[a]
            else:
                got = diff_x(self.flow_derivative(i, a, k - 1))
            self._derivs[key] = got
        return got


def t_derivative(p: DiffPoly, j: int, flows: FlowTable) -> DiffPoly:
    """Derivative of a differential polynomial along the t_j flow.

    Chain rule over the jet variables: each v_a^(k) moves with the k-th
    x-derivative of X_a^j.
    """
    out = DiffPoly.zero(p.alphabet)
    for (a, k) in sorted(p.jets()):
        dp = p.partial(a, k)
        if dp.is_zero():
            continue
        out = out + flows.flow_derivative(j, a, k) * dp
    return out


def omega(r: int, i: int, j: int, alphabet: str = "d",
          flows: Optional[FlowTable] = None) -> DiffPoly:
    """The density Omega_{i,j}: x-antiderivative of d(res L^(i/r))/dt_j.

    Symmetric in (i, j), vanishing constant term; NotExact propagates if the
    antiderivative ever failed to close (it does close for every valid pair).
    """
    if i % r == 0 or j % r == 0:
        raise IndexDivisible(f"indices {i},{j} must avoid multiples of {r}")
    if flows is None:
        flows = FlowTable(r, alphabet)
    res = residue(frac_power(lax(r, alphabet), i, -1))
    return integrate_x(t_derivative(res, j, flows))


class OmegaTable:
    """Build-once cache of residues and Omega densities for one hierarchy."""

    def __init__(self, r: int, alphabet: str = "d", flows: Optional[FlowTable] = None):
        self.r = r
        self.alphabet = alphabet
        self.flows = flows if flows is not None else FlowTable(r, alphabet)
        self._residues: dict[int, DiffPoly] = {}
        self._omegas: dict[tuple[int, int], DiffPoly] = {}

    def residue(self, i: int) -> DiffPoly:
        if i % self.r == 0:
            raise IndexDivisible(f"no residue density at index {i} for r={self.r}")
        got = self._residues.get(i)
        if got is None:
            got = residue(frac_power(lax(self.r, self.alphabet), i, -1))
            self._residues[i] = got
        return got

    def omega(self, i: int, j: int) -> DiffPoly:
        key = (i, j)
        got = self._omegas.get(key)
        if got is None:
            if j % self.r == 0:
                raise IndexDivisible(f"no flow t_{j} for r={self.r}")
            got = integrate_x(t_derivative(self.residue(i), j, self.flows))
            self._omegas[key] = got
        return got
