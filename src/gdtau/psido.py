"""Pseudo-differential operator calculus over differential polynomials.

An operator is a formal sum ``sum_e a_e * D^e`` (``D`` = d/dx) with
:class:`~gdtau.algebra.DiffPoly` coefficients: jet polynomials with rational
coefficients, summed and multiplied by the packed-monomial kernels of
`algebra` (`_add_terms`, `_add_param_product`).  Truncation is explicit: an
operator either knows *all* its coefficients (``floor is None``; finitely
many are nonzero) or only those at powers ``>= floor``.  Every operation
computes the depth it can honestly guarantee and raises
:class:`~gdtau.errors.InsufficientDepth` instead of silently truncating.

Composition uses the extended Leibniz rule

    D^n  f = sum_k  C(n, k) f^(k) D^(n-k),   C(n,k) = n(n-1)...(n-k+1)/k!

which terminates for n >= 0 and produces an infinite tail for n < 0, hence
the floor bookkeeping.

`LaxOperator` owns the time-index rule (`check_index`) and the power table
its flows and residues are read from, in any ring with those kernels
(DiffPoly in `hierarchy.Hierarchy`, values in `hierarchy.InitialValues`);
neither table holds an operator.  Only `lax_operator`, `compose`,
`frac_power` and `residue` build whole operators, which no command does.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, reduce
from typing import Mapping, Optional

from .algebra import DiffPoly, ParamPoly, _add_param_product, _add_terms, _wrap_diff, nth_diff_x
from .errors import IndexDivisible, InsufficientDepth, InvariantViolated

_NEG_INF = float("-inf")


def _binom(n: int, k: int) -> int:
    """Binomial coefficient with integer (possibly negative) upper index."""
    num = 1
    for t in range(k):
        num *= n - t
    return num // math.factorial(k)


class PsiDO:
    """Truncated formal sum of powers of D with DiffPoly coefficients."""

    __slots__ = ("coeffs", "floor")

    def __init__(
        self,
        coeffs: Mapping[int, DiffPoly | ParamPoly | int | Fraction] | None = None,
        floor: Optional[int] = None,
    ):
        self.floor = floor
        clean: dict[int, DiffPoly] = {}
        if coeffs:
            for e, c in coeffs.items():
                poly = c if isinstance(c, DiffPoly) else DiffPoly.const(c)
                if poly.is_zero():
                    continue
                if floor is not None and e < floor:
                    continue
                clean[e] = poly
        self.coeffs = clean

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls) -> "PsiDO":
        return cls()

    @classmethod
    def d(cls, power: int = 1) -> "PsiDO":
        return cls({power: 1})

    @classmethod
    def from_diffpoly(cls, p: DiffPoly) -> "PsiDO":
        """Multiplication operator by p."""
        return cls({0: p})

    # -- accessors --------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, e: int) -> DiffPoly:
        got = self.coeffs.get(e)
        if got is not None:
            return got
        if self.floor is not None and e < self.floor:
            raise InsufficientDepth(
                f"coefficient at D^{e} is below the truncation floor {self.floor}"
            )
        return DiffPoly.zero()

    def trim(self, floor: int) -> "PsiDO":
        """Restrict to powers >= floor (may only shallow an exact operator)."""
        if self.floor is not None and floor < self.floor:
            raise InsufficientDepth(
                f"cannot deepen a floor-{self.floor} operator to floor {floor}"
            )
        return PsiDO({e: c for e, c in self.coeffs.items() if e >= floor}, floor)

    # effective bounds used by the composition window rule ----------------------

    def _wfloor(self) -> float:
        return _NEG_INF if self.floor is None else float(self.floor)

    def _wtop(self) -> float:
        cands = [float(e) for e in self.coeffs]
        if self.floor is not None:
            cands.append(float(self.floor - 1))  # top of the unknown region
        return max(cands, default=_NEG_INF)

    # -- linear structure ---------------------------------------------------------

    def _merge_floor(self, other: "PsiDO") -> Optional[int]:
        if self.floor is None:
            return other.floor
        if other.floor is None:
            return self.floor
        return max(self.floor, other.floor)

    def __add__(self, other: "PsiDO") -> "PsiDO":
        if not isinstance(other, PsiDO):
            return NotImplemented
        out: dict[int, dict] = {}
        for op in (self, other):
            for e, c in op.coeffs.items():
                _add_terms(out.setdefault(e, {}), c)
        return PsiDO({e: _wrap_diff(acc) for e, acc in out.items()}, self._merge_floor(other))

    def __neg__(self) -> "PsiDO":
        return PsiDO({e: -c for e, c in self.coeffs.items()}, self.floor)

    def __sub__(self, other: "PsiDO") -> "PsiDO":
        return self + (-other)

    def __eq__(self, other):
        if not isinstance(other, PsiDO):
            return NotImplemented
        return self.floor == other.floor and self.coeffs == other.coeffs

    __hash__ = None  # type: ignore[assignment]

    # -- printing -------------------------------------------------------------------

    def dump(self) -> str:
        """One line per power, descending: ``∂^e : <coefficient>``."""
        lines = [f"∂^{e} : {self.coeffs[e]}" for e in sorted(self.coeffs, reverse=True)]
        return "\n".join(lines) if lines else "0"

    def __repr__(self) -> str:
        tag = "exact" if self.floor is None else f"floor={self.floor}"
        return f"PsiDO({tag}: {';  '.join(self.dump().splitlines())})"


# --------------------------------------------------------------------------
# composition and derived operations
# --------------------------------------------------------------------------


def compose(A: PsiDO, B: PsiDO, floor: Optional[int] = None) -> PsiDO:
    """Operator product A B, exact at all powers >= floor.

    With ``floor=None`` the result is exact at every power, which requires
    both inputs exact and a finite Leibniz expansion (A purely differential,
    or B with constant coefficients).
    """
    if A.is_zero() and A.floor is None:
        return PsiDO.zero()
    if B.is_zero() and B.floor is None:
        return PsiDO.zero()

    guaranteed = max(A._wfloor() + B._wtop(), B._wfloor() + A._wtop())
    if floor is None:
        if guaranteed != _NEG_INF:
            raise InsufficientDepth(
                "truncated operands: an explicit output floor is required"
            )
        if A.coeffs and min(A.coeffs) < 0 and any(c.jets() for c in B.coeffs.values()):
            raise InsufficientDepth(
                "composition has an infinite tail; request an explicit floor"
            )
    elif guaranteed > floor:
        raise InsufficientDepth(
            f"inputs only guarantee floor {guaranteed:.0f}, requested {floor}"
        )

    out: dict[int, dict] = {}
    chains = {j: [bj] for j, bj in B.coeffs.items()}  # j -> [b_j, b_j', ...]
    for i, ai in A.coeffs.items():
        for j, chain in chains.items():
            k = 0
            while True:
                if i >= 0 and k > i:
                    break
                if floor is not None and i + j - k < floor:
                    break
                deriv = nth_diff_x(chain, k)
                if deriv.is_zero():
                    break
                c = _binom(i, k)
                if c:
                    _add_param_product(out.setdefault(i + j - k, {}), ai, deriv, c)
                k += 1
    return PsiDO({e: _wrap_diff(acc) for e, acc in out.items()}, floor)


def plus_part(A: PsiDO) -> PsiDO:
    """Projection onto powers >= 0.  Exact whenever A's floor reaches 0."""
    floor = None if (A.floor is None or A.floor <= 0) else A.floor
    return PsiDO({e: c for e, c in A.coeffs.items() if e >= 0}, floor)


def minus_part(A: PsiDO) -> PsiDO:
    """Projection onto powers < 0; keeps A's floor."""
    return PsiDO({e: c for e, c in A.coeffs.items() if e < 0}, A.floor)


def residue(A: PsiDO) -> DiffPoly:
    """Coefficient of D^-1."""
    return A.coeff(-1)


def commutator(A: PsiDO, B: PsiDO, floor: Optional[int] = None) -> PsiDO:
    return compose(A, B, floor) - compose(B, A, floor)


# --------------------------------------------------------------------------
# the Lax operator and its fractional powers
# --------------------------------------------------------------------------


def lax_operator(r: int) -> PsiDO:
    """L = D^r + v1 D^(r-2) + ... + v(r-1) as a whole operator."""
    return PsiDO({r: 1} | {r - 1 - a: DiffPoly.jet(a, 0) for a in range(1, r)})


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
    table and flows on values (`hierarchy.InitialValues`).
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


def rth_root(L: LaxOperator, floor: int) -> PsiDO:
    """The unique root D + u1 D^-1 + u2 D^-2 + ... of L, down to `floor`."""
    return frac_power(L, 1, floor)


def frac_power(L: LaxOperator, i: int, floor: Optional[int] = None) -> PsiDO:
    """(r-th root of L)^i.  Integer powers of L come back exact; genuinely
    fractional ones are read off L's power table, truncated at `floor` (which
    needs the root down to floor - i + 1)."""
    if i < 1:
        raise ValueError("the power index must be >= 1")
    if i % L.r == 0:  # differential x differential: exact
        return reduce(compose, [lax_operator(L.r)] * (i // L.r))
    if floor is None:
        raise InsufficientDepth("fractional powers have an infinite tail; give a floor")
    if floor - i + 1 > -1:
        raise InsufficientDepth("the root is only defined down to floor <= -1")
    depth = i - floor
    L._fill(i, depth)
    return PsiDO({i - t: L._rows[i][t] for t in range(depth + 1)}, floor)
