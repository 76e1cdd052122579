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

This module is the reference operator calculus: `lax_operator`, `compose`,
`frac_power` and `residue` build whole operators, which no command does.
The tests check the power table (`hierarchy.LaxOperator`) against them, and
`frac_power` reads its fractional powers off that table.  No other module
of the engine imports this one.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from typing import Mapping, Optional

from .algebra import DiffPoly, ParamPoly, _add_param_product, _add_terms, _wrap_diff, nth_diff_x
from .errors import InsufficientDepth
from .hierarchy import LaxOperator, _binom

_NEG_INF = float("-inf")


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
