"""Pseudo-differential operators, and the Lax operator's powers as operators.

An operator is a formal sum ``sum_e a_e * D^e`` (``D`` = d/dx) with
:class:`~gdtau.algebra.DiffPoly` coefficients: jet polynomials with rational
coefficients, summed by the packed-monomial kernel of `algebra`
(`_add_terms`).  Truncation is explicit: an operator either knows *all* its
coefficients (``floor is None``; finitely many are nonzero) or only those at
powers ``>= floor``, and asking below the floor raises
:class:`~gdtau.errors.InsufficientDepth` instead of silently truncating.

`frac_power` and `rth_root` read powers of L off its power table
(`hierarchy.LaxOperator`) as whole operators, which no command does.  They
stay in the engine because the benchmark's stages import them; the
composition calculus the tests check the table against lives in
``tests/oracle.py``.  No other module of the engine imports this one.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Optional

from .algebra import DiffPoly, ParamPoly, _add_terms, _wrap_diff
from .errors import InsufficientDepth
from .hierarchy import LaxOperator


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
# the Lax operator's powers
# --------------------------------------------------------------------------


def rth_root(L: LaxOperator, floor: int) -> PsiDO:
    """The unique root D + u1 D^-1 + u2 D^-2 + ... of L, down to `floor`."""
    return frac_power(L, 1, floor)


def frac_power(L: LaxOperator, i: int, floor: Optional[int] = None) -> PsiDO:
    """(r-th root of L)^i, read off L's power table.  An integer power of L
    is differential: rows 0..i of R^i, exact (`floor` is ignored).  A
    genuinely fractional one is truncated at `floor`, which needs the root
    down to floor - i + 1."""
    if i < 1:
        raise ValueError("the power index must be >= 1")
    if i % L.r == 0:
        floor = None
    elif floor is None:
        raise InsufficientDepth("fractional powers have an infinite tail; give a floor")
    elif floor - i + 1 > -1:
        raise InsufficientDepth("the root is only defined down to floor <= -1")
    depth = i if floor is None else i - floor
    L._fill(i, depth)
    return PsiDO({i - t: L._rows[i][t] for t in range(depth + 1)}, floor)
