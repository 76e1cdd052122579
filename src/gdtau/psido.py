"""The Lax operator's powers as whole operators, for the benchmark's stages.

An operator is a formal sum ``sum_e a_e * D^e`` (``D`` = d/dx) with
:class:`~gdtau.algebra.DiffPoly` coefficients, known at all powers
(``floor is None``) or only at powers ``>= floor``.  `PsiDO` is that
container alone.  `frac_power` and `rth_root` fill it from L's power table
(`hierarchy.LaxOperator`), and refuse a floor the root cannot reach, or an
infinite tail without one, with :class:`~gdtau.errors.InsufficientDepth`.
No command reads them, and no other engine module imports this one: they
stay because the benchmark's stages import them.  The operator arithmetic
and the composition calculus the tests check the table against live in
``tests/oracle.py``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Optional

from .algebra import DiffPoly, ParamPoly
from .errors import InsufficientDepth
from .hierarchy import LaxOperator


class PsiDO:
    """``coeffs``: each power of D to its nonzero DiffPoly coefficient;
    ``floor``: None for an exact operator, else the lowest power known."""

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

    def __eq__(self, other):
        if not isinstance(other, PsiDO):
            return NotImplemented
        return self.floor == other.floor and self.coeffs == other.coeffs

    __hash__ = None  # type: ignore[assignment]


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
