"""Exact polynomial kernels.

Two layers, both exact over the rationals and canonical-printing so that
string comparison is a legitimate test:

* :class:`ParamPoly` -- multivariate polynomial in an indexed parameter family
  ("alphabet"), e.g. the initial-data constants ``d1, d2, ...`` or the normal
  coordinates ``c1, c2, ...``.  The parameter with index ``a`` carries weight
  ``a + 1``.  Each monomial is one int (the exponent of parameter ``i+1``
  in bits ``[16 i, 16 i + 16)``, the top bit of every field a guard), so a
  monomial product is one integer addition.  It stores integer numerators
  over one positive denominator, with no common factor, so every kernel
  sums on plain integers; ``terms`` is a read-only ``{exponents: Fraction}``
  view for printers and tests.
* :class:`DiffPoly` -- polynomial in jet variables with ParamPoly
  coefficients over the jet parameters ``d``, the only alphabet the operator
  layer sees.  The jet variable ``v{a}_{k}`` stands for the k-th
  x-derivative of the a-th dependent variable and carries weight
  ``a + 1 + k``.

Both share one ring skeleton (``_Ring``: subtraction, negation, powers and
the reflected operators, all from each class's own ``+`` and ``*``), and one
printer joins signed terms (``_join_signed``) for them and for the LaTeX
output.  No zero coefficient is ever stored and a ParamPoly is always in
lowest terms, so equality compares stored fields exactly and ``str`` output
is bit-stable across runs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, reduce
from heapq import heapify, heappop, heappush
from operator import or_
from typing import Callable, Iterable, Mapping, Sequence, Union

from .errors import AlphabetMismatch, InvariantViolated, NotExact, NotHomogeneous

Rat = Union[int, Fraction]

# --------------------------------------------------------------------------
# parameter polynomials
# --------------------------------------------------------------------------


# A monomial prod c_(i+1)^e_i is one int, the key sum e_i << (_FIELD * i).
# The top bit of each field is a guard: no wrapped polynomial sets one, so
# the sum of two keys is the key of the product, with no carry from one
# field into the next.  `_canonical` refuses any sum that reaches a guard.
# As ints, keys compare like their exponent tuples read from the highest
# index down.

_FIELD = 16
_MAX_EXPONENT = (1 << (_FIELD - 1)) - 1
_MASK = (1 << _FIELD) - 1


def _pack(expts: Iterable[int]) -> int:
    """The key of an exponent tuple (position i = parameter index i+1)."""
    key = 0
    for i, e in enumerate(expts):
        if not isinstance(e, int):
            raise ValueError("parameter exponents must be integers")
        if e < 0:
            raise ValueError("parameter exponents must be >= 0")
        if e > _MAX_EXPONENT:
            raise ValueError(f"parameter exponents must be <= {_MAX_EXPONENT}")
        key |= e << (_FIELD * i)
    return key


def _unpack(key: int) -> tuple[int, ...]:
    """The exponent tuple of a key, trailing zeros stripped."""
    out = []
    while key:
        out.append(key & _MASK)
        key >>= _FIELD
    return tuple(out)


@cache
def _guards(fields: int) -> int:
    """The guard bits of the lowest `fields` fields."""
    return sum(1 << (_FIELD * i + _FIELD - 1) for i in range(fields))


# Sums are built in place, on integers.  An accumulator maps a denominator
# to the integer numerators summed over it ({den: {key: int}}); the
# summing code owns it and every bucket in it (fresh dicts, never one some
# polynomial holds), and `_wrap_param` turns it into a ParamPoly once at the
# end: one lcm over the buckets, one gcd to take out the content.  A
# numerator whose sum cancels is deleted on the spot; terms that cancel
# across buckets vanish in the wrap, so an accumulator can be nonempty and
# still sum to zero.


def _add_scaled(acc: dict, num: Mapping[int, int], n: int, den: int) -> None:
    """acc += (n / den) * num for integer numerators num and a nonzero n."""
    if not num:
        return
    bucket = acc.get(den)
    if bucket is None:
        acc[den] = dict(num) if n == 1 else {e: c * n for e, c in num.items()}
        return
    for e, c in num.items():
        v = bucket.get(e, 0) + c * n
        if v:
            bucket[e] = v
        else:
            del bucket[e]
    if not bucket:
        del acc[den]


def _add_terms(acc: dict, p: "ParamPoly", scale: Rat = 1, den: int = 1) -> None:
    """acc += (scale / den) * p for a nonzero scale and a positive den."""
    _add_scaled(acc, p._num, scale.numerator, p._den * scale.denominator * den)


def _add_param_product(acc: dict, p: "ParamPoly", q: "ParamPoly", scale: Rat = 1) -> None:
    """acc += scale * p * q for a nonzero scale.

    A constant factor is one integer scaling of the other.  Otherwise each
    product of monomials is the sum of their keys.
    """
    n, den = scale.numerator, p._den * q._den * scale.denominator
    t1, t2 = p._num, q._num
    if len(t2) == 1 and 0 in t2:
        _add_scaled(acc, t1, n * t2[0], den)
        return
    if len(t1) == 1 and 0 in t1:
        _add_scaled(acc, t2, n * t1[0], den)
        return
    if not t1 or not t2:
        return
    bucket = acc.get(den)
    if bucket is None:
        bucket = acc[den] = {}
    for e1, c1 in t1.items():
        if n != 1:
            c1 *= n
        for e2, c2 in t2.items():
            key = e1 + e2
            v = bucket.get(key, 0) + c1 * c2
            if v:
                bucket[key] = v
            else:
                del bucket[key]
    if not bucket:
        del acc[den]


def _canonical(acc: dict) -> tuple[dict, int]:
    """(numerators, denominator) in lowest terms for what an accumulator
    sums to: the buckets over their lcm, then the content divided out.
    Zero is ({}, 1).  Raises InvariantViolated if a key sets a guard bit,
    i.e. an exponent outgrew its field."""
    if len(acc) == 1:
        (den, num), = acc.items()
    else:
        den = math.lcm(*acc)
        num = {}
        for d, bucket in acc.items():
            m = den // d
            for e, c in bucket.items():
                v = num.get(e, 0) + c * m
                if v:
                    num[e] = v
                else:
                    del num[e]
    if not num:
        return {}, 1
    bits = reduce(or_, num)
    if bits & _guards(-(-bits.bit_length() // _FIELD)):
        raise InvariantViolated(f"a parameter exponent exceeds {_MAX_EXPONENT}")
    g = math.gcd(den, *num.values())
    if g > 1:
        num = {e: c // g for e, c in num.items()}
        den //= g
    return num, den


def _wrap_param(alphabet: str, acc: dict) -> "ParamPoly":
    """A ParamPoly around what an accumulator sums to; the accumulator is
    used up."""
    res = ParamPoly.__new__(ParamPoly)
    res.alphabet = alphabet
    res._num, res._den = _canonical(acc)
    return res


def _signed_term(coef: Fraction, mono: str, fmt: Callable[[Fraction], str] = str,
                 times: str = "*") -> tuple[bool, str]:
    """A rational multiple of a printed monomial as a (negative, body) pair:
    the magnitude alone, the monomial alone (magnitude 1), or both."""
    mag = abs(coef)
    if not mono:
        return coef < 0, fmt(mag)
    return coef < 0, mono if mag == 1 else f"{fmt(mag)}{times}{mono}"


def _join_signed(pieces: Iterable[tuple[bool, str]]) -> str:
    """``a - b + c`` from (negative, body) pairs, a leading minus bare; "0"
    when there are no terms."""
    out: list[str] = []
    for negative, body in pieces:
        if out:
            out.append(" - " if negative else " + ")
        elif negative:
            out.append("-")
        out.append(body)
    return "".join(out) or "0"


class _Ring:
    """What ParamPoly and DiffPoly share.  Each subclass stores no zero
    coefficient and supplies ``is_zero``, ``_coerce`` (an operand of its own
    type, or NotImplemented), ``__add__``, ``__mul__``, ``__eq__`` and
    ``_one``."""

    __slots__ = ()

    def __radd__(self, other):
        return self + other

    def __rmul__(self, other):
        return self * other

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined")
        out = self._one()
        for _ in range(n):
            out = out * self
        return out

    __hash__ = None  # type: ignore[assignment]


class ParamPoly(_Ring):
    """Polynomial in parameters ``<alphabet>1, <alphabet>2, ...``.

    A term is keyed by one int, its packed monomial: the exponent of
    parameter i+1 sits in bits [16 i, 16 i + 16), and the top bit of each
    field is a guard that stays clear, so exponents run up to 32767.  The coefficients are stored as nonzero integer numerators
    over one positive denominator that shares no factor with all of them,
    so two equal polynomials store equal fields.  Only this module reads
    that representation; ``terms`` is a fresh read-only view
    ``{exponent tuple: Fraction}`` (position i = parameter index i+1,
    trailing zeros stripped).  The constructor takes that view's shape and
    refuses an exponent that is not an int in 0..32767 (ValueError) and a
    coefficient that is not an int or a Fraction (TypeError); every wrap
    refuses a product whose exponent reaches a guard (InvariantViolated).
    """

    __slots__ = ("alphabet", "_num", "_den")

    def __init__(self, alphabet: str, terms: Mapping[tuple[int, ...], Rat] | None = None):
        self.alphabet = alphabet
        acc: dict = {}
        if terms:
            for expts, coef in terms.items():
                key = _pack(expts)
                if not isinstance(coef, (int, Fraction)):
                    raise TypeError("coefficients must be int or Fraction, "
                                    f"not {type(coef).__name__}")
                if coef:
                    _add_scaled(acc, {key: coef.numerator}, 1, coef.denominator)
        self._num, self._den = _canonical(acc)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, alphabet: str) -> "ParamPoly":
        return cls(alphabet)

    @classmethod
    def const(cls, alphabet: str, value: Rat) -> "ParamPoly":
        return cls(alphabet, {(): value})

    @classmethod
    def var(cls, alphabet: str, index: int) -> "ParamPoly":
        if index < 1:
            raise ValueError("parameter indices start at 1")
        return cls(alphabet, {(0,) * (index - 1) + (1,): 1})

    # -- basic predicates ---------------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        """The coefficients as ``{exponents: Fraction}``, built afresh."""
        return {_unpack(e): Fraction(c, self._den) for e, c in self._num.items()}

    def is_zero(self) -> bool:
        return not self._num

    def is_constant(self) -> bool:
        return not self._num or (len(self._num) == 1 and 0 in self._num)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return Fraction(self._num.get(0, 0), self._den)

    def max_index(self) -> int:
        """Largest parameter index that occurs (0 for constants)."""
        return -(-max(self._num, default=0).bit_length() // _FIELD)

    # -- ring ops -----------------------------------------------------------

    def _coerce(self, other) -> "ParamPoly":
        if isinstance(other, ParamPoly):
            if other.alphabet != self.alphabet:
                raise AlphabetMismatch(
                    f"cannot mix alphabets {self.alphabet!r} and {other.alphabet!r}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return ParamPoly.const(self.alphabet, other)
        return NotImplemented  # type: ignore[return-value]

    def _one(self) -> "ParamPoly":
        return ParamPoly.const(self.alphabet, 1)

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        acc: dict = {}
        _add_terms(acc, self)
        _add_terms(acc, o)
        return _wrap_param(self.alphabet, acc)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            acc: dict = {}
            if other:
                _add_terms(acc, self, other)
            return _wrap_param(self.alphabet, acc)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        acc = {}
        _add_param_product(acc, self, o)
        return _wrap_param(self.alphabet, acc)

    def __truediv__(self, scalar: Rat):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return self * (Fraction(1) / Fraction(scalar))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return (self.alphabet, self._den, self._num) == (other.alphabet, other._den, other._num)

    # -- grading ------------------------------------------------------------

    def degrees(self) -> set[int]:
        """Set of weights present; parameter index a weighs a + 1."""
        return {sum(e * (i + 2) for i, e in enumerate(_unpack(key))) for key in self._num}

    # -- substitution -------------------------------------------------------

    def substitute(self, values: Mapping[int, "ParamPoly"], alphabet: str) -> "ParamPoly":
        """Full substitution: every parameter present must be mapped to a
        polynomial over `alphabet` (`substitute_all` on this one)."""
        return substitute_all([self], values, alphabet)[0]

    def evaluate(self, assignment: Mapping[int, Rat]) -> "ParamPoly":
        """Partial numeric substitution; unassigned parameters survive."""
        if any(idx < 1 for idx in assignment):
            raise ValueError("parameter indices start at 1")
        values = {i: ParamPoly.const(self.alphabet, assignment[i]) if i in assignment
                  else ParamPoly.var(self.alphabet, i) for i in range(1, self.max_index() + 1)}
        return self.substitute(values, self.alphabet)

    # -- printing -----------------------------------------------------------

    def _sorted_terms(self):
        """(exponents, Fraction) pairs, largest monomial first: the keys
        compare like their exponent tuples read from the highest index."""
        return [(_unpack(e), Fraction(c, self._den))
                for e, c in sorted(self._num.items(), reverse=True)]

    def _monomial_str(self, expts: tuple[int, ...]) -> str:
        factors = []
        for i in range(len(expts) - 1, -1, -1):
            e = expts[i]
            if not e:
                continue
            name = f"{self.alphabet}{i + 1}"
            factors.append(name if e == 1 else f"{name}^{e}")
        return "*".join(factors)

    def __str__(self) -> str:
        return _join_signed(_signed_term(coef, self._monomial_str(expts))
                            for expts, coef in self._sorted_terms())

    def __repr__(self) -> str:
        return f"ParamPoly({self.alphabet!r}: {self})"


def substitute_all(polys: Sequence[ParamPoly], values: Mapping[int, ParamPoly],
                   alphabet: str) -> list[ParamPoly]:
    """Every polynomial in `polys` with each parameter i replaced by
    values[i], a polynomial over `alphabet`; every parameter present must
    be mapped.

    All of them share one memo of monomial images: the image of a key is
    the image of the key less one unit of its top field, times that
    field's value, so each monomial is built once per call however many
    polynomials hold it.  Each polynomial sums its images on integers and
    is divided by its denominator once.
    """
    images = {0: ParamPoly.const(alphabet, 1)}

    def image(key: int, source: str) -> ParamPoly:
        chain = []
        while key not in images:
            i = (key.bit_length() - 1) // _FIELD
            val = values.get(i + 1)
            if val is None:
                raise ValueError(f"no substitution given for {source}{i + 1}")
            if val.alphabet != alphabet:
                raise AlphabetMismatch("substitution values use the wrong alphabet")
            chain.append((key, val))
            key -= 1 << (_FIELD * i)
        got = images[key]
        for key, val in reversed(chain):
            got = images[key] = got * val
        return got

    out = []
    for p in polys:
        acc: dict = {}
        for key, n in p._num.items():
            _add_terms(acc, image(key, p.alphabet), n)
        out.append(_wrap_param(alphabet, {den * p._den: b for den, b in acc.items()}))
    return out


# --------------------------------------------------------------------------
# differential polynomials
# --------------------------------------------------------------------------

Jet = tuple[int, int]  # (variable index a >= 1, derivative order k >= 0)
JetMono = tuple[tuple[Jet, int], ...]  # ((a,k), exponent), sorted ascending


def _mono_from_dict(d: Mapping[Jet, int]) -> JetMono:
    return tuple(sorted((jet, e) for jet, e in d.items() if e))


def jet_weight(jet: Jet) -> int:
    a, k = jet
    return a + 1 + k


def _add_coef(terms: dict, key, coef: ParamPoly, scale: Rat = 1, den: int = 1) -> None:
    """terms[key] += (scale / den) * coef for a nonzero scale and a positive
    den, where terms maps keys (jet monomials, or index tuples of a series)
    to ParamPoly accumulators that the summing code owns; `_wrap_coefs`
    drops every key whose sum is zero."""
    inner = terms.get(key)
    if inner is None:
        inner = terms[key] = {}
    _add_terms(inner, coef, scale, den)
    if not inner:
        del terms[key]


def _add_coef_product(terms: dict, key, p: ParamPoly, q: ParamPoly, scale: Rat = 1) -> None:
    """terms[key] += scale * p * q, with terms as in :func:`_add_coef`."""
    inner = terms.get(key)
    if inner is None:
        inner = terms[key] = {}
    _add_param_product(inner, p, q, scale)
    if not inner:
        del terms[key]


def _add_diff(terms: dict, p: Mapping[JetMono, "ParamPoly"], scale: Rat = 1) -> None:
    """terms += scale * p for a DiffPoly term map and a nonzero scale."""
    for mono, coef in p.items():
        _add_coef(terms, mono, coef, scale)


def _add_diff_product(terms: dict, p: Mapping[JetMono, "ParamPoly"],
                      q: Mapping[JetMono, "ParamPoly"], scale: Rat = 1) -> None:
    """terms += scale * p * q for DiffPoly term maps and a nonzero scale."""
    for m1, c1 in p.items():
        d1 = dict(m1)
        for m2, c2 in q.items():
            merged = dict(d1)
            for jet, e in m2:
                merged[jet] = merged.get(jet, 0) + e
            _add_coef_product(terms, _mono_from_dict(merged), c1, c2, scale)


def _wrap_coefs(alphabet: str, terms: dict) -> dict:
    """ParamPoly coefficients around the accumulators of a keyed sum, the
    keys whose coefficient sums to zero left out."""
    out = {}
    for key, acc in terms.items():
        coef = _wrap_param(alphabet, acc)
        if coef._num:
            out[key] = coef
    return out


def _wrap_diff(terms: dict) -> "DiffPoly":
    res = DiffPoly()
    res.terms = _wrap_coefs("d", terms)
    return res


def _coef_over(alphabet: str, value: ParamPoly | Rat) -> ParamPoly:
    """A caller's coefficient or scalar as a ParamPoly over `alphabet`: the
    one check of every container that holds ParamPoly coefficients."""
    if not isinstance(value, ParamPoly):
        return ParamPoly.const(alphabet, value)
    if value.alphabet != alphabet:
        raise AlphabetMismatch(f"coefficients are over {alphabet!r}, not {value.alphabet!r}")
    return value


class DiffPoly(_Ring):
    """Differential polynomial: jet monomials with ParamPoly coefficients,
    all over the jet parameters ``d``.  The constructor refuses a jet
    (a, k) with a < 1 or k < 0, the one check behind `jet`; the kernels
    wrap their sums unchecked (`_wrap_diff`)."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[JetMono, ParamPoly | Rat] | None = None):
        out: dict = {}
        if terms:
            for mono, coef in terms.items():
                if any(a < 1 or k < 0 for (a, k), _ in mono):
                    raise ValueError("jet variables need a >= 1, k >= 0")
                _add_coef(out, mono, _coef_over("d", coef))
        self.terms = _wrap_coefs("d", out)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "DiffPoly":
        return cls()

    @classmethod
    def const(cls, value: ParamPoly | Rat) -> "DiffPoly":
        return cls({(): value})

    @classmethod
    def jet(cls, a: int, k: int = 0) -> "DiffPoly":
        return cls({(((a, k), 1),): 1})

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def jets(self) -> set[Jet]:
        out: set[Jet] = set()
        for mono in self.terms:
            out.update(jet for jet, _ in mono)
        return out

    # -- ring ops -------------------------------------------------------------

    def _coerce(self, other) -> "DiffPoly":
        if isinstance(other, DiffPoly):
            return other
        if isinstance(other, (int, Fraction, ParamPoly)):
            return DiffPoly.const(other)
        return NotImplemented  # type: ignore[return-value]

    def _one(self) -> "DiffPoly":
        return DiffPoly.const(1)

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        out: dict = {}
        _add_diff(out, self.terms)
        _add_diff(out, o.terms)
        return _wrap_diff(out)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # a rational scalar scales each coefficient, no product needed
            if not other:
                return DiffPoly.zero()
            res = DiffPoly()
            res.terms = {m: k * other for m, k in self.terms.items()}
            return res
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        out: dict = {}
        _add_diff_product(out, self.terms, o.terms)
        return _wrap_diff(out)

    def __eq__(self, other):
        if isinstance(other, ParamPoly) and other.alphabet != "d":
            return False  # as ParamPoly answers across alphabets
        if isinstance(other, (int, Fraction, ParamPoly)):
            other = DiffPoly.const(other)
        if not isinstance(other, DiffPoly):
            return NotImplemented
        return self.terms == other.terms

    # -- calculus --------------------------------------------------------------

    def partial(self, a: int, k: int) -> "DiffPoly":
        """Partial derivative with respect to the jet variable (a, k)."""
        jet = (a, k)
        out: dict = {}
        for mono, coef in self.terms.items():
            d = dict(mono)
            e = d.get(jet)
            if not e:
                continue
            if e == 1:
                del d[jet]
            else:
                d[jet] = e - 1
            _add_coef(out, _mono_from_dict(d), coef, e)
        return _wrap_diff(out)

    def evaluate(self, value: Callable[[int, int], ParamPoly]) -> ParamPoly:
        """Substitute every jet variable via ``value(a, k)`` (over ``d``)."""
        out: dict = {}
        for mono, coef in self.terms.items():
            term = coef
            for (a, k), e in mono:
                term = term * value(a, k) ** e
            _add_terms(out, term)
        return _wrap_param("d", out)

    # -- printing ----------------------------------------------------------------

    @staticmethod
    def _mono_weight(mono: JetMono) -> int:
        return sum(e * jet_weight(jet) for jet, e in mono)

    @staticmethod
    def _desc_jets(mono: JetMono) -> tuple[Jet, ...]:
        seq: list[Jet] = []
        for jet, e in mono:
            seq.extend([jet] * e)
        return tuple(sorted(seq, reverse=True))

    def _sorted_terms(self):
        return sorted(
            self.terms.items(),
            key=lambda item: (self._mono_weight(item[0]), self._desc_jets(item[0])),
            reverse=True,
        )

    @staticmethod
    def _jet_name(jet: Jet) -> str:
        a, k = jet
        return f"v{a}" if k == 0 else f"v{a}_{k}"

    def _monomial_str(self, mono: JetMono) -> str:
        factors = []
        for jet, e in sorted(mono, reverse=True):
            name = self._jet_name(jet)
            factors.append(name if e == 1 else f"{name}^{e}")
        return "*".join(factors)

    def __str__(self) -> str:
        def term(mono: JetMono, coef: ParamPoly) -> tuple[bool, str]:
            mstr = self._monomial_str(mono)
            if coef.is_constant():
                return _signed_term(coef.constant_value(), mstr)
            return False, f"({coef})*{mstr}" if mstr else f"({coef})"

        return _join_signed(term(mono, coef) for mono, coef in self._sorted_terms())

    def __repr__(self) -> str:
        return f"DiffPoly('d': {self})"


# --------------------------------------------------------------------------
# spec-level operations
# --------------------------------------------------------------------------


def _add_diff_x(terms: dict, mono: JetMono, coef: ParamPoly, scale: Rat = 1) -> None:
    """terms += scale * d/dx (coef * mono) for a nonzero scale."""
    base = dict(mono)
    for (a, k), e in mono:
        d = dict(base)
        if e == 1:
            del d[(a, k)]
        else:
            d[(a, k)] = e - 1
        d[(a, k + 1)] = d.get((a, k + 1), 0) + 1
        _add_coef(terms, _mono_from_dict(d), coef, scale * e)


def diff_x(p: DiffPoly) -> DiffPoly:
    """Total x-derivative: v{a}_{k} -> v{a}_{k+1} plus Leibniz."""
    out: dict = {}
    for mono, coef in p.terms.items():
        _add_diff_x(out, mono, coef)
    return _wrap_diff(out)


def nth_diff_x(chain: list[DiffPoly], k: int) -> DiffPoly:
    """chain[k], the k-th x-derivative of chain[0], where the memo list
    chain = [p, p', p'', ...] is grown as far as needed."""
    while len(chain) <= k:
        chain.append(diff_x(chain[-1]))
    return chain[k]


def _peel_key(mono: JetMono) -> tuple:
    """Heap key of the exactness peeling, smallest first for the largest
    monomial.  Monomials are ordered by their descending jet sequence, jets
    compared by (derivative order, variable index); the key negates each
    jet and ends with (1,), which beats every negated jet, so that a proper
    prefix (a smaller monomial) gets the larger key."""
    seq: list[tuple[int, int]] = []
    for (a, k), e in mono:
        seq.extend([(-k, -a)] * e)
    seq.sort()
    seq.append((1,))
    return tuple(seq)


def integrate_x(p: DiffPoly) -> DiffPoly:
    """Inverse of :func:`diff_x` on its image; raises NotExact otherwise.

    Works by repeatedly peeling the largest monomial: if the input is a total
    derivative, that monomial's highest jet has order k >= 1, appears to the
    first power, is the only jet of its order, and no jet of order k-1 has a
    larger variable index.  Any violation certifies non-exactness.  The
    remainder's monomials wait in a heap, each keyed once when it enters.
    """
    rem: dict = {}
    _add_diff(rem, p.terms)
    heap = [(_peel_key(mono), mono) for mono in rem]
    heapify(heap)
    out: dict = {}
    while rem:
        mono = heappop(heap)[1]
        acc = rem.pop(mono, None)
        if acc is None:
            continue  # cancelled after it was queued
        coef = _wrap_param("d", acc)
        if coef.is_zero():
            continue  # cancelled across denominators
        if not mono:
            raise NotExact("nonzero constant term cannot be integrated")
        (k, a) = max((k, a) for (a, k), _ in mono)
        if k == 0:
            raise NotExact(f"monomial {DiffPoly({mono: 1})} is not a total derivative")
        d = dict(mono)
        if d[(a, k)] != 1:
            raise NotExact("highest jet occurs with exponent > 1")
        if any(kk == k and (aa, kk) != (a, k) for (aa, kk) in d):
            raise NotExact("two distinct jets share the highest derivative order")
        if any(kk == k - 1 and aa > a for (aa, kk) in d):
            raise NotExact("order/index pattern not reachable by differentiation")
        del d[(a, k)]
        d[(a, k - 1)] = d.get((a, k - 1), 0) + 1
        candidate = _mono_from_dict(d)
        coef = coef * Fraction(1, d[(a, k - 1)])
        _add_coef(out, candidate, coef)
        peeled: dict = {}
        _add_diff_x(peeled, candidate, coef, -1)
        del peeled[mono]  # minus the coefficient just taken out of rem
        for m, acc in peeled.items():
            if m not in rem:
                heappush(heap, (_peel_key(m), m))
            _add_coef(rem, m, _wrap_param("d", acc))
    return _wrap_diff(out)


def degrees(p: DiffPoly) -> set[int]:
    """All weights present in p (jet weights plus parameter weights)."""
    out: set[int] = set()
    for mono, coef in p.terms.items():
        base = DiffPoly._mono_weight(mono)
        out.update(base + d for d in coef.degrees())
    return out


def grading(p: DiffPoly) -> int:
    """Common weight of all terms; NotHomogeneous if mixed, 0 for zero."""
    degs = degrees(p)
    if not degs:
        return 0
    if len(degs) > 1:
        raise NotHomogeneous(degs)
    return next(iter(degs))
