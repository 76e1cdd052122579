"""Exact polynomial kernels.

Two polynomial classes with one representation, both exact over the
rationals and canonical-printing so that string comparison is a legitimate
test:

* :class:`ParamPoly` -- multivariate polynomial in an indexed parameter family
  ("alphabet"), e.g. the initial-data constants ``d1, d2, ...`` or the normal
  coordinates ``c1, c2, ...``.  The parameter with index ``a`` carries weight
  ``a + 1`` and owns field ``a - 1`` of a packed monomial.
* :class:`DiffPoly` -- polynomial in jet variables with rational
  coefficients.  The jet variable ``v{a}_{k}`` stands for the k-th
  x-derivative of the a-th dependent variable, carries weight
  ``w = a + 1 + k`` and owns field ``(w-2)(w-1)/2 + a - 1``: fields are
  ordered by weight, then by ``a``, whatever the order r.

Each monomial is one int (the exponent of the variable of field i in bits
``[16 i, 16 i + 16)``, the top bit of every field a guard), so a monomial
product is one integer addition.  Each polynomial stores integer numerators
over one positive denominator, with no common factor, so every kernel sums
on plain integers; ``terms`` is a read-only ``Fraction`` view.  Both share
one ring (``_Ring``: the fields, predicates, ``+``, ``*`` and powers).  No
zero coefficient is ever stored and a polynomial is put in lowest terms
once, by the kernel that builds it, so equality compares stored fields
exactly.  One printer (``_join_terms``) reads the stored integers, not the
view, for both classes and for the LaTeX output, so ``str`` output is
bit-stable across runs.
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
# packed monomials
# --------------------------------------------------------------------------


# A monomial prod x_i^e_i is one int, the key sum e_i << (_FIELD * i).
# The top bit of each field is a guard: no wrapped polynomial sets one, so
# the sum of two keys is the key of the product, with no carry from one
# field into the next.  `_canonical` refuses any sum that reaches a guard.
# As ints, keys compare like their exponent tuples read from the highest
# field down.

_FIELD = 16
_MAX_EXPONENT = (1 << (_FIELD - 1)) - 1
_MASK = (1 << _FIELD) - 1


def _exponent(e, kind: str) -> int:
    """e, if a field can hold it; ValueError otherwise."""
    if not isinstance(e, int):
        raise ValueError(f"{kind} exponents must be integers")
    if e < 0:
        raise ValueError(f"{kind} exponents must be >= 0")
    if e > _MAX_EXPONENT:
        raise ValueError(f"{kind} exponents must be <= {_MAX_EXPONENT}")
    return e


def _pack(expts: Iterable[int]) -> int:
    """The key of an exponent tuple (position i = parameter index i+1)."""
    return sum(_exponent(e, "parameter") << (_FIELD * i) for i, e in enumerate(expts))


def _fields(key: int):
    """(field, exponent) for each nonzero field of a key, lowest first."""
    while key:
        i = ((key & -key).bit_length() - 1) // _FIELD
        e = (key >> (_FIELD * i)) & _MASK
        yield i, e
        key -= e << (_FIELD * i)


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
# polynomial holds), and a `_wrap` turns it into a polynomial once at the
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


def _add_terms(acc: dict, p: "_Ring", scale: Rat = 1, den: int = 1) -> None:
    """acc += (scale / den) * p for a nonzero scale and a positive den."""
    _add_scaled(acc, p._num, scale.numerator, p._den * scale.denominator * den)


def _add_param_product(acc: dict, p: "_Ring", q: "_Ring", scale: Rat = 1) -> None:
    """acc += scale * p * q for a nonzero scale and two polynomials of one
    class.

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
        raise InvariantViolated(f"an exponent exceeds {_MAX_EXPONENT}")
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


def _ratio(n: int, d: int) -> str:
    """n/d in lowest terms as ``str(Fraction(n, d))`` prints it."""
    return str(n) if d == 1 else f"{n}/{d}"


def _join_terms(terms: Iterable[tuple[int, int]], den: int, mono: Callable[[int], str],
                coef: Callable[[int, int], str] = _ratio, times: str = "*") -> str:
    """``a - b + c`` from (key, numerator) pairs over one denominator, in the
    order given, a leading minus bare: each magnitude in lowest terms
    (one gcd) printed by ``coef(n, d)`` and left out when it is 1 beside a
    monomial ``mono(key)``; "0" when there are no terms."""
    out: list[str] = []
    for key, c in terms:
        if out:
            out.append(" - " if c < 0 else " + ")
        elif c < 0:
            out.append("-")
        g = math.gcd(c, den)
        n, d, m = abs(c) // g, den // g, mono(key)
        out.append(coef(n, d) if not m else m if n == d else f"{coef(n, d)}{times}{m}")
    return "".join(out) or "0"


class _Ring:
    """What ParamPoly and DiffPoly share: integer numerators ``_num`` keyed
    by packed monomials over one positive denominator ``_den``, in lowest
    terms, and the ring operations on them.  Each subclass supplies
    ``_coerce`` (an operand of its own type, or NotImplemented), ``_wrap``
    (a polynomial of its own type around an accumulator) and ``__eq__``."""

    __slots__ = ("_num", "_den")

    def is_zero(self) -> bool:
        return not self._num

    def is_constant(self) -> bool:
        return not self._num or (len(self._num) == 1 and 0 in self._num)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return Fraction(self._num.get(0, 0), self._den)

    def _plus(self, other, sign: int):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        acc: dict = {}
        _add_terms(acc, self)
        _add_terms(acc, o, sign)
        return self._wrap(acc)

    def __add__(self, other):
        return self._plus(other, 1)

    def __mul__(self, other):
        acc: dict = {}
        if isinstance(other, (int, Fraction)):
            if other:
                _add_terms(acc, self, other)
            return self._wrap(acc)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        _add_param_product(acc, self, o)
        return self._wrap(acc)

    def __radd__(self, other):
        return self + other

    def __rmul__(self, other):
        return self * other

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined")
        out = self._wrap({1: {0: 1}})
        for _ in range(n):
            out = out * self
        return out

    __hash__ = None  # type: ignore[assignment]


class ParamPoly(_Ring):
    """Polynomial in parameters ``<alphabet>1, <alphabet>2, ...``.

    A term is keyed by one int, its packed monomial: the exponent of
    parameter i+1 sits in bits [16 i, 16 i + 16), and the top bit of each
    field is a guard that stays clear, so exponents run up to 32767.  The
    coefficients are stored as nonzero integer numerators over one positive
    denominator that shares no factor with all of them (`_Ring`), so two
    equal polynomials store equal fields.  Only this module reads
    that representation; ``terms`` is a fresh read-only view
    ``{exponent tuple: Fraction}`` (position i = parameter index i+1,
    trailing zeros stripped).  The constructor takes that view's shape and
    refuses an exponent that is not an int in 0..32767 (ValueError) and a
    coefficient that is not an int or a Fraction (TypeError); every wrap
    refuses a product whose exponent reaches a guard (InvariantViolated).
    """

    __slots__ = ("alphabet",)

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

    def _wrap(self, acc: dict) -> "ParamPoly":
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

    def format(self, factor: Callable[[int, int], str], coef: Callable[[int, int], str] = _ratio,
               times: str = "*") -> str:
        """The terms largest monomial first (keys compare like their
        exponent tuples read from the highest index), each monomial the
        ``factor(index, exponent)`` of its parameters, highest index first,
        joined by `times` (`_join_terms`)."""
        def mono(key: int) -> str:
            return times.join(factor(i + 1, e) for i, e in reversed(list(_fields(key))))

        return _join_terms(sorted(self._num.items(), reverse=True), self._den, mono, coef, times)

    def __str__(self) -> str:
        return self.format(lambda i, e: f"{self.alphabet}{i}" + (f"^{e}" if e > 1 else ""))

    def __repr__(self) -> str:
        return f"ParamPoly({self.alphabet!r}: {self})"


def substitute_all(polys: Sequence[_Ring], values: Mapping[int, ParamPoly],
                   alphabet: str) -> list[ParamPoly]:
    """Every polynomial in `polys` with the variable of each field i-1
    replaced by values[i], a polynomial over `alphabet`; every variable
    present must be mapped (a parameter i owns field i-1).

    All of them share one memo of monomial images: the image of a key is
    the image of the key less one unit of its top field, times that
    field's value, so each monomial is built once per call however many
    polynomials hold it.  Each polynomial sums its images on integers and
    is divided by its denominator once.
    """
    images = {0: ParamPoly.const(alphabet, 1)}

    def image(key: int, source: _Ring) -> ParamPoly:
        chain = []
        while key not in images:
            i = (key.bit_length() - 1) // _FIELD
            val = values.get(i + 1)
            if val is None:
                raise ValueError(f"no substitution given for {source.alphabet}{i + 1}")
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
            _add_terms(acc, image(key, p), n)
        out.append(_wrap_param(alphabet, {den * p._den: b for den, b in acc.items()}))
    return out


# --------------------------------------------------------------------------
# differential polynomials
# --------------------------------------------------------------------------

Jet = tuple[int, int]  # (variable index a >= 1, derivative order k >= 0)
JetMono = tuple[tuple[Jet, int], ...]  # ((a,k), exponent), sorted ascending


def jet_weight(jet: Jet) -> int:
    a, k = jet
    return a + 1 + k


def _jet_field(a: int, k: int) -> int:
    """The field of the jet (a, k): (w-2)(w-1)/2 + a - 1 at weight w."""
    if a < 1 or k < 0:
        raise ValueError("jet variables need a >= 1, k >= 0")
    w = a + 1 + k
    return (w - 2) * (w - 1) // 2 + a - 1


@cache
def _field_jet(i: int) -> Jet:
    """The jet of field i: weight n + 2 owns fields n(n+1)/2 .. n(n+1)/2 + n."""
    n = (math.isqrt(8 * i + 1) - 1) // 2
    a = i - n * (n + 1) // 2 + 1
    return a, n + 1 - a


@cache
def _x_step(i: int) -> int:
    """What d/dx adds to a key for one unit of field i: (a, k) -> (a, k+1)."""
    a, k = _field_jet(i)
    return (1 << (_FIELD * _jet_field(a, k + 1))) - (1 << (_FIELD * i))


def _jet_key(mono: Iterable[tuple[Jet, int]]) -> int:
    """The key of ((a, k), exponent) pairs in any order, a jet repeated or
    not; a bad jet or exponent raises ValueError."""
    expts: dict[int, int] = {}
    for (a, k), e in mono:
        i = _jet_field(a, k)
        expts[i] = expts.get(i, 0) + _exponent(e, "jet")
    return sum(_exponent(e, "jet") << (_FIELD * i) for i, e in expts.items())


def _jet_mono(key: int) -> JetMono:
    return tuple(sorted((_field_jet(i), e) for i, e in _fields(key)))


def _add_coef(terms: dict, key, coef: ParamPoly, scale: Rat = 1, den: int = 1) -> None:
    """terms[key] += (scale / den) * coef for a nonzero scale and a positive
    den, where terms maps keys (the index tuples of a series) to ParamPoly
    accumulators that the summing code owns; `_wrap_coefs` drops every key
    whose sum is zero."""
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


def _wrap_coefs(alphabet: str, terms: dict) -> dict:
    """ParamPoly coefficients around the accumulators of a keyed sum, the
    keys whose coefficient sums to zero left out."""
    out = {}
    for key, acc in terms.items():
        coef = _wrap_param(alphabet, acc)
        if coef._num:
            out[key] = coef
    return out


def _wrap_diff(acc: dict) -> "DiffPoly":
    """A DiffPoly around what an accumulator sums to; the accumulator is
    used up."""
    res = DiffPoly.__new__(DiffPoly)
    res._num, res._den = _canonical(acc)
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
    """Differential polynomial: jet monomials with rational coefficients.

    A term is keyed by its packed monomial, jet (a, k) in the field
    `_jet_field(a, k)`, and stored as in ParamPoly (`_Ring`).  ``terms`` is
    a fresh read-only view ``{JetMono: constant ParamPoly over d}``.  The
    constructor takes that view's shape, jets in any order and repeated
    jets summed; it refuses a jet (a, k) with a < 1 or k < 0 and an
    exponent that is not an int in 0..32767 (ValueError), and a coefficient
    that is a ParamPoly over another alphabet (AlphabetMismatch) or over
    ``d`` but not constant (ValueError).  The kernels wrap their sums
    unchecked (`_wrap_diff`).
    """

    __slots__ = ()

    def __init__(self, terms: Mapping[JetMono, ParamPoly | Rat] | None = None):
        acc: dict = {}
        if terms:
            for mono, coef in terms.items():
                key = _jet_key(mono)
                coef = _coef_over("d", coef)
                if not coef.is_constant():
                    raise ValueError(f"jet coefficients are rational, not {coef}")
                if coef._num:
                    _add_scaled(acc, {key: coef._num[0]}, 1, coef._den)
        self._num, self._den = _canonical(acc)

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

    @property
    def terms(self) -> dict[JetMono, ParamPoly]:
        """The coefficients as ``{jet monomial: ParamPoly}``, built afresh."""
        return {_jet_mono(key): ParamPoly.const("d", Fraction(c, self._den))
                for key, c in self._num.items()}

    def jets(self) -> set[Jet]:
        return {_field_jet(i) for i, _ in _fields(reduce(or_, self._num, 0))}

    # -- ring ops -------------------------------------------------------------

    def _coerce(self, other) -> "DiffPoly":
        if isinstance(other, DiffPoly):
            return other
        if isinstance(other, (int, Fraction, ParamPoly)):
            return DiffPoly.const(other)
        return NotImplemented  # type: ignore[return-value]

    def _wrap(self, acc: dict) -> "DiffPoly":
        return _wrap_diff(acc)

    def __eq__(self, other):
        if isinstance(other, ParamPoly):
            if other.alphabet != "d" or not other.is_constant():
                return False  # as ParamPoly answers across alphabets
            other = other.constant_value()
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        if not isinstance(other, DiffPoly):
            return NotImplemented
        return (self._den, self._num) == (other._den, other._num)

    # -- calculus --------------------------------------------------------------

    def partial(self, a: int, k: int) -> "DiffPoly":
        """Partial derivative with respect to the jet variable (a, k)."""
        shift = _FIELD * _jet_field(a, k)
        unit = 1 << shift
        num = {}
        for key, c in self._num.items():
            e = (key >> shift) & _MASK
            if e:
                num[key - unit] = c * e
        return _wrap_diff({self._den: num})

    def evaluate(self, value: Callable[[int, int], ParamPoly]) -> ParamPoly:
        """Substitute every jet variable via ``value(a, k)`` (over ``d``): one
        `substitute_all`, each field mapped to the value of its jet."""
        fields = _fields(reduce(or_, self._num, 0))
        return substitute_all([self], {i + 1: value(*_field_jet(i)) for i, _ in fields}, "d")[0]

    # -- printing ----------------------------------------------------------------

    def __str__(self) -> str:
        def order(item) -> tuple:
            """Heaviest first, ties broken by the descending jet sequence."""
            mono = _jet_mono(item[0])
            return (sum(e * jet_weight(jet) for jet, e in mono),
                    tuple(jet for jet, e in reversed(mono) for _ in range(e)))

        def mono(key: int) -> str:
            return "*".join((f"v{a}" if k == 0 else f"v{a}_{k}") + (f"^{e}" if e > 1 else "")
                            for (a, k), e in reversed(_jet_mono(key)))

        return _join_terms(sorted(self._num.items(), key=order, reverse=True), self._den, mono)

    def __repr__(self) -> str:
        return f"DiffPoly({self})"


# --------------------------------------------------------------------------
# spec-level operations
# --------------------------------------------------------------------------


def diff_x(p: DiffPoly) -> DiffPoly:
    """Total x-derivative: v{a}_{k} -> v{a}_{k+1} plus Leibniz."""
    num: dict = {}
    for key, c in p._num.items():
        for i, e in _fields(key):
            m = key + _x_step(i)
            v = num.get(m, 0) + c * e
            if v:
                num[m] = v
            else:
                del num[m]
    return _wrap_diff({p._den: num})


def nth_diff_x(chain: list[DiffPoly], k: int) -> DiffPoly:
    """chain[k], the k-th x-derivative of chain[0], where the memo list
    chain = [p, p', p'', ...] is grown as far as needed."""
    while len(chain) <= k:
        chain.append(diff_x(chain[-1]))
    return chain[k]


def _peel_key(key: int) -> tuple:
    """Heap key of the exactness peeling, smallest first for the largest
    monomial.  Monomials are ordered by their descending jet sequence, jets
    compared by (derivative order, variable index); the key negates each
    jet and ends with (1,), which beats every negated jet, so that a proper
    prefix (a smaller monomial) gets the larger key."""
    seq: list[tuple[int, int]] = []
    for i, e in _fields(key):
        a, k = _field_jet(i)
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
    rem = {key: Fraction(c, p._den) for key, c in p._num.items()}
    heap = [(_peel_key(key), key) for key in rem]
    heapify(heap)
    out: dict = {}
    while rem:
        key = heappop(heap)[1]
        coef = rem.pop(key, None)
        if coef is None:
            continue  # cancelled after it was queued
        if not key:
            raise NotExact("nonzero constant term cannot be integrated")
        d = {_field_jet(i): e for i, e in _fields(key)}
        (k, a) = max((k, a) for (a, k) in d)
        if k == 0:
            raise NotExact(f"monomial {DiffPoly({_jet_mono(key): 1})} is not a total derivative")
        if d[(a, k)] != 1:
            raise NotExact("highest jet occurs with exponent > 1")
        if any(kk == k and aa != a for (aa, kk) in d):
            raise NotExact("two distinct jets share the highest derivative order")
        if any(kk == k - 1 and aa > a for (aa, kk) in d):
            raise NotExact("order/index pattern not reachable by differentiation")
        candidate = key - _x_step(_jet_field(a, k - 1))  # v_a^(k) back to v_a^(k-1)
        coef /= d.get((a, k - 1), 0) + 1
        _add_scaled(out, {candidate: coef.numerator}, 1, coef.denominator)
        for i, e in _fields(candidate):  # rem -= d/dx (coef * candidate)
            m = candidate + _x_step(i)
            if m == key:
                continue  # its coefficient is the one just taken out of rem
            if m not in rem:
                heappush(heap, (_peel_key(m), m))
            v = rem.get(m, 0) - coef * e
            if v:
                rem[m] = v
            else:
                del rem[m]
    return _wrap_diff(out)


def degrees(p: DiffPoly) -> set[int]:
    """All weights present in p."""
    return {sum(e * jet_weight(_field_jet(i)) for i, e in _fields(key)) for key in p._num}


def grading(p: DiffPoly) -> int:
    """Common weight of all terms; NotHomogeneous if mixed, 0 for zero."""
    degs = degrees(p)
    if not degs:
        return 0
    if len(degs) > 1:
        raise NotHomogeneous(degs)
    return next(iter(degs))
