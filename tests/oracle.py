"""Independent brute-force model of the constraint operators, over sympy.

The engine under test applies each operator through a grouped, multinomial-
weighted sum over target coefficients.  This module does none of that: it
enumerates the ordered slots of the normal-ordered power literally, one
elementary move per slot (multiply by a time, differentiate by a time, or
take the constant shift), tracks the formal exponent by hand, and applies
the surviving configurations to a plain ``{index multiset: sympy expr}``
dictionary.  Exponential in the power, so only usable at small caps --
which is the point: it shares no code path with the implementation.

``exp_log_coefficients`` is the matching oracle for ``tau_exp`` and
``log_tau``: sympy's own power-series exp and log, not a recurrence.

The ``frac_*`` functions are a plain-``Fraction`` model of the parameter
polynomial kernels: a polynomial is a ``{exponents: Fraction}`` dict (the
``ParamPoly.terms`` view), every sum and product is spelled out term by
term, and ``frac_exp`` / ``frac_log`` are the truncated power series of
exp and log over such dicts.  The ``jet_*`` functions model the jet
polynomial kernels the same way, over ``{jet monomial: Fraction}`` dicts
(monomials as sorted ``((a, k), exponent)`` tuples, the ``DiffPoly.terms``
shape); ``frac_add`` and ``frac_scale`` serve both.  The weights of a
polynomial (``param_degrees``, ``degrees``, ``grading`` with
``NotHomogeneous``) are read off the ``terms`` views by the same models.

The ``print_*`` functions are the reference printers: they read the
``terms`` views, one ``Fraction`` per term, and join signed terms the way
the engine prints them.  ``string_residual_reference`` spells the string
residual out with five polynomial operations per entry.

The reference operator calculus (``coeff``, ``add``, ``sub``, ``compose``,
``commutator``, the parts, ``residue``, ``lax_operator``, ``integrate_x``
and ``omega``) is the one section that does not model a kernel: unlike the
``frac_*`` and ``jet_*`` models it runs on the engine's own kernels
(``DiffPoly``, the packed accumulators) and fills the engine's ``PsiDO``
container.  What it checks independently is the power table's recurrence:
it multiplies whole operators by the Leibniz rule, which the table
(``hierarchy.LaxOperator``) never does.  The same section holds the two
references that reuse an engine pass: ``evaluate`` (a jet polynomial at
given jet values, one ``substitute_all``; at ``initial_jet`` the value
table's reference, itself checked against a term-by-term ``Fraction``
evaluation) and ``apply_S`` (the plain operator, the leading current
monomial through ``wconstraints._apply_power``).

``indicial_polynomial`` is P(lam), the symbol of L at the initial point on
powers of 1 - x, over sympy.  ``reflection`` solves the adjoint reflection
iota of the d alphabet from it, and ``centred_power_sums`` the power sums
of its centred roots; ``affine_coordinates`` is one exact linear solve.
``symbol_constants`` runs the indicial symbol calculus on ``ParamPoly``
series in 1/lam: the root of L's symbol, then res L^(alpha/r) at the
initial point, the reference for ``c_from_d``.  None of them reads the
engine's tables.
"""

import math
from fractions import Fraction
from functools import reduce
from heapq import heapify, heappop, heappush
from operator import or_
from typing import Optional

import sympy as sp

from gdtau.algebra import (DiffPoly, ParamPoly, _add_param_product, _add_scaled, _add_terms,
                           _field_jet, _fields, _jet_field, _jet_mono, _wrap_diff, _x_step,
                           nth_diff_x, substitute_all)
from gdtau.errors import EngineError, InsufficientDepth
from gdtau.hierarchy import _binom, hierarchy
from gdtau.psido import PsiDO
from gdtau.wconstraints import _apply_power


def poly_to_sym(p, syms):
    """ParamPoly -> sympy expression, positions mapped through `syms`."""
    out = sp.Integer(0)
    for exps, cf in p.terms.items():
        term = sp.Rational(cf.numerator, cf.denominator)
        for i, e in enumerate(exps, start=1):
            if e:
                term *= syms[i] ** e
        out += term
    return sp.expand(out)


def sym_to_poly(expr, syms, alphabet="d"):
    """sympy polynomial in syms[1], syms[2], ... -> ParamPoly over `alphabet`."""
    terms = sp.Poly(sp.expand(expr), *[syms[i] for i in sorted(syms)]).terms()
    return ParamPoly(alphabet, {exps: Fraction(int(cf.p), int(cf.q)) for exps, cf in terms})


def series_to_dict(series, syms):
    return {I: poly_to_sym(c, syms) for I, c in series.coeffs.items()}


def symbols_for(r: int, letter: str = "d"):
    return {i: sp.Symbol(f"{letter}{i}") for i in range(1, r)}


def _diff_dict(td, k):
    """d/dt_k on a monomial-coefficient dict: (m_k(I)+1) a_{I+(k,)} at I."""
    out = {}
    for I, v in td.items():
        if k not in I:
            continue
        J = list(I)
        J.remove(k)
        J = tuple(J)
        out[J] = out.get(J, sp.Integer(0)) + I.count(k) * v
    return out


def _tmul_dict(td, k, cap):
    out = {}
    for I, v in td.items():
        J = tuple(sorted(I + (k,)))
        if sum(J) > cap:
            continue
        out[J] = out.get(J, sp.Integer(0)) + v
    return out


def _ff(n, j):
    out = 1
    for s in range(j):
        out *= n - s
    return out


def brute_current(td, r, balance, orders, out_cap, lookup_cap):
    """One normal-ordered monomial of the current power, slot by slot.

    `orders` lists the derivative order of each factor; `balance` is the
    formal exponent carried by the residue.  Derivative moves are applied
    before multiplication moves (normal ordering).
    """
    acc = {}
    slots = list(orders)

    def rec(pos, lam, tmuls, dops, coef):
        if pos == len(slots):
            if lam + balance != -1:
                return
            cur = td
            for k in dops:
                cur = _diff_dict(cur, k)
                if not cur:
                    return
            for k in tmuls:
                cur = _tmul_dict(cur, k, out_cap)
                if not cur:
                    return
            for I, v in cur.items():
                if sum(I) > out_cap:
                    continue
                acc[I] = acc.get(I, sp.Integer(0)) + coef * v
            return
        j = slots[pos]
        if j == 0:  # the constant shift lives at the first time only
            rec(pos + 1, lam, tmuls, dops, -coef)
        for k in range(1, out_cap + 1):  # multiplication moves
            if k % r == 0:
                continue
            w = _ff(k, j + 1)
            if w:
                rec(pos + 1, lam + k - 1 - j, tmuls + [k], dops, coef * w)
        for k in range(1, lookup_cap + 1):  # differentiation moves
            if k % r == 0:
                continue
            w = (-1) ** j * _ff(k + j, j)
            if w:
                rec(pos + 1, lam - k - 1 - j, tmuls, dops + [k], coef * w)

    rec(0, 0, [], [], sp.Integer(1))
    return {I: sp.expand(v) for I, v in acc.items() if sp.expand(v) != 0}


def power_monomials(alpha):
    """Derivative-order multisets of the degree-(alpha+1) power with their
    multiplicities: grow one degree at a time, multiply-or-differentiate."""
    P = {(0,): Fraction(1)}
    for _ in range(alpha):
        nxt = {}
        for mono, cf in P.items():
            grown = tuple(sorted(mono + (0,)))
            nxt[grown] = nxt.get(grown, Fraction(0)) + cf
            for idx in range(len(mono)):
                lst = list(mono)
                lst[idx] += 1
                nxt[tuple(sorted(lst))] = nxt.get(tuple(sorted(lst)), Fraction(0)) + cf
        P = nxt
    return P


def brute_plain(td, r, alpha, q, out_cap, lookup_cap):
    """The undifferentiated operator: all alpha+1 slots at order zero."""
    E = alpha + (q - alpha) * r
    raw = brute_current(td, r, E, (0,) * (alpha + 1), out_cap, lookup_cap)
    return {I: sp.expand(sp.Rational(1, alpha + 1) * v) for I, v in raw.items()}


def brute_expanded(td, r, alpha, q, out_cap, lookup_cap):
    """The expanded current power (all derivative-order monomials)."""
    E = alpha + (q - alpha) * r
    acc = {}
    for mono, cf in power_monomials(alpha).items():
        part = brute_current(td, r, E, mono, out_cap, lookup_cap)
        c = sp.Rational(cf.numerator, cf.denominator) / (alpha + 1)
        for I, v in part.items():
            acc[I] = acc.get(I, sp.Integer(0)) + c * v
    return {I: sp.expand(v) for I, v in acc.items() if sp.expand(v) != 0}


def exp_log_coefficients(series, take_log, syms):
    """Monomial coefficients of exp (or log) of a truncated series, from
    sympy's own power-series expansion (``rs_exp`` / ``rs_log``).

    A scale variable ``s`` marks weight: the series becomes
    ``sum_I a_I s^|I| t^I`` and is expanded to order ``s^cap``.
    Returns ``{index multiset: sympy expr}`` without zero entries.
    """
    from sympy.polys.ring_series import rs_exp, rs_log

    s = sp.Symbol("s")
    times = sorted({i for I in series.coeffs for i in I})
    tsyms = [sp.Symbol(f"t{i}") for i in times]
    psyms = list(syms.values())
    R, s_gen, *_ = sp.ring([s, *tsyms, *psyms], sp.QQ)
    x = R(sum(poly_to_sym(c, syms) * s ** sum(I)
              * sp.Mul(*[tsyms[times.index(i)] for i in I])
              for I, c in series.coeffs.items()))
    expanded = (rs_log if take_log else rs_exp)(x, s_gen, series.cap + 1)
    out = {}
    for mono, cf in expanded.terms():
        texps, pexps = mono[1:1 + len(times)], mono[1 + len(times):]
        I = tuple(i for i, e in zip(times, texps) for _ in range(e))
        assert mono[0] == sum(I)
        term = sp.QQ.to_sympy(cf)
        for sym, e in zip(psyms, pexps):
            term *= sym ** e
        out[I] = out.get(I, sp.Integer(0)) + term
    return {I: sp.expand(v) for I, v in out.items() if sp.expand(v) != 0}


# -- plain-Fraction model of the ParamPoly kernels -----------------------------


def _clean(terms):
    return {e: c for e, c in terms.items() if c}


def _key_sum(e1, e2):
    n = max(len(e1), len(e2))
    e = [a + b for a, b in zip(e1 + (0,) * (n - len(e1)), e2 + (0,) * (n - len(e2)))]
    while e and e[-1] == 0:
        e.pop()
    return tuple(e)


def frac_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return _clean(out)


def frac_scale(a, s):
    return _clean({e: c * s for e, c in a.items()})


def frac_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = _key_sum(e1, e2)
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return _clean(out)


def frac_substitute(a, values):
    """Each parameter i replaced by the polynomial values[i]."""
    out = {}
    for expts, c in a.items():
        term = {(): c}
        for i, e in enumerate(expts, start=1):
            for _ in range(e):
                term = frac_mul(term, values[i])
        out = frac_add(out, term)
    return out


def frac_evaluate(a, assignment):
    """Parameters named in `assignment` replaced by numbers, others kept."""
    out = {}
    for expts, c in a.items():
        kept = list(expts)
        for i, e in enumerate(expts, start=1):
            if e and i in assignment:
                c *= Fraction(assignment[i]) ** e
                kept[i - 1] = 0
        out = frac_add(out, {_key_sum(tuple(kept), ()): c})
    return out


def param_degrees(p):
    """The weights present in a ParamPoly, read off its ``terms`` view:
    parameter index a weighs a + 1."""
    return {sum(e * (i + 1) for i, e in enumerate(expts, start=1)) for expts in p.terms}


def _series_mul(x, y, cap):
    out = {}
    for I, a in x.items():
        for J, b in y.items():
            K = tuple(sorted(I + J))
            if sum(K) <= cap:
                out[K] = frac_add(out.get(K, {}), frac_mul(a, b))
    return {K: v for K, v in out.items() if v}


def frac_exp(series, cap):
    """exp of {index tuple: polynomial dict} with no constant term, through
    weight cap: sum_n F^n / n!."""
    out, power = {(): {(): Fraction(1)}}, {(): {(): Fraction(1)}}
    for n in range(1, cap + 1):
        power = _series_mul(power, series, cap)
        for I, v in power.items():
            out[I] = frac_add(out.get(I, {}), frac_scale(v, Fraction(1, math.factorial(n))))
    return {I: v for I, v in out.items() if v}


def frac_log(series, cap):
    """log of {index tuple: polynomial dict} with constant term 1, through
    weight cap: sum_n (-1)^(n+1) G^n / n with G = series - 1."""
    G = dict(series)
    G[()] = frac_add(G.get((), {}), {(): Fraction(-1)})
    assert not G[()], "log needs the constant term 1"
    del G[()]
    out, power = {}, {(): {(): Fraction(1)}}
    for n in range(1, cap + 1):
        power = _series_mul(power, G, cap)
        for I, v in power.items():
            out[I] = frac_add(out.get(I, {}), frac_scale(v, Fraction((-1) ** (n + 1), n)))
    return {I: v for I, v in out.items() if v}


# -- plain-Fraction model of the DiffPoly kernels -------------------------------


def jet_mono(factors):
    """((a, k), exponent) pairs, in any order and repeated, as one sorted
    monomial with no zero exponent."""
    out = {}
    for jet, e in factors:
        out[jet] = out.get(jet, 0) + e
    return tuple(sorted((jet, e) for jet, e in out.items() if e))


def jet_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            key = jet_mono(m1 + m2)
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return _clean(out)


def jet_partial(a, jet):
    out = {}
    for mono, c in a.items():
        e = dict(mono).get(jet, 0)
        if e:
            out = frac_add(out, {jet_mono(mono + ((jet, -1),)): c * e})
    return out


def jet_diff_x(a):
    """Leibniz, one jet at a time: (v_a^(k))^e -> e (v_a^(k))^(e-1) v_a^(k+1)."""
    out = {}
    for mono, c in a.items():
        for (v, k), e in mono:
            out = frac_add(out, {jet_mono(mono + (((v, k), -1), ((v, k + 1), 1))): c * e})
    return out


def jet_jets(a):
    return {jet for mono in a for jet, _ in mono}


def jet_degrees(a):
    return {sum(e * (v + 1 + k) for (v, k), e in mono) for mono in a}


class NotHomogeneous(EngineError):
    """A polynomial mixes several weights; carries the set of weights found."""

    def __init__(self, degrees):
        self.degrees = frozenset(degrees)
        super().__init__(f"not homogeneous: degrees {sorted(self.degrees)}")


def degrees(p):
    """All weights present in a DiffPoly, read off its ``terms`` view."""
    return jet_degrees(p.terms)


def grading(p):
    """The common weight of a DiffPoly's terms; NotHomogeneous if mixed, 0
    for zero."""
    degs = degrees(p)
    if len(degs) > 1:
        raise NotHomogeneous(degs)
    return next(iter(degs), 0)


# -- reference printers on Fraction views ---------------------------------------


def _signed_term(coef, mono, fmt=str, times="*"):
    """A rational multiple of a printed monomial as a (negative, body) pair:
    the magnitude alone, the monomial alone (magnitude 1), or both."""
    mag = abs(coef)
    if not mono:
        return coef < 0, fmt(mag)
    return coef < 0, mono if mag == 1 else f"{fmt(mag)}{times}{mono}"


def _join_signed(pieces):
    """``a - b + c`` from (negative, body) pairs, a leading minus bare; "0"
    when there are no terms."""
    out = []
    for negative, body in pieces:
        if out:
            out.append(" - " if negative else " + ")
        elif negative:
            out.append("-")
        out.append(body)
    return "".join(out) or "0"


def _sorted_terms(p):
    """(exponents, Fraction) pairs of a ParamPoly, largest monomial first:
    exponent tuples compared from the highest index down."""
    return sorted(p.terms.items(), key=lambda t: (len(t[0]), t[0][::-1]), reverse=True)


def _print_param(p, factor, fmt=str, times="*"):
    def mono(expts):
        return times.join(factor(i, e) for i, e in reversed(list(enumerate(expts, start=1))) if e)

    return _join_signed(_signed_term(c, mono(e), fmt, times) for e, c in _sorted_terms(p))


def print_param(p):
    """``str`` of a ParamPoly: ``-3/4*c2^2 + c1 - 1``."""
    return _print_param(p, lambda i, e: f"{p.alphabet}{i}" + (f"^{e}" if e > 1 else ""))


def print_latex(p):
    """The LaTeX form of a ParamPoly: ``-\\tfrac{3}{4} c_{2}^{2} + c_{1} - 1``."""
    sym = {"sigma": "\\sigma"}.get(p.alphabet, p.alphabet)

    def fmt(q):
        return str(q) if q.denominator == 1 else f"\\tfrac{{{q.numerator}}}{{{q.denominator}}}"

    return _print_param(p, lambda i, e: f"{sym}_{{{i}}}" + (f"^{{{e}}}" if e > 1 else ""),
                        fmt, " ")


def print_jet(p):
    """``str`` of a DiffPoly: heaviest monomial first, ties broken by the
    descending jet sequence, each monomial's jets printed highest first."""
    def order(term):
        mono = term[0]
        return (sum(e * (a + 1 + k) for (a, k), e in mono),
                tuple(jet for jet, e in reversed(mono) for _ in range(e)))

    def name(a, k, e):
        return (f"v{a}" if k == 0 else f"v{a}_{k}") + (f"^{e}" if e > 1 else "")

    return _join_signed(
        _signed_term(c.constant_value(), "*".join(name(a, k, e) for (a, k), e in reversed(mono)))
        for mono, c in sorted(p.terms.items(), key=order, reverse=True))


# -- the string residual, term by term -------------------------------------------


def string_residual_reference(tau, const):
    """{I: entry} of the string residual of a TauSeries, over every ascending
    index tuple of weight below the cap: (sum I) a_I - (mult_I(1) + 1)
    a_(I + [1]) + const a_I, five polynomial operations, zeros left out."""
    out = {}

    def rec(prefix, start, left):
        m1 = prefix.count(1)
        val = (tau.get(prefix) * sum(prefix) - tau.get(prefix + (1,)) * (m1 + 1)
               + const * tau.get(prefix))
        if not val.is_zero():
            out[prefix] = val
        for i in range(start, left + 1):
            rec(prefix + (i,), i, left - i)

    rec((), 1, tau.cap - 1)
    return out


# -- the reference operator calculus, on the engine's kernels ---------------------

_NEG_INF = float("-inf")


def coeff(A: PsiDO, e: int) -> DiffPoly:
    """A's coefficient at D^e; InsufficientDepth below A's floor."""
    got = A.coeffs.get(e)
    if got is not None:
        return got
    if A.floor is not None and e < A.floor:
        raise InsufficientDepth(f"coefficient at D^{e} is below the truncation floor {A.floor}")
    return DiffPoly.zero()


def add(A: PsiDO, B: PsiDO) -> PsiDO:
    """A + B, known down to the higher of the two floors."""
    out: dict[int, dict] = {}
    for op in (A, B):
        for e, c in op.coeffs.items():
            _add_terms(out.setdefault(e, {}), c)
    floors = [op.floor for op in (A, B) if op.floor is not None]
    return PsiDO({e: _wrap_diff(acc) for e, acc in out.items()}, max(floors, default=None))


def sub(A: PsiDO, B: PsiDO) -> PsiDO:
    return add(A, PsiDO({e: -c for e, c in B.coeffs.items()}, B.floor))


def _wfloor(A: PsiDO) -> float:
    """The lowest power A knows, -inf for an exact operator."""
    return _NEG_INF if A.floor is None else float(A.floor)


def _wtop(A: PsiDO) -> float:
    """The highest power A holds or may hold (the top of its unknown region)."""
    cands = [float(e) for e in A.coeffs]
    if A.floor is not None:
        cands.append(float(A.floor - 1))
    return max(cands, default=_NEG_INF)


def compose(A: PsiDO, B: PsiDO, floor: Optional[int] = None) -> PsiDO:
    """Operator product A B, exact at all powers >= floor, by the extended
    Leibniz rule

        D^n f = sum_k C(n, k) f^(k) D^(n-k),   C(n,k) = n(n-1)...(n-k+1)/k!

    which terminates for n >= 0 and has an infinite tail for n < 0.

    With ``floor=None`` the result is exact at every power, which requires
    both inputs exact and a finite Leibniz expansion (A purely differential,
    or B with constant coefficients); a window the inputs cannot fill raises
    InsufficientDepth.
    """
    if not A.coeffs and A.floor is None:
        return PsiDO()
    if not B.coeffs and B.floor is None:
        return PsiDO()

    guaranteed = max(_wfloor(A) + _wtop(B), _wfloor(B) + _wtop(A))
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
    return coeff(A, -1)


def commutator(A: PsiDO, B: PsiDO, floor: Optional[int] = None) -> PsiDO:
    return sub(compose(A, B, floor), compose(B, A, floor))


def lax_operator(r: int) -> PsiDO:
    """L = D^r + v1 D^(r-2) + ... + v(r-1) as a whole operator."""
    return PsiDO({r: 1} | {r - 1 - a: DiffPoly.jet(a, 0) for a in range(1, r)})


class NotExact(EngineError):
    """A differential polynomial is not a total x-derivative."""


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


def omega(r: int, i: int, j: int) -> DiffPoly:
    """The density Omega_{i,j}: x-antiderivative of d(res L^(i/r))/dt_j.
    Symmetric in (i, j), with no constant term."""
    return integrate_x(hierarchy(r).density((i, j)))


def evaluate(p: DiffPoly, value) -> ParamPoly:
    """Substitute every jet variable of p via ``value(a, k)`` (over ``d``):
    one `substitute_all`, each field mapped to the value of its jet.  With
    ``hierarchy.initial_jet`` it is the reference for the value table."""
    fields = _fields(reduce(or_, p._num, 0))
    return substitute_all([p], {i + 1: value(*_field_jet(i)) for i, _ in fields}, "d")[0]


def apply_S(series, op):
    """Image of a truncated series under the plain bidegree-(alpha, q)
    operator, exact through cap - shift - alpha: the leading current
    monomial, alpha + 1 underived factors, through the engine's one pass."""
    return _apply_power(series, op, [((0,) * (op.alpha + 1), 1)])


# -- the indicial polynomial of L at the initial point ---------------------------
#
# With y = 1 - x the initial point is v_a = d_a y^(-(a+1)), and L maps y^lam
# to P(lam) y^(lam-r), where
#
#     P(lam) = (-1)^r [lam]_r + sum_a (-1)^(r-1-a) d_a [lam]_(r-1-a),
#
# [lam]_m = lam (lam-1) ... (lam-m+1).  Its coefficients are linear in d.


def indicial_polynomial(r, d, lam):
    """P(lam) as a sympy expression, d = {a: coefficient of L at D^(r-1-a)}."""
    return ((-1) ** r * sp.ff(lam, r)
            + sum((-1) ** (r - 1 - a) * d[a] * sp.ff(lam, r - 1 - a) for a in range(1, r)))


def reflection(r):
    """iota, the map of the d alphabet that reflects the indicial roots
    lam -> r-1-lam: {a: (iota d)_a as a ParamPoly over d}, solved from
    P_(iota d)(lam) = (-1)^r P_d(r-1-lam) coefficient by coefficient (an
    inconsistent or underdetermined system fails the assertion)."""
    lam = sp.Symbol("lam")
    d = symbols_for(r)
    e = {a: sp.Symbol(f"e{a}") for a in range(1, r)}
    gap = sp.expand(indicial_polynomial(r, e, lam)
                    - (-1) ** r * indicial_polynomial(r, d, r - 1 - lam))
    solved = sp.solve(sp.Poly(gap, lam).all_coeffs(), list(e.values()), dict=True)
    assert len(solved) == 1 and len(solved[0]) == r - 1, solved
    return {a: sym_to_poly(solved[0][e[a]], d) for a in range(1, r)}


def centred_power_sums(r):
    """{k: p_k} for k = 1..r, p_k the k-th power sum of the centred roots
    mu = lam - (r-1)/2 of P, as ParamPolys over d: Newton's identities on
    the monic (-1)^r P(mu + (r-1)/2) = mu^r - e_1 mu^(r-1) + e_2 mu^(r-2) ..."""
    mu = sp.Symbol("mu")
    d = symbols_for(r)
    monic = sp.Poly(sp.expand((-1) ** r * indicial_polynomial(r, d, mu + sp.Rational(r - 1, 2))),
                    mu)
    coeffs = monic.all_coeffs()  # mu^r first
    assert coeffs[0] == 1
    e = {j: sym_to_poly((-1) ** j * coeffs[j], d) for j in range(1, r + 1)}
    p = {}
    for k in range(1, r + 1):
        p[k] = e[k] * ((-1) ** (k - 1) * k)
        for j in range(1, k):
            p[k] = p[k] + e[j] * p[k - j] * (-1) ** (j - 1)
    return p


def affine_coordinates(target, basis):
    """[b, a_1, ..., a_n] with target = b + sum a_i basis[i-1], ParamPolys
    over one alphabet, from one exact linear solve over every monomial; a
    target outside the span raises ValueError, and the basis (with the
    constant) must be independent."""
    keys = sorted(set(target.terms).union({()}, *(p.terms for p in basis)))
    rows = sp.Matrix([[int(key == ())] + [p.terms.get(key, 0) for p in basis] for key in keys])
    solution, free = rows.gauss_jordan_solve(sp.Matrix([target.terms.get(key, 0) for key in keys]))
    assert free.shape[0] == 0, "the basis is not independent"
    return [Fraction(int(x.p), int(x.q)) for x in solution]


# -- the indicial symbol calculus ---------------------------------------------------
#
# A weight-k operator with initial-point coefficients maps y^lam to
# s(lam) y^(lam-k), and composition is s_AB(lam) = s_A(lam - k_B) s_B(lam):
# D has symbol -lam and L has symbol P(lam).  So R = L^(1/r) has a symbol
# s_R(lam) = -lam + sum_i u_i lam^(-i) with prod_(j<r) s_R(lam - j) = P(lam),
# and R^alpha the symbol prod_(j<alpha) s_R(lam - j).  Of the terms c D^m
# of R^alpha (symbol (-1)^m [lam]_m for m >= 0, (-1)^n / ((lam+1)...(lam+n))
# for m = -n < 0), only D^-1 reaches lam^-1, with -c: res L^(alpha/r) at the
# initial point is -[lam^-1] prod_(j<alpha) s_R(lam - j).  Nothing here reads
# the power table.


def indicial_coefficients(r):
    """{e: coefficient of lam^e in P(lam)} as ParamPolys over d."""
    lam, d = sp.Symbol("lam"), symbols_for(r)
    coeffs = sp.Poly(indicial_polynomial(r, d, lam), lam).all_coeffs()[::-1]
    return {e: sym_to_poly(c, d) for e, c in enumerate(coeffs)}


def symbol_constants(r):
    """{alpha: res L^(alpha/r) at the initial point} for alpha = 1..r-1, from
    the indicial symbol calculus alone: the reference for ``c_from_d(r)``.

    Series in 1/lam are coefficient lists from the top.  ``shifted[j][m]`` is
    the coefficient of s_R(lam - j) at lam^(1-m): -1, then j + u_0, then
    sum_(i+n=m-1) u_i C(-i, n) (-j)^n, each u_i (lam - j)^(-i) expanded by
    the generalized binomial.  ``prods[k][m]`` is the coefficient of
    prod_(j<k) s_R(lam - j) at lam^(k-m).  Level m is built once with
    u_(m-1) left out; u_(m-1) enters each shifted[j][m] with coefficient 1,
    so prods[k][m] misses k (-1)^(k-1) u_(m-1), and matching prods[r][m]
    against P at lam^(r-m) solves it (lead r (-1)^(r-1)); then both are
    completed.  Levels 1..r fix u_0..u_(r-1), all that R^alpha reads at
    lam^-1 for alpha < r."""
    zero, one = ParamPoly.zero("d"), ParamPoly.const("d", 1)
    target = indicial_coefficients(r)
    u = []
    shifted = [[-one] for _ in range(r)]
    prods = [[one] + [zero] * r] + [[one * (-1) ** k] for k in range(1, r + 1)]
    for m in range(1, r + 1):
        for j in range(r):
            acc = one * j if m == 1 else zero
            for i, ui in enumerate(u):
                n = m - 1 - i
                acc = acc + ui * Fraction(_ff(-i, n) * (-j) ** n, math.factorial(n))
            shifted[j].append(acc)
        for k in range(1, r + 1):
            acc = zero
            for l in range(m + 1):
                acc = acc + prods[k - 1][l] * shifted[k - 1][m - l]
            prods[k].append(acc)
        u.append((target[r - m] - prods[r][m]) / (r * (-1) ** (r - 1)))
        for j in range(r):
            shifted[j][m] = shifted[j][m] + u[-1]
        for k in range(1, r + 1):
            prods[k][m] = prods[k][m] + u[-1] * (k * (-1) ** (k - 1))
    assert u[0].is_zero(), "R has no D^0 term"
    return {alpha: -prods[alpha][alpha + 1] for alpha in range(1, r)}
