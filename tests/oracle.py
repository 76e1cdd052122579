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
shape); ``frac_add`` and ``frac_scale`` serve both.

The ``print_*`` functions are the reference printers: they read the
``terms`` views, one ``Fraction`` per term, and join signed terms the way
the engine prints them.  ``string_residual_reference`` spells the string
residual out with five polynomial operations per entry.
"""

import math
from fractions import Fraction

import sympy as sp


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
