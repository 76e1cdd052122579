"""Command line front end.

Exit codes: 0 success (all checks passed, where applicable), 1 a verification
reported FAIL, 2 bad usage or configuration, 3 an internal exactness or
stability error surfaced (nothing was silently truncated).
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
from collections import Counter
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .algebra import ParamPoly
from .bgw import (
    CorrelatorTable,
    TauSeries,
    connected_correlators_pde,
    connected_from_disconnected,
    disconnected_from_connected,
    series_from_correlators,
    tau_exp,
)
from .errors import EngineError
from .wconstraints import (
    constants,
    recursion_correlators,
    stabilized_correlators,
    table_in_c,
    verify_constraints,
)


class ConfigError(ValueError):
    """Bad combination of command line values."""


class RunConfig(NamedTuple):
    command: str
    r: int = 0
    weight: int = 0
    alphabet: str = "c"
    kind: str = "connected"
    fmt: str = "text"
    qextra: int = 2
    assignments: tuple[tuple[int, Fraction], ...] = ()
    out: Optional[str] = None
    indices: tuple[int, ...] = ()
    corrupt: bool = False


# --------------------------------------------------------------------------
# parsing
# --------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gdtau",
        description="Exact correlator tables and constraint checks for the "
        "order-r reduced hierarchy with its distinguished initial data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("correlators", help="print a correlator table")
    pc.add_argument("--r", type=int, required=True, help="order of the hierarchy (>= 2)")
    pc.add_argument("--weight", type=int, required=True, help="largest total weight")
    pc.add_argument("--alphabet", choices=["d", "c", "sigma"], default="c",
                    help="parameter family for the values")
    kind = pc.add_mutually_exclusive_group()
    kind.add_argument("--connected", action="store_true", help="connected values (default)")
    kind.add_argument("--disconnected", action="store_true", help="moment values")
    pc.add_argument("--format", dest="fmt", choices=["text", "json", "csv", "latex"],
                    default="text")
    pc.add_argument("--set", dest="assignments", action="append", default=[],
                    metavar="PARAM=VALUE",
                    help="pin a parameter to an exact rational, e.g. c1=1/2 (repeatable)")
    pc.add_argument("--out", help="write the output here instead of stdout")

    pv = sub.add_parser("verify", help="run the constraint checks")
    pv.add_argument("--r", type=int, required=True)
    pv.add_argument("--weight", type=int, required=True)
    pv.add_argument("--qextra", type=int, default=2,
                    help="how far past the eigenvalue row to scan (default 2)")
    pv.add_argument("--selftest-corrupt", dest="corrupt", action="store_true",
                    help=argparse.SUPPRESS)
    pv.add_argument("--out")

    pk = sub.add_parser("constants", help="print the constant dictionaries")
    pk.add_argument("--r", type=int, required=True)
    pk.add_argument("--format", dest="fmt", choices=["text", "json"], default="text")
    pk.add_argument("--out")

    ps = sub.add_parser("stabilized", help="one correlator in the large-r range")
    ps.add_argument("--indices", required=True,
                    help="comma separated insertions, e.g. 2,2")
    ps.add_argument("--format", dest="fmt", choices=["text", "json", "csv", "latex"],
                    default="text")
    ps.add_argument("--out")

    return parser


def _parse_assignments(raw: Sequence[str], alphabet: str, r: int) -> tuple[tuple[int, Fraction], ...]:
    out: dict[int, Fraction] = {}
    for item in raw:
        name, sep, val = item.partition("=")
        if not sep:
            raise ConfigError(f"--set needs PARAM=VALUE, got {item!r}")
        if not name.startswith(alphabet) or not name[len(alphabet):].isdecimal():
            raise ConfigError(
                f"parameter {name!r} does not belong to the {alphabet!r} alphabet"
            )
        idx = int(name[len(alphabet):])
        if not 1 <= idx <= r - 1:
            raise ConfigError(f"parameter index in {name!r} must lie in 1..{r - 1}")
        if idx in out:
            raise ConfigError(f"parameter {alphabet}{idx} is set more than once")
        # Fraction builds 10**exponent, which stalls for a huge exponent
        limit = sys.get_int_max_str_digits()
        _, e, exp = val.lower().rpartition("e")
        exp = exp.strip().lstrip("+-").replace("_", "").lstrip("0")
        if limit and e and exp.isdecimal() and (len(exp) > len(str(limit)) or int(exp) > limit):
            raise ConfigError(f"the exponent in --set {item!r} exceeds {limit}")
        try:
            frac = Fraction(val)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad rational {val!r} in --set {item!r}") from exc
        out[idx] = frac
    return tuple(out.items())


def _config_from_args(ns: argparse.Namespace) -> RunConfig:
    command = ns.command
    if ns.out == "":
        raise ConfigError("--out needs a file name")
    if command == "correlators":
        if ns.r < 2:
            raise ConfigError("--r must be >= 2")
        if ns.weight < 1:
            raise ConfigError("--weight must be >= 1")
        kind = "disconnected" if ns.disconnected else "connected"
        assignments = _parse_assignments(ns.assignments, ns.alphabet, ns.r)
        return RunConfig(command, r=ns.r, weight=ns.weight, alphabet=ns.alphabet,
                         kind=kind, fmt=ns.fmt, assignments=assignments, out=ns.out)
    if command == "verify":
        if ns.r < 2:
            raise ConfigError("--r must be >= 2")
        if ns.weight < 2:
            raise ConfigError("--weight must be >= 2 to verify anything")
        if ns.qextra < 0:
            raise ConfigError("--qextra must be >= 0")
        # every column with (q - alpha) r >= weight has an empty window, so
        # scanning past --weight columns would only print vacuous PASS lines
        if ns.qextra > ns.weight:
            raise ConfigError("--qextra must be <= --weight: the columns past it "
                              "have empty windows")
        return RunConfig(command, r=ns.r, weight=ns.weight, qextra=ns.qextra,
                         corrupt=ns.corrupt, out=ns.out)
    if command == "constants":
        if ns.r < 2:
            raise ConfigError("--r must be >= 2")
        return RunConfig(command, r=ns.r, fmt=ns.fmt, out=ns.out)
    if command == "stabilized":
        try:
            indices = tuple(int(x) for x in ns.indices.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad --indices {ns.indices!r}") from exc
        if not indices or any(i < 1 for i in indices):
            raise ConfigError("--indices needs positive integers")
        return RunConfig(command, fmt=ns.fmt, indices=tuple(sorted(indices)), out=ns.out)
    raise ConfigError(f"unknown command {command!r}")


# --------------------------------------------------------------------------
# rendering
# --------------------------------------------------------------------------


def _bracket(I: tuple[int, ...]) -> str:
    parts = []
    for i, m in sorted(Counter(I).items(), reverse=True):
        parts.append(f"t{i}" + (f"^{m}" if m > 1 else ""))
    return "<" + " ".join(parts) + ">"


_LATEX_SYMBOL = {"d": "d", "c": "c", "sigma": "\\sigma"}


def _latex_coeff(n: int, d: int) -> str:
    """A magnitude n/d in lowest terms: an integer, or a \\tfrac."""
    return str(n) if d == 1 else f"\\tfrac{{{n}}}{{{d}}}"


def _latex_poly(p: ParamPoly) -> str:
    sym = _LATEX_SYMBOL.get(p.alphabet, p.alphabet)
    return p.format(lambda i, e: f"{sym}_{{{i}}}" + (f"^{{{e}}}" if e > 1 else ""),
                    _latex_coeff, " ")


def _latex_bracket(I: tuple[int, ...]) -> str:
    taus = []
    for i, m in sorted(Counter(I).items(), reverse=True):
        taus.append(f"\\tau_{{{i}}}" + (f"^{{{m}}}" if m > 1 else ""))
    return "\\langle " + " ".join(taus) + " \\rangle"


def _json(payload: dict) -> str:
    import json  # only the JSON renderers need it

    return json.dumps(payload, indent=2)


def _render_entries(cfg: RunConfig, table: CorrelatorTable,
                    entries: list[tuple[tuple[int, ...], ParamPoly]]) -> str:
    if cfg.fmt == "text":
        return "\n".join(f"{_bracket(I)} = {v}" for I, v in entries)
    if cfg.fmt == "json":
        payload = {
            "r": cfg.r,
            "weight": cfg.weight,
            "alphabet": cfg.alphabet,
            "kind": table.kind,
            "entries": [{"indices": list(I), "value": str(v)} for I, v in entries],
        }
        return _json(payload)
    if cfg.fmt == "csv":
        lines = ["indices;value"]
        lines += [f"{','.join(map(str, I))};{v}" for I, v in entries]
        return "\n".join(lines)
    if cfg.fmt == "latex":
        rows = [f"{_latex_bracket(I)} &= {_latex_poly(v)}" for I, v in entries]
        body = " \\\\\n".join(rows)
        return "\\begin{align*}\n" + body + "\n\\end{align*}"
    raise ConfigError(f"unknown format {cfg.fmt!r}")


def _emit(text: str, out: Optional[str]) -> None:
    """Print `text`, or write it to `out`.  A new or regular file is written
    atomically: a temp file in the same directory, then a rename over `out`.
    Anything else (a symlink, a device such as /dev/stdout, a FIFO) is opened
    and written in place, so the link or node itself is kept.  I/O failures,
    a closed standard output among them, are usage errors."""
    if out is None:
        try:
            print(text, flush=True)
        except BrokenPipeError as exc:
            # the reader is gone: point stdout at the null device, so the
            # interpreter's last flush finds nothing to fail on
            devnull = os.open(os.devnull, os.O_WRONLY)
            try:
                os.dup2(devnull, sys.stdout.fileno())
            finally:
                os.close(devnull)
            raise ConfigError("cannot write to standard output: the pipe is closed") from exc
        return
    try:
        try:
            atomic = stat.S_ISREG(os.lstat(out).st_mode)
        except FileNotFoundError:
            atomic = True
        if not atomic:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
            return
        tmp = f"{out}.{os.getpid()}.tmp"
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
            os.replace(tmp, out)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc.strerror or exc}") from exc


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------


def _correlator_table(cfg: RunConfig) -> CorrelatorTable:
    if cfg.alphabet == "d":
        conn = connected_correlators_pde(cfg.r, cfg.weight)
        return conn if cfg.kind == "connected" else disconnected_from_connected(conn)
    if cfg.alphabet == "sigma":
        disc = recursion_correlators(cfg.r, cfg.weight)
        return disc if cfg.kind == "disconnected" else connected_from_disconnected(disc)
    # both routes give the same table; the faster one serves: the weight
    # recursion for disconnected tables at r <= 3 (r = 3, weight 18: 0.14 s
    # against 0.20 s, each in a fresh process), the density route elsewhere
    path = "recursion" if cfg.kind == "disconnected" and cfg.r <= 3 else "pde"
    return table_in_c(cfg.r, cfg.weight, path, cfg.kind)


def _run_correlators(cfg: RunConfig) -> str:
    table = _correlator_table(cfg)
    assignment = dict(cfg.assignments)
    entries = []
    for I in table.keys():
        v = table.values[I]
        entries.append((I, v.evaluate(assignment) if assignment else v))
    limit = sys.get_int_max_str_digits()  # pinned values can outgrow it
    sys.set_int_max_str_digits(0)
    try:
        return _render_entries(cfg, table, entries)
    finally:
        sys.set_int_max_str_digits(limit)


def _run_verify(cfg: RunConfig) -> tuple[bool, str]:
    tau = None
    if cfg.corrupt:
        conn = connected_correlators_pde(cfg.r, cfg.weight)
        tau = tau_exp(series_from_correlators(conn))
        key = tau.keys()[-1]
        bumped = dict(tau.coeffs)
        bumped[key] = bumped[key] + Fraction(1, 7)
        tau = TauSeries("d", tau.cap, bumped)
    report = verify_constraints(cfg.r, cfg.weight, cfg.qextra, tau=tau)
    return report.ok, report.text()


def _run_constants(cfg: RunConfig) -> str:
    book = constants(cfg.r)
    families = [
        ("c(d)", "c", book.c_d),
        ("d(c)", "d", book.d_c),
    ]
    if cfg.fmt == "json":
        payload = {"r": cfg.r}
        for title, prefix, fam in families:
            payload[title] = {f"{prefix}{a}": str(p) for a, p in sorted(fam.items())}
        return _json(payload)
    lines = []
    for title, prefix, fam in families:
        lines.append(f"# {title}")
        lines += [f"{prefix}{a} = {p}" for a, p in sorted(fam.items())]
    return "\n".join(lines)


def _run_stabilized(cfg: RunConfig) -> str:
    value = stabilized_correlators(cfg.indices)
    I = cfg.indices
    if cfg.fmt == "text":
        return f"{_bracket(I)} = {value}"
    if cfg.fmt == "json":
        payload = {
            "indices": list(I),
            "weight": sum(I),
            "alphabet": "c",
            "value": str(value),
        }
        return _json(payload)
    if cfg.fmt == "csv":
        return "indices;value\n" + f"{','.join(map(str, I))};{value}"
    return f"\\[ {_latex_bracket(I)} = {_latex_poly(value)} \\]"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        cfg = _config_from_args(ns)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if cfg.command == "correlators":
            _emit(_run_correlators(cfg), cfg.out)
            return 0
        if cfg.command == "verify":
            ok, text = _run_verify(cfg)
            _emit(text, cfg.out)
            return 0 if ok else 1
        if cfg.command == "constants":
            _emit(_run_constants(cfg), cfg.out)
            return 0
        _emit(_run_stabilized(cfg), cfg.out)
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
