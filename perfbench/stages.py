"""One benchmark job run in-process, in a fresh interpreter.

    python3 perfbench/stages.py untraced '<job json>'
    python3 perfbench/stages.py traced '<job json>'

`untraced` times `gdtau.cli.main` on the job's arguments.  `traced` repeats
the same engine work by calling the public functions of each module in
pipeline order, with a span around each call, renders the output with the
CLI's own renderer, then times fixed algebra probes on the job's own
operands.  Both print one JSON object as their last line.

The staging repeats the program's work without adding to it: it requests
each fractional power in the order the program first asks for it, so the
r-th root is recomputed exactly when the program recomputes it, and it calls
every non-memoised function (such as `connected_correlators_pde`) once.
Span names are the pipeline stages: root, power, flow, pde, exp, log,
recursion, constants, substitute, checks, wred, render.
"""

from __future__ import annotations

import io
import json
import sys
import time
from contextlib import contextmanager, redirect_stdout

from harness import Tracer

import gdtau.cli as cli
from gdtau import (
    DiffPoly,
    PsiDO,
    WOperatorSpec,
    apply_Wred,
    connected_correlators_pde,
    connected_from_disconnected,
    constants,
    diff_x,
    frac_power,
    lax,
    recursion_correlators,
    rho_in_d,
    rth_root,
    series_from_correlators,
    solve_sigma_from_c,
    string_residual,
    table_substitute,
    tau_exp,
)
from gdtau.errors import NotStable
from gdtau.hierarchy import gd_flow
from gdtau.wconstraints import d_of_ctab


def _valid(r: int, top: int) -> list[int]:
    return [i for i in range(1, top + 1) if i % r]


def _size(x) -> int:
    """Rationals stored: ParamPoly terms, summed over the monomials of a
    DiffPoly and the coefficients of a PsiDO."""
    if isinstance(x, PsiDO):
        return sum(_size(c) for c in x.coeffs.values())
    if isinstance(x, DiffPoly):
        return sum(len(c.terms) for c in x.terms.values())
    return len(x.terms)


@contextmanager
def _serving(name: str, value):
    """Let the CLI renderer read an already computed result instead of
    computing it again: cli.<name> returns `value` inside the block."""
    saved = getattr(cli, name)
    setattr(cli, name, lambda *args: value)
    try:
        yield
    finally:
        setattr(cli, name, saved)


class Staging:
    """Staged calls for one job, with the counts and operands they yield."""

    def __init__(self, tracer: Tracer):
        self.tr = tracer
        self.counts = {
            "psido.root_terms": 0, "psido.power_terms": 0, "hierarchy.flow_terms": 0,
            "bgw.entries": 0, "bgw.max_entry_terms": 0, "wconstraints.checks": 0,
            "cli.output_bytes": 0,
        }
        self.diffpolys: list = []  # root coefficients and flow components
        self.parampolys: list = []  # table and dictionary entries

    # -- layers ---------------------------------------------------------------

    def powers(self, r: int, indices: list[int]) -> None:
        """Root and fractional powers L^(i/r) at floor -1, in request order.
        Every power of index i reads the root down to floor -i."""
        L = lax(r)
        for i in indices:
            with self.tr.span("root", r=r, i=i):
                rth_root(L, -i)
            with self.tr.span("power", r=r, i=i):
                self.counts["psido.power_terms"] += _size(frac_power(L, i, -1))
        root = rth_root(L, -max(indices))
        self.counts["psido.root_terms"] += _size(root)
        self.diffpolys += [root.coeffs[e] for e in sorted(root.coeffs, reverse=True)]

    def flows(self, r: int, indices: list[int]) -> None:
        for j in indices:
            with self.tr.span("flow", r=r, j=j):
                comps = gd_flow(r, j)
            self.counts["hierarchy.flow_terms"] += sum(_size(p) for p in comps.values())
            self.diffpolys += [comps[a] for a in sorted(comps)]

    def bgw_output(self, values) -> None:
        values = list(values)
        self.counts["bgw.entries"] += len(values)
        self.counts["bgw.max_entry_terms"] = max(
            [self.counts["bgw.max_entry_terms"]] + [len(v.terms) for v in values])

    def pde_table(self, r: int, weight: int, power_top: int = 0):
        """Everything the density route needs for a table through `weight`,
        with the powers up to `power_top` that a later stage asks for
        requested in the same ascending sweep."""
        weight = max(weight, 2)
        self.powers(r, sorted(set(_valid(r, weight)) | set(range(1, power_top + 1))))
        self.flows(r, _valid(r, weight - 1))
        with self.tr.span("pde", r=r, weight=weight):
            table = connected_correlators_pde(r, weight)
        self.bgw_output(table.values.values())
        return table

    def render(self, fn, cfg) -> str:
        with self.tr.span("render"):
            text = fn(cfg) + "\n"
        self.counts["cli.output_bytes"] += len(text.encode("utf-8"))
        return text

    # -- jobs -------------------------------------------------------------------

    def correlators(self, cfg) -> tuple[int, str]:
        r, w = cfg.r, cfg.weight
        if cfg.alphabet == "d":
            table = self.pde_table(r, w)
        elif cfg.alphabet == "c":
            with self.tr.span("recursion", r=r, weight=w):
                rec = recursion_correlators(r, w)
            with self.tr.span("constants", r=r):
                sigma = solve_sigma_from_c(r)
            with self.tr.span("substitute"):
                disc = table_substitute(rec, sigma, "c")
            with self.tr.span("log"):
                table = connected_from_disconnected(disc)
            self.bgw_output(table.values.values())
        else:
            raise ValueError(f"no staging for alphabet {cfg.alphabet!r}")
        self.parampolys += [table.values[I] for I in table.keys()]
        with _serving("_correlator_table", table):
            return 0, self.render(cli._run_correlators, cfg)

    def verify(self, cfg) -> tuple[int, str]:
        r, w = cfg.r, cfg.weight
        conn = self.pde_table(r, w)
        with self.tr.span("exp"):
            tau = tau_exp(series_from_correlators(conn))
        self.bgw_output(tau.coeffs.values())
        self.parampolys += [tau.coeffs[I] for I in tau.keys()]
        # the body of verify_constraints, one span per operator application
        lines = []
        with self.tr.span("checks"):
            with self.tr.span("constants", r=r):
                rho = rho_in_d(r)

            def check(label, window, series):
                if series is None or series.is_zero():
                    lines.append(f"{label} window={window} PASS")
                else:
                    lines.append(f"{label} window={window} FAIL "
                                 f"residual={series.first_nonzero()[1]}")

            check(f"r={r} string", w - 1, string_residual(tau, r))
            for alpha in range(1, r):
                for q in range(alpha, alpha + cfg.qextra + 1):
                    window = w - (q - alpha) * r - alpha
                    label = f"r={r} alpha={alpha} q={q}"
                    if window < 0:
                        check(label, window, None)
                        continue
                    with self.tr.span("wred", alpha=alpha, q=q):
                        res = apply_Wred(tau, WOperatorSpec(r, alpha, q))
                    if q == alpha:
                        res = res - tau.trim(window).scale(rho[alpha] * ((-1) ** alpha))
                    check(label, window, res)
        self.counts["wconstraints.checks"] += len(lines)
        with self.tr.span("render"):
            text = "\n".join(lines) + "\n"
        self.counts["cli.output_bytes"] += len(text.encode("utf-8"))
        return (0 if all(x.endswith("PASS") for x in lines) else 1), text

    def constants(self, cfg) -> tuple[int, str]:
        r = cfg.r
        self.powers(r, list(range(1, r)))
        with self.tr.span("constants", r=r):
            book = constants(r)
        self.parampolys += [book.c_d[a] for a in sorted(book.c_d)]
        return 0, self.render(cli._run_constants, cfg)

    def stabilized(self, cfg) -> tuple[int, str]:
        I = cfg.indices
        w = sum(I)
        samples = []
        # the body of stabilized_correlators
        for r in (w + 1, w + 2):
            conn = self.pde_table(r, w, power_top=r - 1)
            with self.tr.span("constants", r=r):
                dmap = d_of_ctab(r)
            with self.tr.span("substitute"):
                table = table_substitute(conn, dmap, "c")
            samples.append(table.value(I))
            self.parampolys += [table.values[J] for J in table.keys()]
        if samples[0] != samples[1]:
            raise NotStable(f"{samples[0]} vs {samples[1]}")
        with _serving("stabilized_correlators", samples[0]):
            return 0, self.render(cli._run_stabilized, cfg)


# --------------------------------------------------------------------------
# algebra probes
# --------------------------------------------------------------------------

PROBE_OPERANDS = 8
DIFF_X_ORDER = 8


def _pick(items: list, k: int = PROBE_OPERANDS) -> list:
    """k operands at evenly spaced ranks by size among the smaller two thirds,
    skipping constants: a fixed set for a given job.  The largest operands
    are left out because one product of two of them takes seconds."""
    ranked = sorted((x for x in items if _size(x) > 1), key=_size)
    ranked = ranked[:max(k, 2 * len(ranked) // 3)]
    if len(ranked) <= k:
        return ranked
    return [ranked[(len(ranked) - 1) * t // (k - 1)] for t in range(k)]


def probe(tr: Tracer, staging: Staging) -> dict:
    counts = {}
    dps = _pick(staging.diffpolys)
    pps = _pick(staging.parampolys)
    with tr.span("probe.diffpoly_mul"):
        for a in dps:
            for b in dps:
                a * b
    counts["algebra.diffpoly_mul_ops"] = len(dps) ** 2
    with tr.span("probe.diff_x"):
        for a in dps:
            p = a
            for _ in range(DIFF_X_ORDER):
                p = diff_x(p)
    counts["algebra.diff_x_ops"] = len(dps) * DIFF_X_ORDER
    with tr.span("probe.parampoly_mul"):
        for a in pps:
            for b in pps:
                a * b
    counts["algebra.parampoly_mul_ops"] = len(pps) ** 2
    return counts


# --------------------------------------------------------------------------
# entry points
# --------------------------------------------------------------------------


def _config(argv: list[str]):
    return cli._config_from_args(cli._build_parser().parse_args(argv))


def untraced(job: dict) -> dict:
    buf = io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(buf):
        code = cli.main(job["argv"])
    elapsed = time.perf_counter() - t0
    return {"exit": code, "stdout": buf.getvalue(), "elapsed_s": elapsed}


def traced(job: dict) -> dict:
    cfg = _config(job["argv"])
    tr = Tracer()
    staging = Staging(tr)
    with tr.span("job", job=job["name"]):
        code, text = getattr(staging, cfg.command)(cfg)
    counts = dict(staging.counts)
    counts.update(probe(tr, staging))
    return {"exit": code, "stdout": text, "spans": tr.to_json(), "counts": counts}


def main() -> int:
    mode, job = sys.argv[1], json.loads(sys.argv[2])
    run = {"traced": traced, "untraced": untraced}[mode]
    print(json.dumps(run(job)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
