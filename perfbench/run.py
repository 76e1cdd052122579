"""Benchmark of the gdtau engine, end to end and layer by layer.

    python3 perfbench/run.py --workload density --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run it from the root of a checkout; it runs the engine from `src/` and needs
nothing beyond the standard library.  Users pay for every table as one cold
`gdtau` process (all caches are process-local), so:

* `--trace 0` runs the workload's jobs as fresh `python -m gdtau ...`
  processes, one at a time and round after round, starting jobs for
  `--seconds` (every job runs at least once).  It reports the end-to-end
  metrics: wall and CPU time of the workload's jobs (the sum over jobs of
  each job's median), the largest resident set of any job, the share of
  jobs whose output is right, and the start cost of a process that imports
  the engine and builds its parser (median over many starts).
* `--trace 1` runs each job twice more in fresh processes: once through
  `gdtau.cli.main` untraced, once staged through the public functions of
  each module with a span around every call (see stages.py).  It reports
  each layer's time and output sizes, how much of the untraced time the
  spans cover, and the tracing overhead.

Every job's output is checked against references captured from the engine
(refs.json, see capture_refs.py).  The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`; the full
record (stamp, samples, spans) is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from harness import (
    JobResult,
    Span,
    children_peak_rss_mb,
    fail_counts,
    run_job,
    self_time_by_name,
    sha256,
    stamp,
    summarize,
    valid_name,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

TABLE_FORMATS = ("text", "json", "csv", "latex")
WEIGHT8_PAIRS = ((1, 7), (2, 6), (3, 5), (4, 4))

# A job that runs longer than this multiple of its baseline has failed.
TIMEOUT_FACTOR = 4
# Fresh interpreter starts per run for setup_s.
SETUP_STARTS = 21
# Every child is killed once this many seconds of the run have passed, so a
# pathological regression fails the run instead of outliving its time limit.
RUN_DEADLINE_S = 150


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]  # gdtau arguments, without --format
    baseline_s: float  # one fresh process, 2-core x86_64 host, Python 3.11
    formats: tuple[str, ...]  # --format values the seed picks from
    check: str  # "digest", "constants" or "verify"


JOBS = {
    "correlators_r4_w12_d": Job(("correlators", "--r", "4", "--weight", "12", "--alphabet", "d"),
                                6.4, TABLE_FORMATS, "digest"),
    "constants_r12": Job(("constants", "--r", "12"), 13.9, ("text", "json"), "constants"),
    "stabilized_w8": Job(("stabilized",), 5.0, TABLE_FORMATS, "digest"),
    "correlators_r3_w14": Job(("correlators", "--r", "3", "--weight", "14"),
                              2.8, TABLE_FORMATS, "digest"),
    "verify_r4_w10": Job(("verify", "--r", "4", "--weight", "10"), 4.2, (), "verify"),
}

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "density": ("correlators_r4_w12_d",),
    "large_r": ("constants_r12", "stabilized_w8"),
    "constraints": ("correlators_r3_w14", "verify_r4_w10"),
}

# The negative self-check: a corrupted tau series must fail the verify gate.
SELFCHECK_ARGV = ("verify", "--r", "3", "--weight", "6", "--selftest-corrupt")

# Span name -> per-layer metric, and the end-to-end metric and workloads it
# should move.
STAGE_METRICS = {
    "probe.diffpoly_mul": ("algebra.diffpoly_mul_s", "cpu_s on all workloads"),
    "probe.diff_x": ("algebra.diff_x_s", "cpu_s on all workloads"),
    "probe.parampoly_mul": ("algebra.parampoly_mul_s", "cpu_s on all workloads"),
    "root": ("psido.root_s", "wall_s on density and large_r; constraints only via verify"),
    "power": ("psido.power_s", "wall_s on density and large_r; constraints only via verify"),
    "flow": ("hierarchy.flow_s", "wall_s on density and large_r"),
    "pde": ("bgw.pde_s", "wall_s on density and large_r"),
    "exp": ("bgw.exp_s", "wall_s on constraints"),
    "log": ("bgw.log_s", "wall_s on constraints"),
    "recursion": ("wconstraints.recursion_s", "wall_s on constraints"),
    "wred": ("wconstraints.wred_s", "wall_s on constraints"),
    "substitute": ("wconstraints.substitute_s", "wall_s on constraints and large_r"),
    "constants": ("wconstraints.constants_s", "wall_s on large_r"),
    "render": ("cli.render_s", "wall_s on constraints"),
}
COUNT_METRICS = {
    "algebra.diffpoly_mul_ops": "cpu_s on all workloads",
    "algebra.diff_x_ops": "cpu_s on all workloads",
    "algebra.parampoly_mul_ops": "cpu_s on all workloads",
    "psido.root_terms": "peak_rss_mb on density and large_r",
    "psido.power_terms": "peak_rss_mb on density and large_r",
    "hierarchy.flow_terms": "wall_s on density and large_r",
    "bgw.entries": "peak_rss_mb on all workloads",
    "bgw.max_entry_terms": "peak_rss_mb on all workloads",
    "wconstraints.checks": "wall_s on constraints",
    "cli.output_bytes": "wall_s on constraints",
}
# Spans with no metric of their own: the job itself (harness time between
# stages) and the constraint checks around the operator applications.
OTHER_SPANS = {"job": "harness", "checks": "wconstraints"}


def layer_of(span: str) -> str:
    """Module a span's self time belongs to: the prefix of its metric."""
    return STAGE_METRICS[span][0].split(".")[0] if span in STAGE_METRICS else OTHER_SPANS[span]


class SetupError(Exception):
    """The directory run from is not a checkout of the engine."""


# --------------------------------------------------------------------------
# plans and checks
# --------------------------------------------------------------------------


def plan(workload: str, seed: int) -> list[dict]:
    """The workload's jobs for this seed: order, formats and the stabilized
    pair come from the seed; problem sizes are fixed."""
    rng = random.Random(f"{workload}/{seed}")
    names = list(WORKLOADS[workload])
    rng.shuffle(names)
    out = []
    for name in names:
        job = JOBS[name]
        argv = list(job.argv)
        if name == "stabilized_w8":
            argv += ["--indices", ",".join(map(str, rng.choice(WEIGHT8_PAIRS)))]
        if job.formats:
            argv += ["--format", rng.choice(job.formats)]
        out.append({"name": name, "argv": argv, "check": job.check,
                    "timeout_s": TIMEOUT_FACTOR * job.baseline_s})
    return out


def constants_sections(fmt: str, out: str) -> str:
    """The c(d) and d(c) sections of `constants` output, as 'name = value'
    lines; the same text for --format text and json."""
    keep = ("c(d)", "d(c)")
    if fmt == "json":
        payload = json.loads(out)
        return "\n".join(f"# {t}\n" + "\n".join(f"{k} = {v}" for k, v in payload[t].items())
                         for t in keep)
    sections, title = {}, None
    for line in out.splitlines():
        if line.startswith("# "):
            title = line[2:]
            sections[title] = []
        elif title is not None:
            sections[title].append(line)
    return "\n".join(f"# {t}\n" + "\n".join(sections.get(t, [])) for t in keep)


def load_refs() -> dict:
    with open(BENCH / "refs.json", encoding="utf-8") as fh:
        return json.load(fh)


def make_check(job: dict, refs: dict):
    key = " ".join(job["argv"])
    kind = job["check"]
    if kind == "verify":
        want = refs["verify_lines"][key]

        def check(code: int, out: str) -> Optional[str]:
            lines = out.splitlines()
            if code != 0:
                return f"exit {code}"
            bad = [x for x in lines if not x.endswith(" PASS")]
            if bad:
                return f"not PASS: {bad[0]}"
            if len(lines) != want:
                return f"{len(lines)} check lines, expected {want}"
            return None
        return check
    want = refs["outputs"][key]
    fmt = job["argv"][job["argv"].index("--format") + 1]

    def check(code: int, out: str) -> Optional[str]:
        if code != 0:
            return f"exit {code}"
        try:
            got = sha256(constants_sections(fmt, out) if kind == "constants" else out)
        except (ValueError, KeyError) as exc:
            return f"unreadable output: {exc}"
        return None if got == want else "output differs from the reference"
    return check


# --------------------------------------------------------------------------
# running
# --------------------------------------------------------------------------


def engine_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def gdtau_argv(args) -> list[str]:
    return [sys.executable, "-m", "gdtau", *args]


def within(deadline: float, timeout_s: float) -> float:
    """A child's timeout, cut to what is left before the run's deadline."""
    return max(0.1, min(timeout_s, deadline - time.monotonic()))


def measure_setup(env: dict, deadline: float) -> tuple[list[float], list[JobResult]]:
    """Wall time of `gdtau --help`: interpreter start, `import gdtau` and
    building the argument parser, with no computation."""
    def check(code, out):
        return None if code == 0 and out.startswith("usage: gdtau") else f"exit {code}"
    results = [run_job("setup", gdtau_argv(["--help"]), within(deadline, 30), check,
                       env=env, cwd=str(ROOT))
               for _ in range(SETUP_STARTS)]
    return [r.wall_s for r in results], [r for r in results if not r.ok]


def run_end_to_end(workload: str, seed: int, seconds: float, refs: dict,
                   deadline: float) -> dict:
    env = engine_env()
    jobs = plan(workload, seed)
    checks = [make_check(j, refs) for j in jobs]
    setup, setup_failures = measure_setup(env, deadline)
    selfcheck_job = {"argv": list(SELFCHECK_ARGV), "check": "verify"}
    selfcheck = run_job("selfcheck", gdtau_argv(SELFCHECK_ARGV), within(deadline, 60),
                        make_check(selfcheck_job, refs), env=env, cwd=str(ROOT))
    # Jobs run in the planned order, round after round; a job starts while
    # fewer than `seconds` have passed, and every job runs at least once.
    samples: list[list[JobResult]] = [[] for _ in jobs]
    t0 = time.perf_counter()
    k = 0
    while k < len(jobs) or time.perf_counter() - t0 < seconds:
        i = k % len(jobs)
        j = jobs[i]
        samples[i].append(run_job(j["name"], gdtau_argv(j["argv"]),
                                  within(deadline, j["timeout_s"]), checks[i],
                                  env=env, cwd=str(ROOT)))
        k += 1
    attempted, failed = fail_counts(r for rs in samples for r in rs)
    metrics = {
        "wall_s": sum(statistics.median([r.wall_s for r in rs]) for rs in samples),
        "cpu_s": sum(statistics.median([r.cpu_s for r in rs]) for rs in samples),
        "peak_rss_mb": children_peak_rss_mb(),
        "ok_ratio": (attempted - failed) / attempted,
        "setup_s": statistics.median(setup),
    }
    correct = failed == 0 and not selfcheck.ok and not setup_failures
    return {
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
        "detail": {
            "plan": jobs,
            "jobs": [{"name": j["name"], "wall_s": summarize([r.wall_s for r in rs]),
                      "cpu_s": summarize([r.cpu_s for r in rs]),
                      "runs": [vars(r) for r in rs]} for j, rs in zip(jobs, samples)],
            "setup_s": summarize(setup),
            "setup_failures": [vars(r) for r in setup_failures],
            "selfcheck": {"argv": list(SELFCHECK_ARGV), "counted_as_failed": not selfcheck.ok,
                          "reason": selfcheck.reason},
        },
    }


def run_child(mode: str, job: dict, env: dict, check, deadline: float
              ) -> tuple[Optional[dict], str]:
    """One in-process run of `job` in a fresh interpreter (stages.py)."""
    argv = [sys.executable, str(BENCH / "stages.py"), mode, json.dumps(job)]
    timeout = within(deadline, job["timeout_s"] + 30)  # room for the algebra probes
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                              cwd=str(ROOT), timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"timeout after {timeout:.0f} s"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return None, f"{mode} run exited {proc.returncode}: {tail[0]}"
    payload = json.loads(proc.stdout.splitlines()[-1])
    reason = check(payload["exit"], payload["stdout"])
    return payload, reason or "ok"


def run_traced(workload: str, seed: int, refs: dict, deadline: float) -> dict:
    env = engine_env()
    jobs = plan(workload, seed)
    attempted = failed = 0
    stage_s = {metric: 0.0 for metric, _ in STAGE_METRICS.values()}
    counts = {name: 0 for name in COUNT_METRICS}
    layer_self: dict[str, float] = {}
    traced_s = untraced_s = covered_s = 0.0
    records = []
    for job in jobs:
        check = make_check(job, refs)
        runs = {}
        for mode in ("untraced", "traced"):
            payload, reason = run_child(mode, job, env, check, deadline)
            attempted += 1
            failed += reason != "ok"
            runs[mode] = (payload, reason)
        plain, traced = runs["untraced"][0], runs["traced"][0]
        record = {"job": job, "untraced": runs["untraced"][1], "traced": runs["traced"][1]}
        records.append(record)
        if plain is None or traced is None:
            continue
        spans = [Span(s["id"], s["name"], s["parent"], s["start"], s["end"], s.get("attrs", {}))
                 for s in traced["spans"]]
        own = self_time_by_name(spans)
        for name, t in own.items():
            if name in STAGE_METRICS:
                stage_s[STAGE_METRICS[name][0]] += t
            layer_self[layer_of(name)] = layer_self.get(layer_of(name), 0.0) + t
        root = next(s for s in spans if s.name == "job")
        traced_s += root.duration
        covered_s += root.duration - own["job"]
        untraced_s += plain["elapsed_s"]
        for name, value in traced["counts"].items():
            counts[name] = (max(counts[name], value) if name == "bgw.max_entry_terms"
                            else counts[name] + value)
        record.update(untraced_s=plain["elapsed_s"], traced_s=root.duration,
                      spans=traced["spans"], counts=traced["counts"])
    metrics = dict(stage_s)
    metrics.update(counts)
    metrics["trace.span_coverage"] = covered_s / untraced_s if untraced_s else 0.0
    metrics["trace.overhead_s"] = traced_s - untraced_s
    return {
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
        "detail": {
            "jobs": records,
            "layer_self_s": layer_self,
            "untraced_s": untraced_s,
            "traced_s": traced_s,
            "covered_s": covered_s,
        },
    }


# --------------------------------------------------------------------------
# output
# --------------------------------------------------------------------------


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not valid_name(m["name"]):
            raise ValueError(f"bad metric name {m['name']!r} in BENCHMARK.json")
    return spec


def run_workload(workload: str, seed: int, seconds: float, trace: int, refs: dict,
                 declared: list[dict]) -> dict:
    load_start = os.getloadavg()
    deadline = time.monotonic() + RUN_DEADLINE_S
    if trace:
        result = run_traced(workload, seed, refs, deadline)
    else:
        result = run_end_to_end(workload, seed, seconds, refs, deadline)
    metrics = {}
    for m in declared:
        if m["name"] not in result["metrics"]:
            raise KeyError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": result["metrics"][m["name"]], "unit": m["unit"]}
    record = {
        "workload": workload, "trace": trace, "seconds": seconds,
        "stamp": {**stamp(str(ROOT), seed), "loadavg_start": load_start,
                  "loadavg_end": os.getloadavg()},
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"], "fail_ratio": result["failed"] / result["attempted"],
        "metrics": metrics, "detail": result["detail"],
    }
    if trace:
        moves = {metric: why for metric, why in STAGE_METRICS.values()} | COUNT_METRICS
        record["should_move"] = moves
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{workload}-seed{seed}-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each as its own run of this
    script so that the resident-set peak of one run does not leak into the
    next.  The last line merges their results, metric names prefixed by
    workload."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, cwd=str(ROOT), timeout=180)
            if proc.returncode != 0:
                print(proc.stderr, end="", file=sys.stderr)
                return proc.returncode
            *table, last = proc.stdout.splitlines()
            print("\n".join(table))
            result = json.loads(last)
            summary["correct"] = summary["correct"] and result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                summary["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(summary))
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="'all' runs every workload, untraced then traced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        if not (ROOT / "src" / "gdtau" / "__init__.py").is_file():
            raise SetupError(f"no engine sources under {ROOT / 'src'}")
        spec = load_spec()
        refs = load_refs()
    except (SetupError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    rec = run_workload(args.workload, args.seed, args.seconds, args.trace, refs, declared)
    print(f"# {args.workload} trace={args.trace} correct={rec['correct']} "
          f"attempted={rec['attempted']} failed={rec['failed']}")
    print(f"# stamp {json.dumps(rec['stamp'])}")
    for name, m in rec["metrics"].items():
        note = rec.get("should_move", {}).get(name)
        print(f"{args.workload:12s} {name:28s} {m['value']:<14.6g} {m['unit']:6s}"
              + (f" moves {note}" if note else ""))
    print(json.dumps({k: rec[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
