"""Helpers shared by the benchmark driver and the traced child process.

Standard library only.  Nothing here imports gdtau: the driver runs the
engine in child processes, and the traced child imports it itself.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence

# Names of metrics, workloads and spans: a letter or digit first, then at most
# 63 more letters, digits, '_', '.' or '-'.
_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def valid_name(name: str) -> bool:
    return isinstance(name, str) and _NAME.fullmatch(name) is not None


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------
# statistics
# --------------------------------------------------------------------------

# Percentiles reported beside the median, highest first.
_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(samples: Sequence[float], min_beyond: int = 10
                    ) -> Optional[tuple[float, float]]:
    """Highest ladder percentile with at least `min_beyond` samples above it.

    Uses the nearest-rank definition: the p-th percentile of n sorted samples
    is the one at rank ceil(p/100 * n), and the n - rank samples after it lie
    beyond it.  Returns (p, value), or None when even the median has fewer
    than `min_beyond` samples beyond it.
    """
    xs = sorted(samples)
    n = len(xs)
    for p in _LADDER:
        rank = max(1, math.ceil(Fraction(str(p)) / 100 * n))
        if n - rank >= min_beyond:
            return p, xs[rank - 1]
    return None


def summarize(samples: Sequence[float]) -> dict:
    """Median, tail percentile (when there are enough samples) and count."""
    out = {"median": statistics.median(samples), "n": len(samples)}
    tail = tail_percentile(samples)
    if tail is not None:
        out[f"p{tail[0]:g}"] = tail[1]
    return out


# --------------------------------------------------------------------------
# spans
# --------------------------------------------------------------------------


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    start: float
    end: float = math.nan
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder: one span per `with tracer.span(name)` block,
    parented on the innermost open span."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        if not valid_name(name):
            raise ValueError(f"bad span name {name!r}")
        parent = self._open[-1] if self._open else None
        sp = Span(len(self.spans), name, parent, self.clock(), attrs=dict(attrs))
        self.spans.append(sp)
        self._open.append(sp.id)
        try:
            yield sp
        finally:
            sp.end = self.clock()
            self._open.pop()

    def to_json(self) -> list[dict]:
        return [
            {"id": s.id, "name": s.name, "parent": s.parent,
             "start": s.start, "end": s.end, **({"attrs": s.attrs} if s.attrs else {})}
            for s in self.spans
        ]


def _covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of closed intervals."""
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Span id -> its duration minus the part its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        inside = [(max(a, s.start), min(b, s.end)) for a, b in children.get(s.id, ())]
        out[s.id] = s.duration - _covered((a, b) for a, b in inside if b > a)
    return out


def self_time_by_name(spans: Sequence[Span]) -> dict[str, float]:
    own = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + own[s.id]
    return out


# --------------------------------------------------------------------------
# jobs in fresh processes
# --------------------------------------------------------------------------

# A check maps (exit code, stdout) to None when the output is right, or to a
# one-line reason when it is not.
Check = Callable[[int, str], Optional[str]]


@dataclass
class JobResult:
    name: str
    ok: bool
    reason: str
    wall_s: float
    cpu_s: float
    returncode: Optional[int]


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def children_peak_rss_mb() -> float:
    """Largest resident set of any waited-for child so far (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def run_job(name: str, argv: Sequence[str], timeout_s: float, check: Check,
            env: Optional[dict] = None, cwd: Optional[str] = None) -> JobResult:
    """Run one child process to completion and judge its output.

    The job fails on a timeout (the child is killed and reaped), on an exit
    code or output that `check` rejects, or when it cannot be started.  CPU
    time is the RUSAGE_CHILDREN difference, so it is exact only while this
    process runs one child at a time.
    """
    cpu0 = _children_cpu()
    t0 = time.perf_counter()
    try:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=env, cwd=cwd, text=True)
    except OSError as exc:
        return JobResult(name, False, f"cannot start: {exc}", 0.0, 0.0, None)
    try:
        out, err = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        wall = time.perf_counter() - t0
        return JobResult(name, False, f"timeout after {timeout_s:.0f} s", wall,
                         _children_cpu() - cpu0, None)
    wall = time.perf_counter() - t0
    cpu = _children_cpu() - cpu0
    reason = check(proc.returncode, out)
    if reason is not None and err.strip():
        reason += f" (stderr: {err.strip().splitlines()[-1]})"
    return JobResult(name, reason is None, reason or "ok", wall, cpu, proc.returncode)


def fail_counts(results: Iterable[JobResult]) -> tuple[int, int]:
    """(attempted, failed) over a sequence of job results."""
    attempted = failed = 0
    for res in results:
        attempted += 1
        failed += not res.ok
    return attempted, failed


def stamp(root: str, seed: int) -> dict:
    """Where and on what a result was measured."""
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                    capture_output=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    src = os.path.join(root, "src", "gdtau")
    digest = hashlib.sha256()
    for fn in sorted(os.listdir(src)):
        if fn.endswith(".py"):
            with open(os.path.join(src, fn), "rb") as fh:
                digest.update(fn.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }
