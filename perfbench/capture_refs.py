"""Capture the reference outputs the benchmark checks every job against.

    python3 perfbench/capture_refs.py

Runs every job variant the seeds can choose (each --format, each weight-8
pair) once through `gdtau.cli.main` in this process and writes
perfbench/refs.json: a sha256 digest per output (for `constants`, of its
c(d) and d(c) sections only) and the number of check lines per `verify`.
Capture only from an engine whose outputs the test suite accepts.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout

from run import BENCH, JOBS, ROOT, SELFCHECK_ARGV, WEIGHT8_PAIRS, constants_sections
from harness import sha256, stamp

sys.path.insert(0, str(ROOT / "src"))
from gdtau.cli import main as gdtau_main  # noqa: E402


def variants(job) -> list[list[str]]:
    heads = [list(job.argv)]
    if job.argv[0] == "stabilized":
        heads = [heads[0] + ["--indices", f"{a},{b}"] for a, b in WEIGHT8_PAIRS]
    if not job.formats:
        return heads
    return [h + ["--format", f] for h in heads for f in job.formats]


def capture(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = gdtau_main(argv)
    return code, buf.getvalue()


def main() -> int:
    refs = {"captured_from": stamp(str(ROOT), 0)["commit"], "outputs": {}, "verify_lines": {}}
    for name, job in JOBS.items():
        for argv in variants(job):
            code, out = capture(argv)
            key = " ".join(argv)
            if job.check == "verify":
                if code != 0:
                    raise SystemExit(f"{key} exited {code}")
                refs["verify_lines"][key] = len(out.splitlines())
                continue
            if code != 0:
                raise SystemExit(f"{key} exited {code}")
            fmt = argv[argv.index("--format") + 1]
            text = constants_sections(fmt, out) if job.check == "constants" else out
            refs["outputs"][key] = sha256(text)
            print(f"{key}: {len(out)} bytes", file=sys.stderr)
    sections = {v for k, v in refs["outputs"].items() if k.startswith("constants")}
    if len(sections) != 1:
        raise SystemExit("constants sections differ between formats")
    code, out = capture(list(SELFCHECK_ARGV))
    refs["verify_lines"][" ".join(SELFCHECK_ARGV)] = len(out.splitlines())
    with open(BENCH / "refs.json", "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
