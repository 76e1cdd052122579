"""Smoke runs of the batch scripts, each in its own interpreter."""

import os
import pathlib
import subprocess
import sys

from gdtau.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_verify_script_passes():
    proc = run_script("verify_wconstraints.py", "--orders", "2,3", "--weight", "6")
    assert proc.returncode == 0, proc.stderr
    summaries = [line for line in proc.stdout.splitlines() if line.startswith("# r=")]
    assert [line.split(":")[0] for line in summaries] == ["# r=2 weight=6", "# r=3 weight=6"]
    assert all(": all passed in " in line for line in summaries)


def test_verify_script_bounds_qextra():
    ok = run_script("verify_wconstraints.py", "--orders", "2", "--weight", "3",
                    "--qextra", "3")
    assert ok.returncode == 0, ok.stderr
    refused = run_script("verify_wconstraints.py", "--orders", "2", "--weight", "3",
                         "--qextra", "4")
    assert refused.returncode == 2
    assert refused.stdout == ""
    assert sum("error:" in line for line in refused.stderr.splitlines()) == 1


def test_build_tables_matches_cli(tmp_path, capsys):
    proc = run_script("build_tables.py", "--orders", "2,3", "--weight", "4",
                      "--formats", "text", "--outdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    expected = {}
    for r in (2, 3):
        for kind in ("connected", "disconnected"):
            expected[f"r{r}_w4_c_{kind}.txt"] = [
                "correlators", "--r", str(r), "--weight", "4", f"--{kind}"]
        expected[f"r{r}_constants.json"] = [
            "constants", "--r", str(r), "--format", "json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(expected)
    for name, argv in expected.items():
        assert main(argv) == 0
        assert (tmp_path / name).read_text(encoding="utf-8") == capsys.readouterr().out, name
