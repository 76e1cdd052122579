"""End-to-end runs of the command line front end, in process but for the
closed-pipe run, which needs an interpreter of its own."""

import json
import os
import stat
import subprocess
import sys
from pathlib import Path
from fractions import Fraction

import pytest

from gdtau import ParamPoly, bgw, wconstraints
from gdtau.cli import (RunConfig, _bracket, _build_parser, _config_from_args, _latex_poly,
                       main)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- correlators -------------------------------------------------------------


def test_run_config_is_an_immutable_value():
    cfg = _config_from_args(_build_parser().parse_args(
        ["correlators", "--r", "3", "--weight", "4", "--set", "c1=1/2"]))
    assert cfg == RunConfig("correlators", r=3, weight=4,
                            assignments=((1, Fraction(1, 2)),))
    assert hash(cfg) == hash(RunConfig("correlators", r=3, weight=4,
                                       assignments=((1, Fraction(1, 2)),)))
    assert (cfg.alphabet, cfg.kind, cfg.fmt, cfg.qextra, cfg.out) == ("c", "connected", "text", 2, None)
    with pytest.raises(AttributeError):
        cfg.r = 4
    assert not hasattr(cfg, "__dict__")


def test_correlators_text_r2(capsys):
    code, out, _ = run(capsys, "correlators", "--r", "2", "--weight", "4")
    assert code == 0
    lines = out.splitlines()
    assert "<t1> = c1" in lines
    assert "<t3> = 1/2*c1^2 + 1/2*c1" in lines
    assert "<t3 t1> = 3/2*c1^2 + 3/2*c1" in lines
    assert "<t1^4> = 6*c1" in lines


def test_correlators_disconnected(capsys):
    code, out, _ = run(capsys, "correlators", "--r", "2", "--weight", "4",
                       "--disconnected")
    assert code == 0
    assert "<t1^2> = c1^2 + c1" in out.splitlines()


def test_correlators_jet_alphabet(capsys):
    code, out, _ = run(capsys, "correlators", "--r", "3", "--weight", "2",
                       "--alphabet", "d")
    assert code == 0
    lines = out.splitlines()
    assert "<t1> = 1/3*d1" in lines
    assert "<t2> = 1/3*d2 - 1/3*d1" in lines


def test_correlators_sigma_alphabet(capsys):
    code, out, _ = run(capsys, "correlators", "--r", "3", "--weight", "1",
                       "--alphabet", "sigma")
    assert code == 0
    assert "<t1> = sigma1" in out.splitlines()


def test_correlators_weight_one_single_entry(capsys):
    code, out, _ = run(capsys, "correlators", "--r", "3", "--weight", "1",
                       "--alphabet", "d")
    assert code == 0
    assert out.splitlines() == ["<t1> = 1/3*d1"]


def test_correlators_r4_c_alphabet_uses_density_route(capsys):
    # the first entry a recursion on the plain operator alone gets wrong
    # (-15*c2); both routes print the density value
    code, out, _ = run(capsys, "correlators", "--r", "4", "--weight", "5")
    assert code == 0
    assert "<t3 t2> = -6*c2*c1 - 12*c2" in out.splitlines()


@pytest.mark.parametrize("name, kind, bite", [
    ("log_tau", "--connected",
     lambda: bgw.connected_from_disconnected(wconstraints.recursion_correlators(3, 4))),
    ("tau_exp", "--disconnected",
     lambda: bgw.disconnected_from_connected(bgw.connected_correlators_pde(3, 4))),
])
def test_c_tables_come_from_the_route_that_builds_their_kind(capsys, monkeypatch, name, kind,
                                                            bite):
    # connected c tables come from the density route, disconnected ones at
    # r <= 3 from the weight recursion: with the log (or exp) refusing to
    # run, the r = 3 table of that kind still prints
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} was reached")

    monkeypatch.setattr(bgw, name, refuse)
    with pytest.raises(AssertionError):  # the patch bites
        bite()
    code, out, _ = run(capsys, "correlators", "--r", "3", "--weight", "10", kind)
    assert code == 0
    assert len(out.splitlines()) == len(bgw.index_multisets(3, 10))


def test_correlators_r4_weight_one(capsys):
    code, out, _ = run(capsys, "correlators", "--r", "4", "--weight", "1")
    assert code == 0
    assert out.splitlines() == ["<t1> = c1"]


def test_correlators_r4_sigma_alphabet(capsys):
    # sigma(c) takes the sigma table to the c table of the same order
    code, out, _ = run(capsys, "correlators", "--r", "4", "--weight", "6",
                       "--alphabet", "sigma")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "<t1> = sigma1"
    assert len(lines) == len(bgw.index_multisets(4, 6))
    sigma = wconstraints.recursion_correlators(4, 6)
    in_c = wconstraints.table_substitute(bgw.connected_from_disconnected(sigma),
                                         wconstraints.solve_sigma_from_c(4), "c")
    code, out, _ = run(capsys, "correlators", "--r", "4", "--weight", "6")
    assert code == 0
    assert out.splitlines() == [f"{_bracket(I)} = {in_c.value(I)}" for I in in_c.keys()]


def test_correlators_set_evaluates_exactly(capsys):
    code, out, _ = run(capsys, "correlators", "--r", "2", "--weight", "3",
                       "--set", "c1=1/2")
    assert code == 0
    lines = out.splitlines()
    assert "<t3> = 3/8" in lines
    assert "<t1> = 1/2" in lines


def test_large_set_values_print_exactly_or_exit_two(capsys):
    # <t3> = (c1^2 + c1)/2 has 6000 digits at c1 = 10^3000, past the
    # int-to-str limit, and is printed in full; an exponent past that limit
    # would make Fraction build a power of ten for seconds, and is refused
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "correlators", "--r", "2", "--weight", "3",
                         "--set", "c1=1e3000")
    assert (code, err) == (0, "")
    assert "<t3> = 5" + "0" * 2999 + "5" + "0" * 2999 in out.splitlines()
    assert sys.get_int_max_str_digits() == limit
    for value in ("1e10000000", "1e-10000000", f"1E+{limit + 1}", "1e10_000_000 "):
        code, out, err = run(capsys, "correlators", "--r", "2", "--weight", "3",
                             "--set", f"c1={value}")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1, err


def test_correlators_json(capsys):
    code, out, _ = run(capsys, "correlators", "--r", "2", "--weight", "4",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"r", "weight", "alphabet", "kind", "entries"}
    assert payload["r"] == 2 and payload["weight"] == 4
    assert payload["alphabet"] == "c" and payload["kind"] == "connected"
    assert {"indices": [3], "value": "1/2*c1^2 + 1/2*c1"} in payload["entries"]


def test_correlators_csv(capsys):
    code, out, _ = run(capsys, "correlators", "--r", "2", "--weight", "2",
                       "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "indices;value"
    assert "1;c1" in lines
    assert "1,1;c1" in lines


def test_correlators_latex(capsys):
    code, out, _ = run(capsys, "correlators", "--r", "2", "--weight", "4",
                       "--format", "latex")
    assert code == 0
    assert out.startswith("\\begin{align*}")
    assert "\\langle \\tau_{3} \\rangle &= \\tfrac{1}{2} c_{1}^{2} + \\tfrac{1}{2} c_{1}" in out
    assert out.rstrip().endswith("\\end{align*}")


def test_latex_poly_signs():
    c1, c2 = ParamPoly.var("c", 1), ParamPoly.var("c", 2)
    assert _latex_poly(ParamPoly.zero("c")) == "0"
    assert _latex_poly(ParamPoly.const("c", -3)) == "-3"
    assert _latex_poly(c1 * Fraction(-3, 4) - c2 * Fraction(1, 2) + Fraction(5, 3)) == \
        "-\\tfrac{1}{2} c_{2} - \\tfrac{3}{4} c_{1} + \\tfrac{5}{3}"
    assert _latex_poly(-c1 - c1 ** 2 * Fraction(7, 2) - 4) == \
        "-\\tfrac{7}{2} c_{1}^{2} - c_{1} - 4"
    sigma = ParamPoly.var("sigma", 1)
    assert _latex_poly(sigma ** 2 - Fraction(3, 2)) == "\\sigma_{1}^{2} - \\tfrac{3}{2}"


def test_correlators_out_file(capsys, tmp_path):
    target = tmp_path / "table.txt"
    code, out, _ = run(capsys, "correlators", "--r", "2", "--weight", "3",
                       "--out", str(target))
    assert code == 0
    assert out == ""
    text = target.read_text(encoding="utf-8")
    assert "<t3> = 1/2*c1^2 + 1/2*c1" in text
    assert text.endswith("\n")


def test_out_into_missing_directory_exits_two(capsys, tmp_path):
    target = tmp_path / "missing" / "table.txt"
    code, out, err = run(capsys, "correlators", "--r", "2", "--weight", "3",
                         "--out", str(target))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: cannot write")
    assert not target.parent.exists()


def test_out_is_replaced_atomically(capsys, tmp_path, monkeypatch):
    target = tmp_path / "table.txt"
    target.write_text("previous\n", encoding="utf-8")

    def refuse(src, dst):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(os, "replace", refuse)
    code, _, err = run(capsys, "correlators", "--r", "2", "--weight", "3",
                       "--out", str(target))
    assert code == 2
    assert err.splitlines() == [f"error: cannot write {target}: Permission denied"]
    assert target.read_text(encoding="utf-8") == "previous\n"  # never half written
    assert os.listdir(tmp_path) == ["table.txt"]  # temp file removed
    monkeypatch.undo()
    code, _, _ = run(capsys, "correlators", "--r", "2", "--weight", "3",
                     "--out", str(target))
    assert code == 0
    assert "<t3> = 1/2*c1^2 + 1/2*c1" in target.read_text(encoding="utf-8")
    assert os.listdir(tmp_path) == ["table.txt"]


def test_out_through_symlink_writes_the_target(capsys, tmp_path):
    real = tmp_path / "real.txt"
    real.write_text("previous\n", encoding="utf-8")
    link = tmp_path / "link.txt"
    link.symlink_to(real)
    code, _, _ = run(capsys, "correlators", "--r", "2", "--weight", "3",
                     "--out", str(link))
    assert code == 0
    assert link.is_symlink()  # the link is kept, its target rewritten
    assert "<t3> = 1/2*c1^2 + 1/2*c1" in real.read_text(encoding="utf-8")
    assert sorted(os.listdir(tmp_path)) == ["link.txt", "real.txt"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_out_into_fifo_writes_the_pipe(capsys, tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    # a non-blocking reader lets the writer open the pipe; the table fits in
    # the pipe buffer, so it is read back after the command returns
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        code, _, _ = run(capsys, "correlators", "--r", "2", "--weight", "3",
                         "--out", str(fifo))
        assert code == 0
        text = os.read(reader, 1 << 16).decode("utf-8")
    finally:
        os.close(reader)
    assert "<t3> = 1/2*c1^2 + 1/2*c1" in text
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["pipe"]


def test_correlators_deterministic(capsys):
    first = run(capsys, "correlators", "--r", "3", "--weight", "4",
                "--format", "json")
    second = run(capsys, "correlators", "--r", "3", "--weight", "4",
                 "--format", "json")
    assert first == second


# -- verify ------------------------------------------------------------------


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--r", "3", "--weight", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "r=3 string window=7 PASS"
    assert all(line.endswith("PASS") for line in lines)


def test_verify_passes_r4(capsys):
    code, out, _ = run(capsys, "verify", "--r", "4", "--weight", "6")
    assert code == 0
    assert all(line.endswith("PASS") for line in out.splitlines())


def test_verify_selftest_corrupt_fails(capsys):
    code, out, _ = run(capsys, "verify", "--r", "3", "--weight", "6",
                       "--selftest-corrupt")
    assert code == 1
    assert any("FAIL residual=" in line for line in out.splitlines())


def test_verify_out_file(capsys, tmp_path):
    target = tmp_path / "report.txt"
    code, out, _ = run(capsys, "verify", "--r", "2", "--weight", "4",
                       "--out", str(target))
    assert code == 0
    assert out == ""
    assert "r=2 string window=3 PASS" in target.read_text(encoding="utf-8")


def test_verify_qextra_up_to_weight(capsys):
    code, out, _ = run(capsys, "verify", "--r", "3", "--weight", "3", "--qextra", "3")
    assert code == 0
    assert len(out.splitlines()) == 1 + 2 * 4
    code, out, err = run(capsys, "verify", "--r", "3", "--weight", "3", "--qextra", "4")
    assert code == 2
    assert out == ""
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: --qextra must be <= --weight: the columns past it have empty windows"]


# -- constants ---------------------------------------------------------------


def test_constants_text(capsys):
    code, out, _ = run(capsys, "constants", "--r", "4")
    assert code == 0
    lines = out.splitlines()
    assert [line for line in lines if line.startswith("#")] == ["# c(d)", "# d(c)"]
    assert "c3 = 3/4*d3 - 9/8*d2 - 3/32*d1^2 + 3/8*d1" in lines
    assert "d3 = 4/3*c3 + 3*c2 + 2*c1^2 + 10*c1" in lines
    assert len(lines) == 2 + 2 * 3


def test_constants_text_small_orders(capsys):
    code, out, _ = run(capsys, "constants", "--r", "2")
    assert code == 0
    assert "d1 = 2*c1" in out.splitlines()
    code, out, _ = run(capsys, "constants", "--r", "3")
    assert code == 0
    assert out.splitlines() == ["# c(d)", "c1 = 1/3*d1", "c2 = 2/3*d2 - 2/3*d1",
                                "# d(c)", "d1 = 3*c1", "d2 = 3/2*c2 + 3*c1"]


def test_constants_json(capsys):
    code, out, _ = run(capsys, "constants", "--r", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"r", "c(d)", "d(c)"}
    assert payload["d(c)"]["d2"] == "3/2*c2 + 3*c1"
    assert payload["c(d)"]["c2"] == "2/3*d2 - 2/3*d1"


# -- stabilized --------------------------------------------------------------


def test_stabilized_text(capsys):
    code, out, _ = run(capsys, "stabilized", "--indices", "2,2")
    assert code == 0
    assert out.strip() == "<t2^2> = 4*c3 - 2*c1^2 - 2*c1"


def test_stabilized_single(capsys):
    code, out, _ = run(capsys, "stabilized", "--indices", "1")
    assert code == 0
    assert out.strip() == "<t1> = c1"


def test_stabilized_sorts_indices(capsys):
    code, out, _ = run(capsys, "stabilized", "--indices", "3,1")
    assert code == 0
    assert out.strip() == "<t3 t1> = 3*c3"


def test_stabilized_json(capsys):
    code, out, _ = run(capsys, "stabilized", "--indices", "1,2",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"indices": [1, 2], "weight": 3, "alphabet": "c",
                       "value": "2*c2"}


def test_stabilized_latex(capsys):
    code, out, _ = run(capsys, "stabilized", "--indices", "2,2",
                       "--format", "latex")
    assert code == 0
    assert out.strip() == (
        "\\[ \\langle \\tau_{2}^{2} \\rangle = "
        "4 c_{3} - 2 c_{1}^{2} - 2 c_{1} \\]"
    )


# -- bad usage ---------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["correlators", "--r", "2", "--weight", "0"],
        ["correlators", "--r", "1", "--weight", "3"],
        ["correlators", "--r", "2", "--weight", "3", "--set", "c1"],
        ["correlators", "--r", "2", "--weight", "3", "--set", "d1=1/2"],
        ["correlators", "--r", "2", "--weight", "3", "--set", "c1=pi"],
        ["correlators", "--r", "2", "--weight", "3", "--set", "c5=1"],
        ["correlators", "--r", "2", "--weight", "2", "--set", "c1=1/2", "--set", "c1=1/3"],
        # digits that str.isdigit accepts but int() refuses
        ["correlators", "--r", "3", "--weight", "2", "--set", "c\u00b2=1"],
        ["correlators", "--r", "3", "--weight", "2", "--set", "c1\u00b2=1"],
        ["correlators", "--r", "3", "--weight", "2", "--set", "c\u2460=1"],
        ["verify", "--r", "3", "--weight", "1"],
        ["verify", "--r", "3", "--weight", "6", "--qextra", "-1"],
        ["constants", "--r", "0"],
        ["stabilized", "--indices", "0"],
        ["stabilized", "--indices", "a,b"],
        ["constants", "--r", "2", "--out", ""],
    ],
)
def test_bad_configuration_exits_two(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err != "" or captured.out == ""


def test_invariant_violation_exits_three(capsys, monkeypatch):
    # c(d) maps that are not triangular trip the check inside d_from_c: a
    # squared leading parameter, and a fitting leading coefficient with c1
    # depending on d2 (which must not escape as a bare substitution error)
    d1, d2 = ParamPoly.var("d", 1), ParamPoly.var("d", 2)
    for fake in ({1: d1 ** 2, 2: d2 ** 2},
                 {1: d1 * Fraction(1, 3) + d2, 2: d2 * Fraction(2, 3)}):
        monkeypatch.setattr(wconstraints, "c_from_d", lambda r, fake=fake: fake)
        wconstraints.constants.cache_clear()
        try:
            code, out, err = run(capsys, "constants", "--r", "3")
        finally:
            wconstraints.constants.cache_clear()
        assert code == 3
        assert out == ""
        assert err.splitlines() == ["error: residue constant is not triangular in d"]


@pytest.mark.parametrize("r", [3, 4, 5])
def test_verify_fails_on_a_bumped_eigenvalue(capsys, monkeypatch, r):
    # rho comes from the initial point, not from the series under test, so
    # one eigenvalue off by d1 fails its diagonal check
    real = wconstraints.rho_in_d
    d1 = ParamPoly.var("d", 1)
    for alpha in range(1, r):
        monkeypatch.setattr(wconstraints, "rho_in_d", lambda r, top=None, a=alpha:
                            {**real(r, top), a: real(r, top)[a] + d1})
        code, out, _ = run(capsys, "verify", "--r", str(r), "--weight", "8")
        assert code == 1, alpha
        assert [line.split(" window=")[0] for line in out.splitlines()
                if "FAIL" in line][0] == f"r={r} alpha={alpha} q={alpha}"


def test_closed_stdout_exits_two():
    # the reader's end is closed before the command starts, so its first
    # write fails however small the table is
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.Popen([sys.executable, "-m", "gdtau", "correlators", "--r", "3",
                                 "--weight", "6"], stdout=write_end, stderr=subprocess.PIPE,
                                env=env)
    finally:
        os.close(write_end)
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    assert err.decode().splitlines() == [
        "error: cannot write to standard output: the pipe is closed"]


def test_missing_subcommand_exits_two(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_unknown_format_exits_two(capsys):
    assert main(["correlators", "--r", "2", "--weight", "2",
                 "--format", "yaml"]) == 2
    capsys.readouterr()
