"""Byte-identical CLI output on a fixed reference grid.

Each command runs through ``cli.main`` in-process; its exit code and the
sha256 of its stdout must equal the digests recorded here.  The grid covers
the density route in ``d`` from r = 2 to 8, a table in ``c``, a disconnected
table, the stabilized values and a constraint check.  A change that alters
any printed byte fails here; if the new output is intended, record the new
digests together with the reason.
"""

import hashlib

import pytest

from gdtau.cli import main

GRID = {
    "correlators --r 2 --weight 12 --alphabet d":
        "08172447c74eba714b0b854e3a265b271a6104a4de893df13672dc4089eda330",
    "correlators --r 3 --weight 12 --alphabet d":
        "2108f9aa0e2017ee320f1ab5a39046469eb723d9197c4bbe86aace8d1e4c4587",
    "correlators --r 4 --weight 12 --alphabet d":
        "bbaa42298c412dad7a1bee843041ca3df2da2b8ecdddc36c0064951edad45e91",
    "correlators --r 5 --weight 10 --alphabet d":
        "5a90d465f850a02b23db2df0d68aff4693fff11aa8fb9832ce3f2229775b4819",
    "correlators --r 6 --weight 10 --alphabet d":
        "8cee71a5fc371efc791c31074f8d73caf535a2d7100eff2ce0384c58a6b9d6c9",
    "correlators --r 8 --weight 9 --alphabet d":
        "2e6b5e95efd814c5bd53cb230bba9d1d9537bd9f3cfaba091244d5b010fe550c",
    "correlators --r 4 --weight 10 --alphabet c":
        "66b63c7bf629ea784edc1a365928962c7b86c364bbb29d34cfb51586e46f12ba",
    "correlators --r 5 --weight 9 --disconnected":
        "65d96c3d8ab747fc9a701082448d082fc5a4417c880d798ed63be1910892070a",
    "stabilized --indices 4,4":
        "f76cd59f33c456ce50723abb948ae030e3122af2a9256959fd836664ce4391c6",
    "stabilized --indices 2,2,3":
        "00f35eb5417c8516be27a63ad06e2f00a95a1a418a3e072ba87e9a123742824f",
    "verify --r 5 --weight 8":
        "68373f4d63f21489cb238c94c55cdb9ef62aac567979399b0cdd7c387781556e",
}


@pytest.mark.parametrize("command", sorted(GRID))
def test_reference_output(command, capsys):
    code = main(command.split())
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, GRID[command])
