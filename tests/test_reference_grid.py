"""Byte-identical CLI output on a fixed reference grid.

Each command runs through ``cli.main`` in-process; its exit code and the
sha256 of its stdout must equal the digests recorded here.  The grid covers
the density route in ``d`` from r = 2 to 8, tables in ``c`` and ``sigma``, a
disconnected table in c and one in d, the stabilized values, constraint checks, the constant
dictionaries, and every output format.  A change that alters
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
    "correlators --r 3 --weight 14":
        "e661e69fcee4a373881102f03f41c82ec62d835dbc276493df0960f013ff080b",
    "correlators --r 3 --weight 14 --format json":
        "877ec3f5062234019add1d4ac161ef8adf7687c4f115dc48c723d86041246dd4",
    "correlators --r 3 --weight 10 --alphabet sigma --format latex":
        "d24a76e5d4beee470ce28bb6aa694b9cd53462466f2396179ad3ca299a973ef1",
    "correlators --r 4 --weight 8 --alphabet sigma":
        "1d20f00d497cc44a7286151b37c9cf0d33512691365fce3e979d59efad3e8f84",
    "correlators --r 4 --weight 10 --alphabet c --format csv":
        "de251e387ef941e7de13ff9e37691147f44b85d0c6e0e201915cdde80a7b5927",
    "verify --r 4 --weight 10":
        "b78b0ed0308685ac624365bd2529a10396068a436f2f7d6c8153d4d098d37856",
    "constants --r 6":
        "d46f31269e09e010fd4a75a17b54202697f77cb73808a1737a34681d5c41b332",
    "constants --r 6 --format json":
        "eb4ee99d600258da8a614a37ff4e7844b556135c28d6eb70623a6f225f59e0fb",
    "correlators --r 2 --weight 12":
        "5a503306babf67401990640fde59a761a07e9e8fcd1d21fec983006b5694bf62",
    "correlators --r 3 --weight 12 --disconnected --format latex":
        "fa55eb1448cb2765865eedcacf27effabc6093233879b33aaf15cfc8c9628c4f",
    "correlators --r 4 --weight 12 --alphabet d --format latex":
        "cf753f995374388befa46e58dc07ecbbefe53d21f1115d80e84ebc3c80a50440",
    "correlators --r 2 --weight 8 --set c1=-1/2 --format csv":
        "7d5e08a2327899118c54e187c507d467b92e55748190449040adff6d57df9134",
    "stabilized --indices 3,5 --format latex":
        "91be6e14f303035e03fb35531fe2a148fc760a4379b45ce61740c443824d2475",
    "correlators --r 4 --weight 10 --alphabet d --disconnected":
        "c84eba48f5e3840a2af223186b353c7091086f7d9558e806bf0c0fd99f2a3089",
    "stabilized --indices 1,7 --format json":
        "48482faab22006665e86ff5c1dcc82919515cae2d65252734c18908d229db12c",
    "constants --r 12":
        "931bc353d01133a48920ae063f85d2f522792e06b931f968e8f90f61439d9c8b",
    "verify --r 8 --weight 10":
        "a7f490f043bf6023ddbf82042faef518639a425fce11b3e9573f7422492c2a79",
    "verify --r 24 --weight 4":
        "f0d3cad3889033e6f461d26326d2b632262ae00daff4758805e6c6def3aeaac8",
}


@pytest.mark.parametrize("command", sorted(GRID))
def test_reference_output(command, capsys):
    code = main(command.split())
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, GRID[command])
