"""`congestsim approx` reports pinned to the output of an earlier commit.

A change that only simplifies or speeds up the estimators must leave
every report byte-identical.  Each row is (quantity, generator, n, seed,
sha256 of the JSON report `cli.main` prints for
`approx <quantity> --gen <generator> --n <n> --seed <seed>`).  The two
n = 1 rows keep the lone node's report, which no search runs for.
"""

import hashlib

import pytest

from congestsim.cli import EXIT_OK, main

PINNED = [
    ("diameter", "random-connected", 32, "7",
     "357889dec5cfe472827691cdd4caad8b70db68ab3fcb5d42210c67ec328dbc9b"),
    ("radius", "random-connected", 32, "7",
     "9bcdb494b1bfff8c073671c197e247b59c02ef97040d52995f0ace2b5455ee87"),
    ("diameter", "random-connected", 32, "101",
     "712d8d593a3602e80912ffd1454eec7def402a1c7a81a6c176f9293fe539e59d"),
    ("radius", "random-connected", 32, "101",
     "650bb00125869bce6d1d5e10fc156c430bfbe3684205994524c9a7244b464d2e"),
    ("diameter", "cycle", 32, "7",
     "8520ea5c3e87200391821c32463218cc8b56fe781997c849a4476d20717e5858"),
    ("radius", "cycle", 32, "7",
     "cd088d33d8afea7fc5845883abd6270c5d137e5c534b86d7f431703a37de1c62"),
    ("diameter", "cycle", 32, "101",
     "3b4bfa797af28f220b25014bd2ffa24ad36ab79468e7ff4fe544dcb5b295c72f"),
    ("radius", "cycle", 32, "101",
     "10f97f3df4a7c549eac2481f8d40dbf1dc4b068399e91e6cbab96f053fc521dc"),
    ("diameter", "grid", 36, "7",
     "8a1bd2c2a9304d179d2f7cd2c87d5d2fa747a8e8c6c0954f7110278db7bba12f"),
    ("radius", "grid", 36, "7",
     "1610d02d5dfb3136b8db7ae2aef251fc0860ec58ff6fc6bc6ccfaab62e351f08"),
    ("diameter", "grid", 36, "101",
     "d2bc396c398c2809ff3dbddf6343e8df37664ec47cf619530b61038aa8dfa64d"),
    ("radius", "grid", 36, "101",
     "38c538cacc64cb5ad4cc639dc5eeefa8fcbd01c57a135e4b7172868ec30f5712"),
    ("diameter", "cycle", 1, "7",
     "dd3d4e257a417b80b8dbfaebb116ae9192466a156076839aa5eb1b47e1029c7c"),
    ("radius", "cycle", 1, "7",
     "98437916459b77a25c2aa2dead77cffd209d1303de76099a1f3e11e1f09726fd"),
]


@pytest.mark.parametrize("quantity, gen, n, seed, report_sha256", PINNED,
                         ids=[f"{row[1]}-{row[2]}-{row[3]}-{row[0]}"
                              for row in PINNED])
def test_approx_report_matches_pinned(quantity, gen, n, seed, report_sha256,
                                      capsys):
    code = main(["approx", quantity, "--gen", gen, "--n", str(n),
                 "--seed", seed])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == report_sha256
