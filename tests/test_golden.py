"""Byte identity of stamped CLI reports.

Each digest is the sha256 of the full `--json` stdout (the stamped envelope
plus its newline) of one subcommand. A change to the arithmetic that keeps
every answer but moves a basis, a generator choice or a field order shows
up here. The `search` case names its target by explicit coordinates in a
non-cyclic ray class group (Z/6 x Z/6), so a different SNF basis for the
ray class group would pick a different class and a different prime.

The two searches that use up their bound (exit 3) pin the scan counters:
every candidate's rejection stage is counted in the stamped `stats`, so a
faster scan that decides any candidate differently changes the digest. The
d = 543 case has a nontrivial modulus (Cl^m = Z/2 x Z/10), which exercises
the residue part of the ray discrete log.
"""
import hashlib

import pytest

from raycap.cli import main

GOLDEN = [
    (("rayclass", "--d", "-5", "--mod", "3"),
     0, "8ae70fa91ee155cffab9b6026bf16f98d0abbc3174d08198366682c5cbbc2387"),
    (("rayclass", "--d", "34", "--mod", "3,13"),
     0, "98b427940cdef630be0b9fb0c79ff27fd29ce2cdb5e59a3e34d54a44c031d3be"),
    (("rayclass", "--d", "-20011", "--mod", "3,7,11"),
     0, "9d9aefee48e423b7917f38c115a0cf4cd04ab75d2ef3cec1451d44d9fb3c2b08"),
    (("search", "--d", "51", "--mod", "7", "--class", "3,0", "--bound", "20000"),
     0, "42805b63c05a6f9479f12c203e68fc0a43be65a226d9bb2ffb8e3e6891564fe6"),
    (("ambig", "--L-disc", "-84", "--mod", "5"),
     0, "27d7da83210673437c9fad8992c25c094634168b86f7993ec9cbaf86194bafc3"),
    (("ambig", "--biquad", "3,5", "--mod", "7"),
     0, "88dfcb7dc48007a883921acbfafc4d0d5f870aca85a8d2f4963107b5c0f8111d"),
    (("ambig", "--biquad", "6,5"),
     0, "f04e706a2b28fb4d225089110f5301fdfd94ac2c479f0f9e0bb6fb1865aa2951"),
    (("search", "--d", "34", "--mod", "1", "--class", "0", "--h", "0",
      "--bound", "200000"),
     3, "400660b1fa28656732f45c8f4cb8a1dd204e18f82c37c85b9e5bc9e490521ab2"),
    (("search", "--d", "543", "--mod", "11", "--class", "0,0", "--h", "0",
      "--bound", "20000"),
     3, "75de8c131eacafd238aa90984646deccfc945f4a57492e468a192f754ea1ec50"),
]

FLAGSHIP_SEARCH = "9ebb47ed12aba8eef9bc7700144facd26e4943aa50e08e8c411ad9aed6dbd63f"
FLAGSHIP_VERIFY = "6545ea56dd99d26a3e909e4b542cfc6eaac684d421d866b4c2128642d4cfb5d2"


def json_digest(capsys, tmp_path, *argv) -> tuple[int, str]:
    code = main([*argv, "--json", "--cache-dir", str(tmp_path / "cache")])
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode("ascii")).hexdigest()


@pytest.mark.parametrize(
    "argv,exit_code,digest", GOLDEN, ids=[" ".join(a) for a, _, _ in GOLDEN]
)
def test_report_bytes(capsys, tmp_path, argv, exit_code, digest):
    extra = ("--out", str(tmp_path / "cert.json")) if argv[0] == "search" else ()
    code, got = json_digest(capsys, tmp_path, *argv, *extra)
    assert code == exit_code
    assert got == digest


def test_flagship_search_and_verify_bytes(capsys, tmp_path):
    cert = tmp_path / "cert.json"
    code, got = json_digest(capsys, tmp_path, "search", "--d", "34", "--mod", "1",
                            "--out", str(cert))
    assert code == 0
    assert got == FLAGSHIP_SEARCH
    code, got = json_digest(capsys, tmp_path, "verify", str(cert))
    assert code == 0
    assert got == FLAGSHIP_VERIFY
