"""Byte identity of stamped CLI reports.

Each digest is the sha256 of the full `--json` stdout (the stamped envelope
plus its newline) of one subcommand. A change to the arithmetic that keeps
every answer but moves a basis, a generator choice or a field order shows
up here. The `search` case names its target by explicit coordinates in a
non-cyclic ray class group (Z/6 x Z/6), so a different SNF basis for the
ray class group would pick a different class and a different prime.
The real field d = 10^8 + 7 (h = 1, one principal cycle of about 6,500
reduced ideals that hundreds of candidate primes land on) pins the class
group's closure where every cycle is long. The imaginary fields
d = -15015 (Cl = (2, 2, 2, 12)) and d = -5565 mod 11 pin ray class groups
with four and five prime-ideal generators, chosen in ascending order off
the modulus until their classes generate Cl.

The two searches that use up their bound (exit 3) pin the scan counters:
every candidate's rejection stage is counted in the stamped `stats`, so a
faster scan that decides any candidate differently changes the digest. The
d = 543 case has a nontrivial modulus (Cl^m = Z/2 x Z/10), which exercises
the residue part of the ray discrete log; the three after it scan with an
inert modulus prime (d = 70, m = 13), two inert primes (d = 551, m = 3*7)
and two split primes (d = 595, m = 3*11), each with h > 1, so the residue
part meets F_{p^2} residue fields, several factors at once and reduced
ideals whose norms share a prime with the modulus. The two `selftest` runs
pin the consistency battery at two seeds, whose period-splitting check
draws its (p, q) pairs from the seed and records them, so the two pins
differ. The last two `ambig` runs take the trivial modulus, whose direct
count closes the ramified primes of L: d = -15015 (2-rank 4, direct 16)
and D_L = 4 * (10^9 + 7), a real field with a long principal cycle. The
default sweep pins all 86 of its reports, one line each, in input order.

`LARGE` pins the big inputs: ambig and rayclass of D = -100000000003
(h = 31,057), ambig of D = -(10^9 + 7) mod 5, whose direct count reads
its kernel part in (O_L/5)^* and builds no ray class group, rayclass of d = 10^9 + 7 and 10^10 + 19 mod 3 and of
d = -(10^9 + 7) mod 3 and mod 1, and the scans to 2*10^5 of d = 66,
543 mod 11 and 595 mod 3*11 and to 2*10^4 of the t = 9 fields
d = 223092870 and 111546435, and the scan to 10^7 of d = 40000197. Of
those, the first five scans and the d = 34 scan to 2*10^5
must print their pinned bytes with `--jobs 2` too. The 2543 mod 7
search and verify, the sweeps to disc bound 3000, 10000 and 30000, the
sweep to disc bound 200 over the composite moduli 15, 21 and 35 besides
five primes, and the period polynomials of conductor about 10^6 are
pinned beside their kin below.
"""
import hashlib
import importlib.util
import json
import math
from pathlib import Path

import pytest

from raycap import cli
from raycap.ambigcheck import ambig_case
from raycap.biquad import biquad_field, primes_above, verify_certificate
from raycap.capsearch import (
    CandidateCertificate,
    certificate_at,
    find_principalizing_prime,
    gaussian_period_min_poly,
)
from raycap.cli import main
from raycap.exactmath import primes_up_to, squarefree_part
from raycap.kummerfrob import ConditionChecker, SearchParams
from raycap.report import canonical_json, save_certificate
from raycap.quadfield import (
    QuadField,
    factor_prime,
    fundamental_unit,
    is_principal_with_generator,
    modulus_from_rational,
    quadratic_field,
    ray_class_group,
)

GOLDEN = [
    (("rayclass", "--d", "-5", "--mod", "3"),
     0, "8ae70fa91ee155cffab9b6026bf16f98d0abbc3174d08198366682c5cbbc2387"),
    (("rayclass", "--d", "34", "--mod", "3,13"),
     0, "98b427940cdef630be0b9fb0c79ff27fd29ce2cdb5e59a3e34d54a44c031d3be"),
    (("rayclass", "--d", "-20011", "--mod", "3,7,11"),
     0, "9d9aefee48e423b7917f38c115a0cf4cd04ab75d2ef3cec1451d44d9fb3c2b08"),
    (("rayclass", "--d", "100000007", "--mod", "3"),
     0, "ced7e7720156a52601207946d5028d5f60cf7d33dec9eddea09a72575d1b90b7"),
    (("rayclass", "--d", "-15015"),
     0, "589bca2edeb66460e6f4232de9fdf643b532331b9be330784ab943050fa29a4f"),
    (("rayclass", "--d", "-5565", "--mod", "11"),
     0, "3e20160ee7aaf0cbc13728c9961f37c73de115bf3e9fe24b97d71a1026a478c8"),
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
    (("search", "--d", "70", "--mod", "13", "--class", "0,0", "--h", "0",
      "--bound", "20000"),
     3, "d218dc2fe172cef3cca0eeb9cef821ded2927e6ce753e6da3931acc09710ff54"),
    (("search", "--d", "551", "--mod", "3,7", "--class", "0,0,0", "--h", "0",
      "--bound", "20000"),
     3, "07a8bb2d16ea315257edfdb619bbb46b0fe634310a229179954b395a72c42c79"),
    (("search", "--d", "595", "--mod", "3,11", "--class", "0,0,0,0", "--h", "0",
      "--bound", "20000"),
     3, "a78e4d6188f512b73fdf74ec06173f84d6f1e9bcf141f1561411c1f22b387900"),
    (("selftest", "--seed", "0"),
     0, "f50628154ff229ba73aa8de1898ffe5204f0bb8fcea80eb5b67005b131daec91"),
    (("selftest", "--seed", "7"),
     0, "fd1dd15807bec833da248603618e947a49fdf4f388af2f2f8c0c2c148d3180ce"),
    (("ambig", "--L-disc", "-15015"),
     0, "97dc31b3c9832d692168a58e33f3582c6116072b99481c44767e775cd7e36098"),
    (("ambig", "--L-disc", "4000000028"),
     0, "0d5d90881d5afffaaba37fd9b858684faa68ba8d99a6c20a7bd6260740a23b1f"),
    (("ambig", "--sweep", "default"),
     0, "a5b150551f9f1fb43daf8c817a55419cb16c135e16e647b0af7ad566b080207c"),
]

# Each entry is a `search ... --out cert` run, then `verify cert`, with the
# exit code and digest of each. The modulus-1 flagship never computes an L
# residue; the three others adjust the generator to be 1 mod m_L through
# each way of presenting the residue fields of L: w1 inert (d = 3, the unit
# adjustment changes the generator), w2 inert (d = 11), and both inert
# (d = 6, where no unit multiple is 1 mod m_L and verify exits 5). The
# last, 2543 mod 7 at p = 853 (a ray class group of rank three), runs the
# verifier's ideal products over generators, closed-form relative norms of
# the extended ideal and unit square classes chosen by residues.
SEARCH_VERIFY = [
    (("--d", "34", "--mod", "1"),
     0, "9ebb47ed12aba8eef9bc7700144facd26e4943aa50e08e8c411ad9aed6dbd63f",
     0, "6545ea56dd99d26a3e909e4b542cfc6eaac684d421d866b4c2128642d4cfb5d2"),
    (("--d", "3", "--mod", "5", "--class", "2", "--bound", "20000"),
     0, "012770801258bfb5240ff67a8539ce6279a002f77ef892af90004c1504dcb5f8",
     0, "6dfd79a88b42ed664e072ee93d4480431193a9b0316adcc1f2165cd1983065c7"),
    (("--d", "11", "--mod", "7", "--class", "3", "--bound", "20000"),
     0, "f03cc0fd736644df02cfe960dc87d0eaa683d0cdd5eea57bac425335e3e8890e",
     0, "970bafd6cc91a8a7271f5cec8aa228b8bee60717981889cdb2611bfadb5a4207"),
    (("--d", "6", "--mod", "11", "--class", "10", "--bound", "20000"),
     0, "579d74982d4bc344915a33bb672eacca00e4a570ebb346455d961740f4fa7cff",
     5, "df0eea5d3beaba06e9d825f83ee41a24b6270b1b0f12f82df279a4e7208b6b1f"),
    (("--d", "2543", "--mod", "7", "--bound", "100000"),
     0, "d3836a07b3f248a800b0001428d489733f7eaa577cec3330305886bc86c0f7a3",
     0, "0dfa0f9127796b99c88a8a2474b56d100d8b41fa88b3ef9d2f8b94f3dec674e8"),
]

# What each large input exercises: for D = -100000000003 (h = 31,057) the
# closure of its one ramified prime's class (ambig) and a closure table
# copied only for the primes that enlarge it (rayclass); for the real
# fields a unit from one long continued-fraction period; for -(10^9 + 7)
# mod 3 the relation P^h as an exact ideal of norm 2^26629. The scans take
# a genus-exact field whose code map folds (iii) in (66), a ray-exact
# one with a norm part (543 mod 11), one that is not ray-exact (595 mod
# 3*11), two whose t = 9 prime discriminants are too many for a code's
# byte, and d = 40000197 = 3 * 23 * 579713 to 10^7, whose |D| of 4*10^7
# would make a residue table 40 MB while its character tables hold 0.6 MB.
LARGE = [
    (("ambig", "--L-disc", "-100000000003"),
     0, "48c8ead53b2405cbb3fa5968cc346cab41b74319d14f383e72abe1deffad73e1"),
    (("ambig", "--L-disc", "-1000000007", "--mod", "5"),
     0, "27671c80bd23d5aa201ebb0130bfae6d7dcc6c76ebd4cdc8b289df14266bab5d"),
    (("rayclass", "--d", "-100000000003"),
     0, "f29dd76c91d6fc0702e2e088019be0c90216b4564acc36a835f79baa0cef5d4e"),
    (("rayclass", "--d", "1000000007", "--mod", "3"),
     0, "c29ebb3435d975a78530817ea99a7807113fadbc2a580a5b9a4a40ee5540a209"),
    (("rayclass", "--d", "10000000019", "--mod", "3"),
     0, "70a0ef753b3d3bb4ed762cfa18918f789b1944e08abb298749c4ef53c83ca8b9"),
    (("rayclass", "--d", "-1000000007", "--mod", "3"),
     0, "599066990d91420a018ae5c31fd4e42a60070e365d7c569a43c4ddaef86b5ce5"),
    (("rayclass", "--d", "-1000000007"),
     0, "dd70698692aed38a00109b44109e8b2677be0721acc5e54e3ae9169106c968af"),
    (("search", "--d", "66", "--mod", "1", "--class", "0", "--h", "0",
      "--bound", "200000"),
     3, "5e60816096c74a9ed9782f7341dc96ae63221a449ac9805e8ed0da6e790f9d34"),
    (("search", "--d", "543", "--mod", "11", "--class", "0,0", "--h", "0",
      "--bound", "200000"),
     3, "4487b1b0cf118deb8589dd39d0246eda0454729bc907cf45b00e52a44d548de9"),
    (("search", "--d", "595", "--mod", "3,11", "--class", "0,0,0,0", "--h", "0",
      "--bound", "200000"),
     0, "739c92ab4035679d93650cb903494e4da97533eb9d428cfeffb563b883dd9923"),
    (("search", "--d", "223092870", "--bound", "20000"),
     3, "4c62f5a3cf6a315ea90bcf38972777e8fd084643b5673beabc08719c85e63e73"),
    (("search", "--d", "111546435", "--bound", "20000"),
     0, "134c2edeada4aecc9d2aeae850839802e4795c4df63230b1726f90bd64333136"),
    (("search", "--d", "40000197", "--mod", "1", "--class", "0", "--h", "0",
      "--bound", "10000000"),
     3, "393757367715db325d894625ecebe1cc3fe796a82f3e9114a69f64e861126b84"),
]

# The six scans that a process pool must leave byte for byte as they are:
# those to 2*10^5 and the two t = 9 scans, the only ones without --mod.
PARALLEL = [g for g in GOLDEN + LARGE
            if g[0][0] == "search" and (g[0][-1] == "200000" or "--mod" not in g[0])]


def json_digest(capsys, tmp_path, *argv) -> tuple[int, str]:
    cache = ("--cache-dir", str(tmp_path / "cache")) if argv[0] in ("search", "ambig") else ()
    code = main([*argv, "--json", *cache])
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode("ascii")).hexdigest()


@pytest.mark.parametrize(
    "argv,exit_code,digest", GOLDEN + LARGE, ids=[" ".join(a) for a, _, _ in GOLDEN + LARGE]
)
def test_report_bytes(capsys, tmp_path, argv, exit_code, digest):
    extra = ("--out", str(tmp_path / "cert.json")) if argv[0] == "search" else ()
    code, got = json_digest(capsys, tmp_path, *argv, *extra)
    assert code == exit_code
    assert got == digest


WARM = [g for g in GOLDEN if g[0][:3] in {
    ("ambig", "--sweep", "default"), ("search", "--d", "51"), ("search", "--d", "543")}]


@pytest.mark.parametrize("argv,exit_code,digest", WARM, ids=[" ".join(a) for a, _, _ in WARM])
def test_warm_cache_replays_the_pinned_bytes(capsys, tmp_path, monkeypatch, argv,
                                             exit_code, digest):
    """A second run into the same cache directory replays every report:
    it computes nothing and prints the pinned bytes again, for a sweep of
    86 reports, a search that finds a prime and one that exits 3."""
    extra = ("--out", str(tmp_path / "cert.json")) if argv[0] == "search" else ()
    assert json_digest(capsys, tmp_path, *argv, *extra) == (exit_code, digest)

    def computed(*args, **kwargs):
        raise AssertionError("a warm run computed a report")

    monkeypatch.setattr(cli, "ambig_case", computed)
    monkeypatch.setattr(cli, "find_principalizing_prime", computed)
    assert json_digest(capsys, tmp_path, *argv, *extra) == (exit_code, digest)


@pytest.mark.parametrize("argv,exit_code,digest", PARALLEL,
                         ids=[" ".join(a) for a, _, _ in PARALLEL])
def test_parallel_scan_prints_the_serial_bytes(capsys, tmp_path, argv, exit_code, digest):
    """`--jobs 2` starts a real pool of two processes, each scanning its
    chunks with a checker of its own; the earliest hitting chunk wins, so
    the report is the serial scan's, counters included."""
    extra = ("--out", str(tmp_path / "cert.json"), "--jobs", "2")
    assert json_digest(capsys, tmp_path, *argv, *extra) == (exit_code, digest)


def test_selftest_pins_differ_by_seed():
    pins = {argv: digest for argv, _, digest in GOLDEN if argv[0] == "selftest"}
    assert len(pins) == 2 and len(set(pins.values())) == 2


@pytest.mark.parametrize(
    "argv,search_code,search_digest,verify_code,verify_digest", SEARCH_VERIFY,
    ids=[" ".join(a) for a, *_ in SEARCH_VERIFY],
)
def test_search_and_verify_bytes(capsys, tmp_path, argv, search_code,
                                 search_digest, verify_code, verify_digest):
    cert = tmp_path / "cert.json"
    code, got = json_digest(capsys, tmp_path, "search", *argv, "--out", str(cert))
    assert (code, got) == (search_code, search_digest)
    code, got = json_digest(capsys, tmp_path, "verify", str(cert))
    assert (code, got) == (verify_code, verify_digest)


# A certificate whose p was swapped for a composite (25 passes every
# congruence of condition (i') but not primality) or for a forbidden prime
# (17 divides D, 2 is below the scan). `verify` must reject each with the
# same bytes, however the scan itself decides primality.
CRAFTED_P = [
    (25, 2, "b6a0385fe7e35e31a28928860638202663be359b6dd5516b878f1208a332782f"),
    (17, 2, "a83e036c3bd3d09233717b03b45e1e5e632fbc688ce027596568f7e37ce7ee14"),
    (2, 2, "d1503c6ac605fe5a04c7f6369495a6fdbd37732ce8a737427c677297f0d360a9"),
]


@pytest.mark.parametrize("p,verify_code,verify_digest", CRAFTED_P,
                         ids=[f"p={p}" for p, *_ in CRAFTED_P])
def test_crafted_p_verify_bytes(capsys, tmp_path, p, verify_code, verify_digest):
    cert_path = tmp_path / "cert.json"
    code, _ = json_digest(capsys, tmp_path, "search", "--d", "34", "--mod", "1",
                          "--out", str(cert_path))
    assert code == 0
    data = json.loads(cert_path.read_text())["payload"]["certificate"]
    data["p"] = p
    save_certificate(cert_path, CandidateCertificate.from_dict(data))
    code, got = json_digest(capsys, tmp_path, "verify", str(cert_path))
    assert (code, got) == (verify_code, verify_digest)


def _crafted_certificate(d: int, m: int, target: tuple, p: int) -> CandidateCertificate:
    """The n = 1 certificate at a chosen p, filled in from the condition
    checker's report at p, so it does not depend on which hit a search
    stamps first."""
    K = quadratic_field(d)
    modulus = modulus_from_rational(K, m)
    checker = ConditionChecker(K, modulus, target, SearchParams(2, 1, 0, 10**5))
    return certificate_at(checker, checker.check(p))


# (d, m, target, p, status): each status the capitulation core reports, at
# moduli 1 and 7 and with the generator adjusted through each presentation
# of the residue fields of L: w1 inert (3 mod 5), w2 inert (11 mod 7) and
# both inert (6 mod 11 at p = 2837, where no unit multiple is 1 mod m_L).
VERIFY_BATCH = [
    (34, 1, (1,), 5, "capitulates"),
    (2001, 1, (1,), 37, "capitulates"),
    (3787, 7, (3,), 13, "capitulates"),
    (2543, 7, (0, 0, 3), 853, "capitulates"),
    (3, 5, (2,), 109, "capitulates"),
    (11, 7, (3,), 181, "capitulates"),
    (1011, 1, (2,), 37, "failed"),
    (4038, 1, (2,), 29, "failed"),
    (2253, 7, (12,), 41, "failed_congruence"),
    (6, 11, (10,), 2837, "failed_congruence"),
]


def test_verify_report_batch():
    """The sha256 over `verify_certificate(...).as_dict()` for a fixed batch
    of crafted certificates: a faster norm descent, prime of L or congruence
    adjustment that moves any status, check or generator changes it."""
    reports = [verify_certificate(_crafted_certificate(d, m, t, p)).as_dict()
               for d, m, t, p, _ in VERIFY_BATCH]
    assert [r["status"] for r in reports] == [s for *_, s in VERIFY_BATCH]
    assert hashlib.sha256(canonical_json(reports).encode("ascii")).hexdigest() == (
        "194564f297824db3662c938f0ee69c6748ede1d390a8e6d98a4d4982a7332b5b"
    )


# ---------------------------------------------------------------------------
# the reduction theory's integers, ideal products, and two scripts' full
# outputs

def _sha(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()


def test_fundamental_unit_integers():
    """Every fundamental unit x + y*w of Q(sqrt d), squarefree 2 <= d < 3000."""
    lines = [
        f"{d} {eps.x} {eps.y}"
        for d in range(2, 3000)
        if squarefree_part(d) == d
        for eps in [fundamental_unit(QuadField(d))]
    ]
    assert len(lines) == 1823
    assert _sha(lines) == (
        "4a814cb75c70f780514d980d32997a3b5d235f6e4cfa2bb87866dab356f83729"
    )


def test_principal_generator_integers():
    """is_principal_with_generator on P, P^2, P^3 for every prime P above
    p < 30 in every field with 2 <= |d| < 100: the generator's coordinates,
    or None. A different walk that still finds a generator of the same
    ideal but another unit multiple changes the digest."""
    lines = []
    for d in [d for n in range(2, 100) for d in (n, -n)]:
        if squarefree_part(d) != d:
            continue
        K = QuadField(d)
        for p in primes_up_to(29):
            for P, _, _ in factor_prime(K, p)[1]:
                for k in (1, 2, 3):
                    gen = is_principal_with_generator(P**k)
                    lines.append(f"{d} {P.key()} {k} {gen and gen.coords()}")
    assert _sha(lines) == (
        "cd96339ebc631e91d4edefb37ff18d6a400f2182a42c37fad5f49ec3fddd04cc"
    )


def test_ideal_product_keys():
    """(P**i * Q**j).key() for every pair of primes P, Q above p < 30 in
    every field with 2 <= |d| < 100, 0 <= i, j <= 3. The pairs take in
    squares of ramified primes, P * conj(P) and products whose norms share
    a prime, so a product that picks another (g, a, b) for any of them
    changes the digest."""
    lines = []
    for d in [d for n in range(2, 100) for d in (n, -n)]:
        if squarefree_part(d) != d:
            continue
        K = QuadField(d)
        primes = [P for p in primes_up_to(29) for P, _, _ in factor_prime(K, p)[1]]
        powers = [[P**i for i in range(4)] for P in primes]
        for x, P in enumerate(primes):
            for y in range(x, len(primes)):
                for i in range(4):
                    for j in range(4):
                        key = (powers[x][i] * powers[y][j]).key()
                        lines.append(f"{d} {P.key()} {primes[y].key()} {i} {j} {key}")
    assert len(lines) == 205968
    assert _sha(lines) == (
        "210d03a44d91c4db7f7de9b3a7a98650d35b8c3fff30a682d0a9d49f514b12a4"
    )


def test_biquad_ambig_grid():
    """ambig_case for every biquadratic step over d in {2, 3, 7, 11},
    p in {5, 13, 29}, each subfield j and moduli (), (3,), (3, 7), (7, 11):
    the unit lattices mod m_K and mod m_L, the norm index and both routes'
    counts, where the CLI pins only a few steps."""
    lines = [
        canonical_json(ambig_case(("biquad", d, p, j, mod)).as_dict())
        for d in (2, 3, 7, 11)
        for p in (5, 13, 29)
        for j in (1, 2, 3)
        for mod in ((), (3,), (3, 7), (7, 11))
    ]
    assert len(lines) == 144
    assert _sha(lines) == (
        "9f009309e05fa70ab2e580b91ed4b77ad380f9b4c64842cd6c70b20a0da24ef9"
    )


def test_biquad_ideal_rows():
    """Q * R, Q**2 and tau_j(Q) as HNF rows for every pair of primes of L
    above p0 < 60 in six fields L = Q(sqrt d, sqrt p): the canonical lattice
    bases that every `BqIdeal` comparison and stamped generator rests on."""
    lines = []
    for d, p in ((2, 5), (3, 13), (34, 5), (5, 29), (21, 17), (6, 53)):
        L = biquad_field(d, p)
        primes = [Q for p0 in primes_up_to(59) for Q, _, _ in primes_above(L, p0)]
        for x, Q in enumerate(primes):
            lines.append(f"{d} {p} {x} {Q.rows} {(Q**2).rows}")
            lines += [f"{d} {p} {x} tau{j} {Q.conj(j).rows}" for j in (1, 2, 3)]
            for y in range(x + 1, len(primes)):
                lines.append(f"{d} {p} {x} {y} {(Q * primes[y]).rows}")
    assert len(lines) == 4767
    assert _sha(lines) == (
        "e460d2fd5245fd0680fac47d955e5b4451f9c1cc2a157c5a99f96773b69b0660"
    )


def _ray_coordinates(d: int, m: int) -> dict:
    """The SNF basis of Cl^m as the rest of the program sees it: the ray
    table over the ideal generators, the map to coordinates, and the
    coordinates of both primes above each split p <= 53 prime to m."""
    K = quadratic_field(d)
    ray = ray_class_group(K, modulus_from_rational(K, m))
    dlogs = [
        [P.key(), ray.dlog(P)]
        for p in primes_up_to(53)
        if m % p
        for kind, data in [factor_prime(K, p)]
        if kind == "split"
        for P, _, _ in data
    ]
    return {
        "d": d,
        "m": m,
        "invariants": ray.group.invariants,
        "to_canonical": ray.group.to_canonical,
        "ideal_gens": [P.entry() for P in ray.ideal_gens],
        "ray_table": sorted(ray.ray_table.items()),
        "dlogs": dlogs,
    }


def test_ray_class_coordinates():
    """`rayclass --json` prints no coordinates, so the byte pins above see
    a change of SNF basis only where a search target or a certificate
    names one. This pins the basis directly: every fundamental |D| <= 500
    with each m in {1, 3, 5, 7, 15, 21} prime to D, and two large fields."""
    cases = []
    for d in range(-500, 501):
        D = d if d % 4 == 1 else 4 * d
        if d not in (0, 1) and squarefree_part(d) == d and abs(D) <= 500:
            cases += [(d, m) for m in (1, 3, 5, 7, 15, 21) if math.gcd(m, D) == 1]
    assert len(cases) == 1444
    cases += [(-2000003, 21), (-20000003, 3)]
    body = canonical_json([_ray_coordinates(d, m) for d, m in cases])
    assert hashlib.sha256(body.encode("ascii")).hexdigest() == (
        "b61b0e4871b05a5a3e1f405dd21bca9f491ba7c596c348d0afec21396134ada8"
    )


SCAN_STATS = [
    (34, 1, "1cb13cb6a31ff74c494bc76661887dab1c9d3ae1648a5cba065ed6d5bb66671f"),
    (543, 11, "c4a5a1d772cc597694e2195a2a8f8de4d4ac3be8c2018070d387298c850740b0"),
    (7315, 3, "b1eff410bbe4bdc678ded83370357ebf0f9bdaea1ae032cdb50d90a4ae875ffb"),
    (70, 13, "d1bc44a120342c05c642905d5b9c4e124117438cd3daf37f101485cb7eb07cc3"),
    (595, 33, "f5227dc6306388a58316ad3597264cd44aeeeed2a44c7ea64127e9db10dc11ac"),
]


@pytest.mark.parametrize("d,m,digest", SCAN_STATS, ids=[f"{d}-{m}" for d, m, _ in SCAN_STATS])
def test_scan_stats(d, m, digest):
    """The rejection counters of a scan that uses up its bound (class 0,
    n = 1, h = 0, p <= 2*10^4), straight from the library rather than
    through the CLI: a scan kernel that decides any candidate at another
    stage changes the digest."""
    K = quadratic_field(d)
    modulus = modulus_from_rational(K, m)
    target = (0,) * ray_class_group(K, modulus).group.rank
    res = find_principalizing_prime(K, modulus, target, SearchParams(2, 1, 0, 2 * 10**4))
    assert res.status == "not_found"
    assert hashlib.sha256(canonical_json(res.stats).encode("ascii")).hexdigest() == digest


def test_scan_found_certificate():
    """A hit after 131 rejections in Q(sqrt 7315) mod 3, n = 2: the counters,
    the root and both characters that the hit's report carries."""
    K = quadratic_field(7315)
    res = find_principalizing_prime(
        K, modulus_from_rational(K, 3), (0, 1, 0, 2), SearchParams(2, 2, 0, 2 * 10**4)
    )
    assert (res.status, res.certificate.p, res.stats["scanned"]) == ("found", 4057, 132)
    assert hashlib.sha256(canonical_json(res.as_dict()).encode("ascii")).hexdigest() == (
        "d7c66ef09a233e724376b6c6537c6e2f955240dd044552ec4252cea369203fe2"
    )


def _script_main(name: str):
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


@pytest.mark.parametrize("script,argv,digest", [
    ("run_ambig_sweep", ["--disc-bound", "200", "--json"],
     "23fd43ceef354ac2e7949e54dd09658c1cd98e9d21b81e21c8fad73116f62503"),
    ("capitulation_table", ["--dmax", "100", "--json"],
     "7336df31de8c627127534d428bc24ed80d97e892e2c044aad030c815f4d1cae4"),
    ("run_ambig_sweep", ["--disc-bound", "1000", "--json"],
     "c424e09adcd90a9aaa44dd429840cf6f30fb2de0df6af591bbe68e026996a431"),
    ("run_ambig_sweep", ["--disc-bound", "3000", "--json"],
     "0b8dbf4b00aa578ae9cf382831d7f1c195a0e11ae1b130beb5a2c527b84e3aa8"),
    ("run_ambig_sweep", ["--disc-bound", "10000", "--json"],
     "8c791a6b6cc29fd27b74f900f7ff9a5d0df426672041cecb18236e8139ec5f52"),
    ("run_ambig_sweep", ["--disc-bound", "30000", "--json"],
     "fe7e322d07873a12f60247e826a26985a57ae7242b57e0ad6901c89f7aabaf0c"),
    ("run_ambig_sweep", ["--disc-bound", "200", "--mods", "3,5,7,11,13,15,21,35", "--json"],
     "cd5f81ce5288de7918c2518167c00854a0a7198655e0489dd5578f5921a21c79"),
])
def test_script_output_bytes(capsys, script, argv, digest):
    assert _script_main(script)(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


def test_period_polynomial_bytes():
    """The minimal polynomials of the Gaussian periods of degree 2, 4 and 8
    and conductor 999983, 1000033 and 1000193, printed as one list: their
    coefficients must not move."""
    g = gaussian_period_min_poly
    out = f"{[g(999983, 2), g(1000033, 4), g(1000193, 8)]}\n"
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == (
        "48f1d99098a6ec47be2bae1e7068775ac1e03a073bb03a4abd331161151ba52f"
    )
