"""End-to-end runs of every subcommand through main(), checking exit codes
against the documented table and output against independent expectations."""
import concurrent.futures
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import raycap
from raycap import quadfield
from raycap.biquad import verify_certificate
from raycap.capsearch import CandidateCertificate, find_principalizing_prime
from raycap.cli import main
from raycap.exactmath import squarefree_part
from raycap.kummerfrob import SearchParams
from raycap.quadfield import Modulus, quadratic_field
from raycap.report import (
    canonical_json,
    check_stamp,
    save_certificate,
    stamp,
)

README_EXIT_CODES = {0, 2, 3, 4, 5, 6, 7, 8}


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("RAYCAP_CACHE_DIR", str(tmp_path / "cache"))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestRayclass:
    def test_rational_mod_five(self, capsys):
        code, out, _ = run(capsys, "rayclass", "--field", "Q", "--mod", "5")
        assert code == 0
        assert "invariants (2,)" in out

    def test_gaussian_mod_three(self, capsys):
        code, out, _ = run(capsys, "rayclass", "--d", "-1", "--mod", "3")
        assert code == 0
        assert "invariants (2,)" in out

    def test_trivial(self, capsys):
        code, out, _ = run(capsys, "rayclass", "--d", "2", "--mod", "1")
        assert code == 0
        assert "invariants ()" in out

    def test_json_is_stamped_and_consistent(self, capsys):
        code, out, _ = run(capsys, "rayclass", "--d", "-5", "--mod", "3", "--json")
        assert code == 0
        report = json.loads(out)
        assert check_stamp(report)
        assert report["kind"] == "rayclass"
        assert report["payload"]["identity_holds"] is True
        assert report["payload"]["order"] == 4

    def test_split_prime_selector(self, capsys):
        # 13 splits in Q(sqrt 3); either factor alone is a legal modulus
        code, out, _ = run(capsys, "rayclass", "--d", "3", "--mod", "13.0", "--json")
        assert code == 0
        assert len(json.loads(out)["payload"]["modulus"]) == 1

    def test_invalid_d_exits_two(self, capsys):
        code, _, err = run(capsys, "rayclass", "--d", "12", "--mod", "1")
        assert code == 2
        assert "squarefree" in err

    def test_cycle_budget_exits_six_with_one_line(self, capsys, monkeypatch):
        # Q(sqrt 94) has a rho-cycle of 16 reduced ideals: with the walk
        # bound at 3 steps, its class group cannot be built
        for cached in (quadfield.class_group, quadfield.ray_class_group,
                       quadfield.fundamental_unit):
            cached.cache_clear()
        monkeypatch.setattr(quadfield, "_CYCLE_BOUND", 3)
        code, out, err = run(capsys, "rayclass", "--d", "94", "--json")
        assert code == 6
        assert out == ""
        assert err == "budget exceeded: rho cycle failed to close\n"

    def test_generator_prime_bound_exits_six_with_one_line(self, capsys, monkeypatch):
        # Q(sqrt -5) has h = 2; the ray generators are searched among the
        # primes below 1000*max(|D|, 100) = 10^5, and the only prime offered
        # lies past that bound
        for cached in (quadfield.class_group, quadfield.ray_class_group):
            cached.cache_clear()
        monkeypatch.setattr(quadfield, "primes_1_mod",
                            lambda step, lo, hi: (p for p in (100003,) if lo <= p <= hi))
        code, out, err = run(capsys, "rayclass", "--d", "-5", "--mod", "3")
        assert code == 6
        assert out == ""
        assert err.startswith("budget exceeded: ") and err.count("\n") == 1

    def test_bad_modulus_entry(self, capsys):
        for command in ("rayclass", "search"):
            code, out, err = run(capsys, command, "--d", "3", "--mod", "9")
            assert code == 2
            assert out == ""
            assert err == "error: modulus 9 is not squarefree\n"

    @pytest.mark.parametrize("argv,m,primes", [
        (("rayclass", "--d", "595"), "33", "3,11"),
        (("search", "--d", "595", "--class", "0,0,0,0", "--h", "0", "--bound", "3000"),
         "33", "3,11"),
        (("search", "--d", "34", "--bound", "5000"), "15", "3,5"),
    ])
    def test_integer_modulus_is_its_prime_list(self, capsys, tmp_path, argv, m, primes):
        """A squarefree integer entry stands for every prime above each of
        its prime divisors, as in `ambig --mod`: --mod 33 prints the bytes
        of --mod 3,11, and a found certificate is the same file."""
        outs = []
        for spec in (m, primes):
            cert = tmp_path / f"cert-{spec}.json"
            extra = (("--out", str(cert), "--cache-dir", str(tmp_path / spec))
                     if argv[0] == "search" else ())
            code, out, _ = run(capsys, *argv, *extra, "--mod", spec, "--json")
            outs.append((code, out, cert.read_bytes() if cert.exists() else None))
        assert outs[0] == outs[1]
        assert outs[0][0] in (0, 3)

    @pytest.mark.parametrize("argv", [
        ("rayclass", "--d", "5", "--mod", "1,x"),
        ("rayclass", "--d", "5", "--mod", "3.x"),
        ("rayclass", "--d", "18446744073709551629"),
        ("rayclass", "--field", "Q", "--mod", "x"),
        ("search", "--d", "34", "--class", "a"),
        ("ambig", "--biquad", "2,x"),
        ("ambig", "--biquad", "2"),
    ])
    def test_malformed_input_exits_two_with_one_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestSearchAndVerify:
    def test_flagship_end_to_end(self, capsys, tmp_path):
        cert_path = tmp_path / "cert.json"
        code, out, _ = run(
            capsys, "search", "--d", "34", "--mod", "1", "--class", "auto-2",
            "--l", "2", "--n", "1", "--bound", "1000000", "--out", str(cert_path),
        )
        assert code == 0
        assert "found p = 5" in out
        assert cert_path.exists()

        code, out, _ = run(capsys, "verify", str(cert_path), "--update")
        assert code == 0
        assert "status: capitulates" in out
        # verification was written back into the file
        data = json.loads(cert_path.read_text())
        assert data["payload"]["verification"]["status"] == "capitulates"

    def test_search_json_report(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "search", "--d", "34", "--mod", "1", "--json",
            "--out", str(tmp_path / "c.json"),
        )
        assert code == 0
        report = json.loads(out)
        assert check_stamp(report)
        assert report["payload"]["certificate"]["p"] == 5

    def test_bound_too_small_exits_three(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "search", "--d", "34", "--mod", "1", "--bound", "3",
            "--out", str(tmp_path / "c.json"),
        )
        assert code == 3

    def test_power_blocked_exits_four_with_hint(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "search", "--d", "34", "--mod", "1", "--n", "2", "--h", "1",
            "--out", str(tmp_path / "c.json"),
        )
        assert code == 4
        assert "q = 1 mod 8" in out

    def test_odd_group_has_no_auto_target(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "search", "--d", "3", "--mod", "1",
            "--out", str(tmp_path / "c.json"),
        )
        assert code == 2
        assert "odd order" in err

    def test_explicit_class_vector(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "search", "--d", "34", "--mod", "1", "--class", "1",
            "--out", str(tmp_path / "c.json"),
        )
        assert code == 0

    def test_wrong_vector_length(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "search", "--d", "34", "--mod", "1", "--class", "1,0",
            "--out", str(tmp_path / "c.json"),
        )
        assert code == 2

    def test_trivial_group_is_named_by_the_empty_vector(self, capsys, tmp_path):
        """Q(sqrt 2) has a trivial ray class group mod 1: --class= names its
        one class and reaches the scan, while --class 0 is told the form."""
        out = str(tmp_path / "c.json")
        code, _, err = run(capsys, "search", "--d", "2", "--mod", "1", "--class=",
                           "--bound", "1000", "--out", out)
        assert code == 3 and "not an integer" not in err
        code, out_text, err = run(capsys, "search", "--d", "2", "--mod", "1",
                                  "--class", "0", "--bound", "1000", "--out", out)
        assert code == 2 and out_text == ""
        assert err == ("error: class vector needs 0 entries for invariants (); "
                       "the trivial group's class is the empty vector, --class=\n")

    def test_failed_congruence_exits_five(self, capsys, tmp_path):
        cert_path = tmp_path / "fc.json"
        code, _, _ = run(
            capsys, "search", "--d", "6", "--mod", "11", "--class", "10",
            "--bound", "5000", "--out", str(cert_path),
        )
        assert code == 0
        code, out, _ = run(capsys, "verify", str(cert_path))
        assert code == 5
        assert "failed_congruence" in out

    def test_quartic_certificate_exits_seven(self, capsys, tmp_path):
        cert_path = tmp_path / "quartic.json"
        code, _, _ = run(
            capsys, "search", "--d", "82", "--mod", "1", "--n", "2",
            "--bound", "100000", "--out", str(cert_path),
        )
        assert code == 0
        code, out, _ = run(capsys, "verify", str(cert_path))
        assert code == 7
        assert "unverified" in out

    def test_broken_invariant_exits_eight(self, capsys, tmp_path, monkeypatch):
        import raycap.biquad as bq

        cert_path = tmp_path / "cert.json"
        code, _, _ = run(
            capsys, "search", "--d", "34", "--mod", "1", "--bound", "1000",
            "--out", str(cert_path),
        )
        assert code == 0
        monkeypatch.setattr(bq, "adjust_to_congruence", lambda gen, primes: gen * 2)
        code, out, err = run(capsys, "verify", str(cert_path))
        assert code == 8
        assert out == "" and "does not generate" in err

    def test_verify_missing_file(self, capsys):
        code, _, _ = run(capsys, "verify", "/nonexistent/cert.json")
        assert code == 2

    def test_verify_tampered_file(self, capsys, tmp_path):
        cert_path = tmp_path / "t.json"
        run(capsys, "search", "--d", "34", "--mod", "1", "--out", str(cert_path))
        data = json.loads(cert_path.read_text())
        data["payload"]["certificate"]["root"] += 1
        cert_path.write_text(json.dumps(data))
        code, _, err = run(capsys, "verify", str(cert_path))
        assert code == 2
        assert "integrity" in err

    @pytest.mark.parametrize("key,value", [
        ("modulus", [[5, 4, 7, 1]]),  # b outside [0, a)
        ("modulus", [[5, 5, 0, 1]]),  # a does not divide N(b + w)
        ("modulus", [[5, 5, 1]]),  # not a (p, a, b, g) entry
        ("modulus", [[5, 3, 1, 1], [5, 3, 2, 1]]),  # 3 is the prime below
        ("target", [1, 0]),  # Cl^m of Q(sqrt 34) mod 1 is Z/2
        ("target", []),
        ("cyclic_field", {"p": 5, "degree": 2, "min_poly": [7, 7, 1]}),  # not eta's polynomial
        # fields the conditions do not read: verify rebuilds the whole record
        ("h_K", 7),  # h_K of Q(sqrt 34) at ell = 2 is 2
        ("minus_one_character", {"value": 12345, "order": 7}),
        ("target", [3]),  # the class (1,) of Cl^m = Z/2, unreduced
    ])
    def test_crafted_certificate_is_invalid(self, capsys, tmp_path, key, value):
        # a well-formed, freshly stamped file whose contents do not fit
        cert_path = tmp_path / "c.json"
        run(capsys, "search", "--d", "34", "--mod", "1", "--out", str(cert_path))
        data = json.loads(cert_path.read_text())["payload"]["certificate"]
        assert data[key] != value
        data[key] = value
        cert = CandidateCertificate.from_dict(data)
        assert verify_certificate(cert).status == "invalid_certificate"
        save_certificate(cert_path, cert)
        code, out, _ = run(capsys, "verify", "--json", str(cert_path))
        assert code == 2
        assert json.loads(out)["payload"]["status"] == "invalid_certificate"

    @pytest.mark.parametrize("payload", [{"verification": None}, {"certificate": [34]}, ["x"]],
                             ids=["no-certificate-key", "certificate-not-object", "payload-list"])
    def test_envelope_without_a_certificate_object(self, capsys, tmp_path, payload):
        # a valid stamp of kind certificate around a payload with no certificate
        path = tmp_path / "c.json"
        path.write_text(canonical_json(stamp("certificate", payload)))
        code, out, err = run(capsys, "verify", str(path))
        assert code == 2
        assert out == "" and "no certificate object" in err

    def test_cached_search_is_byte_identical(self, capsys, tmp_path):
        argv = ["search", "--d", "34", "--mod", "1", "--json",
                "--out", str(tmp_path / "c.json")]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2


class TestAmbig:
    def test_single_quadratic_case(self, capsys):
        code, out, _ = run(capsys, "ambig", "--L-disc", "-20", "--mod", "3")
        assert code == 0
        assert "all equal: True" in out

    def test_disc_eight(self, capsys):
        code, out, _ = run(capsys, "ambig", "--L-disc", "8", "--mod", "1", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["payload"]["formula"] == report["payload"]["direct"] == 1

    def test_biquad_case(self, capsys):
        code, out, _ = run(capsys, "ambig", "--biquad", "2,5", "--mod", "11", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["payload"]["equal"] is True
        assert report["payload"]["formula"] == 5

    @pytest.mark.parametrize("argv", [
        ("--L-disc", "8", "--mod", "6"),
        ("--L-disc", "-20", "--mod", "2"),
        ("--biquad", "2,5", "--mod", "2"),
    ])
    def test_even_norm_modulus_exits_two_with_one_line(self, capsys, argv):
        """The count identity needs a modulus of odd norm; the single-case
        front door checks that as the library functions do."""
        code, out, err = run(capsys, "ambig", *argv)
        assert code == 2
        assert out == ""
        assert err == "error: modulus must have odd norm for a quadratic step\n"

    def test_negative_biquad_entry_takes_the_equals_form(self, capsys):
        """--biquad -5,7 reads as an option; the '=' form the help gives
        reaches the field check."""
        code, out, err = run(capsys, "ambig", "--biquad=-5,7")
        assert code == 2 and out == ""
        assert err == "error: the base field must be real\n"

    def test_non_fundamental_disc(self, capsys):
        code, _, _ = run(capsys, "ambig", "--L-disc", "10", "--mod", "1")
        assert code == 2

    def test_unknown_sweep_name(self, capsys):
        assert _exit_code(["ambig", "--sweep", "everything"]) == 2
        assert "invalid choice: 'everything'" in capsys.readouterr().err

    def test_no_case_given(self, capsys):
        assert _exit_code(["ambig"]) == 2
        assert "one of the arguments --L-disc --biquad --sweep is required" in (
            capsys.readouterr().err
        )

    def test_cold_and_warm_runs_identical(self, capsys):
        code1, out1, _ = run(capsys, "ambig", "--L-disc", "-20", "--mod", "3", "--json")
        code2, out2, _ = run(capsys, "ambig", "--L-disc", "-20", "--mod", "3", "--json")
        assert code1 == code2 == 0
        assert out1 == out2


class TestJobs:
    """--jobs on `search`, the one subcommand with a process pool: below 1
    exits 2, above the CPU count is capped. The pool is an in-process
    stand-in that records its size, so no test starts a worker process."""

    @staticmethod
    def argv(command, tmp_path, *extra):
        return (command, "--d", "34", "--mod", "1", "--bound", "20000",
                "--out", str(tmp_path / "cert.json"), *extra)

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        # `capsearch` imports the pool where it starts one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        return sizes

    @pytest.mark.parametrize("command", ["search"])
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_below_one_exits_two(self, capsys, tmp_path, pool_sizes, command, jobs):
        code, out, err = run(capsys, *self.argv(command, tmp_path, "--jobs", jobs))
        assert code == 2
        assert out == ""
        assert err == f"error: --jobs must be at least 1, not {jobs}\n"
        assert pool_sizes == []

    @pytest.mark.parametrize("command", ["search"])
    def test_capped_at_cpu_count(self, capsys, tmp_path, pool_sizes, command):
        serial = run(capsys, *self.argv(command, tmp_path, "--json",
                                        "--cache-dir", str(tmp_path / "serial")))
        capped = run(capsys, *self.argv(command, tmp_path, "--json", "--jobs", "100000",
                                        "--cache-dir", str(tmp_path / "capped")))
        assert serial[0] == capped[0] == 0
        assert serial[1] == capped[1]
        assert pool_sizes == [2]


class TestColdStart:
    """A single-process command loads no process pool: importing the
    command line and the modules that the benchmark's workers run leaves
    `concurrent.futures`, `multiprocessing` and `platform` unloaded."""

    def test_import_loads_no_pool(self):
        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import raycap.cli, raycap.report, raycap.capsearch, raycap.ambigcheck, raycap.biquad\n"
            "loaded = set(sys.modules) - before\n"
            "print(sorted({'concurrent.futures', 'multiprocessing', 'platform'} & loaded))\n"
        )
        src = str(Path(raycap.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out == "[]\n"


class TestSelftest:
    def test_battery_passes(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") == 6


# ---------------------------------------------------------------------------
# verify on freshly stamped certificates whose fields hold arbitrary JSON


def _json_values(bound: int):
    """JSON values whose numbers stay within bound (no digits in strings)."""
    leaves = (
        st.none() | st.booleans() | st.integers(-bound, bound)
        | st.floats(-bound, bound, allow_nan=False) | st.text("xyz", max_size=3)
    )
    return st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text("abcdp", max_size=3), inner, max_size=3),
        max_leaves=6,
    )


# per-field integer bounds that keep every draw cheap to verify
_FIELD_BOUNDS = {"d": 2000, "p": 10**6 - 1, "n": 64}


@pytest.fixture(scope="module")
def certificate_fields():
    field = quadratic_field(34)
    res = find_principalizing_prime(
        field, Modulus(field, ()), (1,), SearchParams(2, 1, None, 10**6)
    )
    return res.certificate.as_dict()


@st.composite
def _mangled(draw, fields):
    data = dict(fields)
    keys = draw(st.lists(st.sampled_from(sorted(fields)), min_size=1, max_size=4, unique=True))
    for key in keys:
        data[key] = draw(_json_values(_FIELD_BOUNDS.get(key, 64)))
    return data


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_verify_of_arbitrary_fields_exits_with_a_documented_code(
    certificate_fields, tmp_path, data
):
    """Each field of a valid certificate replaced by an arbitrary JSON
    value, the result stamped afresh: `verify` returns a code from the
    README's table and raises nothing."""
    cert = data.draw(_mangled(certificate_fields))
    path = tmp_path / "c.json"
    path.write_text(canonical_json(stamp("certificate", {"certificate": cert})))
    assert main(["verify", str(path), "--json"]) in README_EXIT_CODES


# ---------------------------------------------------------------------------
# rayclass, search and ambig on arbitrary argv


_SQUAREFREE = [d for d in range(-10**4, 10**4 + 1) if d not in (0, 1) and squarefree_part(d) == d]


def _squarefree(lo: int, hi: int):
    return st.sampled_from([d for d in _SQUAREFREE if lo <= d <= hi])


def _fundamental_disc(d: int) -> str:
    return str(d if d % 4 == 1 else 4 * d)


_MODULUS = st.sampled_from(["1", "3", "5", "7", "11", "13", "15", "3.0", "13.1", "5,7"])
_REJECTED = st.sampled_from(
    ["", "x", "1.5", "-", "3,", ",", "1e3", "0", "1", "-7", "4", "12", "2,3", "3.9", " 7 "]
) | st.integers(-10**4, 10**4).map(str)


@st.composite
def _argv(draw, tmp_path):
    """An argv for rayclass, search or ambig: valid options, then now and
    then one mutation (a value the command must reject or junk, a dropped
    option, or an unknown one). |d| and --bound stay <= 10^4 and ell^n <=
    3^2, so no draw runs long; --jobs is -1, 0 or 1, so no draw starts a
    process pool; biquadratic fields stay small."""
    command = draw(st.sampled_from(["rayclass", "search", "ambig"]))
    if command == "rayclass":
        if draw(st.booleans()):
            opts = {"--field": "Q", "--mod": str(draw(st.integers(1, 60)))}
        else:
            opts = {"--d": str(draw(_squarefree(-10**4, 10**4))), "--mod": draw(_MODULUS)}
    elif command == "search":
        opts = {
            "--d": str(draw(_squarefree(2, 10**4) | _squarefree(2, 300))),
            "--mod": draw(_MODULUS),
            "--class": draw(st.sampled_from(["auto-2", "auto-2", "0", "1"])),
            "--bound": str(draw(st.integers(3, 10**4))),
        }
        if draw(st.integers(0, 3)) == 0:
            opts["--l"] = "3"
            opts["--class"] = "0"
        if draw(st.booleans()):
            opts["--n"] = "2"
            opts["--h"] = draw(st.sampled_from(["0", "1"]))
    elif draw(st.booleans()):
        opts = {
            "--L-disc": _fundamental_disc(draw(_squarefree(-2500, 2500))),
            "--mod": draw(st.sampled_from(["1", "3", "5", "7", "15"])),
        }
    else:
        d, p = draw(_squarefree(-30, 30)), draw(st.sampled_from([3, 5, 7, 11, 13, 17]))
        opts = {
            "--biquad": f"{d},{p}",
            "--base": draw(st.sampled_from(["1", "2", "3"])),
            "--mod": draw(st.sampled_from(["1", "3", "7", "11"])),
        }
    if command == "search" and draw(st.booleans()):
        opts["--jobs"] = "1"
    mutation = draw(st.sampled_from(["none", "value", "drop", "unknown"]))
    name = draw(st.sampled_from(sorted(opts)))
    if mutation == "value":
        opts[name] = draw(st.sampled_from(["-1", "0"]) if name == "--jobs" else _REJECTED)
    elif mutation == "drop":
        del opts[name]
    # a value like "-5,7" would read as an option, so it takes the "=" form
    argv = [command] + [
        x for name, value in opts.items()
        for x in ([f"{name}={value}"] if value.startswith("-") else [name, value])
    ]
    if command == "search":  # out of the mutations' reach, so a hit never lands in the cwd
        argv += ["--out", str(tmp_path / "cert.json")]
    if draw(st.booleans()):
        argv.append("--json")
    if mutation == "unknown":
        argv.append(draw(st.sampled_from(["--bogus", "extra", "--json=1", "--sweep"])))
    return argv


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects the argv itself
        return exc.code


@pytest.mark.parametrize("command,options", [
    ("rayclass", set()),
    ("search", {"--jobs", "--cache-dir"}),
    ("verify", set()),
    ("ambig", {"--cache-dir"}),
    ("selftest", {"--seed"}),
])
def test_help_lists_only_the_options_read(capsys, command, options):
    """--jobs is on `search` alone, --cache-dir on the two subcommands that
    cache reports, --seed on `selftest`; --json is on every one."""
    assert _exit_code([command, "--help"]) == 0
    out = capsys.readouterr().out
    assert "--json" in out
    assert {o for o in ("--jobs", "--cache-dir", "--seed") if o in out} == options


@pytest.mark.parametrize("argv", [
    ("ambig", "--L-disc", "-20", "--jobs", "2"),
    ("rayclass", "--d", "-5", "--seed", "1"),
    ("verify", "cert.json", "--cache-dir", "d"),
    ("selftest", "--cache-dir", "d"),
], ids=lambda argv: " ".join(argv))
def test_option_the_subcommand_does_not_read_exits_two(capsys, argv):
    assert _exit_code(list(argv)) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in out.err


@pytest.mark.parametrize("argv", [
    ("ambig", "--L-disc", "-20", "--biquad", "2,5"),
    ("ambig", "--L-disc", "-20", "--sweep", "default"),
], ids=lambda argv: " ".join(argv))
def test_two_ambig_cases_exit_two(capsys, argv):
    """--L-disc, --biquad and --sweep each name the cases; ambig takes one."""
    assert _exit_code(list(argv)) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"argument {argv[-2]}: not allowed with argument --L-disc" in out.err


@pytest.mark.parametrize("argv,err", [
    (("ambig", "--sweep", "default", "--mod", "7"),
     "--mod does not apply to --sweep: each case names its modulus"),
    (("ambig", "--L-disc", "-20", "--base", "3"),
     "--base names the base field of --biquad only"),
], ids=["--sweep with --mod", "--L-disc with --base"])
def test_ambig_option_the_case_does_not_read_exits_two(capsys, argv, err):
    assert _exit_code(list(argv)) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: {err}\n")


@pytest.mark.parametrize("argv", [
    ("ambig", "--biquad", "3,5", "--mod", "7"),
    ("ambig", "--L-disc", "-84", "--mod", "5"),
    ("search", "--d", "34", "--mod", "1", "--class", "0", "--h", "0", "--bound", "2000"),
    ("search", "--d", "51", "--mod", "7", "--class", "3,0", "--bound", "20000"),
], ids=lambda argv: " ".join(argv))
def test_warm_cache_prints_the_cold_lines(capsys, tmp_path, monkeypatch, argv):
    """The human output of a replayed report is the fresh one's, byte for
    byte: an ambig case whose modulus is a tuple, an --L-disc case, a
    search that exits 3 with its counters and one that finds a prime."""
    argv = [*argv, "--cache-dir", str(tmp_path / "cache")]
    if argv[0] == "search":
        argv += ["--out", str(tmp_path / "cert.json")]
    cold = run(capsys, *argv)

    def computed(*args, **kwargs):
        raise AssertionError("a warm run computed a report")

    monkeypatch.setattr(raycap.cli, "ambig_case", computed)
    monkeypatch.setattr(raycap.cli, "find_principalizing_prime", computed)
    assert run(capsys, *argv) == cold
    assert cold[0] in (0, 3) and cold[2] == ""


@pytest.mark.parametrize("argv,option", [
    (("ambig", "--L-disc", "-20"), "--cache-dir"),
    (("search", "--d", "51", "--mod", "7", "--class", "3,0", "--bound", "20000"), "--cache-dir"),
    (("search", "--d", "51", "--mod", "7", "--class", "3,0", "--bound", "20000"), "--out"),
], ids=lambda x: x if isinstance(x, str) else " ".join(x))
@pytest.mark.parametrize("under", ["", "sub"])
def test_path_under_a_regular_file_exits_two_with_one_line(capsys, tmp_path, argv, option, under):
    """A --cache-dir or --out whose directory would sit at or under a
    regular file exits 2 with one line naming the path, not a traceback."""
    blocker = tmp_path / "notadir"
    blocker.write_text("")
    path = blocker / under / ("cert.json" if option == "--out" else "")
    code, out, err = run(capsys, *argv, option, str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {path}") and err.count("\n") == 1


def test_out_naming_a_directory_exits_two_with_one_line(capsys, tmp_path):
    argv = ("search", "--d", "51", "--mod", "7", "--class", "3,0", "--bound", "20000")
    code, out, err = run(capsys, *argv, "--out", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {tmp_path}: ") and err.count("\n") == 1
    assert list(tmp_path.glob("*.tmp")) == []


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_rayclass_search_and_ambig_argv_exit_with_a_documented_code(
    tmp_path, monkeypatch, data
):
    """Any argv of rayclass, search or ambig, valid or not, exits with a
    code from the README's table and raises nothing."""
    monkeypatch.chdir(tmp_path)
    argv = data.draw(_argv(tmp_path))
    code = _exit_code(argv)
    event(f"{argv[0]} exit {code}")
    assert code in README_EXIT_CODES, argv
