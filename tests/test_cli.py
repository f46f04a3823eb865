"""End-to-end runs of every subcommand through main(), checking exit codes
against the documented table and output against independent expectations."""
import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from raycap import capsearch, cli, quadfield
from raycap.capsearch import find_principalizing_prime
from raycap.cli import main
from raycap.kummerfrob import SearchParams
from raycap.quadfield import Modulus, quadratic_field
from raycap.report import (
    canonical_json,
    certificate_from_dict,
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
        monkeypatch.setattr(quadfield, "primes_in_progression", lambda *a, **k: iter([100003]))
        code, out, err = run(capsys, "rayclass", "--d", "-5", "--mod", "3")
        assert code == 6
        assert out == ""
        assert err.startswith("budget exceeded: ") and err.count("\n") == 1

    def test_bad_modulus_entry(self, capsys):
        code, _, _ = run(capsys, "rayclass", "--d", "3", "--mod", "15")
        assert code == 2

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
    ])
    def test_crafted_certificate_is_invalid(self, capsys, tmp_path, key, value):
        # a well-formed, freshly stamped file whose contents do not fit
        cert_path = tmp_path / "c.json"
        run(capsys, "search", "--d", "34", "--mod", "1", "--out", str(cert_path))
        data = json.loads(cert_path.read_text())["payload"]["certificate"]
        data[key] = value
        save_certificate(cert_path, certificate_from_dict(data))
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

    def test_non_fundamental_disc(self, capsys):
        code, _, _ = run(capsys, "ambig", "--L-disc", "10", "--mod", "1")
        assert code == 2

    def test_unknown_sweep_name(self, capsys):
        code, _, _ = run(capsys, "ambig", "--sweep", "everything")
        assert code == 2

    def test_no_case_given(self, capsys):
        code, _, _ = run(capsys, "ambig")
        assert code == 2

    def test_cold_and_warm_runs_identical(self, capsys):
        code1, out1, _ = run(capsys, "ambig", "--L-disc", "-20", "--mod", "3", "--json")
        code2, out2, _ = run(capsys, "ambig", "--L-disc", "-20", "--mod", "3", "--json")
        assert code1 == code2 == 0
        assert out1 == out2


class TestJobs:
    """--jobs on `search` and `ambig`: below 1 exits 2, above the CPU count
    is capped. The pool is an in-process stand-in that records its size,
    so no test starts a worker process."""

    @staticmethod
    def argv(command, tmp_path, *extra):
        if command == "search":
            return ("search", "--d", "34", "--mod", "1", "--bound", "20000",
                    "--out", str(tmp_path / "cert.json"), *extra)
        return ("ambig", "--L-disc", "-20", "--mod", "3", *extra)

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

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(capsearch, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        return sizes

    @pytest.mark.parametrize("command", ["search", "ambig"])
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_below_one_exits_two(self, capsys, tmp_path, pool_sizes, command, jobs):
        code, out, err = run(capsys, *self.argv(command, tmp_path, "--jobs", jobs))
        assert code == 2
        assert out == ""
        assert err == f"error: --jobs must be at least 1, not {jobs}\n"
        assert pool_sizes == []

    @pytest.mark.parametrize("command", ["search", "ambig"])
    def test_capped_at_cpu_count(self, capsys, tmp_path, pool_sizes, command):
        serial = run(capsys, *self.argv(command, tmp_path, "--json",
                                        "--cache-dir", str(tmp_path / "serial")))
        capped = run(capsys, *self.argv(command, tmp_path, "--json", "--jobs", "100000",
                                        "--cache-dir", str(tmp_path / "capped")))
        assert serial[0] == capped[0] == 0
        assert serial[1] == capped[1]
        assert pool_sizes == [2]


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
