"""Stamped JSON envelopes, certificate files, and the content cache."""
import json
import os
import re

import pytest

from raycap.capsearch import CandidateCertificate, find_principalizing_prime
from raycap.errors import InputError
from raycap.kummerfrob import SearchParams
from raycap.quadfield import Modulus, quadratic_field
from raycap.report import (
    ReportCache,
    atomic_write_text,
    canonical_json,
    check_stamp,
    load_certificate,
    save_certificate,
    stamp,
    toolchain_fingerprint,
)


@pytest.fixture(scope="module")
def flagship_certificate():
    field = quadratic_field(34)
    res = find_principalizing_prime(
        field, Modulus(field, ()), (1,), SearchParams(2, 1, None, 10**6)
    )
    assert res.status == "found"
    return res.certificate


class TestCanonicalJson:
    def test_sorted_and_minimal(self):
        assert canonical_json({"b": 1, "a": [2, 3]}) == '{"a":[2,3],"b":1}'

    def test_ascii_only(self):
        assert "\\u" in canonical_json({"s": "é"})


class TestStamp:
    def test_roundtrip(self):
        report = stamp("demo", {"x": 1})
        assert report["schema"] == "rc-1"
        assert check_stamp(report)

    def test_identical_payloads_identical_bytes(self):
        a = canonical_json(stamp("demo", {"x": [1, 2]}))
        b = canonical_json(stamp("demo", {"x": [1, 2]}))
        assert a == b

    def test_detects_payload_tamper(self):
        report = stamp("demo", {"x": 1})
        report["payload"]["x"] = 2
        assert not check_stamp(report)

    def test_detects_digest_tamper(self):
        report = stamp("demo", {"x": 1})
        report["sha256"] = "0" * 64
        assert not check_stamp(report)

    def test_rejects_malformed(self):
        assert not check_stamp({"schema": "rc-1"})
        assert not check_stamp("not a dict")

    def test_fingerprint_fields(self):
        fp = toolchain_fingerprint()
        assert fp["package"] == "raycap"
        assert set(fp) == {"package", "version", "python"}


class TestCertificateFiles:
    def test_save_load_roundtrip(self, tmp_path, flagship_certificate):
        path = tmp_path / "cert.json"
        report = save_certificate(path, flagship_certificate)
        assert check_stamp(report)
        cert, data = load_certificate(path)
        assert CandidateCertificate.from_dict(cert) == flagship_certificate
        assert data == report

    def test_verification_block_persisted(self, tmp_path, flagship_certificate):
        path = tmp_path / "cert.json"
        save_certificate(path, flagship_certificate, verification={"status": "x"})
        _, data = load_certificate(path)
        assert data["payload"]["verification"] == {"status": "x"}

    def test_from_dict_matches_as_dict(self, flagship_certificate):
        assert CandidateCertificate.from_dict(flagship_certificate.as_dict()) == flagship_certificate

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            load_certificate(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(InputError):
            load_certificate(path)

    def test_stamp_tamper_rejected(self, tmp_path, flagship_certificate):
        path = tmp_path / "cert.json"
        save_certificate(path, flagship_certificate)
        data = json.loads(path.read_text())
        data["payload"]["certificate"]["p"] += 2
        path.write_text(json.dumps(data))
        with pytest.raises(InputError):
            load_certificate(path)

    def test_malformed_certificate_payload(self):
        with pytest.raises(InputError):
            CandidateCertificate.from_dict({"d": 34})


class TestCache:
    def test_put_get_roundtrip(self, tmp_path):
        cache = ReportCache(tmp_path / "cache")
        key = {"op": "demo", "x": 1}
        report = stamp("demo", {"val": 7})
        assert cache.get(key) is None
        cache.put(key, report)
        assert cache.get(key) == report

    @pytest.mark.parametrize("under", ["", "sub"])
    def test_unwritable_directory_is_refused_before_computing(self, tmp_path, under):
        """A cache directory at or under a regular file is bad input on a
        miss before `compute` runs, and names the directory."""
        blocker = tmp_path / "notadir"
        blocker.write_text("")
        root = blocker / under

        def compute():
            pytest.fail("compute ran before the cache directory was made")

        with pytest.raises(InputError, match=f"^cannot write {re.escape(str(root))}: "):
            ReportCache(root).report({"op": "demo"}, "demo", compute)

    def test_distinct_keys_distinct_files(self, tmp_path):
        cache = ReportCache(tmp_path)
        assert cache.path_for({"x": 1}) != cache.path_for({"x": 2})

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ReportCache(tmp_path)
        key = {"op": "demo"}
        cache.put(key, stamp("demo", {"v": 1}))
        cache.path_for(key).write_text("garbage")
        assert cache.get(key) is None

    @pytest.mark.parametrize("stale", [
        ("source_digest", lambda: "0" * 64),
        ("toolchain_fingerprint", lambda: {"package": "raycap", "version": "0.0.0",
                                           "python": "3.0.0"}),
    ], ids=["source", "toolchain"])
    def test_entry_from_other_code_is_a_miss(self, tmp_path, monkeypatch, stale):
        """A report written under another source digest or toolchain is not
        replayed, whichever side is the current one."""
        import raycap.report as report_mod

        key = {"op": "demo", "x": 1}
        report = stamp("demo", {"val": 7})
        ReportCache(tmp_path).put(key, report)
        with monkeypatch.context() as m:
            m.setattr(report_mod, *stale)
            assert ReportCache(tmp_path).get(key) is None
            ReportCache(tmp_path).put(key, stamp("demo", {"val": 8}))
        assert ReportCache(tmp_path).get(key) == report

    def test_bounded_by_entry_count_oldest_first(self, tmp_path, monkeypatch):
        """Past CACHE_MAX_ENTRIES the oldest reports by mtime are deleted:
        those already on disk when the cache is opened, whatever their file
        names, and then those it wrote itself."""
        import raycap.report as report_mod

        monkeypatch.setattr(report_mod, "CACHE_MAX_ENTRIES", 3)
        keys = [{"op": "demo", "x": i} for i in range(6)]
        old = ReportCache(tmp_path)
        for i, key in enumerate(keys[:3]):
            old.put(key, stamp("demo", {"v": i}))
            os.utime(old.path_for(key), ns=(10**18 - i, 10**18 - i))  # keys[2] oldest
        cache = ReportCache(tmp_path)
        cache.put(keys[3], stamp("demo", {"v": 3}))
        assert cache.get(keys[2]) is None
        assert all(cache.get(k) is not None for k in (keys[0], keys[1], keys[3]))
        cache.put(keys[0], stamp("demo", {"v": 0}))  # rewritten: now the newest
        cache.put(keys[4], stamp("demo", {"v": 4}))
        cache.put(keys[5], stamp("demo", {"v": 5}))
        assert [cache.get(k) is not None for k in keys] == [
            True, False, False, False, True, True]
        assert len(list(tmp_path.glob("*.json"))) == 3

    def test_env_var_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RAYCAP_CACHE_DIR", str(tmp_path / "envcache"))
        cache = ReportCache()
        assert cache.root == tmp_path / "envcache"

    def test_atomic_write_creates_directories(self, tmp_path):
        target = tmp_path / "a" / "b" / "f.txt"
        atomic_write_text(target, "hello")
        assert target.read_text() == "hello"
        assert not list(target.parent.glob("*.tmp"))
