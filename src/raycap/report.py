"""Canonical JSON reports, certificate file envelopes, and a content-addressed cache.

Every artifact is a stamped envelope {schema, kind, payload, sha256} where
the digest covers the canonical serialization of the first three fields.
Canonical means sorted keys, minimal separators, ASCII: two runs that agree
on content agree on bytes, which is what the determinism checks compare.
"""
from __future__ import annotations

import json
import os
import tempfile
from dataclasses import fields
from functools import cache
from pathlib import Path

from raycap import __version__
from raycap.errors import InputError

SCHEMA = "rc-1"
CACHE_ENV = "RAYCAP_CACHE_DIR"
# Reports a ReportCache keeps on disk; past it the oldest by mtime go first.
CACHE_MAX_ENTRIES = 4096


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def plain(record, **derived) -> dict:
    """The JSON values of a dataclass record, field by field, then the
    `derived` entries: tuples become lists all the way down, a nested record
    serializes through its own `as_dict`, and a dict is kept as it is."""
    return {**{f.name: _plain(getattr(record, f.name)) for f in fields(record)}, **derived}


def _plain(value):
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    return value.as_dict() if hasattr(value, "as_dict") else value


def _digest(body: dict) -> str:
    import hashlib  # loads OpenSSL: only a process that stamps pays for it

    return hashlib.sha256(canonical_json(body).encode("ascii")).hexdigest()


def stamp(kind: str, payload) -> dict:
    body = {"schema": SCHEMA, "kind": kind, "payload": payload}
    return {**body, "sha256": _digest(body)}


def check_stamp(report: dict) -> bool:
    try:
        body = {k: report[k] for k in ("schema", "kind", "payload")}
    except (KeyError, TypeError):
        return False
    return report.get("sha256") == _digest(body) and report["schema"] == SCHEMA


def toolchain_fingerprint() -> dict:
    import platform

    return {
        "package": "raycap",
        "version": __version__,
        "python": platform.python_version(),
    }


@cache
def source_digest() -> str:
    """sha256 over the library's own source files, name and bytes."""
    import hashlib

    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# certificate files


def save_certificate(path: str | Path, cert, verification: dict | None = None) -> dict:
    """Write the stamped file envelope of a certificate (`as_dict`'s record)."""
    payload = {
        "certificate": cert.as_dict(),
        "verification": verification,
        "toolchain": toolchain_fingerprint(),
    }
    report = stamp("certificate", payload)
    atomic_write_text(Path(path), canonical_json(report) + "\n")
    return report


def load_certificate(path: str | Path) -> tuple[dict, dict]:
    """The certificate record of a stamped certificate file, for
    `CandidateCertificate.from_dict`, and the whole envelope."""
    try:
        data = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise InputError(f"no certificate file at {path}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"certificate file is not JSON: {exc}") from exc
    if not check_stamp(data) or data.get("kind") != "certificate":
        raise InputError("certificate file failed its integrity stamp")
    payload = data["payload"]
    if not isinstance(payload, dict) or not isinstance(payload.get("certificate"), dict):
        raise InputError("certificate file holds no certificate object")
    return payload["certificate"], data


# ---------------------------------------------------------------------------
# cache


def atomic_write_text(path: Path, text: str) -> None:
    """Write `text` to a temporary file beside `path`, then move it over
    `path`. A `path` that is a directory, or whose directory cannot be made
    or written to (one under a regular file, say), is bad input: the
    InputError names the path."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        if isinstance(exc, IsADirectoryError):
            raise InputError(f"cannot write {path}: {exc}") from exc
        raise


class ReportCache:
    """Content-addressed store: key dict -> stamped report, one file each.
    The file name hashes the request together with the toolchain and the
    library's source digest, so a report that other code wrote is a miss,
    never a replay. At most CACHE_MAX_ENTRIES reports stay on disk: the
    first `put` lists the directory by mtime, later ones extend that list,
    and the oldest entries are deleted past the bound."""

    def __init__(self, root: str | Path | None = None):
        if root is None:
            root = os.environ.get(CACHE_ENV) or Path.home() / ".cache" / "raycap"
        self.root = Path(root)
        self._entries: dict[Path, None] | None = None  # oldest first, once listed

    def path_for(self, key: dict) -> Path:
        full = {"request": key, "toolchain": toolchain_fingerprint(),
                "source": source_digest()}
        return self.root / f"{_digest(full)}.json"

    def get(self, key: dict) -> dict | None:
        try:
            data = json.loads(self.path_for(key).read_text())
        except (FileNotFoundError, json.JSONDecodeError, OSError):
            return None
        if not check_stamp(data):
            return None  # torn or stale write: recompute
        return data

    def report(self, key: dict, kind: str, compute) -> dict:
        """The cached report for `key`; on a miss, `stamp(kind, compute())`
        stored and returned as it reads back, the JSON values of a hit. The
        cache directory is made before `compute` runs, so one that cannot
        be made is bad input at once, not after the computation."""
        report = self.get(key)
        if report is None:
            try:
                self.root.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise InputError(f"cannot write {self.root}: {exc}") from exc
            report = json.loads(canonical_json(stamp(kind, compute())))
            self.put(key, report)
        return report

    def put(self, key: dict, report: dict) -> None:
        path = self.path_for(key)
        atomic_write_text(path, canonical_json(report) + "\n")
        if self._entries is None:
            listed = []
            for entry in self.root.glob("*.json"):
                try:
                    listed.append((entry.stat().st_mtime_ns, entry))
                except OSError:
                    pass  # removed meanwhile
            self._entries = dict.fromkeys(entry for _, entry in sorted(listed))
        self._entries.pop(path, None)
        self._entries[path] = None
        while len(self._entries) > CACHE_MAX_ENTRIES:
            oldest = next(iter(self._entries))
            del self._entries[oldest]
            oldest.unlink(missing_ok=True)
