"""Canonical digests of the program's outputs.

Each digest hashes the *data* an output carries, never its encoding:
a profile is hashed as sorted JSON of its fields, a trace as its
decoded columns (so a codec change that keeps the data keeps the
digest), an RTM cell as its counters and reused ranges, and a served
body as its parsed JSON.  ``perfbench/pinned.json`` holds the expected
values, written by ``perfbench/pin.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib

import numpy as np

PINNED_PATH = pathlib.Path(__file__).resolve().parent / "pinned.json"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:32]


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def profile_digest(profile) -> str:
    """Digest of a ``BenchmarkProfile`` (every field, floats exact)."""
    return _sha(_canonical(dataclasses.asdict(profile)))


def rtm_digest(result) -> str:
    """Digest of one ``FiniteReuseResult`` (counters and reused ranges)."""
    ranges = hashlib.sha256()
    for start, stop in result.reused_ranges:
        ranges.update(b"%d:%d;" % (start, stop))
    return _sha(_canonical([
        result.heuristic_name, result.rtm_name, result.total_instructions,
        result.reused_instructions, result.reuse_events,
        result.rtm_insertions, result.rtm_occupancy, result.rtm_invalidations,
        result.collector_limit_terminations, ranges.hexdigest(),
    ]))


def body_digest(body: bytes) -> str:
    """Digest of a served JSON body, independent of its formatting."""
    return _sha(_canonical(json.loads(body)))


def answer_digest(answer: dict) -> str:
    """Digest of a service answer before it is sent: the digest of the
    body it serializes to."""
    return body_digest(json.dumps(answer).encode())


_TAGGED = np.dtype([("float", "u1"), ("bits", "<i8")])


def _values_bytes(vals) -> bytes:
    # A location holds a 64-bit int or an IEEE double, and 1 and 1.0
    # are different values, so each value is stored as a kind tag plus
    # its 64 bits: 9 bytes per value whatever the chunking.
    out = np.zeros(len(vals), dtype=_TAGGED)
    arr = np.array(vals)
    if arr.dtype == np.int64:
        out["bits"] = arr
        return out.tobytes()
    objs = np.array(vals, dtype=object)
    mask = np.fromiter((isinstance(v, float) for v in vals), dtype=bool,
                       count=len(vals))
    out["float"] = mask
    out["bits"][mask] = objs[mask].astype(np.float64).view(np.int64)
    out["bits"][~mask] = [v - (1 << 64) if v >= 1 << 63 else v
                          for v in objs[~mask].tolist()]
    return out.tobytes()


class ColumnDigest:
    """Digest of a trace's decoded columns, fed one chunk at a time.

    Every column is hashed on its own and in a fixed width, so the
    result does not depend on how the stream is cut into chunks.
    """

    _FIXED = ("pcs", "ops", "lats", "next_pcs", "read_locs", "write_locs")

    def __init__(self) -> None:
        self._h = {name: hashlib.sha256() for name in
                   self._FIXED + ("read_counts", "write_counts",
                                  "read_vals", "write_vals")}
        self.count = 0

    def update(self, chunk) -> None:
        h = self._h
        for name in self._FIXED:
            h[name].update(np.asarray(getattr(chunk, name),
                                      dtype=np.int64).tobytes())
        for side in ("read", "write"):
            bounds = np.asarray(getattr(chunk, f"{side}_bounds"),
                                dtype=np.int64)
            h[f"{side}_counts"].update(np.diff(bounds).tobytes())
            h[f"{side}_vals"].update(
                _values_bytes(getattr(chunk, f"{side}_vals")))
        self.count += len(chunk)

    def hexdigest(self) -> str:
        top = hashlib.sha256(b"%d;" % self.count)
        for name in sorted(self._h):
            top.update(name.encode() + b"=" + self._h[name].digest())
        return top.hexdigest()[:32]


def file_digest(path) -> str:
    """Digest of a file's bytes (to compare two writes within one run)."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()[:32]


def load_pinned(path: pathlib.Path | None = None) -> dict[str, str]:
    with open(path or PINNED_PATH) as fh:
        return json.load(fh)["digests"]


class Checker:
    """Compares digests against the pinned table and counts outcomes."""

    def __init__(self, pinned: dict[str, str]) -> None:
        self.pinned = pinned
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []

    def check(self, key: str, digest: str | None) -> bool:
        """Count one operation; False (and a failure) on any mismatch.

        ``digest`` is None for a request answered with the wrong
        status; a key with no pinned value is a failure too, so a size
        or kernel nobody pinned can never pass unchecked.
        """
        self.attempted += 1
        expected = self.pinned.get(key)
        if digest is not None and digest == expected:
            return True
        self._fail(f"{key}: got {digest} expected {expected}")
        return False

    def expect(self, key: str, ok: bool) -> bool:
        """Count one operation whose check is a comparison made here."""
        self.attempted += 1
        if not ok:
            self._fail(f"{key}: output differs")
        return ok

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.mismatches) < 20:
            self.mismatches.append(message)
