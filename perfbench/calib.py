"""Frozen host calibration, version 1.

A fixed pure-Python str, dict and md5 loop that imports nothing from the
engine, so its time moves only with the host, never with the code under
test.  Never edit this loop: a changed workload needs a new version
(``calibrate_v2``) and a new metric name, so old figures stay comparable.
"""

from __future__ import annotations

import hashlib
import time

CALIBRATION_VERSION = 1


def calibrate_v1() -> float:
    """Seconds for one pass of the frozen loop (about 0.3 s on one core of
    the reference host)."""
    t0 = time.perf_counter()
    table: dict[str, int] = {}
    acc = 0
    for i in range(60_000):
        key = f"tag-{i % 4093:05d}+L{i % 7}-D{i % 31:02d}"
        parts = key.upper().split("-")
        table[key] = table.get(key, 0) + len(parts)
        digest = hashlib.md5(key.encode()).hexdigest()
        acc ^= int(digest[:8], 16)
        if i % 5 == 0:
            acc += len(" ".join(sorted(parts)).lower())
    elapsed = time.perf_counter() - t0
    if acc < 0 or not table:  # keeps the loop's results live
        raise RuntimeError("calibration loop produced an impossible state")
    return elapsed
