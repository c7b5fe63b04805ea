"""Helpers shared by the benchmark's modules."""

from __future__ import annotations

import hashlib
import json
import statistics

median = statistics.median


class CheckFailed(Exception):
    """An output check failed: the run reports no numbers."""


def digest(payload) -> str:
    """Short digest of a rendered result (its JSON payload)."""
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()
                          ).hexdigest()[:16]


def tail(values) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it, and
    which percentile that is (all samples when there are too few)."""
    s = sorted(values)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n
