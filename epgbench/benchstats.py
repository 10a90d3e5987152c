"""Pure helpers of the benchmark: metric names and units, the percentile
rule, medians and failure ratios. No I/O, so the tests cover them
directly."""

import math
import re

# A metric name: starts with a letter or digit, then letters, digits,
# '_', '.' and '-', at most 64 characters in all.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")

# A percentile needs at least this many samples beyond it; with fewer it
# is really the maximum.
MIN_BEYOND = 10


class RefusedPercentile(ValueError):
    """Too few samples lie beyond the requested percentile."""


def check_name(name):
    if not isinstance(name, str) or not NAME_RE.fullmatch(name):
        raise ValueError(f"bad metric name: {name!r}")
    return name


def unit_of(name):
    """Unit of a metric, read from its name's suffix."""
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_s", "s"),
                         ("_mb", "MiB"), ("_kb", "KiB"), ("_bytes", "bytes"),
                         ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def median(values):
    if not values:
        raise ValueError("median of no samples")
    s = sorted(values)
    n = len(s)
    mid = n // 2
    return s[mid] if n % 2 else (s[mid - 1] + s[mid]) / 2


def percentile(values, p):
    """Nearest-rank percentile `p` (0 < p < 1) of `values`. Refuses when
    fewer than MIN_BEYOND samples lie beyond the percentile's rank."""
    if not 0 < p < 1:
        raise ValueError(f"percentile out of range: {p}")
    n = len(values)
    rank = max(1, math.ceil(p * n))
    beyond = n - rank
    if beyond < MIN_BEYOND:
        raise RefusedPercentile(
            f"p{round(p * 100)} of {n} samples has {beyond} beyond it; "
            f"needs {MIN_BEYOND}")
    return sorted(values)[rank - 1]


def fail_ratio(attempted, failed):
    """Failed or invalid operations over attempted ones."""
    if attempted < 1:
        raise ValueError("no operations attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside 0..{attempted}")
    return failed / attempted


def metric(value, unit, samples):
    return {"value": value, "unit": unit, "samples": samples}
