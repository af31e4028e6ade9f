"""Small, dependency-free helpers shared by the benchmark and its tests."""

import hashlib
import math
import os


def median(values):
    """Median of a non-empty sequence (mean of the middle two when even)."""
    v = sorted(values)
    if not v:
        raise ValueError("median of no samples")
    mid = len(v) // 2
    return v[mid] if len(v) % 2 else (v[mid - 1] + v[mid]) / 2.0


def percentile(values, p):
    """p-th percentile (0..100) by linear interpolation between the closest
    ranks, the definition numpy uses by default."""
    v = sorted(values)
    if not v:
        raise ValueError("percentile of no samples")
    if not 0 <= p <= 100:
        raise ValueError("percentile outside 0..100")
    pos = (len(v) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def median_or_zero(values):
    """Median, or 0 for a layer the workload does not exercise."""
    return median(values) if values else 0.0


def derive_seed(*parts):
    """A task seed in [1, 2**31) derived from the benchmark seed and a
    session index: the same parts always give the same seed."""
    h = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return 1 + int.from_bytes(h[:8], "little") % (2**31 - 1)


def parse_kv_lines(lines):
    """`key: value` lines of the program's stdout as a dict (first wins)."""
    out = {}
    for line in lines:
        key, sep, value = line.partition(": ")
        if sep and key and " " not in key and key not in out:
            out[key] = value.strip()
    return out


def parse_udp_fec(line):
    """The counters of flserver's `udp-fec:` line as a dict of ints."""
    out = {}
    for tok in line.split():
        k, sep, v = tok.partition("=")
        if sep:
            out[k] = int(v)
    return out


def find_counter(tree, name):
    """Value of `name` anywhere in a metrics-registry JSON document."""
    if isinstance(tree, dict):
        if name in tree and not isinstance(tree[name], (dict, list)):
            return tree[name]
        for v in tree.values():
            r = find_counter(v, name)
            if r is not None:
                return r
    elif isinstance(tree, list):
        for v in tree:
            r = find_counter(v, name)
            if r is not None:
                return r
    return None


def proc_cpu_s(pid):
    """User + system CPU seconds of a live process from /proc/<pid>/stat,
    or None when it has gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None
    # fields[0] is the state (stat field 3); utime and stime are 14 and 15.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
