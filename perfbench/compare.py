"""Benchmark bookkeeping shared by the runner, the steadiness tool and the
tests: validating BENCHMARK.json, summarizing repeated runs, and comparing
two sets of runs metric by metric.

Command line: compare two directories of result records written by
``run.py`` (``<workload>-seed<n>-trace0.json``)::

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Exits 1 if any (metric, workload) pair regressed beyond its bound.
"""

import json
import re
import statistics
import sys
from pathlib import Path

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
MAX_BOUND = 0.25


class SpecError(ValueError):
    pass


def check_name(name, what):
    if not isinstance(name, str) or not NAME_RE.fullmatch(name):
        raise SpecError(f"{what} name {name!r}: use at most 64 letters, digits, '_', '.' and '-', "
                        "starting with a letter or digit")
    return name


def validate_spec(spec):
    """Checks BENCHMARK.json's shape; returns it or raises SpecError."""
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        raise SpecError(f"BENCHMARK.json keys {sorted(spec)} != {sorted(keys)}")
    seen = set()

    def unique(name, what):
        check_name(name, what)
        if name in seen:
            raise SpecError(f"{what} name {name!r} used twice")
        seen.add(name)

    if not 2 <= len(spec["workloads"]) <= 8:
        raise SpecError("need 2 to 8 workloads")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"}:
            raise SpecError(f"workload keys {sorted(w)}")
        unique(w["name"], "workload")
        if "\n" in w["why"] or len(w["why"]) > 200:
            raise SpecError(f"workload {w['name']}: 'why' must be one line of at most 200 characters")
    for group, keys_ in (("end_to_end", {"name", "unit", "better", "bound"}),
                         ("per_layer", {"name", "unit", "better"})):
        for m in spec[group]:
            if set(m) != keys_:
                raise SpecError(f"{group} metric keys {sorted(m)}")
            unique(m["name"], "metric")
            if not UNIT_RE.fullmatch(m["unit"]):
                raise SpecError(f"metric {m['name']}: bad unit {m['unit']!r}")
            if m["better"] not in ("lower", "higher"):
                raise SpecError(f"metric {m['name']}: 'better' must be lower or higher")
            if group == "end_to_end" and not 0 < m["bound"] <= MAX_BOUND:
                raise SpecError(f"metric {m['name']}: bound must be in (0, {MAX_BOUND}]")
    if not any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in spec["end_to_end"]):
        raise SpecError("end_to_end must include setup_s in s, lower is better")
    return spec


def load_spec(path):
    return validate_spec(json.loads(Path(path).read_text()))


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def summarize(records, spec):
    """{workload: {metric: {"median", "spread", "values"}}} over end-to-end
    records (one per run)."""
    out = {}
    for wl in sorted({r["workload"] for r in records}):
        runs = [r for r in records if r["workload"] == wl]
        out[wl] = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            out[wl][m["name"]] = {
                "median": statistics.median(values),
                "spread": spread(values) if len(values) >= 2 else 0.0,
                "values": values,
            }
    return out


def worsening(base, change, better):
    """How much worse `change` is than `base`, as a share of `base`
    (negative when it is better)."""
    if base == 0:
        return 0.0 if change == base else float("inf")
    delta = (change - base) / abs(base)
    return delta if better == "lower" else -delta


def compare(base_records, change_records, spec):
    """Pairs (workload, metric, worsening, bound) where the change's median
    is worse than the base's by more than the metric's bound."""
    base = summarize(base_records, spec)
    change = summarize(change_records, spec)
    flagged = []
    for wl in sorted(base):
        if wl not in change:
            flagged.append((wl, "*", float("inf"), 0.0))
            continue
        for m in spec["end_to_end"]:
            w = worsening(base[wl][m["name"]]["median"], change[wl][m["name"]]["median"], m["better"])
            if w > m["bound"]:
                flagged.append((wl, m["name"], w, m["bound"]))
    return flagged


def load_records(directory):
    records = []
    for p in sorted(Path(directory).glob("*-trace0.json")):
        records.append(json.loads(p.read_text()))
    return records


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec(Path(__file__).resolve().parent.parent / "BENCHMARK.json")
    flagged = compare(load_records(argv[1]), load_records(argv[2]), spec)
    for wl, metric, w, bound in flagged:
        print(f"REGRESSION {wl} {metric}: {w:+.1%} worse (bound {bound:.0%})")
    if not flagged:
        print("no (metric, workload) pair worse than its bound")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
