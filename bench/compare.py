"""Compare two sets of benchmark results.

    python3 bench/compare.py BASE_DIR NEW_DIR

Each directory holds the result files bench/run.py writes (by default
under .bench_out/), from runs with ``--trace 0``.  For every workload
and end-to-end metric in BENCHMARK.json, one row shows each side's
median and quartiles over its runs, the ratio new/base with its base,
and a verdict against the metric's bound:

- ``unresolved``: either side's quartile spread, as a share of its
  median, is wider than the bound, and not every new run beats every
  base run;
- ``worse``: the new median is worse than the base median by more than
  the bound;
- ``improved``: better by more than the wider of the two spreads;
- ``unchanged``: otherwise.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory: str) -> dict:
    """workload -> metric -> list of values, from trace-0 result files."""
    out: dict = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError:
                continue
        if not isinstance(data, dict) or data.get("trace") != 0:
            continue
        per_metric = out.setdefault(data["workload"], {})
        for name, m in data["metrics"].items():
            per_metric.setdefault(name, []).append(m["value"])
    return out


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, new, better: str, bound: float) -> str:
    b1, bm, b3 = summary(base)
    n1, nm, n3 = summary(new)
    spread = max((b3 - b1) / bm, (n3 - n1) / nm)
    gain = (bm - nm) / bm if better == "lower" else (nm - bm) / bm
    if better == "lower":
        dominates = max(new) < min(base)
    else:
        dominates = min(new) > max(base)
    if spread > bound:
        return "improved" if dominates else "unresolved"
    if gain < -bound:
        return "worse"
    if gain > spread:
        return "improved"
    return "unchanged"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    base, new = load(argv[0]), load(argv[1])
    header = (f"{'workload':13s} {'metric':12s} {'base q1/med/q3':>26s} "
              f"{'new q1/med/q3':>26s} {'new/base':>18s}  verdict")
    print(header)
    for wl in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b, n = base.get(wl, {}).get(name), new.get(wl, {}).get(name)
            if not b or not n:
                print(f"{wl:13s} {name:12s} missing on {'base' if not b else 'new'} side")
                continue
            bq, nq = summary(b), summary(n)
            fmt = "{:8.4g}/{:8.4g}/{:8.4g}"
            ratio = f"{nq[1] / bq[1]:.3f} of {bq[1]:.4g}"
            print(f"{wl:13s} {name:12s} {fmt.format(*bq):>26s} {fmt.format(*nq):>26s} "
                  f"{ratio:>18s}  {verdict(b, n, metric['better'], metric['bound'])}"
                  f"  (runs {len(b)}/{len(n)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
