"""Compare two benchmark result files metric by metric.

    python3 bench/compare.py bench-results/BASE.json bench-results/NEW.json

For every metric in both files this prints the two values and the
change as a share of the base value, positive when the new file is
worse.  End-to-end metrics get a verdict against their bound in
``BENCHMARK.json``: ``unresolved`` when either file's spread (the
distance between its quartiles over the repetitions, as a share of its
median) exceeds the bound, else ``worse``, ``better`` or ``same``.
Per-layer metrics have no bound and get no verdict.  Exits with 1 when
a metric is worse.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(m):
    return (m["q3"] - m["q1"]) / abs(m["median"]) if m["median"] else 0.0


def verdict(base, new, better, bound):
    """Change (positive = worse) and verdict of one metric."""
    if base["value"] == 0:
        change = 0.0 if new["value"] == 0 else float("inf")
    else:
        change = (new["value"] - base["value"]) / abs(base["value"])
    if better == "higher":
        change = -change
    if bound is None:
        return change, "-"
    if max(spread(base), spread(new)) > bound:
        return change, "unresolved"
    if change > bound:
        return change, "worse"
    return change, "better" if change < -bound else "same"


def compare(base, new, spec):
    """Rows of ``(metric, base value, new value, change, verdict)``."""
    rules = {m["name"]: (m["better"], m.get("bound"))
             for m in spec["end_to_end"] + spec["per_layer"]}
    rows = []
    for name, b in base["metrics"].items():
        if name in new["metrics"] and name in rules:
            n = new["metrics"][name]
            rows.append((name, b["value"], n["value"], *verdict(b, n, *rules[name])))
    return rows


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in argv)
    if (base["workload"], base["trace"]) != (new["workload"], new["trace"]):
        print("warning: the files come from different workloads or trace settings",
              file=sys.stderr)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(base, new, spec)
    for name, b, n, change, v in rows:
        print(f"{name:45s} {b:14.6g} {n:14.6g} {change:+9.2%}  {v}")
    return 1 if any(v == "worse" for *_, v in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
