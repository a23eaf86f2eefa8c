"""Compare benchmark results written by ``run.py --out``.

    python3 perfbench/compare.py --base A.json [...] --new B.json [...]

All files must come from one workload and trace mode, with the same
kernel implementation and the same op pool; otherwise the comparison is
refused (exit code 2).  For each metric it prints the median and
quartiles of each side.  End-to-end metrics are marked ``WORSE`` when the
new median is worse than the base median by more than the metric's bound
in ``BENCHMARK.json``; per-layer counts must match exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from layertrace import is_count

ROOT = Path(__file__).resolve().parent.parent
SAME = ("workload", "trace", "kernel", "pool_ops")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", type=Path, required=True)
    parser.add_argument("--new", nargs="+", type=Path, required=True)
    args = parser.parse_args()
    records = {side: [json.loads(p.read_text()) for p in paths]
               for side, paths in (("base", args.base), ("new", args.new))}
    every = records["base"] + records["new"]
    for key in SAME:
        seen = {json.dumps(r["provenance"][key]) for r in every}
        if len(seen) > 1:
            print(f"refusing to compare: {key} differs: {sorted(seen)}",
                  file=sys.stderr)
            return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    traced = every[0]["provenance"]["trace"]
    listed = spec["per_layer" if traced else "end_to_end"]
    worse = False
    for metric in listed:
        name = metric["name"]
        sides = {side: [r["result"]["metrics"][name]["value"] for r in recs]
                 for side, recs in records.items()}
        base, new = (quartiles(sides[s]) for s in ("base", "new"))
        verdict = ""
        if traced and is_count(name):
            if len(set(sides["base"] + sides["new"])) > 1:
                verdict, worse = "COUNT DIFFERS", True
        elif not traced:
            sign = 1 if metric["better"] == "lower" else -1
            change = sign * (new[1] - base[1]) / base[1] if base[1] else 0.0
            if change > metric["bound"]:
                verdict, worse = "WORSE", True
        print(f"{name:48} base {base[1]:12.6g} [{base[0]:.6g}, {base[2]:.6g}]"
              f"  new {new[1]:12.6g} [{new[0]:.6g}, {new[2]:.6g}]"
              f"  {metric['unit']:6} {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    raise SystemExit(main())
