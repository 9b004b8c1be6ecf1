#!/usr/bin/env python3
"""Compares two result documents written by `run.py --out`.

    python3 perfbench/compare.py BASE.json NEW.json

Prints each metric of both runs and the relative change. Refuses (exit
code 2) when the two were measured on different machines or toolchains
or with another program thread count: such figures are not comparable.
"""

import json
import sys

# Provenance fields that must agree for two results to be comparable.
MACHINE = ("machine", "nproc", "rustc", "program_threads")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, new = (json.load(open(path, encoding="utf-8")) for path in sys.argv[1:])
    differ = [k for k in MACHINE if base["provenance"].get(k) != new["provenance"].get(k)]
    if differ:
        print(f"not comparable: provenance differs in {', '.join(differ)}", file=sys.stderr)
        sys.exit(2)
    if (base["workload"], base["trace"]) != (new["workload"], new["trace"]):
        print("not comparable: different workload or trace mode", file=sys.stderr)
        sys.exit(2)
    for name, metric in base["metrics"].items():
        if name not in new["metrics"]:
            continue
        a, b = metric["value"], new["metrics"][name]["value"]
        change = f"{100.0 * (b - a) / a:+.1f}%" if a else "n/a"
        print(f"{name:28s} {a:14.6g} {b:14.6g} {metric['unit']:6s} {change}")


if __name__ == "__main__":
    main()
