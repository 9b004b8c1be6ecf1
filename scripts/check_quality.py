#!/usr/bin/env python3
"""Quality-regression gate: compare a quality artifact against a golden.

Usage: check_quality.py <result.json> <golden.json> [--tolerance PCT]

Every row of the result (one per pinned circuit x method) is matched to
its golden row by (name, method) and compared on the lexicographic
quality key `(f, devices, d_k, T_SUM, d_k^E, cut)`:

* `feasible` must not regress (an infeasible result never passes when
  the golden was feasible);
* `devices` must not exceed the golden count (strict — a device-count
  regression is never noise, the runs are fully seeded);
* `infeasibility`, `terminal_sum`, `external_balance`, and `cut` may
  exceed the golden by at most --tolerance percent (default 5%).

Within the result, two work ratios must hold on the Rent circuit, in
gain-bucket pops (the engine's unit of search work, a count rather than
a time):

* the n-level V-cycle spends at most half the pops of flat FPART;
* the ECO repair spends at most half the pops of the n-level run.

They are what the n-level and ECO paths exist for: a V-cycle that stops
coarsening, or an ECO repair that always falls back to repartitioning,
fails here.

The pinned runs are single-threaded and deterministic, so in practice a
passing run reproduces the golden exactly; the tolerance exists as
headroom for intentional algorithm changes, which should still update
the golden in the same commit. Improvements (better than golden) pass
with a note, as a reminder to refresh the golden.
"""

import argparse
import json
import sys


def rows_by_key(doc, path):
    assert "circuits" in doc, f"{path}: missing 'circuits'"
    out = {}
    for row in doc["circuits"]:
        out[(row["name"], row["method"])] = row
    return out


# (cheaper method, reference method) pairs on the Rent circuit: the
# cheaper one may spend at most half the reference's gain-bucket pops.
WORK_RATIOS = [("multilevel", "flat"), ("eco", "multilevel")]


def work_ratio_failures(got):
    failures = []
    for cheap, reference in WORK_RATIOS:
        spent = got[("rent", cheap)]["gain_bucket_pops"]
        budget = got[("rent", reference)]["gain_bucket_pops"] / 2
        print(f"rent/{cheap}: {spent} gain-bucket pops "
              f"(limit {budget:.0f} = half of rent/{reference})")
        if spent > budget:
            failures.append(
                f"rent/{cheap}: {spent} gain-bucket pops > half of "
                f"rent/{reference} ({budget:.0f})")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("result", help="freshly produced quality JSON")
    parser.add_argument("golden", help="checked-in golden quality JSON")
    parser.add_argument("--tolerance", type=float, default=5.0,
                        help="allowed regression in percent (default 5)")
    args = parser.parse_args()

    with open(args.result) as f:
        result = json.load(f)
    with open(args.golden) as f:
        golden = json.load(f)

    got = rows_by_key(result, args.result)
    want = rows_by_key(golden, args.golden)
    missing = sorted(set(want) - set(got))
    assert not missing, f"result is missing golden rows: {missing}"

    slack = 1.0 + args.tolerance / 100.0
    failures = []
    improvements = []
    for key in sorted(want):
        g, r = want[key], got[key]
        label = f"{key[0]}/{key[1]}"
        if g["feasible"] and not r["feasible"]:
            failures.append(f"{label}: became infeasible")
            continue
        if r["devices"] > g["devices"]:
            failures.append(
                f"{label}: devices {r['devices']} > golden {g['devices']}")
        for field in ["infeasibility", "terminal_sum", "external_balance",
                      "cut"]:
            # Absolute epsilon so a zero golden tolerates float dust.
            limit = g[field] * slack + 1e-9
            if r[field] > limit:
                failures.append(
                    f"{label}: {field} {r[field]} > golden {g[field]} "
                    f"(+{args.tolerance}% = {limit:.4f})")
        if (r["devices"] < g["devices"]
                or r["cut"] < g["cut"] * (2.0 - slack) - 1e-9):
            improvements.append(label)

    failures += work_ratio_failures(got)

    for line in failures:
        print(f"REGRESSION: {line}", file=sys.stderr)
    if failures:
        sys.exit(1)
    if improvements:
        print("note: results improved on the golden for "
              + ", ".join(improvements)
              + " — consider refreshing goldens/quality_gate.json")
    print(f"quality gate OK: {len(want)} rows within {args.tolerance}% "
          "of the golden, work ratios hold")


if __name__ == "__main__":
    main()
