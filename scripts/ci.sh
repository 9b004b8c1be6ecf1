#!/usr/bin/env bash
# Local CI gate: formatting, lints, rustdoc links, release build, tests,
# benchmark harness tests, parser fuzz, degradation smoke, peak-RSS gate,
# kill-resume durability gate, quality-regression gate, observability
# smoke, partition-server smoke, smoke bench.
#
# Usage: scripts/ci.sh [--skip-bench]
#
# The workspace is fully offline (no crates.io dependencies), so this
# runs anywhere the Rust toolchain is installed.
#
# FPART_THREADS_LIST overrides the worker counts the test suite runs
# under (default "1 4"); the hosted matrix sets it to a single value
# per leg so each thread count gets its own runner.

set -euo pipefail
cd "$(dirname "$0")/.."

skip_bench=0
for arg in "$@"; do
    case "$arg" in
        --skip-bench) skip_bench=1 ;;
        *) echo "unknown argument: $arg" >&2; exit 2 ;;
    esac
done

step() { printf '\n==> %s\n' "$*"; }

step "cargo fmt --check"
cargo fmt --all --check

step "cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

step "cargo doc (deny rustdoc warnings)"
# Broken, ambiguous or private intra-doc links fail here, so removing
# or renaming an entry point cannot leave a dangling doc reference.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

step "cargo build --release"
cargo build --release --workspace

fpart_threads_list=${FPART_THREADS_LIST:-"1 4"}
step "cargo test (thread matrix: FPART_THREADS in: $fpart_threads_list)"
# Every parallel stage (restart fan-out, multilevel matching, net
# projection, boundary pair refinement) is bit-identical at every
# thread count, and the worker-count defaults honour FPART_THREADS.
# Running the identical suite at 1 and 4 workers therefore proves the
# determinism contract on every test, not just the dedicated
# invariance proptests — a scheduling-dependent result fails one leg.
for fpart_threads in $fpart_threads_list; do
    echo "--- FPART_THREADS=$fpart_threads"
    FPART_THREADS=$fpart_threads cargo test --workspace -q
done

step "benchmark harness tests (perfbench)"
# perfbench/harness is its own cargo workspace that links the library
# crates by path, so this is the step that compiles it against the
# current API (an API removal fails here, not in a benchmark run), then
# checks the input generator and the independent result checker.
python3 -m unittest discover -s perfbench -p 'test_*.py'

step "parser fuzz (20k seeded mutations x 7 targets)"
# Every parser (.fhg, hMETIS, BLIF, edit script, checkpoint, server
# protocol request lines) must return typed errors — never panic — on
# arbitrary input, and every edit script that *does* apply must leave
# the incremental fingerprint delta agreeing with a from-scratch
# rehash (checked here in release mode, where debug_asserts are off).
# The fuzzer is fully deterministic (workspace RNG, no external deps);
# a failure prints the exact replay command.
timeout 120 ./target/release/fuzz 20000 1

step "degradation smoke (50 ms deadline on a large netlist)"
# A wall-clock budget must yield a *successful* run that says it was cut
# short: exit 0, a verifiable assignment, and `deadline_expired` in the
# metrics JSON. The hard timeout guards against the deadline never being
# checked (the exact failure mode this gate exists to catch).
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
./target/release/fpart gen rent --nodes 20000 --terminals 600 --seed 42 \
    --output "$smoke_dir/large.fhg"
timeout 60 ./target/release/fpart partition "$smoke_dir/large.fhg" \
    --s-max 400 --t-max 120 --deadline-ms 50 \
    --output "$smoke_dir/assignment.txt" --metrics "$smoke_dir/metrics.json"
grep -q '"completion": "deadline_expired"' "$smoke_dir/metrics.json" \
    || { echo "metrics JSON does not report deadline_expired" >&2; exit 1; }
# The best-so-far assignment may be infeasible (that is the point of
# degradation) but must still be structurally verifiable output.
timeout 60 ./target/release/fpart verify "$smoke_dir/large.fhg" \
    "$smoke_dir/assignment.txt" --s-max 1000000000 --t-max 1000000000
# Malformed input exits 2 with a line-numbered message, no backtrace.
printf '3 4\n1 2\n' > "$smoke_dir/truncated.hgr"
set +e
err=$(./target/release/fpart stats "$smoke_dir/truncated.hgr" 2>&1)
code=$?
set -e
[ "$code" -eq 2 ] || { echo "malformed input should exit 2, got $code" >&2; exit 1; }
case "$err" in
    *"line "*) ;;
    *) echo "parse error lacks line context: $err" >&2; exit 1 ;;
esac
case "$err" in
    *RUST_BACKTRACE*) echo "parse error printed a backtrace: $err" >&2; exit 1 ;;
esac

step "peak-RSS gate (40k-cell n-level run on XC3064 at --threads 1 <= 100 MiB)"
# One partition state of this run (47,863 nets x ~200 devices, dense
# row stride 256) is ~47 MiB. One-worker boundary refinement refines
# the caller's state in place, so the whole run peaks near 73 MiB; a
# per-job or per-level copy of the state coming back pushes it past
# 100 MiB. Memory, unlike time, does not vary with machine load, so
# this gate catches such a copy where a timing gate could not.
./target/release/fpart gen rent --nodes 40000 --terminals 1200 --seed 42 \
    --output "$smoke_dir/rent40k.fhg"
timeout 120 python3 - ./target/release/fpart "$smoke_dir" <<'EOF'
import os, subprocess, sys
fpart, work = sys.argv[1], sys.argv[2]
proc = subprocess.Popen([fpart, "partition", f"{work}/rent40k.fhg", "--multilevel",
                         "--device", "XC3064", "--threads", "1",
                         "--output", f"{work}/rent40k.txt"], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
peak_mib = usage.ru_maxrss / 1024.0
assert proc.returncode == 0, f"fpart partition exited {proc.returncode}"
print(f"peak RSS {peak_mib:.1f} MiB (limit 100 MiB)")
assert peak_mib <= 100.0, f"peak RSS {peak_mib:.1f} MiB exceeds 100 MiB"
EOF

step "kill-resume durability gate (SIGKILL mid-run, resume, bit-identical)"
# The crash-safety contract end to end, against a real process: a
# checkpointed 6-restart multilevel run on the 20k-node circuit is
# SIGKILLed as soon as its first snapshot lands on disk; the snapshot
# must still parse (atomic temp-file + rename — a torn write would fail
# the resume), and resuming it must produce the *bit-identical*
# assignment, cut, and device count of an uninterrupted run.
timeout 120 ./target/release/fpart partition "$smoke_dir/large.fhg" \
    --s-max 400 --t-max 120 --multilevel --restarts 6 \
    --output "$smoke_dir/uninterrupted.txt" \
    --metrics "$smoke_dir/uninterrupted.json"
./target/release/fpart partition "$smoke_dir/large.fhg" \
    --s-max 400 --t-max 120 --multilevel --restarts 6 \
    --checkpoint "$smoke_dir/run.ckpt" --checkpoint-interval-ms 0 \
    --output "$smoke_dir/killed.txt" >/dev/null 2>&1 &
victim=$!
for _ in $(seq 1 1200); do
    [ -f "$smoke_dir/run.ckpt" ] && break
    sleep 0.05
done
[ -f "$smoke_dir/run.ckpt" ] \
    || { echo "no checkpoint appeared before the kill" >&2; exit 1; }
kill -9 "$victim" 2>/dev/null || true
set +e
wait "$victim" 2>/dev/null
set -e
timeout 120 ./target/release/fpart partition "$smoke_dir/large.fhg" \
    --s-max 400 --t-max 120 --multilevel --restarts 6 \
    --resume "$smoke_dir/run.ckpt" \
    --output "$smoke_dir/resumed.txt" --metrics "$smoke_dir/resumed.json"
cmp "$smoke_dir/uninterrupted.txt" "$smoke_dir/resumed.txt" \
    || { echo "resumed assignment differs from the uninterrupted run" >&2; exit 1; }
python3 - "$smoke_dir/uninterrupted.json" "$smoke_dir/resumed.json" <<'EOF'
import json, sys
ref = json.load(open(sys.argv[1]))
res = json.load(open(sys.argv[2]))
for key in ("cut", "device_count", "feasible"):
    assert ref["quality"][key] == res["quality"][key], \
        f"{key}: {ref['quality'][key]} != {res['quality'][key]}"
resumed = res["totals"]["counters"]["restarts_resumed"]
assert resumed >= 1, "the killed run must have banked at least one restart"
print(f"kill-resume gate: {resumed} restart(s) restored, result bit-identical")
EOF

step "quality-regression gate (pinned circuits vs goldens/quality_gate.json)"
# Three pinned, seeded circuits are partitioned with the flat driver and
# the n-level multilevel flow; the lexicographic quality key of every
# result must stay within scripts/check_quality.py's tolerance of the
# checked-in golden. The runs are deterministic, so a regression here is
# an algorithm change, not noise — intentional changes must refresh the
# golden in the same commit.
timeout 300 ./target/release/quality "$smoke_dir/quality.json"
python3 scripts/check_quality.py "$smoke_dir/quality.json" goldens/quality_gate.json

step "observability smoke (span profile + fpart report)"
# A profiled multilevel run must produce a loadable metrics document, a
# Chrome trace array, and an `fpart report` rendering whose phase tree
# names the multilevel phases — so the whole observability pipeline
# (instrument -> export -> render) is exercised end to end, not just in
# unit tests.
timeout 120 ./target/release/fpart partition "$smoke_dir/large.fhg" \
    --s-max 400 --t-max 120 --multilevel \
    --metrics "$smoke_dir/profile.json" \
    --trace-chrome "$smoke_dir/trace.chrome.json"
report=$(timeout 60 ./target/release/fpart report \
    --metrics "$smoke_dir/profile.json")
for needle in "phase tree" "self-time coverage" "coarsen_level" \
              "refine_level" "hot phases"; do
    case "$report" in
        *"$needle"*) ;;
        *) echo "fpart report output lacks '$needle'" >&2; exit 1 ;;
    esac
done
grep -q '"ph": "X"' "$smoke_dir/trace.chrome.json" \
    || { echo "chrome trace has no complete events" >&2; exit 1; }

step "partition server smoke (fpart serve over a Unix socket)"
# A scripted client drives one full protocol session against a real
# `fpart serve` process: load, a deterministic partition, an inline
# eco edit, a session query, a coalesced duplicate-request pair (the
# second byte-identical partition must be served from the leader's
# run and marked `"coalesced": true`), a cancelled long run, and a
# clean shutdown (exit 0). Every reply must be a typed JSON line; the
# normalized exchange must match the committed golden byte for byte,
# so a protocol drift is a reviewed diff, not a silent change.
timeout 120 python3 scripts/server_smoke.py ./target/release/fpart \
    --transcript "$smoke_dir/server.transcript"
diff goldens/server_smoke.transcript "$smoke_dir/server.transcript" \
    || { echo "server transcript drifted from the golden" >&2; exit 1; }

if [ "$skip_bench" -eq 0 ]; then
    step "smoke bench -> BENCH_pr10.json"
    timeout 900 ./target/release/smoke BENCH_pr10.json
    # The artifact must be valid JSON *and* match the documented schema
    # (required keys with the right types), its multilevel section must
    # hold the n-level performance claims (>= 2x over flat at equal or
    # better quality), its eco section must hold the incremental repair
    # claims (>= 2x over from-scratch at comparable quality), its
    # intra_run section must show a bit-identical thread sweep (plus a
    # >= 1.5x 4-worker speedup on 4+-core machines), its profile
    # section must attribute >= 95% of the multilevel run's wall time to
    # phase self-time with metering overhead <= 2%, its durability
    # section must show checkpointing costs <= 2% with a bit-identical
    # torn-checkpoint resume, its server section must show a warm
    # session request costing <= 0.5x a cold one-shot, and its memo
    # section must show warm-started restarts >= 10x faster than cold
    # with bit-identical results and a cold-path memo overhead <= 1%,
    # so a malformed or regressed bench fails CI rather than silently
    # shipping.
    python3 scripts/check_bench.py BENCH_pr10.json --schema-version 10

    step "bench trend gate (BENCH_pr10.json vs committed BENCH_pr9.json)"
    # The machine-normalized speedup ratios the two artifacts share
    # (multilevel, eco, intra-run scaling) may not regress by more than
    # 25% against the committed previous-PR baseline. Ratios — not raw
    # seconds — so the gate holds on runners of any speed.
    python3 scripts/check_bench.py --compare BENCH_pr9.json BENCH_pr10.json
fi

step "CI OK"
