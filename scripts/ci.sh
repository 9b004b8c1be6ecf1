#!/usr/bin/env bash
# Local CI gate: formatting, lints, rustdoc links, release build, tests,
# benchmark harness tests, served-session peak-RSS gate, parser fuzz,
# degradation smoke, peak-RSS and search-work gate, large run,
# kill-resume durability gate, quality-regression gate, paper tables,
# observability smoke, partition-server smoke. No step compares
# wall times: every gate checks a deterministic result, a count, or
# peak memory. Speed is measured by the perfbench A/B
# (perfbench/README.md), not gated here.
#
# Usage: scripts/ci.sh
#
# The workspace is fully offline (no crates.io dependencies), so this
# runs anywhere the Rust toolchain is installed.
#
# FPART_THREADS_LIST overrides the worker counts the test suite runs
# under (default "1 4"); the hosted matrix sets it to a single value
# per leg so each thread count gets its own runner.

set -euo pipefail
cd "$(dirname "$0")/.."

[ "$#" -eq 0 ] || { echo "usage: scripts/ci.sh (no arguments)" >&2; exit 2; }

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

step "served-session peak-RSS gate (serve-eco session at --threads 1 <= 64 MiB)"
# One `fpart serve` session replays the benchmark's seeded serve-eco
# request stream (8 rounds: 200 ECOs plus cold, reseeded and repeated
# partitions on a 20k-cell circuit, 242 requests) in a closed loop: one
# request, then its final reply. Every reply must be ok. Each ECO
# replaces 10 cells one for one, so every `eco` reply must report
# 20,000 nodes, 10 added and 10 removed: a served apply that drops or
# duplicates a cell fails here even when its reply is ok. A closing
# `query` must count the 241 runs (none cancelled), and its `runs`,
# `passes` and `moves_applied` must equal the sums of the same fields
# over the 241 run replies. A session holds the graph, the partition
# state of each run and the solution memo; the whole process peaks
# near 15 MiB. A cache that keeps one artifact per graph state the
# session has seen (a coarsening hierarchy is ~6.5 MiB here) pushes it
# past 64 MiB.
bench_target=${CARGO_TARGET_DIR:-.bench_build}
CARGO_TARGET_DIR="$bench_target" cargo build --release --offline \
    --manifest-path perfbench/harness/Cargo.toml
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
"$bench_target/release/perfbench-harness" gen --workload serve-eco --seed 1 --rounds 8 \
    --dir "$smoke_dir/serve-eco"
timeout 600 python3 - ./target/release/fpart "$smoke_dir/serve-eco" <<'EOF'
import json, os, subprocess, sys
fpart, work = os.path.abspath(sys.argv[1]), sys.argv[2]
# The load request names the netlist relative to the input directory.
proc = subprocess.Popen([fpart, "serve", "--threads", "1"], cwd=work,
                        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
assert '"hello"' in proc.stdout.readline(), "fpart serve sent no hello banner"
requests = open(os.path.join(work, "requests.jsonl")).read().splitlines()
ecos = 0
served = {"runs": 0, "passes": 0, "moves_applied": 0}
closing = ['{"id": "q", "cmd": "query", "session": "eco"}', '{"id": "bye", "cmd": "shutdown"}']
for line in requests + closing:
    request = json.loads(line)
    rid = request["id"]
    proc.stdin.write(line + "\n")
    proc.stdin.flush()
    while True:
        text = proc.stdout.readline()
        assert text, f"fpart serve closed its output before replying to {rid}"
        reply = json.loads(text)
        if reply.get("id") == rid and "ok" in reply:
            break
    assert reply["ok"] is True, f"{rid}: {text.strip()}"
    if request["cmd"] in ("partition", "eco"):
        for key in served:
            served[key] += reply["result"]["counters"][key]
    if request["cmd"] == "query":
        session = reply["result"]
    if request["cmd"] == "eco":
        ecos += 1
        result = reply["result"]
        counts = (result["nodes"], result["added_nodes"], result["removed_nodes"])
        assert counts == (20000, 10, 10), \
            f"{rid}: (nodes, added, removed) {counts}, expected (20000, 10, 10)"
proc.stdin.close()
proc.stdout.read()
_, status, usage = os.wait4(proc.pid, 0)
assert os.waitstatus_to_exitcode(status) == 0, "fpart serve exited nonzero"
peak_mib = usage.ru_maxrss / 1024.0
assert ecos == 200, f"{ecos} eco requests, expected 200"
counters = session["counters"]
counts = (session["requests"], counters["server_requests"], counters["server_cancelled"])
assert counts == (241, 241, 0), \
    f"query (requests, server_requests, server_cancelled) {counts}, expected (241, 241, 0)"
for key, total in served.items():
    assert counters[key] == total, f"query {key} {counters[key]}, the run replies sum to {total}"
print(f"{len(requests)} requests, all ok, {ecos} ECOs kept 20,000 cells; "
      f"peak RSS {peak_mib:.1f} MiB (limit 64 MiB)")
assert peak_mib <= 64.0, f"peak RSS {peak_mib:.1f} MiB exceeds 64 MiB"
EOF

step "parser fuzz (20k seeded mutations x 7 targets)"
# Every parser (.fhg, hMETIS, BLIF, edit script, checkpoint, server
# protocol request lines) must return typed errors — never panic — on
# arbitrary input, and so must `apply_script` on every mutated edit
# script that still parses.
# The fuzzer is fully deterministic (workspace RNG, no external deps);
# a failure prints the exact replay command.
timeout 120 ./target/release/fuzz 20000 1

step "degradation smoke (50 ms deadline on a large netlist)"
# A wall-clock budget must yield a *successful* run that says it was cut
# short: exit 0, a verifiable assignment, and `deadline_expired` in the
# metrics JSON. The hard timeout guards against the deadline never being
# checked (the exact failure mode this gate exists to catch).
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

step "peak-RSS and search-work gate (40k-cell n-level run on XC3064 at --threads 1: <= 40 MiB, same search as goldens/rent40k_search_work.json)"
# A partition state of this run (47,863 nets, 103,038 pins, ~200
# devices) keeps its pin counts compact, per net and touched block, in
# ~1.3 MiB; the dense nets x 256 matrix it replaced was ~47 MiB. One-
# worker boundary refinement refines the caller's state in place, so
# the whole run peaks near 18 MiB. The dense matrix coming back, or a
# few per-job or per-level copies of a state, push it past 40 MiB.
# Memory, unlike time, does not vary with machine load, so this gate
# catches such a change where a timing gate could not.
# The same run pins its search: the seven search-work counters of its
# metrics (passes, moves applied and reverted, gain-bucket pops, stack
# restarts, key evaluations, materialized snapshots) and the SHA-256 of
# its assignment must equal the golden. That is the k ~ 200 regime
# (201 devices) no tier-1 test reaches, so a change that claims the
# same search with less work is held to it there too. An intentional
# search change re-pins the golden in the same commit.
./target/release/fpart gen rent --nodes 40000 --terminals 1200 --seed 42 \
    --output "$smoke_dir/rent40k.fhg"
timeout 120 python3 - ./target/release/fpart "$smoke_dir" goldens/rent40k_search_work.json <<'EOF'
import hashlib, json, os, subprocess, sys
fpart, work, golden = sys.argv[1], sys.argv[2], json.load(open(sys.argv[3]))
proc = subprocess.Popen([fpart, "partition", f"{work}/rent40k.fhg", "--multilevel",
                         "--device", "XC3064", "--threads", "1",
                         "--output", f"{work}/rent40k.txt",
                         "--metrics", f"{work}/rent40k.json"], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
peak_mib = usage.ru_maxrss / 1024.0
assert proc.returncode == 0, f"fpart partition exited {proc.returncode}"
print(f"peak RSS {peak_mib:.1f} MiB (limit 40 MiB)")
assert peak_mib <= 40.0, f"peak RSS {peak_mib:.1f} MiB exceeds 40 MiB"
metrics = json.load(open(f"{work}/rent40k.json"))
counters = {k: metrics["totals"]["counters"][k] for k in golden["counters"]}
assert counters == golden["counters"], \
    f"search work moved: {counters}, golden {golden['counters']}"
quality = (metrics["quality"]["device_count"], metrics["quality"]["cut"])
assert quality == (golden["device_count"], golden["cut"]), \
    f"(devices, cut) {quality}, golden {(golden['device_count'], golden['cut'])}"
digest = hashlib.sha256(open(f"{work}/rent40k.txt", "rb").read()).hexdigest()
assert digest == golden["assignment_sha256"], f"assignment digest {digest} moved"
print(f"search work and assignment match the golden ({counters['moves_applied']} moves)")
EOF

step "large run (200k-cell n-level run at --threads 1: verified, peak RSS <= 300 bytes per pin)"
# End-to-end scale without a wall-clock gate: the full V-cycle on the
# 200k-cell Rent circuit must finish and its assignment must verify.
# Its peak RSS must stay within 300 bytes per pin of the circuit (about
# 143 MiB for its 499,775 pins). With O(pins) partition states the run
# peaks near 65 MiB; the dense nets x next_pow2(k) matrix (231,796 nets
# x 512 at ~500 devices) took it to 515 MiB. The run takes ~20 s on one
# core of a 2-core x86-64 VM; the timeout only catches a hang.
./target/release/fpart gen rent --nodes 200000 --terminals 3000 --seed 42 \
    --output "$smoke_dir/rent200k.fhg"
timeout 600 python3 - ./target/release/fpart "$smoke_dir" <<'EOF'
import os, re, subprocess, sys
fpart, work = sys.argv[1], sys.argv[2]
stats = subprocess.run([fpart, "stats", f"{work}/rent200k.fhg"],
                       capture_output=True, text=True, check=True)
pins = int(re.search(r"\(pins (\d+)\)", stats.stdout).group(1))
proc = subprocess.Popen([fpart, "partition", f"{work}/rent200k.fhg", "--multilevel",
                         "--s-max", "400", "--t-max", "120", "--threads", "1",
                         "--output", f"{work}/rent200k.txt"], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
code = os.waitstatus_to_exitcode(status)
assert code == 0, f"fpart partition exited {code}"
peak, limit = usage.ru_maxrss * 1024, 300 * pins
print(f"peak RSS {peak / 2**20:.1f} MiB, {peak / pins:.0f} bytes per pin "
      f"(limit 300 bytes per pin: {limit / 2**20:.1f} MiB for {pins} pins)")
assert peak <= limit, f"peak RSS {peak / 2**20:.1f} MiB exceeds 300 bytes per pin"
EOF
timeout 120 ./target/release/fpart verify "$smoke_dir/rent200k.fhg" \
    "$smoke_dir/rent200k.txt" --s-max 400 --t-max 120

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
# The same check holds the work the n-level and ECO runs save, in
# gain-bucket pops: n-level at most half of flat, ECO repair at most
# half of n-level, on the Rent circuit.
timeout 300 ./target/release/quality "$smoke_dir/quality.json"
python3 scripts/check_quality.py "$smoke_dir/quality.json" goldens/quality_gate.json

step "paper tables (Tables 2-5 vs goldens/paper_tables.csv and EXPERIMENTS.md)"
# Every circuit x device x method row of the paper's Tables 2-5 is
# seeded and deterministic at any thread count: devices, feasibility and
# cut must match the committed golden exactly (the wall-time column is
# dropped before the diff). A table change is an algorithm change and
# updates the golden and EXPERIMENTS.md in the same commit.
timeout 300 ./target/release/all_tables "$smoke_dir/tables.csv" \
    >/dev/null 2>"$smoke_dir/tables.log" \
    || { cat "$smoke_dir/tables.log" >&2; exit 1; }
cut -d, -f1-7,9- "$smoke_dir/tables.csv" | diff goldens/paper_tables.csv - \
    || { echo "paper tables drifted from goldens/paper_tables.csv" >&2; exit 1; }
# EXPERIMENTS.md's Tables 2-5 must say what the golden says: every row's
# published value, M and measured columns, the Total row's sums, bold on
# a measured FPART at or below the published value (and on the Total
# row's first four cells), and `!` on an infeasible result.
python3 - goldens/paper_tables.csv EXPERIMENTS.md <<'EOF'
import csv, re, sys
golden = {}
for r in csv.DictReader(open(sys.argv[1])):
    golden.setdefault(r["table"], {}).setdefault(r["circuit"], {})[r["method"]] = r
sections = re.split(r"^## ", open(sys.argv[2]).read(), flags=re.M)
errors = []
for table, circuits in golden.items():
    title = f"Table {table.removeprefix('table')} "
    section = next((s for s in sections if s.startswith(title)), "")
    rows = [[c.strip() for c in line.strip().strip("|").split("|")]
            for line in section.splitlines() if line.startswith("|")]
    methods = [h.removeprefix("measured ") for h in rows[0][3:]] if rows else []
    if (not rows or rows[0][:4] != ["circuit", "published FPART", "M", "measured FPART"]
            or not set(methods) <= set(next(iter(circuits.values())))):
        errors.append(f"EXPERIMENTS.md has no '## {title}' table with known columns")
        continue
    expected, total = [], [0] * (2 + len(methods))
    for circuit, by_method in circuits.items():
        fpart = by_method["FPART"]
        row = [circuit, fpart["published_fpart"], fpart["lower_bound"]]
        counts = [int(fpart["published_fpart"]), int(fpart["lower_bound"])]
        for method in methods:
            r = by_method[method]
            text = r["devices"] + ("" if r["feasible"] == "true" else "!")
            bold = method == "FPART" and int(r["devices"]) <= counts[0]
            row.append(f"**{text}**" if bold else text)
            counts.append(int(r["devices"]))
        expected.append(row)
        total = [t + c for t, c in zip(total, counts)]
    # The Total row bolds its label, published, M and FPART cells.
    expected.append(["**Total**"] + [f"**{v}**" if j < 3 else str(v) for j, v in enumerate(total)])
    for want, got in zip(expected, rows[2:] + [[]] * len(expected)):
        if want != got:
            errors.append(f"{title}row {want[0]}: EXPERIMENTS.md has {got}, the golden gives {want}")
    errors += [f"{title}extra row {got}" for got in rows[2 + len(expected):]]
if errors:
    sys.exit("EXPERIMENTS.md disagrees with goldens/paper_tables.csv:\n" + "\n".join(errors))
print(f"EXPERIMENTS.md Tables 2-5 agree with goldens/paper_tables.csv ({len(golden)} tables)")
EOF

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
# eco edit, a session query, a pipelined duplicate-request pair (the
# second byte-identical partition queues behind the first and replays
# its restarts from the solution memo: the same result, no pass and
# no move), a cancelled long run, and a clean shutdown (exit 0). Every reply must be a typed JSON line; the
# normalized exchange must match the committed golden byte for byte,
# so a protocol drift is a reviewed diff, not a silent change.
timeout 120 python3 scripts/server_smoke.py ./target/release/fpart \
    --transcript "$smoke_dir/server.transcript"
diff goldens/server_smoke.transcript "$smoke_dir/server.transcript" \
    || { echo "server transcript drifted from the golden" >&2; exit 1; }

step "CI OK"
