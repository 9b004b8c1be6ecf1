#!/usr/bin/env python3
"""The fpart benchmark: seeded workloads timed end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload mcnc-flat --seed 1 --seconds 10 --trace 0

It builds the release `fpart` binary and the benchmark harness
(`perfbench/harness`, into `$CARGO_TARGET_DIR`, default `.bench_build`),
generates the workload's inputs from the seed under `.bench_work/`,
drives `fpart` (one-shot `partition` runs, or one `fpart serve` session
over stdio) with `--threads 1`, checks every returned partition with
`perfbench/check.py`, and prints one line per metric followed by a
final JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Times are the program's CPU time scaled to a reference pace: next to
every timed operation the harness's pace kernel runs once, and the
operation's CPU seconds are multiplied by `PACE_REF_S` over the
kernel's CPU seconds, so a core slowed by other tenants slows both and
the ratio stays put.

`--trace 0` reports the end-to-end metrics. `--trace 1` runs the same
workload untraced, then replays it in process through the harness with
every layer call timed, checks that the replay reproduces the untraced
results exactly, and reports the per-layer metrics. See
`perfbench/README.md` for the workloads, metrics and layers.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import check  # noqa: E402  (the benchmark's own independent checker)

WORKLOADS = ("mcnc-flat", "widek-40k", "serve-eco")
# Set-up is repeated this many times per run; its median is reported.
SETUP_REPS = 5
# Seconds of --seconds one round of each workload stands for: ten
# seeded samples of the Table 1 circuits on three devices (30 runs),
# one 40k-cell circuit, or one request cycle (25 ECOs, 5 partitions).
# A run holds --seconds worth of rounds, and at least 100 primary
# operations where op_p90_ms needs them (120 runs, 100 ECOs).
ROUND_SECONDS = {"mcnc-flat": 6.25, "widek-40k": 5.0, "serve-eco": 2.5}
MIN_ROUNDS = {"mcnc-flat": 4, "widek-40k": 1, "serve-eco": 4}
# CPU seconds of one pace-kernel run on a quiet core of a 2-core
# x86-64 VM (Xeon, 2.0 GHz); every timing is scaled to this pace.
PACE_REF_S = 0.024
# A one-shot run is paused this often (wall seconds) to re-measure the pace.
SLICE_S = 0.5


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def program_env():
    """The program runs with `--threads 1` and `FPART_THREADS` unset."""
    env = dict(os.environ)
    env.pop("FPART_THREADS", None)
    return env


def build(root, target):
    """Builds `fpart` and the harness; returns their paths."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "fpart-cli", "--bin", "fpart"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         "perfbench/harness/Cargo.toml"],
    ):
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    release = target / "release"
    return release / "fpart", release / "perfbench-harness"


def cpu_clock(pid):
    """The clock of a process's CPU time, all threads (clock_getcpuclockid)."""
    return (~pid << 3) | 2


class Pace:
    """The harness's pace kernel, kept in a coprocess, and the scale it gives."""

    def __init__(self, harness):
        self.proc = subprocess.Popen([str(harness), "pace"], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)
        self.clock = cpu_clock(self.proc.pid)
        self.last = self.tick()

    def tick(self):
        """Runs the kernel once; returns its CPU seconds."""
        started = time.clock_gettime(self.clock)
        self.proc.stdin.write(b"\n")
        self.proc.stdin.flush()
        if not self.proc.stdout.readline():
            fail("the pace kernel died")
        self.last = time.clock_gettime(self.clock) - started
        return self.last

    def scaled(self, cpu_s):
        """`cpu_s` CPU seconds spent since the last tick, at the reference pace."""
        before = self.last
        return cpu_s * 2 * PACE_REF_S / (before + self.tick())

    def close(self):
        self.proc.stdin.close()
        self.proc.stdout.read()
        self.proc.stdout.close()
        wait(self.proc)


def spawn(cmd, cwd, pace, stdout=subprocess.DEVNULL):
    """Runs `cmd` to exit, stopping it every SLICE_S to tick the pace.

    Returns (scaled CPU seconds, CPU seconds, peak RSS MiB, exit code).
    A stopped process spends no CPU time, so the pauses cost it nothing.
    """
    proc = subprocess.Popen(cmd, cwd=cwd, env=program_env(), stdout=stdout,
                            stderr=subprocess.DEVNULL)
    clock, pidfd = cpu_clock(proc.pid), os.pidfd_open(proc.pid)
    scaled = counted = 0.0
    try:
        while True:
            if not select.select([pidfd], [], [], SLICE_S)[0]:
                os.kill(proc.pid, signal.SIGSTOP)
            _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
            if not os.WIFSTOPPED(status):
                proc.returncode = os.waitstatus_to_exitcode(status)
                break
            cpu = time.clock_gettime(clock)
            scaled += pace.scaled(cpu - counted)
            counted = cpu
            os.kill(proc.pid, signal.SIGCONT)
    except BaseException:
        if proc.returncode is None:
            proc.kill()
            wait(proc)
        raise
    finally:
        os.close(pidfd)
    cpu = usage.ru_utime + usage.ru_stime
    scaled += pace.scaled(cpu - counted)
    return scaled, cpu, usage.ru_maxrss / 1024.0, proc.returncode


def wait(proc):
    """Reaps `proc`; returns (exit code, peak RSS MiB) from its rusage."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Tally:
    """Attempted and failed operations, with the reason of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, problems, what):
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")


def generate(harness, workload, seed, rounds, work, pace):
    """Seeded input generation, the set-up step every workload shares."""
    work.mkdir(parents=True, exist_ok=True)
    scaled, _, _, code = spawn([str(harness), "gen", "--workload", workload, "--seed", str(seed),
                                "--rounds", str(rounds), "--dir", str(work)], work, pace)
    if code != 0:
        fail(f"input generation failed for {workload}")
    return scaled


SUMMARY = re.compile(r"^(?:fpart|multilevel): (\d+) devices .*feasible: (\w+), cut nets: (\d+), "
                     r"completion: (\w+)", re.M)
BLOCK = re.compile(r"^\s*block\s+(\d+): S=\s*(\d+)/\d+\s+T=\s*(\d+)/\d+", re.M)


def compare_reported(found, devices, feasible, cut, sizes=None, terminals=None):
    """Problems where the program's own report disagrees with the check."""
    problems = list(found.get("problems", []))
    if problems:
        return problems
    if devices != found["devices"]:
        problems.append(f"reported {devices} devices, recomputed {found['devices']}")
    if feasible != found["feasible"]:
        problems.append(f"reported feasible={feasible}, recomputed {found['feasible']}")
    if cut != found["cut"]:
        problems.append(f"reported cut {cut}, recomputed {found['cut']}")
    if sizes is not None and (sizes, terminals) != (found["sizes"], found["terminals"]):
        problems.append("reported block sizes/terminals differ from the recomputation")
    return problems


def end_to_end(total_s, op_ms, peak, results):
    """The metrics every workload reports (README.md, "End-to-end metrics").

    `op_ms` holds the latencies of the workload's primary operation: a
    one-shot run, or a served `eco` request.
    """
    quality = [r for r in results if r and r["devices"] is not None]
    return {
        "total_s": (total_s, "s"),
        "op_p50_ms": (statistics.median(op_ms), "ms"),
        "op_p90_ms": (percentile(op_ms, 0.9), "ms"),
        "peak_rss_mb": (peak, "MiB"),
        "devices": (sum(r["devices"] for r in quality), "count"),
        "terminal_sum": (sum(r["terminal_sum"] for r in quality), "count"),
    }


def run_batch(fpart, work, manifest, tally, pace):
    """One pass of one-shot `fpart partition` runs over the inputs."""
    runs = manifest["runs"]
    times, cpu_s, peak, outputs = [], 0.0, 0.0, []
    for i, run in enumerate(runs):
        out = work / f"out-{i}.txt"
        cmd = [str(fpart), "partition", run["netlist"], "--device", run["device"],
               "--threads", "1", "--output", out.name]
        if run["multilevel"]:
            cmd.append("--multilevel")
        report = work / f"stdout-{i}.txt"
        with open(report, "wb") as sink:
            scaled, cpu, rss, code = spawn(cmd, work, pace, stdout=sink)
        times.append(scaled)
        cpu_s += cpu
        peak = max(peak, rss)
        outputs.append((code, report.read_text(), out.exists()))

    netlists, results = {}, []
    for i, (run, (code, stdout, written)) in enumerate(zip(runs, outputs)):
        what = f"run {i} ({run['netlist']} on {run['device']})"
        summary = SUMMARY.search(stdout)
        if code != 0 or not written or summary is None:
            tally.record([f"exit code {code}"], what)
            results.append(None)
            continue
        netlist = netlists.setdefault(run["netlist"], check.Netlist.read(work / run["netlist"]))
        assignment = check.read_assignment(work / f"out-{i}.txt", netlist)
        s_max, t_max = check.device_limits(run["device"])
        found = check.evaluate(netlist, assignment, s_max, t_max)
        blocks = sorted((int(b), int(s), int(t)) for b, s, t in BLOCK.findall(stdout))
        problems = compare_reported(
            found, int(summary.group(1)), summary.group(2) == "true", int(summary.group(3)),
            [s for _, s, _ in blocks], [t for _, _, t in blocks])
        if summary.group(4) != "complete":
            problems.append(f"completion {summary.group(4)}")
        tally.record(problems, what)
        results.append({"id": f"run-{i}", "hash": check.assignment_hash(assignment),
                        "devices": found.get("devices"),
                        "terminal_sum": found.get("terminal_sum")})
    run_ms = [t * 1e3 for t in times]
    return {
        "end_to_end": end_to_end(sum(times), run_ms, peak, results),
        "details": {"batch_s": (sum(times), "s")},
        "samples": {"runs": len(times)},
        "untraced_s": cpu_s,
        "results": results,
    }


class Session:
    """One `fpart serve` process driven by a closed-loop client."""

    def __init__(self, fpart, work, pace):
        self.proc = subprocess.Popen([str(fpart), "serve", "--threads", "1"], cwd=work,
                                     env=program_env(), stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        self.clock, self.pace = cpu_clock(self.proc.pid), pace
        hello = self.proc.stdout.readline()
        if b'"hello"' not in hello:
            self.proc.kill()
            wait(self.proc)
            fail("fpart serve sent no hello banner")
        self.cpu_s = time.clock_gettime(self.clock)
        self.start_s = pace.scaled(self.cpu_s)

    def request(self, line):
        """Sends one request; returns (scaled CPU seconds to its final reply, reply)."""
        started = time.clock_gettime(self.clock)
        self.proc.stdin.write(line.encode() + b"\n")
        self.proc.stdin.flush()
        while True:
            reply = self.proc.stdout.readline()
            if not reply or b'"ok":' in reply[:160]:
                cpu = time.clock_gettime(self.clock) - started
                self.cpu_s += cpu
                return self.pace.scaled(cpu), reply

    def close(self):
        """Shuts the server down; returns its peak RSS in MiB."""
        self.request('{"id": "bye", "cmd": "shutdown"}')
        self.proc.stdin.close()
        self.proc.stdout.read()
        self.proc.stdout.close()
        return wait(self.proc)[1]


def run_serve(fpart, harness, work, manifest, seed, rounds, tally, pace):
    """One `fpart serve` session fed the workload's request stream."""
    lines = (work / manifest["requests"]).read_text().splitlines()
    setup, peak, session = [], 0.0, None
    try:
        for rep in range(SETUP_REPS):
            generated = generate(harness, "serve-eco", seed, rounds, work, pace)
            session = Session(fpart, work, pace)
            replies = [session.request(line) for line in lines[:2]]
            setup.append(generated + session.start_s + sum(s for s, _ in replies))
            if rep + 1 < SETUP_REPS:
                peak = max(peak, session.close())
        before = session.cpu_s
        timed = replies + [session.request(line) for line in lines[2:]]
        untraced_s = session.cpu_s - before
        peak = max(peak, session.close())
    except BaseException:
        # A dead or wedged server must not outlive the benchmark.
        if session is not None and session.proc.returncode is None:
            session.proc.kill()
            wait(session.proc)
        raise

    netlist = check.Netlist.read(work / manifest["netlist"])
    s_max, t_max = manifest["s_max"], manifest["t_max"]
    latency = {"eco": [], "partition": [], "repeat": []}
    results = []
    for line, (seconds, reply) in zip(lines, timed):
        request = json.loads(line)
        rid, kind = request["id"], request["id"].split("-")[0]
        if request["cmd"] == "eco":
            for op in request["edits"].splitlines():
                netlist.apply(json.loads(op))
        try:
            doc = json.loads(reply)
        except ValueError:
            doc = {}
        if not doc.get("ok"):
            tally.record([f"error reply {reply[:200]!r}"], rid)
            continue
        if kind in ("eco", "cold", "reseed", "repeat"):
            key = {"cold": "partition", "reseed": "partition"}.get(kind, kind)
            latency[key].append(seconds * 1e3)
        if request["cmd"] == "load":
            tally.record([], rid)
            continue
        result = doc["result"]
        found = check.evaluate(netlist, result["assignment"], s_max, t_max)
        problems = compare_reported(found, result["devices"], result["feasible"], result["cut"])
        if result["completion"] != "complete":
            problems.append(f"completion {result['completion']}")
        tally.record(problems, rid)
        results.append({"id": rid, "hash": check.assignment_hash(result["assignment"]),
                        "devices": found.get("devices"),
                        "terminal_sum": found.get("terminal_sum")})
    eco = latency["eco"]
    stream_s = sum(seconds for seconds, _ in timed[2:])
    return {
        "setup": setup,
        "end_to_end": end_to_end(stream_s, eco, peak, results),
        "details": {
            "eco_p50_ms": (statistics.median(eco), "ms"),
            "eco_p90_ms": (percentile(eco, 0.9), "ms"),
            "partition_p50_ms": (statistics.median(latency["partition"]), "ms"),
            "repeat_p50_ms": (statistics.median(latency["repeat"]), "ms"),
        },
        "samples": {key: len(values) for key, values in latency.items()},
        "untraced_s": untraced_s,
        "results": results,
    }


def replay(harness, workload, work, untraced, tally):
    """The traced in-process replay; returns its per-layer metrics."""
    done = subprocess.run([str(harness), "replay", "--workload", workload, "--dir", str(work)],
                          stdout=subprocess.PIPE, env=program_env(), check=False)
    if done.returncode != 0:
        tally.record(["the traced replay failed"], "replay")
        return {}, {}
    doc = json.loads(done.stdout)
    traced = {r["id"]: r for r in doc["results"]}
    mismatched = 0
    for result in untraced["results"]:
        if result is None:
            continue
        mine = traced.get(result["id"])
        if mine is None or any(mine[k] != result[k] for k in ("hash", "devices", "terminal_sum")):
            mismatched += 1
    tally.record([f"{mismatched} replayed results differ from the untraced run"]
                 if mismatched or len(traced) != len(untraced["results"]) else [], "replay")
    metrics = {name: (m["value"], m["unit"]) for name, m in doc["metrics"].items()}
    served = doc["served_s"]
    metrics["trace.overhead_pct"] = (100.0 * (served - untraced["untraced_s"])
                                     / untraced["untraced_s"], "%")
    sources = {name: "program-side" for name in doc["program_side"]}
    sources.update({name: "probe" for name in doc["probe"]})
    return metrics, sources


def source_digest(root):
    """SHA-256 over the program's sources and the benchmark's files."""
    digest = hashlib.sha256()
    files = [root / "Cargo.toml", root / "Cargo.lock"]
    for top in ("crates", "perfbench"):
        files += sorted(p for p in (root / top).rglob("*")
                        if p.is_file() and not {"__pycache__", "target"} & set(p.parts))
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(root):
    """Where and from what the result was measured."""
    commit = None
    if (root / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True, check=False)
    return {
        "commit": commit,
        "source_sha256": source_digest(root),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "rustc": rustc.stdout.strip(),
        "program_threads": 1,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result document here")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "Cargo.toml").is_file() or not (root / "crates").is_dir():
        fail("run from the repository root (no Cargo.toml and crates/ here)", 2)
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    fpart, harness = build(root, root / target if not target.is_absolute() else target)

    work = root / ".bench_work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    rounds = max(MIN_ROUNDS[args.workload], round(args.seconds / ROUND_SECONDS[args.workload]))
    tally = Tally()
    pace = Pace(harness)
    try:
        if args.workload == "serve-eco":
            generate(harness, args.workload, args.seed, rounds, work, pace)
            manifest = json.loads((work / "manifest.json").read_text())
            run = run_serve(fpart, harness, work, manifest, args.seed, rounds, tally, pace)
        else:
            setup = [generate(harness, args.workload, args.seed, rounds, work, pace)
                     for _ in range(SETUP_REPS)]
            manifest = json.loads((work / "manifest.json").read_text())
            run = run_batch(fpart, work, manifest, tally, pace)
            run["setup"] = setup
    finally:
        pace.close()
    run["end_to_end"]["setup_s"] = (statistics.median(run["setup"]), "s")

    metrics, sources = dict(run["end_to_end"]), {}
    if args.trace:
        metrics, sources = replay(harness, args.workload, work, run, tally)
    shutil.rmtree(work, ignore_errors=True)

    failed = len(tally.failures)
    attempted = max(tally.attempted, 1)
    prov = provenance(root)
    for reason in tally.failures:
        print(f"FAILED {reason}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {tally.attempted} operations, "
          f"{failed} failed, failed_frac {failed / attempted:.4f}; samples {run['samples']}")
    for name, (value, unit) in metrics.items():
        source = f" ({sources[name]})" if name in sources else ""
        print(f"metric {name} = {value:.6g} {unit}{source}")
    for name, (value, unit) in run["details"].items():
        print(f"detail {name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    if args.out:
        Path(args.out).write_text(json.dumps(
            dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                 provenance=prov, failures=tally.failures), indent=1) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
