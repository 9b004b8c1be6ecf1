#!/usr/bin/env python3
"""End-to-end smoke gate for `fpart serve` over a Unix socket.

Usage: server_smoke.py <fpart-binary> [--transcript FILE]

Drives one full protocol session against a real server process:

1. generate a seeded 2000-node Rent netlist with `fpart gen`,
2. start `fpart serve --listen <socket>` and wait for readiness,
3. `load` the netlist into a session and assert the typed result,
4. run a deterministic `partition` (seed 1) and assert it completes,
5. apply an inline `eco` edit script and assert the repair result,
6. `query` the session and assert its request/assignment bookkeeping,
7. submit two byte-identical `partition` requests back-to-back and
   assert the duplicate queues behind its twin and replays the twin's
   memoized restarts (the identical result with no pass and no move),
   then `query` again and assert the session counted both runs and a
   stable 128-bit graph fingerprint,
8. submit a long `partition` and `cancel` it mid-flight, asserting the
   cancel is acknowledged and the run's final reply is a verifiable
   cancelled/degraded outcome,
9. `shutdown`, assert the goodbye reply, and require a clean exit 0.

Every reply must be a well-formed JSON line naming the request id —
any parse failure, missing reply, or unexpected error code fails the
gate. The normalized exchange (volatile fields like `elapsed_ms`,
host paths, and the racy cancel outcome replaced with stable
placeholders; the racily-ordered cancel/final pair emitted in a fixed
order) is written to `--transcript` so CI can diff it against the
committed golden in `goldens/server_smoke.transcript`.
"""

import argparse
import json
import os
import socket
import subprocess
import sys
import tempfile
import time

SMOKE_NODES = 2000
SMOKE_TERMINALS = 120
LONG_RESTARTS = 32


def fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def expect(cond, msg):
    if not cond:
        fail(msg)


class Client:
    """A paced JSON-Lines client: one request, then read until its
    final reply (interim events are collected, not skipped)."""

    def __init__(self, sock):
        self.reader = sock.makefile("r", encoding="utf-8", newline="\n")
        self.writer = sock.makefile("w", encoding="utf-8", newline="\n")

    def read_line(self):
        line = self.reader.readline()
        expect(line, "server closed the connection mid-session")
        try:
            return json.loads(line)
        except json.JSONDecodeError as err:
            fail(f"reply is not valid JSON ({err}): {line!r}")

    def send(self, doc):
        self.writer.write(json.dumps(doc) + "\n")
        self.writer.flush()

    def request(self, doc):
        """Sends one request and reads to its final reply; returns
        (final, interim_events)."""
        self.send(doc)
        events = []
        while True:
            reply = self.read_line()
            expect(reply.get("id") == doc["id"],
                   f"reply for {doc['id']!r} names id {reply.get('id')!r}: "
                   f"{reply}")
            if "ok" in reply:
                return reply, events
            expect("event" in reply,
                   f"interim reply carries neither ok nor event: {reply}")
            events.append(reply)


def normalize(doc, netlist_path):
    """Replaces volatile reply fields with stable placeholders."""
    if isinstance(doc, dict):
        out = {}
        for key, value in doc.items():
            if key == "elapsed_ms":
                out[key] = 0
            elif key == "path" and isinstance(value, str):
                out[key] = os.path.basename(value)
            else:
                out[key] = normalize(value, netlist_path)
        return out
    if isinstance(doc, list):
        return [normalize(v, netlist_path) for v in doc]
    return doc


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("binary", help="path to the fpart binary")
    parser.add_argument("--transcript", help="write the normalized exchange here")
    args = parser.parse_args()

    tmp = tempfile.mkdtemp(prefix="fpart-server-smoke-")
    netlist = os.path.join(tmp, "smoke.fhg")
    sock_path = os.path.join(tmp, "serve.sock")

    gen = subprocess.run(
        [args.binary, "gen", "rent", "--nodes", str(SMOKE_NODES),
         "--terminals", str(SMOKE_TERMINALS), "--seed", "5",
         "--output", netlist],
        capture_output=True, text=True)
    expect(gen.returncode == 0, f"fpart gen failed: {gen.stderr}")

    server = subprocess.Popen(
        [args.binary, "serve", "--listen", sock_path, "--threads", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        ready = server.stdout.readline()
        expect(ready.startswith("listening "),
               f"server did not announce readiness: {ready!r}")
        deadline = time.monotonic() + 10.0
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        while True:
            try:
                sock.connect(sock_path)
                break
            except (FileNotFoundError, ConnectionRefusedError):
                expect(time.monotonic() < deadline,
                       "socket never became connectable")
                time.sleep(0.02)
        client = Client(sock)
        transcript = []

        hello = client.read_line()
        expect(hello.get("event") == "hello" and "schema_version" in hello,
               f"first line must be the hello banner: {hello}")
        transcript.append(hello)

        load, _ = client.request({
            "id": "load", "cmd": "load", "session": "s", "path": netlist,
            "s_max": 40, "t_max": 24})
        expect(load.get("ok") is True, f"load failed: {load}")
        expect(load["result"]["nodes"] == SMOKE_NODES,
               f"load saw {load['result']['nodes']} nodes: {load}")
        transcript.append(load)

        run, _ = client.request({
            "id": "run", "cmd": "partition", "session": "s", "seed": 1})
        expect(run.get("ok") is True, f"partition failed: {run}")
        expect(run["result"]["completion"] == "complete",
               f"unbudgeted partition must complete: {run}")
        expect(run["result"]["devices"] >= 1, f"no devices: {run}")
        transcript.append(run)

        edits = ('{"op": "add_node", "name": "eco0", "size": 1}\n'
                 '{"op": "add_net", "name": "eco_net", "pins": ["eco0", "x0"]}')
        eco, _ = client.request({
            "id": "eco", "cmd": "eco", "session": "s", "edits": edits})
        expect(eco.get("ok") is True, f"eco failed: {eco}")
        expect(eco["result"]["nodes"] == SMOKE_NODES + 1,
               f"eco must grow the session netlist by one node: {eco}")
        transcript.append(eco)

        query, _ = client.request({"id": "query", "cmd": "query", "session": "s"})
        expect(query.get("ok") is True, f"query failed: {query}")
        expect(query["result"]["requests"] == 2,
               f"session must have served 2 runs: {query}")
        expect(query["result"]["has_assignment"] is True,
               f"session must hold the eco assignment: {query}")
        transcript.append(query)

        # Two byte-identical submits: the duplicate queues behind its
        # twin (a `queued` event), then replays the twin's restarts from
        # the solution memo: the identical result without a pass or a
        # move. The twin's search takes orders of magnitude longer than
        # reading the already-buffered duplicate line, so the duplicate
        # is always parked behind it.
        dup = {"cmd": "partition", "session": "s", "seed": 3, "restarts": 2}
        client.send({"id": "d1", **dup})
        client.send({"id": "d2", **dup})
        dpair = {}
        while len(dpair) < 2:
            reply = client.read_line()
            if reply.get("id") == "d2" and reply.get("event") == "queued":
                continue
            expect("ok" in reply and reply.get("id") in ("d1", "d2"),
                   f"unexpected reply during the duplicate exchange: {reply}")
            expect(reply["id"] not in dpair,
                   f"duplicate final reply for {reply['id']!r}")
            dpair[reply["id"]] = reply
        d1, d2 = dpair["d1"], dpair["d2"]
        expect(d1.get("ok") is True, f"first run failed: {d1}")
        expect(d2.get("ok") is True, f"duplicate run failed: {d2}")
        expect(d1["result"]["counters"]["passes"] > 0,
               f"the first run must search: {d1}")
        for key in ("cut", "devices", "total_moves", "completion"):
            expect(d1["result"].get(key) == d2["result"].get(key),
                   f"the memo replay's {key} differs: {d1} vs {d2}")
        for key in ("passes", "moves_applied"):
            expect(d2["result"]["counters"][key] == 0,
                   f"the duplicate must replay the memo, not search: {d2}")
        transcript.append(d1)
        transcript.append(d2)

        query2, _ = client.request({"id": "query2", "cmd": "query",
                                    "session": "s"})
        expect(query2.get("ok") is True, f"query2 failed: {query2}")
        expect(query2["result"]["requests"] == 4,
               f"both duplicates must count as served runs: {query2}")
        fingerprint = query2["result"].get("fingerprint", "")
        expect(len(fingerprint) == 32
               and all(c in "0123456789abcdef" for c in fingerprint),
               f"query must render the 128-bit graph fingerprint: {query2}")
        transcript.append(query2)

        # Submit a long run and cancel it mid-flight. The final reply
        # for "big" and the inline reply for "kill" race on the wire,
        # so read both, then record them in a fixed order. Whether the
        # cancel landed before the run finished is timing-dependent;
        # both sides of the race are normalized, but they must agree.
        client.send({"id": "big", "cmd": "partition", "session": "s",
                     "restarts": LONG_RESTARTS, "seed": 2})
        client.send({"id": "kill", "cmd": "cancel", "target": "big"})
        pair = {}
        while len(pair) < 2:
            reply = client.read_line()
            expect("ok" in reply and reply.get("id") in ("big", "kill"),
                   f"unexpected reply during the cancel exchange: {reply}")
            expect(reply["id"] not in pair,
                   f"duplicate final reply for {reply['id']!r}")
            pair[reply["id"]] = reply
        kill, big = pair["kill"], pair["big"]
        expect(kill.get("ok") is True, f"cancel failed: {kill}")
        expect(kill["result"]["target"] == "big", f"wrong cancel target: {kill}")
        expect(big.get("ok") is True,
               f"a cancelled run still returns its best result: {big}")
        completion = big["result"]["completion"]
        if kill["result"]["cancelled"]:
            expect(completion in ("cancelled", "degraded"),
                   f"cancelled run must report cancelled/degraded: {big}")
        else:
            expect(completion == "complete",
                   f"a run that beat the cancel must be complete: {big}")
        expect(len(big["result"].get("assignment", [])) == 0
               or len(big["result"]["assignment"]) == SMOKE_NODES + 1,
               f"assignment length mismatch: {big}")
        kill["result"]["cancelled"] = "RACY"
        big["result"] = {"completion": "CANCELLED_OR_DEGRADED"}
        transcript.append(kill)
        transcript.append(big)

        bye, _ = client.request({"id": "bye", "cmd": "shutdown"})
        expect(bye.get("ok") is True, f"shutdown failed: {bye}")
        expect(bye["result"].get("shutdown") is True, f"no goodbye: {bye}")
        transcript.append(bye)

        tail = client.reader.readline()
        expect(tail == "", f"server wrote past the shutdown reply: {tail!r}")
        sock.close()

        code = server.wait(timeout=10)
        expect(code == 0,
               f"server exited {code}: {server.stderr.read()}")
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()

    lines = [json.dumps(normalize(doc, netlist), sort_keys=True)
             for doc in transcript]
    text = "\n".join(lines) + "\n"
    if args.transcript:
        with open(args.transcript, "w") as f:
            f.write(text)
        print(f"server smoke: OK, transcript -> {args.transcript}")
    else:
        sys.stdout.write(text)
        print("server smoke: OK")


if __name__ == "__main__":
    main()
