"""The benchmark's own tests: seeded inputs and the independent checker.

Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import check  # noqa: E402

WORK = ROOT / ".bench_work" / "tests"


def harness():
    """Builds the harness (a no-op when it is up to date)."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    target = target if target.is_absolute() else ROOT / target
    subprocess.run(["cargo", "build", "--release", "--offline", "--manifest-path",
                    "perfbench/harness/Cargo.toml"], cwd=ROOT, check=True, capture_output=True,
                   env=dict(os.environ, CARGO_TARGET_DIR=str(target)))
    return target / "release" / "perfbench-harness"


def generate(workload, seed, name):
    out = WORK / name
    shutil.rmtree(out, ignore_errors=True)
    subprocess.run([str(HARNESS), "gen", "--workload", workload, "--seed", str(seed),
                    "--rounds", "1", "--dir", str(out)], check=True)
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


HARNESS = None


def setUpModule():
    global HARNESS
    HARNESS = harness()


def tearDownModule():
    shutil.rmtree(WORK, ignore_errors=True)


class SeededInputs(unittest.TestCase):
    def test_same_seed_gives_identical_bytes(self):
        for workload in ("mcnc-flat", "widek-40k", "serve-eco"):
            with self.subTest(workload=workload):
                first = generate(workload, 3, "a")
                self.assertEqual(first, generate(workload, 3, "b"))

    def test_other_seed_changes_every_input(self):
        for workload in ("mcnc-flat", "widek-40k", "serve-eco"):
            with self.subTest(workload=workload):
                first, other = generate(workload, 3, "a"), generate(workload, 4, "b")
                self.assertEqual(first.keys(), other.keys())
                for name in first:
                    self.assertNotEqual(first[name], other[name], name)


TINY = """\
circuit tiny
node a 2
node b 1
node c 1
node d 3
net n1 a b
net n2 b c
net n3 c d
net n4 d
terminal pad1 n1
terminal pad2 n4
"""


class Checker(unittest.TestCase):
    def test_recomputes_paper_figures(self):
        netlist = check.Netlist(TINY)
        # Blocks {a, b} and {c, d}: n2 is cut; n1 and n4 carry pads.
        found = check.evaluate(netlist, [0, 0, 1, 1], s_max=4, t_max=2)
        self.assertEqual(found["sizes"], [3, 4])
        self.assertEqual(found["terminals"], [2, 2])
        self.assertEqual((found["devices"], found["terminal_sum"], found["cut"]), (2, 4, 1))
        self.assertTrue(found["feasible"])

    def test_flags_infeasible_and_empty_blocks(self):
        netlist = check.Netlist(TINY)
        self.assertFalse(check.evaluate(netlist, [0, 0, 1, 1], s_max=3, t_max=2)["feasible"])
        self.assertIn("block 1 is empty", check.evaluate(netlist, [0, 0, 2, 2], 9, 9)["problems"])

    def test_edits_follow_the_program_node_order(self):
        netlist = check.Netlist(TINY)
        for op in ({"op": "add_node", "name": "e", "size": 1},
                   {"op": "connect_pin", "net": "n2", "node": "e"},
                   {"op": "remove_node", "name": "b"}):
            netlist.apply(op)
        # Survivors keep their order and the new cell appends.
        self.assertEqual(netlist.order, ["a", "c", "d", "e"])
        found = check.evaluate(netlist, [0, 1, 1, 1], s_max=9, t_max=9)
        self.assertEqual(found["cut"], 0)
        self.assertEqual(found["terminals"], [1, 1])

    def test_device_limits_follow_the_datasheet(self):
        self.assertEqual(check.device_limits("XC3020"), (57, 64))
        self.assertEqual(check.device_limits("XC3064"), (201, 120))


if __name__ == "__main__":
    unittest.main()
