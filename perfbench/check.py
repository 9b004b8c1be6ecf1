"""Independent output check of the fpart benchmark.

Re-reads the generated netlists and every returned assignment and
recomputes, from the paper's definitions alone, what a partition is
judged by: per-block size and terminal count, feasibility against
S_MAX/T_MAX, the device count and T_SUM. Nothing here shares code with
the program's `verify` or `cost` modules.

Definitions (Krupnova & Saucier, DATE 1999, section 2):

* a block is the set of cells assigned to one device; the device count
  is the number of non-empty blocks;
* a block's terminal count T_i is the number of nets with a pin in the
  block that also reach another block or carry a primary I/O pad;
* the block fits when its size is at most S_MAX = floor(delta * S_DS)
  and T_i is at most T_MAX; the partition is feasible when all fit;
* T_SUM is the sum of T_i over all blocks.
"""

# Xilinx XC3000 parts of the paper's evaluation: (CLBs, IOBs).
DEVICES = {
    "XC3020": (64, 64),
    "XC3042": (144, 96),
    "XC3064": (224, 120),
    "XC3090": (320, 144),
}


def device_limits(name, delta_permille=900):
    """(S_MAX, T_MAX) of a catalog device at filling ratio delta."""
    clbs, iobs = DEVICES[name]
    return clbs * delta_permille // 1000, iobs


class Netlist:
    """A `.fhg` netlist as names: cell order, sizes, net pins, pads."""

    def __init__(self, text):
        self.order = []
        self.size = {}
        self.pins = {}
        self.node_nets = {}
        self.pad_nets = set()
        for line in text.splitlines():
            fields = line.split()
            if not fields or fields[0].startswith("#"):
                continue
            kind = fields[0]
            if kind == "node":
                self.add_node(fields[1], int(fields[2]))
            elif kind == "net":
                self.pins[fields[1]] = []
                for cell in fields[2:]:
                    self.connect(fields[1], cell)
            elif kind == "terminal":
                self.pad_nets.add(fields[2])
            elif kind != "circuit":
                raise ValueError(f"unknown netlist record `{kind}`")

    @classmethod
    def read(cls, path):
        with open(path, encoding="utf-8") as f:
            return cls(f.read())

    def add_node(self, name, size):
        self.order.append(name)
        self.size[name] = size
        self.node_nets[name] = []

    def connect(self, net, cell):
        self.pins[net].append(cell)
        self.node_nets[cell].append(net)

    def remove_node(self, name):
        self.order.remove(name)
        del self.size[name]
        for net in self.node_nets.pop(name):
            pins = self.pins[net]
            pins.remove(name)
            if not pins:
                del self.pins[net]
                self.pad_nets.discard(net)

    def apply(self, op):
        """Applies one edit-script operation (the subset ECOs use)."""
        kind = op["op"]
        if kind == "add_node":
            self.add_node(op["name"], op["size"])
        elif kind == "connect_pin":
            self.connect(op["net"], op["node"])
        elif kind == "remove_node":
            self.remove_node(op["name"])
        else:
            raise ValueError(f"unsupported edit `{kind}`")


def read_assignment(path, netlist):
    """Reads `name block` lines into a block list in netlist cell order."""
    block = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            fields = line.split()
            if fields and not fields[0].startswith("#"):
                block[fields[0]] = int(fields[1])
    return [block[name] for name in netlist.order]


def evaluate(netlist, assignment, s_max, t_max):
    """Recomputes the partition's figures; returns a dict.

    `problems` lists every reason the assignment is not a valid,
    feasible partition (empty when it is one).
    """
    problems = []
    if len(assignment) != len(netlist.order):
        return {"problems": ["assignment does not cover the netlist"]}
    k = max(assignment) + 1 if assignment else 0
    if min(assignment, default=0) < 0:
        return {"problems": ["negative block id"]}
    block_of = dict(zip(netlist.order, assignment))
    sizes = [0] * k
    for name, b in block_of.items():
        sizes[b] += netlist.size[name]
    terminals = [0] * k
    cut = 0
    pads = netlist.pad_nets
    block = block_of.__getitem__
    for net, pins in netlist.pins.items():
        blocks = set(map(block, pins))
        if len(blocks) > 1:
            cut += 1
        elif net not in pads:
            continue
        for b in blocks:
            terminals[b] += 1
    for b in range(k):
        if sizes[b] == 0:
            problems.append(f"block {b} is empty")
        elif sizes[b] > s_max or terminals[b] > t_max:
            problems.append(f"block {b} holds S={sizes[b]} T={terminals[b]} over {s_max}/{t_max}")
    return {
        "problems": problems,
        "devices": sum(1 for s in sizes if s > 0),
        "sizes": sizes,
        "terminals": terminals,
        "terminal_sum": sum(terminals),
        "cut": cut,
        "feasible": not problems,
    }


def assignment_hash(assignment):
    """FNV-1a over the block ids, one 64-bit step per cell."""
    h = 0xCBF29CE484222325
    for b in assignment:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return format(h, "016x")
