//! Allocation gates for `apply_script`, graph teardown, coarsening and
//! parsing.
//!
//! A graph keeps its names in flat tables and its structure in flat
//! arrays, so what it costs to write one out or free it does not grow
//! with its names. A small ECO on a large netlist allocates a constant
//! plus a little per script op, dropping the edited graph frees a fixed
//! set of buffers, and each coarsening level allocates a constant. A
//! body that holds one heap object per name, net or coarse node makes
//! tens of thousands of allocations on these inputs. Parsing a netlist
//! allocates per name, for its name lookup, but within a fixed budget. The gates count
//! allocations and frees, not time, so they give the same answer on any
//! machine.
//!
//! The counting allocator serves this whole test binary, so the gates
//! have a binary of their own. It counts only the calls of the thread
//! that asked, so the test harness's own threads do not disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fpart_hypergraph::coarsen::coarsen_to_floor;
use fpart_hypergraph::gen::{rent_circuit, RentConfig};
use fpart_hypergraph::io::{netlist_to_string, parse_netlist};
use fpart_hypergraph::{apply_script, EditApplied, EditOp, EditScript, Hypergraph};

/// Counts the allocations (fresh or grown) and frees made on a thread
/// while its `COUNTING` flag is up.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static FREES: Cell<usize> = const { Cell::new(0) };
}

fn note(counter: &'static std::thread::LocalKey<Cell<usize>>) {
    // `try_with`: the allocator also runs while thread locals are torn down.
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = counter.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only
// const-initialized thread locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(&ALLOCATIONS);
        // SAFETY: the caller's guarantees for `layout` carry over.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(&ALLOCATIONS);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(&ALLOCATIONS);
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(&FREES);
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the allocations and the frees
/// it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    ALLOCATIONS.with(|n| n.set(0));
    FREES.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCATIONS.with(Cell::get), FREES.with(Cell::get))
}

fn rent20k() -> Hypergraph {
    rent_circuit(&RentConfig::new("rent20k", 20_000, 600), 0)
}

/// The served benchmark's ECO shape: each of `cells` spread-out cells
/// is replaced by a fresh cell of the same size on the same nets
/// (`add_node`, one `connect_pin` per net, `remove_node`).
fn replace_eco(graph: &Hypergraph, cells: usize) -> EditScript {
    let mut ops = Vec::new();
    for j in 0..cells {
        let v = graph.node_ids().nth(j * graph.node_count() / cells).expect("in range");
        let fresh = format!("eco_{j}");
        ops.push(EditOp::AddNode { name: fresh.clone(), size: graph.node_size(v) });
        for &e in graph.nets(v) {
            let net = graph.net_name(e).to_owned();
            ops.push(EditOp::ConnectPin { net, node: fresh.clone() });
        }
        ops.push(EditOp::RemoveNode { name: graph.node_name(v).to_owned() });
    }
    EditScript::new(ops)
}

/// Allocations one apply makes whatever the script: its overlay's flat
/// arrays, the edited graph's arrays and tables, and their derived
/// adjacency.
const APPLY_BASE: usize = 40;

/// Allocations one script op may make beside them: its share of the
/// name lookup, the edited pin lists of the nets it touches, and the
/// growth of the overlay's maps.
const PER_OP: usize = 8;

/// Heap buffers a graph owns: the circuit name, three name tables of
/// two buffers each, and eight flat arrays (sizes, pins, incident nets,
/// pads and their offsets).
const GRAPH_BUFFERS: usize = 15;

/// Allocations one coarsening level may make: the matching's per-node
/// arrays and scratch, the projection buffers, and the coarse graph's.
const PER_LEVEL: usize = 48;

/// Allocations parsing may make per node, net and terminal name: the
/// name's key in the reader's lookup and its share of the per-line field
/// and pin lists and of the growth of the graph's tables.
const PARSE_PER_NAME: usize = 3;

#[test]
fn parsing_20k_cells_allocates_at_most_three_times_per_name() {
    let graph = rent20k();
    let text = netlist_to_string(&graph);
    let (parsed, allocations, _) = counted(|| parse_netlist(&text).expect("parses"));
    assert_eq!(parsed.node_count(), graph.node_count());
    let names = parsed.node_count() + parsed.net_count() + parsed.terminal_count();
    let bound = PARSE_PER_NAME * names;
    assert!(
        allocations <= bound,
        "parsing {names} names made {allocations} allocations; the bound is \
         {PARSE_PER_NAME} per name = {bound}"
    );
}

#[test]
fn a_ten_cell_eco_on_20k_cells_allocates_per_op_not_per_name() {
    let graph = rent20k();
    let script = replace_eco(&graph, 10);
    let (applied, allocations, _) = counted(|| apply_script(&graph, &script).expect("applies"));

    let edited = &applied.graph;
    assert_eq!(edited.node_count(), graph.node_count());
    let names = edited.node_count() + edited.net_count() + edited.terminal_count();
    let bound = APPLY_BASE + PER_OP * script.len();
    assert!(
        allocations <= bound,
        "apply_script made {allocations} allocations for a {}-op ECO on {names} names; \
         the bound is {APPLY_BASE} plus {PER_OP} per op = {bound}",
        script.len(),
    );
}

#[test]
fn dropping_an_edited_20k_cell_graph_frees_a_fixed_number_of_buffers() {
    let graph = rent20k();
    let script = replace_eco(&graph, 10);
    let EditApplied { graph: edited, .. } = apply_script(&graph, &script).expect("applies");
    let names = edited.node_count() + edited.net_count() + edited.terminal_count();
    let ((), _, frees) = counted(|| drop(edited));
    assert!(
        frees <= GRAPH_BUFFERS,
        "dropping a graph of {names} names freed {frees} blocks; a graph owns at most \
         {GRAPH_BUFFERS} buffers"
    );
}

#[test]
fn coarsening_20k_cells_allocates_per_level_not_per_coarse_item() {
    let graph = rent20k();
    // The n-level defaults on the served benchmark's device: a cluster
    // cap of a tenth of S_MAX 400 and a floor of 256 nodes.
    let (hierarchy, allocations, _) = counted(|| coarsen_to_floor(&graph, 40, 256, 64, 0x5EED));
    let levels = hierarchy.level_count();
    assert!(levels >= 4, "rent20k coarsened only {levels} levels");
    let items: usize =
        hierarchy.levels.iter().map(|l| l.coarse.node_count() + l.coarse.net_count()).sum();
    let bound = PER_LEVEL * levels;
    assert!(
        allocations <= bound,
        "coarsen_to_floor made {allocations} allocations over {levels} levels of {items} \
         coarse nodes and nets; the bound is {PER_LEVEL} per level = {bound}"
    );
    // Each level is a graph and its projection map, in one vector.
    let ((), _, frees) = counted(|| drop(hierarchy));
    let bound = (GRAPH_BUFFERS + 1) * levels + 1;
    assert!(frees <= bound, "dropping {levels} levels freed {frees} blocks; the bound is {bound}");
}
