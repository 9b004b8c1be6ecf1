//! Allocation gate for `apply_script`.
//!
//! A small ECO on a large netlist must cost what writing the edited
//! graph out costs: one allocation per node, net and terminal name it
//! holds, plus a constant per script op. A body that rebuilds the named
//! graph (owned per-node and per-net containers, name maps over every
//! name, a builder pass) allocates several times that. The gate counts
//! allocations, not time, so it gives the same answer on any machine.
//!
//! The counting allocator serves this whole test binary, so the gate has
//! a binary of its own. It counts only the allocations of the thread
//! that asked, so the test harness's own threads do not disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fpart_hypergraph::gen::{rent_circuit, RentConfig};
use fpart_hypergraph::{apply_script, EditOp, EditScript, Hypergraph};

/// Counts the allocations (fresh or grown) made on a thread while its
/// `COUNTING` flag is up.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with`: the allocator also runs while thread locals are torn down.
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only
// const-initialized thread locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller's guarantees for `layout` carry over.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made on this
/// thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCATIONS.with(Cell::get))
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

/// Allocations one script op may make beside the names: its share of
/// the name lookup, the edited pin lists of the nets it touches, and the
/// growth of the overlay's maps.
const PER_OP: usize = 8;

#[test]
fn a_ten_cell_eco_on_20k_cells_allocates_per_name_not_per_graph_container() {
    let graph = rent_circuit(&RentConfig::new("rent20k", 20_000, 600), 0);
    let script = replace_eco(&graph, 10);
    let (applied, allocations) = counted(|| apply_script(&graph, &script).expect("applies"));

    let edited = &applied.graph;
    assert_eq!(edited.node_count(), graph.node_count());
    let names = edited.node_count() + edited.net_count() + edited.terminal_count();
    let bound = names + PER_OP * script.len();
    assert!(
        allocations <= bound,
        "apply_script made {allocations} allocations for a {}-op ECO on {} names; \
         the bound is one per name plus {PER_OP} per op = {bound}",
        script.len(),
        names,
    );
}
