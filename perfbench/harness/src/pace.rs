//! The pace kernel: a fixed unit of work whose CPU time tracks how fast
//! this core runs the program right now.
//!
//! On a shared host the same 30 one-shot `fpart` runs take anywhere from
//! 5.4 to 8.1 CPU seconds a few seconds apart (the cores' siblings and
//! caches are shared with other tenants). `run.py` keeps this process beside the
//! program, has it run the kernel once before and once after each timed
//! operation, and scales the operation's CPU time by the pace kernel's
//! reference time over its local time.
//!
//! The kernel is the benchmark's own code and links nothing of the
//! program, so it is the same on every commit. It does the kind of work
//! the program does: FM-style gain sweeps over a seeded random hypergraph
//! (pin lists, per-net side counts, a gain-bucket array) in a working set
//! of a few MiB, and streaming passes over a table far larger than the
//! cache. The program slows with both the core's and the memory system's
//! load, and which one other tenants load changes within the hour; the
//! sweeps take about half of the kernel's time and the streaming the
//! other half, the mix that tracked the program best over both kinds.

use std::io::{BufRead, Write};

const CELLS: usize = 1 << 15;
const NETS: usize = 1 << 15;
const PINS_PER_CELL: usize = 4;
const SWEEPS: usize = 30;
const TABLE: usize = 1 << 24;
/// u32 entries per 64-byte cache line: one touch per line.
const STRIDE: usize = 16;
const STREAMS: usize = 2;

struct Kernel {
    cell_nets: Vec<u32>,
    side: Vec<u8>,
    net_count: Vec<[u16; 2]>,
    buckets: Vec<u32>,
    table: Vec<u32>,
}

impl Kernel {
    fn new() -> Kernel {
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut cell_nets = Vec::with_capacity(CELLS * PINS_PER_CELL);
        for _ in 0..CELLS * PINS_PER_CELL {
            cell_nets.push((xorshift(&mut rng) % NETS as u64) as u32);
        }
        let side: Vec<u8> = (0..CELLS).map(|c| (c & 1) as u8).collect();
        let mut net_count = vec![[0u16; 2]; NETS];
        for (pin, &net) in cell_nets.iter().enumerate() {
            net_count[net as usize][side[pin / PINS_PER_CELL] as usize] += 1;
        }
        Kernel {
            cell_nets,
            side,
            net_count,
            buckets: vec![0; 2 * PINS_PER_CELL + 1],
            table: vec![0; TABLE],
        }
    }

    /// One unit of work; returns a checksum so nothing is optimised away.
    fn run(&mut self) -> u64 {
        let mut moved = 0u64;
        for _ in 0..SWEEPS {
            for cell in 0..CELLS {
                let from = self.side[cell] as usize;
                let nets = &self.cell_nets[cell * PINS_PER_CELL..(cell + 1) * PINS_PER_CELL];
                let mut gain = PINS_PER_CELL as i32;
                for &net in nets {
                    let count = self.net_count[net as usize];
                    if count[from] == 1 {
                        gain += 1;
                    }
                    if count[1 - from] == 0 {
                        gain -= 1;
                    }
                }
                self.buckets[gain as usize] += 1;
                if gain > PINS_PER_CELL as i32 {
                    for &net in nets {
                        let count = &mut self.net_count[net as usize];
                        count[from] -= 1;
                        count[1 - from] += 1;
                    }
                    self.side[cell] = 1 - from as u8;
                    moved += 1;
                }
            }
        }
        let mut sum = 0u64;
        for _ in 0..STREAMS {
            for entry in self.table.iter_mut().step_by(STRIDE) {
                *entry = entry.wrapping_add(1);
                sum = sum.wrapping_add(*entry as u64);
            }
        }
        sum ^ moved ^ self.buckets.iter().map(|&b| b as u64).sum::<u64>()
    }
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Runs the kernel once per line read from stdin and answers each line
/// with the kernel's checksum, until stdin closes.
pub fn serve() -> Result<(), String> {
    let mut kernel = Kernel::new();
    let mut out = std::io::stdout().lock();
    for line in std::io::stdin().lock().lines() {
        line.map_err(|e| e.to_string())?;
        writeln!(out, "{}", kernel.run()).map_err(|e| e.to_string())?;
        out.flush().map_err(|e| e.to_string())?;
    }
    Ok(())
}
