//! FPGA device models for multi-way netlist partitioning.
//!
//! A device is characterized — exactly as in §2 of the FPART paper — by a
//! data-sheet logic capacity `S_ds` (CLBs) and a terminal count `T_MAX`
//! (IOBs). The effective size constraint is `S_MAX = ⌊S_ds · δ⌋` where `δ`
//! is the user's *filling ratio* (commonly 0.9, to leave slack for the
//! vendor place-and-route).
//!
//! The crate provides:
//!
//! * [`Device`] — data-sheet description plus a catalog of the Xilinx
//!   XC2000/XC3000-era parts used in the paper's evaluation;
//! * [`DeviceConstraints`] — the `(S_MAX, T_MAX)` pair actually enforced
//!   during partitioning, with feasibility predicates;
//! * [`BlockUsage`] — a block's `(size, terminal)` occupancy, the point in
//!   the 2-D feasibility plane of the paper's Figure 2;
//! * [`lower_bound`] — the theoretical minimum device count
//!   `M = MAX(⌈S₀/S_MAX⌉, ⌈|Y₀|/T_MAX⌉)`.
//!
//! # Example
//!
//! ```
//! use fpart_device::{Device, DeviceConstraints};
//!
//! let dev = Device::XC3020;
//! let cons = dev.constraints(0.9);
//! assert_eq!(cons.s_max, 57); // ⌊64 · 0.9⌋
//! assert_eq!(cons.t_max, 64);
//! assert!(cons.fits(57, 64));
//! assert!(!cons.fits(58, 1));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod fit;

use std::fmt;

use fpart_hypergraph::Hypergraph;

/// Data-sheet description of an FPGA device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Device {
    /// Part name, e.g. `"XC3020"`.
    pub name: &'static str,
    /// Data-sheet logic capacity in CLBs (`S_ds`).
    pub s_ds: u64,
    /// Number of user I/O blocks (`T_MAX`).
    pub t_max: usize,
}

impl Device {
    /// Xilinx XC2064: 64 CLBs, 58 IOBs (XC2000 family).
    pub const XC2064: Device = Device { name: "XC2064", s_ds: 64, t_max: 58 };
    /// Xilinx XC2018: 100 CLBs, 74 IOBs (XC2000 family).
    pub const XC2018: Device = Device { name: "XC2018", s_ds: 100, t_max: 74 };
    /// Xilinx XC3020: 64 CLBs, 64 IOBs.
    pub const XC3020: Device = Device { name: "XC3020", s_ds: 64, t_max: 64 };
    /// Xilinx XC3030: 100 CLBs, 80 IOBs.
    pub const XC3030: Device = Device { name: "XC3030", s_ds: 100, t_max: 80 };
    /// Xilinx XC3042: 144 CLBs, 96 IOBs.
    pub const XC3042: Device = Device { name: "XC3042", s_ds: 144, t_max: 96 };
    /// Xilinx XC3064: 224 CLBs, 120 IOBs.
    pub const XC3064: Device = Device { name: "XC3064", s_ds: 224, t_max: 120 };
    /// Xilinx XC3090: 320 CLBs, 144 IOBs.
    pub const XC3090: Device = Device { name: "XC3090", s_ds: 320, t_max: 144 };

    /// The full catalog known to this crate.
    #[must_use]
    pub fn catalog() -> [Device; 7] {
        [
            Device::XC2064,
            Device::XC2018,
            Device::XC3020,
            Device::XC3030,
            Device::XC3042,
            Device::XC3064,
            Device::XC3090,
        ]
    }

    /// Looks a device up by part name (case-sensitive).
    #[must_use]
    pub fn by_name(name: &str) -> Option<Device> {
        Device::catalog().into_iter().find(|d| d.name == name)
    }

    /// Returns the constraints enforced during partitioning for the given
    /// filling ratio `δ`: `S_MAX = ⌊S_ds · δ⌋`, `T_MAX` unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `delta` is not in `(0, 1]` — a filling ratio above 1.0
    /// would claim more CLBs than the part has.
    #[must_use]
    pub fn constraints(&self, delta: f64) -> DeviceConstraints {
        assert!(delta > 0.0 && delta <= 1.0, "filling ratio must be in (0, 1], got {delta}");
        let permille = (delta * 1000.0).round() as u64;
        DeviceConstraints {
            s_max: self.s_ds * permille / 1000,
            t_max: self.t_max,
            s_max_permille: self.s_ds * permille,
        }
    }

    /// Returns whether the part belongs to the XC2000 family (as opposed
    /// to XC3000), which selects the Table 1 technology mapping.
    #[must_use]
    pub fn is_xc2000_family(&self) -> bool {
        self.name.starts_with("XC2")
    }
}

impl fmt::Display for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} CLB, {} IOB)", self.name, self.s_ds, self.t_max)
    }
}

/// The `(S_MAX, T_MAX)` pair enforced on every partition block.
///
/// `s_max` is the *integer* per-block capacity (node sizes are integers, so
/// `S_i ≤ S_ds·δ ⟺ S_i ≤ ⌊S_ds·δ⌋`). The paper's theoretical lower bound
/// `M`, however, divides by the *exact* `S_ds·δ` (e.g. s13207 on XC3020:
/// `⌈915 / 57.6⌉ = 16`, not `⌈915 / 57⌉ = 17`), so the exact capacity is
/// carried alongside in permille and used by [`lower_bound`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeviceConstraints {
    /// Maximum block size in technology cells (`⌊S_ds · δ⌋`).
    pub s_max: u64,
    /// Maximum terminals per block.
    pub t_max: usize,
    /// Exact size capacity `S_ds · δ` in permille of a cell.
    s_max_permille: u64,
}

impl DeviceConstraints {
    /// Creates constraints directly from a size and terminal budget. The
    /// exact capacity equals `s_max` (no fractional part; saturating for
    /// enormous sentinel capacities).
    #[must_use]
    pub fn new(s_max: u64, t_max: usize) -> Self {
        DeviceConstraints { s_max, t_max, s_max_permille: s_max.saturating_mul(1000) }
    }

    /// Returns `true` when a block with the given occupancy meets both
    /// constraints (`P_j ⊨ D_i` in the paper's notation).
    #[inline]
    #[must_use]
    pub fn fits(&self, size: u64, terminals: usize) -> bool {
        size <= self.s_max && terminals <= self.t_max
    }

    /// Returns `true` when the occupancy satisfies the size constraint.
    #[inline]
    #[must_use]
    pub fn fits_size(&self, size: u64) -> bool {
        size <= self.s_max
    }

    /// Returns `true` when the occupancy satisfies the terminal constraint.
    #[inline]
    #[must_use]
    pub fn fits_terminals(&self, terminals: usize) -> bool {
        terminals <= self.t_max
    }

    /// Free-space estimate of a block (paper §3.1):
    /// `F = σ₁·(S_MAX − S)/S_MAX + σ₂·(T_MAX − T)/T_MAX`.
    ///
    /// Over-full blocks yield negative contributions, which is the desired
    /// ordering (they have the *least* free space).
    #[must_use]
    pub fn free_space(&self, usage: BlockUsage, sigma1: f64, sigma2: f64) -> f64 {
        let s_term = if self.s_max == 0 {
            0.0
        } else {
            (self.s_max as f64 - usage.size as f64) / self.s_max as f64
        };
        let t_term = if self.t_max == 0 {
            0.0
        } else {
            (self.t_max as f64 - usage.terminals as f64) / self.t_max as f64
        };
        sigma1 * s_term + sigma2 * t_term
    }
}

impl fmt::Display for DeviceConstraints {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S_MAX={}, T_MAX={}", self.s_max, self.t_max)
    }
}

/// A block's occupancy: its position in the paper's (T, S) feasibility
/// plane (Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct BlockUsage {
    /// Occupied size in technology cells.
    pub size: u64,
    /// Occupied terminals (IOBs).
    pub terminals: usize,
}

impl BlockUsage {
    /// Creates an occupancy point.
    #[must_use]
    pub fn new(size: u64, terminals: usize) -> Self {
        BlockUsage { size, terminals }
    }
}

/// Theoretical lower bound on the number of devices:
/// `M = MAX(⌈S₀ / S_MAX⌉, ⌈|Y₀| / T_MAX⌉)` (paper §2).
///
/// Returns at least 1 for a non-empty circuit and 0 for an empty one.
///
/// # Panics
///
/// Panics if `constraints.s_max == 0` or `constraints.t_max == 0` while the
/// corresponding resource demand is non-zero (the circuit can never fit).
#[must_use]
pub fn lower_bound(graph: &Hypergraph, constraints: DeviceConstraints) -> usize {
    let size = graph.total_size();
    let terms = graph.terminal_count();
    if size == 0 && terms == 0 {
        return 0;
    }
    assert!(constraints.s_max > 0 || size == 0, "device has zero logic capacity");
    assert!(constraints.t_max > 0 || terms == 0, "device has zero terminal capacity");
    let m_size = if size == 0 {
        0
    } else {
        // ⌈S₀ / (S_ds·δ)⌉ with the capacity expressed exactly in permille.
        (size * 1000).div_ceil(constraints.s_max_permille) as usize
    };
    let m_io = if terms == 0 { 0 } else { terms.div_ceil(constraints.t_max) };
    m_size.max(m_io).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpart_hypergraph::gen::{mcnc_profiles, synthesize_mcnc, Technology};
    use fpart_hypergraph::HypergraphBuilder;

    #[test]
    fn paper_constraint_values() {
        let checks = [
            (Device::XC3020.constraints(0.9), 57, 64),
            (Device::XC3042.constraints(0.9), 129, 96),
            (Device::XC3090.constraints(0.9), 288, 144),
            (Device::XC2064.constraints(1.0), 64, 58),
        ];
        for (c, s, t) in checks {
            assert_eq!(c.s_max, s);
            assert_eq!(c.t_max, t);
        }
    }

    #[test]
    fn fits_is_conjunction() {
        let c = DeviceConstraints::new(10, 5);
        assert!(c.fits(10, 5));
        assert!(!c.fits(11, 5));
        assert!(!c.fits(10, 6));
        assert!(c.fits_size(10) && !c.fits_size(11));
        assert!(c.fits_terminals(5) && !c.fits_terminals(6));
    }

    #[test]
    fn by_name_lookup() {
        assert_eq!(Device::by_name("XC3042"), Some(Device::XC3042));
        assert_eq!(Device::by_name("XC9999"), None);
    }

    #[test]
    #[should_panic(expected = "filling ratio")]
    fn delta_out_of_range_panics() {
        let _ = Device::XC3020.constraints(1.5);
    }

    #[test]
    fn free_space_ordering() {
        let c = DeviceConstraints::new(100, 50);
        let empty = c.free_space(BlockUsage::new(0, 0), 0.5, 0.5);
        let half = c.free_space(BlockUsage::new(50, 25), 0.5, 0.5);
        let full = c.free_space(BlockUsage::new(100, 50), 0.5, 0.5);
        let over = c.free_space(BlockUsage::new(120, 60), 0.5, 0.5);
        assert!(empty > half && half > full && full > over);
        assert!((empty - 1.0).abs() < 1e-12);
        assert!(full.abs() < 1e-12);
    }

    /// The M column of Tables 2–5 must be reproduced exactly for every
    /// circuit × device combination the paper reports.
    #[test]
    fn lower_bounds_match_paper_tables() {
        let xc3020 = Device::XC3020.constraints(0.9);
        let xc3042 = Device::XC3042.constraints(0.9);
        let xc3090 = Device::XC3090.constraints(0.9);
        let xc2064 = Device::XC2064.constraints(1.0);

        let expect_3020 = [5, 7, 15, 9, 7, 8, 16, 15, 39, 51];
        let expect_3042 = [3, 4, 7, 4, 3, 4, 8, 7, 18, 23];
        let expect_3090 = [1, 3, 3, 3, 2, 2, 4, 3, 8, 11];
        // Table 5 covers only the four combinational circuits.
        let expect_2064 = [("c3540", 6), ("c5315", 9), ("c7552", 10), ("c6288", 14)];

        for (i, p) in mcnc_profiles().iter().enumerate() {
            let g3000 = synthesize_mcnc(p, Technology::Xc3000);
            assert_eq!(lower_bound(&g3000, xc3020), expect_3020[i], "{} XC3020", p.name);
            assert_eq!(lower_bound(&g3000, xc3042), expect_3042[i], "{} XC3042", p.name);
            assert_eq!(lower_bound(&g3000, xc3090), expect_3090[i], "{} XC3090", p.name);
        }
        for (name, m) in expect_2064 {
            let p = fpart_hypergraph::gen::find_profile(name).unwrap();
            let g2000 = synthesize_mcnc(p, Technology::Xc2000);
            assert_eq!(lower_bound(&g2000, xc2064), m, "{name} XC2064");
        }
    }

    #[test]
    fn lower_bound_io_critical_circuit() {
        // 10 cells but 130 terminals on a 57/64 device → IO bound dominates.
        let mut b = HypergraphBuilder::new();
        let nodes: Vec<_> = (0..10).map(|i| b.add_node(format!("n{i}"), 1)).collect();
        let mut nets = Vec::new();
        for (i, w) in nodes.windows(2).enumerate() {
            nets.push(b.add_net(format!("e{i}"), [w[0], w[1]]).unwrap());
        }
        for t in 0..130 {
            b.add_terminal(format!("t{t}"), nets[t % nets.len()]).unwrap();
        }
        let g = b.finish().unwrap();
        let c = Device::XC3020.constraints(0.9);
        assert_eq!(lower_bound(&g, c), 3); // ceil(130/64)
    }

    #[test]
    fn lower_bound_empty_graph_is_zero() {
        let g = HypergraphBuilder::new().finish().unwrap();
        assert_eq!(lower_bound(&g, DeviceConstraints::new(10, 10)), 0);
    }

    #[test]
    fn family_detection() {
        assert!(Device::XC2064.is_xc2000_family());
        assert!(!Device::XC3020.is_xc2000_family());
    }

    #[test]
    fn display_formats() {
        assert_eq!(Device::XC3020.to_string(), "XC3020 (64 CLB, 64 IOB)");
        assert_eq!(DeviceConstraints::new(57, 64).to_string(), "S_MAX=57, T_MAX=64");
    }

    #[test]
    fn catalog_contains_paper_devices() {
        let cat = Device::catalog();
        for d in [Device::XC3020, Device::XC3042, Device::XC3090, Device::XC2064] {
            assert!(cat.contains(&d));
        }
    }
}
