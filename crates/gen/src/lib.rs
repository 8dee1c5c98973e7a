#![warn(missing_docs)]

//! Synthetic benchmark generation for placement-migration experiments.
//!
//! The paper evaluates on seven proprietary IBM circuits (64K–1.07M
//! cells) and on the ISPD-2004 IBM benchmarks placed by Capo. Neither is
//! available here, so this crate generates the closest synthetic
//! equivalents:
//!
//! - [`CircuitSpec`] builds a clustered netlist (locality like a real
//!   design: most nets connect cells of the same cluster) together with a
//!   **legal** constructive placement that keeps each cluster spatially
//!   contiguous — the properties legalization experiments actually
//!   consume;
//! - [`InflationSpec`] reproduces the paper's overlap workloads: cell
//!   inflation mimicking repowering (distributed or concentrated,
//!   Section VII / Table VI) and the ISPD protocol (10% of cells inflated
//!   60% in width, `RANDOM` vs `CENTER`, Table X);
//! - [`suites`] provides the `ckt1..ckt7` and `ibm01..ibm18` presets at
//!   configurable scale;
//! - [`VolCircuitSpec`] stacks tiers into a volumetric (3D-IC)
//!   benchmark: per-tier row-packed cells with a staggered row phase,
//!   through-stack macros, TSV nets, and an optional overfull hotspot
//!   tier for the volumetric migration engine.
//!
//! Everything is deterministic given the seed.
//!
//! # Examples
//!
//! ```
//! use dpm_gen::{CircuitSpec, InflationSpec};
//! use dpm_place::check_legality;
//!
//! let mut bench = CircuitSpec::small(42).generate();
//! // The generated placement is legal...
//! let report = check_legality(&bench.netlist, &bench.die, &bench.placement, 5);
//! assert!(report.is_legal(), "{report}");
//!
//! // ...until we inflate cells to mimic repowering.
//! let achieved = bench.inflate(&InflationSpec::distributed(0.25, 7));
//! assert!(achieved > 0.2);
//! let report = check_legality(&bench.netlist, &bench.die, &bench.placement, 5);
//! assert!(!report.is_legal());
//! ```

mod circuit;
mod eco;
mod inflate;
mod layout;
mod stats;
pub mod suites;
mod vol;

pub use circuit::{Benchmark, CircuitSpec};
pub use eco::{EcoSpec, EcoSummary};
pub use inflate::InflationSpec;
pub use stats::WorkloadStats;
pub use vol::{VolBenchmark, VolCircuitSpec};

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_netlist::Netlist;
    use dpm_place::{Die, Placement};

    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

    /// FNV-1a over `words`' little-endian bytes.
    fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
        let mut hash = FNV_OFFSET;
        for w in words {
            for b in w.to_le_bytes() {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(FNV_PRIME);
            }
        }
        hash
    }

    /// Every cell's size and kind, every net's pins (cell, direction,
    /// offset), the die outline and row height, and every position bit.
    fn planar_words(netlist: &Netlist, die: &Die, xy: &Placement) -> Vec<u64> {
        let o = die.outline();
        let mut w = vec![
            o.llx.to_bits(),
            o.lly.to_bits(),
            o.urx.to_bits(),
            o.ury.to_bits(),
            die.row_height().to_bits(),
        ];
        for c in netlist.cell_ids() {
            let cell = netlist.cell(c);
            w.extend([
                cell.width.to_bits(),
                cell.height.to_bits(),
                cell.kind as u64,
            ]);
        }
        for n in netlist.net_ids() {
            for &p in &netlist.net(n).pins {
                let pin = netlist.pin(p);
                w.extend([
                    pin.cell.index() as u64,
                    pin.dir as u64,
                    pin.offset.x.to_bits(),
                    pin.offset.y.to_bits(),
                ]);
            }
        }
        w.extend(
            xy.as_slice()
                .iter()
                .flat_map(|p| [p.x.to_bits(), p.y.to_bits()]),
        );
        w
    }

    fn planar_hash(spec: CircuitSpec) -> u64 {
        let b = spec.generate();
        fnv(planar_words(&b.netlist, &b.die, &b.placement))
    }

    fn vol_hash(spec: VolCircuitSpec) -> u64 {
        let b = spec.generate();
        let mut w = planar_words(&b.netlist, &b.die, &b.placement.xy);
        w.extend(b.placement.z.iter().map(|z| z.to_bits()));
        fnv(w)
    }

    /// Both generators' outputs, pinned bit for bit: the circuits the
    /// golden checksums migrate, and each generator with enough macros
    /// to exercise rejection sampling, macro-split row segments and die
    /// growth (both dies grow once).
    #[test]
    fn generators_are_pinned_bit_for_bit() {
        let golden_local = CircuitSpec::with_size("golden_local", 3_000, 1)
            .with_utilization(0.55)
            .with_local_utilization(0.97)
            .with_clusters_per_gap(6);
        let golden3d = VolCircuitSpec::with_size("golden3d", 3, 250, 31).with_hotspot(1);
        let got = [
            planar_hash(golden_local),
            planar_hash(CircuitSpec::small(42).with_macros(12)),
            vol_hash(golden3d),
            vol_hash(VolCircuitSpec::small(5).with_macros(6)),
        ];
        let want = [
            0x5ebd_1ae5_5e9e_d496,
            0x47df_ec1b_3a63_0d39,
            0x592b_8fb6_e10e_9302,
            0xd87b_3960_0eba_1c45,
        ];
        let show = |h: &[u64]| h.iter().map(|h| format!("{h:016x}")).collect::<Vec<_>>();
        assert_eq!(show(&got), show(&want));
    }
}
