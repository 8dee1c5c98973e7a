//! `FengShui`-like row legalization: per-row keep/push dynamic
//! programming.
//!
//! Agnihotri et al.'s fractional-cut placement (ICCAD 2003, reference \[5\]
//! of the paper — the algorithm FengShui's legalization uses) processes
//! rows bottom-up: each row keeps its cells in x order, and when the row
//! is over capacity a dynamic program decides which cells stay and which
//! are pushed into the row above. We implement exactly that keep/push
//! knapsack (maximize kept area within the row capacity, discretized to a
//! fixed number of buckets), followed by the order-preserving detailed
//! placement shared with the other legalizers.

use crate::detailed::detailed_legalize;
use crate::occupancy::{row_segments, snapped_rows};
use crate::Legalizer;
use dpm_geom::{Point, Rect};
use dpm_netlist::{CellId, Netlist};
use dpm_place::{Die, Placement};

/// The row-DP legalizer (`FengShui`-like in the ISPD comparison tables).
///
/// # Examples
///
/// ```
/// use dpm_gen::{CircuitSpec, InflationSpec};
/// use dpm_legalize::{RowDpLegalizer, Legalizer};
///
/// let mut bench = CircuitSpec::small(23).generate();
/// bench.inflate(&InflationSpec::random_width(0.1, 1.6, 6));
/// let outcome = RowDpLegalizer::new().legalize(&bench.netlist, &bench.die, &mut bench.placement);
/// assert!(outcome.is_legal);
/// ```
#[derive(Debug, Clone)]
pub struct RowDpLegalizer {
    /// Capacity discretization for the keep/push knapsack.
    buckets: usize,
    /// Fraction of each row's capacity the DP may fill (headroom for the
    /// final in-row placement).
    fill_target: f64,
}

impl Default for RowDpLegalizer {
    fn default() -> Self {
        Self {
            buckets: 1024,
            fill_target: 0.98,
        }
    }
}

impl RowDpLegalizer {
    /// Creates the legalizer with default parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Knapsack: choose the subset of `(cell, width)` to keep within
    /// `capacity`, maximizing kept width. Returns the *kept* flags.
    fn keep_set(&self, widths: &[f64], capacity: f64) -> Vec<bool> {
        let n = widths.len();
        let total: f64 = widths.iter().sum();
        if total <= capacity {
            return vec![true; n];
        }
        let bucket = (capacity / self.buckets as f64).max(1e-9);
        let cap = self.buckets;
        // dp[c] = best kept width using a prefix of cells at capacity c.
        let mut dp = vec![f64::NEG_INFINITY; cap + 1];
        dp[0] = 0.0;
        let mut choice = vec![false; n * (cap + 1)];
        for (i, &w) in widths.iter().enumerate() {
            let need = (w / bucket).ceil() as usize;
            if need > cap {
                continue;
            }
            for c in (need..=cap).rev() {
                let cand = dp[c - need] + w;
                if cand > dp[c] {
                    dp[c] = cand;
                    choice[i * (cap + 1) + c] = true;
                }
            }
        }
        // Backtrack from the best capacity.
        let mut best_c = 0;
        for c in 0..=cap {
            if dp[c] > dp[best_c] {
                best_c = c;
            }
        }
        let mut kept = vec![false; n];
        let mut c = best_c;
        for i in (0..n).rev() {
            if choice[i * (cap + 1) + c] {
                kept[i] = true;
                c -= (widths[i] / bucket).ceil() as usize;
            }
        }
        kept
    }
}

impl Legalizer for RowDpLegalizer {
    fn name(&self) -> &str {
        "ROWDP"
    }

    fn legalize_in_place(&self, netlist: &Netlist, die: &Die, placement: &mut Placement) {
        let macros: Vec<Rect> = netlist
            .macro_ids()
            .map(|m| placement.cell_rect(netlist, m))
            .collect();
        let segments = row_segments(die, &macros);
        let capacities: Vec<f64> = segments
            .iter()
            .map(|segs| segs.iter().map(|&(s, e)| e - s).sum::<f64>() * self.fill_target)
            .collect();

        // Initial row assignment by nearest row.
        let n_rows = die.num_rows();
        let mut rows: Vec<Vec<(CellId, f64)>> = vec![Vec::new(); n_rows];
        let row_of_snap = snapped_rows(die);
        for cell in netlist.movable_cell_ids() {
            let pos = placement.get(cell);
            let row = row_of_snap[die.snap_row(pos.y)];
            rows[row].push((cell, pos.x));
        }

        // Bottom-up: keep what fits, push the rest one row up.
        for r in 0..n_rows {
            rows[r].sort_by(|a, b| a.1.total_cmp(&b.1));
            let widths: Vec<f64> = rows[r]
                .iter()
                .map(|&(c, _)| netlist.cell(c).width)
                .collect();
            let kept = self.keep_set(&widths, capacities[r]);
            if r + 1 < n_rows {
                let mut stay = Vec::with_capacity(rows[r].len());
                let mut push = Vec::new();
                for (i, entry) in rows[r].drain(..).enumerate() {
                    if kept[i] {
                        stay.push(entry);
                    } else {
                        push.push(entry);
                    }
                }
                rows[r] = stay;
                rows[r + 1].extend(push);
            }
        }
        // Whatever spilled past the top row cascades back down into any
        // remaining space (second pass, top-down).
        let mut loads: Vec<f64> = rows
            .iter()
            .map(|cells| cells.iter().map(|&(c, _)| netlist.cell(c).width).sum())
            .collect();
        for r in (0..n_rows).rev() {
            while loads[r] > capacities[r] && !rows[r].is_empty() {
                // Push the widest cell to the nearest row with room.
                let (idx, _) = rows[r]
                    .iter()
                    .enumerate()
                    .max_by(|a, b| {
                        netlist
                            .cell(a.1 .0)
                            .width
                            .total_cmp(&netlist.cell(b.1 .0).width)
                    })
                    .expect("non-empty");
                let (cell, x) = rows[r].swap_remove(idx);
                let w = netlist.cell(cell).width;
                loads[r] -= w;
                let target = (0..n_rows)
                    .filter(|&t| t != r && loads[t] + w <= capacities[t])
                    .min_by_key(|&t| t.abs_diff(r));
                match target {
                    Some(t) => {
                        rows[t].push((cell, x));
                        loads[t] += w;
                    }
                    None => {
                        // Truly full die: put it back and give up; the
                        // final detailed pass reports the residue.
                        rows[r].push((cell, x));
                        loads[r] += w;
                        break;
                    }
                }
            }
        }

        // Commit row choices, then let the shared detailed placer do the
        // order-preserving in-row placement.
        for (r, cells) in rows.iter().enumerate() {
            let y = die.row(r).y;
            for &(cell, x) in cells {
                placement.set(cell, Point::new(x, y));
            }
        }
        detailed_legalize(netlist, die, placement);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util;

    #[test]
    fn keep_set_keeps_everything_when_it_fits() {
        let dp = RowDpLegalizer::new();
        let kept = dp.keep_set(&[5.0, 5.0, 5.0], 20.0);
        assert_eq!(kept, vec![true, true, true]);
    }

    #[test]
    fn keep_set_respects_capacity() {
        let dp = RowDpLegalizer::new();
        let widths = vec![6.0, 6.0, 6.0, 6.0];
        let kept = dp.keep_set(&widths, 13.0);
        let kept_width: f64 = widths
            .iter()
            .zip(&kept)
            .filter(|(_, &k)| k)
            .map(|(&w, _)| w)
            .sum();
        assert!(kept_width <= 13.0 + 1e-9);
        assert!(kept_width >= 12.0 - 1e-9, "knapsack left too much behind");
    }

    #[test]
    fn keep_set_maximizes_area() {
        let dp = RowDpLegalizer::new();
        // Capacity 10: the single 10-wide cell beats two 4-wide ones.
        let kept = dp.keep_set(&[4.0, 10.0, 4.0], 10.5);
        let kept_width: f64 = [4.0, 10.0, 4.0]
            .iter()
            .zip(&kept)
            .filter(|(_, &k)| k)
            .map(|(&w, _)| w)
            .sum();
        assert!(kept_width >= 10.0 - 1e-9, "kept {kept_width}");
    }

    #[test]
    fn legalizes_inflated_benchmark() {
        let mut bench = test_util::inflated_small(71);
        let outcome =
            RowDpLegalizer::new().legalize(&bench.netlist, &bench.die, &mut bench.placement);
        assert!(outcome.is_legal, "{outcome}");
    }

    #[test]
    fn legalizes_hotspot_benchmark() {
        let mut bench = test_util::hotspot_small(72);
        let outcome =
            RowDpLegalizer::new().legalize(&bench.netlist, &bench.die, &mut bench.placement);
        assert!(outcome.is_legal, "{outcome}");
    }

    #[test]
    fn respects_macros() {
        let mut bench = test_util::with_macros(73);
        let outcome =
            RowDpLegalizer::new().legalize(&bench.netlist, &bench.die, &mut bench.placement);
        assert!(outcome.is_legal, "{outcome}");
    }
}
