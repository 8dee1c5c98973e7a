//! Detailed (final) legalization: row snapping, capacity balancing, and
//! Abacus-style order-preserving in-row placement.
//!
//! Every spreading method in this crate — diffusion, min-cost flow, grid
//! stretching — produces a placement whose bin densities are at most the
//! target but whose cells still overlap slightly. This module plays the
//! role of "IBM CPlace's internal legalizer" from the paper: it snaps
//! cells to rows, rebalances row/segment capacity with minimal vertical
//! moves, and then places each row's cells in their x-order at minimum
//! squared displacement (the Abacus clumping algorithm of Spindler,
//! Schlichtmann & Johannes), which preserves relative order by
//! construction.
//!
//! A slot (a row segment between macros) keeps its cells in arrival
//! order, which `balance` changes as `Vec::swap_remove` would, next to
//! an index of those positions ordered by desired x. `balance` reads its
//! victim, the cell farthest from the slot's midpoint, from the two ends
//! of that index, and the Abacus pass walks it, so the placement is the
//! one a scan per move and a stable sort per slot give, bit for bit
//! (DESIGN.md §24). The tests keep that form as the `reference` oracle.

use crate::occupancy::{row_segments, snapped_rows};
use crate::Legalizer;
use dpm_geom::{Point, Rect};
use dpm_netlist::{CellId, Netlist};
use dpm_place::{Die, Placement};

/// The order-preserving final legalizer.
///
/// # Examples
///
/// ```
/// use dpm_gen::{CircuitSpec, InflationSpec};
/// use dpm_legalize::{DetailedLegalizer, Legalizer};
///
/// let mut bench = CircuitSpec::small(3).generate();
/// bench.inflate(&InflationSpec::random_width(0.05, 1.3, 1));
/// let outcome = DetailedLegalizer::new().legalize(&bench.netlist, &bench.die, &mut bench.placement);
/// assert!(outcome.is_legal);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DetailedLegalizer {
    _private: (),
}

impl DetailedLegalizer {
    /// Creates the legalizer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Legalizer for DetailedLegalizer {
    fn name(&self) -> &str {
        "DETAILED"
    }

    fn legalize_in_place(&self, netlist: &Netlist, die: &Die, placement: &mut Placement) {
        detailed_legalize(netlist, die, placement);
    }
}

/// One usable row segment with its assigned cells.
#[derive(Debug)]
struct Slot {
    row: usize,
    start: f64,
    end: f64,
    /// (cell, desired x) assignments in arrival order; `balance` takes
    /// cells out with `swap_remove`.
    cells: Vec<(CellId, f64)>,
    /// Positions in `cells`, ordered by desired x (`total_cmp`), then by
    /// position.
    order: Vec<u32>,
    load: f64,
}

impl Slot {
    fn capacity(&self) -> f64 {
        self.end - self.start
    }
    fn spare(&self) -> f64 {
        self.capacity() - self.load
    }
    fn over_full(&self) -> bool {
        self.load > self.capacity() + 1e-9 && !self.cells.is_empty()
    }
    fn x(&self, pos: u32) -> f64 {
        self.cells[pos as usize].1
    }

    /// Builds `order` over the cells that arrived before `balance`: a
    /// stable sort by x of the positions in increasing order.
    fn sort_order(&mut self) {
        let cells = &self.cells;
        self.order.extend(0..cells.len() as u32);
        self.order
            .sort_by(|&a, &b| cells[a as usize].1.total_cmp(&cells[b as usize].1));
    }

    /// The `order` index of the cell `balance` sheds: the one whose
    /// desired x lies farthest from the slot's midpoint, and of those
    /// the one at the highest position in `cells`.
    ///
    /// Along `order` the distance is valley-shaped (`x − mid` never
    /// decreases), so every cell at the largest distance sits in a run
    /// at one end of `order` or the other.
    fn victim(&self) -> usize {
        let mid = (self.start + self.end) / 2.0;
        let key = |pos: u32| (self.x(pos) - mid).abs().to_bits();
        let order = &self.order;
        let n = order.len();
        let top = key(order[0]).max(key(order[n - 1]));
        if top > f64::INFINITY.to_bits() {
            // A NaN x: quieting its payload may break the valley.
            return (0..n)
                .max_by_key(|&i| (key(order[i]), order[i]))
                .expect("non-empty");
        }
        let mut head = 0;
        while head < n && key(order[head]) == top {
            head += 1;
        }
        let mut tail = n;
        while tail > head && key(order[tail - 1]) == top {
            tail -= 1;
        }
        (0..head)
            .chain(tail..n)
            .max_by_key(|&i| order[i])
            .expect("the largest distance sits at an end")
    }

    /// Removes the cell at `order[at]` as `Vec::swap_remove` does. The
    /// last cell moves into the hole, so its entry keeps its x and only
    /// slides down its run of equal x to its new position.
    fn remove(&mut self, at: usize) -> (CellId, f64) {
        let hole = self.order.remove(at);
        let last = (self.cells.len() - 1) as u32;
        if hole != last {
            let x = self.x(last);
            let mut k = self
                .order
                .partition_point(|&p| self.x(p).total_cmp(&x).then(p.cmp(&last)).is_lt());
            debug_assert_eq!(self.order[k], last);
            while k > 0
                && self.order[k - 1] > hole
                && self.x(self.order[k - 1]).to_bits() == x.to_bits()
            {
                self.order[k] = self.order[k - 1];
                k -= 1;
            }
            self.order[k] = hole;
        }
        self.cells.swap_remove(hole as usize)
    }

    /// Appends a cell; it follows every cell of equal x in `order`.
    fn push(&mut self, cell: CellId, x: f64) {
        let at = self
            .order
            .partition_point(|&p| self.x(p).total_cmp(&x).is_le());
        self.order.insert(at, self.cells.len() as u32);
        self.cells.push((cell, x));
    }
}

/// Runs the full detailed legalization pipeline.
pub(crate) fn detailed_legalize(netlist: &Netlist, die: &Die, placement: &mut Placement) {
    let macros: Vec<Rect> = netlist
        .macro_ids()
        .map(|m| placement.cell_rect(netlist, m))
        .collect();
    let segments = row_segments(die, &macros);

    // Slots in row order; row r's slots are `row_start[r]..row_start[r + 1]`.
    let mut slots: Vec<Slot> = Vec::new();
    let mut row_start = Vec::with_capacity(die.num_rows() + 1);
    for (row, segs) in segments.iter().enumerate() {
        row_start.push(slots.len());
        for &(s, e) in segs {
            slots.push(Slot {
                row,
                start: s,
                end: e,
                cells: Vec::new(),
                order: Vec::new(),
                load: 0.0,
            });
        }
    }
    row_start.push(slots.len());
    if slots.is_empty() {
        return;
    }

    // A cell's row is the one its lower edge snaps to.
    let row_of_snap = snapped_rows(die);
    let rh = die.row_height();
    // Every movable cell goes to the nearest slot of its nearest row; a
    // row without slots (under a macro) falls back to the first slot
    // above it, or the last slot of all. A slot of the row that holds
    // the cell where it stands is what `best_slot_near` picks first, at
    // cost 0. The slots are counted first so that each one's cells fit
    // exactly; in between, each cell's slot waits in its placement's y,
    // which is dead from here on: the last pass rewrites every movable
    // cell.
    let mut counts = vec![0u32; slots.len()];
    for cell in netlist.movable_cell_ids() {
        let pos = placement.get(cell);
        let w = netlist.cell(cell).width;
        let row = row_of_snap[die.snap_row(pos.y)];
        let (lo, hi) = (row_start[row], row_start[row + 1]);
        let slot = (lo..hi)
            .find(|&si| {
                let s = &slots[si];
                s.capacity() >= w && pos.x >= s.start && pos.x <= s.end - w
            })
            .or_else(|| best_slot_near(&slots, &row_start, rh, row, pos.x, w, false))
            .unwrap_or(lo.min(slots.len() - 1));
        counts[slot] += 1;
        slots[slot].load += w;
        placement.set(cell, Point::new(pos.x, slot as f64));
    }
    for (slot, &n) in slots.iter_mut().zip(&counts) {
        slot.cells = Vec::with_capacity(n as usize);
        slot.order = Vec::with_capacity(n as usize);
    }
    drop(counts);
    for cell in netlist.movable_cell_ids() {
        let pos = placement.get(cell);
        slots[pos.y as usize].cells.push((cell, pos.x));
    }
    for slot in &mut slots {
        slot.sort_order();
    }

    // Capacity balancing: shed overflow to the cheapest slot with spare.
    balance(netlist, rh, &mut slots, &row_start);

    // Order-preserving placement within each slot.
    let mut abacus = Abacus::default();
    for slot in &slots {
        abacus.cells.clear();
        abacus.cells.extend(slot.order.iter().map(|&p| {
            let (cell, x) = slot.cells[p as usize];
            (x, netlist.cell(cell).width)
        }));
        let xs = abacus.clump(slot.start, slot.end);
        let y = die.row(slot.row).y;
        for (&p, &x) in slot.order.iter().zip(xs) {
            placement.set(slot.cells[p as usize].0, Point::new(x, y));
        }
    }
}

/// Finds the slot nearest `(row, x)` that can hold a cell of width `w`
/// (`need_spare` additionally requires spare capacity), scanning rows
/// outward.
fn best_slot_near(
    slots: &[Slot],
    row_start: &[usize],
    row_height: f64,
    row: usize,
    x: f64,
    w: f64,
    need_spare: bool,
) -> Option<usize> {
    let n_rows = row_start.len() - 1;
    let mut best: Option<(f64, usize)> = None;
    for radius in 0..n_rows {
        // The rows `radius` away, below first; at radius 0 just `row`.
        let candidates = [
            row.checked_sub(radius),
            Some(row + radius).filter(|&r| radius > 0 && r < n_rows),
        ];
        if candidates == [None, None] {
            break;
        }
        for r in candidates.into_iter().flatten() {
            let (lo, hi) = (row_start[r], row_start[r + 1]);
            for (s, si) in slots[lo..hi].iter().zip(lo..) {
                if s.capacity() < w {
                    continue;
                }
                if need_spare && s.spare() < w {
                    continue;
                }
                let dx = if x < s.start {
                    s.start - x
                } else if x > s.end - w {
                    x - (s.end - w)
                } else {
                    0.0
                };
                let dy = radius as f64 * row_height;
                let cost = dx + dy;
                if best.map(|(c, _)| cost < c).unwrap_or(true) {
                    best = Some((cost, si));
                }
            }
        }
        // Any candidate found at this radius beats everything strictly
        // further out vertically unless its horizontal cost is huge; one
        // extra radius of slack keeps the search cheap yet near-optimal.
        if let Some((cost, _)) = best {
            if cost <= (radius as f64 + 1.0) * row_height {
                break;
            }
        }
    }
    best.map(|(_, si)| si)
}

/// Moves cells out of over-capacity slots into the cheapest slots with
/// spare room. Terminates because every move strictly decreases total
/// overflow (moves only target slots with spare ≥ cell width).
///
/// The victim is always the cell whose desired x is most extreme within
/// the slot: it sits nearest a boundary, so pushing it sideways (or to a
/// neighboring row at the same x) is the cheapest resolution. Selecting
/// victims by other criteria (e.g. widest-first) was measured to lose
/// 10-40% wirelength on the benchmark suite.
///
/// The first over-full slot is sought from a cursor: no slot before it
/// is over-full, and a move changes only its source and its target, so
/// the cursor steps back only to a target that tipped over.
fn balance(netlist: &Netlist, row_height: f64, slots: &mut [Slot], row_start: &[usize]) {
    let mut cursor = 0;
    while let Some(over) = slots[cursor..].iter().position(Slot::over_full) {
        let over = cursor + over;
        cursor = over;
        let at = slots[over].victim();
        let (cell, x) = slots[over].cells[slots[over].order[at] as usize];
        let w = netlist.cell(cell).width;
        let row = slots[over].row;
        // Exclude the overloaded slot itself by requiring spare.
        let target = best_slot_near(slots, row_start, row_height, row, x, w, true);
        let Some(target) = target else {
            // Nowhere to go: give up on balancing this slot (the final
            // legality check will report the residual overlap).
            break;
        };
        if target == over {
            break;
        }
        slots[over].remove(at);
        slots[over].load -= w;
        slots[target].push(cell, x);
        slots[target].load += w;
        if target < cursor && slots[target].over_full() {
            cursor = target;
        }
    }
}

/// One Abacus cluster.
#[derive(Debug, Clone, Copy)]
struct Cluster {
    /// Optimal unclamped position of the cluster's left edge, times
    /// `weight`.
    q: f64,
    weight: f64,
    width: f64,
    /// Index of the first cell in the cluster.
    first: usize,
    /// The left edge, `q / weight` clamped into the slot.
    pos: f64,
}

/// Abacus clumping with its buffers kept across slots: `cells` holds one
/// slot's ordered `(desired_x, width)`.
#[derive(Debug, Default)]
struct Abacus {
    cells: Vec<(f64, f64)>,
    clusters: Vec<Cluster>,
    xs: Vec<f64>,
}

impl Abacus {
    /// Places `cells` within `[lo, hi]` minimizing `Σ wᵢ·(xᵢ − desiredᵢ)²`
    /// subject to non-overlap and order preservation; returns their x.
    fn clump(&mut self, lo: f64, hi: f64) -> &[f64] {
        let cluster = |q: f64, weight: f64, width: f64, first: usize| Cluster {
            q,
            weight,
            width,
            first,
            pos: (q / weight).clamp(lo, (hi - width).max(lo)),
        };
        let clusters = &mut self.clusters;
        clusters.clear();
        for (i, &(x, w)) in self.cells.iter().enumerate() {
            let mut c = cluster(w * x, w, w, i);
            // Merge with previous clusters while they overlap.
            while let Some(prev) = clusters.last() {
                if prev.pos + prev.width <= c.pos + 1e-12 {
                    break;
                }
                // Merge c into prev: cells of c sit at offset prev.width.
                c = cluster(
                    prev.q + c.q - c.weight * prev.width,
                    prev.weight + c.weight,
                    prev.width + c.width,
                    prev.first,
                );
                clusters.pop();
            }
            clusters.push(c);
        }

        self.xs.clear();
        for (ci, c) in clusters.iter().enumerate() {
            let last = clusters.get(ci + 1).map_or(self.cells.len(), |n| n.first);
            let mut cursor = c.pos;
            for &(_, w) in &self.cells[c.first..last] {
                self.xs.push(cursor);
                cursor += w;
            }
        }
        &self.xs
    }
}

/// The detailed legalizer before its slots kept an x-ordered index: an
/// O(slot) victim scan per `balance` move, a rescan for the first
/// over-full slot, and a stable sort of every slot at the end. Kept
/// verbatim as the oracle the current pipeline must match bit for bit.
#[cfg(test)]
pub(crate) mod reference {
    use crate::occupancy::row_segments;
    use dpm_geom::{Point, Rect};
    use dpm_netlist::{CellId, Netlist};
    use dpm_place::{Die, Placement};

    /// One usable row segment with its assigned cells.
    #[derive(Debug)]
    struct Slot {
        row: usize,
        start: f64,
        end: f64,
        /// (cell, desired x) assignments.
        cells: Vec<(CellId, f64)>,
        load: f64,
    }

    impl Slot {
        fn capacity(&self) -> f64 {
            self.end - self.start
        }
        fn spare(&self) -> f64 {
            self.capacity() - self.load
        }
    }

    /// Runs the full detailed legalization pipeline.
    pub(crate) fn detailed_legalize(netlist: &Netlist, die: &Die, placement: &mut Placement) {
        let macros: Vec<Rect> = netlist
            .macro_ids()
            .map(|m| placement.cell_rect(netlist, m))
            .collect();
        let segments = row_segments(die, &macros);

        // Build slots and an index from row -> slot range.
        let mut slots: Vec<Slot> = Vec::new();
        let mut row_slots: Vec<Vec<usize>> = vec![Vec::new(); die.num_rows()];
        for (row, segs) in segments.iter().enumerate() {
            for &(s, e) in segs {
                row_slots[row].push(slots.len());
                slots.push(Slot {
                    row,
                    start: s,
                    end: e,
                    cells: Vec::new(),
                    load: 0.0,
                });
            }
        }
        if slots.is_empty() {
            return;
        }

        // Assign every movable cell to the nearest slot of its nearest row.
        for cell in netlist.movable_cell_ids() {
            let pos = placement.get(cell);
            let w = netlist.cell(cell).width;
            let row = die.row_of_y(die.snap_y(pos.y) + 1e-9);
            let slot = best_slot_near(&slots, &row_slots, die, row, pos.x, w, false)
                .unwrap_or_else(|| row_slots[row][0]);
            slots[slot].cells.push((cell, pos.x));
            slots[slot].load += w;
        }

        // Capacity balancing: shed overflow to the cheapest slot with spare.
        balance(netlist, die, &mut slots, &row_slots);

        // Order-preserving placement within each slot.
        for slot in &mut slots {
            slot.cells.sort_by(|a, b| a.1.total_cmp(&b.1));
            let xs = abacus_clump(
                &slot
                    .cells
                    .iter()
                    .map(|&(c, x)| (x, netlist.cell(c).width))
                    .collect::<Vec<_>>(),
                slot.start,
                slot.end,
            );
            let y = die.row(slot.row).y;
            for (&(cell, _), &x) in slot.cells.iter().zip(&xs) {
                placement.set(cell, Point::new(x, y));
            }
        }
    }

    /// Finds the slot nearest `(row, x)` that can hold a cell of width `w`
    /// (`need_spare` additionally requires spare capacity), scanning rows
    /// outward.
    fn best_slot_near(
        slots: &[Slot],
        row_slots: &[Vec<usize>],
        die: &Die,
        row: usize,
        x: f64,
        w: f64,
        need_spare: bool,
    ) -> Option<usize> {
        let n_rows = row_slots.len();
        let mut best: Option<(f64, usize)> = None;
        for radius in 0..n_rows {
            // The rows `radius` away, below first; at radius 0 just `row`.
            let candidates = [
                row.checked_sub(radius),
                Some(row + radius).filter(|&r| radius > 0 && r < n_rows),
            ];
            if candidates == [None, None] {
                break;
            }
            for r in candidates.into_iter().flatten() {
                for &si in &row_slots[r] {
                    let s = &slots[si];
                    if s.capacity() < w {
                        continue;
                    }
                    if need_spare && s.spare() < w {
                        continue;
                    }
                    let dx = if x < s.start {
                        s.start - x
                    } else if x > s.end - w {
                        x - (s.end - w)
                    } else {
                        0.0
                    };
                    let dy = radius as f64 * die.row_height();
                    let cost = dx + dy;
                    if best.map(|(c, _)| cost < c).unwrap_or(true) {
                        best = Some((cost, si));
                    }
                }
            }
            // Any candidate found at this radius beats everything strictly
            // further out vertically unless its horizontal cost is huge; one
            // extra radius of slack keeps the search cheap yet near-optimal.
            if let Some((cost, _)) = best {
                if cost <= (radius as f64 + 1.0) * die.row_height() {
                    break;
                }
            }
        }
        best.map(|(_, si)| si)
    }

    /// Moves cells out of over-capacity slots into the cheapest slots with
    /// spare room. Terminates because every move strictly decreases total
    /// overflow (moves only target slots with spare ≥ cell width).
    ///
    /// The victim is always the cell whose desired x is most extreme within
    /// the slot: it sits nearest a boundary, so pushing it sideways (or to a
    /// neighboring row at the same x) is the cheapest resolution. Selecting
    /// victims by other criteria (e.g. widest-first) was measured to lose
    /// 10-40% wirelength on the benchmark suite.
    #[allow(clippy::while_let_loop)]
    fn balance(netlist: &Netlist, die: &Die, slots: &mut [Slot], row_slots: &[Vec<usize>]) {
        loop {
            let Some(over) = slots
                .iter()
                .position(|s| s.load > s.capacity() + 1e-9 && !s.cells.is_empty())
            else {
                break;
            };
            let (idx, &(cell, x)) = {
                let s = &slots[over];
                let mid = (s.start + s.end) / 2.0;
                s.cells
                    .iter()
                    .enumerate()
                    .max_by(|a, b| (a.1 .1 - mid).abs().total_cmp(&(b.1 .1 - mid).abs()))
                    .expect("non-empty")
            };
            let w = netlist.cell(cell).width;
            let row = slots[over].row;
            // Exclude the overloaded slot itself by requiring spare.
            let target = best_slot_near(slots, row_slots, die, row, x, w, true);
            let Some(target) = target else {
                // Nowhere to go: give up on balancing this slot (the final
                // legality check will report the residual overlap).
                break;
            };
            if target == over {
                break;
            }
            slots[over].cells.swap_remove(idx);
            slots[over].load -= w;
            slots[target].cells.push((cell, x));
            slots[target].load += w;
        }
    }

    /// Abacus clumping: places ordered cells `(desired_x, width)` within
    /// `[lo, hi]` minimizing `Σ wᵢ·(xᵢ − desiredᵢ)²` subject to
    /// non-overlap and order preservation.
    pub(crate) fn abacus_clump(cells: &[(f64, f64)], lo: f64, hi: f64) -> Vec<f64> {
        #[derive(Debug, Clone, Copy)]
        struct Cluster {
            /// Optimal unclamped position of the cluster's left edge.
            q: f64,
            weight: f64,
            width: f64,
            /// Index of the first cell in the cluster.
            first: usize,
        }

        let mut clusters: Vec<Cluster> = Vec::new();
        for (i, &(x, w)) in cells.iter().enumerate() {
            let mut c = Cluster {
                q: w * x,
                weight: w,
                width: w,
                first: i,
            };
            // Merge with previous clusters while they overlap.
            #[allow(clippy::while_let_loop)]
            loop {
                let Some(prev) = clusters.last() else { break };
                let prev_pos = (prev.q / prev.weight).clamp(lo, (hi - prev.width).max(lo));
                let cur_pos = (c.q / c.weight).clamp(lo, (hi - c.width).max(lo));
                if prev_pos + prev.width <= cur_pos + 1e-12 {
                    break;
                }
                // Merge c into prev: cells of c sit at offset prev.width.
                let prev = clusters.pop().expect("non-empty");
                c = Cluster {
                    q: prev.q + c.q - c.weight * prev.width,
                    weight: prev.weight + c.weight,
                    width: prev.width + c.width,
                    first: prev.first,
                };
            }
            clusters.push(c);
        }

        let mut xs = vec![0.0; cells.len()];
        for (ci, c) in clusters.iter().enumerate() {
            let pos = (c.q / c.weight).clamp(lo, (hi - c.width).max(lo));
            let last = clusters.get(ci + 1).map(|n| n.first).unwrap_or(cells.len());
            let mut cursor = pos;
            for i in c.first..last {
                xs[i] = cursor;
                cursor += cells[i].1;
            }
        }
        xs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util;
    use dpm_place::{check_legality, hpwl, MovementStats};

    use dpm_diffusion::{DiffusionConfig, GlobalDiffusion};
    use dpm_gen::{CircuitSpec, InflationSpec};
    use dpm_netlist::NetlistBuilder;
    use dpm_rng::Rng;

    fn abacus_clump(cells: &[(f64, f64)], lo: f64, hi: f64) -> Vec<f64> {
        let mut abacus = Abacus::default();
        abacus.cells.extend_from_slice(cells);
        abacus.clump(lo, hi).to_vec()
    }

    /// Heap use of the current thread, so that tests running in parallel
    /// do not mix.
    mod heap {
        use std::alloc::{GlobalAlloc, Layout, System};
        use std::cell::Cell;

        thread_local! {
            static LIVE: Cell<isize> = const { Cell::new(0) };
            static PEAK: Cell<isize> = const { Cell::new(0) };
        }

        fn note(delta: isize) {
            let _ = LIVE.try_with(|live| {
                let now = live.get() + delta;
                live.set(now);
                let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
            });
        }

        struct Counting;

        // SAFETY: every call forwards to `System` unchanged; the tally
        // only reads the layouts.
        unsafe impl GlobalAlloc for Counting {
            unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
                let ptr = System.alloc(layout);
                if !ptr.is_null() {
                    note(layout.size() as isize);
                }
                ptr
            }
            unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
                let ptr = System.alloc_zeroed(layout);
                if !ptr.is_null() {
                    note(layout.size() as isize);
                }
                ptr
            }
            unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
                System.dealloc(ptr, layout);
                note(-(layout.size() as isize));
            }
            /// Counted as a fresh block, then the old one freed: the
            /// worst case, when the block moves.
            unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
                let new = System.realloc(ptr, layout, new_size);
                if !new.is_null() {
                    note(new_size as isize);
                    note(-(layout.size() as isize));
                }
                new
            }
        }

        #[global_allocator]
        static COUNTING: Counting = Counting;

        /// The most heap this thread held beyond what it held on entry
        /// while `f` ran, in bytes.
        pub fn peak_during(f: impl FnOnce()) -> usize {
            let base = LIVE.with(Cell::get);
            PEAK.with(|peak| peak.set(base));
            f();
            (PEAK.with(Cell::get) - base) as usize
        }
    }

    fn bits(p: &Placement) -> Vec<(u64, u64)> {
        p.as_slice()
            .iter()
            .map(|q| (q.x.to_bits(), q.y.to_bits()))
            .collect()
    }

    /// Runs the reference and the current legalizer on copies of `p` and
    /// asserts that they place every cell on the same bits.
    fn assert_matches_reference(nl: &Netlist, die: &Die, p: &Placement, what: &str) {
        let mut want = p.clone();
        reference::detailed_legalize(nl, die, &mut want);
        let mut got = p.clone();
        detailed_legalize(nl, die, &mut got);
        let (want, got) = (bits(&want), bits(&got));
        if let Some(i) = (0..want.len()).find(|&i| want[i] != got[i]) {
            panic!(
                "{what}: cell {i} placed at {:?}, the reference at {:?}",
                got[i], want[i]
            );
        }
    }

    /// `nl` and `p` with the cells in a random order.
    fn shuffled(nl: &Netlist, p: &Placement, rng: &mut Rng) -> (Netlist, Placement) {
        let mut order: Vec<CellId> = nl.cell_ids().collect();
        rng.shuffle(&mut order);
        let mut b = NetlistBuilder::with_capacity(order.len(), 0, 0);
        let mut q = Placement::new(order.len());
        for &old in &order {
            let c = nl.cell(old);
            let new = b.add_cell(c.name.clone(), c.width, c.height, c.kind);
            q.set(new, p.get(old));
        }
        (b.build().expect("the same valid cells"), q)
    }

    /// An input built to reach `balance`'s tie rules: an inflated small
    /// circuit (over-full rows), two macros on every third seed, a third
    /// of the cells jittered (off-row y, off-die x), a tenth moved onto
    /// another cell's desired position, pairs of cells symmetric about
    /// the die's midpoint beyond both ends of a row (with a third cell
    /// on one of them half the time), and on odd seeds the cell order
    /// shuffled.
    fn tie_case(seed: u64) -> (Netlist, Die, Placement) {
        let mut spec = CircuitSpec::small(seed);
        if seed.is_multiple_of(3) {
            spec = spec.with_macros(2);
        }
        let mut bench = spec.generate();
        bench.inflate(&if seed.is_multiple_of(2) {
            InflationSpec::distributed(0.25, seed ^ 0x5EED)
        } else {
            InflationSpec::centered(0.15, 0.3, seed ^ 0x5EED)
        });
        let (nl, die, mut p) = (bench.netlist, bench.die, bench.placement);
        let mut rng = Rng::seed_from_u64(seed ^ 0x71E5);
        let movable: Vec<CellId> = nl.movable_cell_ids().collect();
        let pick = |rng: &mut Rng| movable[rng.random_range(0..movable.len())];
        for &c in &movable {
            if rng.random_bool(0.3) {
                let q = p.get(c);
                let (dx, dy) = (rng.random_range(-8.0..8.0), rng.random_range(-7.0..7.0));
                p.set(c, Point::new(q.x + dx, q.y + dy));
            }
        }
        for _ in 0..movable.len() / 10 {
            let (a, b) = (pick(&mut rng), pick(&mut rng));
            p.set(a, p.get(b));
        }
        let outline = die.outline();
        let mid = (outline.llx + outline.urx) / 2.0;
        let mut ties = 0;
        for _ in 0..40 {
            let y = die.row(rng.random_range(0..die.num_rows())).y;
            let d = outline.width() / 2.0 + rng.random_range(0..6) as f64;
            let (lo, hi) = (mid - d, mid + d);
            if (lo - mid).abs() != (hi - mid).abs() {
                continue;
            }
            ties += 1;
            p.set(pick(&mut rng), Point::new(lo, y));
            p.set(pick(&mut rng), Point::new(hi, y));
            if rng.random_bool(0.5) {
                let x = if rng.random_bool(0.5) { lo } else { hi };
                p.set(pick(&mut rng), Point::new(x, y));
            }
        }
        assert!(ties > 0, "seed {seed}: no symmetric pair");
        let mut load = vec![0.0; die.num_rows()];
        for &c in &movable {
            load[die.snap_row(p.get(c).y)] += nl.cell(c).width;
        }
        assert!(
            load.iter().any(|&l| l > outline.width()),
            "seed {seed}: no over-full row"
        );
        if seed % 2 == 1 {
            let (nl, p) = shuffled(&nl, &p, &mut rng);
            return (nl, die, p);
        }
        (nl, die, p)
    }

    #[test]
    fn matches_reference_bit_for_bit() {
        for seed in 0..36 {
            let (nl, die, p) = tie_case(seed);
            assert_matches_reference(&nl, &die, &p, &format!("seed {seed}"));
        }
    }

    #[test]
    fn matches_reference_after_diffusion() {
        for seed in 0..4u64 {
            let mut bench = if seed.is_multiple_of(2) {
                test_util::inflated_small(40 + seed)
            } else {
                test_util::with_macros(40 + seed)
            };
            let cfg = DiffusionConfig::default().with_bin_size(2.5 * bench.die.row_height());
            GlobalDiffusion::new(cfg).run(&bench.netlist, &bench.die, &mut bench.placement);
            let what = format!("seed {seed}");
            assert_matches_reference(&bench.netlist, &bench.die, &bench.placement, &what);
            let mut rng = Rng::seed_from_u64(seed);
            let (nl, p) = shuffled(&bench.netlist, &bench.placement, &mut rng);
            assert_matches_reference(&nl, &bench.die, &p, &format!("{what}, shuffled"));
        }
    }

    #[test]
    fn non_finite_input_does_not_panic() {
        // The third case puts a signalling NaN next to a quiet one in an
        // over-full row.
        let signalling = f64::from_bits(0x7FF4_0000_0000_0000);
        let cases = [
            (f64::NAN, f64::INFINITY, f64::NAN),
            (-f64::NAN, f64::NEG_INFINITY, -f64::NAN),
            (signalling, f64::INFINITY, f64::NAN),
        ];
        for (nan, inf, second) in cases {
            let mut bench = test_util::inflated_small(26);
            let cells: Vec<CellId> = bench.netlist.movable_cell_ids().collect();
            let p = &mut bench.placement;
            let y = p.get(cells[0]).y;
            p.set(cells[0], Point::new(nan, y));
            p.set(cells[1], Point::new(inf, p.get(cells[1]).y));
            p.set(cells[2], Point::new(p.get(cells[2]).x, f64::NAN));
            p.set(cells[3], Point::new(second, y));
            for &c in &cells[4..60] {
                p.set(c, Point::new(p.get(c).x, y));
            }
            let (nl, die) = (&bench.netlist, &bench.die);
            assert!(!check_legality(nl, die, &bench.placement, usize::MAX).is_legal());
            assert_matches_reference(nl, die, &bench.placement, &format!("{nan} / {inf}"));
            let outcome = DetailedLegalizer::new().legalize(nl, die, &mut bench.placement);
            assert!(!outcome.is_legal, "{outcome}");
        }
    }

    /// A move only targets a slot with spare ≥ w, yet rounding can tip
    /// that slot over: on a row 2³³ + 3u wide (u = 2⁻¹⁹, its ulp) that
    /// holds a 1.5u cell, the spare rounds to 2³³ + 2u and the load after
    /// taking a cell that wide rounds to 2³³ + 4u. The target (row 0)
    /// precedes the over-full slot (row 1), so `balance` must step back
    /// to it, as the reference's rescan from slot 0 does.
    #[test]
    fn balance_returns_to_a_target_that_rounding_tipped_over() {
        let u = 2f64.powi(-19);
        let width = 2f64.powi(33) + 3.0 * u;
        let mut b = NetlistBuilder::new();
        let tiny = b.add_cell("tiny", 1.5 * u, 12.0, dpm_netlist::CellKind::Movable);
        let wide = [0, 1].map(|i| {
            b.add_cell(
                format!("wide{i}"),
                2f64.powi(33) + 2.0 * u,
                12.0,
                dpm_netlist::CellKind::Movable,
            )
        });
        let nl = b.build().expect("valid");
        let die = Die::new(width, 36.0, 12.0);
        let mut p = Placement::new(nl.num_cells());
        p.set(tiny, Point::new(0.0, 0.0));
        for c in wide {
            p.set(c, Point::new(0.0, 12.0));
        }
        assert_matches_reference(&nl, &die, &p, "tipped target");
    }

    /// A cell wider than every segment, in a row a macro covers, has no
    /// slot to go to; the reference indexed the row's empty slot list
    /// and panicked.
    #[test]
    fn a_cell_with_no_slot_does_not_panic() {
        let mut b = NetlistBuilder::new();
        let wide = b.add_cell("wide", 150.0, 12.0, dpm_netlist::CellKind::Movable);
        let small = b.add_cell("small", 4.0, 12.0, dpm_netlist::CellKind::Movable);
        let block = b.add_cell("block", 100.0, 12.0, dpm_netlist::CellKind::FixedMacro);
        let nl = b.build().expect("valid");
        let die = Die::new(100.0, 36.0, 12.0);
        let mut p = Placement::new(nl.num_cells());
        p.set(wide, Point::new(0.0, 12.0));
        p.set(small, Point::new(10.0, 12.0));
        p.set(block, Point::new(0.0, 12.0));
        let outcome = DetailedLegalizer::new().legalize(&nl, &die, &mut p);
        assert!(!outcome.is_legal, "{outcome}");
        assert_ne!(p.get(small).y, 12.0, "the small cell left the covered row");
    }

    /// A slot against what the reference keeps: a `Vec` that `balance`
    /// picks victims from by `max_by` and `swap_remove`s them from, and
    /// stable-sorts by x at the end. The x values repeat, sit in pairs
    /// symmetric about the midpoint (5) and include ±0, ±∞ and NaNs; a
    /// signalling NaN turns quiet in `x − mid`, which can put a larger
    /// distance inside `order` than at its ends.
    #[test]
    fn slot_matches_a_plain_vec() {
        let values = [
            0.0,
            -0.0,
            1.0,
            2.5,
            7.5,
            10.0,
            -3.0,
            13.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7FF4_0000_0000_0000),
        ];
        let bits = |cells: &[(CellId, f64)]| -> Vec<(CellId, u64)> {
            cells.iter().map(|&(c, x)| (c, x.to_bits())).collect()
        };
        let mut rng = Rng::seed_from_u64(7);
        let mut next = 0u32;
        for _ in 0..300 {
            let x = |rng: &mut Rng| {
                if rng.random_bool(0.7) {
                    values[rng.random_range(0..values.len())]
                } else {
                    rng.random_range(-5.0..15.0)
                }
            };
            let mut slot = Slot {
                row: 0,
                start: 0.0,
                end: 10.0,
                cells: Vec::new(),
                order: Vec::new(),
                load: 0.0,
            };
            for _ in 0..rng.random_range(1..40) {
                slot.cells.push((CellId::new(next), x(&mut rng)));
                next += 1;
            }
            let mut plain = slot.cells.clone();
            slot.sort_order();
            for _ in 0..60 {
                if rng.random_bool(0.5) && !plain.is_empty() {
                    let want = plain
                        .iter()
                        .enumerate()
                        .max_by(|a, b| (a.1 .1 - 5.0).abs().total_cmp(&(b.1 .1 - 5.0).abs()))
                        .map(|(i, _)| i)
                        .expect("non-empty");
                    let at = slot.victim();
                    assert_eq!(slot.order[at] as usize, want);
                    let (cell, x) = slot.remove(at);
                    let (want_cell, want_x) = plain.swap_remove(want);
                    assert_eq!((cell, x.to_bits()), (want_cell, want_x.to_bits()));
                } else {
                    let cell = CellId::new(next);
                    next += 1;
                    let at = x(&mut rng);
                    slot.push(cell, at);
                    plain.push((cell, at));
                }
                assert_eq!(bits(&slot.cells), bits(&plain));
                let mut sorted = plain.clone();
                sorted.sort_by(|a, b| a.1.total_cmp(&b.1));
                let ordered: Vec<_> = slot.order.iter().map(|&p| slot.cells[p as usize]).collect();
                assert_eq!(bits(&ordered), bits(&sorted));
            }
        }
    }

    #[test]
    fn heap_peak_stays_near_reference() {
        let mut bench = CircuitSpec::with_size("ckt", 14_000, 31)
            .with_utilization(0.55)
            .with_local_utilization(0.97)
            .with_clusters_per_gap(6)
            .generate();
        bench.inflate(&InflationSpec::distributed(0.25, 31 ^ 0x5EED));
        let (nl, die) = (&bench.netlist, &bench.die);
        let mut want = bench.placement.clone();
        let reference = heap::peak_during(|| reference::detailed_legalize(nl, die, &mut want));
        let mut got = bench.placement.clone();
        let current = heap::peak_during(|| detailed_legalize(nl, die, &mut got));
        assert!(bits(&got) == bits(&want), "placements differ");
        eprintln!("peak heap: {current} B, reference {reference} B");
        assert!(
            current * 4 <= reference * 5,
            "peak heap {current} B against the reference's {reference} B"
        );
    }

    #[test]
    fn clump_no_overlap_is_identity() {
        let cells = vec![(0.0, 5.0), (10.0, 5.0), (20.0, 5.0)];
        let xs = abacus_clump(&cells, 0.0, 100.0);
        assert_eq!(xs, vec![0.0, 10.0, 20.0]);
    }

    #[test]
    fn clump_resolves_overlap_symmetrically() {
        // Two 10-wide cells both wanting x = 10: they split around it.
        let cells = vec![(10.0, 10.0), (10.0, 10.0)];
        let xs = abacus_clump(&cells, 0.0, 100.0);
        assert!((xs[0] - 5.0).abs() < 1e-9, "{xs:?}");
        assert!((xs[1] - 15.0).abs() < 1e-9, "{xs:?}");
    }

    #[test]
    fn clump_respects_bounds() {
        let cells = vec![(-5.0, 10.0), (-2.0, 10.0)];
        let xs = abacus_clump(&cells, 0.0, 100.0);
        assert!(xs[0] >= 0.0);
        assert_eq!(xs[1], xs[0] + 10.0);
        let cells = vec![(95.0, 10.0), (99.0, 10.0)];
        let xs = abacus_clump(&cells, 0.0, 100.0);
        assert!(xs[1] + 10.0 <= 100.0 + 1e-9);
    }

    #[test]
    fn clump_preserves_order() {
        let cells = vec![(50.0, 8.0), (50.0, 4.0), (51.0, 6.0), (80.0, 4.0)];
        let xs = abacus_clump(&cells, 0.0, 200.0);
        for w in xs.windows(2) {
            assert!(w[0] < w[1], "order violated: {xs:?}");
        }
    }

    #[test]
    fn clump_packed_row_exactly_fits() {
        let cells: Vec<(f64, f64)> = (0..10).map(|i| (i as f64 * 3.0, 10.0)).collect();
        let xs = abacus_clump(&cells, 0.0, 100.0);
        assert!(xs[0] >= -1e-9);
        assert!(xs[9] + 10.0 <= 100.0 + 1e-9);
        for (w, pair) in xs.windows(2).enumerate() {
            assert!(pair[1] - pair[0] >= 10.0 - 1e-9, "overlap at {w}");
        }
    }

    #[test]
    fn legalizes_inflated_benchmark() {
        let mut bench = test_util::inflated_small(21);
        let outcome =
            DetailedLegalizer::new().legalize(&bench.netlist, &bench.die, &mut bench.placement);
        assert!(outcome.is_legal, "{outcome}");
    }

    #[test]
    fn legalizes_hotspot_benchmark() {
        let mut bench = test_util::hotspot_small(22);
        let outcome =
            DetailedLegalizer::new().legalize(&bench.netlist, &bench.die, &mut bench.placement);
        assert!(outcome.is_legal, "{outcome}");
    }

    #[test]
    fn respects_macros() {
        let mut bench = test_util::with_macros(23);
        let outcome =
            DetailedLegalizer::new().legalize(&bench.netlist, &bench.die, &mut bench.placement);
        assert!(outcome.is_legal, "{outcome}");
    }

    #[test]
    fn legal_input_barely_moves() {
        let bench = dpm_gen::CircuitSpec::small(24).generate();
        let mut p = bench.placement.clone();
        DetailedLegalizer::new().legalize(&bench.netlist, &bench.die, &mut p);
        let m = MovementStats::between(&bench.netlist, &bench.placement, &p);
        // Already legal: nothing should move at all.
        assert_eq!(m.moved, 0, "moved {} cells", m.moved);
    }

    #[test]
    fn wirelength_stays_sane() {
        let mut bench = test_util::inflated_small(25);
        let before = hpwl(&bench.netlist, &bench.placement);
        DetailedLegalizer::new().legalize(&bench.netlist, &bench.die, &mut bench.placement);
        let after = hpwl(&bench.netlist, &bench.placement);
        assert!(
            after < before * 1.6,
            "wirelength blew up: {before} -> {after}"
        );
        let report = check_legality(&bench.netlist, &bench.die, &bench.placement, 3);
        assert!(report.is_legal(), "{report}");
    }
}
