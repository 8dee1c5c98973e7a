//! ECO deltas: the incremental request payload of wire v3.
//!
//! A physical-synthesis loop changes only a sliver of the design per
//! iteration — a few cells resized by gate repowering, a few moved, a
//! few buffers inserted. Instead of re-shipping the whole netlist, a
//! client uploads the baseline design once ([`PutDesign`]), then each
//! iteration sends a [`DeltaJobRequest`] naming that baseline by its
//! FNV content hash plus an [`EcoDelta`] describing the edits. The
//! server applies the delta to its cached parsed baseline and runs an
//! ordinary job.
//!
//! # Why deltas carry geometry only
//!
//! An [`EcoDelta`] records cell **geometry** edits (resize, move, add)
//! and deliberately ignores net connectivity. The diffusion engines in
//! `dpm-core` never read nets or pins — placement migration depends
//! only on cell rectangles, the die, and the starting positions — so a
//! delta-applied design produces a placement *bit-identical* to
//! resending the fully modified design, even when the modification also
//! rewired nets (e.g. buffer insertion). The e2e suite pins this.
//! Added cells therefore enter the applied netlist with no pins; pin
//! offsets of resized cells are kept from the baseline.
//!
//! [`PutDesign`]: crate::wire::PutDesign

use std::error::Error;
use std::fmt;

use dpm_diffusion::DiffusionConfig;
use dpm_geom::Point;
use dpm_netlist::{CellKind, Netlist, NetlistBuilder};
use dpm_place::{Die, Placement};

use crate::wire::{
    cell_kind_from_u8, cell_kind_to_u8, put_config, put_ext, put_f64, put_str, put_trace, put_u32,
    put_u64, put_u8, solver_kind_from_u8, take_config, take_trace, Cur, JobKind, JobRequest,
    WireError, TAG_TRACE,
};
use dpm_obs::TraceContext;

/// A width/height change to an existing baseline cell (gate repowering).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellResize {
    /// Index of the cell in the baseline netlist.
    pub cell: u32,
    /// New width (exact `f64` bit pattern travels on the wire).
    pub width: f64,
    /// New height.
    pub height: f64,
}

/// A position change to an existing baseline cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellMove {
    /// Index of the cell in the baseline netlist.
    pub cell: u32,
    /// New lower-left x.
    pub x: f64,
    /// New lower-left y.
    pub y: f64,
}

/// A cell that exists in the modified design but not the baseline
/// (buffer insertion). Appended after the baseline cells, in order, so
/// baseline cell indices are stable.
#[derive(Debug, Clone, PartialEq)]
pub struct NewCell {
    /// Instance name.
    pub name: String,
    /// Width.
    pub width: f64,
    /// Height.
    pub height: f64,
    /// Movability class.
    pub kind: CellKind,
    /// Intrinsic delay.
    pub delay: f64,
    /// Initial lower-left x.
    pub x: f64,
    /// Initial lower-left y.
    pub y: f64,
}

/// The cell-geometry edits of one ECO iteration, applied to a cached
/// baseline design. See the module docs for why nets are not carried.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EcoDelta {
    /// Cells whose width/height changed.
    pub resized: Vec<CellResize>,
    /// Cells whose position changed.
    pub moved: Vec<CellMove>,
    /// Cells added after the baseline's last cell.
    pub added: Vec<NewCell>,
}

/// Errors applying or deriving a delta.
#[derive(Debug)]
pub enum DeltaError {
    /// A resize or move names a cell index outside the baseline.
    CellOutOfRange {
        /// The offending index.
        cell: u32,
        /// Baseline cell count.
        num_cells: usize,
    },
    /// A geometry value is not finite or a dimension is not positive.
    BadGeometry {
        /// Which entry was bad.
        context: &'static str,
    },
    /// `diff` was asked to compare designs that do not share a baseline
    /// prefix (cell count shrank, or a prefix cell's name/kind changed).
    IncompatibleBase {
        /// What mismatched.
        detail: String,
    },
    /// The rebuilt netlist failed validation.
    Rebuild(String),
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::CellOutOfRange { cell, num_cells } => {
                write!(f, "delta names cell {cell} but baseline has {num_cells}")
            }
            DeltaError::BadGeometry { context } => {
                write!(f, "non-finite or non-positive geometry in {context}")
            }
            DeltaError::IncompatibleBase { detail } => {
                write!(f, "designs do not share a baseline prefix: {detail}")
            }
            DeltaError::Rebuild(e) => write!(f, "rebuilding netlist from delta failed: {e}"),
        }
    }
}

impl Error for DeltaError {}

impl EcoDelta {
    /// `true` when the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.resized.is_empty() && self.moved.is_empty() && self.added.is_empty()
    }

    /// Applies this delta to a baseline design, producing the modified
    /// netlist and placement. The die is unchanged by construction.
    ///
    /// The baseline's nets and pins are copied verbatim (pin offsets of
    /// resized cells included) and added cells carry no pins — see the
    /// module docs for why this still yields bit-identical placements.
    ///
    /// # Errors
    ///
    /// [`DeltaError::CellOutOfRange`] / [`DeltaError::BadGeometry`] on
    /// an invalid delta, [`DeltaError::Rebuild`] if the edited netlist
    /// fails validation.
    pub fn apply(
        &self,
        base_nl: &Netlist,
        base_pl: &Placement,
    ) -> Result<(Netlist, Placement), DeltaError> {
        let n = base_nl.num_cells();
        for r in &self.resized {
            if r.cell as usize >= n {
                return Err(DeltaError::CellOutOfRange {
                    cell: r.cell,
                    num_cells: n,
                });
            }
            if !(r.width.is_finite() && r.width > 0.0 && r.height.is_finite() && r.height > 0.0) {
                return Err(DeltaError::BadGeometry { context: "resize" });
            }
        }
        for m in &self.moved {
            if m.cell as usize >= n {
                return Err(DeltaError::CellOutOfRange {
                    cell: m.cell,
                    num_cells: n,
                });
            }
            if !(m.x.is_finite() && m.y.is_finite()) {
                return Err(DeltaError::BadGeometry { context: "move" });
            }
        }
        for a in &self.added {
            if !(a.width.is_finite()
                && a.width > 0.0
                && a.height.is_finite()
                && a.height > 0.0
                && a.x.is_finite()
                && a.y.is_finite())
            {
                return Err(DeltaError::BadGeometry { context: "add" });
            }
        }

        // Dense lookup of edits by baseline index (last write wins, so a
        // delta may carry several edits of the same cell).
        let mut new_size: Vec<Option<(f64, f64)>> = vec![None; n];
        for r in &self.resized {
            new_size[r.cell as usize] = Some((r.width, r.height));
        }
        let mut new_pos: Vec<Option<Point>> = vec![None; n];
        for m in &self.moved {
            new_pos[m.cell as usize] = Some(Point::new(m.x, m.y));
        }

        let total = n + self.added.len();
        let mut b = NetlistBuilder::with_capacity(total, base_nl.num_nets(), base_nl.num_pins());
        for c in base_nl.cell_ids() {
            let cell = base_nl.cell(c);
            let (w, h) = new_size[c.index()].unwrap_or((cell.width, cell.height));
            b.add_cell_with_delay(cell.name.clone(), w, h, cell.kind, cell.delay);
        }
        for a in &self.added {
            b.add_cell_with_delay(a.name.clone(), a.width, a.height, a.kind, a.delay);
        }
        for nid in base_nl.net_ids() {
            let net = base_nl.net(nid);
            let new_net = b.add_net(net.name.clone());
            for &pid in &net.pins {
                let pin = base_nl.pin(pid);
                b.connect(pin.cell, new_net, pin.dir, pin.offset.x, pin.offset.y);
            }
        }
        let netlist = b.build().map_err(|e| DeltaError::Rebuild(e.to_string()))?;

        let mut placement = Placement::new(total);
        for c in base_nl.cell_ids() {
            let pos = new_pos[c.index()].unwrap_or_else(|| base_pl.get(c));
            placement.as_mut_slice()[c.index()] = pos;
        }
        for (i, a) in self.added.iter().enumerate() {
            placement.as_mut_slice()[n + i] = Point::new(a.x, a.y);
        }
        Ok((netlist, placement))
    }

    /// Derives the delta that turns `base` into `modified`, comparing
    /// `f64` values by bit pattern so applying the result reproduces the
    /// modified geometry exactly.
    ///
    /// The modified design must extend the baseline: at least as many
    /// cells, with every baseline-prefix cell keeping its name and
    /// kind. Net changes are intentionally not diffed (module docs).
    ///
    /// # Errors
    ///
    /// [`DeltaError::IncompatibleBase`] when the designs do not share a
    /// baseline prefix.
    pub fn diff(
        base_nl: &Netlist,
        base_pl: &Placement,
        mod_nl: &Netlist,
        mod_pl: &Placement,
    ) -> Result<EcoDelta, DeltaError> {
        let n = base_nl.num_cells();
        if mod_nl.num_cells() < n {
            return Err(DeltaError::IncompatibleBase {
                detail: format!(
                    "modified design has {} cells, baseline {}",
                    mod_nl.num_cells(),
                    n
                ),
            });
        }
        let mut delta = EcoDelta::default();
        for c in base_nl.cell_ids() {
            let b = base_nl.cell(c);
            let m = mod_nl.cell(c);
            if b.name != m.name || b.kind != m.kind {
                return Err(DeltaError::IncompatibleBase {
                    detail: format!(
                        "cell {} changed identity: {}/{:?} -> {}/{:?}",
                        c.index(),
                        b.name,
                        b.kind,
                        m.name,
                        m.kind
                    ),
                });
            }
            if b.width.to_bits() != m.width.to_bits() || b.height.to_bits() != m.height.to_bits() {
                delta.resized.push(CellResize {
                    cell: c.index() as u32,
                    width: m.width,
                    height: m.height,
                });
            }
            let (bp, mp) = (base_pl.get(c), mod_pl.get(c));
            if bp.x.to_bits() != mp.x.to_bits() || bp.y.to_bits() != mp.y.to_bits() {
                delta.moved.push(CellMove {
                    cell: c.index() as u32,
                    x: mp.x,
                    y: mp.y,
                });
            }
        }
        for c in mod_nl.cell_ids().skip(n) {
            let cell = mod_nl.cell(c);
            let pos = mod_pl.get(c);
            delta.added.push(NewCell {
                name: cell.name.clone(),
                width: cell.width,
                height: cell.height,
                kind: cell.kind,
                delay: cell.delay,
                x: pos.x,
                y: pos.y,
            });
        }
        Ok(delta)
    }
}

/// One incremental legalization request (wire v3): the job parameters
/// of a [`JobRequest`] plus a baseline content hash and the
/// [`EcoDelta`] to apply to it, instead of a full design.
#[derive(Debug, Clone)]
pub struct DeltaJobRequest {
    /// Client-chosen correlation id, echoed in every reply.
    pub id: u64,
    /// Deadline in milliseconds (see [`JobRequest::deadline_ms`]).
    pub deadline_ms: u32,
    /// Progress-frame stride (see [`JobRequest::progress_stride`]).
    pub progress_stride: u32,
    /// Which algorithm to run.
    pub kind: JobKind,
    /// Free-form design name for the request log.
    pub design: String,
    /// Tenant this request is admitted and accounted under.
    pub tenant: String,
    /// Diffusion parameters (solver kind travels as an explicit field —
    /// this frame kind is v3-only, so no trailing-byte dance).
    pub config: DiffusionConfig,
    /// Content hash ([`design_hash`](crate::wire::design_hash)) of the
    /// cached baseline design this delta applies to.
    pub baseline: u64,
    /// The edits.
    pub delta: EcoDelta,
    /// Optional distributed-trace context: the TRACE record of the
    /// extension block after the edits (DESIGN.md §22). `None` writes no
    /// record, so an untraced frame is the same bytes as in wire v3.
    pub trace: Option<TraceContext>,
}

impl DeltaJobRequest {
    /// Applies the delta to the cached baseline and assembles the
    /// equivalent full [`JobRequest`] for the execution path.
    ///
    /// # Errors
    ///
    /// Any [`DeltaError`] from [`EcoDelta::apply`].
    pub fn to_job_request(
        &self,
        base_nl: &Netlist,
        base_die: &Die,
        base_pl: &Placement,
    ) -> Result<JobRequest, DeltaError> {
        let (netlist, placement) = self.delta.apply(base_nl, base_pl)?;
        Ok(JobRequest {
            id: self.id,
            deadline_ms: self.deadline_ms,
            progress_stride: self.progress_stride,
            kind: self.kind,
            design: self.design.clone(),
            config: self.config.clone(),
            netlist,
            die: base_die.clone(),
            placement,
            vol: None,
            trace: self.trace,
        })
    }
}

/// Encodes a delta request into a frame payload.
pub fn encode_delta_request(req: &DeltaJobRequest) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u64(&mut buf, req.id);
    put_u32(&mut buf, req.deadline_ms);
    put_u32(&mut buf, req.progress_stride);
    put_u8(&mut buf, matches!(req.kind, JobKind::Local) as u8);
    put_str(&mut buf, &req.design);
    put_str(&mut buf, &req.tenant);
    put_config(&mut buf, &req.config);
    put_u8(&mut buf, req.config.solver as u8);
    put_u64(&mut buf, req.baseline);

    put_u32(&mut buf, req.delta.resized.len() as u32);
    for r in &req.delta.resized {
        put_u32(&mut buf, r.cell);
        put_f64(&mut buf, r.width);
        put_f64(&mut buf, r.height);
    }
    put_u32(&mut buf, req.delta.moved.len() as u32);
    for m in &req.delta.moved {
        put_u32(&mut buf, m.cell);
        put_f64(&mut buf, m.x);
        put_f64(&mut buf, m.y);
    }
    put_u32(&mut buf, req.delta.added.len() as u32);
    for a in &req.delta.added {
        put_str(&mut buf, &a.name);
        put_f64(&mut buf, a.width);
        put_f64(&mut buf, a.height);
        put_u8(&mut buf, cell_kind_to_u8(a.kind));
        put_f64(&mut buf, a.delay);
        put_f64(&mut buf, a.x);
        put_f64(&mut buf, a.y);
    }
    // The extension block (DESIGN.md §22): untraced requests add nothing.
    if let Some(t) = &req.trace {
        put_ext(&mut buf, TAG_TRACE, |b| put_trace(b, t));
    }
    buf
}

/// Decodes a delta-request frame payload.
///
/// # Errors
///
/// Returns [`WireError::Truncated`] / [`WireError::Malformed`] on
/// corrupt payloads; entry counts are validated against the remaining
/// payload length before allocation.
pub fn decode_delta_request(payload: &[u8]) -> Result<DeltaJobRequest, WireError> {
    let mut cur = Cur::new(payload);
    let id = cur.u64("delta.id")?;
    let deadline_ms = cur.u32("delta.deadline_ms")?;
    let progress_stride = cur.u32("delta.progress_stride")?;
    let kind = if cur.u8("delta.kind")? != 0 {
        JobKind::Local
    } else {
        JobKind::Global
    };
    let design = cur.str_("delta.design")?;
    let tenant = cur.str_("delta.tenant")?;
    let mut config = take_config(&mut cur)?;
    config.solver = solver_kind_from_u8(cur.u8("delta.solver")?)?;
    let baseline = cur.u64("delta.baseline")?;

    // Each resize entry is ≥ 20 bytes, each move ≥ 20, each add ≥ 45, so
    // a corrupt count cannot drive a giant allocation.
    let resized = cur.entries("delta.resized.count", 20, |c| {
        Ok(CellResize {
            cell: c.u32("resize.cell")?,
            width: c.f64("resize.width")?,
            height: c.f64("resize.height")?,
        })
    })?;
    let moved = cur.entries("delta.moved.count", 20, |c| {
        Ok(CellMove {
            cell: c.u32("move.cell")?,
            x: c.f64("move.x")?,
            y: c.f64("move.y")?,
        })
    })?;
    let added = cur.entries("delta.added.count", 45, |c| {
        Ok(NewCell {
            name: c.str_("add.name")?,
            width: c.f64("add.width")?,
            height: c.f64("add.height")?,
            kind: cell_kind_from_u8(c.u8("add.kind")?)?,
            delay: c.f64("add.delay")?,
            x: c.f64("add.x")?,
            y: c.f64("add.y")?,
        })
    })?;
    let mut trace = None;
    let mut ext = cur.ext("delta.ext");
    while let Some(tag) = ext.tag()? {
        match tag {
            TAG_TRACE => trace = Some(ext.body(take_trace)?),
            _ => return Err(ext.unknown(tag)),
        }
    }
    Ok(DeltaJobRequest {
        id,
        deadline_ms,
        progress_stride,
        kind,
        design,
        tenant,
        config,
        baseline,
        delta: EcoDelta {
            resized,
            moved,
            added,
        },
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_diffusion::SolverKind;
    use dpm_netlist::PinDir;

    fn base() -> (Netlist, Die, Placement) {
        let mut b = NetlistBuilder::new();
        let a = b.add_cell("a", 4.0, 12.0, CellKind::Movable);
        let c = b.add_cell("c", 6.0, 12.0, CellKind::Movable);
        let m = b.add_cell("m", 24.0, 24.0, CellKind::FixedMacro);
        let n = b.add_net("n1");
        b.connect(a, n, PinDir::Output, 2.0, 6.0);
        b.connect(c, n, PinDir::Input, 0.0, 6.0);
        let nl = b.build().expect("valid");
        let die = Die::new(96.0, 96.0, 12.0);
        let mut pl = Placement::new(nl.num_cells());
        pl.set(a, Point::new(10.5, 12.0));
        pl.set(c, Point::new(11.25, 12.0));
        pl.set(m, Point::new(48.0, 48.0));
        (nl, die, pl)
    }

    fn sample_delta() -> EcoDelta {
        EcoDelta {
            resized: vec![CellResize {
                cell: 0,
                width: 7.5,
                height: 12.0,
            }],
            moved: vec![CellMove {
                cell: 1,
                x: 30.0,
                y: 24.0,
            }],
            added: vec![NewCell {
                name: "buf0".into(),
                width: 2.0,
                height: 12.0,
                kind: CellKind::Movable,
                delay: 0.5,
                x: 60.0,
                y: 36.0,
            }],
        }
    }

    #[test]
    fn apply_then_diff_round_trips() {
        let (nl, _die, pl) = base();
        let delta = sample_delta();
        let (mod_nl, mod_pl) = delta.apply(&nl, &pl).expect("applies");
        assert_eq!(mod_nl.num_cells(), 4);
        assert_eq!(mod_nl.cell(dpm_netlist::CellId::new(0)).width, 7.5);
        assert_eq!(mod_pl.get(dpm_netlist::CellId::new(1)).x, 30.0);
        assert_eq!(mod_nl.cell(dpm_netlist::CellId::new(3)).name, "buf0");
        // Nets copied verbatim.
        assert_eq!(mod_nl.num_nets(), nl.num_nets());
        assert_eq!(mod_nl.num_pins(), nl.num_pins());

        let back = EcoDelta::diff(&nl, &pl, &mod_nl, &mod_pl).expect("diffs");
        assert_eq!(back, delta);
    }

    #[test]
    fn diff_of_identical_designs_is_empty() {
        let (nl, _die, pl) = base();
        let d = EcoDelta::diff(&nl, &pl, &nl, &pl).expect("diffs");
        assert!(d.is_empty());
    }

    #[test]
    fn diff_rejects_incompatible_prefix() {
        let (nl, _die, pl) = base();
        let mut b = NetlistBuilder::new();
        b.add_cell("renamed", 4.0, 12.0, CellKind::Movable);
        b.add_cell("c", 6.0, 12.0, CellKind::Movable);
        b.add_cell("m", 24.0, 24.0, CellKind::FixedMacro);
        let other = b.build().expect("valid");
        let opl = Placement::new(3);
        assert!(matches!(
            EcoDelta::diff(&nl, &pl, &other, &opl),
            Err(DeltaError::IncompatibleBase { .. })
        ));
        // Fewer cells than baseline is also incompatible.
        let mut b = NetlistBuilder::new();
        b.add_cell("a", 4.0, 12.0, CellKind::Movable);
        let small = b.build().expect("valid");
        assert!(matches!(
            EcoDelta::diff(&nl, &pl, &small, &Placement::new(1)),
            Err(DeltaError::IncompatibleBase { .. })
        ));
    }

    #[test]
    fn apply_rejects_bad_deltas() {
        let (nl, _die, pl) = base();
        let out_of_range = EcoDelta {
            moved: vec![CellMove {
                cell: 99,
                x: 0.0,
                y: 0.0,
            }],
            ..Default::default()
        };
        assert!(matches!(
            out_of_range.apply(&nl, &pl),
            Err(DeltaError::CellOutOfRange { cell: 99, .. })
        ));
        let bad_geom = EcoDelta {
            resized: vec![CellResize {
                cell: 0,
                width: f64::NAN,
                height: 12.0,
            }],
            ..Default::default()
        };
        assert!(matches!(
            bad_geom.apply(&nl, &pl),
            Err(DeltaError::BadGeometry { context: "resize" })
        ));
    }

    #[test]
    fn delta_request_wire_round_trip_is_exact() {
        let req = DeltaJobRequest {
            id: 31,
            deadline_ms: 500,
            progress_stride: 4,
            kind: JobKind::Global,
            design: "eco-7".into(),
            tenant: "acme".into(),
            config: {
                let mut c = DiffusionConfig::default().with_bin_size(24.0);
                c.solver = SolverKind::Spectral;
                c
            },
            baseline: 0x1234_5678_9abc_def0,
            delta: sample_delta(),
            trace: None,
        };
        let payload = encode_delta_request(&req);
        let back = decode_delta_request(&payload).expect("decodes");
        assert_eq!(back.id, 31);
        assert_eq!(back.deadline_ms, 500);
        assert_eq!(back.progress_stride, 4);
        assert_eq!(back.kind, JobKind::Global);
        assert_eq!(back.design, "eco-7");
        assert_eq!(back.tenant, "acme");
        assert_eq!(back.config.solver, SolverKind::Spectral);
        assert_eq!(back.baseline, req.baseline);
        assert_eq!(back.delta, req.delta);
        // Trailing garbage and truncation are typed errors.
        let mut longer = payload.clone();
        longer.push(0);
        assert!(decode_delta_request(&longer).is_err());
        assert!(decode_delta_request(&payload[..payload.len() - 3]).is_err());
    }

    #[test]
    fn traced_delta_request_is_a_pure_suffix_of_the_legacy_frame() {
        let mut req = DeltaJobRequest {
            id: 31,
            deadline_ms: 500,
            progress_stride: 4,
            kind: JobKind::Global,
            design: "eco-7".into(),
            tenant: "acme".into(),
            config: DiffusionConfig::default().with_bin_size(24.0),
            baseline: 0x1234_5678_9abc_def0,
            delta: sample_delta(),
            trace: None,
        };
        let legacy = encode_delta_request(&req);
        req.trace = Some(dpm_obs::TraceContext {
            trace_id: 0xAAAA,
            span_id: 0xBBBB,
            parent_id: 0,
        });
        let traced = encode_delta_request(&req);
        // One TRACE record (tag, len, 24-byte context), appended after
        // everything a pre-tracing decoder reads.
        assert_eq!(traced.len(), legacy.len() + 1 + 4 + 24);
        assert_eq!(&traced[..legacy.len()], &legacy[..]);
        assert_eq!(
            decode_delta_request(&traced).expect("decodes").trace,
            req.trace
        );
        assert_eq!(decode_delta_request(&legacy).expect("decodes").trace, None);

        // Unknown tags (the v3 flags byte among them) and truncated
        // contexts are typed errors.
        let ext_off = legacy.len();
        for tag in [1, 3, 0x20] {
            let mut bad = traced.clone();
            bad[ext_off] = tag;
            assert!(matches!(
                decode_delta_request(&bad),
                Err(WireError::Malformed {
                    context: "delta.ext",
                    ..
                })
            ));
        }
        for cut in ext_off + 1..traced.len() {
            assert!(
                decode_delta_request(&traced[..cut]).is_err(),
                "truncated trace ext decoded at {cut}"
            );
        }
        // The all-zero context is malformed here too.
        let mut bad = traced.clone();
        bad[ext_off + 5..].fill(0);
        assert!(matches!(
            decode_delta_request(&bad),
            Err(WireError::Malformed {
                context: "trace",
                ..
            })
        ));
    }

    #[test]
    fn corrupt_entry_counts_do_not_allocate() {
        let req = DeltaJobRequest {
            id: 1,
            deadline_ms: 0,
            progress_stride: 0,
            kind: JobKind::Local,
            design: String::new(),
            tenant: String::new(),
            config: DiffusionConfig::default(),
            baseline: 0,
            delta: EcoDelta::default(),
            trace: None,
        };
        let payload = encode_delta_request(&req);
        // The resized count is the first u32 after the baseline hash;
        // find it from the end: counts are the last 12 bytes (3 × u32=0).
        let mut p = payload.clone();
        let off = p.len() - 12;
        p[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_delta_request(&p),
            Err(WireError::Malformed { .. })
        ));
    }

    #[test]
    fn to_job_request_carries_applied_design() {
        let (nl, die, pl) = base();
        let req = DeltaJobRequest {
            id: 8,
            deadline_ms: 100,
            progress_stride: 0,
            kind: JobKind::Global,
            design: "d".into(),
            tenant: "t".into(),
            config: DiffusionConfig::default().with_bin_size(24.0),
            baseline: 7,
            delta: sample_delta(),
            trace: None,
        };
        let job = req.to_job_request(&nl, &die, &pl).expect("applies");
        assert_eq!(job.id, 8);
        assert_eq!(job.netlist.num_cells(), 4);
        assert_eq!(job.die.outline().urx.to_bits(), die.outline().urx.to_bits());
        assert_eq!(job.placement.get(dpm_netlist::CellId::new(1)).x, 30.0);
    }
}
