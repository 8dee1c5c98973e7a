//! Every runner times each kernel call once: the `KernelTimers` a run
//! reports are the fold of the `KernelEvent`s its observer saw, and
//! each event names the threads its kernel actually ran on.

use dpm_diffusion::{
    DiffusionConfig, DiffusionObserver, GlobalDiffusion, KernelEvent, KernelKind, KernelTimers,
    LocalDiffusion, SolverKind, VolJobSpec, VolPlacement, VolumetricDiffusion,
};
use dpm_geom::Point;
use dpm_netlist::{CellKind, Netlist, NetlistBuilder};
use dpm_place::{Die, Placement};

/// Folds every kernel event by hand, independently of the library's
/// own fold.
#[derive(Default)]
struct Fold(KernelTimers);

impl DiffusionObserver for Fold {
    fn on_kernel(&mut self, event: &KernelEvent) {
        let slot = match event.kernel {
            KernelKind::Ftcs => &mut self.0.ftcs,
            KernelKind::Velocity => &mut self.0.velocity,
            KernelKind::Advect => &mut self.0.advect,
            KernelKind::Splat => &mut self.0.splat,
        };
        let ns = u64::try_from(event.elapsed.as_nanos()).expect("elapsed fits in u64");
        slot.calls += event.calls;
        if event.threads > 1 {
            slot.parallel_ns += ns;
        } else {
            slot.serial_ns += ns;
        }
        slot.max_threads = slot.max_threads.max(event.threads);
    }
}

/// 40 cells piled around (36, 36) on a 96×96 die of 12-unit bins.
fn pile() -> (Netlist, Die, Placement) {
    let mut b = NetlistBuilder::new();
    for i in 0..40 {
        b.add_cell(format!("c{i}"), 6.0, 12.0, CellKind::Movable);
    }
    let nl = b.build().expect("valid");
    let mut p = Placement::new(nl.num_cells());
    for (i, c) in nl.cell_ids().enumerate() {
        p.set(
            c,
            Point::new(30.0 + (i % 5) as f64 * 2.5, 30.0 + (i / 5) as f64 * 1.5),
        );
    }
    (nl, Die::new(96.0, 96.0, 12.0), p)
}

fn cfg(solver: SolverKind) -> DiffusionConfig {
    DiffusionConfig::default()
        .with_bin_size(12.0)
        .with_delta(0.05)
        .with_solver(solver)
        .with_threads(2)
}

#[test]
fn kernel_timers_are_the_fold_of_the_observed_events() {
    let (nl, die, p0) = pile();
    for solver in [SolverKind::Ftcs, SolverKind::Spectral] {
        // The spectral jump is serial; FTCS sweeps run on the pool.
        let field_threads = match solver {
            SolverKind::Ftcs => 2,
            SolverKind::Spectral => 1,
        };

        let mut fold = Fold::default();
        let mut p = p0.clone();
        let r =
            GlobalDiffusion::new(cfg(solver)).run_observed(&nl, &die, &mut p, &|| false, &mut fold);
        assert!(r.steps > 2, "{solver:?}: workload too small to stride");
        assert_eq!(*r.telemetry.kernels(), fold.0, "global {solver:?}");
        assert_eq!(fold.0.ftcs.max_threads, field_threads, "global {solver:?}");
        assert_eq!(fold.0.velocity.max_threads, 2);

        let mut fold = Fold::default();
        let mut vp = VolPlacement {
            xy: p0.clone(),
            z: (0..nl.num_cells()).map(|i| 0.5 + (i % 2) as f64).collect(),
        };
        let r = VolumetricDiffusion::new(cfg(solver), 2).run_job_observed(
            &VolJobSpec::full(2),
            &nl,
            &die,
            &mut vp,
            &|| false,
            &mut fold,
        );
        assert!(r.steps > 0, "{solver:?}: volumetric run did no work");
        assert_eq!(*r.telemetry.kernels(), fold.0, "volumetric {solver:?}");
        assert_eq!(
            fold.0.splat.max_threads, 1,
            "the volumetric splat is serial"
        );
        assert_eq!(
            fold.0.advect.max_threads, 1,
            "the volumetric advect is serial"
        );
        assert_eq!(fold.0.velocity.max_threads, 2);
        assert_eq!(
            fold.0.ftcs.max_threads, field_threads,
            "volumetric {solver:?}"
        );
    }

    let mut fold = Fold::default();
    let mut p = p0.clone();
    let local = cfg(SolverKind::Ftcs)
        .with_update_period(5)
        .with_windows(0, 1);
    let r = LocalDiffusion::new(local).run_observed(&nl, &die, &mut p, &|| false, &mut fold);
    assert!(r.rounds > 0 && r.steps > 0, "local run did no work");
    assert_eq!(*r.telemetry.kernels(), fold.0, "local");
    assert_eq!(fold.0.ftcs.calls as usize, r.steps, "one sweep per step");
    assert_eq!(fold.0.advect.max_threads, 2);
}

/// Every kernel event of a run, in order, as `(kernel, calls)`.
#[derive(Default)]
struct Sequence(Vec<(KernelKind, u64)>);

impl DiffusionObserver for Sequence {
    fn on_kernel(&mut self, event: &KernelEvent) {
        self.0.push((event.kernel, event.calls));
    }
}

/// A spectral run bills its forward transform to the field as one 0-call
/// event before its first velocity pass; an FTCS run sends no such event.
fn assert_forward_billed(solver: SolverKind, events: &[(KernelKind, u64)], what: &str) {
    let zero_call: Vec<usize> = (0..events.len())
        .filter(|&i| events[i] == (KernelKind::Ftcs, 0))
        .collect();
    let first_velocity = events
        .iter()
        .position(|&(k, _)| k == KernelKind::Velocity)
        .expect("the run took a velocity pass");
    match solver {
        SolverKind::Ftcs => assert!(zero_call.is_empty(), "{what}: {zero_call:?}"),
        SolverKind::Spectral => {
            assert_eq!(zero_call.len(), 1, "{what}: one forward-transform event");
            assert!(
                zero_call[0] < first_velocity,
                "{what}: forward transform at event {} after velocity at {first_velocity}",
                zero_call[0]
            );
        }
    }
}

#[test]
fn spectral_runs_bill_their_forward_transform_to_the_field_once() {
    let (nl, die, p0) = pile();
    for solver in [SolverKind::Ftcs, SolverKind::Spectral] {
        let mut seq = Sequence::default();
        let mut p = p0.clone();
        let r =
            GlobalDiffusion::new(cfg(solver)).run_observed(&nl, &die, &mut p, &|| false, &mut seq);
        assert_forward_billed(solver, &seq.0, &format!("global {solver:?}"));
        // The 0-call event leaves the field's calls at one per stride.
        let field_calls: u64 = seq
            .0
            .iter()
            .filter(|&&(k, _)| k == KernelKind::Ftcs)
            .map(|&(_, c)| c)
            .sum();
        assert_eq!(field_calls, r.telemetry.kernels().ftcs.calls);

        let mut seq = Sequence::default();
        let mut vp = VolPlacement {
            xy: p0.clone(),
            z: (0..nl.num_cells()).map(|i| 0.5 + (i % 2) as f64).collect(),
        };
        VolumetricDiffusion::new(cfg(solver), 2).run_job_observed(
            &VolJobSpec::full(2),
            &nl,
            &die,
            &mut vp,
            &|| false,
            &mut seq,
        );
        assert_forward_billed(solver, &seq.0, &format!("volumetric {solver:?}"));
    }
}
