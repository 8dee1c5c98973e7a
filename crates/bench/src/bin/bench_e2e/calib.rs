//! Machine-speed calibration for the batch workloads.
//!
//! The shared hosts this benchmark runs on change speed by several
//! percent over seconds to minutes, as other tenants come and go, and a
//! single-threaded job's wall time moves with them. Each batch run
//! therefore also times a fixed reference kernel once after every job
//! and set-up, and scales each time by the machine's speed around it.
//!
//! The kernel is a synthetic advection pass: bilinear interpolation of a
//! velocity field at 12k points and a position update. It is plain `std`
//! code in this file, so nothing the benchmark measures can change it,
//! and it has the instruction mix of the batch jobs' dominant layer. It
//! is more sensitive to a busy host than the jobs are: regressing log job
//! time on log kernel time, over blocks of ten repeats of one fixed job,
//! gave slopes of 0.46 (`diffg-paper`), 0.56 (`diffl-hotspot`) and 0.31
//! (`spectral-fine`). Times are therefore scaled by
//! `(REFERENCE_NS / kernel time) ^ SENSITIVITY`. A dependent pointer
//! chase, tried first, tracked the jobs worse than no scaling at all on
//! `diffg-paper`. The README tabulates raw against scaled spreads.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Time of one reference kernel on the machine the benchmark's bounds
/// were set on (2 vCPUs of an Intel Xeon), ns.
pub const REFERENCE_NS: f64 = 1.4e6;
/// How a job's time follows the kernel's: the exponent of the
/// kernel-time ratio in the scaling factor.
pub const SENSITIVITY: f64 = 0.5;

/// Velocity-field bins per side.
const GRID: usize = 48;
const POINTS: usize = 12_000;
/// Timed passes per sample, after one untimed pass that warms the
/// kernel's data whatever the preceding job left in the caches.
const PASSES: usize = 6;
const STEP: f64 = 0.01;

/// Reference samples on either side of a moment that
/// [`Calibration::factor_near`] takes the median of.
const LOCAL_HALF_WINDOW: usize = 2;

/// Reference-kernel timings of one run.
pub struct Calibration {
    vx: Vec<f64>,
    vy: Vec<f64>,
    px: Vec<f64>,
    py: Vec<f64>,
    qx: Vec<f64>,
    qy: Vec<f64>,
    /// When each sample was taken and how long the kernel ran, ns; in
    /// time order.
    samples: Vec<(Instant, f64)>,
}

impl Calibration {
    pub fn new() -> Self {
        // Inline SplitMix64: nothing the benchmark measures can change
        // the kernel's data.
        let mut state = 0x5EED_CA11_B8A7_E000u64;
        let mut unit = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as f64 / u64::MAX as f64
        };
        let span = (GRID - 2) as f64;
        let vx = (0..GRID * GRID).map(|_| unit() - 0.5).collect();
        let vy = (0..GRID * GRID).map(|_| unit() - 0.5).collect();
        let px = (0..POINTS).map(|_| unit() * span).collect();
        let py = (0..POINTS).map(|_| unit() * span).collect();
        Self {
            vx,
            vy,
            px,
            py,
            qx: vec![0.0; POINTS],
            qy: vec![0.0; POINTS],
            samples: Vec::new(),
        }
    }

    /// One advection pass. It reads the fixed start positions and writes
    /// the moved ones elsewhere, so every pass does the same work.
    fn pass(&mut self) {
        let Self {
            vx,
            vy,
            px,
            py,
            qx,
            qy,
            ..
        } = self;
        let (px, py) = (black_box(&px[..]), black_box(&py[..]));
        let limit = (GRID - 2) as f64;
        for i in 0..POINTS {
            let (x, y) = (px[i], py[i]);
            let (ix, iy) = (x as usize, y as usize);
            let (fx, fy) = (x - ix as f64, y - iy as f64);
            let k = iy * GRID + ix;
            let lerp = |g: &[f64]| {
                (g[k] * (1.0 - fx) + g[k + 1] * fx) * (1.0 - fy)
                    + (g[k + GRID] * (1.0 - fx) + g[k + GRID + 1] * fx) * fy
            };
            qx[i] = (x + STEP * lerp(vx)).clamp(0.0, limit);
            qy[i] = (y + STEP * lerp(vy)).clamp(0.0, limit);
        }
        black_box((&qx, &qy));
    }

    /// Times the reference kernel once.
    pub fn sample(&mut self) {
        self.pass();
        let t0 = Instant::now();
        for _ in 0..PASSES {
            self.pass();
        }
        self.samples.push((t0, t0.elapsed().as_nanos() as f64));
    }

    fn factor_of(samples: &[(Instant, f64)]) -> f64 {
        if samples.is_empty() {
            return 1.0;
        }
        let kernel_ns = median(&samples.iter().map(|s| s.1).collect::<Vec<_>>());
        (REFERENCE_NS / kernel_ns).powf(SENSITIVITY)
    }

    /// Multiplier that converts this run's wall times to the reference
    /// speed (1 when uncalibrated).
    pub fn factor(&self) -> f64 {
        Self::factor_of(&self.samples)
    }

    /// The factor around moment `t`: from the median of the samples
    /// nearest it, so a slow stretch of the machine scales the work done
    /// in it while single-sample jitter is filtered out.
    pub fn factor_near(&self, t: Instant) -> f64 {
        let i = self.samples.partition_point(|s| s.0 < t);
        let lo = i.saturating_sub(LOCAL_HALF_WINDOW + 1);
        let hi = (i + LOCAL_HALF_WINDOW).min(self.samples.len());
        Self::factor_of(&self.samples[lo..hi])
    }

    /// Median reference-kernel time, ns.
    pub fn median_ns(&self) -> f64 {
        median(&self.samples.iter().map(|s| s.1).collect::<Vec<_>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pass_does_the_same_work() {
        let mut c = Calibration::new();
        c.pass();
        let first = (c.qx.clone(), c.qy.clone());
        c.pass();
        assert_eq!((c.qx.clone(), c.qy.clone()), first);
        let limit = (GRID - 2) as f64;
        assert!(c
            .qx
            .iter()
            .chain(&c.qy)
            .all(|&v| (0.0..=limit).contains(&v)));
        assert_ne!(c.qx, c.px, "the points move");
    }

    #[test]
    fn factors_scale_to_the_reference_around_each_moment() {
        let mut c = Calibration::new();
        assert_eq!(c.factor(), 1.0);
        let t0 = Instant::now();
        let at = |ms: u64| t0 + std::time::Duration::from_millis(ms);
        // A kernel at a quarter of the reference speed for the first
        // five samples, then at the reference speed: jobs in the slow
        // stretch are taken to run at half speed.
        c.samples = (0..10u64)
            .map(|k| (at(k * 10), if k < 5 { 4.0 } else { 1.0 } * REFERENCE_NS))
            .collect();
        assert_eq!(c.factor_near(at(12)), 0.5);
        assert_eq!(c.factor_near(at(88)), 1.0);
        assert_eq!(c.factor_near(at(300)), 1.0, "the last samples");
    }
}
