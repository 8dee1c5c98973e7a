//! Diffusion parameters.

use std::error::Error;
use std::fmt;

/// A reason a [`DiffusionConfig`] is unusable.
///
/// The `with_*` builder setters panic on bad values — appropriate for
/// in-process callers, where a bad config is a programming error. Configs
/// that arrive from *outside* the process (the `dpm-serve` wire protocol,
/// future config files) must instead be checked with
/// [`DiffusionConfig::validate`], which reports the first problem as a
/// typed error so the caller can reject the request without dying.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A field that must be a positive finite number is not.
    NonPositive {
        /// Field name as written in [`DiffusionConfig`].
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A field that must be finite and non-negative is not.
    Negative {
        /// Field name as written in [`DiffusionConfig`].
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// `D·Δt` leaves the FTCS stability region `(0, 0.5]`.
    UnstableTimeStep {
        /// The configured `Δt`.
        dt: f64,
        /// The configured diffusivity `D`.
        diffusivity: f64,
    },
    /// The diffusion window is smaller than the analysis window
    /// (`W2 < W1`).
    WindowOrder {
        /// Analysis window `W1`.
        w1: usize,
        /// Diffusion window `W2`.
        w2: usize,
    },
    /// The density-update period `N_U` is zero.
    ZeroUpdatePeriod,
    /// The worker-thread count is zero.
    ZeroThreads,
    /// The spectral solver with a zero step budget: `max_steps == 0`
    /// leaves the closed-form jump zero diffusion time to advance.
    SpectralZeroTime,
    /// The spectral solver combined with the paper's mirror boundary
    /// rule: the DCT basis diagonalizes only the conservative
    /// zero-flux boundary operator, so `paper_boundaries` must be off.
    SpectralPaperBoundaries,
    /// An environment variable read by [`DiffusionConfig::from_env`] is
    /// set to a value it cannot parse.
    BadEnv {
        /// The variable's name.
        var: &'static str,
        /// Its value as read.
        value: String,
        /// What the variable accepts.
        expected: &'static str,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NonPositive { field, value } => {
                write!(f, "{field} must be a positive finite number, got {value}")
            }
            ConfigError::Negative { field, value } => {
                write!(f, "{field} must be finite and non-negative, got {value}")
            }
            ConfigError::UnstableTimeStep { dt, diffusivity } => write!(
                f,
                "D*dt = {} violates the FTCS stability bound 0 < D*dt <= 0.5 \
                 (dt = {dt}, D = {diffusivity})",
                diffusivity * dt
            ),
            ConfigError::WindowOrder { w1, w2 } => {
                write!(f, "W2 ({w2}) must be at least W1 ({w1})")
            }
            ConfigError::ZeroUpdatePeriod => write!(f, "N_U must be positive"),
            ConfigError::ZeroThreads => write!(f, "thread count must be positive"),
            ConfigError::SpectralZeroTime => write!(
                f,
                "spectral solver needs max_steps > 0: the closed-form jump \
                 has zero diffusion time to advance"
            ),
            ConfigError::SpectralPaperBoundaries => write!(
                f,
                "spectral solver requires the conservative zero-flux boundary \
                 rule (paper_boundaries must be off)"
            ),
            ConfigError::BadEnv {
                var,
                value,
                expected,
            } => write!(f, "{var}={value:?} is invalid: expected {expected}"),
        }
    }
}

impl Error for ConfigError {}

/// Which solver evolves the density field between cell advections.
///
/// [`Ftcs`](SolverKind::Ftcs) is the paper's explicit
/// Forward-Time-Centered-Space stepping — thousands of O(n) stencil
/// sweeps. [`Spectral`](SolverKind::Spectral) replaces the sweeps with
/// the closed-form DCT jump of
/// [`SpectralSolver`](crate::SpectralSolver): one cached forward
/// transform plus one inverse transform per density query, valid
/// whenever the grid has no walls/frozen bins and the conservative
/// boundary rule is active (the engine falls back to FTCS otherwise —
/// see `GlobalDiffusion`).
///
/// The discriminants are the wire encoding of `dpm-serve` request
/// frames: one solver byte between the design and the extension block.
/// A v2 frame ends at the design, without the byte, and decodes as
/// [`Ftcs`](SolverKind::Ftcs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum SolverKind {
    /// Explicit FTCS time-stepping (the paper's scheme; the default).
    #[default]
    Ftcs = 0,
    /// Closed-form DCT jump to any diffusion time.
    Spectral = 1,
}

impl SolverKind {
    /// Stable lowercase name, as used by `DPM_SOLVER` and bench JSON.
    pub fn as_str(&self) -> &'static str {
        match self {
            SolverKind::Ftcs => "ftcs",
            SolverKind::Spectral => "spectral",
        }
    }
}

/// How the grid kernels walk bin lines: always lane-wise. Each line is
/// walked as maximal runs of bins whose whole stencil is live and
/// in-grid, processed 4 bins per chunk with a scalar tail; every other
/// bin takes the generic per-bin path. Both compute the same bits (the
/// engine's tests pin the runs against a per-bin oracle).
///
/// A single-value type kept only for source compatibility with callers
/// that pin [`DiffusionConfig::lanes`] and call
/// [`DiffusionEngine::set_lanes`](crate::DiffusionEngine::set_lanes);
/// nothing in the library reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LaneMode {
    /// Lane-processed runs plus the per-bin path (the only mode).
    #[default]
    Wide,
}

impl LaneMode {
    /// Stable lowercase name, as recorded in bench JSON.
    pub fn as_str(&self) -> &'static str {
        "wide"
    }
}

/// Arithmetic width of the density field: always f64, the width every
/// golden checksum and determinism guarantee is stated in.
///
/// A single-value type kept only for source compatibility with callers
/// that pin [`DiffusionConfig::precision`] and call
/// [`DiffusionEngine::set_precision`](crate::DiffusionEngine::set_precision);
/// nothing in the library reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FieldPrecision {
    /// Full-width field (the only one).
    #[default]
    F64,
}

/// Tunable parameters of the diffusion process and its legalization
/// wrappers.
///
/// Defaults follow the paper's recommendations from Section VII-C:
/// target density 1.0, `Δt = 0.2` (safely inside the FTCS stability
/// region `Δt ≤ 0.5` for the paper's `Δt/2` Laplacian coefficients and
/// the CFL bound `|v|·Δt ≤ 1` bin), analysis/diffusion window
/// `W1 = W2 = 2`, density-update period `N_U = 30`, and a bin size of a
/// few row heights (set per design via [`with_bin_size`]).
///
/// The type is a plain value: build one with [`Default::default`] and
/// chain `with_*` setters. The default is a constant (FTCS on one
/// thread); [`DiffusionConfig::from_env`] is the one place that reads
/// the environment.
///
/// # Examples
///
/// ```
/// use dpm_diffusion::DiffusionConfig;
///
/// let cfg = DiffusionConfig::default()
///     .with_bin_size(30.0)
///     .with_d_max(0.9)
///     .with_windows(2, 3)
///     .with_update_period(15);
/// assert_eq!(cfg.d_max, 0.9);
/// assert_eq!(cfg.w2, 3);
/// ```
///
/// [`with_bin_size`]: DiffusionConfig::with_bin_size
#[derive(Debug, Clone, PartialEq)]
pub struct DiffusionConfig {
    /// Bin edge length in world units. The paper's sweet spot is 2–4 row
    /// heights (Fig. 11).
    pub bin_size: f64,
    /// Maximum allowed bin density `d_max` (commonly 1.0).
    pub d_max: f64,
    /// Convergence tolerance `Δ`: global diffusion stops when the maximum
    /// computed density is at most `d_max + delta`. The default (0.2)
    /// leaves a residue for the detailed legalizer — the paper's "close
    /// to legal" state where only row snapping and minor sliding remain;
    /// chasing a tighter tolerance over-spreads (more movement, worse
    /// wirelength) for no legality benefit. The ablation benches sweep
    /// this.
    pub delta: f64,
    /// Discrete time step `Δt` of the FTCS scheme.
    pub dt: f64,
    /// Diffusivity `D` of Eq. 1 (the paper sets `D = 1`). Scales how fast
    /// density spreads relative to cell motion; the stability requirement
    /// is `D·Δt ≤ 0.5`.
    pub diffusivity: f64,
    /// Hard cap on diffusion time, in FTCS sweeps (guards non-convergent
    /// settings). Local diffusion and field migration advect once per
    /// sweep, so it caps their steps. Global diffusion advects once per
    /// stride of sweeps under either solver; the strides are cut to fit
    /// this budget.
    pub max_steps: usize,
    /// Apply density-map manipulation (Eq. 8) before global diffusion.
    pub manipulate: bool,
    /// Use bilinear velocity interpolation (Eq. 6); turning this off
    /// assigns every cell its bin's velocity (the ablation of Sec. IV-C).
    pub interpolate: bool,
    /// Analysis window `W1` of Algorithm 2 (Chebyshev radius in bins).
    pub w1: usize,
    /// Diffusion window `W2 ≥ W1` of Algorithm 2.
    pub w2: usize,
    /// Density-update period `N_U`: local diffusion re-measures real
    /// placement density every `n_u` steps (Section VI-B).
    pub n_u: usize,
    /// Hard cap on local-diffusion rounds.
    pub max_rounds: usize,
    /// Largest per-step displacement, in bins (CFL-style clamp).
    pub max_step_displacement: f64,
    /// Use the paper's literal (non-conservative) boundary rule for the
    /// density step instead of the conservative zero-flux ghost. See
    /// [`DiffusionEngine::set_conservative_boundaries`](crate::DiffusionEngine::set_conservative_boundaries).
    pub paper_boundaries: bool,
    /// Which solver evolves the density field between advections.
    /// Defaults to [`SolverKind::Ftcs`]; [`DiffusionConfig::from_env`]
    /// takes it from `DPM_SOLVER`.
    pub solver: SolverKind,
    /// Always [`LaneMode::Wide`]; kept only for source compatibility
    /// with callers that set it, and read by nothing.
    pub lanes: LaneMode,
    /// Always [`FieldPrecision::F64`]; kept only for source
    /// compatibility with callers that set it, and read by nothing.
    pub precision: FieldPrecision,
    /// Worker threads for the FTCS density step (1 = serial; results are
    /// identical either way). Defaults to 1; [`DiffusionConfig::from_env`]
    /// takes it from `DPM_THREADS`.
    pub threads: usize,
}

impl Default for DiffusionConfig {
    fn default() -> Self {
        Self {
            bin_size: 30.0,
            d_max: 1.0,
            delta: 0.2,
            dt: 0.2,
            diffusivity: 1.0,
            max_steps: 5000,
            manipulate: true,
            interpolate: true,
            w1: 2,
            w2: 2,
            n_u: 30,
            max_rounds: 200,
            max_step_displacement: 1.0,
            paper_boundaries: false,
            solver: SolverKind::Ftcs,
            lanes: LaneMode::Wide,
            precision: FieldPrecision::F64,
            threads: 1,
        }
    }
}

impl DiffusionConfig {
    /// Creates the default configuration (same as [`Default::default`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// The default configuration with its solver taken from `DPM_SOLVER`
    /// (`ftcs` or `spectral`, case-insensitive) and its thread count from
    /// `DPM_THREADS` (a positive integer), each whitespace-trimmed. An
    /// unset variable keeps the default. Nothing else in the library
    /// reads the environment; `scripts/ci.sh` runs the `dpm-diffusion`
    /// suite, whose runner tests start from this config, once per
    /// (solver, threads) pair.
    ///
    /// # Errors
    ///
    /// [`ConfigError::BadEnv`] naming the first variable (solver, then
    /// threads) that is set to a value it does not accept.
    pub fn from_env() -> Result<Self, ConfigError> {
        Self::from_lookup(|var| std::env::var_os(var).map(|v| v.to_string_lossy().into_owned()))
    }

    /// [`from_env`](Self::from_env) over `lookup` in place of the
    /// process environment.
    fn from_lookup(lookup: impl Fn(&'static str) -> Option<String>) -> Result<Self, ConfigError> {
        let mut cfg = Self::default();
        if let Some(value) = lookup("DPM_SOLVER") {
            cfg.solver = match value.trim().to_ascii_lowercase().as_str() {
                "ftcs" => SolverKind::Ftcs,
                "spectral" => SolverKind::Spectral,
                _ => {
                    return Err(ConfigError::BadEnv {
                        var: "DPM_SOLVER",
                        value,
                        expected: "ftcs or spectral",
                    })
                }
            };
        }
        if let Some(value) = lookup("DPM_THREADS") {
            cfg.threads = match value.trim().parse::<usize>() {
                Ok(threads) if threads > 0 => threads,
                _ => {
                    return Err(ConfigError::BadEnv {
                        var: "DPM_THREADS",
                        value,
                        expected: "a positive integer",
                    })
                }
            };
        }
        Ok(cfg)
    }

    /// Sets the bin edge length in world units.
    ///
    /// # Panics
    ///
    /// Panics if `bin_size` is not positive and finite.
    pub fn with_bin_size(mut self, bin_size: f64) -> Self {
        assert!(
            bin_size.is_finite() && bin_size > 0.0,
            "bin size must be positive"
        );
        self.bin_size = bin_size;
        self
    }

    /// Sets the target maximum density.
    ///
    /// # Panics
    ///
    /// Panics if `d_max` is not positive and finite.
    pub fn with_d_max(mut self, d_max: f64) -> Self {
        assert!(d_max.is_finite() && d_max > 0.0, "d_max must be positive");
        self.d_max = d_max;
        self
    }

    /// Sets the FTCS time step.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is outside `(0, 0.5]` — larger steps violate the
    /// stability condition of the discretization (Section VII-D).
    pub fn with_dt(mut self, dt: f64) -> Self {
        assert!(
            dt > 0.0 && dt <= 0.5,
            "dt must be in (0, 0.5] for FTCS stability"
        );
        self.dt = dt;
        self
    }

    /// Sets the diffusivity `D` (Eq. 1).
    ///
    /// # Panics
    ///
    /// Panics if `D` is not positive or `D·Δt` leaves the FTCS stability
    /// region `(0, 0.5]`.
    pub fn with_diffusivity(mut self, diffusivity: f64) -> Self {
        assert!(diffusivity > 0.0, "diffusivity must be positive");
        assert!(
            diffusivity * self.dt <= 0.5,
            "D*dt must be at most 0.5 for FTCS stability"
        );
        self.diffusivity = diffusivity;
        self
    }

    /// Sets the convergence tolerance `Δ`.
    pub fn with_delta(mut self, delta: f64) -> Self {
        assert!(delta >= 0.0, "delta must be non-negative");
        self.delta = delta;
        self
    }

    /// Sets the step cap.
    pub fn with_max_steps(mut self, max_steps: usize) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Enables/disables density-map manipulation (Eq. 8).
    pub fn with_manipulation(mut self, on: bool) -> Self {
        self.manipulate = on;
        self
    }

    /// Enables/disables bilinear velocity interpolation (Eq. 6).
    pub fn with_interpolation(mut self, on: bool) -> Self {
        self.interpolate = on;
        self
    }

    /// Sets the analysis and diffusion window radii of Algorithm 2.
    ///
    /// # Panics
    ///
    /// Panics if `w2 < w1` (the paper requires `W2 ≥ W1`).
    pub fn with_windows(mut self, w1: usize, w2: usize) -> Self {
        assert!(w2 >= w1, "W2 must be at least W1");
        self.w1 = w1;
        self.w2 = w2;
        self
    }

    /// Sets the density-update period `N_U`.
    ///
    /// # Panics
    ///
    /// Panics if `n_u` is zero.
    pub fn with_update_period(mut self, n_u: usize) -> Self {
        assert!(n_u > 0, "N_U must be positive");
        self.n_u = n_u;
        self
    }

    /// Sets the cap on local-diffusion rounds.
    pub fn with_max_rounds(mut self, max_rounds: usize) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Selects the density solver (FTCS stepping or the closed-form
    /// spectral jump).
    pub fn with_solver(mut self, solver: SolverKind) -> Self {
        self.solver = solver;
        self
    }

    /// Sets the FTCS worker-thread count.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "thread count must be positive");
        self.threads = threads;
        self
    }

    /// Checks every field without panicking, reporting the first problem.
    ///
    /// All `with_*` setters keep a valid config valid, but a config
    /// assembled field-by-field (deserialized from the wire, read from a
    /// file) can hold anything — non-positive bin sizes, NaN tolerances, a
    /// zero update period — and the run loops assume validity. Call this
    /// before trusting such a config.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found, checking fields in
    /// declaration order.
    ///
    /// # Examples
    ///
    /// ```
    /// use dpm_diffusion::{ConfigError, DiffusionConfig};
    ///
    /// assert!(DiffusionConfig::default().validate().is_ok());
    ///
    /// let mut bad = DiffusionConfig::default();
    /// bad.bin_size = f64::NAN;
    /// assert!(matches!(
    ///     bad.validate(),
    ///     Err(ConfigError::NonPositive { field: "bin_size", .. })
    /// ));
    /// ```
    pub fn validate(&self) -> Result<(), ConfigError> {
        let positive = |field: &'static str, value: f64| {
            if value.is_finite() && value > 0.0 {
                Ok(())
            } else {
                Err(ConfigError::NonPositive { field, value })
            }
        };
        positive("bin_size", self.bin_size)?;
        positive("d_max", self.d_max)?;
        if !(self.delta.is_finite() && self.delta >= 0.0) {
            return Err(ConfigError::Negative {
                field: "delta",
                value: self.delta,
            });
        }
        positive("dt", self.dt)?;
        positive("diffusivity", self.diffusivity)?;
        let ddt = self.diffusivity * self.dt;
        if !(ddt.is_finite() && ddt <= 0.5) {
            return Err(ConfigError::UnstableTimeStep {
                dt: self.dt,
                diffusivity: self.diffusivity,
            });
        }
        if self.w2 < self.w1 {
            return Err(ConfigError::WindowOrder {
                w1: self.w1,
                w2: self.w2,
            });
        }
        if self.n_u == 0 {
            return Err(ConfigError::ZeroUpdatePeriod);
        }
        positive("max_step_displacement", self.max_step_displacement)?;
        if self.threads == 0 {
            return Err(ConfigError::ZeroThreads);
        }
        if self.solver == SolverKind::Spectral {
            if self.max_steps == 0 {
                return Err(ConfigError::SpectralZeroTime);
            }
            if self.paper_boundaries {
                return Err(ConfigError::SpectralPaperBoundaries);
            }
        }
        Ok(())
    }

    /// Selects the paper's literal boundary rule (non-conservative) for
    /// the density step. Off by default; see
    /// [`DiffusionEngine::set_conservative_boundaries`](crate::DiffusionEngine::set_conservative_boundaries)
    /// for why.
    pub fn with_paper_boundaries(mut self, on: bool) -> Self {
        self.paper_boundaries = on;
        self
    }
}

/// The base config of this crate's tests: [`DiffusionConfig::from_env`],
/// so that each `DPM_SOLVER` × `DPM_THREADS` leg of `scripts/ci.sh` runs
/// the suite under its own solver and thread count. A variable that does
/// not parse fails the test.
#[cfg(test)]
pub(crate) fn env_config() -> DiffusionConfig {
    DiffusionConfig::from_env().unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`DiffusionConfig::from_lookup`] over a fixed variable table.
    fn lookup(vars: &[(&'static str, &str)]) -> Result<DiffusionConfig, ConfigError> {
        DiffusionConfig::from_lookup(|var| {
            vars.iter()
                .find(|&&(name, _)| name == var)
                .map(|&(_, value)| value.to_string())
        })
    }

    #[test]
    fn from_env_without_variables_is_the_default() {
        assert_eq!(lookup(&[]), Ok(DiffusionConfig::default()));
        let c = DiffusionConfig::default();
        assert_eq!((c.solver, c.threads), (SolverKind::Ftcs, 1));
    }

    #[test]
    fn thread_env_parsing_accepts_only_positive_integers() {
        for (value, threads) in [("4", 4), (" 8 ", 8), ("1", 1)] {
            let c = lookup(&[("DPM_THREADS", value)]).unwrap();
            assert_eq!(c.threads, threads, "{value:?}");
            assert_eq!(c.solver, SolverKind::Ftcs);
        }
        for value in ["", "0", "-2", "two", "4.0"] {
            let err = lookup(&[("DPM_THREADS", value)]).unwrap_err();
            assert!(
                matches!(&err, ConfigError::BadEnv { var: "DPM_THREADS", value: v, .. } if v == value),
                "{value:?}: {err:?}"
            );
            assert!(err.to_string().contains("DPM_THREADS"), "{err}");
        }
    }

    #[test]
    fn solver_env_parsing_accepts_only_known_solvers() {
        for (value, solver) in [
            ("ftcs", SolverKind::Ftcs),
            (" SPECTRAL ", SolverKind::Spectral),
            ("Spectral", SolverKind::Spectral),
        ] {
            let c = lookup(&[("DPM_SOLVER", value)]).unwrap();
            assert_eq!(c.solver, solver, "{value:?}");
            assert_eq!(c.threads, 1);
        }
        for value in ["", "fft", "spetral"] {
            let err = lookup(&[("DPM_SOLVER", value)]).unwrap_err();
            assert!(
                matches!(&err, ConfigError::BadEnv { var: "DPM_SOLVER", value: v, .. } if v == value),
                "{value:?}: {err:?}"
            );
            assert!(err.to_string().contains("DPM_SOLVER"), "{err}");
        }
    }

    #[test]
    fn from_env_sets_only_solver_and_threads() {
        let c = lookup(&[("DPM_SOLVER", "spectral"), ("DPM_THREADS", "2")]).unwrap();
        assert_eq!(
            c,
            DiffusionConfig::default()
                .with_solver(SolverKind::Spectral)
                .with_threads(2)
        );
        // A bad variable fails the whole read, even beside a good one.
        let err = lookup(&[("DPM_SOLVER", "spectral"), ("DPM_THREADS", "0")]).unwrap_err();
        assert!(matches!(
            err,
            ConfigError::BadEnv {
                var: "DPM_THREADS",
                ..
            }
        ));
        let err = lookup(&[("DPM_SOLVER", "fft"), ("DPM_THREADS", "2")]).unwrap_err();
        assert!(matches!(
            err,
            ConfigError::BadEnv {
                var: "DPM_SOLVER",
                ..
            }
        ));
    }

    #[test]
    fn validate_rejects_nonsensical_spectral_settings() {
        let mut c = DiffusionConfig::default().with_solver(SolverKind::Spectral);
        c.max_steps = 0;
        assert_eq!(c.validate(), Err(ConfigError::SpectralZeroTime));
        let msg = c.validate().unwrap_err().to_string();
        assert!(msg.contains("max_steps"), "{msg}");

        let mut c = DiffusionConfig::default().with_solver(SolverKind::Spectral);
        c.paper_boundaries = true;
        assert_eq!(c.validate(), Err(ConfigError::SpectralPaperBoundaries));

        // The same settings are fine under FTCS: max_steps == 0 is a
        // legal no-op run and the paper boundary rule is a supported
        // ablation.
        let mut c = DiffusionConfig::default().with_solver(SolverKind::Ftcs);
        c.max_steps = 0;
        c.paper_boundaries = true;
        assert_eq!(c.validate(), Ok(()));

        // A valid spectral config passes.
        let c = DiffusionConfig::default().with_solver(SolverKind::Spectral);
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn solver_names_are_stable() {
        assert_eq!(SolverKind::Ftcs.as_str(), "ftcs");
        assert_eq!(SolverKind::Spectral.as_str(), "spectral");
        assert_eq!(SolverKind::default(), SolverKind::Ftcs);
        assert_eq!(SolverKind::Ftcs as u8, 0);
        assert_eq!(SolverKind::Spectral as u8, 1);
    }

    #[test]
    fn lane_and_precision_names_are_stable() {
        assert_eq!(LaneMode::Wide.as_str(), "wide");
        assert_eq!(LaneMode::default(), LaneMode::Wide);
        assert_eq!(FieldPrecision::default(), FieldPrecision::F64);
    }

    #[test]
    fn defaults_match_paper_recommendations() {
        let c = DiffusionConfig::default();
        assert_eq!(c.d_max, 1.0);
        assert_eq!(c.dt, 0.2);
        assert_eq!(c.n_u, 30);
        assert_eq!((c.w1, c.w2), (2, 2));
        assert!(c.manipulate);
        assert!(c.interpolate);
    }

    #[test]
    fn builder_chains() {
        let c = DiffusionConfig::new()
            .with_bin_size(20.0)
            .with_d_max(0.8)
            .with_dt(0.25)
            .with_delta(0.01)
            .with_max_steps(100)
            .with_manipulation(false)
            .with_interpolation(false)
            .with_windows(1, 4)
            .with_update_period(5)
            .with_max_rounds(7);
        assert_eq!(c.bin_size, 20.0);
        assert_eq!(c.d_max, 0.8);
        assert_eq!(c.dt, 0.25);
        assert_eq!(c.delta, 0.01);
        assert_eq!(c.max_steps, 100);
        assert!(!c.manipulate);
        assert!(!c.interpolate);
        assert_eq!((c.w1, c.w2), (1, 4));
        assert_eq!(c.n_u, 5);
        assert_eq!(c.max_rounds, 7);
    }

    #[test]
    fn validate_accepts_defaults_and_builder_outputs() {
        assert_eq!(DiffusionConfig::default().validate(), Ok(()));
        let c = DiffusionConfig::new()
            .with_bin_size(20.0)
            .with_d_max(0.8)
            .with_dt(0.25)
            .with_windows(1, 4)
            .with_update_period(5)
            .with_threads(4);
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_each_bad_field() {
        let base = DiffusionConfig::default;

        let mut c = base();
        c.bin_size = 0.0;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::NonPositive {
                field: "bin_size",
                ..
            })
        ));

        let mut c = base();
        c.d_max = f64::NAN;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::NonPositive { field: "d_max", .. })
        ));

        let mut c = base();
        c.delta = -0.1;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::Negative { field: "delta", .. })
        ));

        let mut c = base();
        c.delta = f64::NAN;
        assert!(c.validate().is_err());

        let mut c = base();
        c.dt = 0.4;
        c.diffusivity = 2.0;
        assert_eq!(
            c.validate(),
            Err(ConfigError::UnstableTimeStep {
                dt: 0.4,
                diffusivity: 2.0
            })
        );

        let mut c = base();
        c.w1 = 3;
        c.w2 = 1;
        assert_eq!(c.validate(), Err(ConfigError::WindowOrder { w1: 3, w2: 1 }));

        let mut c = base();
        c.n_u = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroUpdatePeriod));

        let mut c = base();
        c.threads = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroThreads));

        let mut c = base();
        c.max_step_displacement = -1.0;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::NonPositive {
                field: "max_step_displacement",
                ..
            })
        ));
    }

    #[test]
    fn config_error_messages_name_the_field() {
        let c = DiffusionConfig {
            bin_size: -3.0,
            ..DiffusionConfig::default()
        };
        let msg = c.validate().unwrap_err().to_string();
        assert!(msg.contains("bin_size") && msg.contains("-3"), "{msg}");
    }

    #[test]
    #[should_panic(expected = "stability")]
    fn unstable_dt_rejected() {
        let _ = DiffusionConfig::default().with_dt(0.9);
    }

    #[test]
    #[should_panic(expected = "W2 must be at least W1")]
    fn w2_smaller_than_w1_rejected() {
        let _ = DiffusionConfig::default().with_windows(3, 1);
    }
}
