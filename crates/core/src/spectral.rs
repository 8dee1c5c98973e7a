//! Closed-form spectral density evolution: in-tree real-to-real DCT
//! transforms and a solver that jumps the diffusion field to any time.
//!
//! The FTCS kernel integrates `∂ρ/∂t = D·∇²ρ` one small step at a time
//! — thousands of O(n) sweeps per migration. But under the engine's
//! default *conservative* boundary rule (ghost = own density, i.e.
//! zero-flux Neumann), the diffusion operator diagonalizes in the
//! DCT-II basis: the half-sample cosine modes `cos(πk(j+½)/n)` are
//! exactly the eigenfunctions of the heat equation on `[0, n]` with
//! insulated ends. So the solution at *any* time `t` is one forward
//! transform, a per-mode exponential decay `exp(-t·((πk/nx)² +
//! (πl/ny)²))`, and one inverse transform — O(n log n) total instead
//! of O(n·steps).
//!
//! The workspace is hermetic (no registry crates), so the transforms
//! are built here from scratch:
//!
//! - **power-of-two lengths** run through a radix-2 complex FFT of the
//!   even extension (length 2n), the standard DCT-II/III factorization;
//! - **any other length** evaluates the O(n²) definition folded by the
//!   DCT's even/odd symmetry `cos(πk(2(n−1−j)+1)/(2n)) =
//!   (−1)^k·cos(πk(2j+1)/(2n))`: DCT-II takes the sums `x[j] + x[n−1−j]`
//!   into the even outputs and the differences into the odd ones,
//!   DCT-III sums the even and odd coefficients apart and writes
//!   `y[j] = E + O`, `y[n−1−j] = E − O`. That is about n²/2
//!   multiply-adds per line instead of n², against four half-size
//!   tables (~100 KiB at n = 113). Both directions run one kernel that
//!   adds four table rows at a time into the outputs, an axpy that
//!   vectorises across the output (4-wide on a CPU with AVX2, through a
//!   second compiled copy of the kernel, with the same bits). Plans of
//!   equal length share one set of tables.
//!
//! [`SpectralSolver`] adds the incremental form Algorithm 1 needs, on a
//! planar or a volumetric grid (a volumetric mode also decays by
//! `exp(-t·(πm/nz)²)`): the
//! forward transform of `ρ(0)` is computed once and cached; every
//! density query re-decays the cached coefficients and inverse
//! transforms, so `k` queries cost one forward transform plus `k`
//! inverse transforms. Every axis runs one strided line pass in place
//! on the field: line `i` starts at `i·gap` and steps by a fixed stride
//! (1 for x, `nx` for y, `nx·ny` for z), so no axis transposes the grid.
//!
//! All transforms run serially on the calling thread — the spectral
//! path is trivially bit-identical at any worker-thread count.

use crate::cpu::{has_avx2, Simd};
use crate::Dims;
use std::f64::consts::PI;
use std::sync::Arc;

/// Applies the separable mode decay `dst[i] = src[i] * e_line * decay_x[i]`
/// over one coefficient line in explicit 4-wide lane chunks with a scalar
/// tail. Every element is independent and the per-element expression is
/// unchanged, so the lane restructure is bit-identical to the plain loop.
fn decay_line(dst: &mut [f64], src: &[f64], decay_x: &[f64], e_line: f64) {
    const L: usize = 4;
    let n = dst.len();
    let mut j = 0;
    while j + L <= n {
        let mut lane = [0.0f64; L];
        for (t, x) in lane.iter_mut().enumerate() {
            *x = src[j + t] * e_line * decay_x[j + t];
        }
        dst[j..j + L].copy_from_slice(&lane);
        j += L;
    }
    while j < n {
        dst[j] = src[j] * e_line * decay_x[j];
        j += 1;
    }
}

/// Iterative radix-2 complex FFT plan for a fixed power-of-two size.
#[derive(Clone)]
struct Fft {
    m: usize,
    /// `cos(-2πj/m)` for `j < m/2`.
    tw_re: Vec<f64>,
    /// `sin(-2πj/m)` for `j < m/2`.
    tw_im: Vec<f64>,
    /// Bit-reversal permutation of `0..m`.
    rev: Vec<u32>,
}

impl Fft {
    fn new(m: usize) -> Self {
        debug_assert!(m.is_power_of_two() && m >= 2);
        let half = m / 2;
        let mut tw_re = Vec::with_capacity(half);
        let mut tw_im = Vec::with_capacity(half);
        for j in 0..half {
            let a = -2.0 * PI * j as f64 / m as f64;
            tw_re.push(a.cos());
            tw_im.push(a.sin());
        }
        let bits = m.trailing_zeros();
        let rev = (0..m as u32)
            .map(|i| i.reverse_bits() >> (32 - bits))
            .collect();
        Self {
            m,
            tw_re,
            tw_im,
            rev,
        }
    }

    /// Unscaled DFT in place. `inverse` flips the twiddle sign
    /// (`e^{+2πijk/m}`); neither direction divides by `m` — callers
    /// fold normalization into their own post-scaling.
    fn transform(&self, re: &mut [f64], im: &mut [f64], inverse: bool) {
        let m = self.m;
        debug_assert_eq!(re.len(), m);
        debug_assert_eq!(im.len(), m);
        for (i, &r) in self.rev.iter().enumerate() {
            let r = r as usize;
            if i < r {
                re.swap(i, r);
                im.swap(i, r);
            }
        }
        let mut len = 2;
        while len <= m {
            let stride = m / len;
            let half = len / 2;
            let mut start = 0;
            while start < m {
                for j in 0..half {
                    let wr = self.tw_re[j * stride];
                    let wi = if inverse {
                        -self.tw_im[j * stride]
                    } else {
                        self.tw_im[j * stride]
                    };
                    let a = start + j;
                    let b = a + half;
                    let xr = re[b] * wr - im[b] * wi;
                    let xi = re[b] * wi + im[b] * wr;
                    re[b] = re[a] - xr;
                    im[b] = im[a] - xi;
                    re[a] += xr;
                    im[a] += xi;
                }
                start += len;
            }
            len *= 2;
        }
    }
}

/// How a [`DctPlan`] evaluates its transforms.
#[derive(Clone)]
enum Kind {
    /// Power-of-two length: even extension + 2n-point radix-2 FFT,
    /// O(n log n) per transform.
    Pow2 {
        fft: Fft,
        /// `cos(πk/(2n))` for `k < n`.
        ph_cos: Vec<f64>,
        /// `sin(πk/(2n))` for `k < n`.
        ph_sin: Vec<f64>,
        /// Real and imaginary halves of the 2n-point transform.
        sc_re: Vec<f64>,
        sc_im: Vec<f64>,
    },
    /// Generic length: the O(n²) definition folded by symmetry, against
    /// [`FoldTables`] shared by every clone of the plan.
    Matrix {
        tables: Arc<FoldTables>,
        /// Two lines' folded inputs and half-length outputs, `n` each.
        scratch: Vec<f64>,
    },
    /// The generic-length oracle: [`reference`] loops over the 4n table
    /// `cos[t] = cos(πt/(2n))`.
    #[cfg(test)]
    Reference { cos: Vec<f64> },
}

/// `cos[t] = cos(πt/(2n))` for `t < 4n`: every DCT angle of length `n`
/// reduces to one of these entries.
fn cos_table(n: usize) -> Vec<f64> {
    (0..4 * n)
        .map(|t| (PI * t as f64 / (2.0 * n as f64)).cos())
        .collect()
}

/// The generic-length tables, folded by the symmetry
/// `cos(πk(2(n−1−j)+1)/(2n)) = (−1)^k·cos(πk(2j+1)/(2n))`. With
/// `ce = ⌈n/2⌉` and `h = ⌊n/2⌋`, all row-major:
///
/// - `even[j·ce + m] = cos(π·2m·(2j+1)/(2n))`, `ce`×`ce`: the weight of
///   the folded sum `s[j] = x[j] + x[n−1−j]` (and of the middle sample
///   `s[h] = x[h]` when n is odd) in output `2m`;
/// - `odd[j·h + m] = cos(π(2m+1)(2j+1)/(2n))`, `h`×`h`: the weight of
///   the difference `d[j] = x[j] − x[n−1−j]` in output `2m+1`;
/// - `even_t` and `odd_t`, their transposes.
///
/// A row of `even`/`odd` holds the DCT-II weights of one folded input
/// and a row of `even_t`/`odd_t` the DCT-III weights of one coefficient,
/// so both directions run as row axpys.
struct FoldTables {
    even: Vec<f64>,
    odd: Vec<f64>,
    even_t: Vec<f64>,
    odd_t: Vec<f64>,
}

impl FoldTables {
    /// Reads the tables off the 4n-entry table `cos[t] = cos(πt/(2n))`,
    /// entry `(j, k)` at `t = (2j+1)·k mod 4n`, so every entry is the
    /// exact value the per-term modulo loop would index. Each row walks
    /// an arithmetic sequence of `t`, wrapped at 4n by one subtraction
    /// per step instead of a modulo (no start or step reaches 4n).
    fn new(n: usize) -> Self {
        let cos = cos_table(n);
        let table = |len: usize, start_step: fn(usize) -> (usize, usize)| {
            let mut t = Vec::with_capacity(len * len);
            for r in 0..len {
                let (mut at, step) = start_step(r);
                for _ in 0..len {
                    t.push(cos[at]);
                    at += step;
                    if at >= cos.len() {
                        at -= cos.len();
                    }
                }
            }
            t
        };
        let (ce, h) = (n.div_ceil(2), n / 2);
        Self {
            even: table(ce, |j| (0, 2 * (2 * j + 1))),
            odd: table(h, |j| (2 * j + 1, 2 * (2 * j + 1))),
            even_t: table(ce, |m| (2 * m, 4 * m)),
            odd_t: table(h, |m| (2 * m + 1, 2 * (2 * m + 1))),
        }
    }
}

/// Matrix rows one pass of [`axpy_body`] adds in; the body splits each
/// block into the four named rows `r0..r3`.
const ROWS: usize = 4;

/// The generic-length transforms in the folded order, one output at a
/// time, every angle reduced to an index into the 4n table
/// `cos[t] = cos(πt/(2n))` with a per-term modulo: the oracle the
/// folded kernels must match bit for bit. Each output keeps the
/// kernels' start value and adds its terms in ascending row order, with
/// the middle sample last.
#[cfg(test)]
mod reference {
    /// `cos(πk(2j+1)/(2n))` read off the 4n table.
    fn at(cos: &[f64], j: usize, k: usize) -> f64 {
        cos[(2 * j + 1) * k % cos.len()]
    }

    pub(super) fn dct2(cos: &[f64], input: &[f64], output: &mut [f64]) {
        let n = input.len();
        let h = n / 2;
        for (k, out) in output.iter_mut().enumerate() {
            let mut acc = 0.0;
            if k % 2 == 0 {
                for j in 0..n.div_ceil(2) {
                    let s = if j < h {
                        input[j] + input[n - 1 - j]
                    } else {
                        input[j]
                    };
                    acc += s * at(cos, j, k);
                }
            } else {
                for j in 0..h {
                    acc += (input[j] - input[n - 1 - j]) * at(cos, j, k);
                }
            }
            *out = acc;
        }
    }

    pub(super) fn dct3(cos: &[f64], input: &[f64], output: &mut [f64]) {
        let n = input.len();
        let h = n / 2;
        for j in 0..n.div_ceil(2) {
            let mut e = input[0] * 0.5;
            for k in (2..n).step_by(2) {
                e += input[k] * at(cos, j, k);
            }
            if j < h {
                let mut o = 0.0;
                for k in (1..n).step_by(2) {
                    o += input[k] * at(cos, j, k);
                }
                output[j] = e + o;
                output[n - 1 - j] = e - o;
            } else {
                output[j] = e;
            }
        }
    }
}

/// Adds the `R = coef[l].len()` rows of the row-major block `rows`, each
/// as wide as the outputs, into `L` outputs, row `r` weighted by
/// `coef[l][r]` in output `l`:
///
/// `out[l][i] = ((out[l][i] + coef[l][0]·row_0[i]) + …)`
///
/// in ascending row order, the summation order of the plain per-output
/// loop `acc += c·v`. Each pass adds [`ROWS`] rows as
/// `((o + c₀·r₀[i]) + c₁·r₁[i]) + …`, left to right; the inner loop is an
/// axpy across `i` that vectorises at whatever width the calling copy
/// is compiled for, and every loaded row entry feeds all `L` outputs.
#[inline(always)]
fn axpy_body<const L: usize>(rows: &[f64], coef: [&[f64]; L], mut out: [&mut [f64]; L]) {
    let (w, n) = (out[0].len(), coef[0].len());
    // Checked once here, so no index in the loops below can fail.
    for (o, c) in out.iter().zip(&coef) {
        assert_eq!((o.len(), c.len()), (w, n));
    }
    assert_eq!(rows.len(), n * w);
    let row = |r: usize| &rows[r * w..(r + 1) * w];
    let mut r = 0;
    while r + ROWS <= n {
        let (r0, r1, r2, r3) = (row(r), row(r + 1), row(r + 2), row(r + 3));
        let c: [[f64; ROWS]; L] = std::array::from_fn(|l| {
            let x = coef[l];
            [x[r], x[r + 1], x[r + 2], x[r + 3]]
        });
        for i in 0..w {
            let col = [r0[i], r1[i], r2[i], r3[i]];
            for (o, c) in out.iter_mut().zip(&c) {
                o[i] = o[i] + c[0] * col[0] + c[1] * col[1] + c[2] * col[2] + c[3] * col[3];
            }
        }
        r += ROWS;
    }
    for r in r..n {
        let row = row(r);
        for (o, x) in out.iter_mut().zip(&coef) {
            let c = x[r];
            for (o, &v) in o.iter_mut().zip(row) {
                *o += c * v;
            }
        }
    }
}

/// [`axpy_body`] compiled for the crate's build target (2-wide `f64`
/// vectors on baseline x86-64).
fn axpy_portable<const L: usize>(rows: &[f64], coef: [&[f64]; L], out: [&mut [f64]; L]) {
    axpy_body(rows, coef, out);
}

/// [`axpy_body`] compiled with AVX2 enabled: 4-wide `f64` vectors.
/// `fma` stays off and Rust never contracts `a + b·c` on its own, so
/// every output takes the same roundings as in [`axpy_portable`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn axpy_avx2<const L: usize>(rows: &[f64], coef: [&[f64]; L], out: [&mut [f64]; L]) {
    axpy_body(rows, coef, out);
}

/// Runs [`axpy_body`] through the compiled copy `simd`.
fn axpy<const L: usize>(simd: Simd, rows: &[f64], coef: [&[f64]; L], out: [&mut [f64]; L]) {
    match simd {
        #[cfg(target_arch = "x86_64")]
        Simd::Avx2 => {
            assert!(has_avx2());
            // SAFETY: the CPU supports AVX2, the one feature the copy
            // enables, checked just above.
            unsafe { axpy_avx2(rows, coef, out) }
        }
        _ => axpy_portable(rows, coef, out),
    }
}

/// Folds the line `x` into `sd`: first the `⌈n/2⌉` sums
/// `s[j] = x[j] + x[n−1−j]`, the middle sample `x[h]` last when n is
/// odd, then the `⌊n/2⌋` differences `d[j] = x[j] − x[n−1−j]`.
fn fold(x: &[f64], sd: &mut [f64]) {
    let n = x.len();
    let h = n / 2;
    let (s, d) = sd.split_at_mut(n.div_ceil(2));
    for j in 0..h {
        s[j] = x[j] + x[n - 1 - j];
        d[j] = x[j] - x[n - 1 - j];
    }
    if n % 2 == 1 {
        s[h] = x[h];
    }
}

/// Undoes [`fold`]'s split on the DCT-III side: from the `⌈n/2⌉` even
/// sums `e` and then the `⌊n/2⌋` odd sums `o` in `eo`, writes
/// `y[j] = e[j] + o[j]` and `y[n−1−j] = e[j] − o[j]`, and the middle
/// output `y[h] = e[h]` when n is odd.
fn unfold(eo: &[f64], y: &mut [f64]) {
    let n = y.len();
    let h = n / 2;
    let (e, o) = eo.split_at(n.div_ceil(2));
    for j in 0..h {
        y[j] = e[j] + o[j];
        y[n - 1 - j] = e[j] - o[j];
    }
    if n % 2 == 1 {
        y[h] = e[h];
    }
}

/// Splits `scratch` into `L` folded-input lines and `L` half-output
/// lines of `n` entries each.
fn scratch_lines<const L: usize>(
    scratch: &mut [f64],
    n: usize,
) -> ([&mut [f64]; L], [&mut [f64]; L]) {
    let mut lines = scratch.chunks_exact_mut(n);
    let mut next = || lines.next().expect("scratch holds 2L lines");
    let folded = std::array::from_fn(|_| next());
    let halves = std::array::from_fn(|_| next());
    (folded, halves)
}

/// DCT-II of `L` lines on a generic-length plan. Each line is [`fold`]ed
/// into `s` and `d`; output `2m` is `0.0 + Σ_j s[j]·even[j][m]` and
/// output `2m+1` is `0.0 + Σ_j d[j]·odd[j][m]`, `j` ascending.
fn folded_dct2<const L: usize>(
    simd: Simd,
    t: &FoldTables,
    scratch: &mut [f64],
    input: [&[f64]; L],
    mut out: [&mut [f64]; L],
) {
    let n = input[0].len();
    let (ce, h) = (n.div_ceil(2), n / 2);
    let (mut folded, mut halves) = scratch_lines::<L>(scratch, n);
    for (sd, x) in folded.iter_mut().zip(&input) {
        fold(x, sd);
    }
    for half in halves.iter_mut() {
        half.fill(0.0);
    }
    let s = folded.each_ref().map(|sd| &sd[..ce]);
    let d = folded.each_ref().map(|sd| &sd[ce..]);
    let e = halves.each_mut().map(|eo| &mut eo[..ce]);
    axpy(simd, &t.even, s, e);
    let o = halves.each_mut().map(|eo| &mut eo[ce..]);
    axpy(simd, &t.odd, d, o);
    for (o, eo) in out.iter_mut().zip(&halves) {
        for m in 0..h {
            o[2 * m] = eo[m];
            o[2 * m + 1] = eo[ce + m];
        }
        if ce > h {
            o[n - 1] = eo[h];
        }
    }
}

/// DCT-III of `L` lines on a generic-length plan: `E[j]` starts at
/// `in[0]·0.5` and adds `in[2m]·even_t[m][j]` for `m ≥ 1`, `O[j]` starts
/// at `0.0` and adds `in[2m+1]·odd_t[m][j]`, both `m` ascending; then
/// [`unfold`] writes `E ± O`.
fn folded_dct3<const L: usize>(
    simd: Simd,
    t: &FoldTables,
    scratch: &mut [f64],
    input: [&[f64]; L],
    mut out: [&mut [f64]; L],
) {
    let n = input[0].len();
    let ce = n.div_ceil(2);
    let (mut split, mut halves) = scratch_lines::<L>(scratch, n);
    for ((c, half), x) in split.iter_mut().zip(halves.iter_mut()).zip(&input) {
        for (k, &v) in x.iter().enumerate() {
            c[k / 2 + (k % 2) * ce] = v;
        }
        half[..ce].fill(x[0] * 0.5);
        half[ce..].fill(0.0);
    }
    // `in[0]` already sits in the start value, so the even sum adds
    // the rows of `even_t` from `m = 1`.
    let even = split.each_ref().map(|c| &c[1..ce]);
    let odd = split.each_ref().map(|c| &c[ce..]);
    let e = halves.each_mut().map(|eo| &mut eo[..ce]);
    axpy(simd, &t.even_t[ce..], even, e);
    let o = halves.each_mut().map(|eo| &mut eo[ce..]);
    axpy(simd, &t.odd_t, odd, o);
    for (o, eo) in out.iter_mut().zip(&halves) {
        unfold(eo, o);
    }
}

/// A reusable 1-D DCT-II/DCT-III plan for a fixed length `n`.
///
/// The transforms are **unnormalized**:
///
/// - DCT-II: `X[k] = Σ_j x[j]·cos(πk(2j+1)/(2n))`
/// - DCT-III: `y[j] = c[0]/2 + Σ_{k≥1} c[k]·cos(πk(2j+1)/(2n))`
///
/// which compose to `dct3(dct2(x)) = (n/2)·x` — the inverse of `dct2`
/// is `(2/n)·dct3`.
///
/// # Examples
///
/// ```
/// use dpm_diffusion::DctPlan;
///
/// let x = [1.0, 3.0, -2.0, 0.5, 4.0, -1.0];
/// let mut plan = DctPlan::new(x.len());
/// let mut coeffs = [0.0; 6];
/// let mut back = [0.0; 6];
/// plan.dct2(&x, &mut coeffs);
/// plan.dct3(&coeffs, &mut back);
/// let scale = x.len() as f64 / 2.0;
/// for (orig, rt) in x.iter().zip(&back) {
///     assert!((orig - rt / scale).abs() < 1e-12);
/// }
/// ```
///
/// Clones share the generic-length cosine tables; each clone keeps its
/// own scratch space.
#[derive(Clone)]
pub struct DctPlan {
    n: usize,
    kind: Kind,
}

impl DctPlan {
    /// Builds a plan for length-`n` transforms. Power-of-two lengths
    /// get the O(n log n) FFT path; anything else the exact O(n²) path
    /// folded by the DCT's even/odd symmetry: DCT-II adds the sums
    /// `x[j] + x[n−1−j]` (the middle sample last when n is odd) into
    /// the even outputs and the differences into the odd ones, DCT-III
    /// sums the even and odd coefficients apart (the even sum from
    /// `c[0]·0.5`) and writes their sum and difference, every sum in
    /// ascending row order. That is `⌈n/2⌉² + ⌊n/2⌋²` multiply-adds per
    /// transform against four half-size tables of `f64`: 100 KiB at
    /// n = 113.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "DCT length must be positive");
        let kind = if n.is_power_of_two() {
            let mut ph_cos = Vec::with_capacity(n);
            let mut ph_sin = Vec::with_capacity(n);
            for k in 0..n {
                let a = PI * k as f64 / (2.0 * n as f64);
                ph_cos.push(a.cos());
                ph_sin.push(a.sin());
            }
            Kind::Pow2 {
                fft: Fft::new(2 * n),
                ph_cos,
                ph_sin,
                sc_re: vec![0.0; 2 * n],
                sc_im: vec![0.0; 2 * n],
            }
        } else {
            Kind::Matrix {
                tables: Arc::new(FoldTables::new(n)),
                scratch: vec![0.0; 4 * n],
            }
        };
        Self { n, kind }
    }

    /// A generic-length plan that runs the [`reference`] oracle loops.
    #[cfg(test)]
    fn reference(n: usize) -> Self {
        assert!(
            n > 0 && !n.is_power_of_two(),
            "oracle covers generic lengths"
        );
        Self {
            n,
            kind: Kind::Reference { cos: cos_table(n) },
        }
    }

    /// Multiply-adds one transform of this plan runs against its folded
    /// tables, `⌈n/2⌉² + ⌊n/2⌋²` (6,385 at n = 113); `None` on the
    /// power-of-two FFT path.
    pub fn table_madds(&self) -> Option<usize> {
        match &self.kind {
            Kind::Matrix { tables, .. } => Some(tables.even.len() + tables.odd.len()),
            _ => None,
        }
    }

    /// The transform length this plan was built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always `false`: zero-length plans are rejected at construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Unnormalized DCT-II of `input` into `output`.
    ///
    /// # Panics
    ///
    /// Panics if either slice's length differs from [`len`](Self::len).
    pub fn dct2(&mut self, input: &[f64], output: &mut [f64]) {
        let n = self.n;
        assert_eq!(input.len(), n, "dct2 input length");
        assert_eq!(output.len(), n, "dct2 output length");
        match &mut self.kind {
            Kind::Pow2 {
                fft,
                ph_cos,
                ph_sin,
                sc_re,
                sc_im,
            } => {
                // Even extension y = [x, reverse(x)] makes the 2n-point
                // DFT carry the DCT-II: Y[k] = 2·e^{iπk/(2n)}·X[k].
                for (j, &x) in input.iter().enumerate() {
                    sc_re[j] = x;
                    sc_re[2 * n - 1 - j] = x;
                }
                sc_im.fill(0.0);
                fft.transform(sc_re, sc_im, false);
                for k in 0..n {
                    output[k] = 0.5 * (sc_re[k] * ph_cos[k] + sc_im[k] * ph_sin[k]);
                }
            }
            Kind::Matrix { tables, scratch } => {
                folded_dct2(Simd::detect(), tables, scratch, [input], [output]);
            }
            #[cfg(test)]
            Kind::Reference { cos } => reference::dct2(cos, input, output),
        }
    }

    /// DCT-II of two sequences through one complex FFT.
    ///
    /// The even extensions of `in0` and `in1` are packed as the real
    /// and imaginary halves of a single 2n-point transform and split
    /// back by conjugate symmetry — the classic two-real-sequences
    /// trick, halving the per-sequence cost on the power-of-two path.
    /// Generic lengths stream the folded tables once for both
    /// sequences, each output bit-equal to [`dct2`](Self::dct2).
    ///
    /// # Panics
    ///
    /// Panics if any slice's length differs from [`len`](Self::len).
    pub fn dct2_pair(&mut self, in0: &[f64], in1: &[f64], out0: &mut [f64], out1: &mut [f64]) {
        let n = self.n;
        assert_eq!(in0.len(), n, "dct2_pair input length");
        assert_eq!(in1.len(), n, "dct2_pair input length");
        assert_eq!(out0.len(), n, "dct2_pair output length");
        assert_eq!(out1.len(), n, "dct2_pair output length");
        match &mut self.kind {
            Kind::Pow2 {
                fft,
                ph_cos,
                ph_sin,
                sc_re,
                sc_im,
            } => {
                let m = 2 * n;
                for j in 0..n {
                    sc_re[j] = in0[j];
                    sc_re[m - 1 - j] = in0[j];
                    sc_im[j] = in1[j];
                    sc_im[m - 1 - j] = in1[j];
                }
                fft.transform(sc_re, sc_im, false);
                for k in 0..n {
                    let mk = if k == 0 { 0 } else { m - k };
                    // Split Z into the two conjugate-symmetric spectra:
                    // Y0 = (Z[k] + conj(Z[m-k]))/2, Y1 = (Z[k] - conj(Z[m-k]))/(2i).
                    let y0_re = 0.5 * (sc_re[k] + sc_re[mk]);
                    let y0_im = 0.5 * (sc_im[k] - sc_im[mk]);
                    let y1_re = 0.5 * (sc_im[k] + sc_im[mk]);
                    let y1_im = -0.5 * (sc_re[k] - sc_re[mk]);
                    out0[k] = 0.5 * (y0_re * ph_cos[k] + y0_im * ph_sin[k]);
                    out1[k] = 0.5 * (y1_re * ph_cos[k] + y1_im * ph_sin[k]);
                }
            }
            Kind::Matrix { tables, scratch } => {
                folded_dct2(Simd::detect(), tables, scratch, [in0, in1], [out0, out1]);
            }
            #[cfg(test)]
            Kind::Reference { cos } => {
                reference::dct2(cos, in0, out0);
                reference::dct2(cos, in1, out1);
            }
        }
    }

    /// DCT-III of two coefficient sequences through one complex FFT
    /// (the inverse-direction counterpart of
    /// [`dct2_pair`](Self::dct2_pair)). Generic lengths stream the
    /// folded tables once for both sequences, each output bit-equal to
    /// [`dct3`](Self::dct3).
    ///
    /// # Panics
    ///
    /// Panics if any slice's length differs from [`len`](Self::len).
    pub fn dct3_pair(&mut self, in0: &[f64], in1: &[f64], out0: &mut [f64], out1: &mut [f64]) {
        let n = self.n;
        assert_eq!(in0.len(), n, "dct3_pair input length");
        assert_eq!(in1.len(), n, "dct3_pair input length");
        assert_eq!(out0.len(), n, "dct3_pair output length");
        assert_eq!(out1.len(), n, "dct3_pair output length");
        match &mut self.kind {
            Kind::Pow2 {
                fft,
                ph_cos,
                ph_sin,
                sc_re,
                sc_im,
            } => {
                let m = 2 * n;
                // Z[k] = Y0[k] + i·Y1[k] where Yi is the conjugate-
                // symmetric even-extension spectrum of sequence i.
                sc_re[0] = in0[0];
                sc_im[0] = in1[0];
                for k in 1..n {
                    let a_re = in0[k] * ph_cos[k];
                    let a_im = in0[k] * ph_sin[k];
                    let b_re = in1[k] * ph_cos[k];
                    let b_im = in1[k] * ph_sin[k];
                    sc_re[k] = a_re - b_im;
                    sc_im[k] = a_im + b_re;
                    sc_re[m - k] = a_re + b_im;
                    sc_im[m - k] = b_re - a_im;
                }
                sc_re[n] = 0.0;
                sc_im[n] = 0.0;
                fft.transform(sc_re, sc_im, true);
                for j in 0..n {
                    out0[j] = 0.5 * sc_re[j];
                    out1[j] = 0.5 * sc_im[j];
                }
            }
            Kind::Matrix { tables, scratch } => {
                folded_dct3(Simd::detect(), tables, scratch, [in0, in1], [out0, out1]);
            }
            #[cfg(test)]
            Kind::Reference { cos } => {
                reference::dct3(cos, in0, out0);
                reference::dct3(cos, in1, out1);
            }
        }
    }

    /// Unnormalized DCT-III of `input` into `output` (half-weight on
    /// the DC coefficient, so `dct3 ∘ dct2 = (n/2)·id`).
    ///
    /// # Panics
    ///
    /// Panics if either slice's length differs from [`len`](Self::len).
    pub fn dct3(&mut self, input: &[f64], output: &mut [f64]) {
        let n = self.n;
        assert_eq!(input.len(), n, "dct3 input length");
        assert_eq!(output.len(), n, "dct3 output length");
        match &mut self.kind {
            Kind::Pow2 {
                fft,
                ph_cos,
                ph_sin,
                sc_re,
                sc_im,
            } => {
                // Rebuild the conjugate-symmetric spectrum of the even
                // extension and inverse-transform it; the first n
                // outputs are 2·dct3(input).
                let m = 2 * n;
                sc_re[0] = input[0];
                sc_im[0] = 0.0;
                for k in 1..n {
                    let re = input[k] * ph_cos[k];
                    let im = input[k] * ph_sin[k];
                    sc_re[k] = re;
                    sc_im[k] = im;
                    sc_re[m - k] = re;
                    sc_im[m - k] = -im;
                }
                sc_re[n] = 0.0;
                sc_im[n] = 0.0;
                fft.transform(sc_re, sc_im, true);
                for (j, out) in output.iter_mut().enumerate() {
                    *out = 0.5 * sc_re[j];
                }
            }
            Kind::Matrix { tables, scratch } => {
                folded_dct3(Simd::detect(), tables, scratch, [input], [output]);
            }
            #[cfg(test)]
            Kind::Reference { cos } => reference::dct3(cos, input, output),
        }
    }
}

/// A length-`n` plan that shares the tables of the first plan in `built`
/// with the same length, so a solver holds one set of folded tables per
/// distinct generic axis length.
fn plan_sharing(n: usize, built: &[&DctPlan]) -> DctPlan {
    built
        .iter()
        .find(|p| p.n == n)
        .map_or_else(|| DctPlan::new(n), |p| DctPlan::clone(p))
}

/// The continuous Neumann decay rate `(πk/len)²` of mode `k` along an
/// axis of `len` bins.
fn mode_rate(k: usize, len: usize) -> f64 {
    let f = PI * k as f64 / len as f64;
    f * f
}

/// Transforms `field.len() / plan.len()` lines of `field` in place with
/// `plan`: line `i` starts at `i·gap` and steps by `stride` (x: gap `nx`,
/// stride 1; y: gap 1, stride `nx`; z: gap 1, stride `nx·ny`). Lines go
/// two at a time through `pair`, gathered side by side into scratch,
/// transformed into scratch and scattered back; an odd last line takes
/// `single` the same way.
fn pass(
    plan: &mut DctPlan,
    [a, b, ta, tb]: &mut [Vec<f64>; 4],
    field: &mut [f64],
    gap: usize,
    stride: usize,
    pair: impl Fn(&mut DctPlan, &[f64], &[f64], &mut [f64], &mut [f64]),
    single: impl Fn(&mut DctPlan, &[f64], &mut [f64]),
) {
    let n = plan.n;
    let count = field.len() / n;
    let (a, b, ta, tb) = (&mut a[..n], &mut b[..n], &mut ta[..n], &mut tb[..n]);
    for i in (0..count).step_by(2) {
        let (p, q) = (i * gap, (i + 1) * gap);
        if i + 1 < count {
            for (j, (u, v)) in a.iter_mut().zip(b.iter_mut()).enumerate() {
                (*u, *v) = (field[p + j * stride], field[q + j * stride]);
            }
            pair(plan, a, b, ta, tb);
            for (j, (&u, &v)) in ta.iter().zip(tb.iter()).enumerate() {
                (field[p + j * stride], field[q + j * stride]) = (u, v);
            }
        } else {
            for (j, u) in a.iter_mut().enumerate() {
                *u = field[p + j * stride];
            }
            single(plan, a, ta);
            for (j, &u) in ta.iter().enumerate() {
                field[p + j * stride] = u;
            }
        }
    }
}

/// Closed-form diffusion solver over a planar or volumetric density
/// field with zero-flux boundaries.
///
/// Construction takes **one forward DCT-II** of the initial field and
/// caches the coefficients. Every [`density_at`](Self::density_at) query
/// decays each mode `(k, l)` by `exp(-t·((πk/nx)² + (πl/ny)²))` — the
/// *continuous* Neumann eigenvalues, so a sampled cosine mode follows the
/// analytic heat-equation solution to machine precision — and runs one
/// inverse transform. Mode `(0, 0)` never decays: total mass is conserved
/// exactly at every queried time.
///
/// A [`Dims::D3`] grid stacks `nz` planes (plane-major,
/// `field[(z·ny + k)·nx + j]`, as in
/// [`DiffusionEngine::from_raw_3d`](crate::DiffusionEngine::from_raw_3d)).
/// Each plane runs the x and y passes, and one z pass over the planes
/// follows them in the forward transform and precedes them in the
/// inverse; mode `(k, l, m)` also decays by `exp(-t·(πm/nz)²)`. Every
/// pass walks its lines in place with a fixed stride.
///
/// Queries always re-decay from the cached `t = 0` coefficients, never
/// from a previous query, so repeated queries accumulate no error and
/// `t` may be requested in any order.
///
/// # Examples
///
/// ```
/// use dpm_diffusion::SpectralSolver;
/// use std::f64::consts::PI;
///
/// let (nx, ny) = (8, 8);
/// let mut field = vec![0.0; nx * ny];
/// for l in 0..ny {
///     for k in 0..nx {
///         let c = (PI * 2.0 * (k as f64 + 0.5) / nx as f64).cos();
///         field[l * nx + k] = 1.0 + 0.25 * c;
///     }
/// }
/// let mut solver = SpectralSolver::new(nx, ny, &field);
/// let mut out = vec![0.0; nx * ny];
/// // t = 0 reproduces the input field.
/// solver.density_at(0.0, &mut out);
/// assert!(field.iter().zip(&out).all(|(a, b)| (a - b).abs() < 1e-12));
/// // Mass is conserved exactly at any jump distance.
/// solver.density_at(3.0, &mut out);
/// let before: f64 = field.iter().sum();
/// let after: f64 = out.iter().sum();
/// assert!((before - after).abs() < 1e-9 * before.abs().max(1.0));
/// ```
pub struct SpectralSolver {
    dims: Dims,
    plan_x: DctPlan,
    plan_y: DctPlan,
    /// The z-axis plan of a [`Dims::D3`] grid; a planar grid has none.
    plan_z: Option<DctPlan>,
    /// DCT-II coefficients of the initial field, plane-major: a copy of
    /// the field, transformed in place.
    coeffs: Vec<f64>,
    /// Continuous Neumann decay rate per x mode: `(πk/nx)²`.
    rate_x: Vec<f64>,
    /// Continuous Neumann decay rate per y mode: `(πl/ny)²`.
    rate_y: Vec<f64>,
    /// Four scratch lines as long as the longest axis: a pass gathers
    /// two lines into the first two and transforms them into the others.
    lines: [Vec<f64>; 4],
    decay_x: Vec<f64>,
    forward_transforms: u64,
    inverse_transforms: u64,
}

impl SpectralSolver {
    /// Builds a solver from the initial planar density field (row-major,
    /// `ny` rows of `nx` bins), running the one cached forward transform.
    ///
    /// # Panics
    ///
    /// Panics if `nx` or `ny` is zero or `density.len() != nx·ny`.
    pub fn new(nx: usize, ny: usize, density: &[f64]) -> Self {
        Self::with_dims(Dims::d2(nx, ny), density)
    }

    /// Builds a solver over a grid of any [`Dims`] from its initial
    /// density field (plane-major), running the one cached forward
    /// transform. Axes of equal length share one plan's tables.
    ///
    /// # Examples
    ///
    /// ```
    /// use dpm_diffusion::{Dims, SpectralSolver};
    ///
    /// let (nx, ny, nz) = (8, 4, 3);
    /// let field: Vec<f64> = (0..nx * ny * nz).map(|i| 1.0 + (i % 7) as f64 * 0.1).collect();
    /// let mut solver = SpectralSolver::with_dims(Dims::d3(nx, ny, nz), &field);
    /// let mut out = vec![0.0; nx * ny * nz];
    /// // t = 0 reproduces the input field.
    /// solver.density_at(0.0, &mut out);
    /// assert!(field.iter().zip(&out).all(|(a, b)| (a - b).abs() < 1e-9));
    /// // Mass is conserved exactly at any jump distance.
    /// solver.density_at(5.0, &mut out);
    /// let before: f64 = field.iter().sum();
    /// let after: f64 = out.iter().sum();
    /// assert!((before - after).abs() < 1e-9 * before);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if any side is zero or `density.len() != dims.len()`.
    pub fn with_dims(dims: Dims, density: &[f64]) -> Self {
        let plan_x = DctPlan::new(dims.nx());
        let plan_y = plan_sharing(dims.ny(), &[&plan_x]);
        let plan_z = match dims {
            Dims::D2 { .. } => None,
            Dims::D3 { nz, .. } => Some(plan_sharing(nz, &[&plan_x, &plan_y])),
        };
        Self::from_plans(plan_x, plan_y, plan_z, density)
    }

    fn from_plans(
        plan_x: DctPlan,
        plan_y: DctPlan,
        plan_z: Option<DctPlan>,
        density: &[f64],
    ) -> Self {
        let (nx, ny) = (plan_x.n, plan_y.n);
        let dims = match &plan_z {
            None => Dims::d2(nx, ny),
            Some(p) => Dims::d3(nx, ny, p.n),
        };
        let (n, nz) = (dims.len(), dims.nz());
        assert_eq!(density.len(), n, "field length must match the grid");
        let longest = nx.max(ny).max(nz);
        let mut solver = Self {
            dims,
            plan_x,
            plan_y,
            plan_z,
            coeffs: vec![0.0; n],
            rate_x: (0..nx).map(|k| mode_rate(k, nx)).collect(),
            rate_y: (0..ny).map(|l| mode_rate(l, ny)).collect(),
            lines: std::array::from_fn(|_| vec![0.0; longest]),
            decay_x: vec![0.0; nx],
            forward_transforms: 0,
            inverse_transforms: 0,
        };
        solver.forward(density);
        solver
    }

    /// Grid width in bins.
    pub fn nx(&self) -> usize {
        self.dims.nx()
    }

    /// Grid height in bins.
    pub fn ny(&self) -> usize {
        self.dims.ny()
    }

    /// Number of tiers (1 for a planar grid).
    pub fn nz(&self) -> usize {
        self.dims.nz()
    }

    /// Forward DCT-II of `field` into `self.coeffs`, in place: x and y
    /// on each plane, then z. The z lines go one per transform: a paired
    /// power-of-two FFT rounds differently from two single ones, and
    /// tier lines are short.
    fn forward(&mut self, field: &[f64]) {
        let (nx, plane) = (self.nx(), self.nx() * self.ny());
        self.coeffs.copy_from_slice(field);
        let (x, y, lines) = (&mut self.plan_x, &mut self.plan_y, &mut self.lines);
        for p in self.coeffs.chunks_exact_mut(plane) {
            pass(x, lines, p, nx, 1, DctPlan::dct2_pair, DctPlan::dct2);
            pass(y, lines, p, 1, nx, DctPlan::dct2_pair, DctPlan::dct2);
        }
        if let Some(z) = &mut self.plan_z {
            let pair = |z: &mut DctPlan, a: &[f64], b: &[f64], ta: &mut [f64], tb: &mut [f64]| {
                z.dct2(a, ta);
                z.dct2(b, tb);
            };
            pass(z, lines, &mut self.coeffs, 1, plane, pair, DctPlan::dct2);
        }
        self.forward_transforms += 1;
    }

    /// Writes the density field at diffusion time `t` into `out`
    /// (plane-major, one value per bin): decays the cached coefficients
    /// into `out` and runs one inverse transform on it in place.
    ///
    /// # Panics
    ///
    /// Panics if `t` is negative or non-finite, or `out` does not hold
    /// one value per bin.
    pub fn density_at(&mut self, t: f64, out: &mut [f64]) {
        assert!(t.is_finite() && t >= 0.0, "diffusion time must be >= 0");
        let (nx, ny, nz, n) = (self.nx(), self.ny(), self.nz(), self.dims.len());
        assert_eq!(out.len(), n, "output length must match the grid");
        // Separable decay: exp(-t·(μx+μy+μz)) = exp(-t·μx)·exp(-t·μy)·exp(-t·μz).
        // A planar grid's one z mode has rate 0: exp(-0) = 1 scales exactly.
        for (d, &r) in self.decay_x.iter_mut().zip(&self.rate_x) {
            *d = (-t * r).exp();
        }
        for m in 0..nz {
            let ez = (-t * mode_rate(m, nz)).exp();
            for (l, &ry) in self.rate_y.iter().enumerate() {
                let at = (m * ny + l) * nx..(m * ny + l + 1) * nx;
                let (dst, src) = (&mut out[at.clone()], &self.coeffs[at]);
                decay_line(dst, src, &self.decay_x, ez * (-t * ry).exp());
            }
        }
        let plane = nx * ny;
        let (x, y, lines) = (&mut self.plan_x, &mut self.plan_y, &mut self.lines);
        if let Some(z) = &mut self.plan_z {
            let pair = |z: &mut DctPlan, a: &[f64], b: &[f64], ta: &mut [f64], tb: &mut [f64]| {
                z.dct3(a, ta);
                z.dct3(b, tb);
            };
            pass(z, lines, out, 1, plane, pair, DctPlan::dct3);
        }
        for p in out.chunks_exact_mut(plane) {
            pass(y, lines, p, 1, nx, DctPlan::dct3_pair, DctPlan::dct3);
            pass(x, lines, p, nx, 1, DctPlan::dct3_pair, DctPlan::dct3);
        }
        // dct3∘dct2 = (n/2)·id per axis.
        let norm = f64::from(1u32 << self.dims.ndim()) / (nx as f64 * ny as f64 * nz as f64);
        for v in out.iter_mut() {
            *v *= norm;
        }
        self.inverse_transforms += 1;
    }

    /// Forward transforms run so far (1 after construction).
    pub fn forward_transforms(&self) -> u64 {
        self.forward_transforms
    }

    /// Inverse transforms run so far (one per
    /// [`density_at`](Self::density_at) query).
    pub fn inverse_transforms(&self) -> u64 {
        self.inverse_transforms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_rng::Rng;

    fn random_vec(rng: &mut Rng, n: usize) -> Vec<f64> {
        (0..n).map(|_| rng.random_range(-2.0..2.0)).collect()
    }

    /// `cos(πk(2j+1)/(2n))` evaluated directly.
    fn textbook_cos(n: usize, j: usize, k: usize) -> f64 {
        (PI * k as f64 * (2 * j + 1) as f64 / (2 * n) as f64).cos()
    }

    /// Textbook O(n²) DCT-II, the definition the fast paths must match.
    fn reference_dct2(x: &[f64]) -> Vec<f64> {
        let n = x.len();
        (0..n)
            .map(|k| {
                x.iter()
                    .enumerate()
                    .map(|(j, &v)| v * textbook_cos(n, j, k))
                    .sum()
            })
            .collect()
    }

    /// Textbook O(n²) DCT-III, half weight on the DC coefficient.
    fn reference_dct3(c: &[f64]) -> Vec<f64> {
        let n = c.len();
        (0..n)
            .map(|j| {
                c[0] * 0.5
                    + c.iter()
                        .enumerate()
                        .skip(1)
                        .map(|(k, &v)| v * textbook_cos(n, j, k))
                        .sum::<f64>()
            })
            .collect()
    }

    #[test]
    fn pow2_dct2_matches_textbook_definition() {
        let mut rng = Rng::seed_from_u64(0xD0C7);
        for n in [1usize, 2, 4, 8, 16, 64] {
            let x = random_vec(&mut rng, n);
            let mut plan = DctPlan::new(n);
            let mut got = vec![0.0; n];
            plan.dct2(&x, &mut got);
            let want = reference_dct2(&x);
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() < 1e-9, "n={n}: {g} vs {w}");
            }
        }
    }

    #[test]
    fn generic_length_dct2_matches_textbook_definition() {
        // Both directions at every length, the folded generic lengths and
        // the FFT's powers of two alike.
        let mut rng = Rng::seed_from_u64(0xD0C8);
        for n in 2..=300usize {
            let x = random_vec(&mut rng, n);
            let mut plan = DctPlan::new(n);
            let mut got = vec![0.0; n];
            plan.dct2(&x, &mut got);
            let want = reference_dct2(&x);
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() < 1e-9, "dct2 n={n}: {g} vs {w}");
            }
            plan.dct3(&x, &mut got);
            let want = reference_dct3(&x);
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() < 1e-9, "dct3 n={n}: {g} vs {w}");
            }
        }
    }

    #[test]
    fn round_trip_is_scaled_identity_on_all_lengths() {
        let mut rng = Rng::seed_from_u64(0xF00D);
        for n in [1usize, 2, 4, 8, 32, 128, 3, 6, 10, 24, 100] {
            let x = random_vec(&mut rng, n);
            let mut plan = DctPlan::new(n);
            let mut coeffs = vec![0.0; n];
            let mut back = vec![0.0; n];
            plan.dct2(&x, &mut coeffs);
            plan.dct3(&coeffs, &mut back);
            let scale = n as f64 / 2.0;
            for (orig, rt) in x.iter().zip(&back) {
                assert!(
                    (orig - rt / scale).abs() < 1e-10,
                    "n={n}: {orig} vs {}",
                    rt / scale
                );
            }
        }
    }

    #[test]
    fn paired_transforms_match_single_transforms() {
        let mut rng = Rng::seed_from_u64(0x9A17);
        for n in [2usize, 8, 32, 6, 15] {
            let a = random_vec(&mut rng, n);
            let b = random_vec(&mut rng, n);
            let mut plan = DctPlan::new(n);
            let mut sa = vec![0.0; n];
            let mut sb = vec![0.0; n];
            let mut pa = vec![0.0; n];
            let mut pb = vec![0.0; n];

            plan.dct2(&a, &mut sa);
            plan.dct2(&b, &mut sb);
            plan.dct2_pair(&a, &b, &mut pa, &mut pb);
            for i in 0..n {
                assert!((sa[i] - pa[i]).abs() < 1e-10, "dct2 n={n} i={i}");
                assert!((sb[i] - pb[i]).abs() < 1e-10, "dct2 n={n} i={i}");
            }

            plan.dct3(&a, &mut sa);
            plan.dct3(&b, &mut sb);
            plan.dct3_pair(&a, &b, &mut pa, &mut pb);
            for i in 0..n {
                assert!((sa[i] - pa[i]).abs() < 1e-10, "dct3 n={n} i={i}");
                assert!((sb[i] - pb[i]).abs() < 1e-10, "dct3 n={n} i={i}");
            }
        }
    }

    #[test]
    fn dct2_is_linear() {
        let mut rng = Rng::seed_from_u64(0xA11E);
        for n in [8usize, 12] {
            let x = random_vec(&mut rng, n);
            let y = random_vec(&mut rng, n);
            let (a, b) = (1.75, -0.5);
            let combined: Vec<f64> = x.iter().zip(&y).map(|(&u, &v)| a * u + b * v).collect();
            let mut plan = DctPlan::new(n);
            let mut tx = vec![0.0; n];
            let mut ty = vec![0.0; n];
            let mut tc = vec![0.0; n];
            plan.dct2(&x, &mut tx);
            plan.dct2(&y, &mut ty);
            plan.dct2(&combined, &mut tc);
            for ((&u, &v), &c) in tx.iter().zip(&ty).zip(&tc) {
                assert!((a * u + b * v - c).abs() < 1e-9, "n={n}");
            }
        }
    }

    #[test]
    fn closed_form_vectors_constant_and_single_mode() {
        for n in [8usize, 12] {
            let mut plan = DctPlan::new(n);
            let mut out = vec![0.0; n];

            // Constant input: all energy in the DC coefficient, n·c.
            let c = 0.7;
            plan.dct2(&vec![c; n], &mut out);
            assert!((out[0] - n as f64 * c).abs() < 1e-10, "n={n} dc={}", out[0]);
            for (k, &v) in out.iter().enumerate().skip(1) {
                assert!(v.abs() < 1e-10, "n={n} leak at k={k}: {v}");
            }

            // A single sampled cosine mode is a DCT-II basis vector:
            // dct2 concentrates it as (n/2)·δ_{k,m}.
            let m = 3;
            let x: Vec<f64> = (0..n)
                .map(|j| (PI * m as f64 * (j as f64 + 0.5) / n as f64).cos())
                .collect();
            plan.dct2(&x, &mut out);
            for (k, &v) in out.iter().enumerate() {
                let want = if k == m { n as f64 / 2.0 } else { 0.0 };
                assert!((v - want).abs() < 1e-10, "n={n} k={k}: {v} vs {want}");
            }
        }
    }

    #[test]
    fn solver_single_mode_decays_at_the_analytic_rate() {
        // On a 2-D grid, a sampled product-cosine mode must decay by
        // exactly exp(-t·((πk/nx)² + (πl/ny)²)) around its mean — the
        // closed-form heat-equation solution with insulated boundaries.
        for (nx, ny) in [(16usize, 16usize), (12, 20)] {
            let (k, l) = (2, 3);
            let amp = 0.4;
            let base = 1.0;
            let mode = |x: usize, y: usize| {
                (PI * k as f64 * (x as f64 + 0.5) / nx as f64).cos()
                    * (PI * l as f64 * (y as f64 + 0.5) / ny as f64).cos()
            };
            let field: Vec<f64> = (0..nx * ny)
                .map(|i| base + amp * mode(i % nx, i / nx))
                .collect();
            let mut solver = SpectralSolver::new(nx, ny, &field);
            let mut out = vec![0.0; nx * ny];
            let t = 1.7;
            solver.density_at(t, &mut out);
            let rate = (PI * k as f64 / nx as f64).powi(2) + (PI * l as f64 / ny as f64).powi(2);
            let decay = (-t * rate).exp();
            for (i, &v) in out.iter().enumerate() {
                let want = base + amp * decay * mode(i % nx, i / nx);
                assert!((v - want).abs() < 1e-12, "{nx}x{ny} bin {i}: {v} vs {want}");
            }
        }
    }

    #[test]
    fn solver_conserves_mass_and_flattens_random_fields() {
        let mut rng = Rng::seed_from_u64(0xBEEF);
        let (nx, ny) = (24, 16);
        let field: Vec<f64> = (0..nx * ny).map(|_| rng.random_range(0.0..3.0)).collect();
        let mass: f64 = field.iter().sum();
        let mean = mass / (nx * ny) as f64;
        let mut solver = SpectralSolver::new(nx, ny, &field);
        let mut out = vec![0.0; nx * ny];
        let mut last_spread = f64::INFINITY;
        for t in [0.0, 0.5, 2.0, 10.0, 2000.0] {
            solver.density_at(t, &mut out);
            let m: f64 = out.iter().sum();
            assert!((m - mass).abs() < 1e-9 * mass, "t={t}: mass {m} vs {mass}");
            let spread = out.iter().map(|v| (v - mean).abs()).fold(0.0, f64::max);
            assert!(
                spread <= last_spread + 1e-12,
                "t={t}: spread grew {last_spread} -> {spread}"
            );
            last_spread = spread;
        }
        // Far in the future the field is the uniform mean.
        assert!(last_spread < 1e-9, "residual spread {last_spread}");
        assert_eq!(solver.forward_transforms(), 1);
        assert_eq!(solver.inverse_transforms(), 5);
    }

    #[test]
    fn queries_are_order_independent() {
        let mut rng = Rng::seed_from_u64(0xCAFE);
        let (nx, ny) = (8, 8);
        let field: Vec<f64> = (0..nx * ny).map(|_| rng.random_range(0.0..2.0)).collect();
        let mut solver = SpectralSolver::new(nx, ny, &field);
        let mut early = vec![0.0; nx * ny];
        let mut late = vec![0.0; nx * ny];
        let mut early_again = vec![0.0; nx * ny];
        solver.density_at(0.25, &mut early);
        solver.density_at(5.0, &mut late);
        solver.density_at(0.25, &mut early_again);
        assert_eq!(early, early_again, "re-decay must not accumulate state");
    }

    #[test]
    fn volumetric_solver_with_one_tier_matches_planar_solver() {
        let mut rng = Rng::seed_from_u64(0x3D01);
        let (nx, ny) = (16, 12);
        let field: Vec<f64> = (0..nx * ny).map(|_| rng.random_range(0.0..2.0)).collect();
        let mut planar = SpectralSolver::new(nx, ny, &field);
        let mut volume = SpectralSolver::with_dims(Dims::d3(nx, ny, 1), &field);
        let mut out2 = vec![0.0; nx * ny];
        let mut out3 = vec![0.0; nx * ny];
        for t in [0.0, 0.4, 3.0] {
            planar.density_at(t, &mut out2);
            volume.density_at(t, &mut out3);
            for i in 0..nx * ny {
                assert!(
                    (out2[i] - out3[i]).abs() < 1e-9,
                    "t={t} bin {i}: {} vs {}",
                    out2[i],
                    out3[i]
                );
            }
        }
    }

    #[test]
    fn volumetric_single_mode_decays_at_the_analytic_rate() {
        for (nx, ny, nz) in [(8usize, 8usize, 4usize), (6, 10, 3)] {
            let (k, l, m) = (2, 1, 1);
            let amp = 0.3;
            let base = 1.0;
            let mode = |x: usize, y: usize, z: usize| {
                (PI * k as f64 * (x as f64 + 0.5) / nx as f64).cos()
                    * (PI * l as f64 * (y as f64 + 0.5) / ny as f64).cos()
                    * (PI * m as f64 * (z as f64 + 0.5) / nz as f64).cos()
            };
            let field: Vec<f64> = (0..nx * ny * nz)
                .map(|i| {
                    let (x, y, z) = (i % nx, (i / nx) % ny, i / (nx * ny));
                    base + amp * mode(x, y, z)
                })
                .collect();
            let mut solver = SpectralSolver::with_dims(Dims::d3(nx, ny, nz), &field);
            let mut out = vec![0.0; nx * ny * nz];
            let t = 0.9;
            solver.density_at(t, &mut out);
            let rate = (PI * k as f64 / nx as f64).powi(2)
                + (PI * l as f64 / ny as f64).powi(2)
                + (PI * m as f64 / nz as f64).powi(2);
            let decay = (-t * rate).exp();
            for (i, &v) in out.iter().enumerate() {
                let (x, y, z) = (i % nx, (i / nx) % ny, i / (nx * ny));
                let want = base + amp * decay * mode(x, y, z);
                assert!(
                    (v - want).abs() < 1e-11,
                    "{nx}x{ny}x{nz} bin {i}: {v} vs {want}"
                );
            }
        }
    }

    #[test]
    fn volumetric_solver_conserves_mass_and_flattens() {
        let mut rng = Rng::seed_from_u64(0x3D02);
        let (nx, ny, nz) = (12, 8, 5);
        let field: Vec<f64> = (0..nx * ny * nz)
            .map(|_| rng.random_range(0.0..3.0))
            .collect();
        let mass: f64 = field.iter().sum();
        let mean = mass / (nx * ny * nz) as f64;
        let mut solver = SpectralSolver::with_dims(Dims::d3(nx, ny, nz), &field);
        let mut out = vec![0.0; nx * ny * nz];
        let mut last_spread = f64::INFINITY;
        for t in [0.0, 0.5, 2.0, 10.0, 2000.0] {
            solver.density_at(t, &mut out);
            let m: f64 = out.iter().sum();
            assert!((m - mass).abs() < 1e-9 * mass, "t={t}: mass {m} vs {mass}");
            let spread = out.iter().map(|v| (v - mean).abs()).fold(0.0, f64::max);
            assert!(
                spread <= last_spread + 1e-12,
                "t={t}: spread grew {last_spread} -> {spread}"
            );
            last_spread = spread;
        }
        assert!(last_spread < 1e-9, "residual spread {last_spread}");
        assert_eq!(solver.forward_transforms(), 1);
        assert_eq!(solver.inverse_transforms(), 5);
    }

    /// Inputs that stress the add chains: signed zeros, subnormals and
    /// values near 1e300 mixed into ordinary randoms.
    fn hostile_vec(rng: &mut Rng, n: usize) -> Vec<f64> {
        const SPECIAL: [f64; 6] = [0.0, -0.0, 5e-324, -2.2e-310, 1e300, -9.9e299];
        (0..n)
            .map(|i| {
                if rng.random_bool(0.3) {
                    SPECIAL[i % SPECIAL.len()]
                } else {
                    rng.random_range(-2.0..2.0)
                }
            })
            .collect()
    }

    fn assert_bits_eq(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what} [{i}]: {g:e} vs {w:e}");
        }
    }

    /// The folded tables of a generic-length plan.
    fn tables(plan: &DctPlan) -> &Arc<FoldTables> {
        match &plan.kind {
            Kind::Matrix { tables, .. } => tables,
            _ => panic!("length {} is not on the matrix path", plan.n),
        }
    }

    #[test]
    fn matrix_transforms_are_bit_identical_to_the_modulo_oracle() {
        let mut rng = Rng::seed_from_u64(0xB175);
        let copies = Simd::copies();
        for n in (2..=300usize).filter(|n| !n.is_power_of_two()) {
            let mut plan = DctPlan::new(n);
            let mut oracle = DctPlan::reference(n);
            let t = Arc::clone(tables(&plan));
            let mut scratch = vec![0.0; 4 * n];
            let a = hostile_vec(&mut rng, n);
            let b = hostile_vec(&mut rng, n);
            let zeros = vec![-0.0; n];
            for (x, y) in [(&a, &b), (&zeros, &a)] {
                let mut want_x = vec![0.0; n];
                let mut want_y = vec![0.0; n];
                let mut got_x = vec![0.0; n];
                let mut got_y = vec![0.0; n];

                oracle.dct2(x, &mut want_x);
                oracle.dct2(y, &mut want_y);
                plan.dct2(x, &mut got_x);
                assert_bits_eq(&got_x, &want_x, &format!("dct2 n={n}"));
                plan.dct2_pair(x, y, &mut got_x, &mut got_y);
                assert_bits_eq(&got_x, &want_x, &format!("dct2_pair.0 n={n}"));
                assert_bits_eq(&got_y, &want_y, &format!("dct2_pair.1 n={n}"));
                for &k in &copies {
                    folded_dct2(k, &t, &mut scratch, [x], [&mut got_x]);
                    assert_bits_eq(&got_x, &want_x, &format!("{k:?} dct2 n={n}"));
                    folded_dct2(k, &t, &mut scratch, [x, y], [&mut got_x, &mut got_y]);
                    assert_bits_eq(&got_x, &want_x, &format!("{k:?} dct2 L=2.0 n={n}"));
                    assert_bits_eq(&got_y, &want_y, &format!("{k:?} dct2 L=2.1 n={n}"));
                }

                oracle.dct3(x, &mut want_x);
                oracle.dct3(y, &mut want_y);
                plan.dct3(x, &mut got_x);
                assert_bits_eq(&got_x, &want_x, &format!("dct3 n={n}"));
                plan.dct3_pair(x, y, &mut got_x, &mut got_y);
                assert_bits_eq(&got_x, &want_x, &format!("dct3_pair.0 n={n}"));
                assert_bits_eq(&got_y, &want_y, &format!("dct3_pair.1 n={n}"));
                for &k in &copies {
                    folded_dct3(k, &t, &mut scratch, [x], [&mut got_x]);
                    assert_bits_eq(&got_x, &want_x, &format!("{k:?} dct3 n={n}"));
                    folded_dct3(k, &t, &mut scratch, [x, y], [&mut got_x, &mut got_y]);
                    assert_bits_eq(&got_x, &want_x, &format!("{k:?} dct3 L=2.0 n={n}"));
                    assert_bits_eq(&got_y, &want_y, &format!("{k:?} dct3 L=2.1 n={n}"));
                }
            }
        }
    }

    #[test]
    fn solvers_are_bit_identical_on_oracle_plans() {
        // Every pass of the solver, paired or single, against the oracle
        // loops. The oracle has no power-of-two plan; those axes (a
        // one-tier z pass, a 2-row y pass) run the same FFT plan on both
        // sides.
        let oracle = |n: usize| {
            if n.is_power_of_two() {
                DctPlan::new(n)
            } else {
                DctPlan::reference(n)
            }
        };
        let mut rng = Rng::seed_from_u64(0x5017);
        let times = [0.0, 0.05, 40.0];
        let grids = [
            Dims::d2(113, 113),
            Dims::d2(42, 54),
            Dims::d2(7, 7),
            Dims::d2(3, 5),
            Dims::d2(5, 3),
            Dims::d2(113, 2),
            Dims::d3(6, 6, 3),
            Dims::d3(7, 5, 3),
            Dims::d3(6, 6, 1),
        ];
        for dims in grids {
            let field: Vec<f64> = (0..dims.len())
                .map(|_| rng.random_range(0.0..3.0))
                .collect();
            let mut fast = SpectralSolver::with_dims(dims, &field);
            let plan_z = matches!(dims, Dims::D3 { .. }).then(|| oracle(dims.nz()));
            let mut slow =
                SpectralSolver::from_plans(oracle(dims.nx()), oracle(dims.ny()), plan_z, &field);
            assert_bits_eq(&fast.coeffs, &slow.coeffs, &format!("{dims:?} coeffs"));
            let mut got = vec![0.0; dims.len()];
            let mut want = vec![0.0; dims.len()];
            for t in times {
                fast.density_at(t, &mut got);
                slow.density_at(t, &mut want);
                assert_bits_eq(&got, &want, &format!("{dims:?} t={t}"));
            }
        }
    }

    #[test]
    fn solver_output_bits_are_pinned() {
        // The oracle test above runs the same power-of-two plan on both
        // sides, so this pins the FFT path (and the pairing of each
        // axis's lines) by checksum: an FNV-1a fold of every output's
        // bits at three times, per grid.
        let pinned = [
            (Dims::d2(64, 64), 0x65ec_d81f_61e0_29ce_u64),
            (Dims::d2(16, 7), 0x4c46_4244_baff_f620),
            (Dims::d2(113, 113), 0x4405_05f7_85e9_2b18),
            (Dims::d3(6, 6, 2), 0x810d_eb6e_7bf9_0ab0),
            (Dims::d3(8, 8, 4), 0x8a93_9b3b_350f_131b),
            (Dims::d3(16, 8, 8), 0x87d5_58bd_4a1b_7941),
            (Dims::d3(8, 7, 5), 0xfdb7_f73c_8b50_decc),
            (Dims::d3(6, 6, 3), 0x914a_6f1d_95d2_3f57),
        ];
        for (dims, want) in pinned {
            let field: Vec<f64> = (0..dims.len())
                .map(|i| 1.0 + ((i * 7919) % 97) as f64 * 0.013)
                .collect();
            let mut solver = SpectralSolver::with_dims(dims, &field);
            let mut out = vec![0.0; dims.len()];
            let mut h = 0xcbf2_9ce4_8422_2325_u64;
            for t in [0.0, 0.3, 7.0] {
                solver.density_at(t, &mut out);
                for v in &out {
                    h ^= v.to_bits();
                    h = h.wrapping_mul(0x0100_0000_01b3);
                }
            }
            assert_eq!(h, want, "{dims:?}: {h:016x} vs {want:016x}");
        }
    }

    #[test]
    fn equal_length_plans_share_one_matrix() {
        let shared = |a: &DctPlan, b: &DctPlan| Arc::ptr_eq(tables(a), tables(b));
        let square = SpectralSolver::new(113, 113, &vec![1.0; 113 * 113]);
        let (x, y) = (&square.plan_x, &square.plan_y);
        assert!(shared(x, y));
        let t = tables(x);
        assert_eq!(Arc::strong_count(t), 2);
        // Four half-size tables, 6,385 entries each way (113² is 12,769),
        // every entry the oracle's modulo-indexed value.
        assert_eq!((t.even.len(), t.odd.len()), (57 * 57, 56 * 56));
        assert_eq!((t.even_t.len(), t.odd_t.len()), (57 * 57, 56 * 56));
        assert_eq!(x.table_madds(), Some(6_385));
        assert_eq!(DctPlan::new(128).table_madds(), None);
        let cos = cos_table(113);
        for (table, table_t, len, parity) in
            [(&t.even, &t.even_t, 57, 0), (&t.odd, &t.odd_t, 56, 1)]
        {
            for j in 0..len {
                for m in 0..len {
                    let want = cos[(2 * j + 1) * (2 * m + parity) % cos.len()].to_bits();
                    assert_eq!(table[j * len + m].to_bits(), want, "({j}, {m}) {parity}");
                    assert_eq!(table_t[m * len + j].to_bits(), want, "({m}, {j}) {parity}");
                }
            }
        }

        let oblong = SpectralSolver::new(42, 54, &vec![1.0; 42 * 54]);
        assert!(!shared(&oblong.plan_x, &oblong.plan_y));

        let stack = SpectralSolver::with_dims(Dims::d3(6, 6, 3), &vec![1.0; 6 * 6 * 3]);
        let (x, y) = (&stack.plan_x, &stack.plan_y);
        let z = stack.plan_z.as_ref().expect("a stack has a z plan");
        assert!(shared(x, y));
        assert_eq!((tables(z).even.len(), tables(z).odd.len()), (4, 1));
        let stack = SpectralSolver::with_dims(Dims::d3(7, 5, 7), &vec![1.0; 7 * 5 * 7]);
        let (x, y) = (&stack.plan_x, &stack.plan_y);
        let z = stack.plan_z.as_ref().expect("a stack has a z plan");
        assert!(shared(x, z));
        assert!(!shared(x, y));
    }
}
