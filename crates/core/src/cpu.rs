//! The one CPU probe behind the crate's compiled kernel copies.

/// Whether this CPU runs the AVX2 copies of the crate's kernels. std
/// caches the detection after its first call. Always `false` off x86-64.
pub(crate) fn has_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The compiled copies of the crate's SIMD kernels: the generic-length
/// DCT's matrix kernel (`spectral::axpy`) and the interpolating advect's
/// lane kernel (`advect::lanes`). Both pick their copy here, so the two
/// can never disagree about the copy they run, and [`simd`] names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Simd {
    /// The build target's baseline (2-wide `f64` vectors on x86-64).
    Portable,
    /// 4-wide `f64` vectors; only where [`has_avx2`] holds.
    Avx2,
}

impl Simd {
    /// The fastest copy this CPU supports.
    pub(crate) fn detect() -> Self {
        if has_avx2() {
            Self::Avx2
        } else {
            Self::Portable
        }
    }

    /// Every copy this CPU can run, portable first.
    #[cfg(test)]
    pub(crate) fn copies() -> Vec<Self> {
        let mut copies = vec![Self::Portable];
        if has_avx2() {
            copies.push(Self::Avx2);
        }
        copies
    }
}

/// The compiled copy of the crate's SIMD kernels this CPU runs: `"avx2"`
/// or `"portable"`. Both copies give bit-identical results: the
/// generic-length DCT's transforms, and the interpolating advect's
/// placements, moved-cell counts and movement sums (runs with
/// [`DiffusionConfig::interpolate`](crate::DiffusionConfig::interpolate)
/// off always take the portable advect loop).
pub fn simd() -> &'static str {
    match Simd::detect() {
        Simd::Avx2 => "avx2",
        Simd::Portable => "portable",
    }
}
