//! The one CPU probe behind the crate's compiled kernel copies.

/// Whether this CPU runs the AVX2 copies of the crate's kernels: the
/// generic-length DCT's matrix kernel ([`DctPlan::simd`]) and the
/// interpolating advect's lane kernel ([`advect_simd`]). Both ask here,
/// so the two can never disagree about the copy they run. std caches
/// the detection after its first call. Always `false` off x86-64.
///
/// [`DctPlan::simd`]: crate::DctPlan::simd
/// [`advect_simd`]: crate::advect_simd
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
