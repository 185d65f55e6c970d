//! Runtime instruction-set detection, resolved once per process.
//!
//! Every SIMD kernel in this crate — the GEMM micro-kernel, the FHT
//! butterflies, the half-angle epilogue and the code packers — reads the
//! host's level from [`Isa::detected`].  No kernel's tier changes its
//! results (each kernel's parity tests force every tier it has against its
//! portable form), so detection only picks the fastest implementation the
//! host supports.

use std::sync::OnceLock;

/// The x86 SIMD level the host supports, as far as the kernels use it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
pub(crate) enum Isa {
    /// No runtime-detected SIMD extension (and every non-x86_64 target).
    Baseline,
    /// AVX2 without FMA: the FHT, epilogue and code-pack `std::arch`
    /// kernels.
    Avx2,
    /// AVX2 and FMA: additionally the GEMM's `std::arch` micro-kernel.
    Avx2Fma,
}

impl Isa {
    /// The host's level, detected on first use and memoized.
    pub(crate) fn detected() -> Isa {
        static ISA: OnceLock<Isa> = OnceLock::new();
        *ISA.get_or_init(detect)
    }

    /// Whether the 256-bit AVX2 kernels may run.
    pub(crate) fn avx2(self) -> bool {
        self != Isa::Baseline
    }
}

#[cfg(target_arch = "x86_64")]
fn detect() -> Isa {
    use std::arch::is_x86_feature_detected as detected;
    match (detected!("avx2"), detected!("fma")) {
        (true, true) => Isa::Avx2Fma,
        (true, false) => Isa::Avx2,
        (false, _) => Isa::Baseline,
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> Isa {
    Isa::Baseline
}
