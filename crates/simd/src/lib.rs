//! Runtime-dispatched data-parallel kernels for the hot per-word loops.
//!
//! This crate is the one place that chooses between a kernel's scalar
//! reference and its fast paths. Every dispatched entry point carries its
//! own scalar reference (one word or byte at a time; bit-packing's
//! `BitWriter` reference stays in `fpc_entropy::bitpack`) and at most two
//! fast implementations:
//!
//! * **SWAR** — portable "SIMD within a register" on `u64` accumulators.
//!   Pure safe Rust; runs under Miri and on every architecture (the
//!   cross-arch CI job runs it on aarch64 and builds it for i686).
//! * **AVX2** — `core::arch::x86_64` intrinsics, selected with
//!   `is_x86_feature_detected!("avx2")`. The two DIFFMS prefix-sum decoders
//!   are SSE2 code and run at this tier too. All `unsafe` in the
//!   workspace's vector plumbing lives in the [`x86`] module.
//!
//! Every kernel must produce **byte-identical output** to its scalar
//! reference: compressed streams are format-bearing, so a lane that rounds
//! a carry differently is a data-corruption bug, not a performance detail.
//! The differential tests in this crate, `tests/fuzz.rs`, and the
//! `differential-dispatch` CI job enforce this on fuzz-generated and
//! adversarial inputs.
//!
//! One environment variable, read once per process, controls dispatch:
//! `FPC_FORCE_SCALAR=1` makes every entry point run its scalar reference.

pub mod bitpack;
pub mod bytescan;
pub mod diffms;
pub mod transpose;

#[cfg(all(target_arch = "x86_64", not(miri)))]
pub mod x86;

use std::sync::OnceLock;

/// A dispatch tier, ordered from reference to widest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// The one-word-at-a-time reference loops.
    Scalar,
    /// Portable SIMD-within-a-register on `u64`.
    Swar,
    /// `core::arch::x86_64` vectors on AVX2 hosts (runtime-detected).
    Avx2,
}

impl Tier {
    /// Whether this tier can run on the current host.
    pub fn available(self) -> bool {
        self <= detected()
    }
}

/// Best tier the host CPU supports, ignoring `FPC_FORCE_SCALAR`.
///
/// Under Miri the x86 intrinsic paths are unavailable, so detection caps at
/// SWAR — which is exactly the pair of paths (scalar + SWAR) the Miri CI
/// job is meant to check for UB.
pub fn detected() -> Tier {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return Tier::Avx2;
        }
    }
    Tier::Swar
}

/// The tier this process dispatches to: [`Tier::Scalar`] under
/// `FPC_FORCE_SCALAR=1`, otherwise [`detected`]. Resolved once on first use.
pub fn active() -> Tier {
    static ACTIVE: OnceLock<Tier> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        if std::env::var("FPC_FORCE_SCALAR").is_ok_and(|v| v == "1") {
            Tier::Scalar
        } else {
            detected()
        }
    })
}

/// True under `FPC_FORCE_SCALAR=1`. Only callers that keep a reference
/// outside this crate (`fpc_entropy::bitpack`'s `BitWriter` loops) need it;
/// every dispatched entry point here already falls back on its own.
pub fn force_scalar() -> bool {
    active() == Tier::Scalar
}

/// Records one kernel dispatch at `tier` in the metrics counters
/// (no-op without the `metrics` feature).
#[inline]
pub fn record(tier: Tier) {
    let counter = match tier {
        Tier::Scalar => fpc_metrics::Counter::SimdScalar,
        Tier::Swar => fpc_metrics::Counter::SimdSwar,
        Tier::Avx2 => fpc_metrics::Counter::SimdAvx2,
    };
    fpc_metrics::incr(counter, 1);
}

/// Picks the best tier from `candidates` (descending order of preference,
/// each listing only tiers the kernel actually implements) that the active
/// dispatch allows, falling back to scalar.
pub(crate) fn choose(candidates: &[Tier]) -> Tier {
    let cap = active();
    candidates
        .iter()
        .copied()
        .find(|t| *t <= cap)
        .unwrap_or(Tier::Scalar)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_order_scalar_lowest() {
        assert!(Tier::Scalar < Tier::Swar);
        assert!(Tier::Swar < Tier::Avx2);
    }

    #[test]
    fn detected_at_least_swar() {
        assert!(detected() >= Tier::Swar);
        assert!(Tier::Swar.available());
    }

    #[test]
    fn active_never_exceeds_detected() {
        assert!(active() <= detected());
    }

    #[test]
    fn kernel_tiers_capped_by_active() {
        for (name, tier) in [
            ("diffms.encode32", diffms::chosen_encode32()),
            ("diffms.decode32", diffms::chosen_decode32()),
            ("diffms.encode64", diffms::chosen_encode64()),
            ("diffms.decode64", diffms::chosen_decode64()),
            ("bit.transpose32", transpose::chosen32()),
            ("rze.bitmap", bytescan::chosen_bitmap()),
            ("rze.expand", bytescan::chosen_expand()),
            ("rle.runscan", bytescan::chosen_run()),
            ("bitpack.pack", bitpack::chosen_pack()),
            ("bitpack.unpack", bitpack::chosen_unpack()),
        ] {
            assert!(tier <= active(), "{name} chose {tier:?} above active");
        }
    }
}
