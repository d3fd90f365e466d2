//! Runtime-dispatched data-parallel kernels for the hot per-word loops.
//!
//! The transform and entropy crates keep their original one-word-at-a-time
//! loops as the *reference implementation*; this crate supplies faster
//! drop-in replacements and the machinery to pick one at runtime:
//!
//! * **SWAR** — portable "SIMD within a register" on `u64`/`u128`
//!   accumulators. Always available, pure safe Rust, runs under Miri and on
//!   every architecture (the cross-arch CI jobs exercise it on aarch64 and
//!   i686).
//! * **SSE2 / AVX2** — `core::arch::x86_64` intrinsics selected with
//!   `is_x86_feature_detected!`. All `unsafe` in the workspace's vector
//!   plumbing lives in the [`x86`] module of this crate.
//!
//! Every tier of every kernel must produce **byte-identical output** to the
//! scalar reference: compressed streams are format-bearing, so a lane that
//! rounds a carry differently is a data-corruption bug, not a performance
//! detail. The differential tests in this crate, `tests/fuzz.rs`, and the
//! `differential-dispatch` CI job enforce this on fuzz-generated and
//! adversarial inputs for every tier the host can run.
//!
//! Dispatch is controlled by two environment variables, read once per
//! process:
//!
//! * `FPC_FORCE_SCALAR=1` — disable this crate entirely; callers run their
//!   original scalar loops.
//! * `FPC_SIMD_TIER=scalar|swar|sse2|avx2` — cap the tier (clamped to what
//!   the CPU supports). Used by the CI differential matrix to compare
//!   per-tier outputs on the same machine.

pub mod bitpack;
pub mod bytescan;
pub mod diffms;
pub mod transpose;
pub mod zigzag;

#[cfg(all(target_arch = "x86_64", not(miri)))]
pub mod x86;

use std::sync::OnceLock;

/// A dispatch tier, ordered from reference to widest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// The callers' original one-word-at-a-time loops.
    Scalar,
    /// Portable SIMD-within-a-register on `u64`/`u128`.
    Swar,
    /// 128-bit `core::arch::x86_64` vectors (baseline on x86_64).
    Sse2,
    /// 256-bit `core::arch::x86_64` vectors (runtime-detected).
    Avx2,
}

impl Tier {
    /// Stable lowercase name (used by `FPC_SIMD_TIER` and JSON reports).
    pub fn name(self) -> &'static str {
        match self {
            Tier::Scalar => "scalar",
            Tier::Swar => "swar",
            Tier::Sse2 => "sse2",
            Tier::Avx2 => "avx2",
        }
    }

    fn parse(s: &str) -> Option<Tier> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(Tier::Scalar),
            "swar" => Some(Tier::Swar),
            "sse2" => Some(Tier::Sse2),
            "avx2" => Some(Tier::Avx2),
            _ => None,
        }
    }

    /// Whether this tier can run on the current host.
    pub fn available(self) -> bool {
        self <= detected()
    }
}

/// Best tier the host CPU supports, ignoring environment overrides.
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
        // SSE2 is part of the x86_64 baseline, but ask anyway for symmetry.
        if std::arch::is_x86_feature_detected!("sse2") {
            return Tier::Sse2;
        }
    }
    Tier::Swar
}

/// The tier this process dispatches to, after environment overrides.
///
/// Resolved once on first use: `FPC_FORCE_SCALAR=1` wins, then
/// `FPC_SIMD_TIER` clamped to [`detected`], then [`detected`] itself.
pub fn active() -> Tier {
    static ACTIVE: OnceLock<Tier> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        if std::env::var("FPC_FORCE_SCALAR").is_ok_and(|v| v == "1") {
            return Tier::Scalar;
        }
        let cap = std::env::var("FPC_SIMD_TIER")
            .ok()
            .and_then(|s| Tier::parse(&s))
            .unwrap_or(Tier::Avx2);
        cap.min(detected())
    })
}

/// True when dispatch is disabled and callers must run their scalar
/// reference loops.
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
        Tier::Sse2 => fpc_metrics::Counter::SimdSse2,
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

/// The tier each kernel family resolves to under the current dispatch
/// (kernels without an implementation at the active tier fall back to the
/// best lower tier they do have). Surfaced in `BENCH_*.json` and
/// `fpcc stats` so a perf report records what actually ran.
pub fn kernel_tiers() -> Vec<(&'static str, Tier)> {
    vec![
        ("zigzag.slice32", zigzag::chosen32()),
        ("zigzag.slice64", zigzag::chosen64()),
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
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_names_roundtrip() {
        for t in [Tier::Scalar, Tier::Swar, Tier::Sse2, Tier::Avx2] {
            assert_eq!(Tier::parse(t.name()), Some(t));
        }
        assert_eq!(Tier::parse("AVX2"), Some(Tier::Avx2));
        assert_eq!(Tier::parse("neon"), None);
    }

    #[test]
    fn tier_order_scalar_lowest() {
        assert!(Tier::Scalar < Tier::Swar);
        assert!(Tier::Swar < Tier::Sse2);
        assert!(Tier::Sse2 < Tier::Avx2);
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
        for (name, tier) in kernel_tiers() {
            assert!(tier <= active(), "{name} chose {tier:?} above active");
            assert!(!name.is_empty());
        }
    }
}
