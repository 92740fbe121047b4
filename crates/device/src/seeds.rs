//! Canonical seed-derivation helpers.
//!
//! Every randomized path in the workspace — Monte-Carlo device sweeps,
//! fault-campaign trials, and the scenario fuzzer — derives its RNG streams
//! from a single root seed through the functions in this module, so a run is
//! bit-for-bit reproducible from that one number regardless of thread count.
//! Centralizing the derivations here keeps the streams documented and stops
//! two call sites from accidentally colliding on the same substream.

/// Substream tag for [`crate::monte_carlo::v_op_error_rate`].
pub const STREAM_MC_VOP: u64 = 0x5eed_0001;
/// Substream tag for [`crate::monte_carlo::r_op_error_rate`].
pub const STREAM_MC_ROP: u64 = 0x5eed_0002;
/// Substream tag for [`crate::monte_carlo::cascade_cumulative_error_rates`].
pub const STREAM_MC_CUMULATIVE: u64 = 0x5eed_0004;

/// Derives the RNG seed for a tagged substream of `root`.
///
/// Tags partition the root seed's randomness into independent named streams
/// (the `STREAM_*` constants above). The derivation is a plain XOR: cheap,
/// bijective in `root` for a fixed tag, and stable across releases — trial
/// seeds recorded in campaign reports stay replayable.
#[must_use]
pub fn substream(root: u64, tag: u64) -> u64 {
    root ^ tag
}

/// Derives the per-trial array seed for trial `t` of a run rooted at `root`.
///
/// This is the documented `root + (t << 16)` (wrapping) derivation shared by
/// the Monte-Carlo module and the fault-campaign runner; campaign reports
/// record `root` so any individual trial can be rebuilt from the report.
#[must_use]
pub fn trial_seed(root: u64, t: u32) -> u64 {
    root.wrapping_add(u64::from(t) << 16)
}

/// Derives a well-mixed child seed for item `index` of a run rooted at
/// `root`.
///
/// Unlike [`substream`]/[`trial_seed`] (kept XOR/additive for backwards
/// compatibility with recorded reports), this uses a splitmix64 finalizer so
/// consecutive indices produce statistically independent seeds. The scenario
/// fuzzer uses it to give every generated scenario its own stream.
#[must_use]
pub fn split(root: u64, index: u64) -> u64 {
    let mut z = root
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_seed_matches_documented_derivation() {
        assert_eq!(trial_seed(0xfa11, 0), 0xfa11);
        assert_eq!(trial_seed(0xfa11, 3), 0xfa11 + (3 << 16));
        // Wrapping, not panicking, at the top of the range.
        assert_eq!(trial_seed(u64::MAX, 1), (1u64 << 16) - 1);
    }

    #[test]
    fn substream_tags_are_distinct() {
        let tags = [STREAM_MC_VOP, STREAM_MC_ROP, STREAM_MC_CUMULATIVE];
        for (i, a) in tags.iter().enumerate() {
            for b in &tags[i + 1..] {
                assert_ne!(substream(42, *a), substream(42, *b));
            }
        }
    }

    #[test]
    fn split_is_deterministic_and_spreads_consecutive_indices() {
        assert_eq!(split(42, 7), split(42, 7));
        let a = split(42, 0);
        let b = split(42, 1);
        assert_ne!(a, b);
        // Consecutive indices should differ in many bits, not just the low
        // ones — a weak smoke test of the mixing.
        assert!((a ^ b).count_ones() > 8);
    }
}
