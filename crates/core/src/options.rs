//! Encoder tuning knobs for the ablation study.

use fpc_transforms::fcm;

/// Encoder-side options.
///
/// Every option only changes how streams are *encoded*; the stream format is
/// self-describing, so decoding never needs these. Defaults reproduce the
/// paper's algorithms exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineOptions {
    /// Apply the enhanced-MPLG zigzag fallback when a subchunk's maximum has
    /// no leading zeros (paper §3.1). Default `true`.
    pub mplg_fallback: bool,
    /// FCM match window: how many preceding same-hash pairs are checked
    /// (paper: 4).
    pub fcm_window: usize,
    /// Force a fixed RAZE/RARE byte split instead of the adaptive choice
    /// (`None` = adaptive, the paper's design).
    pub fixed_split: Option<u8>,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        Self {
            mplg_fallback: true,
            fcm_window: fcm::MATCH_WINDOW,
            fixed_split: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let opts = PipelineOptions::default();
        assert!(opts.mplg_fallback);
        assert_eq!(opts.fcm_window, 4);
        assert_eq!(opts.fixed_split, None);
    }
}
