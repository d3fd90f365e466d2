//! The adaptive AUTO mode: per-chunk codec selection over the four fixed
//! pipelines.
//!
//! The paper fixes one algorithm per stream; AUTO instead picks a winner
//! for every chunk independently (the chunk table records the choice, see
//! [`fpc_container::FLAG_CHUNK_CODECS`]) so mixed streams — an MPI message
//! buffer interleaving smooth f32 fields, quantized f64 readings, and
//! incompressible segments — get the best of all four pipelines at once.
//!
//! Selection is cheap by construction: large chunks are *estimated* from a
//! prefix sample (one trial encode of [`SAMPLE_LEN`] bytes per candidate),
//! and only the candidates within [`SHORTLIST_PERCENT`] of the best
//! estimate are trial-encoded in full. Small chunks skip the estimate and
//! trial-encode everything. The store-raw fallback for incompressible
//! chunks is the container's own (a chunk whose encoding does not shrink
//! is stored verbatim and its pick is voided), so AUTO never expands a
//! chunk beyond raw.
//!
//! DPratio needs care: the paper's DPratio runs a *global* FCM stage over
//! the whole input, which would make chunks interdependent and break both
//! per-chunk mixing and seekable ranges. AUTO therefore uses
//! [`DpRatioLocalCodec`], which runs FCM *within* the chunk — same
//! pipeline, chunk-local window — keeping every chunk independently
//! decodable.

use crate::pipeline::{
    map_decode, DpRatioChunkCodec, DpSpeedCodec, SpRatioCodec, SpSpeedCodec, SCRATCH_RETAIN,
};
use crate::PipelineOptions;
use fpc_container::{
    AdaptiveChunkCodec, ChunkCodec, Error, ALGO_DP_RATIO, ALGO_DP_SPEED, ALGO_SP_RATIO,
    ALGO_SP_SPEED,
};
use fpc_transforms::fcm;
use std::cell::RefCell;

/// Prefix-sample length (bytes) used to estimate per-candidate encoded
/// sizes on large chunks. A multiple of 8 so both word widths sample whole
/// elements.
pub const SAMPLE_LEN: usize = 2048;

/// A candidate stays on the trial-encode shortlist if its estimated size is
/// within this percentage of the best estimate. The margin is wide enough
/// to absorb the FCM candidate's systematic sampling bias: context-model
/// match rates grow with context length, so a prefix sample overestimates
/// its full-chunk encoded size.
pub const SHORTLIST_PERCENT: usize = 8;

/// DPratio with a chunk-local FCM stage.
///
/// Encodes exactly the DPratio chunk pipeline (DIFFMS → RAZE → RARE) over
/// an FCM transform computed from the chunk alone, so the chunk decodes
/// without any stream-global state. Streams produced through this codec are
/// only ever referenced from AUTO's chunk table (codec id
/// [`ALGO_DP_RATIO`]); the fixed DPratio stream format is unchanged.
#[derive(Debug, Clone, Copy)]
pub struct DpRatioLocalCodec {
    /// FCM match window (paper: 4).
    pub fcm_window: usize,
    /// Fixed RAZE/RARE byte split override (`None` = adaptive).
    pub fixed_split: Option<u8>,
}

impl Default for DpRatioLocalCodec {
    fn default() -> Self {
        let opts = PipelineOptions::default();
        Self {
            fcm_window: opts.fcm_window,
            fixed_split: opts.fixed_split,
        }
    }
}

impl ChunkCodec for DpRatioLocalCodec {
    fn encode_chunk(&self, chunk: &[u8], out: &mut Vec<u8>) {
        let payload = fcm::encode_payload(chunk, self.fcm_window, 1);
        let head = chunk.len() / 8 * 8;
        let (values, rest) = payload.split_at(head);
        let (distances, tail) = rest.split_at(head);
        let inner = DpRatioChunkCodec {
            fixed_split: self.fixed_split,
        };
        // The value array (float-like bytes at non-match positions) and the
        // distance array (small integers) have very different byte
        // statistics; encoding them as two separate inner chunks lets
        // RAZE/RARE choose a byte split per array, exactly as the fixed
        // DPratio pipeline does when it chunks the global FCM intermediate.
        // Layout: [values-enc len u32][values enc][distances enc][raw tail].
        let len_at = out.len();
        out.extend_from_slice(&[0; 4]);
        inner.encode_chunk(values, out);
        let values_len = u32::try_from(out.len() - len_at - 4).expect("chunk fits u32");
        out[len_at..len_at + 4].copy_from_slice(&values_len.to_le_bytes());
        inner.encode_chunk(distances, out);
        out.extend_from_slice(tail);
    }

    fn decode_into(&self, data: &[u8], out: &mut [u8]) -> Result<(), Error> {
        let expected_len = out.len();
        let nwords = expected_len / 8;
        let tail_len = expected_len % 8;
        if data.len() < 4 + tail_len {
            return Err(Error::Corrupt("fcm chunk too short"));
        }
        let values_len = u32::from_le_bytes([data[0], data[1], data[2], data[3]]) as usize;
        let (body, tail) = data[4..].split_at(data.len() - 4 - tail_len);
        if values_len > body.len() {
            return Err(Error::Corrupt("fcm value-part length out of range"));
        }
        // Rebuild the global stage's payload layout and share its decoder.
        let inner = DpRatioChunkCodec { fixed_split: None };
        let mut payload = vec![0; nwords * 16 + tail_len];
        let (values, rest) = payload.split_at_mut(nwords * 8);
        let (distances, payload_tail) = rest.split_at_mut(nwords * 8);
        inner.decode_into(&body[..values_len], values)?;
        inner.decode_into(&body[values_len..], distances)?;
        payload_tail.copy_from_slice(tail);
        fcm::decode_payload(&payload, out).map_err(map_decode)
    }
}

/// The AUTO adaptive codec: per-chunk selection among the four pipelines.
///
/// Implements [`AdaptiveChunkCodec`], so it plugs into
/// [`fpc_container::compress_adaptive`] and friends; the container records
/// the returned codec id per chunk and routes decode back through
/// [`AdaptiveChunkCodec::decode_into`].
#[derive(Debug, Clone, Copy)]
pub struct AutoCodec {
    sp_speed: SpSpeedCodec,
    sp_ratio: SpRatioCodec,
    dp_speed: DpSpeedCodec,
    dp_ratio: DpRatioLocalCodec,
}

impl Default for AutoCodec {
    fn default() -> Self {
        Self::new(&PipelineOptions::default())
    }
}

impl AutoCodec {
    /// [`AdaptiveChunkCodec::decode_into`] for a caller that collects
    /// chunks in a `Vec`, as `<dyn ChunkCodec>::decode_chunk` is for one
    /// pipeline: appends the `expected_len` decoded bytes to `out`, which
    /// keeps its old length on error.
    ///
    /// # Errors
    ///
    /// As [`AdaptiveChunkCodec::decode_into`].
    pub fn decode_chunk(
        &self,
        codec_id: u8,
        data: &[u8],
        expected_len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), Error> {
        let start = out.len();
        out.resize(start + expected_len, 0);
        self.decode_into(codec_id, data, &mut out[start..])
            .inspect_err(|_| out.truncate(start))
    }

    /// Builds the candidate set from encoder options (decode ignores them;
    /// the stream is self-describing).
    pub fn new(options: &PipelineOptions) -> Self {
        Self {
            sp_speed: SpSpeedCodec {
                fallback: options.mplg_fallback,
            },
            sp_ratio: SpRatioCodec,
            dp_speed: DpSpeedCodec {
                fallback: options.mplg_fallback,
            },
            dp_ratio: DpRatioLocalCodec {
                fcm_window: options.fcm_window,
                fixed_split: options.fixed_split,
            },
        }
    }

    /// Candidate order is the tie-break order: on an exact size tie the
    /// earlier (cheaper-to-decode) pipeline wins, deterministically.
    fn candidates(&self) -> [(u8, &dyn ChunkCodec); 4] {
        [
            (ALGO_SP_SPEED, &self.sp_speed),
            (ALGO_SP_RATIO, &self.sp_ratio),
            (ALGO_DP_SPEED, &self.dp_speed),
            (ALGO_DP_RATIO, &self.dp_ratio),
        ]
    }

    fn codec_for(&self, codec_id: u8) -> Option<&dyn ChunkCodec> {
        self.candidates()
            .into_iter()
            .find(|(id, _)| *id == codec_id)
            .map(|(_, c)| c)
    }
}

thread_local! {
    /// The best and the current trial encode of the chunk being chosen
    /// for: reused across candidates and chunks, swapped when the current
    /// one wins.
    static TRIALS: RefCell<(Vec<u8>, Vec<u8>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

impl AutoCodec {
    /// Picks the candidate for `chunk`, leaving its encoding in `best`.
    fn select(&self, chunk: &[u8], best: &mut Vec<u8>, cur: &mut Vec<u8>) -> u8 {
        let candidates = self.candidates();
        // Large chunks: estimate from a prefix sample, then trial-encode
        // only the shortlist of estimates within SHORTLIST_PERCENT of the
        // best one. Small chunks: the sample would cover most of the chunk
        // anyway, so trial-encode every candidate in full.
        let mut shortlist = [true; 4];
        if chunk.len() > 2 * SAMPLE_LEN {
            let sample = &chunk[..SAMPLE_LEN];
            let mut estimates = [0usize; 4];
            for (slot, (_, codec)) in estimates.iter_mut().zip(candidates) {
                cur.clear();
                codec.encode_chunk(sample, cur);
                *slot = cur.len() * chunk.len() / sample.len();
            }
            let best_estimate = *estimates.iter().min().expect("four estimates");
            let cutoff = best_estimate + best_estimate * SHORTLIST_PERCENT / 100;
            shortlist = estimates.map(|estimate| estimate <= cutoff);
        }
        let mut pick = None;
        for ((id, codec), listed) in candidates.into_iter().zip(shortlist) {
            if !listed {
                continue;
            }
            cur.clear();
            codec.encode_chunk(chunk, cur);
            if pick.is_none() || cur.len() < best.len() {
                std::mem::swap(best, cur);
                pick = Some(id);
            }
        }
        pick.expect("the best estimate is always on the shortlist")
    }
}

impl AdaptiveChunkCodec for AutoCodec {
    fn encode_chunk(&self, chunk: &[u8], out: &mut Vec<u8>) -> u8 {
        TRIALS.with_borrow_mut(|(best, cur)| {
            let id = self.select(chunk, best, cur);
            out.extend_from_slice(best);
            if best.capacity() + cur.capacity() > SCRATCH_RETAIN {
                *best = Vec::new();
                *cur = Vec::new();
            }
            id
        })
    }

    fn knows_codec(&self, codec_id: u8) -> bool {
        self.codec_for(codec_id).is_some()
    }

    fn decode_into(&self, codec_id: u8, data: &[u8], out: &mut [u8]) -> Result<(), Error> {
        match self.codec_for(codec_id) {
            Some(codec) => codec.decode_into(data, out),
            // The container checks knows_codec before dispatching, so this
            // only guards direct misuse of the codec.
            None => Err(Error::Corrupt("codec id not known to the AUTO decoder")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpc_transforms::words;

    fn smooth_f64_chunk(n: usize) -> Vec<u8> {
        let floats: Vec<f64> = (0..n).map(|i| (i as f64 * 0.001).sin() * 5.0).collect();
        words::f64_slice_to_bytes(&floats)
    }

    fn smooth_f32_chunk(n: usize) -> Vec<u8> {
        let floats: Vec<f32> = (0..n).map(|i| 2.0 + i as f32 * 1e-4).collect();
        words::f32_slice_to_bytes(&floats)
    }

    #[test]
    fn dpratio_local_roundtrips() {
        let codec = DpRatioLocalCodec::default();
        for len in [0usize, 1, 7, 8, 9, 1024, 16 * 1024, 16 * 1024 + 3] {
            let chunk: Vec<u8> = smooth_f64_chunk(len / 8 + 1)[..len].to_vec();
            let mut enc = Vec::new();
            codec.encode_chunk(&chunk, &mut enc);
            let mut dec = vec![0; chunk.len()];
            codec.decode_into(&enc, &mut dec).unwrap();
            assert_eq!(dec, chunk, "len {len}");
        }
    }

    #[test]
    fn dpratio_local_compresses_recurring_values() {
        // FCM's specialty, now available per chunk.
        let pattern: Vec<f64> = (0..64).map(|i| (i as f64).sqrt()).collect();
        let values: Vec<f64> = pattern.iter().cycle().take(2048).copied().collect();
        let chunk = words::f64_slice_to_bytes(&values);
        let codec = DpRatioLocalCodec::default();
        let mut enc = Vec::new();
        codec.encode_chunk(&chunk, &mut enc);
        assert!(enc.len() < chunk.len() / 2, "got {}", enc.len());
    }

    #[test]
    fn auto_picks_roundtrip_on_all_candidates() {
        let auto = AutoCodec::default();
        for chunk in [
            smooth_f32_chunk(4096),
            smooth_f64_chunk(2048),
            (0..16 * 1024).map(|i| (i % 251) as u8).collect::<Vec<u8>>(),
            Vec::new(),
            vec![7u8; 16 * 1024],
        ] {
            let mut enc = Vec::new();
            let id = auto.encode_chunk(&chunk, &mut enc);
            assert!(auto.knows_codec(id), "picked unknown id {id}");
            let mut dec = vec![0; chunk.len()];
            auto.decode_into(id, &enc, &mut dec).unwrap();
            assert_eq!(dec, chunk);
        }
    }

    #[test]
    fn auto_matches_best_full_trial_within_shortlist_margin() {
        // The sampled estimate may only lose to an exhaustive trial by the
        // shortlist margin (plus sampling noise bounded by that margin on
        // these homogeneous chunks).
        let auto = AutoCodec::default();
        for chunk in [smooth_f32_chunk(8192), smooth_f64_chunk(4096)] {
            let mut picked = Vec::new();
            auto.encode_chunk(&chunk, &mut picked);
            let exhaustive = auto
                .candidates()
                .into_iter()
                .map(|(_, c)| {
                    let mut e = Vec::new();
                    c.encode_chunk(&chunk, &mut e);
                    e.len()
                })
                .min()
                .unwrap();
            assert!(
                picked.len() <= exhaustive + exhaustive / 10,
                "picked {} vs exhaustive best {exhaustive}",
                picked.len()
            );
        }
    }

    #[test]
    fn unknown_id_is_structured_error() {
        let auto = AutoCodec::default();
        assert!(!auto.knows_codec(0));
        assert!(!auto.knows_codec(5));
        assert!(!auto.knows_codec(250));
        let mut out = [0; 3];
        assert!(matches!(
            auto.decode_into(250, &[1, 2, 3], &mut out),
            Err(Error::Corrupt(_))
        ));
    }
}
