//! Per-stage pipeline anatomy: how much each transformation contributes.
//!
//! The paper motivates each stage qualitatively (§3); this module makes the
//! contribution measurable by recording the data volume after every stage
//! of an algorithm's pipeline over the chunked input. The volumes are read
//! off what the compressor really emits — DPratio's FCM payload, each
//! chunk's codec output and the RAZE length the DPratio chunk records — so
//! they cannot drift from the streams. Size-preserving stages (DIFFMS, BIT)
//! show up with unchanged volume — their value is enabling the coding
//! stages that follow — while MPLG/RZE/RAZE/RARE show the actual shrink and
//! FCM shows its deliberate 2× expansion.

use crate::{Algorithm, AlgorithmCodec, PipelineOptions};
use fpc_entropy::varint;
use fpc_transforms::fcm;

/// Data volume after one pipeline stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageVolume {
    /// Stage name as in Figure 1.
    pub stage: &'static str,
    /// Total bytes after this stage (across all chunks).
    pub bytes: usize,
}

/// Stage-by-stage anatomy of one compression run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Anatomy {
    /// The analyzed algorithm.
    pub algorithm: Algorithm,
    /// Input size in bytes.
    pub input_bytes: usize,
    /// Volume after each stage, in pipeline order.
    pub stages: Vec<StageVolume>,
}

impl Anatomy {
    /// Overall transformation ratio (input / final stage volume). This
    /// excludes container framing, so it slightly exceeds the ratio
    /// reported by [`crate::info`].
    pub fn transform_ratio(&self) -> f64 {
        match self.stages.last() {
            Some(last) if last.bytes > 0 => self.input_bytes as f64 / last.bytes as f64,
            _ => 0.0,
        }
    }
}

impl core::fmt::Display for Anatomy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(f, "{}: {} input bytes", self.algorithm, self.input_bytes)?;
        for s in &self.stages {
            writeln!(
                f,
                "  after {:8} {:>12} bytes ({:.3}x vs input)",
                s.stage,
                s.bytes,
                self.input_bytes as f64 / s.bytes.max(1) as f64
            )?;
        }
        Ok(())
    }
}

/// Runs `algorithm`'s pipeline over `data`, recording per-stage volumes.
///
/// The final stage's volume equals the concatenated chunk payload the real
/// compressor would produce (before container framing and the raw-chunk
/// fallback; AUTO, whose only stage is the per-chunk pick, counts each
/// chunk at most at its raw size).
pub fn analyze_bytes(data: &[u8], algorithm: Algorithm) -> Anatomy {
    let fcm_payload;
    let payload = if algorithm == Algorithm::DpRatio {
        fcm_payload = fcm::encode_payload(data, fcm::MATCH_WINDOW, 1);
        &fcm_payload
    } else {
        data
    };
    let names = algorithm.stages();
    let mut stages: Vec<StageVolume> = names
        .iter()
        .map(|&stage| StageVolume {
            stage,
            // The one whole-input stage; the rest add up chunk by chunk.
            bytes: if stage == "FCM" { payload.len() } else { 0 },
        })
        .collect();
    let codec = algorithm.codec(&PipelineOptions::default());
    let mut enc = Vec::new();
    for chunk in payload.chunks(fpc_container::DEFAULT_CHUNK_SIZE) {
        enc.clear();
        let coded = match &codec {
            AlgorithmCodec::Fixed(c) => {
                c.encode_chunk(chunk, &mut enc);
                enc.len()
            }
            AlgorithmCodec::Adaptive(c) => {
                fpc_container::AdaptiveChunkCodec::encode_chunk(c, chunk, &mut enc);
                enc.len().min(chunk.len())
            }
        };
        for (i, volume) in stages.iter_mut().enumerate() {
            volume.bytes += match volume.stage {
                _ if i == names.len() - 1 => coded,
                "FCM" => 0,
                // The DPratio chunk records its RAZE stream's length; the
                // chunk's partial word rides along verbatim.
                "RAZE" => {
                    let razed = varint::read_usize(&enc, &mut 0).expect("the codec writes it");
                    razed + chunk.len() % 8
                }
                // DIFFMS and BIT preserve size.
                _ => chunk.len(),
            };
        }
    }
    Anatomy {
        algorithm,
        input_bytes: data.len(),
        stages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smooth_bytes_f32(n: usize) -> Vec<u8> {
        (0..n)
            .flat_map(|i| (5.0f32 + i as f32 * 1e-4).to_bits().to_le_bytes())
            .collect()
    }

    fn smooth_bytes_f64(n: usize) -> Vec<u8> {
        (0..n)
            .flat_map(|i| (5.0f64 + i as f64 * 1e-7).to_bits().to_le_bytes())
            .collect()
    }

    #[test]
    fn stage_names_match_figure1() {
        let data = smooth_bytes_f32(10_000);
        let anatomy = analyze_bytes(&data, Algorithm::SpRatio);
        let names: Vec<&str> = anatomy.stages.iter().map(|s| s.stage).collect();
        assert_eq!(names, Algorithm::SpRatio.stages());
        let anatomy = analyze_bytes(&smooth_bytes_f64(5_000), Algorithm::DpRatio);
        let names: Vec<&str> = anatomy.stages.iter().map(|s| s.stage).collect();
        assert_eq!(names, Algorithm::DpRatio.stages());
    }

    #[test]
    fn diffms_and_bit_preserve_volume() {
        let data = smooth_bytes_f32(20_000);
        let anatomy = analyze_bytes(&data, Algorithm::SpRatio);
        assert_eq!(
            anatomy.stages[0].bytes,
            data.len(),
            "DIFFMS is size-preserving"
        );
        assert_eq!(
            anatomy.stages[1].bytes,
            data.len(),
            "BIT is size-preserving"
        );
        assert!(
            anatomy.stages[2].bytes < data.len(),
            "RZE must shrink smooth data"
        );
    }

    #[test]
    fn fcm_doubles_then_later_stages_recover() {
        let values: Vec<f64> = (0..20_000).map(|i| ((i % 64) as f64).sqrt()).collect();
        let data: Vec<u8> = values
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .collect();
        let anatomy = analyze_bytes(&data, Algorithm::DpRatio);
        assert_eq!(anatomy.stages[0].stage, "FCM");
        assert_eq!(
            anatomy.stages[0].bytes,
            data.len() * 2,
            "FCM doubles the data"
        );
        let final_bytes = anatomy.stages.last().expect("stages").bytes;
        assert!(
            final_bytes < data.len(),
            "pipeline must net-compress recurring values"
        );
        assert!(anatomy.transform_ratio() > 1.0);
    }

    #[test]
    fn final_volume_tracks_real_compressed_size() {
        // The anatomy's last stage should approximate the real stream size
        // (within container overhead of a few bytes per chunk).
        let data = smooth_bytes_f32(50_000);
        let anatomy = analyze_bytes(&data, Algorithm::SpSpeed);
        let stream = crate::Compressor::new(Algorithm::SpSpeed).compress_bytes(&data);
        let final_bytes = anatomy.stages.last().expect("stages").bytes;
        let overhead = stream.len() as i64 - final_bytes as i64;
        assert!(
            (0..1024).contains(&overhead),
            "container overhead {overhead} out of expected range"
        );
    }

    #[test]
    fn display_renders_all_stages() {
        let data = smooth_bytes_f32(4_096);
        let anatomy = analyze_bytes(&data, Algorithm::SpRatio);
        let text = anatomy.to_string();
        for stage in Algorithm::SpRatio.stages() {
            assert!(text.contains(stage), "missing {stage}");
        }
    }

    #[test]
    fn empty_input() {
        let anatomy = analyze_bytes(&[], Algorithm::SpSpeed);
        assert_eq!(anatomy.input_bytes, 0);
        assert_eq!(anatomy.transform_ratio(), 0.0);
    }
}
