//! Benchmark inputs: the `fpc-datagen` Full-scale suites as byte buffers,
//! paired with the algorithm each workload runs on them.
//!
//! File contents come from the generators' own fixed seeds, so every run
//! and every seed sees the same bytes; the workload seed only orders and
//! samples them.

use fpc_core::Algorithm;
use fpc_datagen::{double_precision_suites, mixed_stream_suites, single_precision_suites, Scale};

/// Serve keys are whole 1 MiB slices of the suite files.
pub const KEY_BYTES: usize = 1 << 20;

/// One input buffer and the algorithm that compresses it.
pub struct Item {
    /// Index into [`Corpus::suites`].
    pub suite: usize,
    pub name: String,
    pub data: Vec<u8>,
    pub algo: Algorithm,
}

/// A workload's inputs, grouped by suite (the paper's aggregation unit).
pub struct Corpus {
    pub suites: Vec<String>,
    pub items: Vec<Item>,
}

impl Corpus {
    pub fn total_bytes(&self) -> usize {
        self.items.iter().map(|i| i.data.len()).sum()
    }
}

/// Which fixed-width family a file belongs to; decides its codecs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Sp,
    Dp,
    Mixed,
}

/// One generated file before a workload assigns it an algorithm.
pub struct File {
    pub family: Family,
    pub domain: &'static str,
    pub name: String,
    pub data: Vec<u8>,
}

/// Generates the requested families at Full scale, in suite order.
pub fn generate(families: &[Family]) -> Vec<File> {
    let mut files = Vec::new();
    for &family in families {
        match family {
            Family::Sp => {
                for suite in single_precision_suites(Scale::Full) {
                    for f in suite.files {
                        let data = f.values.iter().flat_map(|v| v.to_le_bytes()).collect();
                        files.push(File {
                            family,
                            domain: suite.domain,
                            name: f.name,
                            data,
                        });
                    }
                }
            }
            Family::Dp => {
                for suite in double_precision_suites(Scale::Full) {
                    for f in suite.files {
                        let data = f.values.iter().flat_map(|v| v.to_le_bytes()).collect();
                        files.push(File {
                            family,
                            domain: suite.domain,
                            name: f.name,
                            data,
                        });
                    }
                }
            }
            Family::Mixed => {
                for suite in mixed_stream_suites(Scale::Full) {
                    for f in suite.files {
                        files.push(File {
                            family,
                            domain: suite.domain,
                            name: f.name,
                            data: f.values,
                        });
                    }
                }
            }
        }
    }
    files
}

/// Whole files, each compressed with its family's algorithm.
pub fn whole_files(files: Vec<File>, pick: impl Fn(Family) -> Algorithm) -> Corpus {
    let mut suites: Vec<String> = Vec::new();
    let mut items = Vec::new();
    for f in files {
        let suite = suite_index(&mut suites, f.domain);
        items.push(Item {
            suite,
            name: f.name,
            data: f.data,
            algo: pick(f.family),
        });
    }
    Corpus { suites, items }
}

/// Every file cut into whole [`KEY_BYTES`] slices (a short tail is
/// dropped). Each key carries its natural codec: single-precision keys
/// alternate SPspeed/SPratio, double-precision keys DPspeed/DPratio, and
/// mixed-stream keys use AUTO.
pub fn key_slices(files: Vec<File>) -> Corpus {
    let mut suites: Vec<String> = Vec::new();
    let mut items = Vec::new();
    let (mut sp, mut dp) = (0usize, 0usize);
    for f in files {
        let suite = suite_index(&mut suites, f.domain);
        for (i, slice) in f.data.chunks_exact(KEY_BYTES).enumerate() {
            let algo = match f.family {
                Family::Sp => {
                    sp += 1;
                    [Algorithm::SpSpeed, Algorithm::SpRatio][sp % 2]
                }
                Family::Dp => {
                    dp += 1;
                    [Algorithm::DpSpeed, Algorithm::DpRatio][dp % 2]
                }
                Family::Mixed => Algorithm::Auto,
            };
            items.push(Item {
                suite,
                name: format!("{}@{i}", f.name),
                data: slice.to_vec(),
                algo,
            });
        }
    }
    Corpus { suites, items }
}

/// `n` whole [`KEY_BYTES`] slices spread evenly over a corpus's items,
/// each keeping its item's algorithm.
pub fn sample_slices(corpus: &Corpus, n: usize) -> Corpus {
    let all: Vec<(usize, usize)> = corpus
        .items
        .iter()
        .enumerate()
        .flat_map(|(i, item)| (0..item.data.len() / KEY_BYTES).map(move |s| (i, s)))
        .collect();
    let n = n.min(all.len());
    let items = (0..n)
        .map(|k| {
            let (i, s) = all[k * all.len() / n];
            let item = &corpus.items[i];
            Item {
                suite: item.suite,
                name: format!("{}@{s}", item.name),
                data: item.data[s * KEY_BYTES..(s + 1) * KEY_BYTES].to_vec(),
                algo: item.algo,
            }
        })
        .collect();
    Corpus {
        suites: corpus.suites.clone(),
        items,
    }
}

/// Keeps `n` items spread evenly over the corpus (every suite family is
/// represented), in corpus order.
pub fn stratified(corpus: Corpus, n: usize) -> Corpus {
    let total = corpus.items.len();
    if n >= total {
        return corpus;
    }
    let keep: Vec<usize> = (0..n).map(|i| i * total / n).collect();
    let items = corpus
        .items
        .into_iter()
        .enumerate()
        .filter(|(i, _)| keep.contains(i))
        .map(|(_, item)| item)
        .collect();
    Corpus {
        suites: corpus.suites,
        items,
    }
}

fn suite_index(suites: &mut Vec<String>, domain: &str) -> usize {
    match suites.iter().position(|s| s == domain) {
        Some(i) => i,
        None => {
            suites.push(domain.to_string());
            suites.len() - 1
        }
    }
}
