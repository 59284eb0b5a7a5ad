//! Synthetic memory-access patterns.
//!
//! Each paper benchmark is characterized, for translation purposes, by
//! its footprint and its locality structure; these patterns are the
//! vocabulary those characterizations are written in. All randomness is
//! seeded, so streams are exactly reproducible.

use flatwalk_types::key::KeyWriter;
use flatwalk_types::rng::SplitMix64;

/// A recipe for generating byte offsets within a footprint.
#[derive(Debug, Clone, PartialEq)]
pub enum Pattern {
    /// Uniformly random over the whole footprint (GUPS, random).
    Uniform,
    /// Sequential streaming with the given stride in bytes (dense
    /// matrix/array sweeps).
    Stream {
        /// Bytes between successive accesses.
        stride: u64,
    },
    /// A hot region absorbs most accesses; the rest go anywhere
    /// (degree-centrality-style vertex-property sweeps).
    Hot {
        /// Size of the hot region in bytes (placed at the footprint's
        /// start).
        hot_bytes: u64,
        /// Probability an access falls in the hot region.
        hot_prob: f64,
    },
    /// Pointer chasing with clustered locality: accesses stay inside a
    /// cluster, occasionally jumping to another (mcf, omnetpp, mummer).
    Chase {
        /// Cluster size in bytes.
        cluster_bytes: u64,
        /// Probability of switching clusters on each access.
        switch_prob: f64,
    },
    /// Zipf-distributed region popularity with uniform accesses inside
    /// a region (hashjoin/xsbench table lookups).
    Zipf {
        /// Number of equal-size regions the footprint is divided into.
        regions: usize,
        /// Zipf exponent (0 = uniform; ~0.8–1.2 typical skew).
        exponent: f64,
    },
    /// A weighted mixture of sub-patterns (weights need not sum to 1;
    /// they are normalized).
    Mix(Vec<(f64, Pattern)>),
}

/// Iterator state for one pattern over one footprint.
#[derive(Debug, Clone)]
pub struct PatternState {
    cursor: u64,
    cluster: u64,
    zipf_cdf: Vec<f64>,
    sub: Vec<PatternState>,
}

impl Pattern {
    /// Writes the pattern into a canonical content key: its variant
    /// tag, then its fields; a mixture writes its length, then each
    /// weight and part.
    pub fn write_key(&self, key: &mut KeyWriter) {
        match self {
            Pattern::Uniform => key.text("uniform"),
            Pattern::Stream { stride } => key.text("stream").uint(*stride),
            Pattern::Hot {
                hot_bytes,
                hot_prob,
            } => key.text("hot").uint(*hot_bytes).float(*hot_prob),
            Pattern::Chase {
                cluster_bytes,
                switch_prob,
            } => key.text("chase").uint(*cluster_bytes).float(*switch_prob),
            Pattern::Zipf { regions, exponent } => {
                key.text("zipf").uint(*regions as u64).float(*exponent)
            }
            Pattern::Mix(parts) => {
                key.text("mix").uint(parts.len() as u64);
                for (weight, part) in parts {
                    key.float(*weight);
                    part.write_key(key);
                }
                key
            }
        };
    }

    /// Builds the mutable state needed to generate this pattern.
    #[allow(clippy::only_used_in_recursion)] // footprint is for future variants
    pub(crate) fn state(&self, footprint: u64) -> PatternState {
        match self {
            Pattern::Zipf { regions, exponent } => {
                let mut weights: Vec<f64> = (1..=*regions)
                    .map(|k| 1.0 / (k as f64).powf(*exponent))
                    .collect();
                let total: f64 = weights.iter().sum();
                let mut acc = 0.0;
                for w in &mut weights {
                    acc += *w / total;
                    *w = acc;
                }
                PatternState {
                    cursor: 0,
                    cluster: 0,
                    zipf_cdf: weights,
                    sub: Vec::new(),
                }
            }
            Pattern::Mix(parts) => PatternState {
                cursor: 0,
                cluster: 0,
                zipf_cdf: {
                    let total: f64 = parts.iter().map(|(w, _)| *w).sum();
                    let mut acc = 0.0;
                    parts
                        .iter()
                        .map(|(w, _)| {
                            acc += w / total;
                            acc
                        })
                        .collect()
                },
                sub: parts.iter().map(|(_, p)| p.state(footprint)).collect(),
            },
            _ => PatternState {
                cursor: 0,
                cluster: 0,
                zipf_cdf: Vec::new(),
                sub: Vec::new(),
            },
        }
    }

    /// Generates the next byte offset in `[0, footprint)`, 8-byte
    /// aligned.
    pub(crate) fn next_offset(
        &self,
        footprint: u64,
        rng: &mut SplitMix64,
        st: &mut PatternState,
    ) -> u64 {
        let offset = match self {
            Pattern::Uniform => rng.next_range(footprint),
            Pattern::Stream { stride } => {
                let o = st.cursor;
                st.cursor = (st.cursor + stride) % footprint;
                o
            }
            Pattern::Hot {
                hot_bytes,
                hot_prob,
            } => {
                let hot = (*hot_bytes).min(footprint).max(8);
                if rng.chance(*hot_prob) {
                    rng.next_range(hot)
                } else {
                    rng.next_range(footprint)
                }
            }
            Pattern::Chase {
                cluster_bytes,
                switch_prob,
            } => {
                let cluster = (*cluster_bytes).min(footprint).max(8);
                let clusters = (footprint / cluster).max(1);
                if rng.chance(*switch_prob) {
                    st.cluster = rng.next_range(clusters);
                }
                st.cluster * cluster + rng.next_range(cluster)
            }
            Pattern::Zipf { regions, .. } => {
                let u = rng.next_f64();
                let idx = st.zipf_cdf.partition_point(|&c| c < u).min(regions - 1);
                let region_bytes = (footprint / *regions as u64).max(8);
                idx as u64 * region_bytes + rng.next_range(region_bytes)
            }
            Pattern::Mix(parts) => {
                let u = rng.next_f64();
                let idx = st.zipf_cdf.partition_point(|&c| c < u).min(parts.len() - 1);
                let (_, p) = &parts[idx];
                let sub = &mut st.sub[idx];
                return p.next_offset(footprint, rng, sub) & !7;
            }
        };
        offset.min(footprint - 8) & !7
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn offsets(p: &Pattern, footprint: u64, n: usize) -> Vec<u64> {
        let mut rng = SplitMix64::new(1);
        let mut st = p.state(footprint);
        (0..n)
            .map(|_| p.next_offset(footprint, &mut rng, &mut st))
            .collect()
    }

    #[test]
    fn all_patterns_stay_in_bounds_and_aligned() {
        let footprint = 1 << 20;
        let patterns = [
            Pattern::Uniform,
            Pattern::Stream { stride: 64 },
            Pattern::Hot {
                hot_bytes: 4096,
                hot_prob: 0.9,
            },
            Pattern::Chase {
                cluster_bytes: 64 << 10,
                switch_prob: 0.01,
            },
            Pattern::Zipf {
                regions: 64,
                exponent: 1.0,
            },
            Pattern::Mix(vec![
                (0.5, Pattern::Uniform),
                (0.5, Pattern::Stream { stride: 8 }),
            ]),
        ];
        for p in &patterns {
            for o in offsets(p, footprint, 5000) {
                assert!(o < footprint, "{p:?} out of bounds: {o}");
                assert_eq!(o % 8, 0, "{p:?} unaligned: {o}");
            }
        }
    }

    #[test]
    fn stream_is_sequential() {
        let o = offsets(&Pattern::Stream { stride: 64 }, 1 << 20, 4);
        assert_eq!(o, vec![0, 64, 128, 192]);
    }

    #[test]
    fn hot_pattern_concentrates() {
        let p = Pattern::Hot {
            hot_bytes: 4096,
            hot_prob: 0.95,
        };
        let inside = offsets(&p, 1 << 30, 10_000)
            .iter()
            .filter(|&&o| o < 4096)
            .count();
        assert!(inside > 9_000, "hot region got {inside}/10000");
    }

    #[test]
    fn zipf_skews_to_first_regions() {
        let p = Pattern::Zipf {
            regions: 256,
            exponent: 1.1,
        };
        let footprint = 256u64 << 20;
        let region_bytes = footprint / 256;
        let first_16 = offsets(&p, footprint, 10_000)
            .iter()
            .filter(|&&o| o < 16 * region_bytes)
            .count();
        assert!(
            first_16 > 4_000,
            "zipf(1.1) should favor early regions ({first_16}/10000)"
        );
    }

    #[test]
    fn chase_stays_in_cluster_mostly() {
        let p = Pattern::Chase {
            cluster_bytes: 1 << 20,
            switch_prob: 0.0,
        };
        let os = offsets(&p, 1 << 30, 1000);
        let c0 = os[0] >> 20;
        assert!(os.iter().all(|o| o >> 20 == c0));
    }

    #[test]
    fn deterministic() {
        let p = Pattern::Mix(vec![
            (0.3, Pattern::Uniform),
            (
                0.7,
                Pattern::Zipf {
                    regions: 32,
                    exponent: 0.9,
                },
            ),
        ]);
        assert_eq!(offsets(&p, 1 << 24, 100), offsets(&p, 1 << 24, 100));
    }
}
