//! Deterministic query streams for the serving layer, and their replay.
//!
//! Generates a seeded query stream (uniform or zipf-skewed sources, a
//! configurable dist/route/k-nearest mix) and [`replay`]s it against an
//! [`OracleService`] batch by batch, reducing every response to one stream
//! fingerprint: the line `ccapsp bench-serve` prints, and the value its
//! `--addr` mode compares against a live daemon. Timing the serving path is
//! the benchmark's job (ccbench `serve`, `serve_net` and `update`).
//!
//! Everything about the *stream* is a pure function of
//! ([`LoadSpec`], node count): the same spec replays the same queries, so
//! the fingerprint must match across thread counts.

use cc_graph::codec::fnv1a;
use cc_graph::NodeId;
use cc_par::ExecPolicy;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::service::{fingerprint, OracleService, Query, SnapshotId};

/// Source-node popularity distribution of the generated stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Skew {
    /// Every node equally likely.
    Uniform,
    /// Zipf-distributed popularity with this exponent (`1.0` is the classic
    /// web-traffic shape); node ranks are a seeded permutation, so the hot
    /// set is deterministic per seed but not simply the lowest ids.
    Zipf(f64),
}

impl Skew {
    /// Parses the CLI form: `uniform`, `zipf` (exponent 1.0), or
    /// `zipf:<EXPONENT>`.
    ///
    /// The exponent must be a finite, strictly positive float: NaN or ±∞
    /// would silently degenerate the weight table (`rank^NaN` poisons every
    /// cumulative weight), and `0` or a negative exponent inverts the
    /// premise of the knob (no skew, or *anti*-popular hot set) — all three
    /// are rejected here, at parse time, instead of producing a
    /// plausible-looking but meaningless benchmark.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "uniform" => Ok(Skew::Uniform),
            "zipf" => Ok(Skew::Zipf(1.0)),
            _ => {
                let Some(raw) = s.strip_prefix("zipf:") else {
                    return Err(format!("expected uniform|zipf[:EXPONENT], got {s:?}"));
                };
                let exp: f64 = raw
                    .parse()
                    .map_err(|_| format!("zipf exponent {raw:?} is not a number"))?;
                if !exp.is_finite() || exp <= 0.0 {
                    return Err(format!("zipf exponent must be finite and > 0, got {raw}"));
                }
                Ok(Skew::Zipf(exp))
            }
        }
    }
}

/// Relative weights of the three query types in the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryMix {
    /// Weight of [`Query::Dist`].
    pub dist: u32,
    /// Weight of [`Query::Route`].
    pub route: u32,
    /// Weight of [`Query::KNearest`].
    pub knearest: u32,
}

impl QueryMix {
    /// Sum of the weights.
    pub fn total(&self) -> u32 {
        self.dist + self.route + self.knearest
    }
}

impl Default for QueryMix {
    /// Point-to-point lookups dominate real oracle traffic; routes and
    /// k-nearest scans are the expensive minority.
    fn default() -> Self {
        Self {
            dist: 8,
            route: 1,
            knearest: 1,
        }
    }
}

/// Full specification of one load-generation run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadSpec {
    /// Total queries to issue.
    pub queries: usize,
    /// Queries per closed-loop batch.
    pub batch: usize,
    /// Query-type mix.
    pub mix: QueryMix,
    /// Source-node popularity.
    pub skew: Skew,
    /// The `k` used for [`Query::KNearest`] queries.
    pub k: usize,
    /// Stream seed; the whole query sequence is a pure function of it.
    pub seed: u64,
}

impl Default for LoadSpec {
    fn default() -> Self {
        Self {
            queries: 50_000,
            batch: 1024,
            mix: QueryMix::default(),
            skew: Skew::Zipf(1.0),
            k: 8,
            seed: 1,
        }
    }
}

/// Salt deriving the zipf permutation seed from the stream seed (an
/// arbitrary odd 64-bit constant; see [`generate_queries`]).
const ZIPF_PERM_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Inverse-CDF zipf sampler over `n` ranks with a seeded rank→node
/// permutation.
pub struct ZipfSampler {
    cdf: Vec<f64>,
    perm: Vec<NodeId>,
}

impl ZipfSampler {
    /// Builds the sampler; the permutation consumes `n - 1` draws from
    /// `rng`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `exponent` is not finite and non-negative.
    pub fn new(n: usize, exponent: f64, rng: &mut StdRng) -> Self {
        assert!(n > 0, "zipf over an empty domain");
        assert!(
            exponent.is_finite() && exponent >= 0.0,
            "zipf exponent must be finite and non-negative"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(exponent);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        // Fisher–Yates with the stream rng: rank r maps to perm[r].
        let mut perm: Vec<NodeId> = (0..n).collect();
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            perm.swap(i, j);
        }
        Self { cdf, perm }
    }

    /// Draws one node (one `rng` draw).
    pub fn sample(&self, rng: &mut StdRng) -> NodeId {
        let x: f64 = rng.gen();
        let rank = self
            .cdf
            .partition_point(|&c| c <= x)
            .min(self.perm.len() - 1);
        self.perm[rank]
    }
}

/// Generates the deterministic query stream for a snapshot of `n` nodes.
///
/// # Panics
///
/// Panics if `n == 0` or the mix has zero total weight.
pub fn generate_queries(n: usize, spec: &LoadSpec) -> Vec<Query> {
    assert!(n > 0, "cannot generate load for an empty snapshot");
    let total = spec.mix.total();
    assert!(total > 0, "query mix has zero total weight");
    // The zipf rank permutation gets its own rng, derived from the stream
    // seed by a fixed salt, instead of sharing (and being re-seeded
    // alongside) the query rng: the hot set is a function of the seed
    // alone, never of how many draws preceded it, so back-to-back drives
    // with distinct seeds can neither collide nor shear the permutation
    // against the query stream.
    let sampler = match spec.skew {
        Skew::Uniform => None,
        Skew::Zipf(s) => {
            let mut perm_rng = StdRng::seed_from_u64(spec.seed ^ ZIPF_PERM_SALT);
            Some(ZipfSampler::new(n, s, &mut perm_rng))
        }
    };
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let k = spec.k.clamp(1, n);
    let mut out = Vec::with_capacity(spec.queries);
    for _ in 0..spec.queries {
        let pick = rng.gen_range(0..total);
        let u = match &sampler {
            Some(z) => z.sample(&mut rng),
            None => rng.gen_range(0..n),
        };
        out.push(if pick < spec.mix.dist {
            Query::Dist(u, rng.gen_range(0..n))
        } else if pick < spec.mix.dist + spec.mix.route {
            Query::Route(u, rng.gen_range(0..n))
        } else {
            Query::KNearest(u, k)
        });
    }
    out
}

/// Folds per-batch response [`fingerprint`]s, in batch order, into one
/// stream fingerprint: FNV-1a over the little-endian concatenation. The
/// in-process [`replay`] and the networked
/// [`crate::client::replay_network`] both reduce through here, so the two
/// agree exactly when every batch got the same responses.
pub(crate) fn stream_fingerprint(batch_prints: impl IntoIterator<Item = u64>) -> u64 {
    let bytes: Vec<u8> = batch_prints
        .into_iter()
        .flat_map(u64::to_le_bytes)
        .collect();
    fnv1a(&bytes)
}

/// Replays the spec's query stream against snapshot `id` in closed-loop
/// batches of `spec.batch` and returns the stream fingerprint of every
/// response in order. The fingerprint is a pure function of the snapshot
/// and the spec: the thread count and the row cache's state never move it.
pub fn replay(service: &OracleService, id: SnapshotId, spec: &LoadSpec, exec: ExecPolicy) -> u64 {
    let queries = generate_queries(service.n(id), spec);
    stream_fingerprint(
        queries
            .chunks(spec.batch.max(1))
            .map(|batch| fingerprint(&service.run_batch(id, batch, exec).responses)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{Snapshot, SnapshotMeta};
    use cc_graph::{apsp, generators};

    fn snapshot(n: usize, seed: u64) -> Snapshot {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::gnp_connected(n, 0.15, 1..=30, &mut rng);
        let exact = apsp::exact_apsp(&g);
        Snapshot::new(
            g,
            exact,
            SnapshotMeta {
                algo: "exact".into(),
                seed,
                stretch_bound: 1.0,
                rounds: 0,
                source: "test".into(),
            },
        )
    }

    #[test]
    fn query_stream_is_deterministic_per_seed() {
        let spec = LoadSpec {
            queries: 500,
            seed: 42,
            ..Default::default()
        };
        assert_eq!(generate_queries(40, &spec), generate_queries(40, &spec));
        let other = LoadSpec { seed: 43, ..spec };
        assert_ne!(generate_queries(40, &spec), generate_queries(40, &other));
    }

    #[test]
    fn stream_respects_the_mix() {
        let spec = LoadSpec {
            queries: 3000,
            mix: QueryMix {
                dist: 1,
                route: 0,
                knearest: 1,
            },
            ..Default::default()
        };
        let qs = generate_queries(30, &spec);
        let dist = qs.iter().filter(|q| matches!(q, Query::Dist(..))).count();
        let routes = qs.iter().filter(|q| matches!(q, Query::Route(..))).count();
        assert_eq!(routes, 0);
        assert!((1000..2000).contains(&dist), "dist count {dist}");
    }

    #[test]
    fn skew_parse_rejects_degenerate_exponents() {
        assert_eq!(Skew::parse("uniform"), Ok(Skew::Uniform));
        assert_eq!(Skew::parse("zipf"), Ok(Skew::Zipf(1.0)));
        assert_eq!(Skew::parse("zipf:0.75"), Ok(Skew::Zipf(0.75)));
        for bad in [
            "zipf:NaN",
            "zipf:inf",
            "zipf:-inf",
            "zipf:0",
            "zipf:-1.2",
            "zipf:",
            "zipf:abc",
            "pareto",
            "zipf:1e999", // parses to +inf
        ] {
            assert!(Skew::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn zipf_skews_toward_a_small_hot_set() {
        let mut rng = StdRng::seed_from_u64(5);
        let z = ZipfSampler::new(100, 1.2, &mut rng);
        let mut counts = vec![0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert_eq!(counts.iter().sum::<usize>(), 20_000);
        let mut sorted = counts.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let top10: usize = sorted[..10].iter().sum();
        // Under zipf(1.2) the top decile carries well over half the draws;
        // uniform would put ~10% there.
        assert!(top10 > 10_000, "top-10 share {top10}/20000");
    }

    #[test]
    fn uniform_covers_the_whole_domain() {
        let spec = LoadSpec {
            queries: 5000,
            skew: Skew::Uniform,
            mix: QueryMix {
                dist: 1,
                route: 0,
                knearest: 0,
            },
            ..Default::default()
        };
        let mut seen = [false; 25];
        for q in generate_queries(25, &spec) {
            if let Query::Dist(u, v) = q {
                seen[u] = true;
                seen[v] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn knearest_k_is_clamped_to_n() {
        let spec = LoadSpec {
            queries: 50,
            k: 1000,
            mix: QueryMix {
                dist: 0,
                route: 0,
                knearest: 1,
            },
            ..Default::default()
        };
        for q in generate_queries(12, &spec) {
            match q {
                Query::KNearest(_, k) => assert_eq!(k, 12),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn drive_produces_consistent_fingerprints_across_policies() {
        let spec = LoadSpec {
            queries: 600,
            batch: 128,
            seed: 11,
            ..Default::default()
        };
        let run = |threads: usize| {
            // Fresh service per run so cache state starts equal.
            let (service, id) = OracleService::single(snapshot(28, 9));
            replay(&service, id, &spec, ExecPolicy::with_threads(threads))
        };
        let seq = run(1);
        for threads in [2, 4] {
            assert_eq!(run(threads), seq, "threads={threads}");
        }
    }

    #[test]
    fn replay_folds_batch_fingerprints_in_batch_order() {
        let spec = LoadSpec {
            queries: 500,
            batch: 100,
            seed: 3,
            ..Default::default()
        };
        let (service, id) = OracleService::single(snapshot(20, 2));
        let mut prints: Vec<u64> = generate_queries(20, &spec)
            .chunks(spec.batch)
            .map(|batch| fingerprint(&service.run_batch(id, batch, ExecPolicy::Seq).responses))
            .collect();
        // FNV-1a over the little-endian concatenation, as the networked
        // replay reassembles it.
        let bytes: Vec<u8> = prints.iter().flat_map(|p| p.to_le_bytes()).collect();
        let expect = fnv1a(&bytes);
        assert_eq!(replay(&service, id, &spec, ExecPolicy::Seq), expect);
        assert_eq!(stream_fingerprint(prints.iter().copied()), expect);
        // Batch order matters: a reassembly that swaps two batches differs.
        prints.swap(0, 1);
        assert_ne!(stream_fingerprint(prints), expect);
    }

    #[test]
    fn back_to_back_drives_with_distinct_seeds_have_distinct_fingerprints() {
        // Regression for the hoisted zipf-permutation seeding: consecutive
        // drives against one service, differing only in the stream seed,
        // must produce distinct query streams and hence distinct response
        // fingerprints (cache warm-up must not matter either).
        let (service, id) = OracleService::single(snapshot(30, 4));
        let replay_seed = |seed: u64| {
            let spec = LoadSpec {
                queries: 800,
                batch: 128,
                seed,
                ..Default::default()
            };
            replay(&service, id, &spec, ExecPolicy::Seq)
        };
        let a = replay_seed(1);
        let b = replay_seed(2);
        let a_again = replay_seed(1);
        assert_ne!(a, b, "distinct seeds must not collide");
        assert_eq!(a, a_again, "same seed replays the same stream");
        // The hot set itself differs per seed, not just the query order.
        let hot = |seed: u64| {
            let spec = LoadSpec {
                queries: 1,
                seed,
                ..Default::default()
            };
            let mut perm_rng = StdRng::seed_from_u64(spec.seed ^ ZIPF_PERM_SALT);
            ZipfSampler::new(30, 1.0, &mut perm_rng).perm.clone()
        };
        assert_ne!(hot(1), hot(2));
    }
}
