//! Deterministic closed-loop load generator for the serving layer.
//!
//! Generates a seeded query stream (uniform or zipf-skewed sources, a
//! configurable dist/route/k-nearest mix), drives an [`OracleService`] with
//! it batch-by-batch (closed loop: the next batch is issued only after the
//! previous one completed), and reduces the per-query latencies into the
//! throughput and latency report that `ccapsp bench-serve` prints.
//!
//! Everything about the *stream* is a pure function of
//! ([`LoadSpec`], node count): the same spec replays the same queries, so
//! [`ServeBenchResult::fingerprint`] must match across thread counts — only
//! the timing fields may differ.

use cc_dynamic::incremental::{DynamicConfig, IncrementalOracle};
use cc_dynamic::update::{random_batch, MutationProfile};
use cc_graph::codec::fnv1a;
use cc_graph::NodeId;
use cc_par::ExecPolicy;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

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

/// Salt deriving the mutation-stream seed from the read-stream seed in
/// [`drive_readwrite`].
const WRITE_SALT: u64 = 0x5851_f42d_4c95_7f2d;

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

/// The measured outcome of one [`drive`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeBenchResult {
    /// Queries issued.
    pub queries: usize,
    /// Worker threads the batches executed with.
    pub threads: usize,
    /// Total closed-loop wall-clock in milliseconds.
    pub wall_ms: f64,
    /// Queries per second over the whole run.
    pub qps: f64,
    /// Median per-query latency in microseconds.
    pub p50_us: f64,
    /// 95th-percentile per-query latency in microseconds.
    pub p95_us: f64,
    /// 99th-percentile per-query latency in microseconds.
    pub p99_us: f64,
    /// Hot-row cache hit rate over the run (`KNearest` lookups).
    pub cache_hit_rate: f64,
    /// Fingerprint of all responses in order — identical across thread
    /// counts for a fixed spec and snapshot.
    pub fingerprint: u64,
}

/// The `q`-quantile (0 ≤ q ≤ 1) of a latency list, in microseconds, reduced
/// through [`cc_obs::Histogram`]: exact nearest-rank (the same
/// `(len − 1) · q` index rule this file always used) up to
/// [`cc_obs::EXACT_CAP`] samples, log₂-sub-bucket interpolated — monotone
/// in `q`, ≤ 6.25% relative error — beyond that.
fn percentile_us(ns: &[u64], q: f64) -> f64 {
    let mut h = cc_obs::Histogram::new();
    for &v in ns {
        h.record(v);
    }
    h.percentile(q) / 1e3
}

/// Drives the service with the spec's query stream in closed-loop batches
/// and reduces the measurements. Cache hit rate is the delta over this run,
/// so repeated drives against one service stay meaningful.
pub fn drive(
    service: &OracleService,
    id: SnapshotId,
    spec: &LoadSpec,
    exec: ExecPolicy,
) -> ServeBenchResult {
    let queries = generate_queries(service.n(id), spec);
    let before = service.cache_stats(id);
    let mut latencies: Vec<u64> = Vec::with_capacity(queries.len());
    let mut batch_prints: Vec<u8> = Vec::new();
    let start = Instant::now();
    for batch in queries.chunks(spec.batch.max(1)) {
        let outcome = service.run_batch(id, batch, exec);
        latencies.extend_from_slice(&outcome.latencies_ns);
        batch_prints.extend_from_slice(&fingerprint(&outcome.responses).to_le_bytes());
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let after = service.cache_stats(id);
    let lookups = (after.hits + after.misses) - (before.hits + before.misses);
    let cache_hit_rate = if lookups == 0 {
        0.0
    } else {
        (after.hits - before.hits) as f64 / lookups as f64
    };
    latencies.sort_unstable();
    ServeBenchResult {
        queries: queries.len(),
        threads: exec.threads(),
        wall_ms,
        qps: if wall_ms > 0.0 {
            queries.len() as f64 / (wall_ms / 1e3)
        } else {
            0.0
        },
        p50_us: percentile_us(&latencies, 0.50),
        p95_us: percentile_us(&latencies, 0.95),
        p99_us: percentile_us(&latencies, 0.99),
        cache_hit_rate,
        fingerprint: fnv1a(&batch_prints),
    }
}

/// Specification of a mixed read/write run: a read stream plus an
/// interleaved seeded mutation stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadWriteSpec {
    /// The read side (queries, batch size, mix, skew, seed).
    pub load: LoadSpec,
    /// Expected write batches per read batch (`0.2` ⇒ one write batch
    /// every 5 read batches; values ≥ 1 write that many batches between
    /// consecutive read batches).
    pub write_ratio: f64,
    /// Edge ops per write batch.
    pub ops_per_batch: usize,
    /// Shape of the mutation stream.
    pub profile: MutationProfile,
}

impl Default for ReadWriteSpec {
    fn default() -> Self {
        Self {
            load: LoadSpec::default(),
            write_ratio: 0.2,
            ops_per_batch: 8,
            profile: MutationProfile::ReweightHeavy,
        }
    }
}

/// The measured outcome of one [`drive_readwrite`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadWriteResult {
    /// Read-side metrics (throughput, latency percentiles, cache, and the
    /// response fingerprint — which now also witnesses *when* each write
    /// landed relative to the reads).
    pub read: ServeBenchResult,
    /// Write batches applied.
    pub write_batches: usize,
    /// Edge changes applied across all write batches.
    pub ops_applied: usize,
    /// Write batches served by incremental row repair.
    pub repairs: u64,
    /// Write batches served by full pipeline rebuild.
    pub rebuilds: u64,
    /// Median write-batch latency (engine apply + service swap), ms.
    pub write_p50_ms: f64,
    /// 95th-percentile write-batch latency, ms.
    pub write_p95_ms: f64,
    /// [`cc_dynamic::state_fingerprint`] of the final servable state.
    pub final_state_fingerprint: u64,
}

/// Drives the newest snapshot under `name` with the read stream while
/// interleaving seeded write batches: each write runs through an
/// [`IncrementalOracle`] (repair or rebuild) and lands in the service as a
/// verified delta via [`OracleService::apply_delta`], so reads after it
/// observe the bumped version. Everything — queries, mutations, and their
/// interleaving — is a pure function of the spec, so the response
/// fingerprint is identical across thread counts.
///
/// # Panics
///
/// Panics if `name` is not registered or `write_ratio` is negative or not
/// finite. (Engine/service delta application cannot fail here: generated
/// batches are valid by construction and both sides advance in lockstep.)
pub fn drive_readwrite(
    service: &mut OracleService,
    name: &str,
    spec: &ReadWriteSpec,
    exec: ExecPolicy,
) -> ReadWriteResult {
    assert!(
        spec.write_ratio.is_finite() && spec.write_ratio >= 0.0,
        "write_ratio must be finite and non-negative"
    );
    let id = service
        .resolve(name)
        .expect("snapshot registered under name");
    let base = service.export(id);
    let algo = base.meta.algo.clone();
    let seed = base.meta.seed;
    let mut engine = IncrementalOracle::with_backend(
        base.graph,
        base.backend,
        &algo,
        seed,
        DynamicConfig {
            exec,
            ..Default::default()
        },
    );
    let queries = generate_queries(service.n(id), &spec.load);
    let mut write_rng = StdRng::seed_from_u64(spec.load.seed ^ WRITE_SALT);
    let before = service.cache_stats(id);
    let mut latencies: Vec<u64> = Vec::with_capacity(queries.len());
    let mut write_ns: Vec<u64> = Vec::new();
    let mut batch_prints: Vec<u8> = Vec::new();
    let mut ops_applied = 0usize;
    let mut writes_due = 0.0f64;
    let start = Instant::now();
    for batch in queries.chunks(spec.load.batch.max(1)) {
        writes_due += spec.write_ratio;
        while writes_due >= 1.0 {
            writes_due -= 1.0;
            let mutation = random_batch(
                engine.graph(),
                spec.ops_per_batch,
                spec.profile,
                &mut write_rng,
            );
            let t = Instant::now();
            let outcome = engine
                .apply(&mutation)
                .expect("generated batches are valid");
            service
                .apply_delta(name, &outcome.delta)
                .expect("engine and service advance in lockstep");
            write_ns.push(t.elapsed().as_nanos() as u64);
            ops_applied += outcome.changed_edges;
        }
        let outcome = service.run_batch(id, batch, exec);
        latencies.extend_from_slice(&outcome.latencies_ns);
        batch_prints.extend_from_slice(&fingerprint(&outcome.responses).to_le_bytes());
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let after = service.cache_stats(id);
    let lookups = (after.hits + after.misses) - (before.hits + before.misses);
    let cache_hit_rate = if lookups == 0 {
        0.0
    } else {
        (after.hits - before.hits) as f64 / lookups as f64
    };
    latencies.sort_unstable();
    let write_batches = write_ns.len();
    write_ns.sort_unstable();
    let stats = engine.stats();
    ReadWriteResult {
        read: ServeBenchResult {
            queries: queries.len(),
            threads: exec.threads(),
            wall_ms,
            qps: if wall_ms > 0.0 {
                queries.len() as f64 / (wall_ms / 1e3)
            } else {
                0.0
            },
            p50_us: percentile_us(&latencies, 0.50),
            p95_us: percentile_us(&latencies, 0.95),
            p99_us: percentile_us(&latencies, 0.99),
            cache_hit_rate,
            fingerprint: fnv1a(&batch_prints),
        },
        write_batches,
        ops_applied,
        repairs: stats.repairs,
        rebuilds: stats.rebuilds,
        write_p50_ms: percentile_us(&write_ns, 0.50) / 1e3,
        write_p95_ms: percentile_us(&write_ns, 0.95) / 1e3,
        final_state_fingerprint: engine.fingerprint(),
    }
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
            drive(&service, id, &spec, ExecPolicy::with_threads(threads))
        };
        let seq = run(1);
        assert_eq!(seq.queries, 600);
        assert!(seq.wall_ms >= 0.0 && seq.qps > 0.0);
        assert!(seq.p50_us <= seq.p95_us && seq.p95_us <= seq.p99_us);
        for threads in [2, 4] {
            let par = run(threads);
            assert_eq!(par.fingerprint, seq.fingerprint, "threads={threads}");
            assert_eq!(par.threads, threads);
        }
    }

    #[test]
    fn back_to_back_drives_with_distinct_seeds_have_distinct_fingerprints() {
        // Regression for the hoisted zipf-permutation seeding: consecutive
        // drives against one service, differing only in the stream seed,
        // must produce distinct query streams and hence distinct response
        // fingerprints (cache warm-up must not matter either).
        let (service, id) = OracleService::single(snapshot(30, 4));
        let drive_seed = |seed: u64| {
            let spec = LoadSpec {
                queries: 800,
                batch: 128,
                seed,
                ..Default::default()
            };
            drive(&service, id, &spec, ExecPolicy::Seq).fingerprint
        };
        let a = drive_seed(1);
        let b = drive_seed(2);
        let a_again = drive_seed(1);
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

    #[test]
    fn readwrite_drive_is_deterministic_and_tracks_writes() {
        let spec = ReadWriteSpec {
            load: LoadSpec {
                queries: 600,
                batch: 64,
                seed: 5,
                ..Default::default()
            },
            write_ratio: 0.5,
            ops_per_batch: 3,
            profile: MutationProfile::TopologyHeavy,
        };
        let run = |threads: usize| {
            let mut service = OracleService::default();
            service.register("g", snapshot(26, 8));
            let result =
                drive_readwrite(&mut service, "g", &spec, ExecPolicy::with_threads(threads));
            let final_snap = service.export(service.resolve("g").unwrap());
            (result, final_snap)
        };
        let (seq, seq_snap) = run(1);
        assert_eq!(
            seq.write_batches, 5,
            "0.5 writes/read-batch over 10 read batches"
        );
        assert!(seq.ops_applied > 0);
        assert_eq!(seq.repairs + seq.rebuilds, seq.write_batches as u64);
        assert!(seq.write_p50_ms <= seq.write_p95_ms);
        // The served state really moved, and service/engine agree on it.
        assert_ne!(
            seq.final_state_fingerprint,
            snapshot(26, 8).state_fingerprint()
        );
        assert_eq!(seq.final_state_fingerprint, seq_snap.state_fingerprint());
        // The final estimate is exactly a from-scratch rebuild.
        assert_eq!(
            seq_snap.dense_estimate().expect("dense snapshot"),
            &apsp::exact_apsp(&seq_snap.graph)
        );
        for threads in [2, 4] {
            let (par, par_snap) = run(threads);
            assert_eq!(
                par.read.fingerprint, seq.read.fingerprint,
                "threads={threads}"
            );
            assert_eq!(par.final_state_fingerprint, seq.final_state_fingerprint);
            assert_eq!(par_snap, seq_snap);
            assert_eq!((par.repairs, par.rebuilds), (seq.repairs, seq.rebuilds));
        }
        // Pure-read spec degenerates to zero writes.
        let mut service = OracleService::default();
        service.register("g", snapshot(26, 8));
        let none = drive_readwrite(
            &mut service,
            "g",
            &ReadWriteSpec {
                write_ratio: 0.0,
                load: spec.load.clone(),
                ..spec.clone()
            },
            ExecPolicy::Seq,
        );
        assert_eq!(none.write_batches, 0);
        assert_eq!(
            none.final_state_fingerprint,
            snapshot(26, 8).state_fingerprint()
        );
    }

    #[test]
    fn percentiles_of_known_distribution() {
        let sorted: Vec<u64> = (1..=100).map(|i| i * 1000).collect(); // 1..100 µs
        assert!((percentile_us(&sorted, 0.50) - 50.0).abs() < 1.5);
        assert!((percentile_us(&sorted, 0.99) - 99.0).abs() < 1.5);
        assert_eq!(percentile_us(&[], 0.5), 0.0);
    }
}
