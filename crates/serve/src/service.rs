//! The query engine: a multi-snapshot registry answering typed distance
//! queries, in batches, under any [`ExecPolicy`].
//!
//! An [`OracleService`] holds one live [`Snapshot`] per name, versioned like
//! a blue/green deploy of a freshly recomputed estimate: registering a name
//! again, or applying a delta to it, replaces its state in place under the
//! next version number. It answers three query types:
//!
//! * [`Query::Dist`] — the estimate δ(u, v), a single matrix read;
//! * [`Query::Route`] — the greedy next-hop walk of
//!   [`cc_apsp::oracle::DistanceOracle::route`];
//! * [`Query::KNearest`] — the `k` nodes nearest to `u` under δ, with the
//!   same `(distance, id)` ordering as `cc_graph::sssp::k_nearest` and the
//!   `cc_apsp::knearest` machinery that computes these sets in-clique.
//!
//! Batches run through [`OracleService::run_batch`], which shards the query
//! slice over the workspace's `cc_par` pool and reassembles responses **in
//! query order** — so for a fixed snapshot the responses are bit-identical
//! at every thread count (property-tested in `tests/serve_determinism.rs`).
//! `KNearest` is the only query that scans a whole row: a miss selects the
//! query's `k` nearest in O(n log k) and the service keeps that sorted
//! prefix, with the `k` it answered, in a bounded LRU of hot rows. A later
//! query for the same row hits when it asks for no more than that `k`, or
//! when the prefix already holds every reachable node; a larger `k`
//! recomputes. Cache state affects hit-rate statistics and latency only,
//! never a response.

use cc_apsp::oracle::DistanceOracle;
use cc_graph::codec::{fnv1a, put_u64};
use cc_graph::sssp::k_nearest_from_dists;
use cc_graph::{NodeId, Weight};
use cc_par::ExecPolicy;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::snapshot::{Snapshot, SnapshotMeta};

/// Locks a mutex, recovering from poisoning instead of propagating the
/// panic: a worker that panicked mid-query (out-of-range node id, allocation
/// failure, …) must not take the whole service down with it. Every mutex
/// locked through here guards state whose invariants hold at every
/// statement — the row cache never changes an answer, and the telemetry
/// histograms are append-only — so the contents are valid even when a
/// holder panicked, and a long-lived server (`ccapsp serve`) keeps
/// answering after an isolated crash.
pub(crate) fn lock_recovering<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Handle to one registered snapshot inside an [`OracleService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SnapshotId(usize);

/// A typed point query against one snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// The distance estimate δ(u, v).
    Dist(NodeId, NodeId),
    /// The greedy route from `u` to `v` (node sequence, if delivered).
    Route(NodeId, NodeId),
    /// The `k` nodes nearest to `u` under δ, ordered by `(distance, id)`.
    KNearest(NodeId, usize),
}

/// Human-readable names of the query types, indexed by
/// [`Query::type_index`].
pub const QUERY_TYPE_NAMES: [&str; 3] = ["dist", "route", "knearest"];

impl Query {
    /// Index of this query's type into per-type stats arrays (and
    /// [`QUERY_TYPE_NAMES`]).
    pub fn type_index(&self) -> usize {
        match self {
            Query::Dist(..) => 0,
            Query::Route(..) => 1,
            Query::KNearest(..) => 2,
        }
    }

    /// Machine-readable name of this query's type.
    pub fn type_name(&self) -> &'static str {
        QUERY_TYPE_NAMES[self.type_index()]
    }
}

/// The answer to a [`Query`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Answer to [`Query::Dist`].
    Dist(Weight),
    /// Answer to [`Query::Route`]: the walked node sequence, or `None` when
    /// greedy routing gave up.
    Route(Option<Vec<NodeId>>),
    /// Answer to [`Query::KNearest`].
    KNearest(Vec<(NodeId, Weight)>),
}

/// Content fingerprint of a response sequence: hashes the responses in
/// order, so two runs agree iff they produced the same responses in the
/// same order. Used by the load generator and the CLI to check result
/// determinism across thread counts without shipping the full response log.
pub fn fingerprint(responses: &[Response]) -> u64 {
    let mut bytes = Vec::new();
    for r in responses {
        put_response(&mut bytes, r);
    }
    fnv1a(&bytes)
}

/// Appends one response in its byte layout: a type tag, then the
/// distance, the optional route, or the k-nearest pairs. The wire protocol
/// ships responses in this layout and [`fingerprint`] hashes it.
pub(crate) fn put_response(out: &mut Vec<u8>, r: &Response) {
    match r {
        Response::Dist(d) => {
            out.push(1);
            put_u64(out, *d);
        }
        Response::Route(None) => out.extend_from_slice(&[2, 0]),
        Response::Route(Some(nodes)) => {
            out.extend_from_slice(&[2, 1]);
            put_u64(out, nodes.len() as u64);
            for &x in nodes {
                put_u64(out, x as u64);
            }
        }
        Response::KNearest(rows) => {
            out.push(3);
            put_u64(out, rows.len() as u64);
            for &(v, d) in rows {
                put_u64(out, v as u64);
                put_u64(out, d);
            }
        }
    }
}

/// Tuning knobs for [`OracleService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Capacity (in rows) of the per-snapshot LRU of k-nearest prefixes
    /// backing `KNearest` queries (one sorted prefix per row). `0` disables
    /// caching.
    pub cache_rows: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self { cache_rows: 64 }
    }
}

/// Cache hit/miss counters for one snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// `KNearest` calls served from a cached prefix.
    pub hits: u64,
    /// `KNearest` calls that had to select from the row: no prefix was
    /// cached for it, or the cached one was too short for the asked `k`.
    pub misses: u64,
}

impl CacheStats {
    /// `hits / (hits + misses)`, or 0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A bounded LRU of k-nearest prefixes, keyed by **(snapshot version,
/// row)** — after a blue/green swap ([`OracleService::apply_delta`] bumps
/// the entry's version in place) every lookup misses by construction, so a
/// cached prefix from the previous estimate can never be served against the
/// new one. Each entry keeps the sorted prefix a miss selected and the `k`
/// it answered; a lookup for `k'` hits when `k' ≤ k`, or when the prefix is
/// shorter than `k` (it then holds every reachable node). Recency is a
/// logical clock stamp; eviction scans for the minimum stamp (caches are
/// small — tens of rows — so the O(capacity) scan is cheaper than
/// maintaining a list).
struct RowCache {
    cap: usize,
    clock: u64,
    rows: HashMap<CacheKey, CachedPrefix>,
}

/// `(snapshot version, source row)` — the cache key; see [`RowCache`].
type CacheKey = (u32, NodeId);

/// One [`RowCache`] entry: the `k` nearest of a row, sorted by
/// `(distance, id)`, with the `k` that selected them.
struct CachedPrefix {
    stamp: u64,
    k: usize,
    prefix: Vec<(NodeId, Weight)>,
}

impl RowCache {
    fn new(cap: usize) -> Self {
        Self {
            cap,
            clock: 0,
            rows: HashMap::with_capacity(cap),
        }
    }

    /// The cached prefix of row `u`, if it answers a query for `k`.
    fn get(&mut self, version: u32, u: NodeId, k: usize) -> Option<&[(NodeId, Weight)]> {
        self.clock += 1;
        let entry = self.rows.get_mut(&(version, u))?;
        if k > entry.k && entry.prefix.len() == entry.k {
            return None;
        }
        entry.stamp = self.clock;
        Some(&entry.prefix)
    }

    /// Caches `prefix`, the answer for `k`, replacing any entry for the row.
    fn insert(&mut self, version: u32, u: NodeId, k: usize, prefix: &[(NodeId, Weight)]) {
        if self.cap == 0 {
            return;
        }
        if self.rows.len() >= self.cap && !self.rows.contains_key(&(version, u)) {
            // Rows from superseded versions age out first: they can never
            // hit again (lookups carry the current version), so their
            // stamps only go stale.
            if let Some(evict) = self
                .rows
                .iter()
                .min_by_key(|(key, entry)| (entry.stamp, **key))
                .map(|(key, _)| *key)
            {
                self.rows.remove(&evict);
            }
        }
        self.clock += 1;
        let entry = CachedPrefix {
            stamp: self.clock,
            k,
            prefix: prefix.to_vec(),
        };
        self.rows.insert((version, u), entry);
    }
}

/// Everything that can make [`OracleService::apply_delta`] fail.
#[derive(Debug)]
pub enum ApplyDeltaError {
    /// No snapshot is registered under the given name.
    UnknownSnapshot(String),
    /// The delta did not validate against the live state; see
    /// [`cc_dynamic::DeltaError`].
    Delta(cc_dynamic::DeltaError),
}

impl std::fmt::Display for ApplyDeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApplyDeltaError::UnknownSnapshot(name) => {
                write!(f, "no snapshot registered as {name:?}")
            }
            ApplyDeltaError::Delta(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ApplyDeltaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ApplyDeltaError::Delta(e) => Some(e),
            ApplyDeltaError::UnknownSnapshot(_) => None,
        }
    }
}

/// One loaded snapshot: the oracle plus its serving-side state.
struct Entry {
    name: String,
    version: u32,
    meta: SnapshotMeta,
    oracle: DistanceOracle,
    cache: Mutex<RowCache>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Queries answered per type, indexed by [`Query::type_index`].
    query_counts: [AtomicU64; 3],
}

impl Entry {
    /// A fresh entry: an empty row cache and zeroed counters.
    fn new(name: &str, version: u32, snapshot: Snapshot, cfg: ServiceConfig) -> Self {
        Self {
            name: name.to_string(),
            version,
            meta: snapshot.meta,
            oracle: DistanceOracle::with_backend(snapshot.graph, snapshot.backend),
            cache: Mutex::new(RowCache::new(cfg.cache_rows)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            query_counts: Default::default(),
        }
    }
}

/// The outcome of one [`OracleService::run_batch`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOutcome {
    /// One response per query, in query order.
    pub responses: Vec<Response>,
    /// Per-query service time in nanoseconds, in query order.
    pub latencies_ns: Vec<u64>,
}

/// A registry of loaded snapshots, one live state per name, plus the
/// batched query engine over them.
pub struct OracleService {
    cfg: ServiceConfig,
    entries: Vec<Entry>,
    /// Index into `entries` of each name's live state.
    by_name: HashMap<String, usize>,
}

impl std::fmt::Debug for OracleService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OracleService")
            .field("snapshots", &self.entries.len())
            .field("cache_rows", &self.cfg.cache_rows)
            .finish()
    }
}

impl Default for OracleService {
    fn default() -> Self {
        Self::new(ServiceConfig::default())
    }
}

impl OracleService {
    /// An empty service with the given tuning.
    pub fn new(cfg: ServiceConfig) -> Self {
        Self {
            cfg,
            entries: Vec::new(),
            by_name: HashMap::new(),
        }
    }

    /// Every registered snapshot id, one per name, in the order the names
    /// were first registered. The exposition renderers iterate this.
    pub fn ids(&self) -> impl Iterator<Item = SnapshotId> + '_ {
        (0..self.entries.len()).map(SnapshotId)
    }

    /// Canonical backend-kind name (`dense` | `landmark`) of a registered
    /// snapshot — lets a scraper tell a dense daemon from a landmark one.
    pub fn backend_kind(&self, id: SnapshotId) -> &'static str {
        self.entries[id.0].oracle.backend().kind().name()
    }

    /// Convenience: a default-tuned service with `snapshot` registered as
    /// `"default"`.
    pub fn single(snapshot: Snapshot) -> (Self, SnapshotId) {
        let mut service = Self::default();
        let id = service.register("default", snapshot);
        (service, id)
    }

    /// Loads a snapshot under `name` as version 1. Registering a name again
    /// swaps the new snapshot in *in place*: the id stays the same, the
    /// version becomes the live version + 1, the row cache and counters
    /// start fresh, and the superseded state is freed. Callers resolve names
    /// per use (the server does so per sweep, under its read lock), so no
    /// one holds an id across a swap.
    pub fn register(&mut self, name: &str, snapshot: Snapshot) -> SnapshotId {
        match self.by_name.get(name) {
            Some(&idx) => {
                // Continue from the live version, not a registration count:
                // `apply_delta` bumps versions in place too, and the
                // advertised version must advance on every swap.
                let version = self.entries[idx].version + 1;
                self.entries[idx] = Entry::new(name, version, snapshot, self.cfg);
                SnapshotId(idx)
            }
            None => {
                let idx = self.entries.len();
                self.by_name.insert(name.to_string(), idx);
                self.entries.push(Entry::new(name, 1, snapshot, self.cfg));
                SnapshotId(idx)
            }
        }
    }

    /// Applies a dynamic-update delta to the snapshot registered under
    /// `name`, as an in-place blue/green version bump: the successor
    /// oracle is fully constructed (both delta fingerprints verified)
    /// before it replaces the live one, and the bumped version re-keys the
    /// hot-row cache, so no query can ever observe a half-applied update or
    /// a stale cached row. On any error the previous state stays live and
    /// untouched.
    ///
    /// # Errors
    ///
    /// [`ApplyDeltaError::UnknownSnapshot`] when `name` is not registered;
    /// [`ApplyDeltaError::Delta`] for fingerprint/validation failures.
    pub fn apply_delta(
        &mut self,
        name: &str,
        delta: &cc_dynamic::Delta,
    ) -> Result<SnapshotId, ApplyDeltaError> {
        let id = self
            .resolve(name)
            .ok_or_else(|| ApplyDeltaError::UnknownSnapshot(name.to_string()))?;
        let e = &mut self.entries[id.0];
        // Take the state out without cloning; restore it verbatim on error.
        let placeholder = DistanceOracle::new(
            cc_graph::Graph::empty(0, cc_graph::graph::Direction::Undirected),
            cc_graph::DistMatrix::infinite(0),
        );
        let (graph, backend) = std::mem::replace(&mut e.oracle, placeholder).into_backend_parts();
        match delta.apply_backend(&graph, &backend) {
            Ok((new_graph, new_backend)) => {
                e.oracle = DistanceOracle::with_backend(new_graph, new_backend);
                e.version += 1;
                Ok(id)
            }
            Err(err) => {
                e.oracle = DistanceOracle::with_backend(graph, backend);
                Err(ApplyDeltaError::Delta(err))
            }
        }
    }

    /// The live snapshot registered under `name`.
    pub fn resolve(&self, name: &str) -> Option<SnapshotId> {
        self.by_name.get(name).map(|&idx| SnapshotId(idx))
    }

    /// Total registered snapshots, one per name.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no snapshot has been registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `(name, version)` of a registered snapshot.
    pub fn label(&self, id: SnapshotId) -> (&str, u32) {
        let e = &self.entries[id.0];
        (&e.name, e.version)
    }

    /// Provenance of a registered snapshot.
    pub fn meta(&self, id: SnapshotId) -> &SnapshotMeta {
        &self.entries[id.0].meta
    }

    /// Node count of a registered snapshot.
    pub fn n(&self, id: SnapshotId) -> usize {
        self.entries[id.0].oracle.graph().n()
    }

    /// Clones a registered snapshot's current state back out (graph,
    /// estimate, provenance) — after [`OracleService::apply_delta`] calls,
    /// this is the *live* state, not the originally registered one, ready
    /// to persist or to seed a dynamic engine.
    pub fn export(&self, id: SnapshotId) -> Snapshot {
        let e = &self.entries[id.0];
        Snapshot::with_backend(
            e.oracle.graph().clone(),
            e.oracle.backend().clone(),
            e.meta.clone(),
        )
    }

    /// Resident size estimate (bytes) of a registered snapshot's distance
    /// structure — `8n²` for a dense matrix, the sketch footprint for a
    /// landmark backend. Reported in the serve/bench records so memory is
    /// comparable across backends.
    pub fn estimate_mem_bytes(&self, id: SnapshotId) -> u64 {
        self.entries[id.0].oracle.backend().approx_mem_bytes()
    }

    /// Cache counters of a registered snapshot.
    pub fn cache_stats(&self, id: SnapshotId) -> CacheStats {
        let e = &self.entries[id.0];
        CacheStats {
            hits: e.hits.load(Ordering::Relaxed),
            misses: e.misses.load(Ordering::Relaxed),
        }
    }

    /// Answers one query. The response is a pure function of the snapshot
    /// and the query — cache state never changes an answer.
    ///
    /// # Panics
    ///
    /// Panics if a node id in the query is out of range for the snapshot
    /// (callers own validation; the CLI checks before calling).
    pub fn answer(&self, id: SnapshotId, query: &Query) -> Response {
        let e = &self.entries[id.0];
        e.query_counts[query.type_index()].fetch_add(1, Ordering::Relaxed);
        match *query {
            Query::Dist(u, v) => Response::Dist(e.oracle.query(u, v)),
            Query::Route(u, v) => Response::Route(e.oracle.route(u, v)),
            Query::KNearest(u, k) => Response::KNearest(self.k_nearest(e, u, k)),
        }
    }

    /// The `k` nearest nodes to `u` under the estimate, through the hot-row
    /// cache: a hit truncates the cached prefix, a miss selects the row's
    /// `k` nearest (the same `(distance, id)` order as
    /// `cc_graph::sssp::k_nearest`) and caches that prefix for the row.
    fn k_nearest(&self, e: &Entry, u: NodeId, k: usize) -> Vec<(NodeId, Weight)> {
        {
            let mut cache = lock_recovering(&e.cache);
            if let Some(prefix) = cache.get(e.version, u, k) {
                e.hits.fetch_add(1, Ordering::Relaxed);
                cc_obs::counter("serve.cache.hit", 1);
                return prefix.iter().take(k).copied().collect();
            }
        }
        e.misses.fetch_add(1, Ordering::Relaxed);
        cc_obs::counter("serve.cache.miss", 1);
        // Select outside the lock; concurrent misses may duplicate the work
        // but the prefix they compute is identical. Dense backends expose
        // the row zero-copy; landmark backends materialize it per miss
        // (which the cache then amortizes).
        let nearest = match e.oracle.backend().as_dense() {
            Some(matrix) => k_nearest_from_dists(matrix.row(u), k),
            None => k_nearest_from_dists(&e.oracle.backend().dist_row(u), k),
        };
        lock_recovering(&e.cache).insert(e.version, u, k, &nearest);
        nearest
    }

    /// Executes a batch of queries, sharded over the `cc_par` pool selected
    /// by `exec`, timing each query individually. Responses come back in
    /// query order regardless of the thread count, so batch results are
    /// bit-identical across policies.
    pub fn run_batch(&self, id: SnapshotId, queries: &[Query], exec: ExecPolicy) -> BatchOutcome {
        let timed: Vec<(Response, u64)> = exec.map_shards_collect(queries.len(), |range| {
            range
                .map(|i| {
                    let t = Instant::now();
                    let response = self.answer(id, &queries[i]);
                    (response, t.elapsed().as_nanos() as u64)
                })
                .collect()
        });
        let mut responses = Vec::with_capacity(timed.len());
        let mut latencies_ns = Vec::with_capacity(timed.len());
        for (r, ns) in timed {
            responses.push(r);
            latencies_ns.push(ns);
        }
        // Per-type latency accounting happens as a post-pass in query order
        // (not inside the shards), so the histograms' contents don't depend
        // on the thread interleaving.
        const LATENCY_HISTS: [&str; 3] = [
            "serve.latency.dist",
            "serve.latency.route",
            "serve.latency.knearest",
        ];
        for (q, &ns) in queries.iter().zip(&latencies_ns) {
            cc_obs::record_hist(LATENCY_HISTS[q.type_index()], ns);
        }
        BatchOutcome {
            responses,
            latencies_ns,
        }
    }

    /// Queries answered per type (batched or direct) by a registered
    /// snapshot, indexed like [`QUERY_TYPE_NAMES`].
    pub fn query_counts(&self, id: SnapshotId) -> [u64; 3] {
        let counts = &self.entries[id.0].query_counts;
        std::array::from_fn(|ti| counts[ti].load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::graph::{Direction, Graph};
    use cc_graph::{apsp, generators, sssp, INF};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn exact_snapshot(n: usize, seed: u64) -> Snapshot {
        let mut rng = StdRng::seed_from_u64(seed);
        snapshot_of(generators::gnp_connected(n, 0.15, 1..=30, &mut rng))
    }

    /// An exact snapshot of `g`.
    fn snapshot_of(g: Graph) -> Snapshot {
        let exact = apsp::exact_apsp(&g);
        Snapshot::new(
            g,
            exact,
            SnapshotMeta {
                algo: "exact".into(),
                seed: 0,
                stretch_bound: 1.0,
                rounds: 0,
                source: "test".into(),
            },
        )
    }

    #[test]
    fn dist_matches_the_estimate_matrix() {
        let snap = exact_snapshot(24, 1);
        let expect = snap.dense_estimate().expect("dense snapshot").clone();
        let (service, id) = OracleService::single(snap);
        for u in 0..24 {
            for v in 0..24 {
                assert_eq!(
                    service.answer(id, &Query::Dist(u, v)),
                    Response::Dist(expect.get(u, v))
                );
            }
        }
    }

    #[test]
    fn knearest_matches_sssp_on_exact_snapshot() {
        let snap = exact_snapshot(30, 2);
        let g = snap.graph.clone();
        let (service, id) = OracleService::single(snap);
        for u in 0..g.n() {
            let expect = sssp::k_nearest(&g, u, 5);
            assert_eq!(
                service.answer(id, &Query::KNearest(u, 5)),
                Response::KNearest(expect),
                "node {u}"
            );
        }
    }

    #[test]
    fn route_delivers_on_exact_snapshot() {
        let snap = exact_snapshot(20, 3);
        let (service, id) = OracleService::single(snap);
        match service.answer(id, &Query::Route(0, 11)) {
            Response::Route(Some(path)) => {
                assert_eq!(path.first(), Some(&0));
                assert_eq!(path.last(), Some(&11));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn cache_serves_repeats_and_counts_hits() {
        let snap = exact_snapshot(26, 4);
        let (service, id) = OracleService::single(snap);
        let first = service.answer(id, &Query::KNearest(3, 4));
        let again = service.answer(id, &Query::KNearest(3, 4));
        // The cached prefix holds only 4 entries: a larger k recomputes.
        let wider = service.answer(id, &Query::KNearest(3, 9));
        assert_eq!(first, again);
        if let (Response::KNearest(narrow), Response::KNearest(wide)) = (&first, &wider) {
            assert_eq!(wide.len(), 9);
            assert_eq!(&wide[..4], &narrow[..]);
        } else {
            panic!("wrong response kinds");
        }
        let stats = service.cache_stats(id);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.hits, 1);
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        // The k = 9 prefix replaced the k = 4 one and answers any k ≤ 9.
        assert_eq!(service.answer(id, &Query::KNearest(3, 4)), first);
        assert_eq!(service.answer(id, &Query::KNearest(3, 9)), wider);
        assert_eq!(service.cache_stats(id), CacheStats { hits: 3, misses: 2 });

        // A prefix shorter than its k holds the whole reachable component,
        // so every larger k is a hit.
        let g = Graph::from_edges(6, Direction::Undirected, &[(0, 1, 2), (1, 2, 3), (3, 4, 1)]);
        let (service, id) = OracleService::single(snapshot_of(g));
        let component = Response::KNearest(vec![(0, 0), (1, 2), (2, 5)]);
        assert_eq!(service.answer(id, &Query::KNearest(0, 4)), component);
        for k in [5, 6, 100, usize::MAX] {
            assert_eq!(service.answer(id, &Query::KNearest(0, k)), component);
        }
        assert_eq!(service.cache_stats(id), CacheStats { hits: 4, misses: 1 });
    }

    /// The reference every k-nearest answer must match: sort every
    /// reachable `(distance, id)` pair of the row, keep the first `k`.
    fn full_sort_nearest(row: &[Weight], k: usize) -> Vec<(NodeId, Weight)> {
        let mut order: Vec<(Weight, NodeId)> = row
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, d)| d < INF)
            .map(|(v, d)| (d, v))
            .collect();
        order.sort_unstable();
        order.truncate(k);
        order.into_iter().map(|(d, v)| (v, d)).collect()
    }

    #[test]
    fn any_k_answers_like_the_full_sort() {
        // Two components, so no row reaches every node; node 1 sees 0 and 2
        // at the same distance.
        let g = Graph::from_edges(
            7,
            Direction::Undirected,
            &[
                (0, 1, 3),
                (1, 2, 3),
                (0, 2, 6),
                (2, 3, 1),
                (4, 5, 2),
                (5, 6, 2),
            ],
        );
        let matrix = apsp::exact_apsp(&g);
        let n = g.n();
        let mut queries = Vec::new();
        let mut expect = Vec::new();
        for u in 0..n {
            for k in [0, 1, n, n + 1, usize::MAX] {
                queries.push(Query::KNearest(u, k));
                expect.push(Response::KNearest(full_sort_nearest(matrix.row(u), k)));
            }
        }
        for cache_rows in [0, 2, 64] {
            let mut service = OracleService::new(ServiceConfig { cache_rows });
            let id = service.register("g", snapshot_of(g.clone()));
            let direct: Vec<Response> = queries.iter().map(|q| service.answer(id, q)).collect();
            assert_eq!(direct, expect, "answer, cache_rows={cache_rows}");
            for exec in [ExecPolicy::Seq, ExecPolicy::with_threads(2)] {
                let batch = service.run_batch(id, &queries, exec);
                assert_eq!(batch.responses, expect, "{exec}, cache_rows={cache_rows}");
            }
        }
    }

    #[test]
    fn query_counts_match_the_batch_mix_and_each_call() {
        let (service, id) = OracleService::single(exact_snapshot(16, 10));
        // 60 dist, 25 route, 15 k-nearest, interleaved across every shard.
        let queries: Vec<Query> = (0..100)
            .map(|i| match i % 20 {
                0..=11 => Query::Dist(i % 16, (i * 3) % 16),
                12..=16 => Query::Route(i % 16, (i * 5) % 16),
                _ => Query::KNearest(i % 16, 1 + i % 5),
            })
            .collect();
        let expect = [60, 25, 15];
        for exec in [
            ExecPolicy::Seq,
            ExecPolicy::with_threads(2),
            ExecPolicy::with_threads(4),
        ] {
            let before = service.query_counts(id);
            service.run_batch(id, &queries, exec);
            let after = service.query_counts(id);
            let added: [u64; 3] = std::array::from_fn(|t| after[t] - before[t]);
            assert_eq!(added, expect, "{exec}");
        }
        let mut total = service.query_counts(id);
        for query in [Query::Dist(0, 1), Query::Route(0, 1), Query::KNearest(0, 3)] {
            service.answer(id, &query);
            total[query.type_index()] += 1;
            assert_eq!(service.query_counts(id), total, "{query:?}");
        }
    }

    #[test]
    fn lru_evicts_the_least_recently_used_row() {
        let mut cache = RowCache::new(2);
        cache.insert(1, 0, 1, &[(0, 0)]);
        cache.insert(1, 1, 1, &[(1, 0)]);
        assert!(cache.get(1, 0, 1).is_some()); // 0 is now more recent than 1
        cache.insert(1, 2, 1, &[(2, 0)]); // evicts 1
        assert!(cache.get(1, 1, 1).is_none());
        assert!(cache.get(1, 0, 1).is_some());
        assert!(cache.get(1, 2, 1).is_some());
    }

    #[test]
    fn zero_capacity_cache_disables_caching() {
        let snap = exact_snapshot(16, 5);
        let mut service = OracleService::new(ServiceConfig { cache_rows: 0 });
        let id = service.register("default", snap);
        let a = service.answer(id, &Query::KNearest(2, 3));
        let b = service.answer(id, &Query::KNearest(2, 3));
        assert_eq!(a, b);
        let stats = service.cache_stats(id);
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.hit_rate(), 0.0);
    }

    #[test]
    fn registry_versions_resolve_to_newest() {
        let mut service = OracleService::default();
        let v1 = service.register("g", exact_snapshot(12, 6));
        assert_eq!(service.label(v1), ("g", 1));
        let v2 = service.register("g", exact_snapshot(14, 7));
        let other = service.register("h", exact_snapshot(10, 8));
        assert_eq!(service.resolve("g"), Some(v2));
        assert_eq!(service.resolve("h"), Some(other));
        assert_eq!(service.resolve("missing"), None);
        assert_eq!(service.len(), 2);
        assert!(!service.is_empty());
        // The swap replaced the entry in place: same id, next version, and
        // only the new state is left to query.
        assert_eq!(v1, v2);
        assert_eq!(service.label(v2), ("g", 2));
        assert_eq!(service.n(v2), 14);
        assert_eq!(service.ids().collect::<Vec<_>>(), vec![v2, other]);
    }

    #[test]
    fn re_registering_a_name_keeps_one_live_state() {
        let mut service = OracleService::default();
        let id = service.register("g", exact_snapshot(12, 6));
        service.answer(id, &Query::KNearest(0, 3));
        service.answer(id, &Query::KNearest(0, 3));
        assert_eq!(service.cache_stats(id), CacheStats { hits: 1, misses: 1 });
        for i in 2..=12 {
            assert_eq!(service.register("g", exact_snapshot(12, i)), id);
        }
        assert_eq!(service.len(), 1);
        assert_eq!(service.ids().count(), 1);
        assert_eq!(service.label(id), ("g", 12));
        // The swapped-in state starts with a cold cache and zero counts.
        assert_eq!(service.cache_stats(id), CacheStats::default());
        assert_eq!(service.query_counts(id), [0; 3]);
        assert_eq!(service.export(id), exact_snapshot(12, 12));
    }

    #[test]
    fn apply_delta_swap_never_serves_a_stale_cached_row() {
        use cc_dynamic::incremental::{DynamicConfig, IncrementalOracle};
        use cc_dynamic::update::{EdgeOp, UpdateBatch};

        // A path graph: reweighting an edge incident to node 0 changes
        // node 0's whole distance row, so a stale k-nearest cache row is
        // observable.
        let g = Graph::from_edges(
            5,
            Direction::Undirected,
            &[(0, 1, 5), (1, 2, 5), (2, 3, 5), (3, 4, 5)],
        );
        let exact = apsp::exact_apsp(&g);
        let snap = Snapshot::new(
            g.clone(),
            exact.clone(),
            SnapshotMeta {
                algo: "exact".into(),
                seed: 0,
                stretch_bound: 1.0,
                rounds: 0,
                source: "test".into(),
            },
        );
        let mut service = OracleService::default();
        let id = service.register("g", snap);
        let (_, v_before) = service.label(id);

        // Warm the cache for node 0, twice, so the second is a hit.
        let before = service.answer(id, &Query::KNearest(0, 5));
        assert_eq!(service.answer(id, &Query::KNearest(0, 5)), before);
        assert_eq!(service.cache_stats(id).hits, 1);

        // Produce a verified delta with the dynamic engine and swap it in.
        let mut engine = IncrementalOracle::new(g, exact, "exact", 0, DynamicConfig::default());
        let outcome = engine
            .apply(&UpdateBatch::new(vec![EdgeOp::Reweight(0, 1, 1)]))
            .expect("valid batch");
        let swapped = service.apply_delta("g", &outcome.delta).expect("applies");
        assert_eq!(swapped, id, "in-place bump keeps the id");
        let (_, v_after) = service.label(id);
        assert_eq!(v_after, v_before + 1);

        // The same query must now answer from the new estimate — a stale
        // cache hit would still show distance 5 to node 1.
        let after = service.answer(id, &Query::KNearest(0, 5));
        assert_ne!(after, before);
        assert_eq!(
            after,
            Response::KNearest(sssp::k_nearest(engine.graph(), 0, 5))
        );
        // And replaying the delta (now against the wrong base) fails
        // cleanly with the old state... gone, the new one intact.
        assert!(matches!(
            service.apply_delta("g", &outcome.delta),
            Err(ApplyDeltaError::Delta(
                cc_dynamic::DeltaError::BaseMismatch { .. }
            ))
        ));
        assert_eq!(service.answer(id, &Query::KNearest(0, 5)), after);
        assert!(matches!(
            service.apply_delta("missing", &outcome.delta),
            Err(ApplyDeltaError::UnknownSnapshot(_))
        ));
    }

    #[test]
    fn row_cache_is_keyed_by_version() {
        let mut cache = RowCache::new(4);
        cache.insert(1, 0, 2, &[(0, 0), (1, 5)]);
        assert!(cache.get(1, 0, 2).is_some());
        // Same row, newer version: miss by construction.
        assert!(cache.get(2, 0, 2).is_none());
        cache.insert(2, 0, 2, &[(0, 0), (1, 1)]);
        assert_eq!(cache.get(2, 0, 2).unwrap()[1], (1, 1));
        assert_eq!(cache.get(1, 0, 2).unwrap()[1], (1, 5));
    }

    #[test]
    fn batch_preserves_query_order_across_policies() {
        let snap = exact_snapshot(32, 9);
        let (service, id) = OracleService::single(snap);
        let queries: Vec<Query> = (0..200)
            .map(|i| match i % 3 {
                0 => Query::Dist(i % 32, (i * 7) % 32),
                1 => Query::Route(i % 32, (i * 5) % 32),
                _ => Query::KNearest(i % 32, 1 + i % 6),
            })
            .collect();
        let seq = service.run_batch(id, &queries, ExecPolicy::Seq);
        assert_eq!(seq.responses.len(), queries.len());
        assert_eq!(seq.latencies_ns.len(), queries.len());
        for threads in [2, 4] {
            let par = service.run_batch(id, &queries, ExecPolicy::with_threads(threads));
            assert_eq!(par.responses, seq.responses, "threads={threads}");
        }
        // Spot-check one response against a direct answer.
        assert_eq!(seq.responses[0], service.answer(id, &queries[0]));
    }

    #[test]
    fn landmark_snapshots_serve_all_query_kinds_and_accept_deltas() {
        use cc_apsp::landmark::LandmarkSketch;
        use cc_apsp::oracle::OracleBackend;
        use cc_dynamic::incremental::{DynamicConfig, IncrementalOracle};
        use cc_dynamic::update::{EdgeOp, UpdateBatch};

        let mut rng = StdRng::seed_from_u64(31);
        let g = generators::gnp_connected(24, 0.2, 1..=9, &mut rng);
        let sketch = LandmarkSketch::build(&g, 31, ExecPolicy::Seq);
        let snap = Snapshot::with_backend(
            g.clone(),
            OracleBackend::Landmark(sketch.clone()),
            SnapshotMeta {
                algo: "landmark".into(),
                seed: 31,
                stretch_bound: 3.0,
                rounds: 0,
                source: "test".into(),
            },
        );
        let mem = snap.backend.approx_mem_bytes();
        let (mut service, id) = {
            let mut service = OracleService::default();
            let id = service.register("lm", snap);
            (service, id)
        };
        assert_eq!(service.estimate_mem_bytes(id), mem);

        // Dist answers come straight from the sketch; k-nearest agrees with
        // sorting the materialized row; routes that deliver are real walks.
        assert_eq!(
            service.answer(id, &Query::Dist(0, 5)),
            Response::Dist(sketch.query(0, 5))
        );
        let row = sketch.dist_row(3);
        assert_eq!(
            service.answer(id, &Query::KNearest(3, 4)),
            Response::KNearest(
                k_nearest_from_dists(&row, row.len())
                    .into_iter()
                    .take(4)
                    .collect()
            )
        );
        // Cache hit on repeat, same answer.
        let first = service.answer(id, &Query::KNearest(3, 4));
        assert_eq!(first, service.answer(id, &Query::KNearest(3, 4)));
        assert!(service.cache_stats(id).hits >= 1);

        // A delta produced by a landmark engine applies through the service
        // and swaps the backend in place.
        let mut engine = IncrementalOracle::with_backend(
            g,
            OracleBackend::Landmark(sketch),
            "landmark",
            31,
            DynamicConfig::default(),
        );
        let outcome = engine
            .apply(&UpdateBatch::new(vec![EdgeOp::Insert(0, 23, 1)]))
            .expect("valid batch");
        service.apply_delta("lm", &outcome.delta).expect("applies");
        let exported = service.export(id);
        assert_eq!(&exported.backend, engine.backend());
        assert_eq!(
            service.answer(id, &Query::Dist(0, 23)),
            Response::Dist(engine.backend().query(0, 23))
        );
    }

    #[test]
    fn poisoned_cache_mutex_does_not_kill_the_service() {
        // A panicking worker used to poison the row-cache mutex, making
        // every later query panic in `.lock().unwrap()`. The cache
        // contents stay valid across a holder's panic (it never
        // changes answers), so the service must recover and keep serving.
        let snap = exact_snapshot(20, 6);
        let (service, id) = OracleService::single(snap);
        let before = service.answer(id, &Query::KNearest(3, 5));
        let entry = &service.entries[id.0];
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = entry.cache.lock().unwrap();
            panic!("worker dies while holding the cache lock");
        }));
        assert!(caught.is_err());
        assert!(entry.cache.is_poisoned(), "the panic must have poisoned it");
        // Every query path that touches a poisoned mutex must still answer.
        assert_eq!(service.answer(id, &Query::KNearest(3, 5)), before);
        let outcome = service.run_batch(
            id,
            &[Query::Dist(0, 1), Query::KNearest(3, 5), Query::Route(0, 2)],
            ExecPolicy::Seq,
        );
        assert_eq!(outcome.responses.len(), 3);
        assert_eq!(outcome.responses[1], before);
        assert!(service.query_counts(id)[0] >= 1);
    }

    #[test]
    fn fingerprint_distinguishes_different_responses() {
        let a = vec![Response::Dist(4), Response::Route(None)];
        let b = vec![Response::Dist(5), Response::Route(None)];
        let c = vec![Response::Dist(4), Response::Route(Some(vec![0, 1]))];
        assert_eq!(fingerprint(&a), fingerprint(&a));
        assert_ne!(fingerprint(&a), fingerprint(&b));
        assert_ne!(fingerprint(&a), fingerprint(&c));
        assert_ne!(
            fingerprint(&[Response::KNearest(vec![(1, 2)])]),
            fingerprint(&[Response::KNearest(vec![(2, 1)])])
        );
    }

    #[test]
    fn unreachable_pairs_answer_inf_and_no_route() {
        let g = Graph::from_edges(4, Direction::Undirected, &[(0, 1, 1), (2, 3, 1)]);
        let exact = apsp::exact_apsp(&g);
        let snap = Snapshot::new(
            g,
            exact,
            SnapshotMeta {
                algo: "exact".into(),
                seed: 0,
                stretch_bound: 1.0,
                rounds: 0,
                source: "test".into(),
            },
        );
        let (service, id) = OracleService::single(snap);
        assert_eq!(service.answer(id, &Query::Dist(0, 3)), Response::Dist(INF));
        assert_eq!(
            service.answer(id, &Query::Route(0, 3)),
            Response::Route(None)
        );
        // k-nearest only sees the reachable component.
        assert_eq!(
            service.answer(id, &Query::KNearest(0, 4)),
            Response::KNearest(vec![(0, 0), (1, 1)])
        );
    }
}
