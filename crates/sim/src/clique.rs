//! The [`Clique`]: the simulated network handle every algorithm runs against.

use crate::bandwidth::Bandwidth;
use crate::ledger::{RoundLedger, RouteReport};
use crate::message::{Msg, Words};
use crate::stats::TrafficStats;
use crate::{NodeId, ROUTE_CONSTANT};
use cc_par::ExecPolicy;

/// A simulated `n`-node Congested Clique with bandwidth accounting.
///
/// All communication primitives deliver data *and* charge rounds computed
/// from the actual loads (see the [crate docs](crate) for the charge model).
/// Algorithms should scope their work with [`Clique::phase`] so the ledger
/// can report per-phase breakdowns.
#[derive(Debug)]
pub struct Clique {
    n: usize,
    bandwidth: Bandwidth,
    ledger: RoundLedger,
    stats: TrafficStats,
    load_guard: Option<usize>,
}

impl Clique {
    /// A fresh clique of `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, bandwidth: Bandwidth) -> Self {
        assert!(n >= 1, "clique needs at least one node");
        Self {
            n,
            bandwidth,
            ledger: RoundLedger::new(),
            stats: TrafficStats::new(),
            load_guard: None,
        }
    }

    /// Installs a load guard: any single routing instance whose max per-node
    /// load exceeds `factor · n · f` words **panics** with a diagnostic.
    ///
    /// The paper's `O(1)`-round claims all rest on per-step loads of `O(n)`
    /// words; running a pipeline under a guard turns a violated load
    /// precondition into a loud failure instead of a silently larger round
    /// charge. Used by tests as model-assertion failure injection.
    pub fn guard_loads(&mut self, factor: usize) -> &mut Self {
        self.load_guard = Some(factor);
        self
    }

    /// Cumulative per-label traffic statistics.
    pub fn traffic(&self) -> &TrafficStats {
        &self.stats
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Link bandwidth.
    pub fn bandwidth(&self) -> Bandwidth {
        self.bandwidth
    }

    /// Total rounds charged so far.
    pub fn rounds(&self) -> u64 {
        self.ledger.total()
    }

    /// Read access to the ledger.
    pub fn ledger(&self) -> &RoundLedger {
        &self.ledger
    }

    /// Runs `f` inside a named phase (nested phases build slash-paths).
    ///
    /// Each phase also opens a `cc_obs` span carrying the rounds charged and
    /// words moved while it ran, so `--trace` exports per-phase round and
    /// bandwidth budgets without any per-algorithm instrumentation. The
    /// ledger deltas are only read when tracing is on; recording never feeds
    /// back into the computation.
    pub fn phase<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        let mut sp = cc_obs::span(name);
        let (rounds0, words0) = if sp.is_active() {
            (self.ledger.total(), self.stats.total_words())
        } else {
            (0, 0)
        };
        self.ledger.push_phase(name);
        let out = f(self);
        self.ledger.pop_phase();
        if sp.is_active() {
            sp.attr("rounds", (self.ledger.total() - rounds0) as f64);
            sp.attr("words", (self.stats.total_words() - words0) as f64);
        }
        out
    }

    /// Directly charges `rounds` (used for costs established by citation,
    /// e.g. the CZ22 spanner's O(1) rounds; each call site documents which
    /// theorem it charges).
    pub fn charge(&mut self, label: &str, rounds: u64) {
        self.ledger.charge(label, rounds);
    }

    /// Rounds needed to route an instance whose max per-node load is
    /// `load_words`: `ROUTE_CONSTANT · ceil(load / (n · f))`, and at least 1
    /// when any data moves.
    pub fn rounds_for_load(&self, load_words: usize) -> u64 {
        if load_words == 0 {
            return 0;
        }
        let cap = self.n * self.bandwidth.words_per_message();
        ROUTE_CONSTANT * (load_words.div_ceil(cap) as u64)
    }

    /// Routes a batch of point-to-point messages (Lemma 2.1 / Lemma 2.2
    /// style), delivering every message and charging rounds from the measured
    /// loads. Returns per-node inboxes ordered by `(src, arrival order)`.
    pub fn route<P: Words>(&mut self, label: &str, msgs: Vec<Msg<P>>) -> Vec<Vec<Msg<P>>> {
        let (inboxes, _) = self.route_with_report(label, msgs);
        inboxes
    }

    /// [`Clique::route`], also returning the load report.
    pub fn route_with_report<P: Words>(
        &mut self,
        label: &str,
        msgs: Vec<Msg<P>>,
    ) -> (Vec<Vec<Msg<P>>>, RouteReport) {
        let mut send = vec![0usize; self.n];
        let mut recv = vec![0usize; self.n];
        let mut total = 0usize;
        let count = msgs.len();
        for m in &msgs {
            assert!(
                m.src < self.n && m.dst < self.n,
                "message endpoint out of range"
            );
            let w = m.payload.words();
            send[m.src] += w;
            recv[m.dst] += w;
            total += w;
        }
        let report = self.charge_loads(label, &send, &recv, total, count);
        let mut inboxes: Vec<Vec<Msg<P>>> = (0..self.n).map(|_| Vec::new()).collect();
        let mut ordered = msgs;
        // Deterministic arrival order regardless of caller construction order.
        ordered.sort_by_key(|m| (m.dst, m.src));
        for m in ordered {
            inboxes[m.dst].push(m);
        }
        (inboxes, report)
    }

    /// Charges a routing instance described only by its per-node loads (in
    /// words), without materializing messages. Algorithms use this when the
    /// payload movement is performed directly on their state for simulation
    /// efficiency; the loads passed must be the loads the real instance
    /// would have.
    pub fn charge_route_by_loads(
        &mut self,
        label: &str,
        send_loads: &[usize],
        recv_loads: &[usize],
    ) -> RouteReport {
        assert_eq!(send_loads.len(), self.n);
        assert_eq!(recv_loads.len(), self.n);
        let total = send_loads.iter().sum::<usize>();
        self.charge_loads(label, send_loads, recv_loads, total, 0)
    }

    fn charge_loads(
        &mut self,
        label: &str,
        send: &[usize],
        recv: &[usize],
        total_words: usize,
        messages: usize,
    ) -> RouteReport {
        let max_send = send.iter().copied().max().unwrap_or(0);
        let max_recv = recv.iter().copied().max().unwrap_or(0);
        let load = max_send.max(max_recv);
        if let Some(factor) = self.load_guard {
            let limit = factor * self.n * self.bandwidth.words_per_message();
            assert!(
                load <= limit,
                "load guard tripped in `{label}`: per-node load {load} words > \
                 {factor}·n·f = {limit} (the O(n)-load precondition of the \
                 routing lemmas does not hold for this step)"
            );
        }
        let rounds = self.rounds_for_load(load);
        self.ledger.charge(label, rounds);
        self.stats.record(label, total_words, load, rounds);
        RouteReport {
            max_send_words: max_send,
            max_recv_words: max_recv,
            total_words,
            messages,
            rounds,
        }
    }

    /// One node sends the same `words`-word blob to every node (e.g.
    /// broadcasting a spanner). Charge: distribute the blob in chunks across
    /// the clique, then all-to-all share — `ROUTE_CONSTANT · ceil(words /
    /// (n·f))`, at least 1.
    pub fn broadcast_from(&mut self, label: &str, src: NodeId, words: usize) -> u64 {
        assert!(src < self.n, "broadcast source out of range");
        let rounds = self.rounds_for_load(words).max(1);
        self.ledger.charge(label, rounds);
        rounds
    }

    /// Every node broadcasts a blob to every node; `per_node_words[v]` is the
    /// size of `v`'s blob. Each node must receive the concatenation, so the
    /// receive load is the total size.
    pub fn broadcast_all(&mut self, label: &str, per_node_words: &[usize]) -> RouteReport {
        assert_eq!(per_node_words.len(), self.n);
        let total: usize = per_node_words.iter().sum();
        let recv = vec![total; self.n];
        // Each node sends its blob once; the relay fan-out is captured by the
        // receive side of the load formula.
        self.charge_loads(label, per_node_words, &recv, total, 0)
    }

    /// Makes a dataset of `total_words` words, held in pieces across the
    /// clique (e.g. a spanner's edges, each known to its endpoints), known to
    /// **every** node: the receive load is `total_words` per node, so the
    /// charge is `rounds_for_load(total_words)` (min 1). This is the standard
    /// "broadcast a sparse graph" pattern of Corollary 7.1.
    pub fn broadcast_volume(&mut self, label: &str, total_words: usize) -> u64 {
        let rounds = self.rounds_for_load(total_words).max(1);
        self.ledger.charge(label, rounds);
        rounds
    }

    /// Runs `count` independent sub-computations that execute *in parallel*
    /// on the same clique, each with `per_instance` bandwidth, under `exec`
    /// (truly concurrent when the policy is `Par(k)`). The group charges
    /// `max(instance rounds) · overcommit`, where `overcommit =
    /// ceil(count · per_instance / available)` accounts for running more
    /// parallel bandwidth than the links provide (this is how Section 8.2's
    /// "O(log n) instances need an extra O(log n) bandwidth factor"
    /// materializes when run in the standard model).
    ///
    /// Each instance runs on its own sub-clique (same `n`, `per_instance`
    /// bandwidth, inherited load guard); the sub-ledgers and traffic tables
    /// are merged back **in instance order**, so the parent's rounds,
    /// ledger events, and traffic tables are a pure function of the
    /// instances' outputs and **identical** for every policy — the thread
    /// count never changes any simulated quantity.
    pub fn parallel_exec<T: Send>(
        &mut self,
        label: &str,
        count: usize,
        per_instance: Bandwidth,
        exec: ExecPolicy,
        f: impl Fn(&mut Clique, usize) -> T + Sync,
    ) -> Vec<T> {
        // Copies (not &self) so the closure can be Sync across workers.
        let n = self.n;
        let load_guard = self.load_guard;
        let runs: Vec<(RoundLedger, TrafficStats, T)> = exec.map_collect(count, |i| {
            let mut sub = Clique::new(n, per_instance);
            sub.load_guard = load_guard;
            let out = f(&mut sub, i);
            (sub.ledger, sub.stats, out)
        });
        self.merge_parallel_runs(label, per_instance, runs)
    }

    /// Folds parallel instances' ledgers/stats back into this clique in
    /// instance order and applies the group's overcommit charge.
    fn merge_parallel_runs<T>(
        &mut self,
        label: &str,
        per_instance: Bandwidth,
        runs: Vec<(RoundLedger, TrafficStats, T)>,
    ) -> Vec<T> {
        let count = runs.len();
        let mut results = Vec::with_capacity(count);
        let mut max_rounds = 0u64;
        for (i, (ledger, stats, out)) in runs.into_iter().enumerate() {
            max_rounds = max_rounds.max(ledger.total());
            self.ledger
                .absorb_as_info(&ledger, &format!("{label}[{i}]"));
            self.stats.absorb(&stats);
            results.push(out);
        }
        let needed = count * per_instance.words_per_message();
        let available = self.bandwidth.words_per_message();
        let overcommit = (needed.div_ceil(available).max(1)) as u64;
        self.ledger.charge(label, max_rounds * overcommit);
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clique(n: usize) -> Clique {
        Clique::new(n, Bandwidth::standard(n))
    }

    #[test]
    fn route_delivers_all_messages_in_order() {
        let mut c = clique(4);
        let msgs = vec![
            Msg::new(2, 0, 20u64),
            Msg::new(1, 0, 10u64),
            Msg::new(3, 1, 31u64),
        ];
        let inboxes = c.route("t", msgs);
        assert_eq!(
            inboxes[0].iter().map(|m| m.payload).collect::<Vec<_>>(),
            vec![10, 20]
        );
        assert_eq!(inboxes[1][0].payload, 31);
        assert!(inboxes[2].is_empty());
    }

    #[test]
    fn route_charges_by_max_load() {
        let mut c = clique(4);
        // Node 0 receives 8 words: load 8, capacity n*f = 4 → 2 units → 4 rounds.
        let msgs: Vec<Msg<u64>> = (0..8).map(|i| Msg::new(i % 4, 0, i as u64)).collect();
        let (_, report) = c.route_with_report("t", msgs);
        assert_eq!(report.max_recv_words, 8);
        assert_eq!(report.rounds, ROUTE_CONSTANT * 2);
    }

    #[test]
    fn balanced_all_to_all_is_cheap() {
        let n = 16;
        let mut c = clique(n);
        let msgs: Vec<Msg<u64>> = (0..n)
            .flat_map(|u| (0..n).map(move |v| Msg::new(u, v, 1u64)))
            .collect();
        c.route("t", msgs);
        assert_eq!(c.rounds(), ROUTE_CONSTANT);
    }

    #[test]
    fn bandwidth_reduces_rounds() {
        let n = 8;
        let heavy: Vec<Msg<u64>> = (0..n)
            .flat_map(|u| (0..n).flat_map(move |v| (0..4).map(move |i| Msg::new(u, v, i as u64))))
            .collect();
        let mut std_c = Clique::new(n, Bandwidth::standard(n));
        std_c.route("t", heavy.clone());
        let mut fat_c = Clique::new(n, Bandwidth::words(4));
        fat_c.route("t", heavy);
        assert!(fat_c.rounds() < std_c.rounds());
    }

    #[test]
    fn broadcast_from_scales_with_size() {
        let mut c = clique(8);
        let r_small = c.broadcast_from("small", 0, 8);
        let r_big = c.broadcast_from("big", 0, 64);
        assert!(r_big > r_small);
    }

    #[test]
    fn broadcast_all_charges_total_on_receive() {
        let mut c = clique(4);
        let report = c.broadcast_all("t", &[4, 4, 4, 4]);
        assert_eq!(report.max_recv_words, 16);
        assert_eq!(report.rounds, ROUTE_CONSTANT * 4); // 16 words / (4*1) cap
    }

    #[test]
    fn phases_tag_ledger() {
        let mut c = clique(4);
        c.phase("alpha", |c| c.charge("x", 3));
        assert_eq!(c.ledger().breakdown(), vec![("alpha".to_string(), 3)]);
    }

    #[test]
    fn parallel_charges_max_not_sum() {
        let mut c = clique(4);
        c.parallel_exec("par", 3, Bandwidth::standard(4), ExecPolicy::Seq, |c, i| {
            c.charge("work", (i as u64) + 1);
        });
        // max instance cost = 3; overcommit = ceil(3*1/1) = 3 → 9.
        assert_eq!(c.rounds(), 9);
    }

    #[test]
    fn parallel_exec_accounting_is_thread_count_invariant() {
        let run = |exec: ExecPolicy| {
            let mut c = clique(6);
            c.guard_loads(8);
            let outs = c.parallel_exec("par", 5, Bandwidth::words(1), exec, |sub, i| {
                sub.charge("work", (i as u64) + 1);
                sub.broadcast_from("blob", 0, 4 * (i + 1));
                i * 10
            });
            (outs, c.rounds(), c.ledger().events().to_vec())
        };
        let seq = run(ExecPolicy::Seq);
        for threads in [2usize, 4] {
            let par = run(ExecPolicy::Par(threads));
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn parallel_no_overcommit_when_bandwidth_suffices() {
        let mut c = Clique::new(4, Bandwidth::words(8));
        c.parallel_exec("par", 4, Bandwidth::words(2), ExecPolicy::Seq, |c, _| {
            c.charge("work", 5);
        });
        assert_eq!(c.rounds(), 5);
    }

    #[test]
    fn charge_route_by_loads_matches_route() {
        let n = 4;
        let mut c1 = clique(n);
        let msgs: Vec<Msg<u64>> = (0..8)
            .map(|i| Msg::new(i % n, (i + 1) % n, i as u64))
            .collect();
        let mut send = vec![0usize; n];
        let mut recv = vec![0usize; n];
        for m in &msgs {
            send[m.src] += 1;
            recv[m.dst] += 1;
        }
        let (_, rep1) = c1.route_with_report("t", msgs);
        let mut c2 = clique(n);
        let rep2 = c2.charge_route_by_loads("t", &send, &recv);
        assert_eq!(rep1.rounds, rep2.rounds);
        assert_eq!(c1.rounds(), c2.rounds());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn route_rejects_bad_destination() {
        let mut c = clique(2);
        c.route("t", vec![Msg::new(0, 7, 1u64)]);
    }

    #[test]
    fn traffic_stats_accumulate_per_label() {
        let mut c = clique(4);
        c.route("alpha", vec![Msg::new(0, 1, 1u64), Msg::new(2, 1, 2u64)]);
        c.route("alpha", vec![Msg::new(3, 0, 9u64)]);
        c.broadcast_all("beta", &[1, 1, 1, 1]);
        let alpha = c.traffic().get("alpha").unwrap();
        assert_eq!(alpha.invocations, 2);
        assert_eq!(alpha.total_words, 3);
        assert!(c.traffic().get("beta").is_some());
        assert!(c.traffic().get("gamma").is_none());
    }

    #[test]
    #[should_panic(expected = "load guard tripped")]
    fn load_guard_fires_on_hotspot() {
        let mut c = clique(4);
        c.guard_loads(2);
        // Node 0 receives 4·n = 16 words: above the 2·n·f = 8 limit.
        let msgs: Vec<Msg<u64>> = (0..16).map(|i| Msg::new(i % 4, 0, i as u64)).collect();
        c.route("hot", msgs);
    }

    #[test]
    fn load_guard_allows_balanced_instances() {
        let mut c = clique(8);
        c.guard_loads(2);
        let msgs: Vec<Msg<u64>> = (0..8)
            .flat_map(|u| (0..8).map(move |v| Msg::new(u, v, 1u64)))
            .collect();
        c.route("balanced", msgs); // load = n = 8 ≤ 2·n·f
        assert_eq!(c.rounds(), ROUTE_CONSTANT);
    }
}
