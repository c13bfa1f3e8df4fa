//! Validation of the simulator's cost model: the scheduled (round-by-round)
//! router realizes the closed-form charges on the balanced instances the
//! paper's lemmas invoke, and the bandwidth/parallel accounting behaves.

use cc_par::ExecPolicy;
use clique_sim::routing::schedule_route;
use clique_sim::{Bandwidth, Clique, Msg, ROUTE_CONSTANT};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A balanced instance: every node sends ≈ c·n words to ≈ random
/// destinations (the Lemma 2.1 precondition).
fn balanced_instance(n: usize, c: usize, seed: u64) -> Vec<(usize, usize, usize)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut msgs = Vec::new();
    for u in 0..n {
        for _ in 0..c * n {
            msgs.push((u, rng.gen_range(0..n), 1));
        }
    }
    msgs
}

#[test]
fn scheduled_rounds_close_to_charged_on_balanced_instances() {
    for n in [8usize, 16, 32] {
        for c in 1..=4usize {
            let msgs = balanced_instance(n, c, (n * c) as u64);
            let schedule = schedule_route(n, 1, &msgs);
            // Charged formula: ROUTE_CONSTANT · ceil(L / n). Loads here are
            // ≈ c·n per node (receive side is random ⇒ some skew).
            let mut recv = vec![0usize; n];
            for &(_, d, w) in &msgs {
                recv[d] += w;
            }
            let max_load = recv.iter().copied().max().unwrap().max(c * n);
            let charged = ROUTE_CONSTANT * (max_load.div_ceil(n) as u64);
            // The schedule must be within a small constant of the charge.
            assert!(
                schedule.total_rounds <= 2 * charged + 2,
                "n={n} c={c}: scheduled {} vs charged {charged}",
                schedule.total_rounds
            );
            assert!(schedule.total_rounds >= charged / 2);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// All messages are delivered, to the right nodes, exactly once.
    #[test]
    fn route_delivers_exactly_once(
        n in 2usize..20,
        raw in proptest::collection::vec((0usize..20, 0usize..20, 1u64..100), 0..200),
    ) {
        let msgs: Vec<Msg<u64>> = raw
            .iter()
            .filter(|&&(s, d, _)| s < n && d < n)
            .map(|&(s, d, p)| Msg::new(s, d, p))
            .collect();
        let count = msgs.len();
        let mut clique = Clique::new(n, Bandwidth::standard(n));
        let inboxes = clique.route("t", msgs);
        let delivered: usize = inboxes.iter().map(Vec::len).sum();
        prop_assert_eq!(delivered, count);
        for (dst, inbox) in inboxes.iter().enumerate() {
            for m in inbox {
                prop_assert_eq!(m.dst, dst);
            }
        }
    }

    /// The charge is monotone in load and inversely monotone in bandwidth.
    #[test]
    fn charge_monotonicity(load in 1usize..100_000, n in 2usize..64, f in 1usize..64) {
        let c1 = Clique::new(n, Bandwidth::words(f));
        let c2 = Clique::new(n, Bandwidth::words(f + 1));
        prop_assert!(c1.rounds_for_load(load) >= c2.rounds_for_load(load));
        prop_assert!(c1.rounds_for_load(load + n) >= c1.rounds_for_load(load));
        prop_assert!(c1.rounds_for_load(load) >= 1);
    }

    /// Scheduled routing delivers every unit regardless of shape.
    #[test]
    fn schedule_counts_units(
        n in 2usize..12,
        raw in proptest::collection::vec((0usize..12, 0usize..12, 1usize..9), 0..60),
    ) {
        let msgs: Vec<(usize, usize, usize)> =
            raw.into_iter().filter(|&(s, d, _)| s < n && d < n).collect();
        let f = 2;
        let schedule = schedule_route(n, f, &msgs);
        let expect: usize = msgs.iter().map(|&(_, _, w)| w.div_ceil(f)).sum();
        prop_assert_eq!(schedule.units, expect);
        if expect > 0 {
            prop_assert!(schedule.total_rounds >= 2);
        }
    }
}

#[test]
fn parallel_group_bandwidth_overcommit_factors() {
    // count · per_instance ≤ available ⇒ no overcommit; beyond ⇒ ceil factor.
    let mut c = Clique::new(8, Bandwidth::words(4));
    c.parallel_exec("fits", 4, Bandwidth::words(1), ExecPolicy::Seq, |c, _| {
        c.charge("w", 10)
    });
    assert_eq!(c.rounds(), 10);
    let mut c2 = Clique::new(8, Bandwidth::words(4));
    c2.parallel_exec(
        "overcommitted",
        12,
        Bandwidth::words(1),
        ExecPolicy::Seq,
        |c, _| c.charge("w", 10),
    );
    assert_eq!(c2.rounds(), 30); // ceil(12/4) = 3×
}

#[test]
fn ledger_breakdown_sums_to_total() {
    let mut c = Clique::new(16, Bandwidth::standard(16));
    c.phase("a", |c| {
        c.charge("x", 3);
        c.phase("b", |c| c.charge("y", 4));
    });
    c.charge("z", 5);
    let total: u64 = c.ledger().breakdown().iter().map(|(_, r)| r).sum();
    assert_eq!(total, c.rounds());
    assert_eq!(c.rounds(), 12);
}
