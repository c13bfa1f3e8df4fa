//! Experiment harness for the reproduction.
//!
//! Each `eNN_*` function in [`experiments`] regenerates one "table/figure":
//! a quantitative claim of the paper (theorem or lemma), printed as a table
//! of `paper bound vs. measured value` rows. The `tables` bench target runs
//! them all under `cargo bench` (see the README's "Benchmarks and
//! experiments").

pub mod envelope;
pub mod experiments;
pub mod report;

use cc_graph::{apsp, generators::Family, DistMatrix, Graph, StretchStats};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Deterministic workload generation (family, size, seed) with ground truth.
pub struct Bench {
    /// Family short-name.
    pub family: &'static str,
    /// The graph.
    pub graph: Graph,
    /// Exact distances.
    pub exact: DistMatrix,
}

/// Builds a workload with exact ground truth attached.
pub fn bench_workload(family: Family, n: usize, seed: u64) -> Bench {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = family.generate(n, n as u64, &mut rng);
    let exact = apsp::exact_apsp(&graph);
    Bench {
        family: family.name(),
        graph,
        exact,
    }
}

/// Audits an estimate against the workload.
pub fn stretch(b: &Bench, est: &DistMatrix) -> StretchStats {
    est.stretch_vs(&b.exact)
}

/// Prints a table header with a rule.
pub fn header(title: &str, cols: &str) {
    println!("\n### {title}");
    println!("{cols}");
    println!("{}", "-".repeat(cols.len().max(40)));
}

/// `ok`/`VIOLATED` marker for bound checks.
pub fn okmark(ok: bool) -> &'static str {
    if ok {
        "ok"
    } else {
        "VIOLATED"
    }
}
