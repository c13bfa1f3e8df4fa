//! Golden conformance fixtures: checked-in `(graph seed → estimate matrix,
//! round count, stretch bound)` records for every algorithm family, so
//! kernel rewrites can't silently change answers.
//!
//! Each fixture in `tests/fixtures/*.golden` pins one `(family, n, seed,
//! algo)` run: the full distance-estimate matrix, the simulated round
//! count, the guaranteed stretch bound, and an FNV-1a fingerprint of the
//! raw matrix. The suite recomputes every case under the process defaults
//! (`CC_THREADS`, `CC_KERNEL`) and fails on **any** drift — CI runs it under
//! `--kernel dense` and `--kernel sparse` (the `kernel-matrix` job), so a
//! kernel that stops being bit-identical to the reference is caught here
//! even if every property test were deleted.
//!
//! To regenerate after an *intentional* semantic change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test golden_conformance
//! ```

use cc_apsp::pipeline::{approximate_apsp, apsp_large_bandwidth, PipelineConfig};
use cc_apsp::smalldiam::{small_diameter_apsp, SmallDiamConfig};
use cc_baselines::{exact as exact_baseline, spanner_only};
use cc_graph::generators::Family;
use cc_graph::{DistMatrix, INF};
use clique_sim::{Bandwidth, Clique};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::path::PathBuf;

/// One pinned run.
struct GoldenCase {
    /// Fixture file stem.
    name: &'static str,
    family: Family,
    n: usize,
    seed: u64,
    algo: &'static str,
}

/// The corpus: every algorithm, across adversarial graph families
/// (power-law hubs, large-diameter grids, metric geometric instances, and
/// the G(n,p) staple).
const CASES: &[GoldenCase] = &[
    GoldenCase {
        name: "gnp28_exact",
        family: Family::Gnp,
        n: 28,
        seed: 7,
        algo: "exact",
    },
    GoldenCase {
        name: "gnp28_spanner",
        family: Family::Gnp,
        n: 28,
        seed: 7,
        algo: "spanner",
    },
    GoldenCase {
        name: "gnp28_thm11",
        family: Family::Gnp,
        n: 28,
        seed: 7,
        algo: "thm11",
    },
    GoldenCase {
        name: "ba30_thm11",
        family: Family::PowerLaw,
        n: 30,
        seed: 5,
        algo: "thm11",
    },
    GoldenCase {
        name: "grid25_smalldiam",
        family: Family::Grid,
        n: 25,
        seed: 3,
        algo: "smalldiam",
    },
    GoldenCase {
        name: "geo26_thm81",
        family: Family::Geometric,
        n: 26,
        seed: 9,
        algo: "thm81",
    },
];

/// FNV-1a over the raw matrix entries (little-endian bytes) — the same
/// hash the snapshot format checksums with.
fn fingerprint(m: &DistMatrix) -> u64 {
    let bytes: Vec<u8> = m.raw().iter().flat_map(|w| w.to_le_bytes()).collect();
    cc_graph::codec::fnv1a(&bytes)
}

/// Runs one case under the given config defaults; mirrors the CLI's
/// algorithm table.
fn run_case(case: &GoldenCase, cfg: &PipelineConfig) -> (DistMatrix, f64, u64) {
    let mut rng = StdRng::seed_from_u64(case.seed);
    let g = case.family.generate(case.n, case.n as u64, &mut rng);
    let n = g.n();
    let mut algo_rng = StdRng::seed_from_u64(case.seed);
    match case.algo {
        "exact" => {
            let mut clique = Clique::new(n, Bandwidth::standard(n));
            let est =
                exact_baseline::exact_apsp_squaring_kernel(&mut clique, &g, cfg.exec, cfg.kernel);
            (est, 1.0, clique.rounds())
        }
        "spanner" => {
            let mut clique = Clique::new(n, Bandwidth::standard(n));
            let (est, bound) =
                spanner_only::spanner_only_apsp_with(&mut clique, &g, &mut algo_rng, cfg.exec);
            (est, bound, clique.rounds())
        }
        "smalldiam" => {
            let mut clique = Clique::new(n, Bandwidth::standard(n));
            let sd_cfg = SmallDiamConfig {
                exec: cfg.exec,
                kernel: cfg.kernel,
                ..Default::default()
            };
            let (est, bound) = small_diameter_apsp(&mut clique, &g, &sd_cfg, &mut algo_rng);
            (est, bound, clique.rounds())
        }
        "thm81" => {
            let mut clique = Clique::new(n, Bandwidth::polylog(4, n));
            let (est, bound) = apsp_large_bandwidth(&mut clique, &g, cfg, &mut algo_rng);
            (est, bound, clique.rounds())
        }
        "thm11" => {
            let r = approximate_apsp(&g, cfg);
            (r.estimate, r.stretch_bound, r.rounds)
        }
        other => panic!("unknown golden algo {other:?}"),
    }
}

/// Renders the canonical fixture document for one case.
fn render_case(case: &GoldenCase, cfg: &PipelineConfig) -> String {
    let (est, bound, rounds) = run_case(case, cfg);
    let mut doc = String::new();
    writeln!(
        doc,
        "# cc-apsp golden conformance fixture — regenerate with UPDATE_GOLDEN=1"
    )
    .unwrap();
    writeln!(doc, "family {}", case.family.name()).unwrap();
    writeln!(doc, "n {}", case.n).unwrap();
    writeln!(doc, "seed {}", case.seed).unwrap();
    writeln!(doc, "algo {}", case.algo).unwrap();
    writeln!(doc, "rounds {rounds}").unwrap();
    writeln!(doc, "bound {bound:.6}").unwrap();
    writeln!(doc, "fingerprint {:016x}", fingerprint(&est)).unwrap();
    writeln!(doc, "matrix").unwrap();
    for u in 0..est.n() {
        let row: Vec<String> = est
            .row(u)
            .iter()
            .map(|&d| {
                if d >= INF {
                    "inf".to_string()
                } else {
                    d.to_string()
                }
            })
            .collect();
        writeln!(doc, "{}", row.join(" ")).unwrap();
    }
    doc
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("{name}.golden"))
}

/// The main gate: recompute every case under the process defaults and
/// compare byte-for-byte against the checked-in fixture.
#[test]
fn golden_fixtures_match() {
    let update = std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1");
    let cfg = PipelineConfig::default(); // CC_THREADS / CC_KERNEL defaults
    for case in CASES {
        let doc = render_case(case, &cfg);
        let path = fixture_path(case.name);
        if update {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &doc).unwrap();
            continue;
        }
        let expect = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing fixture {path:?} ({e}); generate with \
                 UPDATE_GOLDEN=1 cargo test --test golden_conformance"
            )
        });
        assert_eq!(
            doc, expect,
            "golden drift in {} — if the change is intentional, regenerate \
             with UPDATE_GOLDEN=1 cargo test --test golden_conformance",
            case.name
        );
    }
}

/// Kernel-dispatch equivalence against the goldens, independent of the
/// `CC_KERNEL` environment: every fixture must reproduce under forced
/// dense *and* forced sparse dispatch.
#[test]
fn golden_fixtures_are_kernel_mode_invariant() {
    use cc_matrix::engine::KernelMode;
    for case in CASES {
        let mut docs = Vec::new();
        for kernel in [KernelMode::Dense, KernelMode::Sparse] {
            let cfg = PipelineConfig {
                kernel,
                ..Default::default()
            };
            docs.push(render_case(case, &cfg));
        }
        assert_eq!(
            docs[0], docs[1],
            "{}: dense and sparse kernels disagree",
            case.name
        );
        if let Ok(expect) = std::fs::read_to_string(fixture_path(case.name)) {
            assert_eq!(
                docs[0], expect,
                "{}: kernel runs drift from fixture",
                case.name
            );
        }
    }
}
