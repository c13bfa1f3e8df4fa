//! Output checks, run outside the timed regions: served answers recomputed
//! straight from a dense distance matrix and the graph.

use cc_graph::sssp::k_nearest_from_dists;
use cc_graph::{wadd, DistMatrix, Graph, NodeId, INF};
use cc_serve::service::{Query, Response};

use crate::report::Report;

/// The greedy route the oracle walks: from each node, the unvisited
/// neighbour minimising `(w(cur, x) + δ(x, v), x)`.
fn greedy_route(g: &Graph, m: &DistMatrix, u: NodeId, v: NodeId) -> Option<Vec<NodeId>> {
    let mut path = vec![u];
    let mut visited = vec![false; g.n()];
    visited[u] = true;
    let mut cur = u;
    while cur != v {
        let next = g
            .neighbors(cur)
            .filter(|&(x, _)| !visited[x])
            .map(|(x, w)| (wadd(w, m.get(x, v)), x))
            .filter(|&(cost, _)| cost < INF)
            .min()
            .map(|(_, x)| x)?;
        visited[next] = true;
        path.push(next);
        cur = next;
    }
    Some(path)
}

/// The answer to `q` computed from the matrix and graph alone.
fn expected(g: &Graph, m: &DistMatrix, q: &Query) -> Response {
    match *q {
        Query::Dist(u, v) => Response::Dist(m.get(u, v)),
        Query::Route(u, v) => Response::Route(greedy_route(g, m, u, v)),
        Query::KNearest(u, k) => Response::KNearest(k_nearest_from_dists(m.row(u), k)),
    }
}

/// How many of `responses` differ from the answers recomputed from the
/// matrix.
fn mismatches(g: &Graph, m: &DistMatrix, queries: &[Query], responses: &[Response]) -> u64 {
    if queries.len() != responses.len() {
        return queries.len().max(responses.len()) as u64;
    }
    queries
        .iter()
        .zip(responses)
        .filter(|(q, r)| expected(g, m, q) != **r)
        .count() as u64
}

/// Largest `answer / reference` over the distance answers, where both are
/// finite and the reference is positive (1.0 when nothing qualifies).
fn dist_stretch(reference: &DistMatrix, queries: &[Query], responses: &[Response]) -> f64 {
    let mut worst = 1.0f64;
    for (q, r) in queries.iter().zip(responses) {
        if let (Query::Dist(u, v), Response::Dist(d)) = (q, r) {
            let exact = reference.get(*u, *v);
            if exact > 0 && exact < INF && *d < INF {
                worst = worst.max(*d as f64 / exact as f64);
            }
        }
    }
    worst
}

/// Checks a served batch against the matrix (answers) and the Dijkstra
/// reference (stretch), outside any timed region.
pub struct Checker<'a> {
    pub graph: &'a Graph,
    pub matrix: &'a DistMatrix,
    pub truth: &'a DistMatrix,
    pub stretch: f64,
}

impl Checker<'_> {
    pub fn batch(&mut self, report: &mut Report, queries: &[Query], responses: &[Response]) {
        let bad = mismatches(self.graph, self.matrix, queries, responses);
        report.count(queries.len() as u64, bad);
        if bad > 0 {
            report.line(format!(
                "CHECK FAILED   {bad} of {} answers differ from the matrix",
                queries.len()
            ));
        }
        self.stretch = self
            .stretch
            .max(dist_stretch(self.truth, queries, responses));
    }
}
