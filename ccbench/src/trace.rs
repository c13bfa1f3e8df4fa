//! The benchmark's own span recorder. Spans wrap the benchmark's calls into
//! each layer's public functions (nothing inside the program is
//! instrumented); a span's self time is its duration minus the part its
//! child spans cover, and the root span's self time is the residual by which
//! the layer times fail to add up to the workload's end-to-end time.

use std::collections::BTreeMap;

use crate::sys::{timed, Timed};

/// Layer label of the root span: time the workload spent outside every
/// layer span (loop bookkeeping, the harness itself).
pub const HARNESS: &str = "harness";

/// Layer label of output checks that run inside a traced region; their time
/// is not part of the workload's end-to-end time.
pub const CHECK: &str = "check";

#[derive(Debug, Clone)]
struct SpanRec {
    layer: &'static str,
    parent: Option<usize>,
    time: Timed,
    children_wall_s: f64,
}

/// An in-memory span tree, written out when the workload ends.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f` inside a span attributed to `layer`; nested spans opened
    /// through the passed tracer become its children.
    pub fn span<T>(&mut self, layer: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, Timed) {
        let idx = self.spans.len();
        self.spans.push(SpanRec {
            layer,
            parent: self.stack.last().copied(),
            time: Timed::default(),
            children_wall_s: 0.0,
        });
        self.stack.push(idx);
        let (out, time) = timed(|| f(self));
        self.stack.pop();
        self.spans[idx].time = time;
        if let Some(p) = self.spans[idx].parent {
            self.spans[p].children_wall_s += time.wall_s;
        }
        (out, time)
    }

    /// Self time per layer in milliseconds, summed over the layer's spans.
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.layer).or_insert(0.0) += (s.time.wall_s - s.children_wall_s) * 1e3;
        }
        out
    }

    /// Wall time of all root spans, in milliseconds.
    pub fn root_ms(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.time.wall_s * 1e3)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_root() {
        let mut tr = Tracer::new();
        tr.span(HARNESS, |tr| {
            tr.span("a", |tr| {
                tr.span("b", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
            tr.span("b", |_| {
                std::thread::sleep(std::time::Duration::from_millis(1))
            });
        });
        let layers = tr.self_ms_by_layer();
        let sum: f64 = layers.values().sum();
        assert!((sum - tr.root_ms()).abs() < 1e-6, "{layers:?}");
        assert!(layers["b"] >= 3.0);
    }
}
