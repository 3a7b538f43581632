//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Nothing is written until the run ends; a disabled tracer
//! records nothing, so the end-to-end run pays one branch per call.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span, used as the parent of nested spans.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct SpanRec {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    request: u64,
    /// Calls the span covers: batched spans time many short calls at
    /// once, so the clock reads do not swamp the call being timed.
    calls: u32,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id to
    /// parent nested spans.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        self.span_n(name, parent, request, 1, f)
    }

    /// [`Tracer::span`] around `calls` repetitions of one short call.
    pub fn span_n<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        calls: u32,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        if !self.on {
            return f(None);
        }
        let id = {
            let mut spans = self.spans.lock().expect("tracer lock poisoned");
            spans.push(SpanRec {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                request,
                calls,
            });
            spans.len() - 1
        };
        let start = self.now_ns();
        let out = f(Some(id));
        let end = self.now_ns();
        let mut spans = self.spans.lock().expect("tracer lock poisoned");
        spans[id].start_ns = start;
        spans[id].end_ns = end;
        out
    }

    /// Per-call durations (ns) of every span named `name`.
    pub fn per_call_ns(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("tracer lock poisoned");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / f64::from(s.calls.max(1)))
            .collect()
    }

    pub fn span_count(&self) -> usize {
        self.spans.lock().expect("tracer lock poisoned").len()
    }

    pub fn request_count(&self) -> usize {
        let spans = self.spans.lock().expect("tracer lock poisoned");
        let mut ids: Vec<u64> = spans.iter().map(|s| s.request).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// Self time per layer in ms: each span's duration minus the part
    /// its direct children cover, summed by layer (the span name up to
    /// the first `.`).
    pub fn self_ms_by_layer(&self) -> BTreeMap<String, f64> {
        let spans = self.spans.lock().expect("tracer lock poisoned");
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<String, f64> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *out.entry(layer.to_string()).or_default() += own as f64 / 1e6;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let tr = Tracer::new(true);
        tr.span("outer.op", None, 7, |p| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            tr.span("inner.op", p, 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(4))
            });
        });
        let selfs = tr.self_ms_by_layer();
        assert!(selfs["inner"] >= 4.0);
        assert!(selfs["outer"] >= 2.0);
        // The two self times split the outer span exactly, however long
        // the sleeps overran.
        let outer_ms = tr.per_call_ns("outer.op")[0] / 1e6;
        assert!((selfs["outer"] + selfs["inner"] - outer_ms).abs() < 1e-9);
        assert_eq!(tr.request_count(), 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new(false);
        assert_eq!(tr.span("a.b", None, 0, |p| p), None);
        assert_eq!(tr.span_count(), 0);
    }
}
