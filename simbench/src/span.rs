//! In-memory spans around the benchmark's calls into each crate.
//!
//! A span has a name, a start and end (ns since the tracer started), the
//! span that caused it, and named counts attached where the work
//! happened. When tracing is off every call runs the closure and records
//! nothing, so the untraced and traced runs share one code path.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifies a span; `0` is the root (no parent).
pub type SpanId = u64;

/// One completed span.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }

    pub fn count(&self, key: &str) -> f64 {
        self.counts
            .iter()
            .filter(|(k, _)| *k == key)
            .map(|(_, v)| v)
            .sum()
    }
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("a traced thread panicked")
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Run `f` inside a span named `name` under `parent`. `f` gets the
    /// new span's id (for children) and returns its result plus the
    /// counts to attach.
    pub fn span<R>(
        &self,
        parent: SpanId,
        name: &'static str,
        f: impl FnOnce(SpanId) -> (R, Vec<(&'static str, f64)>),
    ) -> R {
        if !self.on {
            return f(0).0;
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = self.t0.elapsed().as_nanos() as u64;
        let (r, counts) = f(id);
        let end = self.t0.elapsed().as_nanos() as u64;
        self.spans().push(Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            counts,
        });
        r
    }

    /// [`Tracer::span`] without counts.
    pub fn time<R>(&self, parent: SpanId, name: &'static str, f: impl FnOnce(SpanId) -> R) -> R {
        self.span(parent, name, |id| (f(id), Vec::new()))
    }

    /// Every recorded span named `name`, in completion order.
    pub fn named(&self, name: &str) -> Vec<Span> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .cloned()
            .collect()
    }

    /// The spans named `name` whose parent is `parent`.
    pub fn children(&self, parent: SpanId, name: &str) -> Vec<Span> {
        self.spans()
            .iter()
            .filter(|s| s.parent == parent && s.name == name)
            .cloned()
            .collect()
    }

    /// The spans named `name` under the parent of the first of them to
    /// complete: one region's or one probe's, never a mix of the two,
    /// however many regions a run held.
    pub fn first_group(&self, name: &str) -> Vec<Span> {
        let spans = self.named(name);
        let Some(parent) = spans.first().map(|s| s.parent) else {
            return spans;
        };
        spans.into_iter().filter(|s| s.parent == parent).collect()
    }

    pub fn has(&self, name: &str) -> bool {
        self.spans().iter().any(|s| s.name == name)
    }

    /// Summed count `key` over the spans named `name`.
    pub fn total_count(&self, name: &str, key: &str) -> f64 {
        self.named(name).iter().map(|s| s.count(key)).sum()
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in self.spans().iter() {
            let _ = write!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"counts\":{{",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            );
            for (i, (k, v)) in s.counts.iter().enumerate() {
                let sep = if i == 0 { "" } else { "," };
                let _ = write!(out, "{sep}\"{k}\":{v}");
            }
            out.push_str("}}\n");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
