//! In-memory span recorder for the traced run.
//!
//! Every timed call into the program goes through [`Tracer::begin`] /
//! [`Tracer::end`], so the untraced and traced runs time the same calls
//! with the same clock; tracing only adds the span records. Spans stay
//! in memory until the run ends and are then written out in one file.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use minpower_core::json::Value;

/// One finished span: a call into one layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// The row, corner, op or job the span belongs to.
    pub key: String,
    /// Seconds since the run's epoch.
    pub start: f64,
    pub end: f64,
}

/// An open span; closing it with [`Tracer::end`] yields its duration.
#[derive(Debug)]
pub struct Open {
    pub id: u64,
    parent: Option<u64>,
    name: &'static str,
    key: String,
    start: Instant,
}

/// Span sink. With `enabled == false` it still times calls but keeps
/// no records.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: Arc<AtomicU64>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: Arc::new(AtomicU64::new(1)),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A tracer for another thread: same epoch and id space, own buffer.
    pub fn fork(&self) -> Tracer {
        Tracer {
            enabled: self.enabled,
            epoch: self.epoch,
            next_id: self.next_id.clone(),
            spans: Vec::new(),
        }
    }

    /// Takes over the spans a forked tracer recorded.
    pub fn join(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Opens a span. `key` is only evaluated when tracing is on.
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        key: impl FnOnce() -> String,
    ) -> Open {
        let (id, key) = if self.enabled {
            (self.next_id.fetch_add(1, Ordering::Relaxed), key())
        } else {
            (0, String::new())
        };
        Open {
            id,
            parent,
            name,
            key,
            start: Instant::now(),
        }
    }

    /// Closes a span and returns its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        let secs = end.duration_since(open.start).as_secs_f64();
        if self.enabled {
            self.spans.push(Span {
                id: open.id,
                parent: open.parent,
                name: open.name,
                key: open.key,
                start: open.start.duration_since(self.epoch).as_secs_f64(),
                end: end.duration_since(self.epoch).as_secs_f64(),
            });
        }
        secs
    }

    /// Times `f` as one span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        key: impl FnOnce() -> String,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let open = self.begin(name, parent, key);
        let r = f();
        (r, self.end(open))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of the spans named `name`, seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// Total duration of the spans named `name`, seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Measured cost of recording one span, seconds: an empty span
    /// timed with tracing on minus the same with tracing off.
    pub fn span_cost() -> f64 {
        const N: usize = 20_000;
        let cost = |enabled: bool| {
            let mut t = Tracer::new(enabled);
            let t0 = Instant::now();
            for i in 0..N {
                let open = t.begin("probe", None, || format!("op{i}"));
                t.end(open);
            }
            t0.elapsed().as_secs_f64()
        };
        let off = cost(false);
        (cost(true) - off) / N as f64
    }

    /// The spans as a JSON array, in the order they closed.
    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Value::Obj(vec![
                        ("id".into(), Value::Int(s.id)),
                        ("parent".into(), s.parent.map_or(Value::Null, Value::Int)),
                        ("name".into(), Value::Str(s.name.into())),
                        ("key".into(), Value::Str(s.key.clone())),
                        ("start".into(), Value::Float(s.start)),
                        ("end".into(), Value::Float(s.end)),
                    ])
                })
                .collect(),
        )
    }
}
