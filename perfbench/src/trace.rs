//! Spans recorded by the benchmark around its calls into the library.
//!
//! Every span has a name `<layer>.<what>`, a start, an end, the span that
//! was open when it started (its parent) and, for request-scoped work, a
//! request id shared by all spans of one request. Spans live in memory
//! until the run ends; then [`Tracer::write_chrome`] exports them as Chrome
//! trace-event JSON and [`Tracer::self_time_table`] prints each layer's
//! self time (a span's duration minus the part its children cover).
//!
//! With tracing off, [`Tracer::span`] only calls the closure.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<usize>,
    pub request: Option<u64>,
    /// Display lane (Chrome `tid`); overlapping request spans get their own.
    pub lane: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    request: RefCell<Option<u64>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            request: RefCell::new(None),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name` (nested under the open span).
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let parent = self.stack.borrow().last().copied();
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let now = Instant::now();
            spans.push(Span {
                name,
                start: now,
                end: now,
                parent,
                request: *self.request.borrow(),
                lane: 1,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(idx);
        let out = f();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end = Instant::now();
        out
    }

    /// Runs `f` as request `id`: spans opened inside carry the id.
    pub fn request<T>(&self, id: u64, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let prev = self.request.replace(Some(id));
        let out = self.span(name, f);
        *self.request.borrow_mut() = prev;
        out
    }

    /// Records an interval measured elsewhere (another thread, or a
    /// timestamp pair) under the open span; returns its index.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: Option<u64>,
        lane: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let parent = parent.or_else(|| self.stack.borrow().last().copied());
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name,
            start,
            end: end.max(start),
            parent,
            request,
            lane,
        });
        Some(spans.len() - 1)
    }

    /// Durations (ms) of every span named `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Summed duration (ms) of every span named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().fold(0.0, |a, b| a + b)
    }

    /// Per-span self time: duration minus the time its children cover.
    fn self_ms(&self) -> Vec<f64> {
        let spans = self.spans.borrow();
        let mut own: Vec<f64> = spans.iter().map(Span::ms).collect();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                own[p] -= s.ms();
            }
        }
        own.into_iter().map(|v| v.max(0.0)).collect()
    }

    /// A plain-text table of self time per layer (the name's first
    /// dot-separated component) and per span name.
    pub fn self_time_table(&self) -> String {
        let own = self.self_ms();
        let spans = self.spans.borrow();
        let mut by_name: BTreeMap<&str, (usize, f64, f64)> = BTreeMap::new();
        let mut by_layer: BTreeMap<&str, (usize, f64)> = BTreeMap::new();
        for (s, &self_ms) in spans.iter().zip(&own) {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.ms();
            e.2 += self_ms;
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let l = by_layer.entry(layer).or_default();
            l.0 += 1;
            l.1 += self_ms;
        }
        let total: f64 = own.iter().sum();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<10} {:>8} {:>12} {:>7}",
            "layer", "spans", "self_ms", "share"
        );
        for (layer, (n, self_ms)) in &by_layer {
            let share = if total > 0.0 {
                100.0 * self_ms / total
            } else {
                0.0
            };
            let _ = writeln!(out, "{layer:<10} {n:>8} {self_ms:>12.3} {share:>6.1}%");
        }
        let _ = writeln!(
            out,
            "\n{:<34} {:>8} {:>12} {:>12}",
            "span", "count", "total_ms", "self_ms"
        );
        for (name, (n, total_ms, self_ms)) in &by_name {
            let _ = writeln!(out, "{name:<34} {n:>8} {total_ms:>12.3} {self_ms:>12.3}");
        }
        out
    }

    /// Writes every span as Chrome trace-event JSON (complete events, µs).
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans.borrow();
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in spans.iter().enumerate() {
            let ts = s.start.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
            let dur = (s.end - s.start).as_secs_f64() * 1e6;
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{layer}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{ts:.3},\"dur\":{dur:.3},\"args\":{{\"id\":{i},\"parent\":{},\"request\":{}}}}}",
                s.name,
                s.lane,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request.map_or("null".to_string(), |r| r.to_string()),
            );
            out.push_str(if i + 1 == spans.len() { "\n" } else { ",\n" });
        }
        out.push_str("]}\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        t.span("a.outer", || {
            t.span("b.inner", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let own = t.self_ms();
        assert_eq!(own.len(), 2);
        assert!(own[0] < t.total_ms("a.outer"));
        assert!((own[1] - t.total_ms("b.inner")).abs() < 1e-9);
        assert!(t.self_time_table().contains("b.inner"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("a.x", || 7), 7);
        assert!(t.durations_ms("a.x").is_empty());
    }
}
