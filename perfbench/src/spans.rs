//! In-memory span recording around the benchmark's calls into each
//! layer's public functions.
//!
//! A span is `(name, start, end, parent)`; its layer is the name up to
//! the first `.`. A span's *self* time is its duration minus the time
//! its direct children cover. The spans stay in memory and are written
//! out once, when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use piranha_serve::json::Json;

/// One closed span, in nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; every call is a no-op when disabled, so
/// the same code serves the untraced and the traced pass.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span, closed with [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(id) = open.0 {
            assert_eq!(self.open.pop(), Some(id), "spans must close in LIFO order");
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans recorded from index `from` on (one pass of a run).
    pub fn since(&self, from: usize) -> &[Span] {
        &self.spans[from..]
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

/// Total duration of the top-level spans among `spans` (those whose
/// parent lies outside the slice).
pub fn top_level_ns(spans: &[Span], first_id: usize) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none_or(|p| p < first_id))
        .map(Span::dur_ns)
        .sum()
}

/// Self time per layer (name prefix up to the first `.`), in ns, over
/// spans whose ids start at `first_id`.
pub fn layer_self_ns(spans: &[Span], first_id: usize) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p >= first_id) {
            child_ns[p - first_id] += s.dur_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(child_ns) {
        let layer = s.name.split('.').next().unwrap_or(s.name);
        *out.entry(layer).or_insert(0) += s.dur_ns().saturating_sub(c);
    }
    out
}

/// Mean duration in µs of the spans named `name`; 0 when there are none.
pub fn mean_us(spans: &[Span], name: &str) -> f64 {
    let durs: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .collect();
    if durs.is_empty() {
        0.0
    } else {
        durs.iter().sum::<u64>() as f64 / durs.len() as f64 / 1e3
    }
}

/// Spans as a JSON array of `{name, start_ns, end_ns, parent}`.
pub fn to_json(spans: &[Span]) -> Json {
    Json::arr(
        spans
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("name".into(), Json::str(s.name)),
                    ("start_ns".into(), Json::U64(s.start_ns)),
                    ("end_ns".into(), Json::U64(s.end_ns)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                    ),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = vec![
            Span {
                name: "a.x",
                start_ns: 0,
                end_ns: 100,
                parent: None,
            },
            Span {
                name: "b.y",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
            },
            Span {
                name: "b.z",
                start_ns: 50,
                end_ns: 60,
                parent: Some(0),
            },
            Span {
                name: "c.w",
                start_ns: 100,
                end_ns: 130,
                parent: None,
            },
        ];
        let layers = layer_self_ns(&spans, 0);
        assert_eq!(layers["a"], 60);
        assert_eq!(layers["b"], 40);
        assert_eq!(layers["c"], 30);
        assert_eq!(top_level_ns(&spans, 0), 130);
        assert_eq!(top_level_ns(&spans[1..], 1), 70);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.time("a.x", || 7);
        assert_eq!(v, 7);
        assert_eq!(t.len(), 0);
    }
}
