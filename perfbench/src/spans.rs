//! The benchmark's own spans: one per call it makes into a layer.
//!
//! A span is named `<layer>.<call>`, has a start, an end and the span
//! that was open when it began. Spans stay in memory and are written
//! out once, at the end of the run. A layer's self time is the time
//! its spans cover minus the part their child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Handle of an open span (`None` when recording is off).
#[derive(Clone, Copy, Debug)]
pub struct Open(Option<usize>);

/// A call's result, its wall time, and the span that recorded it.
pub struct Timed<T> {
    pub value: T,
    pub secs: f64,
    pub span: Open,
}

pub struct Spans {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens `name` as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Times `call` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> Timed<T> {
        let span = self.enter(name);
        let started = Instant::now();
        let value = call();
        let secs = started.elapsed().as_secs_f64();
        self.exit(span);
        Timed { value, secs, span }
    }

    /// Adds consecutive children of the closed span `parent`, laid out
    /// from its start, for time the engine measured inside that call
    /// (e.g. recovery phases). Durations are in µs.
    pub fn engine_children(&mut self, parent: Open, parts: &[(&'static str, u64)]) {
        let Some(p) = parent.0 else { return };
        let mut at = self.spans[p].start_ns;
        for &(name, us) in parts {
            let end = (at + us * 1_000).min(self.spans[p].end_ns);
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: end,
                parent: Some(p),
            });
            at = end;
        }
    }

    /// Self time per layer (the name's prefix before the first `.`),
    /// ns. Children of one span never overlap: the benchmark makes its
    /// calls one after another.
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(child_ns) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *out.entry(layer).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(kids);
        }
        out
    }

    /// All spans as a JSON array of `{id,name,start_ns,end_ns,parent}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("]\n");
        out
    }
}
