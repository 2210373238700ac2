//! In-memory spans around the benchmark's calls into each layer.
//!
//! The benchmark loop is single-threaded, so spans nest strictly: a span's
//! children never overlap one another, and a layer's self time is the
//! span's duration minus the sum of its direct children's durations.
//! Spans inside the program (per rank, per kernel) are not recorded.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The layers spans are attributed to, named after the modules the
/// benchmark calls into; `Bench` is the benchmark's own loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The benchmark loop itself (operation and set-up spans).
    Bench,
    /// `hsi_cube` scene synthesis.
    Hypercube,
    /// `hetero::seq`.
    Seq,
    /// `hetero::par` (with `framework`, `wea` and the engine under it).
    Par,
    /// `hetero::digest`.
    Digest,
    /// `hetero::kernels`.
    Kernels,
    /// `hetero::ft`.
    Ft,
    /// `simnet::Engine` and `Ctx`.
    Engine,
    /// `simnet::coll`.
    Coll,
    /// `simnet::prof` (profiled runs).
    Prof,
    /// `chaos`.
    Chaos,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 11] = [
        Layer::Bench,
        Layer::Hypercube,
        Layer::Seq,
        Layer::Par,
        Layer::Digest,
        Layer::Kernels,
        Layer::Ft,
        Layer::Engine,
        Layer::Coll,
        Layer::Prof,
        Layer::Chaos,
    ];

    /// Module-style name, used in metric names and trace categories.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Hypercube => "hypercube",
            Layer::Seq => "hetero.seq",
            Layer::Par => "hetero.par",
            Layer::Digest => "hetero.digest",
            Layer::Kernels => "hetero.kernels",
            Layer::Ft => "hetero.ft",
            Layer::Engine => "simnet.engine",
            Layer::Coll => "simnet.coll",
            Layer::Prof => "simnet.prof",
            Layer::Chaos => "chaos",
        }
    }
}

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span in recording order.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation id shared by every span of one benchmark operation.
    pub op: u64,
    /// Layer the called function belongs to.
    pub layer: Layer,
    /// What was called.
    pub name: String,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans while enabled; a disabled tracer only calls through.
#[derive(Debug)]
pub struct Tracer {
    enabled: Cell<bool>,
    origin: Instant,
    op: Cell<u64>,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A disabled tracer with an empty span list.
    pub fn new() -> Tracer {
        Tracer {
            enabled: Cell::new(false),
            origin: Instant::now(),
            op: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    /// Turns recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    /// Starts a new operation: spans opened from now on carry its id.
    pub fn next_op(&self) {
        self.op.set(self.op.get() + 1);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span of `layer` named `name`.
    pub fn span<R>(&self, layer: Layer, name: impl Into<String>, f: impl FnOnce() -> R) -> R {
        if !self.enabled.get() {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len();
            spans.push(Span {
                id,
                parent: self.stack.borrow().last().copied(),
                op: self.op.get(),
                layer,
                name: name.into(),
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            id
        };
        self.stack.borrow_mut().push(id);
        let r = f();
        self.stack.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[id].end_ns = end;
        r
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Self nanoseconds per layer: each span's duration minus its direct
/// children's durations, summed by layer.
pub fn self_ns(spans: &[Span]) -> BTreeMap<Layer, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut by_layer: BTreeMap<Layer, u64> = BTreeMap::new();
    for s in spans {
        *by_layer.entry(s.layer).or_default() += s.dur_ns() - child_ns[s.id];
    }
    by_layer
}

fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The spans as a Chrome trace-event JSON document (`chrome://tracing`,
/// Perfetto): one complete (`"X"`) event per span, with the layer as the
/// category and the span/parent/op ids as arguments.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
             \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {}, \"parent\": {}, \"op\": {}}}}}{}",
            escape(&s.name),
            s.layer.name(),
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            parent,
            s.op,
            if i + 1 < spans.len() { "," } else { "" }
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, layer: Layer, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            layer,
            name: format!("s{id}"),
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op [0,100) ⊃ par [10,60) ⊃ engine [20,50); op ⊃ digest [70,80).
        let spans = vec![
            span(0, None, Layer::Bench, 0, 100),
            span(1, Some(0), Layer::Par, 10, 60),
            span(2, Some(1), Layer::Engine, 20, 50),
            span(3, Some(0), Layer::Digest, 70, 80),
        ];
        let by = self_ns(&spans);
        assert_eq!(by[&Layer::Bench], 40);
        assert_eq!(by[&Layer::Par], 20);
        assert_eq!(by[&Layer::Engine], 30);
        assert_eq!(by[&Layer::Digest], 10);
        // Self times partition the root span exactly.
        assert_eq!(by.values().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_and_tags_operations() {
        let t = Tracer::new();
        t.span(Layer::Bench, "ignored", || ());
        assert!(t.spans().is_empty(), "disabled tracer records nothing");
        t.set_enabled(true);
        t.next_op();
        let v = t.span(Layer::Bench, "op", || t.span(Layer::Par, "par", || 7));
        assert_eq!(v, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[0].op, spans[1].op), (1, 1));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let doc = chrome_trace(&spans);
        assert!(doc.contains("\"cat\": \"hetero.par\""));
        assert!(doc.contains("\"parent\": 0"));
    }

    #[test]
    fn names_are_escaped() {
        assert_eq!(escape("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
    }
}
