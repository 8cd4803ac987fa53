//! In-memory span recorder. Spans are taken by the benchmark around
//! calls into each layer's public functions, kept in a `Vec`, and
//! written out once at exit. When the tracer is off, `enter`/`exit` do
//! nothing — not even read the clock — so the untraced body is what the
//! end-to-end metrics time.

use crate::json::Json;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Repetition the span belongs to; spans of one repetition share it.
    pub rep: u32,
}

/// Handle returned by [`Tracer::enter`]; `None` when tracing is off.
#[must_use = "pass the handle to Tracer::exit"]
pub struct Open(Option<u32>);

pub struct Tracer {
    on: bool,
    origin: Instant,
    rep: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: false,
            origin: Instant::now(),
            rep: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Start the next repetition, recording it or not.
    pub fn begin_rep(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "span left open across repetitions");
        self.on = on;
        self.rep += 1;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    #[inline]
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied();
        self.stack.push(id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            rep: self.rep,
        });
        Open(Some(id))
    }

    #[inline]
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let end_ns = self.now_ns();
        self.spans[id as usize].end_ns = end_ns;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
    }

    /// Time `f` as one span.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let r = f();
        self.exit(open);
        r
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Measured cost of recording one span, in ns: the recorder's whole
    /// effect on a traced body is this times the spans it records.
    pub fn calibrate_ns_per_span() -> f64 {
        const SPANS: usize = 100_000;
        let mut scratch = Tracer::new();
        scratch.begin_rep(true);
        let t0 = Instant::now();
        for _ in 0..SPANS {
            let open = scratch.enter("calibrate");
            scratch.exit(open);
        }
        t0.elapsed().as_nanos() as f64 / SPANS as f64
    }

    /// Duration (ns) of every span called `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Per repetition, the summed self time of the spans called `name`:
    /// each span's duration minus what its direct children cover.
    pub fn self_ns_per_rep(&self, name: &str) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut per_rep: Vec<(u32, u64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name != name {
                continue;
            }
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            match per_rep.last_mut() {
                Some((rep, sum)) if *rep == s.rep => *sum += own,
                _ => per_rep.push((s.rep, own)),
            }
        }
        per_rep.into_iter().map(|(_, ns)| ns as f64).collect()
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::Obj(vec![
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Int(s.start_ns)),
                        ("end_ns", Json::Int(s.end_ns)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
                        ),
                        ("rep", Json::Int(s.rep as u64)),
                    ])
                })
                .collect(),
        )
    }
}
