//! The traced run's instruments: an in-memory span recorder and a
//! per-thread allocation counter.
//!
//! Spans are placed by the benchmark around each public call it makes
//! into a layer. A layer's *self time* is its span's duration minus the
//! part covered by its child spans, so the self times of every non-root
//! span plus the roots' own self time (reported as
//! `trace.unattributed_ms`) add up exactly to the summed root durations.
//!
//! A few layers keep their own timers inside a single public call (the
//! solver's propagation loop, the frontend's parse and generation halves).
//! Those are recorded as *derived* child spans ending when the call
//! returns, so they take their share out of the enclosing span's self
//! time instead of being counted twice.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator plus allocation counters that only tick on a
/// thread that switched counting on, so the untraced timing runs pay one
/// thread-local flag read per allocation and nothing else.
pub struct CountingAlloc;

fn note(bytes: usize) {
    // `try_with`: the thread-locals may already be gone while a thread
    // exits; those allocations are simply not counted.
    let on = COUNTING.try_with(Cell::get).unwrap_or(false);
    if on {
        let _ = ALLOC_BYTES.try_with(|b| b.set(b.get() + bytes as u64));
        let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters only touch const-initialized thread-locals,
// which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocation bytes and calls counted so far on this thread.
fn alloc_now() -> (u64, u64) {
    (ALLOC_BYTES.with(Cell::get), ALLOC_CALLS.with(Cell::get))
}

/// One recorded span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
    /// Allocation traffic inside the span, children included.
    alloc_bytes: u64,
    alloc_calls: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. A disabled recorder runs the same closures without
/// recording anything, which is how the traced run measures its own
/// overhead.
pub struct Trace {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
    counters: BTreeMap<&'static str, f64>,
}

impl Trace {
    /// A recording tracer; switches allocation counting on for the
    /// calling thread.
    pub fn recording() -> Trace {
        COUNTING.with(|c| c.set(true));
        Trace::new(true)
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Trace {
        Trace::new(false)
    }

    fn new(enabled: bool) -> Trace {
        Trace {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
            counters: BTreeMap::new(),
        }
    }

    /// Tag the spans that follow with a request id.
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Trace) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let (b0, c0) = alloc_now();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            request: self.request,
            alloc_bytes: 0,
            alloc_calls: 0,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        let end = self.now_ns();
        let (b1, c1) = alloc_now();
        let s = &mut self.spans[idx];
        s.end_ns = end;
        s.alloc_bytes = b1 - b0;
        s.alloc_calls = c1 - c0;
        out
    }

    /// Record a child of the open span that a layer timed itself: it ends
    /// now and lasted `dur` (clamped to the parent's elapsed time).
    pub fn derived(&mut self, name: &'static str, dur: Duration) {
        if !self.enabled {
            return;
        }
        let Some(&parent) = self.stack.last() else {
            return;
        };
        let end = self.now_ns();
        let start = end
            .saturating_sub(dur.as_nanos() as u64)
            .max(self.spans[parent].start_ns);
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: end,
            parent: Some(parent),
            request: self.request,
            alloc_bytes: 0,
            alloc_calls: 0,
        });
    }

    /// Add `v` to a named counter.
    pub fn count(&mut self, name: &'static str, v: f64) {
        if self.enabled {
            *self.counters.entry(name).or_insert(0.0) += v;
        }
    }

    /// Raise a named counter to at least `v`.
    pub fn max(&mut self, name: &'static str, v: f64) {
        if self.enabled {
            let e = self.counters.entry(name).or_insert(0.0);
            *e = e.max(v);
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Self time in milliseconds per span name, and the roots' own self
    /// time (the unattributed remainder).
    pub fn self_times_ms(&self) -> (BTreeMap<&'static str, f64>, f64) {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut by_name: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut unattributed = 0.0;
        for (i, s) in self.spans.iter().enumerate() {
            // Derived children are clamped into their parent, but several
            // can still overlap; never report negative self time.
            let own = s.dur_ns().saturating_sub(child_ns[i]) as f64 / 1e6;
            if s.parent.is_none() {
                unattributed += own;
            } else {
                *by_name.entry(s.name).or_insert(0.0) += own;
            }
        }
        (by_name, unattributed)
    }

    /// Summed duration of the root spans, in milliseconds.
    pub fn roots_ms(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.dur_ns() as f64 / 1e6)
            .sum()
    }

    /// Allocation traffic inside spans called `name` (children included;
    /// same-named spans are never nested).
    pub fn alloc_in(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(b, c), s| (b + s.alloc_bytes, c + s.alloc_calls))
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// The spans as JSON lines: name, start, end (µs), parent, request.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"request\":{}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                s.request
            );
        }
        out
    }
}
