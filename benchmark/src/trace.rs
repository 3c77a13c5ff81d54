//! Benchmark-side tracing: spans around the calls into each layer,
//! self-time computation, a Chrome trace-event writer, and a counting
//! global allocator.
//!
//! Everything here observes the program from outside: spans are marked
//! in the benchmark's own code, never inside `crates/`, and the
//! allocator only counts while a flag is set, so the untraced run pays
//! one thread-local load per allocation and nothing else.

use serde::Node;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Instant;

/// One recorded span: name, start, end (nanoseconds since the
/// recorder's epoch) and the span that was open when it began.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// In-memory span recorder. Spans nest by call structure: the parent of
/// a new span is the innermost span still open.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    last_closed: Option<usize>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            last_closed: None,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`; returns its result and the
    /// span's duration in seconds.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        self.last_closed = Some(id);
        (out, (end_ns - start_ns) as f64 / 1e9)
    }

    /// Split the span that closed last at `head_ns` after its start into
    /// two synthetic children — for a call whose inner boundary the
    /// program reports as a duration (`RunMetrics.wall_ns`) instead of a
    /// mark.
    pub fn split_last(&mut self, head: &str, tail: &str, head_ns: u64) {
        let parent = self.last_closed.expect("a span has closed");
        let (start_ns, end_ns) = (self.spans[parent].start_ns, self.spans[parent].end_ns);
        let mid_ns = (start_ns + head_ns).min(end_ns);
        for (name, s, e) in [(head, start_ns, mid_ns), (tail, mid_ns, end_ns)] {
            self.spans.push(Span {
                name: name.to_string(),
                start_ns: s,
                end_ns: e,
                parent: Some(parent),
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children may overlap each other and
/// may stick out of the parent; the covered part is the union of their
/// intervals clipped to the parent's.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                if b > reach {
                    covered += b - a.max(reach);
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Render spans as Chrome trace-event JSON (complete-duration events on
/// one track; `args` carry the span id, its parent and its self time).
pub fn chrome_trace_json(process: &str, spans: &[Span]) -> String {
    let obj = |entries: Vec<(&str, Node)>| {
        Node::Map(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    };
    let mut events = vec![obj(vec![
        ("name", Node::Str("process_name".into())),
        ("ph", Node::Str("M".into())),
        ("pid", Node::UInt(0)),
        ("tid", Node::UInt(0)),
        ("args", obj(vec![("name", Node::Str(process.into()))])),
    ])];
    let selfs = self_times_ns(spans);
    for (id, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        events.push(obj(vec![
            ("name", Node::Str(s.name.clone())),
            ("ph", Node::Str("X".into())),
            ("ts", Node::Float(s.start_ns as f64 / 1e3)),
            ("dur", Node::Float((s.end_ns - s.start_ns) as f64 / 1e3)),
            ("pid", Node::UInt(0)),
            ("tid", Node::UInt(0)),
            (
                "args",
                obj(vec![
                    ("id", Node::UInt(id as u128)),
                    (
                        "parent",
                        s.parent.map_or(Node::Null, |p| Node::UInt(p as u128)),
                    ),
                    ("self_us", Node::Float(self_ns as f64 / 1e3)),
                ]),
            ),
        ]));
    }
    serde_json::to_string(&Node::Seq(events)).expect("node tree serializes")
}

// ---------------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------------

/// What the allocator counted while counting was on.
#[derive(Clone, Copy, Debug, Default)]
pub struct AllocCounts {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`.
    pub allocs: u64,
    /// Bytes those calls asked for.
    pub bytes: u64,
    /// Highest live-byte balance any counted window reached, each window
    /// starting from zero.
    pub peak_live: u64,
}

#[derive(Clone, Copy)]
struct Tally {
    on: bool,
    counts: AllocCounts,
    live: i64,
}

thread_local! {
    // Per thread and plain `Cell`: the engine runs on the thread that
    // switches counting on, so the counts are exact and cost no atomic
    // operation. Const-initialised and without a destructor, so touching
    // it from inside the allocator neither allocates nor re-enters.
    static TALLY: Cell<Tally> = const {
        Cell::new(Tally {
            on: false,
            counts: AllocCounts { allocs: 0, bytes: 0, peak_live: 0 },
            live: 0,
        })
    };
}

/// The system allocator plus a per-thread tally that runs only while the
/// thread has counting switched on.
pub struct CountingAlloc;

fn note(grow: usize, shrink: usize) {
    // `try_with`: a thread being torn down has no tally left to update.
    let _ = TALLY.try_with(|t| {
        let mut v = t.get();
        if !v.on {
            return;
        }
        if grow > 0 {
            v.counts.allocs += 1;
            v.counts.bytes += grow as u64;
        }
        v.live += grow as i64 - shrink as i64;
        v.counts.peak_live = v.counts.peak_live.max(v.live.max(0) as u64);
        t.set(v);
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the tally touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), 0);
        // SAFETY: the caller's `layout` obligations pass through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), 0);
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, layout.size());
        // SAFETY: `ptr` was returned by this allocator, i.e. by `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size, layout.size());
        // SAFETY: `ptr`/`layout` come from this allocator, i.e. from
        // `System`; `new_size` is the caller's obligation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Count the allocations this thread makes inside `f`. Counts add up
/// across calls; the live balance starts from zero on each.
pub fn counting<T>(f: impl FnOnce() -> T) -> T {
    let switch = |on| {
        TALLY.with(|t| {
            t.set(Tally {
                on,
                live: 0,
                ..t.get()
            })
        })
    };
    switch(true);
    let out = f();
    switch(false);
    out
}

/// What this thread has counted so far.
pub fn alloc_counts() -> AllocCounts {
    TALLY.with(|t| t.get().counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100 ⊃ a 10..40 ⊃ b 20..30; only direct children count.
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 20, 30, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![70, 20, 10]);
    }

    #[test]
    fn self_time_takes_the_union_of_overlapping_children() {
        // Children 10..50 and 30..70 cover 10..70 = 60, not 80; a child
        // sticking out of the parent (90..120) counts only to 100; an
        // empty child counts nothing.
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 70, Some(0)),
            span("c", 90, 120, Some(0)),
            span("d", 80, 80, Some(0)),
            span("inside-a", 35, 45, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn scopes_nest_and_split() {
        let mut s = Spans::new();
        s.scope("outer", |s| {
            s.scope("inner", |_| ());
            s.split_last("head", "tail", 0);
        });
        let names: Vec<(&str, Option<usize>)> = s
            .spans()
            .iter()
            .map(|x| (x.name.as_str(), x.parent))
            .collect();
        assert_eq!(
            names,
            vec![
                ("outer", None),
                ("inner", Some(0)),
                ("head", Some(1)),
                ("tail", Some(1))
            ]
        );
        let inner = &s.spans()[1];
        assert_eq!(
            (s.spans()[2].start_ns, s.spans()[3].end_ns),
            (inner.start_ns, inner.end_ns)
        );
    }

    #[test]
    fn chrome_trace_passes_the_repository_validator() {
        let mut s = Spans::new();
        s.scope("workload \"x\"", |s| s.scope("run", |_| ()));
        let json = chrome_trace_json("meshbench", s.spans());
        assert_eq!(meshlayer_prof::validate_chrome_trace(&json), Ok(2));
    }

    #[test]
    fn allocator_counts_only_while_switched_on() {
        let before = alloc_counts();
        let v = counting(|| vec![0u8; 4096]);
        let after = alloc_counts();
        assert!(after.allocs > before.allocs);
        assert!(after.bytes >= before.bytes + 4096);
        drop(v);
        let idle = alloc_counts();
        drop(vec![0u8; 4096]);
        assert_eq!(alloc_counts().allocs, idle.allocs);
    }
}
