//! Wall-clock phase timers for the event engines.
//!
//! The sharded engine runs windows of two phases — a parallel *drain*
//! (per-LP calendar maintenance on worker lanes), a *barrier* (the
//! committer waiting for the last drain), then a sequenced *commit*
//! (handlers in global order). The profiler timestamps each phase per
//! window against a single epoch, accumulates per-lane busy time, and
//! fits Amdahl's law to the measured phase totals: the commit phase is
//! the serial fraction; the drains are the parallelizable work.
//!
//! The sequential engine is profiled as pure commit: per-event handler
//! times (already measured by the loop) aggregate into ~1 ms trace
//! slices, so a 1-thread trace stays small and loadable.
//!
//! Everything here is wall-clock measurement of *host* behaviour:
//! enabling profiling never reads or writes simulation state.

use crate::trace::{TraceBook, TraceSpan};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Stored-span cap per profiled run (totals keep accumulating past it).
const TRACE_CAP: usize = 50_000;

/// Sequential-engine slice width: per-event times merge into spans of
/// roughly this wall-clock length.
const SEQ_SLICE_NS: u64 = 1_000_000;

/// Aggregated phase totals of one (or several merged) profiled runs.
///
/// All raw fields are sums in nanoseconds; the derived fields
/// (`serial_fraction` onward) are recomputed from the sums by
/// [`PhaseSummary::recompute`]. Serialized into `BENCH_engine.json`
/// scaling rows (schema version bumps when this struct changes).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct PhaseSummary {
    /// `sequential` or `sharded`.
    pub engine: String,
    /// Engine worker threads (committer included).
    pub threads: usize,
    /// Lookahead windows executed (0 for the sequential engine).
    pub windows: u64,
    /// Events committed while profiled.
    pub events: u64,
    /// Event-loop wall clock, nanoseconds.
    pub wall_ns: u64,
    /// Conservative lookahead of the profiled runs, nanoseconds.
    pub lookahead_ns: u64,
    /// Total drain-phase wall (committer lane: dispatch + own drains).
    pub drain_ns: u64,
    /// Total barrier wall: committer waiting on outstanding drains.
    pub barrier_ns: u64,
    /// Total commit-phase wall: handlers in global order (sequenced).
    pub commit_ns: u64,
    /// Busy nanoseconds per drain lane: index 0 is the committer's own
    /// drain work, 1.. are the spawned drain workers.
    pub lane_busy_ns: Vec<u64>,
    /// Max/mean busy across lanes that did any work (1.0 = balanced).
    pub imbalance: f64,
    /// Events committed per window — the window efficiency: how much
    /// sequenced work each lookahead span amortizes per barrier.
    pub avg_events_per_window: f64,
    /// Measured serial fraction: sequenced commit wall over estimated
    /// 1-thread work (commit + all drain busy).
    pub serial_fraction: f64,
    /// Amdahl ceiling `1/s`: the speedup bound no thread count beats.
    pub amdahl_ceiling: f64,
    /// Amdahl-predicted speedup at `threads`.
    pub predicted_speedup: f64,
    /// Trace spans stored (post-cap).
    pub trace_spans: u64,
    /// Trace spans dropped at the cap.
    pub trace_dropped: u64,
}

impl PhaseSummary {
    /// Recompute the derived fields from the raw sums.
    pub fn recompute(&mut self) {
        let parallel_work: u64 = self.lane_busy_ns.iter().sum();
        let t1_est = self.commit_ns + parallel_work;
        self.serial_fraction = if t1_est == 0 {
            1.0
        } else {
            (self.commit_ns as f64 / t1_est as f64).clamp(1e-6, 1.0)
        };
        self.amdahl_ceiling = 1.0 / self.serial_fraction;
        let n = self.threads.max(1) as f64;
        self.predicted_speedup = 1.0 / (self.serial_fraction + (1.0 - self.serial_fraction) / n);
        self.avg_events_per_window = if self.windows == 0 {
            0.0
        } else {
            self.events as f64 / self.windows as f64
        };
        let busy: Vec<u64> = self
            .lane_busy_ns
            .iter()
            .copied()
            .filter(|&b| b > 0)
            .collect();
        self.imbalance = if busy.len() < 2 {
            1.0
        } else {
            let max = *busy.iter().max().expect("non-empty") as f64;
            let mean = busy.iter().sum::<u64>() as f64 / busy.len() as f64;
            max / mean.max(1.0)
        };
    }

    /// Fold another summary of the *same shape* (engine + threads) into
    /// this one — used to aggregate a sweep's runs at one thread count.
    pub fn merge(&mut self, other: &PhaseSummary) {
        debug_assert_eq!(self.threads, other.threads, "merge across thread counts");
        self.windows += other.windows;
        self.events += other.events;
        self.wall_ns += other.wall_ns;
        self.lookahead_ns = self.lookahead_ns.max(other.lookahead_ns);
        self.drain_ns += other.drain_ns;
        self.barrier_ns += other.barrier_ns;
        self.commit_ns += other.commit_ns;
        if self.lane_busy_ns.len() < other.lane_busy_ns.len() {
            self.lane_busy_ns.resize(other.lane_busy_ns.len(), 0);
        }
        for (a, b) in self.lane_busy_ns.iter_mut().zip(&other.lane_busy_ns) {
            *a += b;
        }
        self.trace_spans += other.trace_spans;
        self.trace_dropped += other.trace_dropped;
        self.recompute();
    }

    /// Human-readable phase summary (the serial-fraction report).
    pub fn render(&self) -> String {
        let ms = |ns: u64| ns as f64 / 1e6;
        let phase_total = (self.drain_ns + self.barrier_ns + self.commit_ns).max(1);
        let pct = |ns: u64| ns as f64 / phase_total as f64 * 100.0;
        let mut out = String::new();
        out.push_str(&format!(
            "profile: {} engine, {} threads, {} events, {:.1}ms loop wall\n",
            self.engine,
            self.threads,
            self.events,
            ms(self.wall_ns)
        ));
        if self.engine == "sharded" {
            out.push_str(&format!(
                "  windows: {} ({:.1} events/window, lookahead {:.0}us)\n",
                self.windows,
                self.avg_events_per_window,
                self.lookahead_ns as f64 / 1e3
            ));
            out.push_str(&format!(
                "  phases: drain {:.1}ms ({:.0}%) | barrier {:.1}ms ({:.0}%) | commit {:.1}ms ({:.0}%)\n",
                ms(self.drain_ns),
                pct(self.drain_ns),
                ms(self.barrier_ns),
                pct(self.barrier_ns),
                ms(self.commit_ns),
                pct(self.commit_ns)
            ));
            let lanes: Vec<String> = self
                .lane_busy_ns
                .iter()
                .enumerate()
                .map(|(i, &b)| {
                    if i == 0 {
                        format!("committer {:.1}ms", ms(b))
                    } else {
                        format!("w{i} {:.1}ms", ms(b))
                    }
                })
                .collect();
            out.push_str(&format!(
                "  drain lanes: {} (imbalance {:.2}x)\n",
                lanes.join(", "),
                self.imbalance
            ));
        }
        out.push_str(&format!(
            "  serial fraction {:.2} -> Amdahl ceiling {:.2}x, predicted {:.2}x @ {} threads\n",
            self.serial_fraction, self.amdahl_ceiling, self.predicted_speedup, self.threads
        ));
        out
    }
}

/// The result of one profiled run: the summary plus the span book.
#[derive(Clone, Debug)]
pub struct ProfileReport {
    /// Aggregated phase totals.
    pub summary: PhaseSummary,
    /// Bounded trace spans for Chrome trace-event export.
    pub trace: TraceBook,
}

impl ProfileReport {
    /// Render the phase summary.
    pub fn render(&self) -> String {
        self.summary.render()
    }
}

/// Live wall-clock profiler one engine run feeds (see module docs).
#[derive(Debug)]
pub struct PhaseProfiler {
    epoch: Instant,
    engine: &'static str,
    threads: usize,
    lookahead_ns: u64,
    windows: u64,
    events: u64,
    drain_ns: u64,
    barrier_ns: u64,
    commit_ns: u64,
    lane_busy_ns: Vec<u64>,
    /// Open sequential slice: (start_ns, busy_ns, events).
    slice: Option<(u64, u64, u64)>,
    /// End of the last interval the sequential loop reported.
    seq_reported_ns: u64,
    trace: TraceBook,
}

impl PhaseProfiler {
    /// Profiler for the sequential loop.
    pub fn sequential() -> PhaseProfiler {
        let mut trace = TraceBook::new(TRACE_CAP);
        trace.name_thread(0, "engine (sequential)");
        PhaseProfiler {
            epoch: Instant::now(),
            engine: "sequential",
            threads: 1,
            lookahead_ns: 0,
            windows: 0,
            events: 0,
            drain_ns: 0,
            barrier_ns: 0,
            commit_ns: 0,
            lane_busy_ns: Vec::new(),
            slice: None,
            seq_reported_ns: 0,
            trace,
        }
    }

    /// Profiler for the sharded engine: `threads` total lanes
    /// (committer + `threads - 1` drain workers).
    pub fn sharded(threads: usize, lookahead_ns: u64) -> PhaseProfiler {
        let mut trace = TraceBook::new(TRACE_CAP);
        trace.name_thread(0, "committer");
        for w in 1..threads {
            trace.name_thread(w as u32, &format!("drain-worker-{w}"));
        }
        PhaseProfiler {
            epoch: Instant::now(),
            engine: "sharded",
            threads: threads.max(1),
            lookahead_ns,
            windows: 0,
            events: 0,
            drain_ns: 0,
            barrier_ns: 0,
            commit_ns: 0,
            lane_busy_ns: vec![0; threads.max(1)],
            slice: None,
            seq_reported_ns: 0,
            trace,
        }
    }

    /// The instant all span timestamps are measured against.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Sequential loop: `events` more events ran since the previous call
    /// (or the epoch), ending at `now`. The loop reports at its timed
    /// events only, so the whole interval — pops, handlers, untimed
    /// events — lands in the open slice, which flushes a trace span per
    /// ~1 ms of wall clock.
    #[inline]
    pub fn on_seq_events(&mut self, now: Instant, events: u64) {
        let now_ns = self.ns(now);
        let spent_ns = now_ns.saturating_sub(self.seq_reported_ns);
        self.seq_reported_ns = now_ns;
        self.events += events;
        self.commit_ns += spent_ns;
        let (start, busy, evs) = self
            .slice
            .get_or_insert((now_ns.saturating_sub(spent_ns), 0, 0));
        *busy += spent_ns;
        *evs += events;
        if now_ns.saturating_sub(*start) >= SEQ_SLICE_NS {
            let span = TraceSpan {
                name: "events".into(),
                ts_ns: *start,
                dur_ns: now_ns - *start,
                tid: 0,
                events: *evs,
            };
            self.trace.push(span);
            self.slice = None;
        }
    }

    /// Sharded committer: one finished window's phase boundaries.
    pub fn on_window(
        &mut self,
        t0: Instant,
        drain_end: Instant,
        collect_end: Instant,
        commit_end: Instant,
        events: u64,
    ) {
        self.windows += 1;
        self.events += events;
        let (a, b, c, d) = (
            self.ns(t0),
            self.ns(drain_end),
            self.ns(collect_end),
            self.ns(commit_end),
        );
        let drain = b.saturating_sub(a);
        let barrier = c.saturating_sub(b);
        let commit = d.saturating_sub(c);
        self.drain_ns += drain;
        self.barrier_ns += barrier;
        self.commit_ns += commit;
        self.lane_busy_ns[0] += drain;
        for (name, ts, dur, evs) in [
            ("drain", a, drain, 0),
            ("barrier", b, barrier, 0),
            ("commit", c, commit, events),
        ] {
            if dur > 0 {
                self.trace.push(TraceSpan {
                    name: name.into(),
                    ts_ns: ts,
                    dur_ns: dur,
                    tid: 0,
                    events: evs,
                });
            }
        }
    }

    /// Sharded drain worker `worker` (1-based lane) drained LP `lp`.
    pub fn on_worker_drain(&mut self, worker: u32, lp: usize, start_ns: u64, dur_ns: u64) {
        if let Some(b) = self.lane_busy_ns.get_mut(worker as usize) {
            *b += dur_ns;
        }
        self.trace.push(TraceSpan {
            name: format!("drain lp{lp}"),
            ts_ns: start_ns,
            dur_ns,
            tid: worker,
            events: 0,
        });
    }

    /// Close the run: flush the open slice and derive the summary.
    pub fn finish(mut self, wall_ns: u64) -> ProfileReport {
        if let Some((start, busy, evs)) = self.slice.take() {
            self.trace.push(TraceSpan {
                name: "events".into(),
                ts_ns: start,
                dur_ns: busy,
                tid: 0,
                events: evs,
            });
        }
        let mut summary = PhaseSummary {
            engine: self.engine.to_string(),
            threads: self.threads,
            windows: self.windows,
            events: self.events,
            wall_ns,
            lookahead_ns: self.lookahead_ns,
            drain_ns: self.drain_ns,
            barrier_ns: self.barrier_ns,
            commit_ns: self.commit_ns,
            lane_busy_ns: self.lane_busy_ns,
            trace_spans: self.trace.spans().len() as u64,
            trace_dropped: self.trace.dropped(),
            ..PhaseSummary::default()
        };
        summary.recompute();
        ProfileReport {
            summary,
            trace: self.trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_profile_is_pure_commit() {
        let mut p = PhaseProfiler::sequential();
        // Five reports 1 us apart, 16 events each.
        for i in 1..=5 {
            let now = p.epoch() + std::time::Duration::from_micros(i);
            p.on_seq_events(now, 16);
        }
        let r = p.finish(50_000);
        assert_eq!(r.summary.events, 80);
        assert_eq!(r.summary.commit_ns, 5_000);
        assert_eq!(r.summary.serial_fraction, 1.0);
        assert_eq!(r.summary.amdahl_ceiling, 1.0);
        assert!(!r.trace.spans().is_empty(), "flushed slice span");
    }

    #[test]
    fn sharded_phases_accumulate_and_fit_amdahl() {
        let mut p = PhaseProfiler::sharded(4, 50_000);
        let e = p.epoch();
        let us = |n: u64| e + std::time::Duration::from_micros(n);
        // Window: 30us drain, 10us barrier, 60us commit, 12 events.
        p.on_window(us(0), us(30), us(40), us(100), 12);
        p.on_worker_drain(1, 3, 0, 25_000);
        p.on_worker_drain(2, 5, 0, 35_000);
        let r = p.finish(100_000);
        let s = &r.summary;
        assert_eq!(s.windows, 1);
        assert_eq!(s.events, 12);
        assert_eq!(
            (s.drain_ns, s.barrier_ns, s.commit_ns),
            (30_000, 10_000, 60_000)
        );
        // T1 = commit + lane busy (30 + 25 + 35) = 150us; f = 0.4.
        assert!(
            (s.serial_fraction - 0.4).abs() < 1e-9,
            "{}",
            s.serial_fraction
        );
        assert!((s.amdahl_ceiling - 2.5).abs() < 1e-9);
        assert!(s.predicted_speedup > 1.0 && s.predicted_speedup < 2.5);
        assert!(s.imbalance >= 1.0);
        assert_eq!(s.avg_events_per_window, 12.0);
        assert!(r.render().contains("serial fraction"));
    }

    #[test]
    fn merge_sums_and_recomputes() {
        let mk = || {
            let mut p = PhaseProfiler::sharded(2, 10_000);
            let e = p.epoch();
            p.on_window(
                e,
                e + std::time::Duration::from_micros(10),
                e + std::time::Duration::from_micros(12),
                e + std::time::Duration::from_micros(30),
                4,
            );
            p.finish(30_000).summary
        };
        let mut a = mk();
        a.merge(&mk());
        assert_eq!(a.windows, 2);
        assert_eq!(a.events, 8);
        assert_eq!(a.wall_ns, 60_000);
        assert!(a.serial_fraction > 0.0);
    }
}
