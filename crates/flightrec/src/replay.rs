//! The replay side: stream a recorded log alongside a live re-run and
//! report the **first** divergent event.
//!
//! The engine feeds every live event pop into
//! [`ReplayChecker::check_event`]; the checker advances through the
//! recorded `Event` frames (skipping packet/decision/bind frames) and
//! compares sequence number, simulated time, event kind, and the
//! chained digest. Because digests chain, the first mismatch *is* the
//! first divergence — everything before it is byte-identical.
//!
//! Structural log damage (truncation, checksum failure, undecodable
//! frame) is reported through the same [`Divergence`] type, located at
//! the event where the damage interrupted checking, so "corrupted log"
//! and "non-deterministic run" surface through one code path.

use crate::log::{FrameError, LogReader};
use crate::record::{EndRecord, EventRecord, MetaInfo, Record};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufReader};
use std::path::Path;

/// How many matched events of context to keep before a divergence.
const BEFORE_CONTEXT: usize = 4;
/// How many expected/actual events to show after a divergence.
const AFTER_CONTEXT: usize = 4;

/// A located replay divergence with surrounding context.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Sequence index of the first divergent event.
    pub index: u64,
    /// Simulated time (nanoseconds) of the live event at the divergence.
    pub t_ns: u64,
    /// Human-readable cause (field mismatch, log damage, length skew).
    pub reason: String,
    /// Last matched events before the divergence (oldest first).
    pub before: Vec<EventRecord>,
    /// What the recording expected at and after the divergence point.
    pub expected: Vec<EventRecord>,
    /// What the live run actually produced at and after that point.
    pub actual: Vec<EventRecord>,
}

/// Outcome of a full replay comparison.
#[derive(Clone, Debug)]
pub struct ReplayReport {
    /// Events that matched before the run ended or diverged.
    pub checked: u64,
    /// The first divergence, if any.
    pub divergence: Option<Divergence>,
}

impl ReplayReport {
    /// `true` when the live run matched the recording exactly.
    pub fn ok(&self) -> bool {
        self.divergence.is_none()
    }

    /// Render a human-readable summary (multi-line on divergence).
    pub fn render(&self) -> String {
        let mut out = String::new();
        match &self.divergence {
            None => {
                let _ = writeln!(
                    out,
                    "replay: {} events checked, 0 divergences",
                    self.checked
                );
            }
            Some(d) => {
                let _ = writeln!(
                    out,
                    "replay: DIVERGENCE at event {} (t={:.6}s) after {} matching events",
                    d.index,
                    d.t_ns as f64 / 1e9,
                    self.checked
                );
                let _ = writeln!(out, "  cause: {}", d.reason);
                if !d.before.is_empty() {
                    let _ = writeln!(out, "  before (matched):");
                    for e in &d.before {
                        let _ = writeln!(out, "    {}", fmt_event(e));
                    }
                }
                let _ = writeln!(out, "  expected (recorded):");
                for e in &d.expected {
                    let _ = writeln!(out, "    {}", fmt_event(e));
                }
                if d.expected.is_empty() {
                    let _ = writeln!(out, "    <log exhausted>");
                }
                let _ = writeln!(out, "  actual (live):");
                for e in &d.actual {
                    let _ = writeln!(out, "    {}", fmt_event(e));
                }
                if d.actual.is_empty() {
                    let _ = writeln!(out, "    <live run ended>");
                }
            }
        }
        out
    }
}

fn fmt_event(e: &EventRecord) -> String {
    format!(
        "#{:<8} t={:<14.6} kind={:<2} digest={:016x}",
        e.seq,
        e.t_ns as f64 / 1e9,
        e.kind,
        e.digest
    )
}

enum Source {
    Live(LogReader<BufReader<File>>),
    Failed(Option<FrameError>),
    Done,
}

/// Streams a recorded log and cross-checks a live event sequence
/// against it.
pub struct ReplayChecker {
    source: Source,
    meta: MetaInfo,
    end: Option<EndRecord>,
    before: VecDeque<EventRecord>,
    divergence: Option<Divergence>,
    actual_wanted: usize,
    checked: u64,
}

impl ReplayChecker {
    /// Open a log and read its leading `Meta` frame.
    pub fn open(path: &Path) -> io::Result<ReplayChecker> {
        let mut reader = LogReader::open(path).map_err(frame_to_io)?;
        let meta = match reader.next().map_err(frame_to_io)? {
            Some((_, Record::Meta(m))) => m,
            Some((_, other)) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("log does not start with a Meta frame (found {other:?})"),
                ));
            }
            None => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "log contains no frames",
                ));
            }
        };
        Ok(ReplayChecker {
            source: Source::Live(reader),
            meta,
            end: None,
            before: VecDeque::with_capacity(BEFORE_CONTEXT + 1),
            divergence: None,
            actual_wanted: 0,
            checked: 0,
        })
    }

    /// The recorded run's identity (seed, duration, scenario, links).
    pub fn meta(&self) -> &MetaInfo {
        &self.meta
    }

    /// Advance to the next recorded `Event` frame, skipping the other
    /// stream kinds. `Ok(None)` when the log is exhausted.
    fn next_recorded_event(&mut self) -> Result<Option<EventRecord>, String> {
        loop {
            let reader = match &mut self.source {
                Source::Live(r) => r,
                Source::Failed(e) => {
                    let msg = match e.take() {
                        Some(err) => format!("recorded log unreadable: {err}"),
                        None => "recorded log unreadable".to_string(),
                    };
                    return Err(msg);
                }
                Source::Done => return Ok(None),
            };
            match reader.next() {
                Ok(Some((_, Record::Event(e)))) => return Ok(Some(e)),
                Ok(Some((_, Record::End(e)))) => {
                    self.end = Some(e);
                }
                Ok(Some(_)) => {}
                Ok(None) => {
                    self.source = Source::Done;
                    return Ok(None);
                }
                Err(err) => {
                    self.source = Source::Failed(None);
                    return Err(format!("recorded log unreadable: {err}"));
                }
            }
        }
    }

    fn diverge(
        &mut self,
        live: Option<EventRecord>,
        expected_first: Option<EventRecord>,
        reason: String,
    ) {
        let mut expected = Vec::with_capacity(AFTER_CONTEXT);
        if let Some(e) = expected_first {
            expected.push(e);
        }
        while expected.len() < AFTER_CONTEXT {
            match self.next_recorded_event() {
                Ok(Some(e)) => expected.push(e),
                _ => break,
            }
        }
        let (index, t_ns) = match (&live, expected.first()) {
            (Some(l), _) => (l.seq, l.t_ns),
            (None, Some(e)) => (e.seq, e.t_ns),
            (None, None) => (self.checked, 0),
        };
        let mut actual = Vec::with_capacity(AFTER_CONTEXT);
        if let Some(l) = live {
            actual.push(l);
        }
        self.actual_wanted = AFTER_CONTEXT.saturating_sub(actual.len());
        self.divergence = Some(Divergence {
            index,
            t_ns,
            reason,
            before: self.before.iter().copied().collect(),
            expected,
            actual,
        });
    }

    /// Feed one live event. Cheap after a divergence has been found
    /// (only collects a few events of "actual" context, then ignores).
    pub fn check_event(&mut self, live: EventRecord) {
        if let Some(d) = &mut self.divergence {
            if self.actual_wanted > 0 {
                d.actual.push(live);
                self.actual_wanted -= 1;
            }
            return;
        }
        match self.next_recorded_event() {
            Err(reason) => self.diverge(Some(live), None, reason),
            Ok(None) => {
                let reason = format!(
                    "recorded log ends after {} events but live run produced event #{}",
                    self.checked, live.seq
                );
                self.diverge(Some(live), None, reason);
            }
            Ok(Some(rec)) => {
                if rec == live {
                    self.checked += 1;
                    self.before.push_back(rec);
                    if self.before.len() > BEFORE_CONTEXT {
                        self.before.pop_front();
                    }
                } else {
                    let reason = mismatch_reason(&rec, &live);
                    self.diverge(Some(live), Some(rec), reason);
                }
            }
        }
    }

    /// Declare the live run over and produce the report.
    ///
    /// `total_events` / `final_digest` are the live run's totals; they
    /// are checked against any recorded `End` frame and against leftover
    /// recorded events the live run never produced.
    pub fn finish(mut self, total_events: u64, final_digest: u64) -> ReplayReport {
        if self.divergence.is_none() {
            match self.next_recorded_event() {
                Err(reason) => self.diverge(None, None, reason),
                Ok(Some(rec)) => {
                    let reason = format!(
                        "live run ended after {total_events} events but recording expects event #{}",
                        rec.seq
                    );
                    self.diverge(None, Some(rec), reason);
                }
                Ok(None) => {}
            }
        }
        if self.divergence.is_none() {
            match self.end {
                Some(end) => {
                    if end.events != total_events || end.digest != final_digest {
                        self.diverge(
                            None,
                            None,
                            format!(
                                "End frame mismatch: recorded events={} digest={:016x}, live events={} digest={:016x}",
                                end.events, end.digest, total_events, final_digest
                            ),
                        );
                    }
                }
                None => {
                    self.diverge(
                        None,
                        None,
                        "recording has no End frame (capture interrupted?)".to_string(),
                    );
                }
            }
        }
        ReplayReport {
            checked: self.checked,
            divergence: self.divergence,
        }
    }
}

fn mismatch_reason(rec: &EventRecord, live: &EventRecord) -> String {
    if rec.seq != live.seq {
        format!("sequence skew: recorded #{}, live #{}", rec.seq, live.seq)
    } else if rec.t_ns != live.t_ns {
        format!(
            "time mismatch at event #{}: recorded t={}ns, live t={}ns",
            rec.seq, rec.t_ns, live.t_ns
        )
    } else if rec.kind != live.kind {
        format!(
            "event-kind mismatch at event #{}: recorded kind {}, live kind {}",
            rec.seq, rec.kind, live.kind
        )
    } else {
        format!(
            "digest mismatch at event #{}: recorded {:016x}, live {:016x}",
            rec.seq, rec.digest, live.digest
        )
    }
}

fn frame_to_io(e: FrameError) -> io::Error {
    match e {
        FrameError::Io(e) => e,
        other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::LogWriter;
    use crate::record::FORMAT_VERSION;

    fn meta() -> MetaInfo {
        MetaInfo {
            format: FORMAT_VERSION,
            name: "test".into(),
            seed: 1,
            duration_ns: 1000,
            warmup_ns: 0,
            links: vec![],
        }
    }

    fn event(seq: u64) -> EventRecord {
        EventRecord {
            seq,
            t_ns: seq * 10,
            kind: (seq % 4) as u8,
            digest: seq.wrapping_mul(0x517c_c1b7_2722_0a95),
        }
    }

    fn write_log(path: &Path, n: u64, with_end: bool) {
        let mut w = LogWriter::create(path).unwrap();
        w.write(&Record::Meta(meta())).unwrap();
        for s in 0..n {
            w.write(&Record::Event(event(s))).unwrap();
        }
        if with_end {
            w.write(&Record::End(EndRecord {
                events: n,
                digest: event(n - 1).digest,
            }))
            .unwrap();
        }
        w.finish().unwrap();
    }

    #[test]
    fn identical_runs_report_clean() {
        let dir = std::env::temp_dir().join("flightrec-replay-clean");
        let path = dir.join("run.flight");
        write_log(&path, 20, true);
        let mut c = ReplayChecker::open(&path).unwrap();
        assert_eq!(c.meta().seed, 1);
        for s in 0..20 {
            c.check_event(event(s));
        }
        let report = c.finish(20, event(19).digest);
        assert!(report.ok(), "{}", report.render());
        assert_eq!(report.checked, 20);
        assert!(report.render().contains("0 divergences"));
    }

    #[test]
    fn capture_of_another_format_version_is_refused_by_version() {
        let dir = std::env::temp_dir().join("flightrec-replay-v1");
        let path = dir.join("run.flight");
        let mut w = LogWriter::create(&path).unwrap();
        w.write(&Record::Meta(MetaInfo {
            format: 1,
            ..meta()
        }))
        .unwrap();
        w.write(&Record::Event(event(0))).unwrap();
        w.finish().unwrap();
        // Refused when opened, not reported as a divergence at event 0.
        let Err(err) = ReplayChecker::open(&path) else {
            panic!("a v1 capture must not open for replay");
        };
        let want = format!("format v1, this build reads only v{FORMAT_VERSION}");
        assert!(err.to_string().contains(&want), "{err}");
        let Err(err) = crate::FlightLog::load(&path) else {
            panic!("a v1 capture must not load");
        };
        assert!(err.to_string().contains(&want), "{err}");
    }

    #[test]
    fn digest_flip_locates_first_divergence() {
        let dir = std::env::temp_dir().join("flightrec-replay-flip");
        let path = dir.join("run.flight");
        write_log(&path, 20, true);
        let mut c = ReplayChecker::open(&path).unwrap();
        for s in 0..20 {
            let mut e = event(s);
            if s >= 7 {
                e.digest ^= 1; // chained digests: everything from 7 differs
            }
            c.check_event(e);
        }
        let report = c.finish(20, event(19).digest ^ 1);
        let d = report.divergence.expect("diverges");
        assert_eq!(d.index, 7);
        assert_eq!(d.t_ns, 70);
        assert!(d.reason.contains("digest mismatch"));
        assert_eq!(d.before.len(), 4);
        assert_eq!(d.before.last().unwrap().seq, 6);
        assert!(!d.expected.is_empty());
        assert!(!d.actual.is_empty());
    }

    #[test]
    fn short_live_run_is_divergence() {
        let dir = std::env::temp_dir().join("flightrec-replay-short");
        let path = dir.join("run.flight");
        write_log(&path, 20, true);
        let mut c = ReplayChecker::open(&path).unwrap();
        for s in 0..10 {
            c.check_event(event(s));
        }
        let report = c.finish(10, event(9).digest);
        let d = report.divergence.expect("diverges");
        assert!(d.reason.contains("live run ended"), "{}", d.reason);
        assert_eq!(d.index, 10);
    }

    #[test]
    fn missing_end_frame_is_divergence() {
        let dir = std::env::temp_dir().join("flightrec-replay-noend");
        let path = dir.join("run.flight");
        write_log(&path, 5, false);
        let mut c = ReplayChecker::open(&path).unwrap();
        for s in 0..5 {
            c.check_event(event(s));
        }
        let report = c.finish(5, event(4).digest);
        let d = report.divergence.expect("diverges");
        assert!(d.reason.contains("no End frame"), "{}", d.reason);
    }
}
