//! Chrome trace-event JSON: the minimal subset Perfetto and
//! `chrome://tracing` load — an array of complete-duration (`"ph":"X"`)
//! spans plus `"ph":"M"` metadata naming processes and threads.
//!
//! Timestamps are microseconds (the format's unit) with sub-µs
//! precision kept as fractions; internally everything is nanoseconds.
//! Built on the workspace serde facade's [`Node`] data model, which is
//! the closest thing to a dynamic JSON value the vendored stack has.

use serde::Node;

/// One complete-duration span on a `(pid, tid)` track.
#[derive(Clone, Debug)]
pub struct TraceSpan {
    /// Span label (e.g. `events`).
    pub name: String,
    /// Start, nanoseconds since the profiler's epoch.
    pub ts_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
    /// Track (thread) id; the engine loop is track 0.
    pub tid: u32,
    /// Events merged into this span (0 when not applicable).
    pub events: u64,
}

/// A bounded collection of trace spans plus per-track names.
///
/// The cap bounds memory on long runs: totals in [`super::PhaseSummary`]
/// keep accumulating after the cap; only the stored spans stop.
#[derive(Clone, Debug)]
pub struct TraceBook {
    spans: Vec<TraceSpan>,
    cap: usize,
    dropped: u64,
    /// `(tid, name)` metadata rows.
    threads: Vec<(u32, String)>,
}

impl TraceBook {
    /// An empty book holding at most `cap` spans.
    pub fn new(cap: usize) -> TraceBook {
        TraceBook {
            spans: Vec::new(),
            cap,
            dropped: 0,
            threads: Vec::new(),
        }
    }

    /// Record a span (dropped and counted once the cap is reached).
    pub fn push(&mut self, span: TraceSpan) {
        if self.spans.len() < self.cap {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }

    /// Name a track.
    pub fn name_thread(&mut self, tid: u32, name: &str) {
        self.threads.push((tid, name.to_string()));
    }

    /// Stored spans.
    pub fn spans(&self) -> &[TraceSpan] {
        &self.spans
    }

    /// Spans dropped at the cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

fn obj(entries: &[(&str, Node)]) -> Node {
    Node::Map(
        entries
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    )
}

fn str_node(s: &str) -> Node {
    Node::Str(s.to_string())
}

/// Serialize one or more profiled runs as Chrome trace-event JSON.
///
/// Each `(process name, book)` pair becomes one trace process (`pid` =
/// its index), so a sweep can put every run side by side in a single
/// Perfetto view.
pub fn chrome_trace_json(parts: &[(&str, &TraceBook)]) -> String {
    let mut events: Vec<Node> = Vec::new();
    for (pid, (pname, book)) in parts.iter().enumerate() {
        let pid = Node::UInt(pid as u128);
        events.push(obj(&[
            ("name", str_node("process_name")),
            ("ph", str_node("M")),
            ("pid", pid.clone()),
            ("tid", Node::UInt(0)),
            ("args", obj(&[("name", str_node(pname))])),
        ]));
        for (tid, tname) in &book.threads {
            events.push(obj(&[
                ("name", str_node("thread_name")),
                ("ph", str_node("M")),
                ("pid", pid.clone()),
                ("tid", Node::UInt(*tid as u128)),
                ("args", obj(&[("name", str_node(tname))])),
            ]));
        }
        for s in &book.spans {
            events.push(obj(&[
                ("name", str_node(&s.name)),
                ("ph", str_node("X")),
                ("ts", Node::Float(s.ts_ns as f64 / 1e3)),
                ("dur", Node::Float(s.dur_ns as f64 / 1e3)),
                ("pid", pid.clone()),
                ("tid", Node::UInt(s.tid as u128)),
                ("args", obj(&[("events", Node::UInt(s.events as u128))])),
            ]));
        }
    }
    serde_json::to_string(&Node::Seq(events)).expect("node tree serializes")
}

fn field<'n>(obj: &'n [(String, Node)], key: &str) -> Option<&'n Node> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn is_number(n: &Node) -> bool {
    matches!(n, Node::UInt(_) | Node::Int(_) | Node::Float(_))
}

/// Validate that `json` parses as a non-empty Chrome trace: an array
/// holding at least one well-formed `"ph":"X"` span. Returns the span
/// count.
pub fn validate_chrome_trace(json: &str) -> Result<usize, String> {
    let v: Node = serde_json::from_str(json).map_err(|e| format!("not JSON: {e}"))?;
    let Node::Seq(events) = v else {
        return Err("top level is not an array".into());
    };
    let mut spans = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let Node::Map(entries) = ev else {
            return Err(format!("event {i} is not an object"));
        };
        let ph = match field(entries, "ph") {
            Some(Node::Str(s)) => s.as_str(),
            _ => return Err(format!("event {i} lacks ph")),
        };
        match ph {
            "X" => {
                for key in ["name", "ts", "dur", "pid", "tid"] {
                    if field(entries, key).is_none() {
                        return Err(format!("span {i} lacks {key:?}"));
                    }
                }
                let numeric = field(entries, "ts").is_some_and(is_number)
                    && field(entries, "dur").is_some_and(is_number);
                if !numeric {
                    return Err(format!("span {i} has non-numeric ts/dur"));
                }
                spans += 1;
            }
            "M" => {}
            other => return Err(format!("event {i} has unsupported ph {other:?}")),
        }
    }
    if spans == 0 {
        return Err("trace holds no spans".into());
    }
    Ok(spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn book() -> TraceBook {
        let mut b = TraceBook::new(10);
        b.name_thread(0, "engine");
        b.push(TraceSpan {
            name: "events".into(),
            ts_ns: 1_500,
            dur_ns: 2_000,
            tid: 0,
            events: 3,
        });
        b
    }

    #[test]
    fn emitted_trace_round_trips_through_validator() {
        let json = chrome_trace_json(&[("run a", &book()), ("run b", &book())]);
        assert_eq!(validate_chrome_trace(&json), Ok(2));
        // Timestamps land in microseconds: 1500ns start -> ts 1.5.
        assert!(json.contains("\"ts\":1.5"), "{json}");
        assert!(json.contains("\"dur\":2"), "{json}");
        assert!(json.contains("\"thread_name\""));
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate_chrome_trace("nonsense").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("[]").is_err(), "empty trace rejected");
        assert!(validate_chrome_trace(r#"[{"ph":"X","name":"x"}]"#).is_err());
        assert!(validate_chrome_trace(r#"[{"name":"x"}]"#).is_err());
        assert!(validate_chrome_trace(
            r#"[{"ph":"X","name":"x","ts":"a","dur":1,"pid":0,"tid":0}]"#
        )
        .is_err());
    }

    #[test]
    fn cap_drops_and_counts() {
        let mut b = TraceBook::new(1);
        for _ in 0..3 {
            b.push(TraceSpan {
                name: "s".into(),
                ts_ns: 0,
                dur_ns: 1,
                tid: 0,
                events: 0,
            });
        }
        assert_eq!(b.spans().len(), 1);
        assert_eq!(b.dropped(), 2);
    }
}
