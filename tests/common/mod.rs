//! Helpers shared by the integration suites.

use meshlayer::core::RunMetrics;

/// `RunMetrics` serialized with the host-dependent wall-clock fields
/// (the loop's `wall_ns` and the per-event profile's wall times) zeroed
/// — everything else must be bit-identical between runs of one spec.
pub fn metrics_fingerprint(m: &RunMetrics) -> String {
    let json = serde_json::to_string(m).expect("serializable metrics");
    let key = "\"wall_ns\":";
    let mut out = String::with_capacity(json.len());
    let mut rest = json.as_str();
    while let Some(i) = rest.find(key) {
        let after = i + key.len();
        out.push_str(&rest[..after]);
        out.push('0');
        let tail = &rest[after..];
        let end = tail
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(tail.len());
        rest = &tail[end..];
    }
    out.push_str(rest);
    out
}
