//! Every well-known metric key is documented: each `MetricKey("…")` literal
//! in the telemetry crate's key table must appear verbatim, in backticks,
//! in DESIGN.md (the metric catalog under "Observability"). A brace form
//! such as `net.peer.{relayed,hops}` does not count, and neither does a key
//! that only appears as the prefix of a longer one.

use std::fs;
use std::path::PathBuf;

fn read(relative: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(relative);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// The string literals of every `MetricKey("…")` in `source`.
fn metric_keys(source: &str) -> Vec<&str> {
    const OPEN: &str = "MetricKey(\"";
    source
        .match_indices(OPEN)
        .map(|(at, _)| {
            let rest = &source[at + OPEN.len()..];
            &rest[..rest.find('"').expect("unterminated key literal")]
        })
        .collect()
}

#[test]
fn every_metric_key_is_documented_in_design_md() {
    let recorder = read("crates/telemetry/src/recorder.rs");
    let keys = metric_keys(&recorder);
    assert!(
        keys.len() >= 60,
        "found only {} keys; did the key table move?",
        keys.len()
    );
    let design = read("DESIGN.md");
    let missing: Vec<&str> = keys
        .iter()
        .copied()
        .filter(|key| !design.contains(&format!("`{key}`")))
        .collect();
    assert!(
        missing.is_empty(),
        "{} of {} metric keys are not documented in DESIGN.md: {missing:?}",
        missing.len(),
        keys.len()
    );
}

#[test]
fn key_scan_reads_every_literal() {
    let source = r#"pub struct MetricKey(pub &'static str);
        const A: MetricKey = MetricKey("net.peer.hops"); const B: MetricKey = MetricKey("a.b");"#;
    assert_eq!(metric_keys(source), ["net.peer.hops", "a.b"]);
}
