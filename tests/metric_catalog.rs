//! Every well-known metric key is documented: each `MetricKey("…")` literal
//! in the telemetry crate's key table must appear verbatim, in backticks,
//! in DESIGN.md (the metric catalog under "Observability"). A brace form
//! such as `net.peer.{relayed,hops}` does not count, and neither does a key
//! that only appears as the prefix of a longer one. The other way round,
//! every key the catalog table lists must still be a `MetricKey` literal,
//! so a row for a deleted key fails too.

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

/// The backticked key in the first column of each row of DESIGN.md's
/// metric-catalog table (the first table after "**Metric catalog**").
fn catalog_keys(design: &str) -> Vec<&str> {
    let start = design
        .find("**Metric catalog**")
        .expect("DESIGN.md has a metric catalog");
    design[start..]
        .lines()
        .skip_while(|line| !line.trim_start().starts_with('|'))
        .take_while(|line| line.trim_start().starts_with('|'))
        .filter_map(|line| {
            let first = line.trim_start()[1..].split('|').next()?.trim();
            first.strip_prefix('`')?.strip_suffix('`')
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

#[test]
fn every_catalog_row_names_a_metric_key() {
    let recorder = read("crates/telemetry/src/recorder.rs");
    let keys = metric_keys(&recorder);
    let design = read("DESIGN.md");
    let rows = catalog_keys(&design);
    let stale: Vec<&str> = rows
        .iter()
        .copied()
        .filter(|row| !keys.contains(row))
        .collect();
    assert!(
        stale.is_empty(),
        "{} of {} metric-catalog rows in DESIGN.md name no MetricKey: {stale:?}",
        stale.len(),
        rows.len()
    );
    assert_eq!(rows.len(), keys.len(), "one catalog row per metric key");
}

#[test]
fn catalog_scan_reads_the_first_column_of_the_table() {
    let design = "intro `x.y`\n- **Metric catalog**: keys.\n\n  | key | kind |\n  |---|---|\n  | `a.b` | counter |\n  | `c` | gauge `d` |\n\n  | `e` | after |\n";
    assert_eq!(catalog_keys(design), ["a.b", "c"]);
}
