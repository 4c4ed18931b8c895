//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark around each call into a
//! layer; nothing inside the program is instrumented. A disabled trace
//! records nothing, so the untraced run pays one branch per boundary.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();
static WALL_CLOCK: AtomicBool = AtomicBool::new(false);

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

/// Linux `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// On-CPU nanoseconds of the calling thread. Unlike wall time this leaves
/// out run-queue waits and, on a KVM guest with paravirtual steal-time
/// accounting, the time the host took the vCPU away.
fn thread_cpu_ns() -> u64 {
    let mut time = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `time` is a valid, writable timespec for the call.
    let status = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut time) };
    assert_eq!(status, 0, "the thread CPU clock is unavailable");
    time.sec as u64 * 1_000_000_000 + time.nsec as u64
}

/// The benchmark's clock, in nanoseconds: the calling thread's CPU time,
/// or wall time since the first call inside [`with_wall_clock`]. All
/// measured work runs inline on one thread, so its CPU time is its cost.
pub fn now_ns() -> u64 {
    if WALL_CLOCK.load(Ordering::Relaxed) {
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    } else {
        thread_cpu_ns()
    }
}

/// Runs `f` with [`now_ns`] on wall time, for sections that fan out to
/// worker threads, whose CPU time the calling thread's clock misses.
pub fn with_wall_clock<R>(f: impl FnOnce() -> R) -> R {
    WALL_CLOCK.store(true, Ordering::Relaxed);
    let result = f();
    WALL_CLOCK.store(false, Ordering::Relaxed);
    result
}

/// Measures an interval on [`now_ns`].
pub struct Stopwatch(u64);

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch(now_ns())
    }

    pub fn elapsed_ns(&self) -> u64 {
        now_ns().saturating_sub(self.0)
    }

    pub fn elapsed_s(&self) -> f64 {
        self.elapsed_ns() as f64 * 1e-9
    }
}

/// One closed span: a layer call, its interval and the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-name totals over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Sum of span durations, seconds.
    pub total_s: f64,
    /// Sum of span self times (duration minus the union of child spans).
    pub self_s: f64,
    /// Spans recorded.
    pub count: u64,
}

/// A span log; `Trace::off()` records nothing.
#[derive(Debug, Default)]
pub struct Trace {
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    pub fn new(on: bool) -> Self {
        Trace {
            on,
            ..Trace::default()
        }
    }

    pub fn off() -> Self {
        Trace::new(false)
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let index = self.open.pop().expect("exit without a matching enter");
        self.spans[index].end_ns = now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let result = f();
        self.exit();
        result
    }

    /// Adds already-closed spans (recorded on other threads) as children of
    /// the innermost open span.
    pub fn add_children(&mut self, name: &'static str, intervals: Vec<(u64, u64)>) {
        if !self.on {
            return;
        }
        let parent = self.open.last().copied();
        self.spans
            .extend(intervals.into_iter().map(|(start_ns, end_ns)| Span {
                name,
                parent,
                start_ns,
                end_ns,
            }));
    }

    /// Totals and self times per span name.
    pub fn summary(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (span, kids) in self.spans.iter().zip(children) {
            let duration = span.end_ns.saturating_sub(span.start_ns);
            let covered = union_within(kids, span.start_ns, span.end_ns);
            let entry = out.entry(span.name).or_default();
            entry.total_s += duration as f64 * 1e-9;
            entry.self_s += duration.saturating_sub(covered) as f64 * 1e-9;
            entry.count += 1;
        }
        out
    }

    /// Per-name totals as JSON lines (`layer`, `count`, `total_s`, `self_s`).
    pub fn summary_jsonl(&self, run: usize) -> String {
        let mut out = String::new();
        for (name, t) in self.summary() {
            let _ = writeln!(
                out,
                "{{\"run\":{run},\"layer\":\"{name}\",\"count\":{},\"total_s\":{:?},\"self_s\":{:?}}}",
                t.count, t.total_s, t.self_s
            );
        }
        out
    }

    /// The spans as JSON lines (`name`, `id`, `parent`, `start_ns`, `end_ns`).
    pub fn to_jsonl(&self, run: usize) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"run\":{run},\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                span.name, span.start_ns, span.end_ns
            );
        }
        out
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_within(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (start, end) in intervals {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_overlapping_children_once() {
        let mut trace = Trace::new(true);
        trace.spans = vec![
            Span {
                name: "pump",
                parent: None,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                name: "ml",
                parent: Some(0),
                start_ns: 10,
                end_ns: 50,
            },
            Span {
                name: "ml",
                parent: Some(0),
                start_ns: 30,
                end_ns: 70,
            },
        ];
        let summary = trace.summary();
        assert!((summary["pump"].self_s - 40e-9).abs() < 1e-15);
        assert!((summary["ml"].total_s - 80e-9).abs() < 1e-15);
        assert_eq!(summary["ml"].count, 2);
    }

    #[test]
    fn the_thread_clock_leaves_out_sleep() {
        let cpu = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(cpu.elapsed_s() < 0.025, "sleep counted as CPU time");
        let wall = with_wall_clock(|| {
            let wall = Stopwatch::start();
            std::thread::sleep(std::time::Duration::from_millis(50));
            wall.elapsed_s()
        });
        assert!(wall >= 0.05);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut trace = Trace::off();
        assert_eq!(trace.span("x", || 7), 7);
        trace.add_children("y", vec![(0, 1)]);
        assert!(trace.summary().is_empty());
    }
}
