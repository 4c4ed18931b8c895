//! The repository benchmark: advertisement-to-occupancy-answer workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload office_e2e --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. `--trace 0` measures the end-to-end
//! metrics; `--trace 1` alternates untraced and traced iterations and
//! prints the per-layer metrics, writing span totals and the first traced
//! iteration's spans to `$CARGO_TARGET_DIR/perfbench/` (default
//! `.bench_build`). The end-to-end times are scaled to a fixed host speed
//! (see `calib`); the per-layer times are not. The last line of standard
//! output is one JSON object; a failed correctness gate exits 1.

mod calib;
mod history;
mod office;
mod server;
mod spec;
mod stats;
mod surge;
mod trace;
mod workload;

use calib::Calibration;
use office::Office;
use roomsense_net::ObservationReport;
use roomsense_sim::exec;
use stats::{median, Metrics};
use std::collections::BTreeMap;
use std::process::exit;
use std::time::{Duration, Instant};
use trace::{Stopwatch, Trace};
use workload::{IterStats, RunStats};

pub type Report = ObservationReport;

/// Workload names, as `BENCHMARK.json` declares them.
pub const WORKLOADS: [&str; 3] = ["office_e2e", "surge_ingest", "history_reads"];
/// Set-up runs per benchmark run, at least and at most; `setup_s` is their
/// median. Between the two, set-up repeats until it has taken
/// `SETUP_BUDGET_S` in all, so a cheap set-up is timed more often.
const SETUP_REPEATS: (usize, usize) = (3, 40);
const SETUP_BUDGET_S: f64 = 1.0;
/// Untraced timed iterations at least, even past `--seconds`.
const MIN_ITERATIONS: usize = 3;
/// Traced (and interleaved untraced) iterations at least.
const MIN_TRACED: usize = 2;
/// Fleet repetitions behind `core.fleet.wall_s`.
const FLEET_REPEATS: usize = 3;

/// Worker threads of the extra traced iteration that shows the thread
/// fan-out; every other measurement runs on one worker thread.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Reports a failed correctness gate and ends the run as failed.
pub fn fail(message: &str) -> ! {
    eprintln!("perfbench: correctness gate failed: {message}");
    exit(1);
}

/// A preset's MAE ceiling at this crowd's size. The ceilings are absolute
/// per-room headcount errors declared for the preset's canonical crowd;
/// the same relative error in a crowd k times larger is k times the count.
pub fn scaled_bound(bound: f64, scenario: &roomsense::crowd::CrowdScenario) -> f64 {
    bound * scenario.subjects() as f64 / scenario.preset.default_subjects() as f64
}

/// One workload's measured behaviour.
pub trait Workload {
    /// A hash of every input the workload generated from its seed.
    fn input_hash(&self) -> u64;
    /// Switches classification spans on or off.
    fn set_tracing(&self, on: bool);
    /// One measured iteration (or closed-loop segment).
    fn iterate(&mut self, trace: &mut Trace) -> IterStats;
    /// The warm-up iteration, checked against the workload's oracles.
    fn reference(&mut self) -> IterStats;
    /// The preset's count-MAE ceiling, when the workload has one.
    fn mae_bound(&self) -> Option<f64> {
        None
    }
    /// True when iterations are closed-loop segments, each with its own
    /// simulated outcomes; false when every iteration replays the same input.
    fn closed_loop(&self) -> bool {
        false
    }
    /// Final checks after the timed phase; returns reports ingested while
    /// draining what the last iteration left queued.
    fn finish(&mut self) -> u64 {
        0
    }
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Generates one workload's inputs from `seed` and builds its system.
fn build(workload: &str, seed: u64, trace: &mut Trace) -> Box<dyn Workload> {
    match workload {
        "office_e2e" => Box::new(Office::setup(seed, trace)),
        "surge_ingest" => Box::new(surge::Surge::setup(seed)),
        _ => Box::new(history::History::setup(seed)),
    }
}

/// Builds the workload `SETUP_REPEATS` times; returns it, the set-up
/// times at the reference host speed, and the SVM fit times seen during
/// set-up.
fn setup(args: &Args, calibration: &mut Calibration) -> (Box<dyn Workload>, Vec<f64>, Vec<f64>) {
    let mut before_s = calibration.kernel_s();
    let mut setup_s: Vec<f64> = Vec::new();
    let mut fit_s = Vec::new();
    let mut built = None;
    let (min, max) = SETUP_REPEATS;
    while setup_s.len() < min
        || (setup_s.len() < max && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        // Only one built workload is alive at a time.
        drop(built.take());
        let mut trace = Trace::new(true);
        let start = Stopwatch::start();
        let workload = build(&args.workload, args.seed, &mut trace);
        let elapsed_s = start.elapsed_s();
        let after_s = calibration.kernel_s();
        setup_s.push(elapsed_s * calib::scale(before_s, after_s));
        before_s = after_s;
        if let Some(fit) = trace.summary().get("ml.fit") {
            fit_s.push(fit.total_s);
        }
        built = Some(workload);
    }
    (built.expect("at least one set-up"), setup_s, fit_s)
}

/// Phone-layer figures of a traced run.
#[derive(Debug, Default)]
struct Probe {
    radio_s: f64,
    stack_s: f64,
    signal_s: f64,
    receptions: u64,
    samples: u64,
    cycles: u64,
    fleet_s: f64,
    fleet_nproc_s: f64,
    growth_events: u64,
    fit_s: f64,
}

impl Probe {
    fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        m.push("radio.wall_s", self.radio_s, "s");
        m.push("radio.receptions", self.receptions as f64, "count");
        m.push("stack.wall_s", self.stack_s, "s");
        m.push("stack.cycles", self.cycles as f64, "count");
        m.push(
            "stack.kept_ratio",
            self.samples as f64 / self.receptions.max(1) as f64,
            "ratio",
        );
        m.push("signal.wall_s", self.signal_s, "s");
        m.push("signal.cycles", self.cycles as f64, "count");
        m.push("core.fleet.wall_s", self.fleet_s, "s");
        m.push("core.fleet.wall_s_nproc", self.fleet_nproc_s, "s");
        m.push(
            "core.fleet.growth_events",
            self.growth_events as f64,
            "count",
        );
        m.push("ml.fit_s", self.fit_s, "s");
        m
    }
}

/// Phone-layer figures every traced run reports, measured on the office
/// fleet of the same seed: the layer-by-layer decomposition (checked bit
/// for bit against the batched fleet) and the fleet on one and on `nproc`
/// threads.
fn phone_probe(seed: u64, fit_s: &[f64], spans: &mut Vec<Trace>) -> Probe {
    let mut setup_trace = Trace::new(true);
    let office = Office::setup(seed, &mut setup_trace);
    let fit_s = if fit_s.is_empty() {
        setup_trace
            .summary()
            .get("ml.fit")
            .map_or(0.0, |t| t.total_s)
    } else {
        median(fit_s)
    };
    let fleet = office.fleet();
    let mut trace = Trace::new(true);
    let (receptions, samples, cycles, identical) = office.decompose(&fleet, &mut trace);
    if !identical {
        fail("office_e2e: the layer-by-layer pipeline differs from run_fleet_batched");
    }
    let layers = trace.summary();
    spans.push(trace);
    let self_s = |name: &str| layers.get(name).map_or(0.0, |t| t.self_s);
    let (fleet_s, fleet_nproc_s, growth_events) = office.fleet_costs(FLEET_REPEATS);
    Probe {
        radio_s: self_s("radio"),
        stack_s: self_s("stack"),
        signal_s: self_s("signal"),
        receptions,
        samples,
        cycles,
        fleet_s,
        fleet_nproc_s,
        growth_events,
        fit_s,
    }
}

fn measure(args: &Args) -> (RunStats, Probe) {
    let mut calibration = Calibration::new();
    let (mut workload, setup_s, fit_s) = setup(args, &mut calibration);
    eprintln!(
        "perfbench: {} seed {} input hash {:016x}",
        args.workload,
        args.seed,
        workload.input_hash()
    );
    let mut run = RunStats {
        setup_s,
        reference: workload.reference(),
        ..RunStats::default()
    };
    // peak_rss_mb covers the timed phase, not set-up or the oracles.
    workload::reset_peak_rss();
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut spans: Vec<Trace> = Vec::new();
    let more = |n: usize, min: usize| n < min || start.elapsed() < budget;
    let mut kernel_s = vec![];
    if !args.trace {
        kernel_s.push(calibration.kernel_s());
        while more(run.timed.len(), MIN_ITERATIONS) {
            let mut stats = workload.iterate(&mut Trace::off());
            kernel_s.push(calibration.kernel_s());
            let n = kernel_s.len();
            stats.scale = calib::scale(kernel_s[n - 2], kernel_s[n - 1]);
            if !workload.closed_loop() {
                // A replayed iteration's simulated outcomes equal the
                // reference's (its final state digest is checked), so only
                // the reference keeps them, and memory stays flat.
                stats.drop_samples();
            }
            run.timed.push(stats);
        }
    } else {
        while more(run.traced.len(), MIN_TRACED) {
            run.timed.push(workload.iterate(&mut Trace::off()));
            workload.set_tracing(true);
            let mut trace = Trace::new(true);
            run.traced.push(workload.iterate(&mut trace));
            spans.push(trace);
            workload.set_tracing(false);
        }
        workload.set_tracing(true);
        let mut trace = Trace::new(true);
        run.all_threads = Some(trace::with_wall_clock(|| {
            exec::with_thread_override(nproc(), || workload.iterate(&mut trace))
        }));
        spans.push(trace);
        workload.set_tracing(false);
    }
    let times: Vec<String> = run
        .timed
        .iter()
        .map(|it| format!("{:.3}", it.cpu_s))
        .collect();
    eprintln!(
        "perfbench: untraced iteration CPU times (s): {}",
        times.join(" ")
    );
    if !kernel_s.is_empty() {
        eprintln!(
            "perfbench: calibration kernel median {:.3} ms (reference {:.3} ms)",
            median(&kernel_s) * 1e3,
            calib::REFERENCE_S * 1e3
        );
    }
    let queries: u64 = run.timed.iter().map(|it| it.queries.count()).sum();
    let requests: usize = run.timed.iter().map(|it| it.queries.request_ns.len()).sum();
    eprintln!(
        "perfbench: {queries} query latency samples behind query_p50_us, \
         {requests} request latency samples behind request_p90_us"
    );
    run.peak_rss_mb = workload::peak_rss_mb() - Calibration::buffer_mb();
    run.drained = workload.finish();
    let pooled = std::iter::once(&run.reference).chain(&run.timed);
    let (mae_sum, mae_n) = pooled.fold((0.0, 0), |(s, n), it| (s + it.mae_sum, n + it.mae_n));
    if let Some(bound) = workload.mae_bound() {
        let mae = mae_sum / mae_n.max(1) as f64;
        if mae > bound {
            fail(&format!(
                "{}: count MAE {mae:.3} exceeds the preset bound {bound}",
                args.workload
            ));
        }
    }
    let probe = if args.trace {
        phone_probe(args.seed, &fit_s, &mut spans)
    } else {
        Probe::default()
    };
    write_spans(args, &spans);
    (run, probe)
}

/// Writes the recorded spans as JSON lines under the build directory.
fn write_spans(args: &Args, spans: &[Trace]) {
    if spans.is_empty() {
        return;
    }
    let root = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".to_string());
    let dir = std::path::Path::new(&root).join("perfbench");
    // Every trace's per-layer totals, and the spans of the first traced
    // iteration in full: all spans of a surge run take ~75 MB.
    let mut body: String = spans
        .iter()
        .enumerate()
        .map(|(i, t)| t.summary_jsonl(i))
        .collect();
    body.push_str(&spans[0].to_jsonl(0));
    let path = dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
        eprintln!(
            "perfbench: could not write spans to {}: {e}",
            path.display()
        );
    }
}

/// The metric names and units `BENCHMARK.json` declares for `group`.
fn declared(group: &str) -> Result<BTreeMap<String, String>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json (run from the repository root): {e}"))?;
    spec::declared_units(&text, group)
}

/// Checks that exactly the declared metrics are printed, with their units.
fn check_declared(metrics: &Metrics, declared: &BTreeMap<String, String>) -> Result<(), String> {
    let printed: BTreeMap<String, String> = metrics
        .0
        .iter()
        .map(|(name, _, unit)| (name.clone(), unit.to_string()))
        .collect();
    if printed.len() != metrics.0.len() {
        return Err("a metric is printed twice".into());
    }
    if printed != *declared {
        return Err(format!(
            "printed metrics {printed:?} differ from BENCHMARK.json {declared:?}"
        ));
    }
    if let Some((name, value, _)) = metrics.0.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("{name} is not finite: {value}"));
    }
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            exit(2);
        }
    };
    let group = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    // Fail before any work when the declarations cannot be read.
    let declared = declared(group).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        exit(2);
    });
    // One worker thread: on a shared two-vCPU host, back-to-back same-seed
    // runs spread 26 % with two workers and 2 % with one.
    let (run, probe) = exec::with_thread_override(1, || measure(&args));
    let metrics = if args.trace {
        run.per_layer(&probe.metrics())
    } else {
        run.end_to_end()
    };
    if let Err(e) = check_declared(&metrics, &declared) {
        eprintln!("perfbench: {e}");
        exit(1);
    }
    let (attempted, failed) = run.attempted_failed();
    for (name, value, unit) in &metrics.0 {
        println!("{name} {value} {unit}");
    }
    println!("{}", stats::result_json(true, attempted, failed, &metrics));
}

/// Self-tests of the benchmark. The workload tests run whole iterations;
/// use `cargo test --release --manifest-path perfbench/Cargo.toml`.
#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> String {
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json sits beside the benchmark directory")
    }

    #[test]
    fn exactly_the_declared_metrics_are_printed() {
        let text = benchmark_json();
        let run = RunStats::default();
        let e2e = spec::declared_units(&text, "end_to_end").unwrap();
        let layers = spec::declared_units(&text, "per_layer").unwrap();
        check_declared(&run.end_to_end(), &e2e).unwrap();
        check_declared(&run.per_layer(&Probe::default().metrics()), &layers).unwrap();
    }

    #[test]
    fn exactly_the_declared_workloads_run() {
        let names = spec::declared_names(&benchmark_json(), "workloads").unwrap();
        assert_eq!(names, WORKLOADS.map(str::to_string).to_vec());
    }

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        for name in WORKLOADS {
            let hash = |seed| build(name, seed, &mut Trace::off()).input_hash();
            assert_eq!(hash(7), hash(7), "{name}: same seed, same inputs");
            assert_ne!(hash(7), hash(8), "{name}: another seed, other inputs");
        }
    }

    #[test]
    fn surge_is_refused_under_its_bursts() {
        let stats = exec::with_thread_override(1, || {
            build("surge_ingest", 7, &mut Trace::off()).reference()
        });
        assert!(stats.server.refused > 0, "no backpressure");
        assert_eq!(stats.server.admitted, stats.reports_offered);
    }

    #[test]
    fn history_reads_every_query_kind_beside_writes() {
        let stats = exec::with_thread_override(1, || {
            build("history_reads", 7, &mut Trace::off()).reference()
        });
        assert!(stats.reports_offered > 0, "no writes");
        assert!(stats.queries.latency_ns.iter().all(|kind| !kind.is_empty()));
        assert_eq!(stats.queries.failed, 0);
    }

    #[test]
    fn office_answers_from_every_phone() {
        let stats =
            exec::with_thread_override(1, || build("office_e2e", 7, &mut Trace::off()).reference());
        assert_eq!(stats.reports_ingested, stats.reports_offered);
        assert!(stats.accuracy_total > 0 && stats.accuracy_hits > 0);
        assert!(stats.lag_ms.len() as u64 == stats.reports_ingested);
    }
}
