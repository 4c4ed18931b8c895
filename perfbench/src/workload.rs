//! What one measured iteration of a workload yields, and how iterations
//! become the printed metrics.

use crate::server::{Queries, ServerCounts, QUERY_KINDS};
use crate::stats::{median, percentile, Metrics};
use crate::trace::LayerTime;
use roomsense_net::{Retrying, Transport};
use roomsense_telemetry::keys;
use std::collections::BTreeMap;

/// Uplink counts for one iteration.
#[derive(Debug, Clone, Default)]
pub struct TransportStats {
    pub attempts: u64,
    pub delivered: u64,
    /// Simulated ms from send to arrival, per delivered send.
    pub delay_ms: Vec<u64>,
}

impl TransportStats {
    pub fn read<T: Transport>(&mut self, transport: &Retrying<T>) {
        self.attempts = transport.telemetry().counter(keys::NET_TX_ATTEMPTS);
        self.delivered = transport.telemetry().counter(keys::NET_TX_DELIVERED);
    }
}

/// One iteration (or one closed-loop segment) of a workload.
#[derive(Debug, Clone, Default)]
pub struct IterStats {
    /// On-CPU seconds of the measuring thread (see `trace::now_ns`).
    pub cpu_s: f64,
    /// Factor from `cpu_s` to seconds at the reference host speed
    /// (`calib::scale`); set on untraced timed iterations only.
    pub scale: f64,
    /// Distinct reports the iteration tried to deliver.
    pub reports_offered: u64,
    /// Reports ingested exactly once.
    pub reports_ingested: u64,
    pub queries: Queries,
    /// Untimed history queries of a traced iteration (`server::history_probe`).
    pub probe: Queries,
    pub lag_ms: Vec<u64>,
    pub wait_ms: Vec<u64>,
    pub accuracy_hits: u64,
    pub accuracy_total: u64,
    pub mae_sum: f64,
    pub mae_n: u64,
    pub transport: TransportStats,
    pub server: ServerCounts,
    pub classifications: u64,
    /// Span totals (traced iterations only).
    pub layers: BTreeMap<&'static str, LayerTime>,
}

impl IterStats {
    /// Frees the per-report simulated samples.
    pub fn drop_samples(&mut self) {
        self.lag_ms = Vec::new();
        self.wait_ms = Vec::new();
        self.transport.delay_ms = Vec::new();
    }

    fn layer(&self, name: &str) -> LayerTime {
        self.layers.get(name).copied().unwrap_or_default()
    }
}

/// A whole run's measurements, ready to print.
#[derive(Debug, Default)]
pub struct RunStats {
    pub setup_s: Vec<f64>,
    /// The warm-up iteration: deterministic outputs and correctness.
    pub reference: IterStats,
    /// Untraced timed iterations.
    pub timed: Vec<IterStats>,
    /// Traced timed iterations (traced run only).
    pub traced: Vec<IterStats>,
    /// One traced iteration with `nproc` worker threads (traced run only).
    pub all_threads: Option<IterStats>,
    /// Reports ingested after the last iteration, while draining.
    pub drained: u64,
    /// Peak resident set of the timed phase, less the calibration
    /// buffer, MB.
    pub peak_rss_mb: f64,
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

impl RunStats {
    /// Queries issued and reports offered, and the ones that failed, over
    /// every iteration the run made.
    pub fn attempted_failed(&self) -> (u64, u64) {
        let all = std::iter::once(&self.reference)
            .chain(&self.timed)
            .chain(&self.traced)
            .chain(&self.all_threads);
        let (offered, ingested, queries, failed_queries) =
            all.fold((0, self.drained, 0, 0), |(o, i, q, f), it| {
                (
                    o + it.reports_offered,
                    i + it.reports_ingested,
                    q + it.queries.count() + it.probe.count(),
                    f + it.queries.failed + it.probe.failed,
                )
            });
        (
            offered + queries,
            offered.saturating_sub(ingested) + failed_queries,
        )
    }

    pub fn end_to_end(&self) -> Metrics {
        let mut m = Metrics::default();
        // Query and request latencies at the reference host speed.
        let scaled = |samples: &dyn Fn(&IterStats) -> Vec<u64>| {
            self.timed
                .iter()
                .flat_map(|it| {
                    let scale = it.scale;
                    samples(it)
                        .into_iter()
                        .map(move |ns| (ns as f64 * scale).round() as u64)
                })
                .collect::<Vec<u64>>()
        };
        let mut latencies = scaled(&|it| it.queries.all_ns());
        let mut requests = scaled(&|it| it.queries.request_ns.clone());
        // Simulated outcomes pool the warm-up and every untraced iteration:
        // identical for repeated batch iterations, more samples for the
        // closed loop's segments.
        let pooled: Vec<&IterStats> = std::iter::once(&self.reference)
            .chain(&self.timed)
            .collect();
        let mut lag: Vec<u64> = pooled
            .iter()
            .flat_map(|it| it.lag_ms.iter().copied())
            .collect();
        let sum = |f: &dyn Fn(&IterStats) -> f64| pooled.iter().map(|it| f(it)).sum::<f64>();
        m.push("setup_s", median(&self.setup_s), "s");
        m.push(
            "reports_per_s",
            median(&rates(&self.timed, |it| it.reports_ingested as f64)),
            "1/s",
        );
        m.push(
            "queries_per_s",
            median(&rates(&self.timed, |it| it.queries.count() as f64)),
            "1/s",
        );
        m.push("query_p50_us", percentile(&mut latencies, 0.5) / 1e3, "us");
        // The tail is taken over requests at p90: office's pooled query p99
        // sat on a mode boundary, probably where host timer interrupts
        // start to hit its ~60 us population views, and jumped between
        // ~65 and ~130 us from run to run of one seed.
        m.push("request_p90_us", percentile(&mut requests, 0.9) / 1e3, "us");
        m.push("answer_lag_p50_ms", percentile(&mut lag, 0.5), "ms");
        m.push("answer_lag_p99_ms", percentile(&mut lag, 0.99), "ms");
        m.push(
            "room_accuracy",
            ratio(
                sum(&|it| it.accuracy_hits as f64),
                sum(&|it| it.accuracy_total as f64),
            ),
            "ratio",
        );
        m.push(
            "count_mae",
            ratio(sum(&|it| it.mae_sum), sum(&|it| it.mae_n as f64)),
            "count",
        );
        m.push("peak_rss_mb", self.peak_rss_mb, "MB");
        m
    }

    /// The per-layer metrics. Layer times keep their `wall_s` names but,
    /// like every time here, are CPU seconds of the measuring thread; only
    /// the `_nproc` figures, which fan out to worker threads, are wall time.
    pub fn per_layer(&self, probe: &Metrics) -> Metrics {
        let mut m = Metrics::default();
        let traced = &self.traced;
        // Median over traced iterations of a layer's summed self time.
        let layer = |name: &str| {
            median(
                &traced
                    .iter()
                    .map(|it| it.layer(name).self_s)
                    .collect::<Vec<_>>(),
            )
        };
        let reference = &self.reference;
        m.0.extend(probe.0.iter().cloned());
        m.push("ml.classify_wall_s", layer("ml.classify"), "s");
        m.push(
            "ml.classifications",
            reference.classifications as f64,
            "count",
        );
        m.push("net.transport.wall_s", layer("net.transport"), "s");
        m.push(
            "net.transport.attempts",
            reference.transport.attempts as f64,
            "count",
        );
        m.push(
            "net.transport.useful_ratio",
            ratio(
                reference.transport.delivered as f64,
                reference.transport.attempts as f64,
            ),
            "ratio",
        );
        let mut delay = reference.transport.delay_ms.clone();
        m.push(
            "net.transport.delay_p99_ms",
            percentile(&mut delay, 0.99),
            "ms",
        );
        m.push("net.ingest.offer_wall_s", layer("net.ingest.offer"), "s");
        m.push("net.ingest.pump_wall_s", layer("net.ingest.pump"), "s");
        let pump_nproc = self
            .all_threads
            .as_ref()
            .map_or(0.0, |it| it.layer("net.ingest.pump").self_s);
        m.push("net.ingest.pump_wall_s_nproc", pump_nproc, "s");
        let server = reference.server;
        m.push("net.ingest.pumps", server.pumps as f64, "count");
        m.push(
            "net.ingest.admit_ratio",
            ratio(server.admitted as f64, server.offers as f64),
            "ratio",
        );
        m.push("net.ingest.refused", server.refused as f64, "count");
        m.push(
            "net.ingest.peak_mailbox_depth",
            server.peak_mailbox_depth as f64,
            "count",
        );
        let mut wait = reference.wait_ms.clone();
        m.push(
            "net.ingest.mailbox_wait_p99_ms",
            percentile(&mut wait, 0.99),
            "ms",
        );
        m.push(
            "net.archive.bytes_appended",
            server.archive_bytes as f64,
            "bytes",
        );
        m.push(
            "net.archive.segments_sealed",
            server.segments_sealed as f64,
            "count",
        );
        m.push(
            "net.archive.disk_appends",
            server.disk_appends as f64,
            "count",
        );
        let mut queries = Queries::default();
        let mut probe = Queries::default();
        for it in traced {
            queries.merge(&it.queries);
            probe.merge(&it.probe);
        }
        for (kind, name) in QUERY_KINDS.iter().enumerate() {
            // A kind the workload's own traffic never issues is reported
            // from the history probe.
            let source = if queries.latency_ns[kind].is_empty() {
                &probe
            } else {
                &queries
            };
            let (p50, p99, n) = source.kind_stats(kind);
            m.push(format!("net.query.{name}.p50_us"), p50, "us");
            m.push(format!("net.query.{name}.p99_us"), p99, "us");
            m.push(format!("net.query.{name}.n"), n as f64, "count");
        }
        m.push(
            "net.query.degraded_frac",
            ratio(queries.degraded as f64, queries.count() as f64),
            "ratio",
        );
        let untraced = median(&self.timed.iter().map(|it| it.cpu_s).collect::<Vec<_>>());
        let traced_s = median(&traced.iter().map(|it| it.cpu_s).collect::<Vec<_>>());
        m.push(
            "trace.overhead_frac",
            ratio(traced_s, untraced) - 1.0,
            "ratio",
        );
        let unaccounted = median(
            &traced
                .iter()
                .map(|it| ratio(it.layer("iteration").self_s, it.layer("iteration").total_s))
                .collect::<Vec<_>>(),
        );
        m.push("trace.unaccounted_frac", unaccounted, "ratio");
        m
    }
}

/// Per-iteration rates: `count` over the iteration's time at the
/// reference host speed.
fn rates(iterations: &[IterStats], count: impl Fn(&IterStats) -> f64) -> Vec<f64> {
    iterations
        .iter()
        .map(|it| ratio(count(it), it.cpu_s * it.scale))
        .collect()
}

/// Resets the process's peak resident set to its current one, so
/// [`peak_rss_mb`] covers only what runs after the call.
pub fn reset_peak_rss() {
    // Writing 5 to clear_refs resets VmHWM (Linux >= 4.0).
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("perfbench: cannot reset the peak resident set: {e}");
    }
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
