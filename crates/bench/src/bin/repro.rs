//! `repro` — regenerates every figure and headline claim of the paper.
//!
//! Usage: `repro [fig1|fig3|fig4|fig5|fig6|fig7_8|fig9|fig10|fig11|sampling|calibration|<system arm>|all]`
//!
//! System arms (tracking, scaling, floors, faults, chaos, telemetry,
//! scale, overload, archive, counting, positioning, ablation) dispatch
//! through the [`roomsense::experiments::ARMS`] table: `repro` prints each
//! arm's [`roomsense::experiments::ExperimentReport`] summary, asserts its
//! invariants, and prints a unified `  <name> checksum: <hex> (threads: N)`
//! line that `scripts/check.sh` compares across thread counts.
//!
//! Each subcommand prints the rows/series the corresponding paper artifact
//! reports; `EXPERIMENTS.md` records paper-vs-measured.

use roomsense::experiments::{self, ExperimentArm, ExperimentCtx};
use roomsense::PipelineConfig;
use roomsense_bench::REPRO_SEED as SEED;
use roomsense_ibeacon::{Major, MeasuredPower, Minor, Packet, ProximityUuid, Region, RegionId};
use roomsense_radio::DeviceRxProfile;
use roomsense_sim::{exec, SimDuration, SimTime};
use roomsense_stack::app::{App, AppEvent};

fn main() {
    let mut args = std::env::args().skip(1);
    let arg = args.next().unwrap_or_else(|| "all".to_string());
    if let Some(extra) = args.next() {
        usage(&format!("unexpected argument {extra:?}"));
    }
    match arg.as_str() {
        "fig1" => fig1(),
        "fig3" => fig3(),
        "fig4" => fig_static(2, "fig4"),
        "fig5" => fig5(),
        "fig6" => fig_static(5, "fig6"),
        "fig7_8" => fig7_8(),
        "fig9" => fig9(),
        "fig10" => fig10(),
        "fig11" => fig11(),
        "sampling" => sampling(),
        "calibration" => calibration(),
        "all" => {
            fig1();
            fig3();
            fig_static(2, "fig4");
            fig5();
            fig_static(5, "fig6");
            fig7_8();
            fig9();
            fig10();
            fig11();
            sampling();
            calibration();
            for arm in experiments::ARMS {
                run_system(arm);
            }
        }
        other => match experiments::arm(other) {
            Some(arm) => run_system(arm),
            None => usage(&format!("unknown experiment {other:?}")),
        },
    }
}

/// Prints `problem` and the usage line to stderr, then exits with status 2.
fn usage(problem: &str) -> ! {
    let arms: Vec<&str> = experiments::ARMS.iter().map(|a| a.name).collect();
    eprintln!("{problem}");
    eprintln!(
        "usage: repro [fig1|fig3|fig4|fig5|fig6|fig7_8|fig9|fig10|fig11|sampling|calibration|{}|all]",
        arms.join("|")
    );
    std::process::exit(2);
}

/// Runs one registered system arm under the canonical seed: summary,
/// invariants, then the unified checksum line `scripts/check.sh` diffs
/// across thread counts.
fn run_system(arm: &'static ExperimentArm) {
    header(arm.title);
    let ctx = ExperimentCtx::new(SEED);
    let report = (arm.run)(&ctx);
    for row in report.summary_rows() {
        println!("{row}");
    }
    report.assert_invariants();
    println!(
        "  {} checksum: {:016x} (threads: {})",
        arm.name,
        report.checksum(),
        exec::thread_count()
    );
}

fn header(title: &str) {
    println!();
    println!("==== {title} ====");
}

/// Fig 1: the iBeacon packet structure, shown via a real encode.
fn fig1() {
    header("fig1: iBeacon packet structure");
    let packet = Packet::new(
        ProximityUuid::example(),
        Major::new(1),
        Minor::new(2),
        MeasuredPower::new(-59),
    );
    let bytes = packet.encode();
    println!("packet: {packet}");
    println!("encoded ({} bytes):", bytes.len());
    let fields: [(&str, std::ops::Range<usize>); 5] = [
        ("prefix", 0..9),
        ("proximity uuid", 9..25),
        ("major", 25..27),
        ("minor", 27..29),
        ("tx power", 29..30),
    ];
    for (name, range) in fields {
        let hex: Vec<String> = bytes[range.clone()]
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        println!(
            "  {name:<15} [{:>2}..{:>2}]  {}",
            range.start,
            range.end,
            hex.join(" ")
        );
    }
    let decoded = Packet::decode(&bytes).expect("round-trips");
    println!("decode round-trip ok: {}", decoded == packet);
}

/// Fig 3: the application behaviour, shown as a transition trace.
fn fig3() {
    header("fig3: application behaviour (boot -> background -> monitoring -> ranging)");
    let mut app = App::new();
    let script = [
        (0, AppEvent::BootCompleted),
        (500, AppEvent::BluetoothEnabled),
        (4_000, AppEvent::RegionEntered(RegionId::new(1))),
        (64_000, AppEvent::RegionExited(RegionId::new(1))),
        (70_000, AppEvent::BluetoothDisabled),
        (71_000, AppEvent::BluetoothEnabled),
        (75_000, AppEvent::RegionEntered(RegionId::new(2))),
    ];
    for (ms, event) in script {
        app.handle(SimTime::from_millis(ms), event);
    }
    for transition in app.log() {
        println!("  {transition}");
    }
    let uuid = ProximityUuid::example();
    println!(
        "monitored region example: {}",
        Region::with_major(uuid, Major::new(1))
    );
}

/// Figs 4 and 6: raw distance estimates at D = 2 m under a scan period.
fn fig_static(period_secs: u64, tag: &str) {
    header(&format!(
        "{tag}: raw signals, D = 2 m, scan period {period_secs} s (S3 Mini)"
    ));
    let config =
        PipelineConfig::paper_android().with_scan_period(SimDuration::from_secs(period_secs));
    let capture =
        ExperimentCtx::new(SEED).static_capture(&config, 2.0, SimDuration::from_secs(120));
    println!("  t(s)   raw distance (m)");
    for (t, d) in &capture.raw {
        println!("  {t:>5.0}  {d:>6.2}  {}", bar(*d, 6.0));
    }
    println!(
        "samples={} raw std={:.2} m rmse={:.2} m (truth 2.00 m)",
        capture.raw.len(),
        capture.raw_std(),
        capture.raw_rmse()
    );
}

/// Fig 5: the same capture after the EWMA(0.65) filter.
fn fig5() {
    header("fig5: static evaluation with coeff = 0.65");
    let capture = ExperimentCtx::new(SEED).static_capture(
        &PipelineConfig::paper_android(),
        2.0,
        SimDuration::from_secs(120),
    );
    println!("  t(s)   smoothed distance (m)");
    for (t, d) in &capture.smoothed {
        println!("  {t:>5.0}  {d:>6.2}  {}", bar(*d, 6.0));
    }
    println!(
        "raw std={:.2} m -> smoothed std={:.2} m",
        capture.raw_std(),
        capture.smoothed_std()
    );
}

/// Figs 7–8: the coefficient trade-off and the dynamic walk at 0.65.
fn fig7_8() {
    header("fig7_8: coefficient tuning (stability vs responsiveness)");
    let coefficients = [0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95];
    println!("  coeff  static std (m)  crossover cycle (walk @1.2 m/s)");
    for point in ExperimentCtx::new(SEED).coefficient_sweep(&coefficients, 5) {
        let crossing = point
            .crossover_cycle
            .map_or("never".to_string(), |c| c.to_string());
        println!(
            "  {:>5.2}  {:>14.3}  {:>8}",
            point.coefficient, point.stability_std_m, crossing
        );
    }
    println!();
    println!("dynamic walk at the chosen coeff = 0.65:");
    let walk = ExperimentCtx::new(SEED).dynamic_walk(0.65, 1.2);
    println!("  t(s)   d(west)  d(east)");
    for (t, a, b) in &walk.series {
        println!("  {t:>5.1}  {:>7}  {:>7}", fmt_opt(*a), fmt_opt(*b));
    }
    println!(
        "crossover at cycle {:?} of {}",
        walk.crossover_cycle,
        walk.series.len()
    );
}

/// Fig 9: classification accuracy and confusion matrix.
fn fig9() {
    header("fig9: classification results on the paper house");
    let result = ExperimentCtx::new(SEED).classification();
    let (svm, proximity) = result.headline();
    println!("  svm (scene analysis, rbf): {:.1}%", svm * 100.0);
    println!("  proximity baseline:        {:.1}%", proximity * 100.0);
    println!(
        "  knn (k=5) ablation:        {:.1}%",
        result.knn.accuracy() * 100.0
    );
    println!();
    println!("svm confusion matrix (rows = truth):");
    print!("{}", matrix_table(&result.svm, &result.label_names));
    println!(
        "false positives={} false negatives={} (paper: FP slightly above FN is acceptable)",
        result.svm.total_false_positives(),
        (0..result.label_names.len())
            .map(|c| result.svm.false_negatives(c))
            .sum::<u64>()
    );
    let cv = ExperimentCtx::new(SEED).cross_validation(5);
    let mean_cv = cv.iter().sum::<f64>() / cv.len() as f64;
    println!(
        "5-fold cross-validation: mean {:.1}% (folds: {})",
        mean_cv * 100.0,
        cv.iter()
            .map(|a| format!("{:.0}%", a * 100.0))
            .collect::<Vec<_>>()
            .join(", ")
    );
}

/// Fig 10: battery traces and the Wi-Fi vs Bluetooth saving.
fn fig10() {
    header("fig10: energy consumption, wifi vs bluetooth uplink (S3 Mini, mean of 10 runs)");
    let result = ExperimentCtx::new(SEED).energy(SimDuration::from_secs(3600), 10);
    println!(
        "  mean power: wifi {:.0} mW, bluetooth {:.0} mW",
        result.wifi_mean_mw, result.bt_mean_mw
    );
    println!(
        "  bluetooth saving: {:.1}% (paper: ~15%)",
        result.saving_fraction() * 100.0
    );
    println!(
        "  projected battery life: wifi {:.1} h, bluetooth {:.1} h (paper: ~10 h)",
        result.wifi_lifetime_h, result.bt_lifetime_h
    );
    println!();
    println!("  battery % over one hour:");
    println!("  t(min)   wifi     bt");
    for (w, b) in result.wifi_trace.iter().zip(&result.bt_trace) {
        println!(
            "  {:>6.0}  {:>6.2}  {:>6.2}",
            w.at.as_secs_f64() / 60.0,
            w.percent,
            b.percent
        );
    }
}

/// Fig 11: per-device RSSI differences.
fn fig11() {
    header("fig11: received signal strength per device, same transmitter, D = 2 m");
    let rows = ExperimentCtx::new(SEED).device_comparison(
        &[
            DeviceRxProfile::galaxy_s3_mini(),
            DeviceRxProfile::nexus_5(),
        ],
        2.0,
        SimDuration::from_secs(240),
    );
    println!("  device                      mean rssi   std    est. distance");
    for row in rows {
        println!(
            "  {:<26} {:>7.1} dBm  {:>4.1}  {:>6.2} m",
            row.model, row.mean_rssi_dbm, row.std_rssi_db, row.mean_distance_m
        );
    }
}

/// Section V: the 5 vs 300 samples example.
fn sampling() {
    header("sampling: Android vs iOS samples (10 s window, 30 Hz beacon, 2 s scan period)");
    let s = ExperimentCtx::new(SEED).sampling();
    println!("  android 4.x: {:>4} samples (paper: 5)", s.android_samples);
    println!(
        "  android L:   {:>4} samples (paper's future work, implemented)",
        s.android_l_samples
    );
    println!("  ios:         {:>4} samples (paper: ~300)", s.ios_samples);
}

/// Section IV-A: the TX-power calibration procedure, run end to end.
fn calibration() {
    header("calibration: TX-power field calibration at one metre (Section IV-A)");
    let outcome = ExperimentCtx::new(SEED).calibration();
    println!(
        "  collected {} one-metre samples -> measured power = {}",
        outcome.sample_count, outcome.measured_power
    );
    println!(
        "  verification capture estimates {:.2} m at a true 1.00 m",
        outcome.verified_distance_m
    );
}

fn bar(value: f64, full_scale: f64) -> String {
    let n = ((value / full_scale) * 30.0).clamp(0.0, 40.0) as usize;
    "#".repeat(n)
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map_or("   -".to_string(), |d| format!("{d:.2}"))
}

fn matrix_table(cm: &roomsense_ml::ConfusionMatrix, names: &[String]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let width = names.iter().map(String::len).max().unwrap_or(8).max(8);
    let _ = write!(out, "  {:>width$}", "");
    for name in names {
        let _ = write!(out, " {name:>width$}");
    }
    let _ = writeln!(out);
    for (t, name) in names.iter().enumerate() {
        let _ = write!(out, "  {name:>width$}");
        for p in 0..names.len() {
            let _ = write!(out, " {:>width$}", cm.count(t, p));
        }
        let _ = writeln!(out);
    }
    out
}
