//! Filter playground: EWMA vs Kalman vs median on the dynamic walk.
//!
//! ```text
//! cargo run --release --example filter_playground
//! ```
//!
//! The paper tunes one knob — the EWMA coefficient — to trade stability
//! against responsiveness (Section V, Figs 7–8). This example replays the
//! same raw observation stream through several filters so the trade-off is
//! visible side by side.

use roomsense::experiments::ExperimentCtx;
use roomsense::PipelineConfig;
use roomsense_signal::{
    metrics, DistanceFilter, EwmaFilter, KalmanFilter, LossPolicy, MedianFilter,
};
use roomsense_sim::SimDuration;

fn main() {
    let seed = 17;

    // A raw static capture: one value (or miss) per 2 s cycle at D = 2 m.
    let capture = ExperimentCtx::new(seed).static_capture(
        &PipelineConfig::paper_android().with_coefficient(0.0),
        2.0,
        SimDuration::from_secs(300),
    );
    // Reconstruct the per-cycle raw stream, misses included.
    let cycles = 150usize;
    let mut raw: Vec<Option<f64>> = vec![None; cycles];
    for (t, d) in &capture.raw {
        let idx = (t / 2.0).round() as usize - 1;
        if idx < cycles {
            raw[idx] = Some(*d);
        }
    }

    println!("static capture at 2 m, {} cycles, filtered:", cycles);
    println!("  filter            output std (m)   availability");
    let mut filters: Vec<Box<dyn DistanceFilter>> = vec![
        Box::new(EwmaFilter::new(0.0, LossPolicy::HoldOneCycle)),
        Box::new(EwmaFilter::new(0.35, LossPolicy::HoldOneCycle)),
        Box::new(EwmaFilter::paper()),
        Box::new(EwmaFilter::new(0.9, LossPolicy::HoldOneCycle)),
        Box::new(KalmanFilter::indoor_default()),
        Box::new(MedianFilter::new(5)),
    ];
    let labels = [
        "ewma(0.00) raw",
        "ewma(0.35)",
        "ewma(0.65) paper",
        "ewma(0.90)",
        "kalman",
        "median(5)",
    ];
    for (filter, label) in filters.iter_mut().zip(labels) {
        let outputs: Vec<f64> = raw.iter().filter_map(|obs| filter.update(*obs)).collect();
        println!(
            "  {:<17} {:>10.3}       {:>5.1}%",
            label,
            metrics::std_dev(&outputs).unwrap_or(0.0),
            100.0 * outputs.len() as f64 / cycles as f64
        );
    }

    // Responsiveness: when does each coefficient notice the beacon switch?
    println!("\ndynamic walk between two beacons at 1.2 m/s:");
    println!("  coeff   crossover cycle");
    for coeff in [0.0, 0.35, 0.65, 0.9] {
        let walk = ExperimentCtx::new(seed).dynamic_walk(coeff, 1.2);
        println!(
            "  {coeff:>5.2}   {}",
            walk.crossover_cycle
                .map_or("never".to_string(), |c| format!(
                    "{c} (t = {:.0} s)",
                    walk.series[c].0
                ))
        );
    }
    println!("\nthe paper's 0.65 sits at the knee: calm output, timely switching.");
}
