//! Device survey: the Fig 11 problem and the calibration fix.
//!
//! ```text
//! cargo run --release --example device_survey
//! ```
//!
//! "The strength of the signal received from an iBeacon antenna,
//! considering the same transmitter and the same distance, changes
//! significantly between different devices" (paper Section VIII). This
//! example parks three phone models two metres from the same beacon,
//! shows the RSSI and ranging gap, then applies the paper's proposed
//! mitigation — per-device calibration — and shows the gap closing.

use roomsense::experiments::ExperimentCtx;
use roomsense::PipelineConfig;
use roomsense_ibeacon::Calibrator;
use roomsense_radio::DeviceRxProfile;
use roomsense_sim::SimDuration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed = 13;
    let devices = [
        DeviceRxProfile::galaxy_s3_mini(),
        DeviceRxProfile::nexus_5(),
        DeviceRxProfile::iphone_5s(),
    ];

    println!("uncalibrated survey, D = 2 m from the same transmitter:");
    println!("  device                      mean rssi   std    est. distance");
    for row in
        ExperimentCtx::new(seed).device_comparison(&devices, 2.0, SimDuration::from_secs(240))
    {
        println!(
            "  {:<26} {:>7.1} dBm  {:>4.1}  {:>6.2} m",
            row.model, row.mean_rssi_dbm, row.std_rssi_db, row.mean_distance_m
        );
    }

    println!("\nafter per-device calibration (RX offset removed):");
    println!("  device                      est. distance   ranging rmse");
    for device in &devices {
        let calibrated = device.calibrated();
        let config = PipelineConfig::paper_android().with_device(calibrated.clone());
        let capture =
            ExperimentCtx::new(seed).static_capture(&config, 2.0, SimDuration::from_secs(240));
        let mean: f64 = if capture.raw.is_empty() {
            f64::NAN
        } else {
            capture.raw.iter().map(|(_, d)| d).sum::<f64>() / capture.raw.len() as f64
        };
        println!(
            "  {:<26} {:>8.2} m    {:>8.2} m",
            calibrated.model,
            mean,
            capture.raw_rmse()
        );
    }

    // Bonus: the deployment-time TX-power calibration procedure itself
    // (paper Section IV-A), on synthetic one-metre readings.
    println!("\nTX-power calibration procedure (one metre from the transmitter):");
    let mut calibrator = Calibrator::new(10);
    let one_metre_rssis = [
        -58.2, -59.8, -60.5, -57.9, -59.1, -61.3, -58.8, -59.5, -60.0, -58.4,
    ];
    for rssi in one_metre_rssis {
        calibrator.add_sample(rssi)?;
    }
    let power = calibrator.measured_power()?;
    println!(
        "  {} one-metre samples -> measured power field = {}",
        calibrator.sample_count(),
        power
    );
    Ok(())
}
