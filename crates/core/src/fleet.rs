//! Multi-occupant simulation: interleaving several phones' reports.
//!
//! The paper's building hosts many occupants at once; the BMS sees their
//! reports as one time-ordered stream. [`run_fleet`](crate::run_fleet) runs
//! one pipeline per device and merges the outputs into one chronological
//! stream, so downstream consumers (server, demand-response controller)
//! process events exactly once, in order, regardless of how many devices
//! there are.

use crate::CycleRecord;
use roomsense_net::DeviceId;
use roomsense_sim::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One fleet event: a device finished a scan cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetEvent {
    /// When the cycle ended.
    pub at: SimTime,
    /// Which device produced it.
    pub device: DeviceId,
    /// The cycle's records (observations, smoothed tracks, ground truth).
    pub record: CycleRecord,
}

/// K-way merge of per-device cycle streams into one chronological event
/// stream.
///
/// Each pipeline returns chronologically ordered cycles, so the merge
/// is a k-way merge over sorted runs: a min-heap holds one candidate
/// per device, keyed `(time, device)` so simultaneous cycles keep
/// device order.
pub(crate) fn merge_streams(per_device: Vec<Vec<CycleRecord>>) -> Vec<FleetEvent> {
    let total = per_device.iter().map(Vec::len).sum();
    let mut streams: Vec<_> = per_device
        .into_iter()
        .map(|records| records.into_iter().peekable())
        .collect();
    let mut heap: BinaryHeap<Reverse<(SimTime, usize)>> = streams
        .iter_mut()
        .enumerate()
        .filter_map(|(device, stream)| stream.peek().map(|r| Reverse((r.at, device))))
        .collect();
    let mut events = Vec::with_capacity(total);
    while let Some(Reverse((at, device))) = heap.pop() {
        let record = streams[device].next().expect("peeked above");
        debug_assert_eq!(record.at, at);
        events.push(FleetEvent {
            at,
            device: DeviceId::new(device as u32),
            record,
        });
        if let Some(next) = streams[device].peek() {
            heap.push(Reverse((next.at, device)));
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_fleet, run_fleet_batched, BatchConfig, FaultPlan, PipelineConfig, Scenario};
    use roomsense_building::mobility::{MobilityModel, StaticPosition};
    use roomsense_building::presets;
    use roomsense_geom::Point;
    use roomsense_sim::SimDuration;
    use roomsense_telemetry::Recorder;

    fn corridor() -> Scenario {
        Scenario::from_plan(presets::two_transmitter_corridor(), 3)
    }

    #[test]
    fn events_are_chronological_and_complete() {
        let scenario = corridor();
        let a = StaticPosition::new(Point::new(2.0, 1.0));
        let b = StaticPosition::new(Point::new(9.0, 1.0));
        let c = StaticPosition::new(Point::new(6.0, 1.0));
        let occupants: Vec<&dyn MobilityModel> = vec![&a, &b, &c];
        let events = run_fleet_batched(
            &scenario,
            &PipelineConfig::paper_android(),
            &occupants,
            SimDuration::from_secs(20),
            5,
            &BatchConfig::default(),
        );
        assert_eq!(events.len(), 30); // 3 devices x 10 cycles
        assert!(events.windows(2).all(|w| w[0].at <= w[1].at));
        // All three devices appear.
        let mut devices: Vec<u32> = events.iter().map(|e| e.device.value()).collect();
        devices.sort_unstable();
        devices.dedup();
        assert_eq!(devices, vec![0, 1, 2]);
    }

    #[test]
    fn simultaneous_cycles_keep_device_order() {
        let scenario = corridor();
        let a = StaticPosition::new(Point::new(2.0, 1.0));
        let b = StaticPosition::new(Point::new(3.0, 1.0));
        let occupants: Vec<&dyn MobilityModel> = vec![&a, &b];
        let events = run_fleet_batched(
            &scenario,
            &PipelineConfig::paper_android(),
            &occupants,
            SimDuration::from_secs(4),
            5,
            &BatchConfig::default(),
        );
        // Cycles end at the same instants for both devices: device 0 first.
        assert_eq!(events[0].device, DeviceId::new(0));
        assert_eq!(events[1].device, DeviceId::new(1));
        assert_eq!(events[0].at, events[1].at);
    }

    #[test]
    fn devices_see_independent_radio_streams() {
        let scenario = corridor();
        let a = StaticPosition::new(Point::new(2.0, 1.0));
        let b = StaticPosition::new(Point::new(2.0, 1.0)); // same spot
        let occupants: Vec<&dyn MobilityModel> = vec![&a, &b];
        let events = run_fleet_batched(
            &scenario,
            &PipelineConfig::paper_android(),
            &occupants,
            SimDuration::from_secs(30),
            5,
            &BatchConfig::default(),
        );
        let of = |d: u32| -> Vec<&CycleRecord> {
            events
                .iter()
                .filter(|e| e.device == DeviceId::new(d))
                .map(|e| &e.record)
                .collect()
        };
        // Same position but different fading/stall streams.
        assert_ne!(of(0), of(1));
    }

    #[test]
    fn fleet_is_deterministic() {
        let scenario = corridor();
        let a = StaticPosition::new(Point::new(2.0, 1.0));
        let occupants: Vec<&dyn MobilityModel> = vec![&a];
        let run = || {
            run_fleet_batched(
                &scenario,
                &PipelineConfig::paper_android(),
                &occupants,
                SimDuration::from_secs(10),
                7,
                &BatchConfig::default(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn recorded_fleet_matches_plain_and_merge_order_is_thread_invariant() {
        let scenario = corridor();
        let a = StaticPosition::new(Point::new(2.0, 1.0));
        let b = StaticPosition::new(Point::new(9.0, 1.0));
        let c = StaticPosition::new(Point::new(6.0, 1.0));
        let occupants: Vec<&dyn MobilityModel> = vec![&a, &b, &c];
        let config = PipelineConfig::paper_android();
        let duration = SimDuration::from_secs(20);

        let plain = run_fleet_batched(
            &scenario,
            &config,
            &occupants,
            duration,
            5,
            &BatchConfig::default(),
        );
        let snapshot_at = |threads: usize| {
            roomsense_sim::exec::with_thread_override(threads, || {
                let mut telemetry = Recorder::default();
                let events = run_fleet(
                    &scenario,
                    &config,
                    &occupants,
                    duration,
                    5,
                    &FaultPlan::none(scenario.advertisers().len()),
                    &BatchConfig { rows_per_chunk: 1 },
                    &mut telemetry,
                );
                (events, telemetry)
            })
        };
        let (seq_events, seq_rec) = snapshot_at(1);
        let (par_events, par_rec) = snapshot_at(4);
        // Recording changes no output.
        assert_eq!(plain, seq_events);
        assert_eq!(plain, par_events);
        // The merged snapshot is bitwise identical across thread counts.
        assert_eq!(seq_rec.checksum(), par_rec.checksum());
        assert_eq!(seq_rec.prometheus_text(), par_rec.prometheus_text());
        assert_eq!(seq_rec.journal_jsonl(), par_rec.journal_jsonl());
        // And it actually saw the fleet: 3 devices x 10 cycles each.
        assert_eq!(seq_rec.counter(roomsense_telemetry::keys::SCAN_CYCLES), 30);
    }

    #[test]
    fn empty_fleet_is_empty() {
        let scenario = corridor();
        let occupants: Vec<&dyn MobilityModel> = vec![];
        let events = run_fleet_batched(
            &scenario,
            &PipelineConfig::paper_android(),
            &occupants,
            SimDuration::from_secs(10),
            7,
            &BatchConfig::default(),
        );
        assert!(events.is_empty());
    }
}
