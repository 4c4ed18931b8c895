//! The `tracking` arm: the BMS occupancy table against ground truth.

use super::house::{agrees_with_truth, commissioned_house, itinerary_walks, report_stream};
use super::{ExperimentCtx, ExperimentReport};
use crate::{BatchConfig, PipelineConfig};
use roomsense_net::{DeviceId, Transport, WifiTransport};
use roomsense_sim::{rng, SimDuration};
use std::sync::Arc;

/// System-level tracking quality: how often the BMS occupancy table agrees
/// with ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackingResult {
    /// Fraction of (sample, device) pairs where the server's room for the
    /// device matched the true room.
    pub device_agreement: f64,
    /// Fraction of samples where the entire occupancy table matched truth
    /// exactly.
    pub(crate) table_agreement: f64,
    /// Number of truth samples compared.
    pub(crate) samples: usize,
}

impl ExperimentCtx {
    /// Runs a three-occupant day in the paper house and scores the server's
    /// occupancy table against the ground-truth trace — the system-level number
    /// a BMS operator actually cares about.
    pub fn tracking(&self) -> TrackingResult {
        use roomsense_building::mobility::MobilityModel;
        use roomsense_building::{trace, RoomId};
        use roomsense_net::ShardedBmsServer;
        let seed = self.seed;

        let (scenario, model) = commissioned_house(seed);
        let config = PipelineConfig::paper_android();
        let outside = scenario.outside_label();
        let server = ShardedBmsServer::new(Arc::new(model), 1);

        // Three occupants with different itineraries.
        let itineraries: [&[(RoomId, SimDuration)]; 3] = [
            &[
                (RoomId::new(0), SimDuration::from_secs(120)),
                (RoomId::new(1), SimDuration::from_secs(120)),
            ],
            &[
                (RoomId::new(4), SimDuration::from_secs(180)),
                (RoomId::new(3), SimDuration::from_secs(60)),
            ],
            &[(RoomId::new(2), SimDuration::from_secs(240))],
        ];
        let walks = itinerary_walks(&scenario, seed, "tracking-walk", &itineraries);
        let occupants: Vec<&dyn MobilityModel> = walks.iter().map(|w| w as _).collect();
        let duration = SimDuration::from_secs(240);

        // Stream everything into the server over Wi-Fi.
        let events = crate::run_fleet_batched(
            &scenario,
            &config,
            &occupants,
            duration,
            seed,
            &BatchConfig::default(),
        );
        let mut transport = WifiTransport::default();
        let mut transport_rng = rng::for_component(seed, "tracking-uplink");
        for (at, report) in report_stream(&events, false) {
            if transport
                .send(at, &report, &mut transport_rng)
                .is_delivered()
            {
                server.post_observation(report);
            }
        }

        // Score against truth.
        let truth = trace::ground_truth(
            scenario.plan(),
            &occupants,
            duration,
            SimDuration::from_secs(2),
        );
        let mut device_hits = 0usize;
        let mut device_total = 0usize;
        let mut table_hits = 0usize;
        for sample in truth.samples() {
            let mut whole_sample_ok = true;
            for (index, true_room) in sample.rooms.iter().enumerate() {
                let device = DeviceId::new(index as u32);
                let believed = server
                    .assignment_history(device)
                    .iter()
                    .take_while(|(t, _)| *t <= sample.at)
                    .last()
                    .map(|(_, room)| *room);
                device_total += 1;
                let hit = agrees_with_truth(believed, *true_room, outside);
                if hit {
                    device_hits += 1;
                } else {
                    whole_sample_ok = false;
                }
            }
            if whole_sample_ok {
                table_hits += 1;
            }
        }
        TrackingResult {
            device_agreement: device_hits as f64 / device_total.max(1) as f64,
            table_agreement: table_hits as f64 / truth.samples().len().max(1) as f64,
            samples: truth.samples().len(),
        }
    }
}

impl ExperimentReport for TrackingResult {
    fn summary_rows(&self) -> Vec<String> {
        vec![
            format!(
                "  per-device agreement: {:.1}% over {} samples",
                self.device_agreement * 100.0,
                self.samples
            ),
            format!(
                "  whole-table exact matches: {:.1}%",
                self.table_agreement * 100.0
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracking_experiment_agrees_with_truth_most_of_the_time() {
        let result = ExperimentCtx::new(15).tracking();
        assert!(result.samples >= 100);
        assert!(
            result.device_agreement > 0.75,
            "device agreement {:.3}",
            result.device_agreement
        );
        assert!(
            result.table_agreement > 0.4,
            "table agreement {:.3}",
            result.table_agreement
        );
        assert!(result.table_agreement <= result.device_agreement);
    }
}
