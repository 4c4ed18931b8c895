//! Throughput of the archive spill path: one mixed stream of compacted
//! reports and assignments, appended to a fresh sink on a fault-free disk.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use roomsense_ibeacon::{BeaconIdentity, Major, Minor, ProximityUuid};
use roomsense_net::{ArchiveConfig, ArchiveSink, DeviceId, ObservationReport, SightedBeacon};
use roomsense_sim::{SharedDisk, SimDisk, SimTime};

const DEVICES: u32 = 256;
const ROUNDS: u64 = 16;

/// `ROUNDS` rounds over `DEVICES` devices; each device spills one report
/// (one to three beacons) and its assignment per round.
fn spill_stream() -> Vec<(ObservationReport, usize)> {
    let mut stream = Vec::new();
    for round in 0..ROUNDS {
        for device in 0..DEVICES {
            let room = (device as usize + round as usize) % 7;
            let beacons = (0..1 + device % 3)
                .map(|k| SightedBeacon {
                    identity: BeaconIdentity {
                        uuid: ProximityUuid::example(),
                        major: Major::new(1),
                        minor: Minor::new((room as u16 + k as u16) % 7),
                    },
                    distance_m: 1.0 + f64::from(k) * 2.5,
                })
                .collect();
            let report = ObservationReport {
                device: DeviceId::new(device),
                seq: round,
                at: SimTime::from_millis(round * 60_000 + u64::from(device)),
                beacons,
            };
            stream.push((report, room));
        }
    }
    stream
}

fn bench_spill_append(c: &mut Criterion) {
    let stream = spill_stream();
    c.bench_function("archive/spill-append", |b| {
        b.iter_batched(
            || {
                ArchiveSink::new(
                    SharedDisk::new(SimDisk::pristine(1)),
                    ArchiveConfig::default(),
                )
            },
            |mut sink| {
                for (report, room) in &stream {
                    sink.append_report(report);
                    sink.append_assignment(report.device, report.at, report.seq, *room);
                }
                black_box(sink.stats())
            },
            BatchSize::LargeInput,
        );
    });
}

criterion_group!(benches, bench_spill_append);
criterion_main!(benches);
