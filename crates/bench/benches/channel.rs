//! Throughput of the radio channel: RSSI sampling through the full
//! propagation stack.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use roomsense_building::presets;
use roomsense_geom::Point;
use roomsense_radio::{Channel, DeviceRxProfile, Environment, TransmitterProfile};
use roomsense_sim::rng;

fn bench_free_space_sample(c: &mut Criterion) {
    let channel = Channel::new(Environment::free_space());
    let tx = TransmitterProfile::default();
    let rx = DeviceRxProfile::galaxy_s3_mini();
    let mut r = rng::for_component(1, "bench-free");
    c.bench_function("channel/sample-free-space", |b| {
        b.iter(|| {
            channel.sample_rssi(
                &tx,
                black_box(Point::new(0.0, 0.0)),
                &rx,
                black_box(Point::new(3.0, 1.0)),
                &mut r,
            )
        });
    });
}

fn bench_house_sample(c: &mut Criterion) {
    // The paper house: 14 wall segments plus shadowing.
    let plan = presets::paper_house();
    let channel = Channel::new(plan.environment(1, 3.0));
    let tx = TransmitterProfile::default();
    let rx = DeviceRxProfile::galaxy_s3_mini();
    let mut r = rng::for_component(1, "bench-house");
    c.bench_function("channel/sample-paper-house", |b| {
        b.iter(|| {
            channel.sample_rssi(
                &tx,
                black_box(Point::new(2.0, 3.6)),
                &rx,
                black_box(Point::new(8.0, 6.0)),
                &mut r,
            )
        });
    });
}

fn bench_mean_rssi(c: &mut Criterion) {
    let plan = presets::office_floor();
    let channel = Channel::new(plan.environment(1, 3.0));
    let tx = TransmitterProfile::default();
    let rx = DeviceRxProfile::ideal();
    c.bench_function("channel/mean-rssi-office", |b| {
        b.iter(|| {
            channel
                .link_budget(
                    &tx,
                    black_box(Point::new(2.5, 0.4)),
                    &rx,
                    black_box(Point::new(17.0, 8.0)),
                )
                .mean_dbm
        });
    });
}

fn bench_walking_link_budget(c: &mut Criterion) {
    // One doorway advertiser's sightline table, queried from a receiver
    // that moves 1 cm per packet along a loop through the offices and the
    // corridor: every query is at a new position, so no memo can help.
    let plan = presets::office_floor();
    let channel = Channel::new(plan.environment(1, 3.0));
    let tx = TransmitterProfile::default();
    let rx = DeviceRxProfile::ideal();
    let sightlines = channel
        .environment()
        .sightlines(plan.beacon_sites()[0].position);
    let waypoints: [(f64, f64); 4] = [(1.0, 1.0), (19.0, 2.0), (18.0, 9.0), (2.0, 8.0)];
    let walk: Vec<Point> = waypoints
        .iter()
        .zip(waypoints.iter().cycle().skip(1))
        .flat_map(|(&(ax, ay), &(bx, by))| {
            let steps = (bx - ax).hypot(by - ay) / 0.01;
            (0..steps as usize).map(move |i| {
                let f = i as f64 / steps;
                Point::new(ax + (bx - ax) * f, ay + (by - ay) * f)
            })
        })
        .collect();
    let mut i = 0usize;
    c.bench_function("channel/link-budget-walking-office", |b| {
        b.iter(|| {
            i = (i + 1) % walk.len();
            channel
                .link_budget_from(&sightlines, &tx, &rx, black_box(walk[i]))
                .mean_dbm
        });
    });
}

fn bench_shadowing_field(c: &mut Criterion) {
    use roomsense_radio::shadowing::ShadowingField;
    let field = ShadowingField::new(7, 3.0, 2.5);
    let mut i = 0u64;
    c.bench_function("channel/shadowing-field", |b| {
        b.iter(|| {
            i = i.wrapping_add(1);
            field.loss_db(Point::new((i % 100) as f64 * 0.1, (i % 77) as f64 * 0.13))
        });
    });
}

criterion_group!(
    benches,
    bench_free_space_sample,
    bench_house_sample,
    bench_mean_rssi,
    bench_walking_link_budget,
    bench_shadowing_field
);
criterion_main!(benches);
