//! Training and prediction throughput of the from-scratch SVM.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use rand::Rng;
use roomsense_ml::{
    Classifier, Dataset, Kernel, KnnClassifier, SvmClassifier, SvmParams, SvmScratch,
};
use roomsense_sim::rng;

/// A five-class Gaussian-blob dataset resembling the house fingerprints.
fn blob_dataset(rows_per_class: usize, seed: u64) -> Dataset {
    let mut r = rng::for_component(seed, "bench-svm");
    let names: Vec<String> = (0..5).map(|i| format!("room{i}")).collect();
    let mut data = Dataset::new(5, names).expect("valid shape");
    let centers = [
        [1.0, 6.0, 7.0, 8.0, 9.0],
        [6.0, 1.0, 7.0, 8.0, 9.0],
        [7.0, 6.0, 1.0, 8.0, 9.0],
        [8.0, 7.0, 6.0, 1.0, 9.0],
        [9.0, 8.0, 7.0, 6.0, 1.0],
    ];
    for (label, center) in centers.iter().enumerate() {
        for _ in 0..rows_per_class {
            let row: Vec<f64> = center.iter().map(|c| c + r.gen::<f64>() * 2.0 - 1.0).collect();
            data.push(row, label).expect("valid row");
        }
    }
    data
}

fn bench_svm_fit(c: &mut Criterion) {
    let data = blob_dataset(40, 1);
    c.bench_function("svm/fit-200x5", |b| {
        b.iter_batched(
            || data.clone(),
            |d| SvmClassifier::fit(&d, &SvmParams::default()).expect("trains"),
            BatchSize::LargeInput,
        );
    });
}

fn bench_svm_fit_linear(c: &mut Criterion) {
    let data = blob_dataset(40, 1);
    let params = SvmParams {
        kernel: Kernel::Linear,
        ..SvmParams::default()
    };
    c.bench_function("svm/fit-200x5-linear", |b| {
        b.iter_batched(
            || data.clone(),
            |d| SvmClassifier::fit(&d, &params).expect("trains"),
            BatchSize::LargeInput,
        );
    });
}

fn bench_svm_predict(c: &mut Criterion) {
    let data = blob_dataset(40, 1);
    let svm = SvmClassifier::fit(&data, &SvmParams::default()).expect("trains");
    let probe = vec![1.1, 5.9, 7.2, 7.8, 9.1];
    let mut scratch = SvmScratch::default();
    c.bench_function("svm/predict", |b| {
        b.iter(|| svm.decide_into(black_box(&probe), &mut scratch));
    });
}

fn bench_knn_predict(c: &mut Criterion) {
    let data = blob_dataset(40, 1);
    let knn = KnnClassifier::fit(&data, 5).expect("fits");
    let probe = vec![1.1, 5.9, 7.2, 7.8, 9.1];
    c.bench_function("svm/knn-predict-200rows", |b| {
        b.iter(|| knn.predict(black_box(&probe)));
    });
}

criterion_group!(
    benches,
    bench_svm_fit,
    bench_svm_fit_linear,
    bench_svm_predict,
    bench_knn_predict
);
criterion_main!(benches);
