//! Support vector machines trained with Sequential Minimal Optimization.
//!
//! The paper's classifier: a soft-margin SVM with the RBF kernel
//! (Section VI, "Our implementation used Support Vector Machines with the
//! Radial Basis Function kernel"). Multi-class classification uses the
//! standard one-vs-one decomposition with majority voting, the same scheme
//! scikit-learn (the authors' toolkit) uses.

use crate::{Classifier, Dataset, Kernel};
use std::collections::HashMap;
use std::fmt;

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SvmParams {
    /// Soft-margin penalty `C > 0`.
    pub c: f64,
    /// The kernel.
    pub kernel: Kernel,
    /// KKT violation tolerance.
    pub tolerance: f64,
    /// SMO stops after this many consecutive passes without an update.
    pub max_passes: usize,
    /// Hard cap on total SMO passes (guards pathological data).
    pub max_iterations: usize,
}

impl Default for SvmParams {
    /// `C = 10`, RBF(γ = 1) — solid defaults for standardised distance
    /// features.
    fn default() -> Self {
        SvmParams {
            c: 10.0,
            kernel: Kernel::default(),
            tolerance: 1e-3,
            max_passes: 12,
            max_iterations: 800,
        }
    }
}

/// Error training an SVM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrainSvmError {
    /// The training set was empty.
    EmptyDataset,
    /// Fewer than two classes actually appear in the training rows.
    SingleClass,
}

impl fmt::Display for TrainSvmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainSvmError::EmptyDataset => write!(f, "training set is empty"),
            TrainSvmError::SingleClass => {
                write!(f, "training set contains fewer than two classes")
            }
        }
    }
}

impl std::error::Error for TrainSvmError {}

/// A precomputed kernel (Gram) matrix for one training set.
///
/// The matrix depends only on the rows and the kernel — never on the
/// soft-margin penalty `C` — so grid search computes it once per `γ` and
/// reuses it across every `C` sharing that kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct Gram {
    n: usize,
    values: Vec<f64>,
}

impl Gram {
    /// Computes the symmetric kernel matrix of `rows` under `kernel`.
    ///
    /// Pair problems are small (hundreds of rows) so O(n²) memory is the
    /// right trade.
    pub fn compute(rows: &[Vec<f64>], kernel: Kernel) -> Self {
        let n = rows.len();
        let mut values = vec![0.0f64; n * n];
        for i in 0..n {
            for j in i..n {
                let k = kernel.compute(&rows[i], &rows[j]);
                values[i * n + j] = k;
                values[j * n + i] = k;
            }
        }
        Gram { n, values }
    }

    /// Number of rows the matrix was computed over.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix is empty (zero rows).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    #[inline]
    fn at(&self, i: usize, j: usize) -> f64 {
        self.values[i * self.n + j]
    }
}

/// The decision function at training row `i` under the current `(α, b)`
/// state: `b + Σⱼ αⱼ yⱼ K(j, i)`, summed in index order.
///
/// This exact expression (same skip of zero α, same summation order) is
/// what the error cache in [`smo_solve`] memoizes, which is why cached and
/// uncached solves are bitwise identical.
fn decision_at(alphas: &[f64], targets: &[f64], gram: &Gram, b: f64, i: usize) -> f64 {
    let mut acc = b;
    for j in 0..alphas.len() {
        if alphas[j] != 0.0 {
            acc += alphas[j] * targets[j] * gram.at(j, i);
        }
    }
    acc
}

/// Simplified SMO over a precomputed Gram matrix; returns `(alphas, bias)`.
///
/// Error evaluations go through an epoch-stamped cache: committing an
/// `(αᵢ, αⱼ, b)` step bumps the epoch (an O(1) invalidation of every
/// cached value), and `f(i)` is recomputed — by [`decision_at`], in the
/// exact summation order an uncached solver uses — only the first time
/// index `i` is probed within an epoch. Because `(α, b)` are constant
/// between commits, every cache hit returns the bit-identical value a
/// fresh evaluation would have produced, so the optimisation trajectory
/// and the returned model match the uncached solver exactly. The win:
/// SMO's terminal phase is `max_passes` full sweeps with no update — one
/// epoch — which drops from O(n·|SV|) kernel-sum work per pass to O(n)
/// lookups, and every repeated probe mid-training is free.
fn smo_solve(targets: &[f64], gram: &Gram, params: &SvmParams) -> (Vec<f64>, f64) {
    let n = targets.len();
    let mut alphas = vec![0.0f64; n];
    let mut b = 0.0f64;
    // fs[i] caches decision_at(i); valid iff stamp[i] == epoch.
    let mut fs = vec![0.0f64; n];
    let mut stamp = vec![0u64; n];
    let mut epoch = 1u64;

    let mut passes = 0usize;
    let mut iterations = 0usize;
    // Deterministic second-index choice: a fixed stride derived from the
    // problem size (no RNG keeps training reproducible bit-for-bit).
    let stride = (n / 2).max(1) | 1;
    while passes < params.max_passes && iterations < params.max_iterations {
        let mut changed = 0usize;
        for i in 0..n {
            if stamp[i] != epoch {
                fs[i] = decision_at(&alphas, targets, gram, b, i);
                stamp[i] = epoch;
            }
            let e_i = fs[i] - targets[i];
            let violates = (targets[i] * e_i < -params.tolerance && alphas[i] < params.c)
                || (targets[i] * e_i > params.tolerance && alphas[i] > 0.0);
            if !violates {
                continue;
            }
            // Pick j != i deterministically.
            let j = (i + stride + iterations) % n;
            let j = if j == i { (j + 1) % n } else { j };
            if j == i {
                continue; // n == 1: nothing to pair with
            }
            if stamp[j] != epoch {
                fs[j] = decision_at(&alphas, targets, gram, b, j);
                stamp[j] = epoch;
            }
            let e_j = fs[j] - targets[j];
            let (alpha_i_old, alpha_j_old) = (alphas[i], alphas[j]);
            let (lo, hi) = if targets[i] == targets[j] {
                (
                    (alpha_i_old + alpha_j_old - params.c).max(0.0),
                    (alpha_i_old + alpha_j_old).min(params.c),
                )
            } else {
                (
                    (alpha_j_old - alpha_i_old).max(0.0),
                    (params.c + alpha_j_old - alpha_i_old).min(params.c),
                )
            };
            if (hi - lo).abs() < 1e-12 {
                continue;
            }
            let eta = 2.0 * gram.at(i, j) - gram.at(i, i) - gram.at(j, j);
            if eta >= 0.0 {
                continue;
            }
            let mut alpha_j = alpha_j_old - targets[j] * (e_i - e_j) / eta;
            alpha_j = alpha_j.clamp(lo, hi);
            if (alpha_j - alpha_j_old).abs() < 1e-7 {
                continue;
            }
            let alpha_i = alpha_i_old + targets[i] * targets[j] * (alpha_j_old - alpha_j);
            alphas[i] = alpha_i;
            alphas[j] = alpha_j;
            let b1 = b
                - e_i
                - targets[i] * (alpha_i - alpha_i_old) * gram.at(i, i)
                - targets[j] * (alpha_j - alpha_j_old) * gram.at(i, j);
            let b2 = b
                - e_j
                - targets[i] * (alpha_i - alpha_i_old) * gram.at(i, j)
                - targets[j] * (alpha_j - alpha_j_old) * gram.at(j, j);
            b = if alpha_i > 0.0 && alpha_i < params.c {
                b1
            } else if alpha_j > 0.0 && alpha_j < params.c {
                b2
            } else {
                (b1 + b2) / 2.0
            };
            changed += 1;
            // The committed step moved (α, b): everything cached is stale.
            epoch += 1;
        }
        if changed == 0 {
            passes += 1;
        } else {
            passes = 0;
        }
        iterations += 1;
    }
    (alphas, b)
}

/// A trained binary SVM: `f(x) = Σᵢ αᵢ yᵢ K(xᵢ, x) + b`, class = sign.
#[derive(Debug, Clone, PartialEq)]
pub struct BinarySvm {
    kernel: Kernel,
    support_vectors: Vec<Vec<f64>>,
    /// `αᵢ · yᵢ` for each support vector.
    coefficients: Vec<f64>,
    bias: f64,
}

impl BinarySvm {
    /// Trains on rows with labels `+1` / `-1` using simplified SMO.
    ///
    /// Takes the rows by value: support vectors are moved out, not cloned.
    ///
    /// # Panics
    ///
    /// Panics if `rows` and `targets` differ in length, or a target is not
    /// ±1.
    pub fn fit(rows: Vec<Vec<f64>>, targets: &[f64], params: &SvmParams) -> Self {
        assert_eq!(rows.len(), targets.len(), "rows/targets length mismatch");
        assert!(
            targets.iter().all(|t| *t == 1.0 || *t == -1.0),
            "targets must be +1 or -1"
        );
        let gram = Gram::compute(&rows, params.kernel);
        let (alphas, bias) = smo_solve(targets, &gram, params);
        // Keep only support vectors, moving them out of the training rows.
        let mut support_vectors = Vec::new();
        let mut coefficients = Vec::new();
        for (i, row) in rows.into_iter().enumerate() {
            if alphas[i] > 1e-9 {
                support_vectors.push(row);
                coefficients.push(alphas[i] * targets[i]);
            }
        }
        BinarySvm {
            kernel: params.kernel,
            support_vectors,
            coefficients,
            bias,
        }
    }

    /// Trains against a Gram matrix precomputed by [`Gram::compute`] over
    /// exactly these `rows` under `params.kernel`.
    ///
    /// This is the grid-search path: one matrix per `(fold, pair, γ)`
    /// serves every `C`. Only the support vectors are cloned out of the
    /// borrowed rows.
    ///
    /// # Panics
    ///
    /// Panics under [`BinarySvm::fit`]'s conditions, or if `gram` was not
    /// computed over `rows.len()` rows.
    pub fn fit_with_gram(
        rows: &[Vec<f64>],
        targets: &[f64],
        gram: &Gram,
        params: &SvmParams,
    ) -> Self {
        assert_eq!(rows.len(), targets.len(), "rows/targets length mismatch");
        assert_eq!(gram.len(), rows.len(), "gram/rows size mismatch");
        assert!(
            targets.iter().all(|t| *t == 1.0 || *t == -1.0),
            "targets must be +1 or -1"
        );
        let (alphas, bias) = smo_solve(targets, gram, params);
        let mut support_vectors = Vec::new();
        let mut coefficients = Vec::new();
        for (i, alpha) in alphas.iter().enumerate() {
            if *alpha > 1e-9 {
                support_vectors.push(rows[i].clone());
                coefficients.push(alpha * targets[i]);
            }
        }
        BinarySvm {
            kernel: params.kernel,
            support_vectors,
            coefficients,
            bias,
        }
    }

    /// The pre-error-cache reference solver: recomputes the full decision
    /// function for every error evaluation.
    ///
    /// Kept for the bitwise regression test and the `repro bench`
    /// error-cache measurement; not a public API.
    #[doc(hidden)]
    pub fn fit_uncached(rows: &[Vec<f64>], targets: &[f64], params: &SvmParams) -> Self {
        assert_eq!(rows.len(), targets.len(), "rows/targets length mismatch");
        assert!(
            targets.iter().all(|t| *t == 1.0 || *t == -1.0),
            "targets must be +1 or -1"
        );
        let n = rows.len();
        let gram = Gram::compute(rows, params.kernel);
        let mut alphas = vec![0.0f64; n];
        let mut b = 0.0f64;
        let mut passes = 0usize;
        let mut iterations = 0usize;
        let stride = (n / 2).max(1) | 1;
        while passes < params.max_passes && iterations < params.max_iterations {
            let mut changed = 0usize;
            for i in 0..n {
                let e_i = decision_at(&alphas, targets, &gram, b, i) - targets[i];
                let violates = (targets[i] * e_i < -params.tolerance && alphas[i] < params.c)
                    || (targets[i] * e_i > params.tolerance && alphas[i] > 0.0);
                if !violates {
                    continue;
                }
                let j = (i + stride + iterations) % n;
                let j = if j == i { (j + 1) % n } else { j };
                if j == i {
                    continue;
                }
                let e_j = decision_at(&alphas, targets, &gram, b, j) - targets[j];
                let (alpha_i_old, alpha_j_old) = (alphas[i], alphas[j]);
                let (lo, hi) = if targets[i] == targets[j] {
                    (
                        (alpha_i_old + alpha_j_old - params.c).max(0.0),
                        (alpha_i_old + alpha_j_old).min(params.c),
                    )
                } else {
                    (
                        (alpha_j_old - alpha_i_old).max(0.0),
                        (params.c + alpha_j_old - alpha_i_old).min(params.c),
                    )
                };
                if (hi - lo).abs() < 1e-12 {
                    continue;
                }
                let eta = 2.0 * gram.at(i, j) - gram.at(i, i) - gram.at(j, j);
                if eta >= 0.0 {
                    continue;
                }
                let mut alpha_j = alpha_j_old - targets[j] * (e_i - e_j) / eta;
                alpha_j = alpha_j.clamp(lo, hi);
                if (alpha_j - alpha_j_old).abs() < 1e-7 {
                    continue;
                }
                let alpha_i = alpha_i_old + targets[i] * targets[j] * (alpha_j_old - alpha_j);
                alphas[i] = alpha_i;
                alphas[j] = alpha_j;
                let b1 = b
                    - e_i
                    - targets[i] * (alpha_i - alpha_i_old) * gram.at(i, i)
                    - targets[j] * (alpha_j - alpha_j_old) * gram.at(i, j);
                let b2 = b
                    - e_j
                    - targets[i] * (alpha_i - alpha_i_old) * gram.at(i, j)
                    - targets[j] * (alpha_j - alpha_j_old) * gram.at(j, j);
                b = if alpha_i > 0.0 && alpha_i < params.c {
                    b1
                } else if alpha_j > 0.0 && alpha_j < params.c {
                    b2
                } else {
                    (b1 + b2) / 2.0
                };
                changed += 1;
            }
            if changed == 0 {
                passes += 1;
            } else {
                passes = 0;
            }
            iterations += 1;
        }
        let mut support_vectors = Vec::new();
        let mut coefficients = Vec::new();
        for i in 0..n {
            if alphas[i] > 1e-9 {
                support_vectors.push(rows[i].clone());
                coefficients.push(alphas[i] * targets[i]);
            }
        }
        BinarySvm {
            kernel: params.kernel,
            support_vectors,
            coefficients,
            bias: b,
        }
    }

    /// The signed decision value; positive predicts class `+1`.
    pub fn decision(&self, x: &[f64]) -> f64 {
        let mut acc = self.bias;
        for (sv, coeff) in self.support_vectors.iter().zip(&self.coefficients) {
            acc += coeff * self.kernel.compute(sv, x);
        }
        acc
    }

    /// Number of support vectors retained.
    pub fn support_vector_count(&self) -> usize {
        self.support_vectors.len()
    }
}

/// One one-vs-one subproblem of a dataset: the rows of classes `a` and
/// `b` with ±1 targets. Independent of every hyper-parameter, so grid
/// search builds these once per fold and reuses them across the grid.
pub(crate) struct PairSplit {
    pub(crate) a: usize,
    pub(crate) b: usize,
    pub(crate) rows: Vec<Vec<f64>>,
    pub(crate) targets: Vec<f64>,
}

/// Splits a dataset into its one-vs-one pair subproblems over the classes
/// that actually appear, in ascending `(a, b)` order.
pub(crate) fn pair_splits(data: &Dataset) -> Result<Vec<PairSplit>, TrainSvmError> {
    if data.is_empty() {
        return Err(TrainSvmError::EmptyDataset);
    }
    let histogram = data.class_histogram();
    let present: Vec<usize> = (0..data.class_count())
        .filter(|c| histogram[*c] > 0)
        .collect();
    if present.len() < 2 {
        return Err(TrainSvmError::SingleClass);
    }
    let mut splits = Vec::new();
    for (pi, &a) in present.iter().enumerate() {
        for &b in &present[pi + 1..] {
            let mut rows = Vec::new();
            let mut targets = Vec::new();
            for (row, label) in data.rows().iter().zip(data.labels()) {
                if *label == a {
                    rows.push(row.clone());
                    targets.push(1.0);
                } else if *label == b {
                    rows.push(row.clone());
                    targets.push(-1.0);
                }
            }
            splits.push(PairSplit { a, b, rows, targets });
        }
    }
    Ok(splits)
}

/// A one-vs-one multiclass SVM.
///
/// Trains one [`BinarySvm`] per class pair and predicts by majority vote,
/// breaking ties by summed decision margins.
///
/// `pair_splits` clones each class's rows into every machine that involves
/// the class, so one support-vector row can appear in up to `k − 1` of the
/// pairwise machines. Construction moves every machine's support vectors
/// into one table deduped by `f64` bit pattern, and each machine keeps its
/// `(coefficient, row index)` refs in the original support-vector order.
/// A prediction evaluates the kernel once per unique row, then every
/// machine accumulates `bias + Σ coeff · k` in that order. A shared kernel
/// value is the identical `f64` a per-machine [`BinarySvm::decision`] would
/// recompute, and the summation order is unchanged, so votes, margins and
/// the tie-break are bit-for-bit those of the per-machine evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct SvmClassifier {
    class_count: usize,
    kernel: Kernel,
    /// Distinct support-vector rows across every machine.
    rows: Vec<Vec<f64>>,
    machines: Vec<PairMachine>,
}

/// One pairwise machine over the shared row table. Positive decisions vote
/// for `a`; `a < b`.
#[derive(Debug, Clone, PartialEq)]
struct PairMachine {
    a: usize,
    b: usize,
    bias: f64,
    /// `(αᵢ · yᵢ, row index)` in the machine's support-vector order.
    refs: Vec<(f64, usize)>,
}

impl SvmClassifier {
    /// Trains on a labelled dataset.
    ///
    /// Pairs in which one class has no rows are skipped; prediction still
    /// works over the remaining machines.
    ///
    /// # Errors
    ///
    /// [`TrainSvmError::EmptyDataset`] and [`TrainSvmError::SingleClass`].
    pub fn fit(data: &Dataset, params: &SvmParams) -> Result<Self, TrainSvmError> {
        let machines = pair_splits(data)?
            .into_iter()
            .map(|p| (p.a, p.b, BinarySvm::fit(p.rows, &p.targets, params)))
            .collect();
        Ok(SvmClassifier::from_machines(data.class_count(), machines))
    }

    /// Assembles a classifier from trained pair machines `(a, b, machine)`
    /// sharing one kernel, moving their support vectors into the deduped
    /// row table. Grid search uses this directly, since it shares Gram
    /// matrices across fits.
    pub(crate) fn from_machines(
        class_count: usize,
        machines: Vec<(usize, usize, BinarySvm)>,
    ) -> Self {
        let kernel = machines
            .first()
            .map_or_else(Kernel::default, |m| m.2.kernel);
        let mut rows: Vec<Vec<f64>> = Vec::new();
        // Bit patterns, not numeric equality: -0.0 and 0.0 must stay
        // distinct or Linear-kernel sums could differ in sign.
        let mut index: HashMap<Vec<u64>, usize> = HashMap::new();
        let mut pair_machines = Vec::with_capacity(machines.len());
        for (a, b, svm) in machines {
            debug_assert_eq!(svm.kernel, kernel, "pair machines share one kernel");
            let mut refs = Vec::with_capacity(svm.coefficients.len());
            for (row, coeff) in svm.support_vectors.into_iter().zip(svm.coefficients) {
                let bits = row.iter().map(|x| x.to_bits()).collect();
                let idx = *index.entry(bits).or_insert_with(|| {
                    rows.push(row);
                    rows.len() - 1
                });
                refs.push((coeff, idx));
            }
            pair_machines.push(PairMachine {
                a,
                b,
                bias: svm.bias,
                refs,
            });
        }
        SvmClassifier {
            class_count,
            kernel,
            rows,
            machines: pair_machines,
        }
    }

    /// Number of pairwise machines.
    pub fn machine_count(&self) -> usize {
        self.machines.len()
    }
}

impl Classifier for SvmClassifier {
    fn predict(&self, features: &[f64]) -> usize {
        let values: Vec<f64> = self
            .rows
            .iter()
            .map(|row| self.kernel.compute(row, features))
            .collect();
        let mut votes = vec![0usize; self.class_count];
        let mut margins = vec![0.0f64; self.class_count];
        for machine in &self.machines {
            let mut d = machine.bias;
            for (coeff, idx) in &machine.refs {
                d += coeff * values[*idx];
            }
            if d >= 0.0 {
                votes[machine.a] += 1;
            } else {
                votes[machine.b] += 1;
            }
            margins[machine.a] += d;
            margins[machine.b] -= d;
        }
        let best_votes = *votes.iter().max().expect("at least one machine");
        (0..self.class_count)
            .filter(|c| votes[*c] == best_votes)
            .max_by(|x, y| {
                margins[*x]
                    .partial_cmp(&margins[*y])
                    .expect("finite margins")
            })
            .expect("at least one class has max votes")
    }

    fn name(&self) -> &'static str {
        "svm"
    }
}

impl fmt::Display for SvmClassifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "one-vs-one svm: {} machines over {} classes",
            self.machines.len(),
            self.class_count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_free_dataset() -> Dataset {
        // Two linearly separable blobs.
        let mut d = Dataset::new(2, vec!["neg".into(), "pos".into()]).expect("valid");
        for i in 0..20 {
            let t = f64::from(i) * 0.05;
            d.push(vec![-2.0 - t, -2.0 + t], 0).expect("row");
            d.push(vec![2.0 + t, 2.0 - t], 1).expect("row");
        }
        d
    }

    fn ring_dataset() -> Dataset {
        // Class 0: inner cluster; class 1: ring around it. Only separable
        // with a nonlinear kernel.
        let mut d = Dataset::new(2, vec!["inner".into(), "ring".into()]).expect("valid");
        for i in 0..24 {
            let angle = f64::from(i) * std::f64::consts::TAU / 24.0;
            d.push(vec![0.3 * angle.cos(), 0.3 * angle.sin()], 0)
                .expect("row");
            d.push(vec![2.0 * angle.cos(), 2.0 * angle.sin()], 1)
                .expect("row");
        }
        d
    }

    #[test]
    fn separable_blobs_classified_perfectly() {
        let d = xor_free_dataset();
        let svm = SvmClassifier::fit(&d, &SvmParams::default()).expect("trains");
        for (row, label) in d.rows().iter().zip(d.labels()) {
            assert_eq!(svm.predict(row), *label);
        }
    }

    #[test]
    fn rbf_solves_the_ring() {
        let d = ring_dataset();
        let params = SvmParams {
            kernel: Kernel::Rbf { gamma: 1.0 },
            ..SvmParams::default()
        };
        let svm = SvmClassifier::fit(&d, &params).expect("trains");
        let correct = d
            .rows()
            .iter()
            .zip(d.labels())
            .filter(|(row, label)| svm.predict(row) == **label)
            .count();
        assert_eq!(correct, d.len(), "rbf should nail the ring");
    }

    #[test]
    fn linear_kernel_fails_the_ring() {
        let d = ring_dataset();
        let params = SvmParams {
            kernel: Kernel::Linear,
            ..SvmParams::default()
        };
        let svm = SvmClassifier::fit(&d, &params).expect("trains");
        let correct = d
            .rows()
            .iter()
            .zip(d.labels())
            .filter(|(row, label)| svm.predict(row) == **label)
            .count();
        // A linear boundary cannot enclose the inner cluster.
        assert!(correct < d.len(), "linear kernel cannot be perfect here");
    }

    #[test]
    fn three_class_one_vs_one() {
        let mut d =
            Dataset::new(2, vec!["a".into(), "b".into(), "c".into()]).expect("valid");
        for i in 0..15 {
            let t = f64::from(i) * 0.02;
            d.push(vec![0.0 + t, 0.0], 0).expect("row");
            d.push(vec![4.0 + t, 0.0], 1).expect("row");
            d.push(vec![2.0 + t, 4.0], 2).expect("row");
        }
        let svm = SvmClassifier::fit(&d, &SvmParams::default()).expect("trains");
        assert_eq!(svm.machine_count(), 3);
        assert_eq!(svm.predict(&[0.1, 0.1]), 0);
        assert_eq!(svm.predict(&[4.1, 0.1]), 1);
        assert_eq!(svm.predict(&[2.1, 4.1]), 2);
    }

    #[test]
    fn missing_class_is_skipped_not_fatal() {
        let mut d =
            Dataset::new(1, vec!["a".into(), "b".into(), "ghost".into()]).expect("valid");
        for i in 0..10 {
            d.push(vec![f64::from(i)], 0).expect("row");
            d.push(vec![f64::from(i) + 100.0], 1).expect("row");
        }
        let svm = SvmClassifier::fit(&d, &SvmParams::default()).expect("trains");
        assert_eq!(svm.machine_count(), 1);
        assert_eq!(svm.predict(&[1.0]), 0);
        assert_eq!(svm.predict(&[101.0]), 1);
    }

    #[test]
    fn empty_and_single_class_rejected() {
        let d = Dataset::new(1, vec!["a".into(), "b".into()]).expect("valid");
        assert_eq!(
            SvmClassifier::fit(&d, &SvmParams::default()),
            Err(TrainSvmError::EmptyDataset)
        );
        let mut d2 = Dataset::new(1, vec!["a".into(), "b".into()]).expect("valid");
        d2.push(vec![1.0], 0).expect("row");
        assert_eq!(
            SvmClassifier::fit(&d2, &SvmParams::default()),
            Err(TrainSvmError::SingleClass)
        );
    }

    #[test]
    fn training_is_deterministic() {
        let d = ring_dataset();
        let a = SvmClassifier::fit(&d, &SvmParams::default()).expect("trains");
        let b = SvmClassifier::fit(&d, &SvmParams::default()).expect("trains");
        assert_eq!(a, b);
    }

    #[test]
    fn decision_sign_matches_prediction() {
        let d = xor_free_dataset();
        let rows = d.rows();
        let targets: Vec<f64> = d
            .labels()
            .iter()
            .map(|l| if *l == 0 { 1.0 } else { -1.0 })
            .collect();
        let bin = BinarySvm::fit(rows.to_vec(), &targets, &SvmParams::default());
        assert!(bin.support_vector_count() > 0);
        assert!(bin.decision(&[-2.0, -2.0]) > 0.0);
        assert!(bin.decision(&[2.0, 2.0]) < 0.0);
    }

    /// The error cache must be invisible: on the ring and blob fixtures the
    /// cached solver reproduces the pre-change (uncached) model bit for
    /// bit — same support vectors, same coefficients, same bias.
    #[test]
    fn error_cache_reproduces_uncached_model_bitwise() {
        for (data, params) in [
            (xor_free_dataset(), SvmParams::default()),
            (
                ring_dataset(),
                SvmParams {
                    kernel: Kernel::Rbf { gamma: 1.0 },
                    ..SvmParams::default()
                },
            ),
            (
                ring_dataset(),
                SvmParams {
                    kernel: Kernel::Linear,
                    ..SvmParams::default()
                },
            ),
        ] {
            for split in pair_splits(&data).expect("two classes") {
                let reference = BinarySvm::fit_uncached(&split.rows, &split.targets, &params);
                let cached = BinarySvm::fit(split.rows.clone(), &split.targets, &params);
                assert_eq!(cached, reference, "cached fit drifted from reference");
                let gram = Gram::compute(&split.rows, params.kernel);
                let shared = BinarySvm::fit_with_gram(&split.rows, &split.targets, &gram, &params);
                assert_eq!(shared, reference, "gram-sharing fit drifted from reference");
            }
        }
    }

    /// 3 classes ⇒ every class row is cloned into 2 machines, so the
    /// shared table holds fewer rows than the machines reference.
    #[test]
    fn one_vs_one_machines_share_support_vector_rows() {
        let mut d = Dataset::new(2, vec!["a".into(), "b".into(), "c".into()]).expect("valid");
        for i in 0..15 {
            let t = f64::from(i) * 0.02;
            d.push(vec![0.0 + t, 0.0], 0).expect("row");
            d.push(vec![4.0 + t, 0.0], 1).expect("row");
            d.push(vec![2.0 + t, 4.0], 2).expect("row");
        }
        let svm = SvmClassifier::fit(&d, &SvmParams::default()).expect("trains");
        let references: usize = svm.machines.iter().map(|m| m.refs.len()).sum();
        assert!(
            svm.rows.len() < references,
            "3-class one-vs-one must share support-vector rows"
        );
    }

    #[test]
    fn soft_margin_tolerates_label_noise() {
        let mut d = xor_free_dataset();
        // One mislabelled point must not destroy the classifier.
        d.push(vec![-2.0, -2.0], 1).expect("row");
        let svm = SvmClassifier::fit(&d, &SvmParams::default()).expect("trains");
        assert_eq!(svm.predict(&[-2.5, -1.5]), 0);
        assert_eq!(svm.predict(&[2.5, 1.5]), 1);
    }
}
