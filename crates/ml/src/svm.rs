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

/// Rows per lane of [`SvmClassifier`]'s transposed row table.
const LANE: usize = 4;

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
/// The table is stored transposed, four rows to a lane, so one pass
/// over the features computes a lane's sums side by side; each row's sum
/// still adds its terms in dimension order from the start value
/// `Iterator::sum` uses, so every kernel value is the identical `f64`
/// [`Kernel::compute`] returns. A prediction evaluates the kernel once per
/// unique row, then every machine accumulates `bias + Σ coeff · k` in its
/// ref order, so votes, margins and the tie-break are bit-for-bit those of
/// evaluating each [`BinarySvm`] on its own.
#[derive(Debug, Clone, PartialEq)]
pub struct SvmClassifier {
    class_count: usize,
    kernel: Kernel,
    /// Feature width of every row.
    dim: usize,
    /// Distinct support-vector rows across every machine.
    row_count: usize,
    /// The rows transposed: `lanes[lane * dim + d][j]` is feature `d` of
    /// row `lane * LANE + j`. The last lane is padded with zero rows.
    lanes: Vec<[f64; LANE]>,
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

/// Caller-owned buffers for [`SvmClassifier::decide_into`]: one kernel
/// value per unique row, and the votes and summed margins per class. Reusing
/// one scratch across predictions makes a prediction allocation-free once
/// the buffers have grown to the model's size.
#[derive(Debug, Clone, Default)]
pub struct SvmScratch {
    values: Vec<f64>,
    votes: Vec<usize>,
    margins: Vec<f64>,
}

impl SvmScratch {
    /// The summed decision margin of each class from the last
    /// [`decide_into`](SvmClassifier::decide_into): every machine adds its
    /// decision value to class `a` and subtracts it from class `b`.
    pub fn margins(&self) -> &[f64] {
        &self.margins
    }
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
        Ok(SvmClassifier::from_machines(data, machines))
    }

    /// Assembles a classifier for `data`'s classes and feature width from
    /// trained pair machines `(a, b, machine)` sharing one kernel, moving
    /// their support vectors into the deduped row table. Grid search uses
    /// this directly, since it shares Gram matrices across fits.
    pub(crate) fn from_machines(data: &Dataset, machines: Vec<(usize, usize, BinarySvm)>) -> Self {
        let dim = data.dimension();
        let kernel = machines
            .first()
            .map_or_else(Kernel::default, |m| m.2.kernel);
        let mut row_count = 0;
        let mut lanes: Vec<[f64; LANE]> = Vec::new();
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
                    let (lane, j) = (row_count / LANE, row_count % LANE);
                    if j == 0 {
                        lanes.resize((lane + 1) * dim, [0.0; LANE]);
                    }
                    for (d, x) in row.iter().enumerate() {
                        lanes[lane * dim + d][j] = *x;
                    }
                    row_count += 1;
                    row_count - 1
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
            class_count: data.class_count(),
            kernel,
            dim,
            row_count,
            lanes,
            machines: pair_machines,
        }
    }

    /// Number of pairwise machines.
    pub fn machine_count(&self) -> usize {
        self.machines.len()
    }

    /// Predicts the class of `features` into `scratch`, which afterwards
    /// also holds every class's summed margin
    /// ([`SvmScratch::margins`]).
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from the training width.
    pub fn decide_into(&self, features: &[f64], scratch: &mut SvmScratch) -> usize {
        assert_eq!(
            features.len(),
            self.dim,
            "feature width {} does not match the model's {}",
            features.len(),
            self.dim
        );
        let SvmScratch {
            values,
            votes,
            margins,
        } = scratch;
        match self.kernel {
            Kernel::Linear => self.lane_sums(features, values, |r, x| r * x),
            Kernel::Rbf { gamma } => {
                self.lane_sums(features, values, |r, x| (r - x) * (r - x));
                for v in values.iter_mut() {
                    *v = (-gamma * *v).exp();
                }
            }
        }
        votes.clear();
        votes.resize(self.class_count, 0);
        margins.clear();
        margins.resize(self.class_count, 0.0);
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

    /// Fills `values` with `Σ_d term(row[d], features[d])` for every row,
    /// one lane of rows at a time. Each sum starts at `-0.0`, the start
    /// value of `Iterator::sum::<f64>`, and adds its terms in dimension
    /// order, exactly as [`Kernel::compute`] does.
    #[inline]
    fn lane_sums(&self, features: &[f64], values: &mut Vec<f64>, term: impl Fn(f64, f64) -> f64) {
        values.clear();
        for lane in self.lanes.chunks_exact(self.dim) {
            let mut acc = [-0.0f64; LANE];
            for (column, x) in lane.iter().zip(features) {
                for (a, r) in acc.iter_mut().zip(column) {
                    *a += term(*r, *x);
                }
            }
            values.extend_from_slice(&acc);
        }
        values.truncate(self.row_count);
    }
}

impl Classifier for SvmClassifier {
    fn predict(&self, features: &[f64]) -> usize {
        self.decide_into(features, &mut SvmScratch::default())
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
    use proptest::prelude::*;

    /// The pre-error-cache reference solver, the oracle of
    /// `error_cache_reproduces_uncached_model_bitwise`: recomputes the full
    /// decision function for every error evaluation.
    fn fit_uncached(rows: &[Vec<f64>], targets: &[f64], params: &SvmParams) -> BinarySvm {
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

    /// The row-at-a-time prediction the lane table replaced: each unique
    /// row's kernel value through [`Kernel::compute`], then the machines'
    /// vote. Returns the class, every row's kernel value and every class's
    /// summed margin.
    fn row_table_oracle(svm: &SvmClassifier, features: &[f64]) -> (usize, Vec<f64>, Vec<f64>) {
        let values: Vec<f64> = (0..svm.row_count)
            .map(|i| {
                let row: Vec<f64> = (0..svm.dim)
                    .map(|d| svm.lanes[(i / LANE) * svm.dim + d][i % LANE])
                    .collect();
                svm.kernel.compute(&row, features)
            })
            .collect();
        let mut votes = vec![0usize; svm.class_count];
        let mut margins = vec![0.0f64; svm.class_count];
        for machine in &svm.machines {
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
        let class = (0..svm.class_count)
            .filter(|c| votes[*c] == best_votes)
            .max_by(|x, y| {
                margins[*x]
                    .partial_cmp(&margins[*y])
                    .expect("finite margins")
            })
            .expect("at least one class has max votes");
        (class, values, margins)
    }

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
                let reference = fit_uncached(&split.rows, &split.targets, &params);
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
            svm.row_count < references,
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

    /// A feature row wider than the model must panic, not have its extra
    /// features dropped by the zip over a lane's columns.
    #[test]
    #[should_panic(expected = "does not match the model")]
    fn wider_feature_row_panics() {
        let svm = SvmClassifier::fit(&xor_free_dataset(), &SvmParams::default()).expect("trains");
        let _ = svm.predict(&[2.0, 2.0, 2.0]);
    }

    /// One scratch serves models of different sizes: each call resizes the
    /// buffers to the model it runs.
    #[test]
    fn scratch_is_reused_across_models() {
        let mut three = Dataset::new(2, vec!["a".into(), "b".into(), "c".into()]).expect("valid");
        for i in 0..15 {
            let t = f64::from(i) * 0.02;
            three.push(vec![0.0 + t, 0.0], 0).expect("row");
            three.push(vec![4.0 + t, 0.0], 1).expect("row");
            three.push(vec![2.0 + t, 4.0], 2).expect("row");
        }
        let big = SvmClassifier::fit(&three, &SvmParams::default()).expect("trains");
        let small = SvmClassifier::fit(&xor_free_dataset(), &SvmParams::default()).expect("trains");
        let mut scratch = SvmScratch::default();
        for (svm, probe) in [(&big, [4.1, 0.1]), (&small, [2.0, 2.0]), (&big, [0.1, 0.1])] {
            let class = svm.decide_into(&probe, &mut scratch);
            let (expected, _, margins) = row_table_oracle(svm, &probe);
            assert_eq!(class, expected);
            assert_eq!(scratch.margins().len(), svm.class_count);
            let bits = |m: &[f64]| m.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(scratch.margins()), bits(&margins));
        }
    }

    /// Feature values for the lane property: duplicates are common and
    /// both signed zeros appear.
    const PALETTE: [f64; 7] = [-1.0, -0.0, 0.0, 0.25, 0.5, 1.0, 2.0];

    proptest! {
        /// The lane table predicts exactly like the row-at-a-time oracle,
        /// class and every margin bit for bit, over widths 1–11 and row
        /// counts that leave the last lane partly filled, under both
        /// kernels, with one scratch reused across every query.
        #[test]
        fn lanes_predict_like_the_row_table_oracle(
            rows in prop::collection::vec(
                (0usize..4, prop::collection::vec(0usize..PALETTE.len(), 11..12)),
                2..48,
            ),
            dims in 1usize..12,
            linear in any::<bool>(),
            gamma in 0.05f64..2.0,
            queries in prop::collection::vec(prop::collection::vec(-2.0f64..3.0, 11..12), 1..6),
        ) {
            let names = (0..4).map(|c| format!("c{c}")).collect();
            let mut data = Dataset::new(dims, names).expect("valid");
            for (i, (label, cells)) in rows.iter().enumerate() {
                // The first two rows pin two distinct classes.
                let label = if i < 2 { i } else { *label };
                data.push(cells[..dims].iter().map(|c| PALETTE[*c]).collect(), label)
                    .expect("row");
            }
            let params = SvmParams {
                kernel: if linear { Kernel::Linear } else { Kernel::Rbf { gamma } },
                ..SvmParams::default()
            };
            let svm = SvmClassifier::fit(&data, &params).expect("two classes present");
            prop_assert_eq!(svm.lanes.len(), svm.row_count.div_ceil(LANE) * dims);
            let mut scratch = SvmScratch::default();
            let random = queries.iter().map(|q| q[..dims].to_vec());
            let bits = |m: &[f64]| m.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for query in data.rows().iter().cloned().chain(random) {
                let (class, values, margins) = row_table_oracle(&svm, &query);
                prop_assert_eq!(svm.decide_into(&query, &mut scratch), class);
                prop_assert_eq!(bits(&scratch.values), bits(&values));
                prop_assert_eq!(bits(scratch.margins()), bits(&margins));
            }
        }
    }
}
