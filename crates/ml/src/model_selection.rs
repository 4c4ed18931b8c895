//! Hyper-parameter selection: grid search with k-fold cross-validation.
//!
//! The paper takes its SVM setup from RedPin ("as suggested by" its ref 12);
//! a real
//! deployment re-tunes `C` and `γ` per building. This module provides the
//! standard grid search so downstream users do not hand-roll it.

use crate::svm::{pair_splits, PairSplit};
use crate::{k_fold, BinarySvm, Dataset, Gram, Kernel, SvmClassifier, SvmParams, SvmScratch};
use rand::Rng;
use roomsense_sim::exec;
use std::fmt;

/// One evaluated grid point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridPoint {
    /// Soft-margin penalty evaluated.
    pub c: f64,
    /// RBF width evaluated.
    pub gamma: f64,
    /// Mean cross-validated accuracy.
    pub mean_accuracy: f64,
}

impl fmt::Display for GridPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "C={:<6} gamma={:<6} acc={:.3}",
            self.c, self.gamma, self.mean_accuracy
        )
    }
}

/// The outcome of a grid search.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSearchResult {
    /// Every grid point, in evaluation order.
    pub points: Vec<GridPoint>,
    /// The winning parameters.
    pub(crate) best: SvmParams,
}

impl GridSearchResult {
    /// The best point found.
    pub fn best_point(&self) -> GridPoint {
        *self
            .points
            .iter()
            .max_by(|a, b| {
                a.mean_accuracy
                    .partial_cmp(&b.mean_accuracy)
                    .expect("accuracies are finite")
            })
            .expect("grid is non-empty by construction")
    }
}

/// Cross-validated grid search over `(C, γ)` for the RBF SVM.
///
/// Evaluates every pair from `cs` × `gammas` with `folds`-fold
/// cross-validation and returns all points plus the winner. Folds that fail
/// to train (degenerate class splits) score zero rather than aborting.
///
/// # Panics
///
/// Panics if `cs` or `gammas` is empty, or under [`k_fold`]'s conditions.
///
/// # Examples
///
/// ```
/// use roomsense_ml::{grid_search, Dataset};
/// use roomsense_sim::rng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut data = Dataset::new(1, vec!["a".into(), "b".into()])?;
/// for i in 0..20 {
///     data.push(vec![f64::from(i)], usize::from(i >= 10))?;
/// }
/// let mut r = rng::for_component(1, "grid-doc");
/// let result = grid_search(&data, &[1.0, 10.0], &[0.1, 1.0], 4, &mut r);
/// assert_eq!(result.points.len(), 4);
/// assert!(result.best_point().mean_accuracy > 0.9);
/// # Ok(())
/// # }
/// ```
pub fn grid_search<R: Rng + ?Sized>(
    data: &Dataset,
    cs: &[f64],
    gammas: &[f64],
    folds: usize,
    rng: &mut R,
) -> GridSearchResult {
    assert!(
        !cs.is_empty() && !gammas.is_empty(),
        "grid must be non-empty"
    );
    let fold_sets = k_fold(data, folds, rng);
    // The one-vs-one pair subproblems of each fold depend on neither C nor
    // γ; build them once. A degenerate fold (empty / single-class train
    // split) scores zero at every grid point, as before.
    let fold_pairs: Vec<Option<Vec<PairSplit>>> = fold_sets
        .iter()
        .map(|(train, _)| pair_splits(train).ok())
        .collect();

    // One parallel task per (γ, fold): the task computes each pair's Gram
    // matrix for that kernel once and sweeps every C against it, so the
    // O(n²·d) kernel work is paid |γ|·folds times instead of
    // |C|·|γ|·folds times. Tasks are pure functions of their index, so the
    // fan-out is bit-for-bit identical to a sequential evaluation.
    let tasks: Vec<(usize, usize)> = (0..gammas.len())
        .flat_map(|gi| (0..fold_sets.len()).map(move |fi| (gi, fi)))
        .collect();
    let accuracies: Vec<Vec<f64>> = exec::par_map_indexed(&tasks, |_, &(gi, fi)| {
        let kernel = Kernel::Rbf { gamma: gammas[gi] };
        let (_, val) = &fold_sets[fi];
        let Some(pairs) = &fold_pairs[fi] else {
            return vec![0.0; cs.len()];
        };
        let grams: Vec<Gram> = pairs
            .iter()
            .map(|p| Gram::compute(&p.rows, kernel))
            .collect();
        let mut scratch = SvmScratch::default();
        cs.iter()
            .map(|&c| {
                let params = SvmParams {
                    c,
                    kernel,
                    ..SvmParams::default()
                };
                let machines = pairs
                    .iter()
                    .zip(&grams)
                    .map(|(p, gram)| {
                        (
                            p.a,
                            p.b,
                            BinarySvm::fit_with_gram(&p.rows, &p.targets, gram, &params),
                        )
                    })
                    .collect();
                let svm = SvmClassifier::from_machines(data, machines);
                if val.is_empty() {
                    0.0
                } else {
                    let correct = val
                        .rows()
                        .iter()
                        .zip(val.labels())
                        .filter(|(row, label)| svm.decide_into(row, &mut scratch) == **label)
                        .count();
                    correct as f64 / val.len() as f64
                }
            })
            .collect()
    });

    // Reassemble in the original evaluation order (C outer, γ inner),
    // summing folds in fold order — the identical additions, in the
    // identical order, the sequential nesting performed.
    let mut points = Vec::with_capacity(cs.len() * gammas.len());
    for (ci, &c) in cs.iter().enumerate() {
        for (gi, &gamma) in gammas.iter().enumerate() {
            let mut total = 0.0;
            for fi in 0..fold_sets.len() {
                total += accuracies[gi * fold_sets.len() + fi][ci];
            }
            points.push(GridPoint {
                c,
                gamma,
                mean_accuracy: total / fold_sets.len() as f64,
            });
        }
    }
    let best_point = points
        .iter()
        .max_by(|a, b| {
            a.mean_accuracy
                .partial_cmp(&b.mean_accuracy)
                .expect("accuracies are finite")
        })
        .expect("grid is non-empty");
    GridSearchResult {
        best: SvmParams {
            c: best_point.c,
            kernel: Kernel::Rbf {
                gamma: best_point.gamma,
            },
            ..SvmParams::default()
        },
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roomsense_sim::rng;

    fn blobs() -> Dataset {
        let mut d = Dataset::new(2, vec!["a".into(), "b".into()]).expect("valid");
        for i in 0..24 {
            let t = f64::from(i) * 0.1;
            d.push(vec![0.0 + t, 0.0], 0).expect("row");
            d.push(vec![5.0 + t, 5.0], 1).expect("row");
        }
        d
    }

    #[test]
    fn grid_covers_all_pairs() {
        let mut r = rng::for_component(1, "grid");
        let result = grid_search(&blobs(), &[0.1, 1.0, 10.0], &[0.01, 1.0], 4, &mut r);
        assert_eq!(result.points.len(), 6);
    }

    #[test]
    fn best_point_is_the_maximum() {
        let mut r = rng::for_component(2, "grid");
        let result = grid_search(&blobs(), &[0.1, 10.0], &[0.01, 0.5], 4, &mut r);
        let best = result.best_point();
        for p in &result.points {
            assert!(p.mean_accuracy <= best.mean_accuracy);
        }
        // The winning params carry over into `best`.
        assert_eq!(result.best.c, best.c);
    }

    #[test]
    fn easy_problem_scores_high() {
        let mut r = rng::for_component(3, "grid");
        let result = grid_search(&blobs(), &[1.0, 10.0], &[0.1, 1.0], 4, &mut r);
        assert!(result.best_point().mean_accuracy > 0.95);
    }

    #[test]
    fn search_is_deterministic_per_seed() {
        let run = || {
            let mut r = rng::for_component(4, "grid-det");
            grid_search(&blobs(), &[1.0, 10.0], &[0.1, 1.0], 3, &mut r)
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_grid_panics() {
        let mut r = rng::for_component(5, "grid");
        let _ = grid_search(&blobs(), &[], &[1.0], 3, &mut r);
    }
}
