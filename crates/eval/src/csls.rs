//! Cross-domain similarity local scaling (CSLS), the hubness correction of
//! Lample et al. used by several literal-based baselines (CEA's MUSE
//! embeddings are trained with it).
//!
//! `csls(x, y) = 2·cos(x, y) − r(x) − r(y)` where `r(·)` is the mean cosine
//! similarity to the k nearest neighbours in the *other* domain.

use crate::similarity::SimilarityMatrix;
use sdea_tensor::{par_map_collect, par_row_chunks};

/// Re-scales a cosine similarity matrix with CSLS (k nearest neighbours):
/// `out[i][j] = 2·sim[i][j] − r_src[i] − r_tgt[j]`. Row means, column
/// means and the rescale itself all fan out across the thread budget.
///
/// `k` is clamped per direction to the number of available neighbours
/// (`k > m` row-wise / `k > n` column-wise just averages over everything),
/// so any `k >= 1` is valid for any matrix shape, including zero columns.
pub fn csls_rescale(sim: &SimilarityMatrix, k: usize) -> SimilarityMatrix {
    assert!(k >= 1, "CSLS needs k >= 1");
    let _span = sdea_obs::span("eval.csls");
    let (n, m) = (sim.shape()[0], sim.shape()[1]);
    let k_row = k.min(m);
    let k_col = k.min(n);
    // r_src[i]: mean of top-k entries of row i.
    let r_src =
        par_map_collect(n, m.max(1), |i| mean_top_k(&sim.data()[i * m..(i + 1) * m], k_row));
    // r_tgt[j]: mean of top-k entries of column j — transpose once so the
    // column scans become contiguous row scans.
    let sim_t = sim.transpose2();
    let r_tgt =
        par_map_collect(m, n.max(1), |j| mean_top_k(&sim_t.data()[j * n..(j + 1) * n], k_col));
    let mut out = sim.clone();
    if m > 0 {
        let src = sim.data();
        par_row_chunks(out.data_mut(), n, m, 4 * m, |row0, block| {
            for (r, orow) in block.chunks_mut(m).enumerate() {
                let i = row0 + r;
                let srow = &src[i * m..(i + 1) * m];
                for (j, o) in orow.iter_mut().enumerate() {
                    *o = 2.0 * srow[j] - r_src[i] - r_tgt[j];
                }
            }
        });
    }
    out
}

fn mean_top_k(scores: &[f32], k: usize) -> f32 {
    let idx = crate::similarity::top_k_indices(scores, k);
    let sum: f32 = idx.iter().map(|&i| scores[i]).sum();
    sum / idx.len().max(1) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::evaluate_ranking;
    use sdea_tensor::Tensor;

    #[test]
    fn csls_penalizes_hubs() {
        // Column 0 is a "hub": similar to everything. Column 1 is the true
        // match of row 0 but slightly below the hub. CSLS should flip them.
        let sim = Tensor::from_vec(
            vec![
                0.90, 0.89, 0.10, //
                0.90, 0.10, 0.80, //
                0.90, 0.15, 0.05,
            ],
            &[3, 3],
        );
        let before = evaluate_ranking(&sim, &[1, 2, 0]);
        let after = evaluate_ranking(&csls_rescale(&sim, 2), &[1, 2, 0]);
        assert!(after.hits1 >= before.hits1, "CSLS should not hurt this case");
        // row 0: the hub column's r_tgt is large, demoting it.
        let rescaled = csls_rescale(&sim, 2);
        assert!(
            rescaled.at2(0, 1) > rescaled.at2(0, 0),
            "true match should outrank hub after CSLS"
        );
    }

    #[test]
    fn csls_preserves_shape() {
        let sim = Tensor::from_vec(vec![0.5; 12], &[3, 4]);
        let r = csls_rescale(&sim, 1);
        assert_eq!(r.shape(), &[3, 4]);
    }

    #[test]
    fn uniform_matrix_stays_uniform() {
        let sim = Tensor::from_vec(vec![0.3; 9], &[3, 3]);
        let r = csls_rescale(&sim, 2);
        let first = r.data()[0];
        assert!(r.data().iter().all(|&v| (v - first).abs() < 1e-6));
    }

    #[test]
    fn k_larger_than_matrix_clamps_to_full_mean() {
        let sim = Tensor::from_vec(vec![0.9, 0.1, 0.4, 0.6, 0.2, 0.8], &[2, 3]);
        // k far beyond both dimensions behaves exactly like k = max(n, m).
        let clamped = csls_rescale(&sim, 50);
        let full = csls_rescale(&sim, 3);
        assert_eq!(clamped, full);
        assert_eq!(clamped.shape(), &[2, 3]);
        assert!(clamped.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn zero_column_matrix_passes_through() {
        // No targets: nothing to rescale, the empty shape is preserved
        // instead of an index panic in the neighbour scans.
        let sim = Tensor::zeros(&[3, 0]);
        let r = csls_rescale(&sim, 4);
        assert_eq!(r.shape(), &[3, 0]);
    }
}
