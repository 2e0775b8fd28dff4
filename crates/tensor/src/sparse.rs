//! Sparse matrices (CSR) and the sparse-dense product used by the GCN/GAT
//! baselines (`out = A · X` with `A` a normalized adjacency matrix).

use crate::graph::{Graph, Var};
use crate::tensor::Tensor;
use std::sync::Arc;

/// A compressed-sparse-row f32 matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from (row, col, value) triplets. Duplicate
    /// coordinates are summed.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f32)]) -> Self {
        for &(r, c, _) in triplets {
            assert!(r < rows && c < cols, "triplet ({r},{c}) out of bounds {rows}x{cols}");
        }
        let mut sorted: Vec<(usize, usize, f32)> = triplets.to_vec();
        sorted.sort_unstable_by_key(|&(r, c, _)| (r, c));
        let mut row_ptr = vec![0usize; rows + 1];
        let mut col_idx = Vec::with_capacity(sorted.len());
        let mut values = Vec::with_capacity(sorted.len());
        let mut i = 0usize;
        for (r, ptr) in row_ptr.iter_mut().enumerate().take(rows) {
            *ptr = col_idx.len();
            while i < sorted.len() && sorted[i].0 == r {
                let c = sorted[i].1;
                let mut v = 0.0f32;
                while i < sorted.len() && sorted[i].0 == r && sorted[i].1 == c {
                    v += sorted[i].2;
                    i += 1;
                }
                col_idx.push(c);
                values.push(v);
            }
        }
        row_ptr[rows] = col_idx.len();
        CsrMatrix { rows, cols, row_ptr, col_idx, values }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            rows: n,
            cols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterates the entries of one row as `(col, value)`.
    pub fn row_entries(&self, r: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        self.col_idx[lo..hi].iter().copied().zip(self.values[lo..hi].iter().copied())
    }

    /// Dense product `self · x` (`x: [cols, d] -> [rows, d]`).
    ///
    /// Row-parallel: each output row is a gather over that row's entries, so
    /// partitioning rows across workers never changes any accumulation order
    /// (bit-identical for every thread budget). Stored zeros are skipped.
    pub fn matmul_dense(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.rank(), 2);
        assert_eq!(x.shape()[0], self.cols, "spmm inner dim");
        let d = x.shape()[1];
        let mut out = Tensor::zeros(&[self.rows, d]);
        if self.rows * d > 0 {
            let avg_nnz = (self.nnz() / self.rows.max(1)).max(1);
            crate::par::par_row_chunks(
                out.data_mut(),
                self.rows,
                d,
                2 * avg_nnz * d,
                |row0, block| {
                    for (i, orow) in block.chunks_mut(d).enumerate() {
                        let r = row0 + i;
                        for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                            let v = self.values[k];
                            if v == 0.0 {
                                continue;
                            }
                            let c = self.col_idx[k];
                            let xrow = &x.data()[c * d..(c + 1) * d];
                            for (o, &xv) in orow.iter_mut().zip(xrow) {
                                *o += v * xv;
                            }
                        }
                    }
                },
            );
        }
        out
    }

    /// Transposed product `selfᵀ · x` (`x: [rows, d] -> [cols, d]`),
    /// needed for the backward pass of [`Graph::spmm`].
    pub fn t_matmul_dense(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.rank(), 2);
        assert_eq!(x.shape()[0], self.rows, "spmm-t inner dim");
        let d = x.shape()[1];
        let mut out = Tensor::zeros(&[self.cols, d]);
        for r in 0..self.rows {
            let xrow = &x.data()[r * d..(r + 1) * d];
            let lo = self.row_ptr[r];
            let hi = self.row_ptr[r + 1];
            for k in lo..hi {
                let c = self.col_idx[k];
                let v = self.values[k];
                let orow = out.row_mut(c);
                for (o, &xv) in orow.iter_mut().zip(xrow) {
                    *o += v * xv;
                }
            }
        }
        out
    }

    /// Row-normalizes in place so each non-empty row sums to 1
    /// (random-walk normalization, `D⁻¹A`).
    pub fn row_normalize(&mut self) {
        for r in 0..self.rows {
            let lo = self.row_ptr[r];
            let hi = self.row_ptr[r + 1];
            let sum: f32 = self.values[lo..hi].iter().sum();
            if sum > 0.0 {
                let inv = 1.0 / sum;
                self.values[lo..hi].iter_mut().for_each(|v| *v *= inv);
            }
        }
    }

    /// Symmetric GCN normalization `D^{-1/2} (A) D^{-1/2}` (square only).
    pub fn sym_normalize(&mut self) {
        assert_eq!(self.rows, self.cols, "sym_normalize needs a square matrix");
        let mut deg = vec![0.0f32; self.rows];
        for (r, d) in deg.iter_mut().enumerate() {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                *d += self.values[k];
            }
        }
        let inv_sqrt: Vec<f32> =
            deg.iter().map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 }).collect();
        for r in 0..self.rows {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                self.values[k] *= inv_sqrt[r] * inv_sqrt[self.col_idx[k]];
            }
        }
    }
}

impl Graph<'_> {
    /// Sparse-dense product `A · X` with gradient flowing into `X`
    /// (`A` is a constant adjacency structure).
    pub fn spmm(&self, a: Arc<CsrMatrix>, x: Var) -> Var {
        let a_b = Arc::clone(&a);
        self.unary(
            x,
            move |t| a.matmul_dense(t),
            Box::new(move |g, _, _| vec![crate::graph::Flow::Grad(a_b.t_matmul_dense(g))]),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn dense_of(a: &CsrMatrix) -> Tensor {
        let mut t = Tensor::zeros(&[a.rows(), a.cols()]);
        for r in 0..a.rows() {
            for (c, v) in a.row_entries(r) {
                t.row_mut(r)[c] += v;
            }
        }
        t
    }

    #[test]
    fn from_triplets_sums_duplicates() {
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (0, 1, 2.0), (1, 0, 5.0)]);
        assert_eq!(a.nnz(), 2);
        let d = dense_of(&a);
        assert_eq!(d.data(), &[0.0, 3.0, 5.0, 0.0]);
    }

    #[test]
    fn spmm_matches_dense_matmul() {
        let mut rng = Rng::seed_from_u64(1);
        let triplets: Vec<(usize, usize, f32)> =
            (0..30).map(|_| (rng.below(5), rng.below(7), rng.uniform(-1.0, 1.0))).collect();
        let a = CsrMatrix::from_triplets(5, 7, &triplets);
        let x = Tensor::rand_normal(&[7, 3], 1.0, &mut rng);
        let sparse = a.matmul_dense(&x);
        let dense = dense_of(&a).matmul(&x);
        for (s, d) in sparse.data().iter().zip(dense.data()) {
            assert!((s - d).abs() < 1e-4);
        }
    }

    #[test]
    fn t_matmul_matches_dense_transpose() {
        let mut rng = Rng::seed_from_u64(2);
        let triplets: Vec<(usize, usize, f32)> =
            (0..20).map(|_| (rng.below(4), rng.below(6), rng.uniform(-1.0, 1.0))).collect();
        let a = CsrMatrix::from_triplets(4, 6, &triplets);
        let x = Tensor::rand_normal(&[4, 3], 1.0, &mut rng);
        let sparse = a.t_matmul_dense(&x);
        let dense = dense_of(&a).transpose2().matmul(&x);
        for (s, d) in sparse.data().iter().zip(dense.data()) {
            assert!((s - d).abs() < 1e-4);
        }
    }

    #[test]
    fn row_normalize_sums_to_one() {
        let mut a = CsrMatrix::from_triplets(3, 3, &[(0, 0, 2.0), (0, 1, 2.0), (2, 1, 5.0)]);
        a.row_normalize();
        let d = dense_of(&a);
        assert!((d.row(0).iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert_eq!(d.row(1).iter().sum::<f32>(), 0.0); // empty row untouched
        assert!((d.row(2).iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn sym_normalize_eigen_sane() {
        // Complete graph K2 with self loops: entries become 1/2.
        let mut a =
            CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0)]);
        a.sym_normalize();
        let d = dense_of(&a);
        for v in d.data() {
            assert!((v - 0.5).abs() < 1e-6);
        }
    }

    #[test]
    fn spmm_gradient_is_transpose_product() {
        let a = Arc::new(CsrMatrix::from_triplets(3, 2, &[(0, 0, 1.0), (1, 1, 2.0), (2, 0, 3.0)]));
        let g = Graph::new();
        let x = g.leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]), true);
        let y = g.spmm(Arc::clone(&a), x);
        let loss = g.sum_all(y);
        g.backward(loss);
        let grad = g.grad(x).unwrap();
        // dX = A^T * ones(3,2): col sums of A per input row.
        assert_eq!(grad.data(), &[4.0, 4.0, 2.0, 2.0]);
    }

    #[test]
    fn identity_is_noop() {
        let mut rng = Rng::seed_from_u64(3);
        let x = Tensor::rand_normal(&[4, 3], 1.0, &mut rng);
        let i = CsrMatrix::identity(4);
        assert_eq!(i.matmul_dense(&x), x);
    }
}
