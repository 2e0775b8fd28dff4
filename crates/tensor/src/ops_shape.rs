//! Structural (shape-moving) autograd ops: reshape, gather, concat,
//! stacking, selection, and the attention head split/merge permutations.

use crate::graph::{Flow, Graph, Var};
use crate::tensor::Tensor;

impl Graph<'_> {
    /// Reinterprets `x` with a new shape (same element count).
    pub fn reshape(&self, x: Var, shape: &[usize]) -> Var {
        let shape_owned = shape.to_vec();
        self.unary(x, |t| t.reshape(&shape_owned), Box::new(|_, _, _| vec![Flow::Pass]))
    }

    /// Embedding-style lookup: gathers rows of a `[v,d]` table by index.
    /// The same index may appear multiple times; backward scatter-adds.
    pub fn gather_rows(&self, table: Var, indices: &[usize]) -> Var {
        let idx_f = indices.to_vec();
        let idx_b = indices.to_vec();
        self.unary(
            table,
            move |t| t.gather_rows(&idx_f),
            Box::new(move |g, _, ps| {
                let d = ps[0].shape()[1];
                let mut dt = Tensor::zeros(ps[0].shape());
                for (r, &i) in idx_b.iter().enumerate() {
                    let src = &g.data()[r * d..(r + 1) * d];
                    for (o, &gv) in dt.row_mut(i).iter_mut().zip(src) {
                        *o += gv;
                    }
                }
                vec![Flow::Grad(dt)]
            }),
        )
    }

    /// Gathers elements of a rank-1 tensor by index (backward scatter-adds).
    pub fn gather_rows_vec(&self, x: Var, indices: &[usize]) -> Var {
        let idx_f = indices.to_vec();
        let idx_b = indices.to_vec();
        self.unary(
            x,
            move |t| {
                assert_eq!(t.rank(), 1, "gather_rows_vec expects rank-1");
                let data: Vec<f32> = idx_f.iter().map(|&i| t.data()[i]).collect();
                Tensor::from_vec(data, &[idx_f.len()])
            },
            Box::new(move |g, _, ps| {
                let mut dt = Tensor::zeros(ps[0].shape());
                for (r, &i) in idx_b.iter().enumerate() {
                    dt.data_mut()[i] += g.data()[r];
                }
                vec![Flow::Grad(dt)]
            }),
        )
    }

    /// Concatenates rank-2 tensors with equal row counts along the last dim.
    pub fn concat_cols(&self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_cols of nothing");
        let (value, widths, rg) = {
            let inner = self.inner.borrow();
            let tensors: Vec<&Tensor> = parts.iter().map(|v| &*inner.values[v.id]).collect();
            let widths: Vec<usize> = tensors.iter().map(|t| t.shape()[1]).collect();
            let rg = parts.iter().any(|v| inner.nodes[v.id].requires_grad);
            (Tensor::concat_cols(&tensors), widths, rg)
        };
        let parent_ids: Vec<usize> = parts.iter().map(|v| v.id).collect();
        let back: crate::graph::BackFn = Box::new(move |g, _, ps| {
            let n = ps[0].shape()[0];
            let total: usize = widths.iter().sum();
            let mut grads: Vec<Tensor> = widths.iter().map(|&w| Tensor::zeros(&[n, w])).collect();
            for i in 0..n {
                let grow = &g.data()[i * total..(i + 1) * total];
                let mut off = 0;
                for (gi, &w) in grads.iter_mut().zip(widths.iter()) {
                    gi.row_mut(i).copy_from_slice(&grow[off..off + w]);
                    off += w;
                }
            }
            grads.into_iter().map(Flow::Grad).collect()
        });
        self.push(value, parent_ids, if rg { Some(back) } else { None }, rg, None)
    }

    /// Stacks `s` rank-1 tensors (each `[n]`) into the columns of `[n,s]`.
    pub fn stack_cols(&self, cols: &[Var]) -> Var {
        assert!(!cols.is_empty(), "stack_cols of nothing");
        let (value, n, rg) = {
            let inner = self.inner.borrow();
            let n = inner.values[cols[0].id].len();
            let s = cols.len();
            let mut data = vec![0.0f32; n * s];
            for (j, v) in cols.iter().enumerate() {
                let t = &*inner.values[v.id];
                assert_eq!(t.len(), n, "stack_cols length mismatch");
                for i in 0..n {
                    data[i * s + j] = t.data()[i];
                }
            }
            let rg = cols.iter().any(|v| inner.nodes[v.id].requires_grad);
            (Tensor::from_vec(data, &[n, s]), n, rg)
        };
        let s = cols.len();
        let parent_ids: Vec<usize> = cols.iter().map(|v| v.id).collect();
        let back: crate::graph::BackFn = Box::new(move |g, _, _| {
            (0..s)
                .map(|j| {
                    let col: Vec<f32> = (0..n).map(|i| g.data()[i * s + j]).collect();
                    Flow::Grad(Tensor::from_vec(col, &[n]))
                })
                .collect()
        });
        self.push(value, parent_ids, if rg { Some(back) } else { None }, rg, None)
    }

    /// Extracts column `j` of `[n,s]` as `[n]`.
    pub fn select_col(&self, x: Var, j: usize) -> Var {
        self.unary(
            x,
            |t| {
                assert_eq!(t.rank(), 2);
                let (n, s) = (t.shape()[0], t.shape()[1]);
                assert!(j < s, "select_col {j} of width {s}");
                let col: Vec<f32> = (0..n).map(|i| t.data()[i * s + j]).collect();
                Tensor::from_vec(col, &[n])
            },
            Box::new(move |g, _, ps| {
                let (n, s) = (ps[0].shape()[0], ps[0].shape()[1]);
                let mut dx = Tensor::zeros(&[n, s]);
                for i in 0..n {
                    dx.data_mut()[i * s + j] = g.data()[i];
                }
                vec![Flow::Grad(dx)]
            }),
        )
    }

    /// Slices rows `[lo, hi)` of a rank-2 tensor.
    pub fn slice_rows(&self, x: Var, lo: usize, hi: usize) -> Var {
        self.unary(
            x,
            |t| {
                assert_eq!(t.rank(), 2);
                let d = t.shape()[1];
                Tensor::from_vec(t.data()[lo * d..hi * d].to_vec(), &[hi - lo, d])
            },
            Box::new(move |g, _, ps| {
                let mut dx = Tensor::zeros(ps[0].shape());
                let d = ps[0].shape()[1];
                dx.data_mut()[lo * d..hi * d].copy_from_slice(g.data());
                vec![Flow::Grad(dx)]
            }),
        )
    }

    /// Multi-head attention head split:
    /// `[b*s, h*dh] -> [b*h, s, dh]` (a strided permutation copy).
    pub fn split_heads(&self, x: Var, b: usize, s: usize, h: usize) -> Var {
        self.unary(
            x,
            |t| split_heads_t(t, b, s, h),
            Box::new(move |g, _, _| vec![Flow::Grad(merge_heads_t(g, b, s, h))]),
        )
    }

    /// Inverse of [`Graph::split_heads`]: `[b*h, s, dh] -> [b*s, h*dh]`.
    pub fn merge_heads(&self, x: Var, b: usize, s: usize, h: usize) -> Var {
        self.unary(
            x,
            |t| merge_heads_t(t, b, s, h),
            Box::new(move |g, _, _| vec![Flow::Grad(split_heads_t(g, b, s, h))]),
        )
    }
}

/// `[b*s, h*dh] -> [b*h, s, dh]`.
pub(crate) fn split_heads_t(t: &Tensor, b: usize, s: usize, h: usize) -> Tensor {
    assert_eq!(t.rank(), 2);
    assert_eq!(t.shape()[0], b * s, "split_heads rows");
    let hd = t.shape()[1];
    assert_eq!(hd % h, 0, "split_heads width {hd} not divisible by {h}");
    let dh = hd / h;
    let mut out = vec![0.0f32; b * h * s * dh];
    for bi in 0..b {
        for si in 0..s {
            let row = t.row(bi * s + si);
            for hi in 0..h {
                let dst = ((bi * h + hi) * s + si) * dh;
                out[dst..dst + dh].copy_from_slice(&row[hi * dh..(hi + 1) * dh]);
            }
        }
    }
    Tensor::from_vec(out, &[b * h, s, dh])
}

/// `[b*h, s, dh] -> [b*s, h*dh]`.
pub(crate) fn merge_heads_t(t: &Tensor, b: usize, s: usize, h: usize) -> Tensor {
    assert_eq!(t.rank(), 3);
    assert_eq!(t.shape()[0], b * h, "merge_heads batch");
    assert_eq!(t.shape()[1], s, "merge_heads seq");
    let dh = t.shape()[2];
    let mut out = vec![0.0f32; b * s * h * dh];
    for bi in 0..b {
        for hi in 0..h {
            for si in 0..s {
                let src = ((bi * h + hi) * s + si) * dh;
                let dst = (bi * s + si) * (h * dh) + hi * dh;
                out[dst..dst + dh].copy_from_slice(&t.data()[src..src + dh]);
            }
        }
    }
    Tensor::from_vec(out, &[b * s, h * dh])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn split_merge_round_trip() {
        let mut rng = Rng::seed_from_u64(1);
        let t = Tensor::rand_normal(&[2 * 3, 4 * 2], 1.0, &mut rng); // b=2,s=3,h=4,dh=2
        let split = split_heads_t(&t, 2, 3, 4);
        assert_eq!(split.shape(), &[8, 3, 2]);
        let merged = merge_heads_t(&split, 2, 3, 4);
        assert_eq!(merged, t);
    }

    #[test]
    fn gather_rows_backward_scatter_adds() {
        let g = Graph::new();
        let table = g.leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]), true);
        let picked = g.gather_rows(table, &[0, 0, 1]);
        let loss = g.sum_all(picked);
        g.backward(loss);
        let grad = g.grad(table).unwrap();
        // Row 0 gathered twice -> grad 2, row 1 once -> grad 1.
        assert_eq!(grad.data(), &[2.0, 2.0, 1.0, 1.0]);
    }

    #[test]
    fn concat_cols_backward_splits() {
        let g = Graph::new();
        let a = g.leaf(Tensor::from_vec(vec![1.0, 2.0], &[2, 1]), true);
        let b = g.leaf(Tensor::from_vec(vec![3.0, 4.0, 5.0, 6.0], &[2, 2]), true);
        let c = g.concat_cols(&[a, b]);
        assert_eq!(g.value(c).shape(), &[2, 3]);
        // Weight each output element distinctly so split is observable.
        let w = g.constant(Tensor::from_vec(vec![1.0, 10.0, 100.0, 2.0, 20.0, 200.0], &[2, 3]));
        let loss = g.sum_all(g.mul(c, w));
        g.backward(loss);
        assert_eq!(g.grad(a).unwrap().data(), &[1.0, 2.0]);
        assert_eq!(g.grad(b).unwrap().data(), &[10.0, 100.0, 20.0, 200.0]);
    }

    #[test]
    fn stack_select_round_trip() {
        let g = Graph::new();
        let c0 = g.leaf(Tensor::from_vec(vec![1.0, 2.0], &[2]), true);
        let c1 = g.leaf(Tensor::from_vec(vec![3.0, 4.0], &[2]), true);
        let m = g.stack_cols(&[c0, c1]);
        assert_eq!(g.value(m).data(), &[1.0, 3.0, 2.0, 4.0]);
        let back0 = g.select_col(m, 0);
        assert_eq!(g.value(back0).data(), &[1.0, 2.0]);
        let loss = g.sum_all(g.square(back0));
        g.backward(loss);
        assert_eq!(g.grad(c0).unwrap().data(), &[2.0, 4.0]);
        assert_eq!(g.grad(c1).unwrap().data(), &[0.0, 0.0]);
    }

    #[test]
    fn slice_rows_backward_pads() {
        let g = Graph::new();
        let x = g.leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]), true);
        let s = g.slice_rows(x, 1, 3);
        assert_eq!(g.value(s).data(), &[3.0, 4.0, 5.0, 6.0]);
        let loss = g.sum_all(s);
        g.backward(loss);
        assert_eq!(g.grad(x).unwrap().data(), &[0.0, 0.0, 1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn reshape_backward_restores_shape() {
        let g = Graph::new();
        let x = g.leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]), true);
        let r = g.reshape(x, &[3, 2]);
        let loss = g.sum_all(g.square(r));
        g.backward(loss);
        assert_eq!(g.grad(x).unwrap().shape(), &[2, 3]);
    }

    #[test]
    fn split_heads_grad_flows() {
        let g = Graph::new();
        let mut rng = Rng::seed_from_u64(3);
        let x0 = Tensor::rand_normal(&[4, 6], 1.0, &mut rng); // b=2,s=2,h=3,dh=2
        let x = g.leaf(x0, true);
        let sh = g.split_heads(x, 2, 2, 3);
        let back = g.merge_heads(sh, 2, 2, 3);
        let loss = g.sum_all(g.square(back));
        g.backward(loss);
        let grad = g.grad(x).unwrap();
        // d(sum x^2)/dx = 2x, the permutation must cancel out.
        let expected = g.value(x).scale(2.0);
        for (a, b) in grad.data().iter().zip(expected.data()) {
            assert!((a - b).abs() < 1e-5);
        }
    }
}
