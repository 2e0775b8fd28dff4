//! Fused multi-op graph nodes for the transformer inner loop.
//!
//! Each op here replaces a short chain of tape nodes with a single node,
//! cutting tape length, intermediate materializations, and backward
//! dispatches per encoder layer:
//!
//! - [`Graph::linear`] — `matmul + add_bias` with the bias applied in the
//!   kernel's write-back epilogue (one pass over the output).
//! - [`Graph::softmax_bias_lastdim`] — `add(bias) + softmax` with the
//!   additive attention mask folded into the softmax pass.
//! - [`Graph::add_layer_norm`] — `add + layer_norm`, the residual junction,
//!   without materializing the sum.
//! - [`Graph::scaled_bmm_nt`] — `transpose_last2 + bmm + scale` as one
//!   transpose-free scaled kernel call (attention scores `Q·Kᵀ/√d`).
//!
//! Every fused forward performs the *same scalar operations in the same
//! order* as the node chain it replaces, so switching to the fused path does
//! not change f32 results; and all of them partition work by position only,
//! preserving the thread-budget determinism contract.

use crate::graph::{BackFn, Flow, Graph, Var};
use crate::tensor::Tensor;
use std::rc::Rc;

impl Graph<'_> {
    /// Fused affine map `x·w + bias` for `x: [n,k]`, `w: [k,m]`,
    /// `bias: [m]`. Equivalent to `add_bias(matmul(x, w), bias)` as one node.
    pub fn linear(&self, x: Var, w: Var, bias: Var) -> Var {
        let pool = self.pool.clone();
        let (value, rg) = {
            let inner = self.inner.borrow();
            let xv = &*inner.values[x.id];
            let wv = &*inner.values[w.id];
            let bv = &*inner.values[bias.id];
            let value = xv.matmul_with(
                wv,
                Some(bv),
                crate::pool::take_uninit(&pool, xv.shape()[0] * wv.shape()[1]),
            );
            let rg = [x, w, bias].iter().any(|v| inner.nodes[v.id].requires_grad);
            (value, rg)
        };
        let back: BackFn = Box::new(move |g, _, ps| {
            let dx = g.matmul_t_with(ps[1], crate::pool::take_uninit(&pool, ps[0].len()));
            let dw = ps[0].t_matmul_with(g, crate::pool::take_uninit(&pool, ps[1].len()));
            let db = g.col_sums_with(crate::pool::take_uninit(&pool, ps[2].len()));
            vec![
                Flow::Grad(dx),
                Flow::Grad(dw),
                Flow::Grad(Tensor::from_vec(db.into_data(), ps[2].shape())),
            ]
        });
        self.push(value, vec![x.id, w.id, bias.id], if rg { Some(back) } else { None }, rg, None)
    }

    /// Softmax over the last dimension of `x + bias`, with `bias` a constant
    /// tensor of the same length (the additive attention mask; `Rc` so the
    /// per-layer nodes share one copy). Equivalent to
    /// `softmax_lastdim(add(x, constant(bias)))` as one node, without
    /// putting the mask on the tape.
    pub fn softmax_bias_lastdim(&self, x: Var, bias: &Rc<Tensor>) -> Var {
        let pool = self.pool.clone();
        let fpool = pool.clone();
        let bias = Rc::clone(bias);
        self.unary(
            x,
            move |t| {
                assert_eq!(t.len(), bias.len(), "softmax_bias length mismatch");
                let d = *t.shape().last().expect("softmax_bias rank");
                let mut data = match crate::pool::take_uninit(&fpool, t.len()) {
                    Some(mut v) => {
                        v.copy_from_slice(t.data());
                        v
                    }
                    None => t.data().to_vec(),
                };
                for (o, &bv) in data.iter_mut().zip(bias.data()) {
                    *o += bv;
                }
                for chunk in data.chunks_mut(d) {
                    let max = chunk.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                    let mut sum = 0.0f32;
                    for v in chunk.iter_mut() {
                        *v = (*v - max).exp();
                        sum += *v;
                    }
                    let inv = 1.0 / sum;
                    for v in chunk.iter_mut() {
                        *v *= inv;
                    }
                }
                Tensor::from_vec(data, t.shape())
            },
            Box::new(move |g, out, _| {
                // Same Jacobian as plain softmax: dx = s * (g - <g, s>).
                let d = *out.shape().last().expect("softmax_bias rank");
                let mut dx = crate::pool::copy_tensor(&pool, g);
                for (gs, ss) in dx.data_mut().chunks_mut(d).zip(out.data().chunks(d)) {
                    let dot: f32 = gs.iter().zip(ss).map(|(&a, &b)| a * b).sum();
                    for (gv, &sv) in gs.iter_mut().zip(ss) {
                        *gv = sv * (*gv - dot);
                    }
                }
                vec![Flow::Grad(dx)]
            }),
        )
    }

    /// Fused residual junction: layer-norm of `a + b` over the last
    /// dimension with learned `gain`/`bias` (both `[d]`). Equivalent to
    /// `layer_norm(add(a, b), gain, bias, eps)` as one node; the sum is
    /// never materialized on the tape (backward recomputes it per row).
    pub fn add_layer_norm(&self, a: Var, b: Var, gain: Var, bias: Var, eps: f32) -> Var {
        let pool = self.pool.clone();
        let (value, rg) = {
            let inner = self.inner.borrow();
            let av = &*inner.values[a.id];
            let bv = &*inner.values[b.id];
            let gv = &*inner.values[gain.id];
            let biv = &*inner.values[bias.id];
            assert_eq!(av.shape(), bv.shape(), "add_layer_norm operand shapes");
            let d = *av.shape().last().expect("add_layer_norm rank");
            assert_eq!(gv.len(), d, "add_layer_norm gain");
            assert_eq!(biv.len(), d, "add_layer_norm bias");
            let mut data = match crate::pool::take_uninit(&pool, av.len()) {
                Some(v) => v,
                None => vec![0.0f32; av.len()],
            };
            for ((o, &x), &y) in data.iter_mut().zip(av.data()).zip(bv.data()) {
                *o = x + y;
            }
            for chunk in data.chunks_mut(d) {
                let (mu, sig) = super::ops_nn::mean_std(chunk, eps);
                for (c, (&gvv, &bvv)) in chunk.iter_mut().zip(gv.data().iter().zip(biv.data())) {
                    *c = (*c - mu) / sig * gvv + bvv;
                }
            }
            let value = Tensor::from_vec(data, av.shape());
            let rg = [a, b, gain, bias].iter().any(|v| inner.nodes[v.id].requires_grad);
            (value, rg)
        };
        let back: BackFn = Box::new(move |g, _, ps| {
            let (av, bv, gainv) = (ps[0], ps[1], ps[2]);
            let d = *av.shape().last().expect("rank");
            let rows = av.len() / d;
            let mut dres = match crate::pool::take_uninit(&pool, av.len()) {
                Some(v) => Tensor::from_vec(v, av.shape()),
                None => Tensor::zeros(av.shape()),
            };
            let mut dgain = vec![0.0f32; d];
            let mut dbias = vec![0.0f32; d];
            let mut xs = vec![0.0f32; d];
            let mut xhat = vec![0.0f32; d];
            let mut dxhat = vec![0.0f32; d];
            for r in 0..rows {
                // Recompute the residual sum for this row (same f32 adds as
                // the forward pass, so mu/sig match bit-for-bit).
                for ((o, &x), &y) in xs
                    .iter_mut()
                    .zip(&av.data()[r * d..(r + 1) * d])
                    .zip(&bv.data()[r * d..(r + 1) * d])
                {
                    *o = x + y;
                }
                let gs = &g.data()[r * d..(r + 1) * d];
                let (mu, sig) = super::ops_nn::mean_std(&xs, eps);
                let mut mean_dxhat = 0.0f32;
                let mut mean_dxhat_xhat = 0.0f32;
                for j in 0..d {
                    xhat[j] = (xs[j] - mu) / sig;
                    dxhat[j] = gs[j] * gainv.data()[j];
                    mean_dxhat += dxhat[j];
                    mean_dxhat_xhat += dxhat[j] * xhat[j];
                    dgain[j] += gs[j] * xhat[j];
                    dbias[j] += gs[j];
                }
                mean_dxhat /= d as f32;
                mean_dxhat_xhat /= d as f32;
                let out_row = &mut dres.data_mut()[r * d..(r + 1) * d];
                for j in 0..d {
                    out_row[j] = (dxhat[j] - mean_dxhat - xhat[j] * mean_dxhat_xhat) / sig;
                }
            }
            // Both residual branches receive the same gradient.
            let dres_b = crate::pool::copy_tensor(&pool, &dres);
            vec![
                Flow::Grad(dres),
                Flow::Grad(dres_b),
                Flow::Grad(Tensor::from_vec(dgain, ps[2].shape())),
                Flow::Grad(Tensor::from_vec(dbias, ps[3].shape())),
            ]
        });
        self.push(
            value,
            vec![a.id, b.id, gain.id, bias.id],
            if rg { Some(back) } else { None },
            rg,
            None,
        )
    }

    /// Fused attention-score kernel: `scale * (q · kᵀ)` per batch for
    /// `q: [B,n,dh]`, `k: [B,m,dh]`, producing `[B,n,m]`. Equivalent to
    /// `scale(bmm(q, transpose_last2(k)), scale)` as one node with no
    /// materialized transpose.
    pub fn scaled_bmm_nt(&self, q: Var, k: Var, scale: f32) -> Var {
        let pool = self.pool.clone();
        let fpool = pool.clone();
        self.binary(
            q,
            k,
            move |x, y| {
                let len = x.shape()[0] * x.shape()[1] * y.shape()[1];
                x.bmm_nt_scaled(y, scale, crate::pool::take_uninit(&fpool, len))
            },
            Box::new(move |g, _, ps| {
                let dq = g.bmm_scaled(ps[1], scale, crate::pool::take_uninit(&pool, ps[0].len()));
                let dk =
                    g.bmm_tn_scaled(ps[0], scale, crate::pool::take_uninit(&pool, ps[1].len()));
                vec![Flow::Grad(dq), Flow::Grad(dk)]
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::BufferPool;
    use crate::rng::Rng;

    fn rand(shape: &[usize], seed: u64) -> Tensor {
        let mut rng = Rng::seed_from_u64(seed);
        Tensor::rand_normal(shape, 0.8, &mut rng)
    }

    /// Builds the same computation through the fused op and through the
    /// unfused node chain and asserts forward values and input gradients
    /// are bit-identical.
    fn assert_fused_matches(
        fused: impl Fn(&Graph, &[Var]) -> Var,
        unfused: impl Fn(&Graph, &[Var]) -> Var,
        inputs: &[Tensor],
        what: &str,
    ) {
        let run = |f: &dyn Fn(&Graph, &[Var]) -> Var| {
            let g = Graph::new();
            let vars: Vec<Var> = inputs.iter().map(|t| g.leaf(t.clone(), true)).collect();
            let y = f(&g, &vars);
            let loss = g.sum_all(g.square(y));
            g.backward(loss);
            let out = g.value_cloned(y);
            let grads: Vec<Tensor> = vars.iter().map(|&v| g.grad(v).expect("grad")).collect();
            (out, grads)
        };
        let (fo, fg) = run(&fused);
        let (uo, ug) = run(&unfused);
        assert_eq!(fo, uo, "{what}: forward mismatch");
        for (i, (a, b)) in fg.iter().zip(&ug).enumerate() {
            assert_eq!(a.shape(), b.shape(), "{what}: grad[{i}] shape");
            for (x, y) in a.data().iter().zip(b.data()) {
                assert!(
                    (x - y).abs() <= 1e-5 * (1.0 + x.abs().max(y.abs())),
                    "{what}: grad[{i}] {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn linear_matches_matmul_add_bias() {
        assert_fused_matches(
            |g, v| g.linear(v[0], v[1], v[2]),
            |g, v| g.add_bias(g.matmul(v[0], v[1]), v[2]),
            &[rand(&[5, 3], 1), rand(&[3, 4], 2), rand(&[4], 3)],
            "linear",
        );
    }

    #[test]
    fn softmax_bias_matches_add_then_softmax() {
        let bias = Rc::new(rand(&[2, 3, 3], 4));
        let bias2 = (*bias).clone();
        assert_fused_matches(
            move |g, v| g.softmax_bias_lastdim(v[0], &bias),
            move |g, v| {
                let b = g.constant(bias2.clone());
                g.softmax_lastdim(g.add(v[0], b))
            },
            &[rand(&[2, 3, 3], 5)],
            "softmax_bias",
        );
    }

    #[test]
    fn add_layer_norm_matches_add_then_layer_norm() {
        assert_fused_matches(
            |g, v| g.add_layer_norm(v[0], v[1], v[2], v[3], 1e-5),
            |g, v| g.layer_norm(g.add(v[0], v[1]), v[2], v[3], 1e-5),
            &[rand(&[6, 4], 6), rand(&[6, 4], 7), rand(&[4], 8), rand(&[4], 9)],
            "add_layer_norm",
        );
    }

    #[test]
    fn scaled_bmm_nt_matches_transpose_bmm_scale() {
        let scale = 0.37f32;
        assert_fused_matches(
            move |g, v| g.scaled_bmm_nt(v[0], v[1], scale),
            move |g, v| {
                let kt = g.transpose_last2(v[1]);
                g.scale(g.bmm(v[0], kt), scale)
            },
            &[rand(&[3, 4, 5], 10), rand(&[3, 6, 5], 11)],
            "scaled_bmm_nt",
        );
    }

    #[test]
    fn fused_ops_work_with_pool_attached() {
        // Run twice through the same pool: the second graph reuses the
        // first's buffers and must produce identical results.
        let pool = BufferPool::new();
        let run = |pool: &std::rc::Rc<BufferPool>| {
            let g = Graph::with_pool(pool.clone());
            let x = g.leaf(rand(&[8, 16], 12), true);
            let w = g.leaf(rand(&[16, 16], 13), true);
            let b = g.leaf(rand(&[16], 14), true);
            let y = g.linear(x, w, b);
            let gain = g.leaf(rand(&[16], 15), true);
            let bias = g.leaf(rand(&[16], 16), true);
            let z = g.add_layer_norm(y, y, gain, bias, 1e-5);
            let loss = g.sum_all(g.square(z));
            g.backward(loss);
            (g.value_cloned(z), g.grad(x).unwrap(), g.grad(w).unwrap())
        };
        let first = run(&pool);
        let second = run(&pool);
        assert_eq!(first, second);
    }
}
