//! Neural-network specific autograd ops: softmax, log-softmax, negative
//! log-likelihood, layer norm, dropout, and row L2-normalization.

use crate::graph::{Flow, Graph, Var};
use crate::rng::Rng;
use crate::tensor::Tensor;

impl Graph<'_> {
    /// Softmax over the last dimension.
    pub fn softmax_lastdim(&self, x: Var) -> Var {
        let pool = self.pool.clone();
        self.unary(
            x,
            |t| t.softmax_lastdim(),
            Box::new(move |g, out, _| {
                // dx = s * (g - <g, s>) per last-dim slice
                let d = *out.shape().last().expect("softmax rank");
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

    /// Log-softmax over the last dimension.
    pub fn log_softmax_lastdim(&self, x: Var) -> Var {
        let pool = self.pool.clone();
        self.unary(
            x,
            |t| t.log_softmax_lastdim(),
            Box::new(move |g, out, _| {
                // dx = g - softmax * sum(g) per slice; softmax = exp(out)
                let d = *out.shape().last().expect("log_softmax rank");
                let mut dx = crate::pool::copy_tensor(&pool, g);
                for (gs, os) in dx.data_mut().chunks_mut(d).zip(out.data().chunks(d)) {
                    let gsum: f32 = gs.iter().sum();
                    for (gv, &ov) in gs.iter_mut().zip(os) {
                        *gv -= ov.exp() * gsum;
                    }
                }
                vec![Flow::Grad(dx)]
            }),
        )
    }

    /// Mean negative log-likelihood over rows of log-probabilities
    /// `[n,v]` at the given target class per row. Produces a scalar.
    pub fn nll_mean(&self, logp: Var, targets: &[usize]) -> Var {
        let t_f = targets.to_vec();
        let t_b = targets.to_vec();
        self.unary(
            logp,
            move |t| {
                assert_eq!(t.rank(), 2, "nll_mean expects [n,v]");
                assert_eq!(t.shape()[0], t_f.len(), "nll_mean target count");
                let v = t.shape()[1];
                let total: f32 = t_f.iter().enumerate().map(|(i, &c)| -t.data()[i * v + c]).sum();
                Tensor::scalar(total / t_f.len().max(1) as f32)
            },
            Box::new(move |g, _, ps| {
                let v = ps[0].shape()[1];
                let n = t_b.len().max(1) as f32;
                let scale = -g.item() / n;
                let mut dx = Tensor::zeros(ps[0].shape());
                for (i, &c) in t_b.iter().enumerate() {
                    dx.data_mut()[i * v + c] = scale;
                }
                vec![Flow::Grad(dx)]
            }),
        )
    }

    /// Layer normalization over the last dimension with learned gain and
    /// bias (`gain`, `bias` both `[d]`).
    pub fn layer_norm(&self, x: Var, gain: Var, bias: Var, eps: f32) -> Var {
        // Forward computes (x - mu) / sigma per slice; backward uses the
        // standard layer-norm gradient. The normalized values are
        // recomputed in backward from the parent (cheap, avoids captures).
        let (value, rg) = {
            let inner = self.inner.borrow();
            let xv = &*inner.values[x.id];
            let gv = &*inner.values[gain.id];
            let bv = &*inner.values[bias.id];
            let d = *xv.shape().last().expect("layer_norm rank");
            assert_eq!(gv.len(), d, "layer_norm gain");
            assert_eq!(bv.len(), d, "layer_norm bias");
            let mut out = xv.clone();
            for chunk in out.data_mut().chunks_mut(d) {
                let (mu, sig) = mean_std(chunk, eps);
                for (c, (&gvv, &bvv)) in chunk.iter_mut().zip(gv.data().iter().zip(bv.data())) {
                    *c = (*c - mu) / sig * gvv + bvv;
                }
            }
            let rg = [x, gain, bias].iter().any(|v| inner.nodes[v.id].requires_grad);
            (out, rg)
        };
        let back: crate::graph::BackFn = Box::new(move |g, _, ps| {
            let xv = ps[0];
            let gainv = ps[1];
            let d = *xv.shape().last().expect("rank");
            let rows = xv.len() / d;
            let mut dx = Tensor::zeros(xv.shape());
            let mut dgain = vec![0.0f32; d];
            let mut dbias = vec![0.0f32; d];
            let mut xhat = vec![0.0f32; d];
            let mut dxhat = vec![0.0f32; d];
            for r in 0..rows {
                let xs = &xv.data()[r * d..(r + 1) * d];
                let gs = &g.data()[r * d..(r + 1) * d];
                let (mu, sig) = mean_std(xs, eps);
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
                let out_row = &mut dx.data_mut()[r * d..(r + 1) * d];
                for j in 0..d {
                    out_row[j] = (dxhat[j] - mean_dxhat - xhat[j] * mean_dxhat_xhat) / sig;
                }
            }
            vec![
                Flow::Grad(dx),
                Flow::Grad(Tensor::from_vec(dgain, ps[1].shape())),
                Flow::Grad(Tensor::from_vec(dbias, ps[2].shape())),
            ]
        });
        self.push(value, vec![x.id, gain.id, bias.id], if rg { Some(back) } else { None }, rg, None)
    }

    /// Inverted dropout: at train time zeroes elements with probability `p`
    /// and scales survivors by `1/(1-p)`; identity at eval time.
    pub fn dropout(&self, x: Var, p: f32, training: bool, rng: &mut Rng) -> Var {
        if !training || p <= 0.0 {
            return x;
        }
        assert!(p < 1.0, "dropout p must be < 1");
        let keep = 1.0 - p;
        let n = self.inner.borrow().values[x.id].len();
        let mask: Vec<f32> =
            (0..n).map(|_| if rng.next_f32() < keep { 1.0 / keep } else { 0.0 }).collect();
        let mask_b = mask.clone();
        let pool = self.pool.clone();
        self.unary(
            x,
            move |t| {
                let mut out = t.clone();
                for (o, &m) in out.data_mut().iter_mut().zip(&mask) {
                    *o *= m;
                }
                out
            },
            Box::new(move |g, _, _| {
                let mut dx = crate::pool::copy_tensor(&pool, g);
                for (o, &m) in dx.data_mut().iter_mut().zip(&mask_b) {
                    *o *= m;
                }
                vec![Flow::Grad(dx)]
            }),
        )
    }

    /// Elementwise safe reciprocal: `1/x` where `|x| > eps`, else `0`.
    /// Gradient is `-g/x²` on the live region and `0` elsewhere. Used for
    /// masked mean pooling where some rows have zero denominators.
    pub fn recip_clamped(&self, x: Var) -> Var {
        const EPS: f32 = 1e-6;
        self.unary(
            x,
            |t| t.map(|v| if v.abs() > EPS { 1.0 / v } else { 0.0 }),
            Box::new(|g, _, ps| {
                vec![Flow::Grad(
                    g.zip(ps[0], |gv, xv| if xv.abs() > EPS { -gv / (xv * xv) } else { 0.0 }),
                )]
            }),
        )
    }

    /// Elementwise `sqrt(x + eps)`; the epsilon keeps the gradient finite
    /// at zero (needed by `l2`-distance losses).
    pub fn sqrt_eps(&self, x: Var, eps: f32) -> Var {
        self.unary(
            x,
            move |t| t.map(|v| (v + eps).sqrt()),
            Box::new(move |g, out, _| {
                vec![Flow::Grad(g.zip(out, |gv, ov| gv / (2.0 * ov.max(1e-6))))]
            }),
        )
    }

    /// L2-normalizes each row of a `[n,d]` tensor (with an epsilon floor so
    /// zero rows stay finite).
    pub fn l2_normalize_rows(&self, x: Var) -> Var {
        const EPS: f32 = 1e-12;
        let pool = self.pool.clone();
        self.unary(
            x,
            |t| {
                assert_eq!(t.rank(), 2);
                let d = t.shape()[1];
                let mut out = t.clone();
                for chunk in out.data_mut().chunks_mut(d) {
                    let n = chunk.iter().map(|&v| v * v).sum::<f32>().sqrt().max(EPS);
                    let inv = 1.0 / n;
                    chunk.iter_mut().for_each(|v| *v *= inv);
                }
                out
            },
            Box::new(move |g, out, ps| {
                // dx = (g - out * <g, out>) / ||x||
                let d = ps[0].shape()[1];
                let rows = ps[0].shape()[0];
                let mut dx = crate::pool::copy_tensor(&pool, g);
                for r in 0..rows {
                    let xs = ps[0].row(r);
                    let os = &out.data()[r * d..(r + 1) * d];
                    let norm = xs.iter().map(|&v| v * v).sum::<f32>().sqrt().max(EPS);
                    let gs = &mut dx.data_mut()[r * d..(r + 1) * d];
                    let dot: f32 = gs.iter().zip(os).map(|(&a, &b)| a * b).sum();
                    for (gv, &ov) in gs.iter_mut().zip(os) {
                        *gv = (*gv - ov * dot) / norm;
                    }
                }
                vec![Flow::Grad(dx)]
            }),
        )
    }
}

#[inline]
pub(crate) fn mean_std(chunk: &[f32], eps: f32) -> (f32, f32) {
    let d = chunk.len() as f32;
    let mu: f32 = chunk.iter().sum::<f32>() / d;
    let var: f32 = chunk.iter().map(|&v| (v - mu) * (v - mu)).sum::<f32>() / d;
    (mu, (var + eps).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grad_check(
        shape: &[usize],
        seed: u64,
        f: impl Fn(&Graph, Var) -> Var,
        what: &str,
        tol: f32,
    ) {
        let mut rng = Rng::seed_from_u64(seed);
        let x0 = Tensor::rand_normal(shape, 0.8, &mut rng);
        let g = Graph::new();
        let x = g.leaf(x0.clone(), true);
        let y = f(&g, x);
        g.backward(y);
        let analytic = g.grad(x).expect("no grad");
        // numeric
        let mut numeric = Tensor::zeros(shape);
        let eps = 1e-3;
        for i in 0..x0.len() {
            let eval = |t: &Tensor| {
                let g2 = Graph::new();
                let xv = g2.leaf(t.clone(), false);
                let yv = f(&g2, xv);
                g2.value_cloned(yv).item()
            };
            let mut plus = x0.clone();
            plus.data_mut()[i] += eps;
            let mut minus = x0.clone();
            minus.data_mut()[i] -= eps;
            numeric.data_mut()[i] = (eval(&plus) - eval(&minus)) / (2.0 * eps);
        }
        for (i, (a, b)) in analytic.data().iter().zip(numeric.data()).enumerate() {
            assert!(
                (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs())),
                "{what}[{i}]: analytic {a} vs numeric {b}"
            );
        }
    }

    #[test]
    fn grad_softmax() {
        grad_check(
            &[2, 4],
            1,
            |g, x| {
                let s = g.softmax_lastdim(x);
                let w = g.constant(Tensor::from_vec(
                    vec![1.0, -2.0, 3.0, 0.5, 2.0, 1.0, -1.0, 0.3],
                    &[2, 4],
                ));
                g.sum_all(g.mul(s, w))
            },
            "softmax",
            2e-2,
        );
    }

    #[test]
    fn grad_log_softmax_and_nll() {
        grad_check(
            &[3, 5],
            2,
            |g, x| {
                let lp = g.log_softmax_lastdim(x);
                g.nll_mean(lp, &[0, 3, 2])
            },
            "log_softmax+nll",
            2e-2,
        );
    }

    #[test]
    fn grad_layer_norm_all_inputs() {
        let mut rng = Rng::seed_from_u64(3);
        let gain0 = Tensor::rand_normal(&[4], 0.5, &mut rng).map(|v| v + 1.0);
        let bias0 = Tensor::rand_normal(&[4], 0.5, &mut rng);
        let (gc, bc) = (gain0.clone(), bias0.clone());
        grad_check(
            &[3, 4],
            4,
            move |g, x| {
                let gain = g.constant(gc.clone());
                let bias = g.constant(bc.clone());
                let y = g.layer_norm(x, gain, bias, 1e-5);
                g.sum_all(g.square(y))
            },
            "layer_norm x",
            5e-2,
        );

        let mut rng2 = Rng::seed_from_u64(5);
        let x0 = Tensor::rand_normal(&[3, 4], 0.8, &mut rng2);
        let bias1 = bias0.clone();
        let xc = x0.clone();
        grad_check(
            &[4],
            6,
            move |g, gain| {
                let x = g.constant(xc.clone());
                let bias = g.constant(bias1.clone());
                let y = g.layer_norm(x, gain, bias, 1e-5);
                g.sum_all(g.square(y))
            },
            "layer_norm gain",
            3e-2,
        );

        let xc2 = x0.clone();
        let gc2 = gain0.clone();
        grad_check(
            &[4],
            7,
            move |g, bias| {
                let x = g.constant(xc2.clone());
                let gain = g.constant(gc2.clone());
                let y = g.layer_norm(x, gain, bias, 1e-5);
                g.sum_all(g.square(y))
            },
            "layer_norm bias",
            3e-2,
        );
    }

    #[test]
    fn grad_l2_normalize() {
        grad_check(
            &[3, 4],
            8,
            |g, x| {
                let n = g.l2_normalize_rows(x);
                let w = g.constant(Tensor::from_vec(
                    (0..12).map(|i| (i as f32 * 0.37).sin()).collect(),
                    &[3, 4],
                ));
                g.sum_all(g.mul(n, w))
            },
            "l2_normalize",
            3e-2,
        );
    }

    #[test]
    fn layer_norm_output_statistics() {
        let g = Graph::new();
        let mut rng = Rng::seed_from_u64(9);
        let x = g.leaf(Tensor::rand_normal(&[5, 16], 3.0, &mut rng), false);
        let gain = g.constant(Tensor::ones(&[16]));
        let bias = g.constant(Tensor::zeros(&[16]));
        let y = g.layer_norm(x, gain, bias, 1e-5);
        let out = g.value_cloned(y);
        for r in 0..5 {
            let row = out.row(r);
            let mu: f32 = row.iter().sum::<f32>() / 16.0;
            let var: f32 = row.iter().map(|&v| (v - mu) * (v - mu)).sum::<f32>() / 16.0;
            assert!(mu.abs() < 1e-4, "mean {mu}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn dropout_eval_is_identity_and_train_preserves_mean() {
        let g = Graph::new();
        let mut rng = Rng::seed_from_u64(10);
        let x = g.leaf(Tensor::ones(&[100, 10]), false);
        let eval = g.dropout(x, 0.5, false, &mut rng);
        assert_eq!(eval, x, "eval dropout should be a no-op var");
        let train = g.dropout(x, 0.5, true, &mut rng);
        let out = g.value_cloned(train);
        let kept = out.data().iter().filter(|&&v| v > 0.0).count();
        // roughly half kept
        assert!((300..700).contains(&kept), "kept {kept}");
        let mean = out.sum() / out.len() as f32;
        assert!((mean - 1.0).abs() < 0.15, "inverted dropout mean {mean}");
    }

    #[test]
    fn nll_mean_value_matches_manual() {
        let g = Graph::new();
        let lp = g.leaf(Tensor::from_vec(vec![-0.1, -2.0, -3.0, -1.5, -0.2, -2.5], &[2, 3]), false);
        let loss = g.nll_mean(lp, &[0, 1]);
        assert!((g.value(loss).item() - (0.1 + 0.2) / 2.0).abs() < 1e-6);
    }
}
