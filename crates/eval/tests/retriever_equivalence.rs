//! End-to-end metric equivalence: Hits@1 / Hits@10 / MRR computed through
//! the retrieval layer (IVF at `nprobe = all`, quantized or not) are
//! bit-identical to the historical full-matrix path, at SDEA_THREADS
//! budgets 1 and 8.

use sdea_eval::{cosine_matrix, evaluate, evaluate_ranking, AlignmentMetrics, Shortlist};
use sdea_index::{build_retriever, IndexConfig, IndexKind, Retriever};
use sdea_tensor::{with_thread_budget, Rng, Tensor};

fn aligned_world(n: usize, d: usize, seed: u64) -> (Tensor, Tensor, Vec<usize>) {
    let mut rng = Rng::seed_from_u64(seed);
    let centers = Tensor::rand_normal(&[6, d], 1.0, &mut rng);
    let mut src = Vec::with_capacity(n * d);
    let mut tgt = Vec::with_capacity(n * d);
    for i in 0..n {
        let base = centers.row(i % 6);
        for &b in base {
            tgt.push(b + 0.3 * rng.normal());
            src.push(b + 0.3 * rng.normal());
        }
    }
    let gold = (0..n).collect();
    (Tensor::from_vec(src, &[n, d]), Tensor::from_vec(tgt, &[n, d]), gold)
}

/// Metrics over a retriever's top-`k` shortlists, all queries in one block.
fn shortlist_metrics(
    retr: &dyn Retriever,
    q: &Tensor,
    gold: &[usize],
    k: usize,
) -> AlignmentMetrics {
    let Ok(m) = evaluate(q, Shortlist { retr, k }, gold, 0);
    m
}

fn configs() -> Vec<IndexConfig> {
    vec![
        IndexConfig::default(),
        IndexConfig { kind: IndexKind::Ivf, nlist: 10, nprobe: 0, quantize: false },
        IndexConfig { kind: IndexKind::Ivf, nlist: 10, nprobe: 0, quantize: true },
    ]
}

#[test]
fn metrics_via_any_exact_backend_match_the_matrix_path_bitwise() {
    let (src, tgt, gold) = aligned_world(120, 16, 31);
    let expected = evaluate_ranking(&cosine_matrix(&src, &tgt), &gold);
    for cfg in configs() {
        let retr = build_retriever(&tgt, &cfg);
        for budget in [1usize, 8] {
            let got = with_thread_budget(budget, || {
                shortlist_metrics(retr.as_ref(), &src, &gold, tgt.shape()[0])
            });
            let ctx = format!("{cfg:?} budget={budget}");
            assert_eq!(expected.hits1.to_bits(), got.hits1.to_bits(), "hits1 {ctx}");
            assert_eq!(expected.hits10.to_bits(), got.hits10.to_bits(), "hits10 {ctx}");
            assert_eq!(expected.mrr.to_bits(), got.mrr.to_bits(), "mrr {ctx}");
        }
    }
}

#[test]
fn truncated_shortlists_preserve_shallow_metrics() {
    // With k = 10 every hit that matters for Hits@1/Hits@10 is still in
    // the shortlist; only MRR's deep tail is lost.
    let (src, tgt, gold) = aligned_world(100, 16, 33);
    let full = evaluate_ranking(&cosine_matrix(&src, &tgt), &gold);
    let retr = build_retriever(&tgt, &IndexConfig::default());
    let short = shortlist_metrics(retr.as_ref(), &src, &gold, 10);
    assert_eq!(full.hits1.to_bits(), short.hits1.to_bits());
    assert_eq!(full.hits10.to_bits(), short.hits10.to_bits());
    // A miss contributes reciprocal rank 0, so the truncated MRR is a
    // lower bound on the full one.
    assert!(short.mrr <= full.mrr, "a shortlist miss must not add reciprocal rank");
}
