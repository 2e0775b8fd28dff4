//! Thread-budget invariance of the core pipeline stages that fan out
//! through the fork-join layer: batched entity embedding, candidate
//! generation and bootstrap pair mining.

use sdea_core::bootstrap::mutual_nearest_pairs;
use sdea_core::{AttrModule, CandidateSet, SdeaConfig};
use sdea_kg::EntityId;
use sdea_tensor::{with_thread_budget, Rng, Tensor};

fn toy_corpus(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("entity epsilon{i} born {} in zeta{}", 1900 + i % 90, i % 13)).collect()
}

/// `embed_rows` cuts its rows into `⌈n / budget⌉`-row batches of at most
/// 64. Every (budget, row count) cut, including ragged last batches and
/// counts around the 64-row cap, must reproduce the one-row-per-batch
/// embeddings bit for bit.
#[test]
fn embed_all_bitwise_equal_across_budgets() {
    let corpus = toy_corpus(150); // > 2 batches of 64
    let mut rng = Rng::seed_from_u64(1);
    let mut cfg = SdeaConfig::test_tiny();
    cfg.mlm_epochs = 0;
    let module = AttrModule::build(&cfg, &corpus, &mut rng);
    let cache = module.token_cache(&corpus);
    let d = cfg.embed_dim;
    let one_row: Vec<f32> = with_thread_budget(1, || {
        (0..corpus.len())
            .flat_map(|r| module.embed_rows(&cache, &[r], &mut Rng::seed_from_u64(9)).into_data())
            .collect()
    });
    for budget in [1usize, 2, 3, 8] {
        for n in [1usize, 2, 64, 65, 99, 150] {
            // A strided view, so rows are not simply the first n entities.
            let rows: Vec<usize> = (0..n).map(|i| (i * 7) % corpus.len()).collect();
            let got = with_thread_budget(budget, || {
                module.embed_rows(&cache, &rows, &mut Rng::seed_from_u64(9))
            });
            assert_eq!(got.shape(), &[n, d]);
            for (i, &r) in rows.iter().enumerate() {
                assert_eq!(
                    got.row(i),
                    &one_row[r * d..(r + 1) * d],
                    "budget {budget} n {n} row {i}"
                );
            }
        }
        let all =
            with_thread_budget(budget, || module.embed_all(&cache, &mut Rng::seed_from_u64(9)));
        assert_eq!(all.data(), &one_row[..], "embed_all at budget {budget}");
    }
}

#[test]
fn embed_all_does_not_consume_caller_rng() {
    let corpus = toy_corpus(70);
    let mut rng = Rng::seed_from_u64(2);
    let mut cfg = SdeaConfig::test_tiny();
    cfg.mlm_epochs = 0;
    let module = AttrModule::build(&cfg, &corpus, &mut rng);
    let cache = module.token_cache(&corpus);
    let mut r1 = Rng::seed_from_u64(42);
    let mut r2 = Rng::seed_from_u64(42);
    let _ = module.embed_all(&cache, &mut r1);
    assert_eq!(r1.next_u64(), r2.next_u64(), "eval embedding must not advance the RNG");
}

#[test]
fn candidate_generation_budget_invariant() {
    let mut rng = Rng::seed_from_u64(3);
    let src = Tensor::rand_normal(&[120, 32], 1.0, &mut rng);
    let tgt = Tensor::rand_normal(&[400, 32], 1.0, &mut rng);
    let sources: Vec<EntityId> = (0..120u32).map(EntityId).collect();
    let serial = with_thread_budget(1, || CandidateSet::generate(&sources, &src, &tgt, 15));
    let par = with_thread_budget(8, || CandidateSet::generate(&sources, &src, &tgt, 15));
    for &s in &sources {
        assert_eq!(serial.of(s), par.of(s), "source {s:?}");
    }
}

#[test]
fn bootstrap_pairs_budget_invariant() {
    let mut rng = Rng::seed_from_u64(4);
    let base = Tensor::rand_normal(&[300, 24], 1.0, &mut rng);
    // Perturbed copy: plenty of confident mutual-nearest pairs plus noise.
    let noise = Tensor::rand_normal(&[300, 24], 0.05, &mut rng);
    let other = base.add(&noise);
    let serial = with_thread_budget(1, || mutual_nearest_pairs(&base, &other, 0.8));
    let par = with_thread_budget(8, || mutual_nearest_pairs(&base, &other, 0.8));
    assert_eq!(serial, par);
    assert!(!serial.is_empty(), "perturbed copies should produce confident pairs");
}
