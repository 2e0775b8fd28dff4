//! The traced replica must be the pipeline, layer by layer: the same
//! public calls in the same order produce the same bits as
//! `SdeaPipeline::try_run`, at every thread budget.

use sdea_core::rel_module::RelVariant;
use sdea_core::{SdeaConfig, SdeaPipeline};
use sdea_perfbench::replica::{tables_hash, train_traced};
use sdea_tensor::{with_thread_budget, Rng};

fn check_at(threads: usize) {
    let ds = sdea_synth::generate(&sdea_synth::DatasetProfile::dbp15k_zh_en(20, 5));
    let split = ds.seeds.split_paper(&mut Rng::seed_from_u64(5));
    let mut corpus: Vec<String> = ds.kg1().attr_triples().iter().map(|t| t.value.clone()).collect();
    corpus.extend(ds.kg2().attr_triples().iter().map(|t| t.value.clone()));
    let cfg = SdeaConfig { seed: 5, attr_epochs: 2, rel_epochs: 3, ..SdeaConfig::test_tiny() };
    let (model, replica) = with_thread_budget(threads, || {
        let model = SdeaPipeline {
            kg1: ds.kg1(),
            kg2: ds.kg2(),
            split: &split,
            corpus: &corpus,
            cfg: cfg.clone(),
            variant: RelVariant::Full,
        }
        .try_run()
        .expect("pipeline runs without a checkpoint directory");
        let (replica, layers) = train_traced(ds.kg1(), ds.kg2(), &split, &corpus, &cfg);
        assert!(layers.total_s() > 0.0, "every layer call is timed");
        (model, replica)
    });
    assert_eq!(model.h_a1, replica.h_a1, "h_a1 at {threads} threads");
    assert_eq!(model.h_a2, replica.h_a2, "h_a2 at {threads} threads");
    assert_eq!(model.ent1, replica.ent1, "ent1 at {threads} threads");
    assert_eq!(model.ent2, replica.ent2, "ent2 at {threads} threads");
    assert_eq!(
        tables_hash(&[&model.ent1, &model.ent2]),
        tables_hash(&[&replica.ent1, &replica.ent2])
    );
    let encoder = model.attr_module.as_ref().expect("a fresh run keeps its encoder");
    let text = "query 1999";
    assert_eq!(encoder.embed_one(text), replica.encoder.embed_one(text));
}

#[test]
fn replica_matches_pipeline_bitwise_at_one_thread() {
    check_at(1);
}

#[test]
fn replica_matches_pipeline_bitwise_at_two_threads() {
    check_at(2);
}
