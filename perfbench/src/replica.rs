//! A layer-by-layer replica of `SdeaPipeline::try_run`.
//!
//! [`train_traced`] calls the same public functions the pipeline calls,
//! in the same order and with the same RNG streams, for a run with no
//! checkpoint directory and no bootstrapping — the default
//! configuration. Timing each call from here attributes training time to
//! layers without adding a span to the program. The replica must stay
//! bitwise equal to the pipeline (`tests/replica_equivalence.rs`); the
//! traced run also checks that on every run by hashing the final tables.

use sdea_core::attr_module::AttrModule;
use sdea_core::rel_module::RelVariant;
use sdea_core::trainer::RelStage;
use sdea_core::{AttrSequencer, SdeaConfig};
use sdea_kg::{EntityId, KnowledgeGraph, SplitSeeds};
use sdea_tensor::{Rng, Tensor};
use std::time::Instant;

/// Wall time of each layer call, in seconds, and the memory each phase
/// needed.
#[derive(Clone, Debug, Default)]
pub struct LayerTimes {
    /// `AttrSequencer::new` on both KGs (Algorithm 1).
    pub sequencing_s: f64,
    /// `AttrModule::build`: vocabulary, LM initialisation, IDF table.
    pub attr_build_s: f64,
    /// `AttrModule::token_cache` on both sides.
    pub token_cache_s: f64,
    /// `AttrModule::fit_resumable` (Algorithm 2).
    pub attr_fit_s: f64,
    /// The two final `AttrModule::embed_all` tables.
    pub embed_all_s: f64,
    /// `RelStage::new` plus `RelStage::fit_resumable` (Algorithm 3).
    pub rel_fit_s: f64,
    /// `RelStage::full_embeddings` on both sides.
    pub final_embed_s: f64,
    /// Rows embedded by the final `embed_all` calls.
    pub embed_rows: usize,
    /// Peak live heap during `fit_resumable`, above the live heap at its
    /// start (bytes).
    pub attr_fit_peak_bytes: u64,
    /// Peak live heap during the final `embed_all` calls (bytes).
    pub embed_all_peak_bytes: u64,
}

impl LayerTimes {
    /// Sum of every layer's wall time.
    pub fn total_s(&self) -> f64 {
        self.sequencing_s
            + self.attr_build_s
            + self.token_cache_s
            + self.attr_fit_s
            + self.embed_all_s
            + self.rel_fit_s
            + self.final_embed_s
    }
}

/// What the replica produces: the pipeline's tables and encoder.
pub struct Trained {
    /// Attribute embeddings of KG1.
    pub h_a1: Tensor,
    /// Attribute embeddings of KG2.
    pub h_a2: Tensor,
    /// Final `H_ent` table of KG1.
    pub ent1: Tensor,
    /// Final `H_ent` table of KG2.
    pub ent2: Tensor,
    /// The fine-tuned attribute encoder.
    pub encoder: AttrModule,
}

/// Trains exactly like `SdeaPipeline { kg1, kg2, split, corpus, cfg,
/// variant: Full }.try_run()` with `cfg.checkpoint_dir == None`, timing
/// every layer call.
pub fn train_traced(
    kg1: &KnowledgeGraph,
    kg2: &KnowledgeGraph,
    split: &SplitSeeds,
    corpus: &[String],
    cfg: &SdeaConfig,
) -> (Trained, LayerTimes) {
    assert!(cfg.checkpoint_dir.is_none(), "the replica covers runs without checkpoints");
    if cfg.threads != 0 {
        sdea_tensor::set_thread_budget(cfg.threads);
    }
    if !cfg.obs {
        sdea_obs::set_enabled(false);
    }
    let mut t = LayerTimes::default();
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut seq_rng = rng.split();
    let mut build_rng = rng.split();
    let mut fit_rng = rng.split();
    let mut rel_rng = rng.split();

    let (seq1, seq2) = timed(&mut t.sequencing_s, || {
        (AttrSequencer::new(kg1, &mut seq_rng), AttrSequencer::new(kg2, &mut seq_rng))
    });
    let mut attr = timed(&mut t.attr_build_s, || AttrModule::build(cfg, corpus, &mut build_rng));
    let (cache1, cache2) = timed(&mut t.token_cache_s, || {
        (attr.token_cache(seq1.sequences()), attr.token_cache(seq2.sequences()))
    });

    sdea_obs::mem::reset_peak();
    let base = sdea_obs::mem::current_bytes();
    timed(&mut t.attr_fit_s, || {
        attr.fit_resumable(&cache1, &cache2, &split.train, &split.valid, &mut fit_rng, None)
    });
    t.attr_fit_peak_bytes = sdea_obs::mem::peak_bytes().saturating_sub(base);

    sdea_obs::mem::reset_peak();
    let base = sdea_obs::mem::current_bytes();
    let (h_a1, h_a2) = timed(&mut t.embed_all_s, || {
        (attr.embed_all(&cache1, &mut fit_rng), attr.embed_all(&cache2, &mut fit_rng))
    });
    t.embed_all_peak_bytes = sdea_obs::mem::peak_bytes().saturating_sub(base);
    t.embed_rows = cache1.len() + cache2.len();

    let stage = timed(&mut t.rel_fit_s, || {
        let mut stage = RelStage::new(cfg, RelVariant::Full, kg1, kg2, &mut rel_rng);
        let train = split.train.clone();
        stage.fit_resumable(cfg, &h_a1, &h_a2, &train, &split.valid, &mut rel_rng, None);
        stage
    });
    let (ent1, ent2) = timed(&mut t.final_embed_s, || {
        let ids1: Vec<EntityId> = (0..kg1.num_entities() as u32).map(EntityId).collect();
        let ids2: Vec<EntityId> = (0..kg2.num_entities() as u32).map(EntityId).collect();
        (stage.full_embeddings(&h_a1, true, &ids1), stage.full_embeddings(&h_a2, false, &ids2))
    });
    (Trained { h_a1, h_a2, ent1, ent2, encoder: attr }, t)
}

fn timed<R>(slot: &mut f64, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let out = f();
    *slot += t0.elapsed().as_secs_f64();
    out
}

/// FNV-1a over the bit patterns of the given tables: equal hashes mean
/// bitwise-equal tables (up to hash collisions).
pub fn tables_hash(tables: &[&Tensor]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for t in tables {
        for &d in t.shape() {
            h = fnv(h, &(d as u64).to_le_bytes());
        }
        for v in t.data() {
            h = fnv(h, &v.to_bits().to_le_bytes());
        }
    }
    h
}

/// Folds `bytes` into the FNV-1a state `h`.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
