//! Generated inputs: the world on disk, the training split and corpus,
//! and the seeded request stream.

use crate::spec::{Workload, WORLD_SEED};
use sdea_kg::{KnowledgeGraph, SplitSeeds};
use sdea_tensor::Rng;
use std::io;
use std::path::{Path, PathBuf};

/// Everything a run feeds the program.
pub struct Inputs {
    /// The OpenEA-layout dataset directory the server loads KG2 names from.
    pub dataset_dir: PathBuf,
    /// KG1 as loaded back from `dataset_dir`.
    pub kg1: KnowledgeGraph,
    /// KG2 as loaded back from `dataset_dir`.
    pub kg2: KnowledgeGraph,
    /// The 2:1:7 split of the seed links.
    pub split: SplitSeeds,
    /// Pre-training corpus: every attribute value of both KGs.
    pub corpus: Vec<String>,
    /// Distinct query texts: KG1 attribute sequences.
    pub queries: Vec<String>,
    /// Query index of each scheduled request, in schedule order.
    pub stream: Vec<usize>,
}

impl Inputs {
    /// Writes the workload's world to `dir` and loads it back exactly as
    /// `sdea align <dir> --seed WORLD_SEED` would, then draws `n_requests`
    /// queries from a `seed`-shuffled cycle over the KG1 sequences.
    pub fn generate(w: &Workload, seed: u64, n_requests: usize, dir: &Path) -> io::Result<Inputs> {
        let ds =
            sdea_synth::generate(&sdea_synth::DatasetProfile::dbp15k_zh_en(w.links, WORLD_SEED));
        std::fs::create_dir_all(dir)?;
        sdea_kg::io::save_kg(ds.kg1(), &dir.join("rel_triples_1"), &dir.join("attr_triples_1"))?;
        sdea_kg::io::save_kg(ds.kg2(), &dir.join("rel_triples_2"), &dir.join("attr_triples_2"))?;
        sdea_kg::io::save_links(&ds.seeds, ds.kg1(), ds.kg2(), &dir.join("ent_links"))?;
        let kg1 = sdea_kg::io::load_kg(&dir.join("rel_triples_1"), &dir.join("attr_triples_1"))?;
        let kg2 = sdea_kg::io::load_kg(&dir.join("rel_triples_2"), &dir.join("attr_triples_2"))?;
        let seeds = sdea_kg::io::load_links(&kg1, &kg2, &dir.join("ent_links"))?;
        let split = seeds.split_paper(&mut Rng::seed_from_u64(WORLD_SEED));
        let mut corpus: Vec<String> = kg1.attr_triples().iter().map(|t| t.value.clone()).collect();
        corpus.extend(kg2.attr_triples().iter().map(|t| t.value.clone()));

        let mut rng = Rng::seed_from_u64(seed);
        let queries = sdea_core::AttrSequencer::new(&kg1, &mut rng).sequences().to_vec();
        let mut stream = Vec::with_capacity(n_requests);
        while stream.len() < n_requests {
            let mut cycle: Vec<usize> = (0..queries.len()).collect();
            rng.shuffle(&mut cycle);
            stream.extend(cycle.into_iter().take(n_requests - stream.len()));
        }
        Ok(Inputs { dataset_dir: dir.to_path_buf(), kg1, kg2, split, corpus, queries, stream })
    }
}
