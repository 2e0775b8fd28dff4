//! Hits@K and MRR over similarity rankings (paper Section V-A2).
//!
//! Two entry points share one ranking code path. [`evaluate_ranking`]
//! scores a pre-computed `n × m` similarity matrix in one go. [`evaluate`]
//! takes the query embeddings and a [`Targets`] source — an in-memory
//! [`Table`], on-disk [`Shards`] or a retriever [`Shortlist`] — and walks
//! the queries in bounded row blocks, so only one block's scores are ever
//! resident and the full matrix never exists. Both rank every row with the
//! same [`rank_of`] tie rule and accumulate metrics serially in global row
//! order through [`RankAccum`], so the dense sources are **bit-identical**
//! to the matrix path at any block size and any `SDEA_THREADS` budget.

use crate::similarity::{desc_nan_last, SimilarityMatrix};
use sdea_index::Retriever;
use sdea_tensor::{EmbeddingShards, Tensor};
use std::cmp::Ordering;
use std::convert::Infallible;

/// The paper's three reported metrics.
#[derive(Copy, Clone, Debug, PartialEq, Default)]
pub struct AlignmentMetrics {
    /// Hits@1 in `[0,1]`.
    pub hits1: f64,
    /// Hits@10 in `[0,1]`.
    pub hits10: f64,
    /// Mean reciprocal rank in `[0,1]`; 0 only when no gold was ranked (a
    /// [`Shortlist`] miss contributes a reciprocal rank of 0).
    pub mrr: f64,
}

impl AlignmentMetrics {
    /// Formats as the paper's percentage row `H@1 H@10 MRR`.
    pub fn paper_row(&self) -> String {
        format!("{:5.1} {:5.1} {:.2}", self.hits1 * 100.0, self.hits10 * 100.0, self.mrr)
    }
}

/// Serial metric accumulator shared by every evaluation path. Ranks are
/// integers, so the only floating-point state is the MRR sum; pushing ranks
/// one at a time in global row order makes a blocked evaluation reproduce
/// the one-shot f64 addition sequence exactly — that is what buys bitwise
/// equality between the materialized and blocked paths.
#[derive(Default)]
struct RankAccum {
    rows: usize,
    h1: usize,
    h10: usize,
    mrr: f64,
}

impl RankAccum {
    /// Adds one query: `Some(rank)` for a ranked gold, `None` for a gold
    /// the source never ranked (no hit, reciprocal rank 0).
    fn push(&mut self, rank: Option<usize>) {
        self.rows += 1;
        if let Some(rank) = rank {
            self.h1 += usize::from(rank == 1);
            self.h10 += usize::from(rank <= 10);
            self.mrr += 1.0 / rank as f64;
        }
    }

    fn finish(self) -> AlignmentMetrics {
        let n = self.rows.max(1) as f64;
        AlignmentMetrics {
            hits1: self.h1 as f64 / n,
            hits10: self.h10 as f64 / n,
            mrr: self.mrr / n,
        }
    }
}

/// 1-based rank of `gold` within `scores` (descending). Ties are broken
/// pessimistically for indices before `gold` and optimistically after —
/// i.e. rank = 1 + |{j : s_j ranks before s_gold}| + |{j < gold : s_j ==
/// s_gold}|, which is deterministic and matches a stable descending sort
/// under [`desc_nan_last`].
///
/// NaN scores follow the crate-wide convention: they rank *last*. A NaN
/// gold therefore ranks behind every real candidate (it used to silently
/// rank 1 because `NaN > NaN` and `s > NaN` are both false), and a NaN
/// candidate never outranks a real gold.
///
/// Panics with a descriptive message when `gold` is out of range — in
/// particular for an empty `scores` slice (a zero-column similarity
/// matrix), where no rank exists.
pub fn rank_of(scores: &[f32], gold: usize) -> usize {
    assert!(
        gold < scores.len(),
        "rank_of: gold index {gold} out of range for {} candidate scores",
        scores.len()
    );
    let g = scores[gold];
    let mut rank = 1usize;
    for (j, &s) in scores.iter().enumerate() {
        match desc_nan_last(s, g) {
            Ordering::Less => rank += 1,
            Ordering::Equal if j < gold => rank += 1,
            _ => {}
        }
    }
    rank
}

/// Checks one in-range gold target per query row, on the calling thread: a
/// failure inside a parallel worker would surface as an opaque join panic
/// instead of this message.
fn check_gold(rows: usize, gold: &[usize], m: usize) {
    assert_eq!(rows, gold.len(), "one gold target per query row");
    for (i, &g) in gold.iter().enumerate() {
        assert!(g < m, "evaluate: gold[{i}] column {g} out of range for {m} targets");
    }
}

/// Ranks each row of a row-major `gold.len() × m` score slab against its
/// gold column. Rows fan out across the thread budget; the caller
/// accumulates them serially in row order, so MRR is bit-stable.
fn rank_rows(slab: &[f32], m: usize, gold: &[usize]) -> Vec<Option<usize>> {
    sdea_tensor::par_map_collect(gold.len(), m.max(1), |r| {
        Some(rank_of(&slab[r * m..(r + 1) * m], gold[r]))
    })
}

/// Evaluates a similarity matrix against gold targets: `gold[i]` is the
/// column index of source row `i`'s true match. This is the single-block
/// case of [`evaluate`], and the oracle every blocked source is tested
/// against.
///
/// Panics with a descriptive message when any gold column is out of range;
/// a zero-column matrix is therefore rejected up front unless `gold` is
/// empty (no rows to rank — all metrics are 0).
pub fn evaluate_ranking(sim: &SimilarityMatrix, gold: &[usize]) -> AlignmentMetrics {
    let m = sim.shape()[1];
    check_gold(sim.shape()[0], gold, m);
    let _span = sdea_obs::span("eval.evaluate_ranking");
    let mut acc = RankAccum::default();
    rank_rows(sim.data(), m, gold).into_iter().for_each(|r| acc.push(r));
    acc.finish()
}

/// A target side [`evaluate`] ranks against, one query block at a time.
/// The three sources are [`Table`], [`Shards`] and [`Shortlist`]; the
/// driver owns validation, the block walk and the accumulation, a source
/// only turns a block of queries into gold ranks.
pub trait Targets {
    /// What reading the targets can fail with: [`Infallible`] for the
    /// in-memory sources, so their callers need no error handling.
    type Error;
    /// Whether a block scores every target — a `block × rows()` cosine
    /// slab, counted in `eval.cosine_cells` — rather than a shortlist.
    const DENSE: bool;
    /// Number of target rows; gold ids index them.
    fn rows(&self) -> usize;
    /// Embedding width.
    fn dim(&self) -> usize;
    /// 1-based rank of each query's gold, `None` when the source did not
    /// rank it. `gold[i]` is the gold target of `block` row `i`.
    fn ranks(&self, block: &Tensor, gold: &[usize]) -> Result<Vec<Option<usize>>, Self::Error>;
}

/// An in-memory target embedding table, scored exhaustively. Each block
/// row equals the matching full-matrix row bitwise: row normalization and
/// the `matmul_t` kernel are per-row/per-element operations. The table is
/// normalized per block, `O(m·d)` next to the block's `O(block·m·d)`
/// matmul.
pub struct Table<'a>(pub &'a Tensor);

impl Targets for Table<'_> {
    type Error = Infallible;
    const DENSE: bool = true;
    fn rows(&self) -> usize {
        self.0.shape()[0]
    }
    fn dim(&self) -> usize {
        assert_eq!(self.0.rank(), 2, "Table expects a rank-2 target table");
        self.0.shape()[1]
    }
    fn ranks(&self, block: &Tensor, gold: &[usize]) -> Result<Vec<Option<usize>>, Infallible> {
        let sim = block.normalized_view().matmul_t(&self.0.normalized_view());
        Ok(rank_rows(sim.data(), self.rows(), gold))
    }
}

/// A target table spilled to an [`EmbeddingShards`] directory, read one
/// shard at a time per query block: neither the full target tensor nor the
/// full similarity matrix is ever resident. A shard's normalized rows
/// equal the full table's, so every cell is the same `matmul_t` dot
/// product as in a [`Table`].
pub struct Shards<'a>(pub &'a EmbeddingShards);

impl Targets for Shards<'_> {
    type Error = std::io::Error;
    const DENSE: bool = true;
    fn rows(&self) -> usize {
        self.0.len()
    }
    fn dim(&self) -> usize {
        self.0.dim()
    }
    fn ranks(&self, block: &Tensor, gold: &[usize]) -> std::io::Result<Vec<Option<usize>>> {
        let (qb, m) = (gold.len(), self.0.len());
        let q_n = block.normalized_view();
        let mut slab = vec![0.0f32; qb * m];
        for s in 0..self.0.n_shards() {
            let (c0, c1) = self.0.shard_range(s);
            let w = c1 - c0;
            let cols = q_n.matmul_t(&self.0.read_shard(s)?.normalized_view());
            for r in 0..qb {
                slab[r * m + c0..r * m + c1].copy_from_slice(&cols.data()[r * w..(r + 1) * w]);
            }
        }
        Ok(rank_rows(&slab, m, gold))
    }
}

/// The top-`k` hit lists of a [`Retriever`]. The gold's rank is its
/// 1-based position in the list. A gold missing from the list counts
/// honestly: no hit and reciprocal rank 0.
///
/// With an exact backend and `k >= 10`, Hits@1 and Hits@10 equal the full
/// ranking's and MRR is a lower bound on it (only golds ranked below `k`
/// lose their tail term); at `k >= rows()` all three are bit-identical to
/// [`evaluate_ranking`], because the hit list is a stable descending sort
/// under [`desc_nan_last`] with ties broken by lower index — exactly
/// [`rank_of`]'s tie rule. A `k` below 10 that does not cover every target
/// leaves Hits@10 undefined and panics.
///
/// Retriever search is per query row, so block composition cannot change
/// any list.
pub struct Shortlist<'a> {
    /// Retriever over the targets.
    pub retr: &'a dyn Retriever,
    /// Shortlist length per query.
    pub k: usize,
}

impl Targets for Shortlist<'_> {
    type Error = Infallible;
    const DENSE: bool = false;
    fn rows(&self) -> usize {
        self.retr.len()
    }
    fn dim(&self) -> usize {
        self.retr.dim()
    }
    fn ranks(&self, block: &Tensor, gold: &[usize]) -> Result<Vec<Option<usize>>, Infallible> {
        assert!(
            self.k >= 10.min(self.rows()),
            "Shortlist k = {} is below 10 and below the {} targets: Hits@10 is undefined",
            self.k,
            self.rows()
        );
        Ok(self
            .retr
            .search(block, self.k)
            .iter()
            .zip(gold)
            .map(|(row, &g)| row.iter().position(|&(j, _)| j == g).map(|p| p + 1))
            .collect())
    }
}

/// Blocked evaluation: walks `queries` in `block_rows`-high row blocks (0
/// means one block), hands each to the [`Targets`] source and accumulates
/// the returned ranks in global row order. `gold[i]` is the target row of
/// query `i`'s true match.
///
/// Dense sources ([`Table`], [`Shards`]) are bit-identical to
/// `evaluate_ranking(&cosine_matrix(queries, targets), gold)` at any block
/// size and thread budget. The error type follows the source: in-memory
/// callers get `Result<_, Infallible>` and unwrap it with an irrefutable
/// `let Ok(m) = …`.
pub fn evaluate<T: Targets>(
    queries: &Tensor,
    targets: T,
    gold: &[usize],
    block_rows: usize,
) -> Result<AlignmentMetrics, T::Error> {
    assert_eq!(queries.rank(), 2, "evaluate expects rank-2 queries");
    assert_eq!(queries.shape()[1], targets.dim(), "embedding width mismatch");
    let (n, m) = (queries.shape()[0], targets.rows());
    check_gold(n, gold, m);
    let _span = sdea_obs::span("eval.evaluate");
    let block = if block_rows == 0 { n.max(1) } else { block_rows };
    let mut acc = RankAccum::default();
    for start in (0..n).step_by(block) {
        let end = (start + block).min(n);
        let ranks = targets.ranks(&row_block(queries, start, end), &gold[start..end])?;
        assert_eq!(ranks.len(), end - start, "a target source must rank every query of its block");
        if T::DENSE {
            sdea_obs::add("eval.cosine_cells", ((end - start) * m) as u64);
        }
        ranks.into_iter().for_each(|r| acc.push(r));
    }
    Ok(acc.finish())
}

/// Copies rows `r0..r1` of a rank-2 tensor into a standalone block tensor.
fn row_block(t: &Tensor, r0: usize, r1: usize) -> Tensor {
    let d = t.shape()[1];
    Tensor::from_vec(t.data()[r0 * d..r1 * d].to_vec(), &[r1 - r0, d])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::cosine_matrix;
    use sdea_index::{ExactRetriever, IndexConfig, IndexKind, IvfRetriever};

    #[test]
    fn rank_of_basics() {
        assert_eq!(rank_of(&[0.9, 0.5, 0.1], 0), 1);
        assert_eq!(rank_of(&[0.9, 0.5, 0.1], 1), 2);
        assert_eq!(rank_of(&[0.9, 0.5, 0.1], 2), 3);
    }

    #[test]
    fn rank_of_ties_are_stable() {
        // Equal scores: earlier index wins.
        assert_eq!(rank_of(&[0.5, 0.5], 0), 1);
        assert_eq!(rank_of(&[0.5, 0.5], 1), 2);
    }

    #[test]
    fn perfect_ranking_gives_ones() {
        let sim = Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0], &[3, 3]);
        let m = evaluate_ranking(&sim, &[0, 1, 2]);
        assert_eq!(m.hits1, 1.0);
        assert_eq!(m.hits10, 1.0);
        assert_eq!(m.mrr, 1.0);
    }

    #[test]
    fn worst_ranking_metrics() {
        // gold always last of 12 candidates -> rank 12 (> 10)
        let mut data = vec![0.0f32; 12];
        data[..11].iter_mut().enumerate().for_each(|(i, v)| *v = 1.0 + i as f32);
        data[11] = -1.0;
        let sim = Tensor::from_vec(data, &[1, 12]);
        let m = evaluate_ranking(&sim, &[11]);
        assert_eq!(m.hits1, 0.0);
        assert_eq!(m.hits10, 0.0);
        assert!((m.mrr - 1.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn hits1_le_hits10_and_mrr_bounds() {
        // random-ish matrix
        let data: Vec<f32> = (0..50).map(|i| ((i * 37 % 17) as f32).sin()).collect();
        let sim = Tensor::from_vec(data, &[5, 10]);
        let m = evaluate_ranking(&sim, &[3, 1, 4, 0, 9]);
        assert!(m.hits1 <= m.hits10);
        assert!(m.mrr > 0.0 && m.mrr <= 1.0);
        assert!(m.hits1 <= m.mrr + 1e-12, "MRR >= Hits@1 always");
    }

    #[test]
    fn zero_column_matrix_with_no_rows_scores_zero() {
        // Degenerate but valid: nothing to rank, all metrics are 0.
        let sim = Tensor::zeros(&[0, 0]);
        let m = evaluate_ranking(&sim, &[]);
        assert_eq!(m, AlignmentMetrics::default());
    }

    #[test]
    #[should_panic(expected = "gold[0] column 0 out of range for 0 targets")]
    fn zero_column_matrix_with_rows_panics_cleanly() {
        // One source row but no target columns: the gold can never be
        // ranked. Must fail with a descriptive message on the calling
        // thread, not an index panic inside a parallel worker.
        let sim = Tensor::zeros(&[1, 0]);
        evaluate_ranking(&sim, &[0]);
    }

    #[test]
    #[should_panic(expected = "out of range for 3 targets")]
    fn out_of_range_gold_panics_cleanly() {
        let sim = Tensor::zeros(&[1, 3]);
        evaluate_ranking(&sim, &[3]);
    }

    #[test]
    #[should_panic(expected = "rank_of: gold index 0 out of range for 0 candidate scores")]
    fn rank_of_empty_scores_panics_cleanly() {
        rank_of(&[], 0);
    }

    #[test]
    fn nan_gold_ranks_last_not_first() {
        // Regression: a NaN gold used to rank 1 because no score compares
        // greater than NaN. Under the NaN-last convention it ranks behind
        // every real candidate.
        assert_eq!(rank_of(&[0.9, f32::NAN, 0.1], 1), 3);
        // NaN candidates never outrank a real gold.
        assert_eq!(rank_of(&[f32::NAN, 0.5, f32::NAN], 1), 1);
        // NaN gold among NaN candidates: index tie-break.
        assert_eq!(rank_of(&[f32::NAN, f32::NAN], 1), 2);
    }

    #[test]
    fn evaluate_ranking_with_nan_rows_never_panics() {
        // Row 0: gold is NaN -> worst rank (3). Row 1: gold real, a NaN
        // competitor is ignored -> rank 1.
        let sim = Tensor::from_vec(vec![0.9, f32::NAN, 0.1, f32::NAN, 0.8, 0.2], &[2, 3]);
        let m = evaluate_ranking(&sim, &[1, 1]);
        assert!((m.hits1 - 0.5).abs() < 1e-12);
        assert!((m.mrr - (1.0 / 3.0 + 1.0) / 2.0).abs() < 1e-12);
    }

    fn assert_bitwise(a: &AlignmentMetrics, b: &AlignmentMetrics, ctx: &str) {
        assert_eq!(a.hits1.to_bits(), b.hits1.to_bits(), "{ctx}: hits1");
        assert_eq!(a.hits10.to_bits(), b.hits10.to_bits(), "{ctx}: hits10");
        assert_eq!(a.mrr.to_bits(), b.mrr.to_bits(), "{ctx}: mrr");
    }

    fn random_pair() -> (Tensor, Tensor, Vec<usize>) {
        use sdea_tensor::Rng;
        let mut rng = Rng::seed_from_u64(9);
        let src = Tensor::rand_normal(&[30, 8], 1.0, &mut rng);
        let tgt = Tensor::rand_normal(&[40, 8], 1.0, &mut rng);
        let gold: Vec<usize> = (0..30).map(|i| (i * 7) % 40).collect();
        (src, tgt, gold)
    }

    /// In-memory evaluation cannot fail: the error type is uninhabited.
    fn infallible(r: Result<AlignmentMetrics, Infallible>) -> AlignmentMetrics {
        let Ok(m) = r;
        m
    }

    /// Every target source at every block height and thread budget against
    /// the materialized matrix oracle, bitwise.
    #[test]
    fn every_target_source_matches_the_matrix_oracle_bitwise() {
        use sdea_tensor::with_thread_budget;
        let (src, tgt, gold) = random_pair();
        let (n, m) = (gold.len(), tgt.shape()[0]);
        let oracle = evaluate_ranking(&cosine_matrix(&src, &tgt), &gold);

        let base = std::env::temp_dir().join(format!("sdea_eval_shards_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let shard_sets: Vec<EmbeddingShards> = [1usize, 7, 40]
            .iter()
            .map(|&h| {
                let shards =
                    EmbeddingShards::open_or_create(base.join(format!("h{h}")), m, 8, h, 1)
                        .expect("create shards");
                for s in 0..shards.n_shards() {
                    let (r0, r1) = shards.shard_range(s);
                    shards.write_shard(s, &row_block(&tgt, r0, r1)).expect("write shard");
                }
                shards
            })
            .collect();
        let exact = ExactRetriever::new(&tgt);
        let ivf_with = |nprobe| {
            let cfg = IndexConfig { kind: IndexKind::Ivf, nlist: 4, nprobe, quantize: true };
            IvfRetriever::build(&tgt, &cfg)
        };
        let (ivf, ivf2) = (ivf_with(0), ivf_with(2));

        type Run<'a> = Box<dyn Fn(usize) -> AlignmentMetrics + 'a>;
        let (src, gold) = (&src, &gold);
        let mut cases: Vec<(String, AlignmentMetrics, Run)> = vec![(
            "table".into(),
            oracle,
            Box::new(|b| infallible(evaluate(src, Table(&tgt), gold, b))),
        )];
        for shards in &shard_sets {
            let name = format!("shards of {}", shards.shard_range(0).1);
            let run = move |b| evaluate(src, Shards(shards), gold, b).expect("sharded eval");
            cases.push((name, oracle, Box::new(run)));
        }
        for (name, retr) in [("exact", &exact as &dyn Retriever), ("ivf nprobe=0", &ivf)] {
            let run = move |b| infallible(evaluate(src, Shortlist { retr, k: m }, gold, b));
            cases.push((format!("{name} k=m"), oracle, Box::new(run)));
        }
        // Truncated and approximate shortlists have no matrix oracle; they
        // must still be invariant to block height and thread budget, so
        // their oracle is the one-block evaluation.
        for (name, retr, k) in [
            ("exact", &exact as &dyn Retriever, 10),
            ("ivf nprobe=2", &ivf2, 10),
            ("ivf nprobe=2", &ivf2, m),
        ] {
            let run = move |b| infallible(evaluate(src, Shortlist { retr, k }, gold, b));
            cases.push((format!("{name} k={k}"), run(0), Box::new(run)));
        }

        // One budget scope per case keeps each hold of the budget lock short
        // (and its allocations small) for tests waiting on it.
        for (name, want, run) in &cases {
            for threads in [1usize, 8] {
                with_thread_budget(threads, || {
                    for block in [0usize, 1, 7, n, n + 1000] {
                        let ctx = format!("{name} threads {threads} block {block}");
                        assert_bitwise(want, &run(block), &ctx);
                    }
                });
            }
        }
        let _ = std::fs::remove_dir_all(&base);
    }

    /// A gold at true rank 11–20 sits outside a `k = 10` shortlist: it is
    /// no hit and contributes reciprocal rank 0, never the `1 / (k + 1)` a
    /// lower-bound rank would claim.
    #[test]
    fn shortlist_miss_counts_no_hit_and_zero_reciprocal_rank() {
        // 20 unit targets at increasing angles from the query: true rank of
        // target j is j + 1.
        let tgt: Vec<f32> =
            (0..20).flat_map(|j| [(j as f32 * 0.1).cos(), (j as f32 * 0.1).sin()]).collect();
        let tgt = Tensor::from_vec(tgt, &[20, 2]);
        let q = Tensor::from_vec(vec![1.0, 0.0], &[1, 2]);
        let retr = ExactRetriever::new(&tgt);
        for gold in 10..20 {
            assert_eq!(rank_of(cosine_matrix(&q, &tgt).row(0), gold), gold + 1);
            let shortlist = Shortlist { retr: &retr, k: 10 };
            let m = infallible(evaluate(&q, shortlist, &[gold], 0));
            assert_eq!(m, AlignmentMetrics::default(), "gold at true rank {}", gold + 1);
        }
    }

    #[test]
    #[should_panic(expected = "Shortlist k = 5 is below 10 and below the 20 targets")]
    fn shortlist_below_ten_is_rejected() {
        let tgt = Tensor::from_vec((0..40).map(|i| i as f32).collect(), &[20, 2]);
        let q = Tensor::from_vec(vec![1.0, 0.0], &[1, 2]);
        let retr = ExactRetriever::new(&tgt);
        let _ = evaluate(&q, Shortlist { retr: &retr, k: 5 }, &[0], 0);
    }

    /// Regression (serving hardening): zero-norm embedding rows — e.g. an
    /// empty attribute text after normalization — must behave identically
    /// in the matrix path and every retriever backend, and can never push
    /// NaN into MRR. The convention ([`Tensor::normalized_view`]) is that
    /// a zero row's cosine against anything is exactly `0.0`.
    #[test]
    fn zero_norm_rows_agree_across_paths_and_keep_mrr_finite() {
        // src row 1 and tgt rows 0, 2 are all-zero.
        let src = Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0, 0.6, 0.8], &[3, 2]);
        let tgt =
            Tensor::from_vec(vec![0.0, 0.0, 1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 1.0], &[5, 2]);
        let gold = vec![1, 0, 4];
        let sim = cosine_matrix(&src, &tgt);
        // Zero rows and zero columns score exactly 0.0 — bitwise, not NaN.
        for j in 0..5 {
            assert_eq!(sim.row(1)[j].to_bits(), 0.0f32.to_bits(), "zero query vs target {j}");
        }
        for (i, row) in (0..3).map(|i| sim.row(i)).enumerate() {
            assert_eq!(row[0].to_bits(), 0.0f32.to_bits(), "query {i} vs zero target");
            assert_eq!(row[2].to_bits(), 0.0f32.to_bits(), "query {i} vs zero target");
        }
        let via_matrix = evaluate_ranking(&sim, &gold);
        assert!(via_matrix.mrr.is_finite() && via_matrix.mrr > 0.0, "MRR must stay finite");
        // Exact retriever: per-hit scores bitwise equal the matrix cells.
        let exact = ExactRetriever::new(&tgt);
        for (i, hits) in exact.search(&src, 5).iter().enumerate() {
            assert_eq!(hits.len(), 5);
            for &(j, s) in hits {
                assert_eq!(s.to_bits(), sim.row(i)[j].to_bits(), "query {i} target {j}");
            }
        }
        // Both backends produce the same metrics as the matrix, bitwise.
        let ivf = IvfRetriever::build(
            &tgt,
            &IndexConfig { kind: IndexKind::Ivf, nlist: 2, nprobe: 0, quantize: true },
        );
        for (name, retr) in [("exact", &exact as &dyn Retriever), ("ivf", &ivf)] {
            let m = infallible(evaluate(&src, Shortlist { retr, k: 5 }, &gold, 0));
            assert_bitwise(&via_matrix, &m, name);
        }
    }

    /// An all-zero gold row still ranks deterministically: every score in
    /// its row is an exact 0.0 tie, so rank falls back to index order.
    #[test]
    fn all_zero_query_row_ranks_by_index_ties() {
        let src = Tensor::zeros(&[1, 3]);
        let tgt = Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0], &[2, 3]);
        let sim = cosine_matrix(&src, &tgt);
        assert_eq!(rank_of(sim.row(0), 0), 1);
        assert_eq!(rank_of(sim.row(0), 1), 2);
        let m = evaluate_ranking(&sim, &[1]);
        assert!(m.mrr.is_finite());
        assert!((m.mrr - 0.5).abs() < 1e-12);
    }

    #[test]
    fn paper_row_format() {
        let m = AlignmentMetrics { hits1: 0.87, hits10: 0.966, mrr: 0.91 };
        assert_eq!(m.paper_row(), " 87.0  96.6 0.91");
    }
}
