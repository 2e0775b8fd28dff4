//! # sdea-eval
//!
//! Evaluation metrics and similarity computation for entity alignment.
//!
//! Implements the paper's protocol (Section V-A2): for each source entity,
//! target entities are ranked by cosine similarity of their embeddings; the
//! reported metrics are Hits@1, Hits@10 and MRR over the test seed links.
//! [`evaluate_ranking`] scores a materialized similarity matrix;
//! [`evaluate`] scores query embeddings block by block against a
//! [`Targets`] source ([`Table`], [`Shards`] or a retriever [`Shortlist`])
//! without ever materializing the matrix. Also provides CSLS re-ranking
//! ([`csls_rescale`], a standard hubness correction used by several
//! baselines) and paper-style table formatting.

#![forbid(unsafe_code)]

pub mod csls;
pub mod metrics;
pub mod report;
pub mod similarity;
pub mod strings;

pub use csls::csls_rescale;
pub use metrics::{
    evaluate, evaluate_ranking, rank_of, AlignmentMetrics, Shards, Shortlist, Table, Targets,
};
pub use report::{format_table, TableRow};
pub use similarity::{
    argmax_cols, argmax_rows, argsort_rows_desc, cosine_matrix, desc_nan_last, top_k_indices,
    top_k_rows, SimilarityMatrix,
};
