//! # sdea-bench
//!
//! The experiment harness: one binary per table of the SDEA paper, plus
//! the kernel, index and scale benches. Shared machinery (dataset
//! scaling, method runners, timing, table assembly) lives here.
//!
//! ## Scale
//!
//! By default datasets are generated at **reproduction scale** (1/10 of the
//! originals — 1 500 links per 15K dataset); set `SDEA_SCALE=quick` for a
//! fast pass (300 links) or `SDEA_SCALE=full` for the 1/10 scale explicitly.
//! `SDEA_SEED` overrides the master seed.

#![forbid(unsafe_code)]

pub mod paper;
pub mod runner;

pub use runner::{
    bench_scale, load_dataset, report_dir, run_sdea, write_sdea_run_report, BenchScale,
    DatasetBundle, MethodOutcome,
};
