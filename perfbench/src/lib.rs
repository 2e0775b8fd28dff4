//! # sdea-perfbench
//!
//! The repository benchmark: one command that trains SDEA, serves the
//! trained model under an open-loop request schedule, checks every answer,
//! and prints each end-to-end metric (or, in a traced run, each per-layer
//! metric) by name and unit. See `perfbench/README.md` for the workloads,
//! the metric catalogue and the layer → metric → workload map.
//!
//! The benchmark only calls the workspace's public API. Per-layer timings
//! come from timers around those calls in [`replica`] and [`serving`],
//! plus the spans and counters the program already records in the
//! `sdea_obs` registry; nothing here adds instrumentation to the program.

#![forbid(unsafe_code)]

pub mod host;
pub mod inputs;
pub mod ledger;
pub mod openloop;
pub mod quiet;
pub mod replica;
pub mod serving;
pub mod spec;
pub mod stats;
