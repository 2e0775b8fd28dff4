//! # sdea-obs
//!
//! Lightweight, zero-dependency observability for the SDEA system: scoped
//! span timers, monotonic counters, value histograms, and structured JSON
//! run reports. Every crate above `sdea-tensor` instruments its hot paths
//! through this layer so benchmark runs produce machine-readable
//! `run_report_*.json` artifacts (per-stage wall time, per-epoch training
//! curves, counter totals).
//!
//! ## Design constraints
//!
//! * **Deterministic-safe.** Nothing recorded here ever feeds back into a
//!   computation: timers measure, they never steer. Instrumented code
//!   produces bit-identical tensors whether observability is on or off
//!   (enforced by the budget-equivalence test suites, which CI runs with
//!   `SDEA_OBS=1`).
//! * **Near-zero cost when disabled.** `SDEA_OBS=0` (or
//!   [`set_enabled`]`(false)`, wired to `SdeaConfig::obs`) reduces every
//!   instrumentation point to one relaxed atomic load.
//! * **No dependencies.** JSON is written by a ~100-line encoder in
//!   [`json`]; the registry is `std` synchronization only, so the crate
//!   builds air-gapped like the rest of the workspace.
//! * **Memory is a metric.** [`mem`] installs a counting global allocator
//!   (bytes allocated / live / peak, `SDEA_MEM=0` to switch off) and
//!   samples the kernel's `VmHWM` peak RSS; both land in every
//!   [`RunReport`].
//!
//! ## Usage
//!
//! ```
//! let _outer = sdea_obs::span("fit");
//! {
//!     let _inner = sdea_obs::span("epoch"); // recorded as "fit.epoch"
//!     sdea_obs::add("steps", 1);
//!     sdea_obs::record("loss", 0.25);
//! }
//! let snap = sdea_obs::snapshot();
//! assert!(snap.counters.get("steps").copied().unwrap_or(0) >= 1);
//! ```

// `deny`, not the workspace-standard `forbid`: the counting global
// allocator in [`mem`] is necessarily an `unsafe impl GlobalAlloc`, and
// `forbid` cannot be overridden locally. The single sanctioned opt-out
// lives at the top of `mem.rs`; sdea-lint's U-FORBID-UNSAFE rule accepts
// `deny` for exactly this crate root and no other.
#![deny(unsafe_code)]

pub mod env;
pub mod fsio;
pub mod json;
pub mod mem;
pub mod registry;
pub mod report;

pub use mem::MemStats;
pub use registry::{
    add, clear_enabled_override, counter, enabled, record, reset, set_enabled, snapshot, Counter,
    HistogramStats, ObsSnapshot, Span, SpanStats,
};
pub use report::RunReport;

/// Starts a scoped span timer. The returned guard records the elapsed wall
/// time under the dotted path of all spans active on this thread when it
/// drops (`span("fit")` then `span("epoch")` records `"fit.epoch"`).
/// A no-op when observability is disabled.
pub fn span(name: &str) -> Span {
    registry::span(name)
}
