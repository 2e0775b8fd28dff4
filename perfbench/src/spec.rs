//! The workloads and every constant that shapes them.
//!
//! Each workload runs the same user-facing flow as `sdea generate` →
//! `sdea align --out --encoder-out` → `sdea_serve serve`: generate a
//! ZH-EN world, train SDEA on it with the default configuration, export
//! the tables and the query encoder, reload them into a server, and answer
//! an open-loop stream of `POST /v1/align` requests. The workloads differ
//! in the size of the trained world and in the request rate, which decides
//! which layers dominate.

/// One named workload.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Links in the generated ZH-EN world.
    pub links: usize,
    /// Requests per second of the open-loop schedule.
    pub rate_qps: f64,
    /// Requests due at the same instant; bursts arrive every
    /// `burst / rate_qps` seconds.
    pub burst: usize,
}

/// Seed of every generated world, of its 2:1:7 split and of the training
/// configuration (`sdea align --seed`). Fixed so that training time and
/// quality compare across workload seeds; the workload seed drives the
/// request stream.
pub const WORLD_SEED: u64 = 2022;

/// Candidates asked for per request (the server's default).
pub const K: usize = 5;

/// Latency limit behind `slo_met`, timed from each request's due time.
pub const SLO_MS: f64 = 50.0;

/// Client threads of the load generator: at most this many, and never
/// more than the host's parallelism. Each holds at most one connection.
pub const MAX_CLIENTS: usize = 2;

/// Trainings per run; `train_s` is the shortest untraced one.
pub const TRAININGS: usize = 3;

/// Load segments after each training. The request stream is cut into
/// `TRAININGS * SEGMENTS_PER_TRAINING` equal segments, each served by a
/// freshly brought-up server: its threads land on the vCPUs afresh, and
/// the latency of one server instance differed from the next by up to
/// 15% on an idle host.
pub const SEGMENTS_PER_TRAINING: usize = 2;

/// Server bring-ups before each load segment; `setup_s` is the median of
/// all of them.
pub const SETUPS: usize = 3;

/// Share of each segment's bursts, those around which the hypervisor
/// stole least, whose requests the latency metrics and `slo_met` are
/// computed over.
pub const QUIET_SHARE: f64 = 0.25;

/// Ties in steal between bursts go to the burst whose neighbours, up to
/// this many on each side, saw the least steal.
pub const QUIET_RADIUS: usize = 5;

/// `hits1` must exceed this multiple of random ranking (`1 / |KG2|`).
pub const HITS1_OVER_RANDOM: f64 = 10.0;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 2] = [
    // A world big enough that the attribute stage dominates training,
    // then lone requests: per-request fixed costs dominate serving.
    Workload { name: "train", links: 80, rate_qps: 20.0, burst: 1 },
    // Requests in pairs, one per client: every request overlaps another,
    // so queue wait and coalescing dominate.
    Workload { name: "serve_heavy", links: 20, rate_qps: 20.0, burst: 2 },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
