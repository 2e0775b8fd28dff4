//! `sdea-perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train|serve_heavy> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. One run generates the workload's world,
//! trains SDEA on it, evaluates, brings the alignment server up from the
//! exported model, sends `--seconds` worth of open-loop requests, and
//! checks every answer against the offline reference. With `--trace 0`
//! it reports the end-to-end metrics (the obs layer forced off); with
//! `--trace 1` one of its trainings goes through the layer-by-layer
//! replica with the obs layer on, and it reports the per-layer metrics.
//! Progress goes to stderr; stdout carries the run context, one line per
//! metric, and last the result object.

#![forbid(unsafe_code)]

use sdea_core::rel_module::RelVariant;
use sdea_core::{SdeaConfig, SdeaModel, SdeaPipeline};
use sdea_obs::json::Json;
use sdea_obs::ObsSnapshot;
use sdea_perfbench::host::{Context, CpuTicks};
use sdea_perfbench::inputs::Inputs;
use sdea_perfbench::replica::{self, fnv, tables_hash, LayerTimes};
use sdea_perfbench::serving::{self, Direct, Failure, Running};
use sdea_perfbench::spec::{
    self, Workload, HITS1_OVER_RANDOM, K, MAX_CLIENTS, QUIET_RADIUS, QUIET_SHARE,
    SEGMENTS_PER_TRAINING, SETUPS, SLO_MS, TRAININGS,
};
use sdea_perfbench::{ledger, openloop, quiet, stats};
use std::path::{Path, PathBuf};
use std::process::exit;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Where runs write: the exported model and dataset (removed at exit) and
/// the determinism ledger. Relative to the checkout root.
const RUN_DIR: &str = ".perfbench_run";

const MIB: f64 = 1024.0 * 1024.0;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> ! {
    let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!(
        "usage: sdea-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    exit(2);
}

fn parse_args() -> Args {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> String {
        let Some(i) = args.iter().position(|a| a == flag) else { usage() };
        args.get(i + 1).cloned().unwrap_or_else(|| usage())
    };
    let Some(workload) = spec::workload(&value("--workload")) else { usage() };
    let (Ok(seed), Ok(seconds)) = (value("--seed").parse(), value("--seconds").parse()) else {
        usage()
    };
    let trace = match value("--trace").as_str() {
        "0" => false,
        "1" => true,
        _ => usage(),
    };
    if seconds == 0 {
        usage();
    }
    Args { workload, seed, seconds, trace }
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One metric of the result.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn main() {
    let args = parse_args();
    let ctx = Context::capture();
    sdea_obs::mem::set_counting(true);
    println!(
        "perfbench context {}",
        ctx.to_json(args.workload.name, args.seed, args.seconds, args.trace).encode()
    );
    match run(&args, &ctx) {
        Ok(outcome) => {
            for (name, value) in &outcome.info {
                println!("info {name} {value}");
            }
            for x in &outcome.metrics {
                println!("{} {} {}", x.name, x.value, x.unit);
            }
            for p in &outcome.problems {
                eprintln!("perfbench: check failed: {p}");
            }
            let metrics: Vec<(String, Json)> = outcome
                .metrics
                .iter()
                .map(|x| {
                    let v =
                        Json::obj(vec![("value", Json::Num(x.value)), ("unit", Json::str(x.unit))]);
                    (x.name.to_string(), v)
                })
                .collect();
            let result = Json::obj(vec![
                ("correct", Json::Bool(outcome.problems.is_empty())),
                ("attempted", Json::Num(outcome.attempted as f64)),
                ("failed", Json::Num(outcome.failed as f64)),
                ("metrics", Json::Obj(metrics)),
            ]);
            println!("{}", result.encode());
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            exit(1);
        }
    }
}

struct Outcome {
    metrics: Vec<Metric>,
    /// Facts about the run that are not metrics, printed before them.
    info: Vec<(&'static str, String)>,
    attempted: usize,
    failed: usize,
    /// Failed output checks; any makes the run incorrect.
    problems: Vec<String>,
}

/// What the traced training pass measured.
struct Traced {
    layers: LayerTimes,
    /// Wall time of the traced replica.
    train_s: f64,
    /// `align_test`, its metrics and stable matching.
    align_s: f64,
    alloc_bytes: u64,
    snapshot: ObsSnapshot,
}

/// Wall time and steal share of one untraced training.
struct Timed {
    secs: f64,
    steal: f64,
}

fn steal_since(c0: Option<CpuTicks>) -> f64 {
    match (c0, CpuTicks::now()) {
        (Some(a), Some(b)) => b.steal_since(&a),
        _ => 0.0,
    }
}

/// One training as `sdea align` does it, with the obs layer off.
fn train_untraced(pipeline: &SdeaPipeline) -> Result<(SdeaModel, Timed), String> {
    let c0 = CpuTicks::now();
    let t0 = Instant::now();
    let model = pipeline.try_run().map_err(|e| format!("training failed: {e}"))?;
    let timed = Timed { secs: t0.elapsed().as_secs_f64(), steal: steal_since(c0) };
    eprintln!("perfbench: training took {:.3} s ({:.4} steal)", timed.secs, timed.steal);
    Ok((model, timed))
}

/// The layer-by-layer replica plus evaluation of `served`, with the obs
/// layer on. Returns the replica's table hash and what it measured.
fn train_traced(inputs: &Inputs, cfg: &SdeaConfig, served: &SdeaModel) -> (u64, Traced) {
    sdea_obs::set_enabled(true);
    sdea_obs::reset();
    let alloc0 = sdea_obs::mem::total_allocated_bytes();
    let t0 = Instant::now();
    let (replica, layers) =
        replica::train_traced(&inputs.kg1, &inputs.kg2, &inputs.split, &inputs.corpus, cfg);
    let train_s = t0.elapsed().as_secs_f64();
    let alloc_bytes = sdea_obs::mem::total_allocated_bytes() - alloc0;
    let t0 = Instant::now();
    let result = served.align_test(&inputs.split.test);
    std::hint::black_box((result.metrics(), result.stable_matching_hits1()));
    let align_s = t0.elapsed().as_secs_f64();
    let snapshot = sdea_obs::snapshot();
    sdea_obs::set_enabled(false);
    let hash = tables_hash(&[&replica.ent1, &replica.ent2]);
    (hash, Traced { layers, train_s, align_s, alloc_bytes, snapshot })
}

/// One segment of the open-loop schedule: its answers, and the steal
/// share around every burst of due times.
struct Load {
    run: openloop::Run<Result<Vec<sdea_index::Hit>, Failure>>,
    burst_steal: Vec<f64>,
    threads_max: usize,
}

/// Sends requests `first..first + n` of the stream as an open-loop
/// schedule that starts now.
fn load_phase(
    args: &Args,
    inputs: &Inputs,
    server: &Running,
    first: usize,
    n: usize,
    clients: usize,
) -> Load {
    let w = args.workload;
    let interval = Duration::from_secs_f64(w.burst as f64 / w.rate_qps);
    let start = Instant::now() + interval;
    let n_bursts = n.div_ceil(w.burst);
    let stop = AtomicBool::new(false);
    let (run, ticks, threads_max) = std::thread::scope(|s| {
        // Steal counters half an interval before and after every burst's
        // due time, read by a thread that sleeps in between.
        let sampler = s.spawn(|| {
            (0..=n_bursts)
                .map(|b| {
                    let at = start + interval * b as u32 - interval / 2;
                    let now = Instant::now();
                    if now < at {
                        std::thread::sleep(at - now);
                    }
                    CpuTicks::now()
                })
                .collect::<Vec<_>>()
        });
        // The thread-count sampler reads /proc every millisecond, so it
        // only runs in traced runs.
        let threads = args.trace.then(|| s.spawn(|| serving::sample_threads(&stop)));
        let run = openloop::run(start, n, w.burst, interval, clients, |i| {
            serving::align(&server.addr, &inputs.queries[inputs.stream[first + i]], K)
        });
        stop.store(true, Ordering::Relaxed);
        let ticks = sampler.join().expect("steal sampler panicked");
        (run, ticks, threads.map_or(0, |h| h.join().expect("thread sampler panicked")))
    });
    let burst_steal = ticks
        .windows(2)
        .map(|p| match (p[0], p[1]) {
            (Some(a), Some(b)) => b.steal_since(&a),
            _ => 0.0,
        })
        .collect();
    Load { run, burst_steal, threads_max }
}

/// The serving counters a traced run reads, summed over load segments.
#[derive(Default)]
struct ServeCounts {
    queue_wait_sum: f64,
    queue_wait_count: u64,
    batched_queries: u64,
    batches: u64,
}

impl ServeCounts {
    fn add(&mut self, snap: &ObsSnapshot) {
        if let Some(h) = snap.histograms.get("serve.queue_wait") {
            self.queue_wait_sum += h.sum;
            self.queue_wait_count += h.count;
        }
        let c = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        self.batched_queries += c("serve.batched_queries");
        self.batches += c("serve.batches");
    }
}

/// One request's outcome, placed in its burst across all segments.
struct Answered {
    /// Position in the whole request stream.
    index: usize,
    burst: usize,
    sent: openloop::Sent<Result<Vec<sdea_index::Hit>, Failure>>,
}

/// Trains [`TRAININGS`] times and sends the request stream in
/// [`SEGMENTS_PER_TRAINING`] segments after each training, each segment
/// after [`SETUPS`] server bring-ups, so that every measurement is
/// repeated at several points of the run. The first training's model is
/// the one served. A traced run replaces the second training with the
/// layer-by-layer replica.
fn run(args: &Args, ctx: &Context) -> Result<Outcome, String> {
    let w = args.workload;
    let n_requests = (w.rate_qps * args.seconds as f64).round().max(1.0) as usize;
    let scratch = Scratch(Path::new(RUN_DIR).join(format!("{}-{}", w.name, std::process::id())));
    let inputs = Inputs::generate(w, args.seed, n_requests, &scratch.0.join("dataset"))
        .map_err(|e| format!("cannot generate inputs: {e}"))?;
    let mut problems = Vec::new();

    eprintln!(
        "perfbench: {}: {TRAININGS} trainings on {} + {} entities, {n_requests} requests at {} qps",
        w.name,
        inputs.kg1.num_entities(),
        inputs.kg2.num_entities(),
        w.rate_qps
    );
    sdea_obs::set_enabled(false);
    let cfg = SdeaConfig { seed: spec::WORLD_SEED, ..SdeaConfig::default() };
    let pipeline = SdeaPipeline {
        kg1: &inputs.kg1,
        kg2: &inputs.kg2,
        split: &inputs.split,
        corpus: &inputs.corpus,
        cfg: cfg.clone(),
        variant: RelVariant::Full,
    };
    let (model, first) = train_untraced(&pipeline)?;
    let mut timed = vec![first];
    let mut hashes = vec![tables_hash(&[&model.ent1, &model.ent2])];
    let encoder = model.attr_module.as_ref().ok_or("training produced no encoder")?;
    let result = model.align_test(&inputs.split.test);
    let quality = result.metrics();
    let stable_hits1 = result.stable_matching_hits1();
    let random_hits1 = 1.0 / inputs.kg2.num_entities() as f64;
    if quality.hits1 <= HITS1_OVER_RANDOM * random_hits1 {
        problems.push(format!(
            "hits1 {} does not clear {HITS1_OVER_RANDOM}x random ({random_hits1})",
            quality.hits1
        ));
    }

    // Load segments, each on a freshly brought-up server.
    let clients = MAX_CLIENTS.min(ctx.nproc);
    let mut server: Option<Running> = None;
    let mut setups = Vec::new();
    let mut traced = None;
    let mut answered = Vec::with_capacity(n_requests);
    let mut burst_steal = Vec::new();
    let mut is_quiet = Vec::new();
    let mut span = Duration::ZERO;
    let mut serve_counts = ServeCounts::default();
    let mut threads_max = 0;
    let segments = TRAININGS * SEGMENTS_PER_TRAINING;
    for seg in 0..segments {
        // The first training ran before the loop.
        let training =
            (seg > 0 && seg % SEGMENTS_PER_TRAINING == 0).then_some(seg / SEGMENTS_PER_TRAINING);
        match training {
            None => {}
            Some(1) if args.trace => {
                let (hash, t) = train_traced(&inputs, &cfg, &model);
                hashes.push(hash);
                traced = Some(t);
            }
            Some(_) => {
                let (trained, t) = train_untraced(&pipeline)?;
                hashes.push(tables_hash(&[&trained.ent1, &trained.ent2]));
                timed.push(t);
            }
        }
        // Server bring-up: export, reload, bind, first healthy answer.
        for i in 0..SETUPS {
            let t0 = Instant::now();
            let dir = scratch.0.join(format!("serve{seg}-{i}"));
            let running = Running::bring_up(&model, encoder, &inputs.dataset_dir, &dir)
                .map_err(|e| format!("server bring-up failed: {e}"))?;
            setups.push(t0.elapsed().as_secs_f64());
            if let Some(previous) = server.replace(running) {
                previous.stop().map_err(|e| format!("server shutdown failed: {e}"))?;
            }
        }
        let server = server.as_ref().expect("at least one bring-up");
        let first = n_requests * seg / segments;
        let n = n_requests * (seg + 1) / segments - first;
        if n == 0 {
            continue;
        }
        if args.trace {
            sdea_obs::set_enabled(true);
            sdea_obs::reset();
        }
        let load = load_phase(args, &inputs, server, first, n, clients);
        if args.trace {
            serve_counts.add(&sdea_obs::snapshot());
            sdea_obs::set_enabled(false);
        }
        let base = burst_steal.len();
        for sent in load.run.sent {
            let burst = base + sent.index / w.burst;
            answered.push(Answered { index: first + sent.index, burst, sent });
        }
        let mut quiet = vec![false; load.burst_steal.len()];
        for b in quiet::quietest(&load.burst_steal, QUIET_SHARE, QUIET_RADIUS) {
            quiet[b] = true;
        }
        is_quiet.extend(quiet);
        burst_steal.extend(load.burst_steal);
        span += load.run.span;
        threads_max = threads_max.max(load.threads_max);
    }
    let server = server.expect("at least one bring-up");
    let direct = if args.trace {
        Some(serving::direct_timings(&server.model, &inputs.queries, K)?)
    } else {
        None
    };
    server.stop().map_err(|e| format!("server shutdown failed: {e}"))?;

    let ent_hash = hashes[0];
    if hashes.iter().any(|&h| h != ent_hash) {
        let hex: Vec<String> = hashes.iter().map(|h| format!("{h:016x}")).collect();
        problems.push(format!("trainings produced different tables: {}", hex.join(" ")));
    }

    // Every answer against the offline reference. Latency and the SLO
    // count only requests due in each segment's quietest bursts.
    let mut quiet_latency_ms = Vec::new();
    let reference = serving::reference_answers(encoder, &model.h_a2, &inputs.queries, K);
    let (mut wrong, mut refused, mut errors) = (0usize, 0usize, 0usize);
    let mut served_hash = 0xcbf2_9ce4_8422_2325u64;
    let (mut quiet_sent, mut quiet_within_slo, mut ok) = (0usize, 0usize, 0usize);
    for a in &answered {
        quiet_sent += usize::from(is_quiet[a.burst]);
        match &a.sent.answer {
            Ok(hits) => {
                for &(row, score) in hits {
                    served_hash = fnv(served_hash, &(row as u64).to_le_bytes());
                    served_hash = fnv(served_hash, &score.to_bits().to_le_bytes());
                }
                if serving::same_answer(hits, &reference[inputs.stream[a.index]]) {
                    ok += 1;
                    if is_quiet[a.burst] {
                        let ms = a.sent.latency.as_secs_f64() * 1e3;
                        quiet_latency_ms.push(ms);
                        quiet_within_slo += usize::from(ms <= SLO_MS);
                    }
                } else {
                    wrong += 1;
                }
            }
            Err(Failure::Status(503)) => refused += 1,
            Err(_) => errors += 1,
        }
    }
    if wrong > 0 {
        problems.push(format!("{wrong} served answers differ from the offline reference"));
    }
    let (latency_p50_ms, latency_p90_ms) =
        (stats::quantile(&quiet_latency_ms, 0.50), stats::quantile(&quiet_latency_ms, 0.90));
    if quiet_latency_ms.is_empty() {
        return Err(format!("no request succeeded ({refused} refused, {errors} errors)"));
    }

    // Determinism across runs of this build with the same seed.
    let mut fields = vec![
        ("ent_hash", format!("{ent_hash:016x}")),
        ("hits1_bits", format!("{:016x}", quality.hits1.to_bits())),
        ("mrr_bits", format!("{:016x}", quality.mrr.to_bits())),
        ("stable_hits1_bits", format!("{:016x}", stable_hits1.to_bits())),
    ];
    if wrong + refused + errors == 0 {
        fields.push(("served_hash", format!("{served_hash:016x}")));
    }
    if let Some(t) = &traced {
        let c = &t.snapshot.counters;
        fields.push(("attr_steps", c.get("attr.steps").copied().unwrap_or(0).to_string()));
        let cells = c.get("eval.cosine_cells").copied().unwrap_or(0);
        fields.push(("cosine_cells", cells.to_string()));
    }
    let key = format!(
        "{}/{}/{}links/{}qps/{}s/seed{}",
        ctx.source_digest, w.name, w.links, w.rate_qps, args.seconds, args.seed
    );
    match ledger::check(&Path::new(RUN_DIR).join("ledger.tsv"), &key, &fields) {
        Ok(mismatches) => problems.extend(mismatches),
        Err(e) => problems.push(format!("cannot use the determinism ledger: {e}")),
    }

    let train_secs: Vec<f64> = timed.iter().map(|t| t.secs).collect();
    let train_steal: Vec<f64> = timed.iter().map(|t| t.steal).collect();
    let quiet_steal: Vec<f64> =
        burst_steal.iter().zip(&is_quiet).filter(|(_, &q)| q).map(|(&s, _)| s).collect();
    let mut info = vec![
        ("latency_p90_ms", format!("{latency_p90_ms}")),
        ("train_steal", format!("{:.4}", stats::mean(&train_steal))),
        ("load_steal", format!("{:.4}", stats::mean(&burst_steal))),
        ("quiet_bursts", format!("{} of {}", quiet_steal.len(), burst_steal.len())),
        ("quiet_bursts_steal", format!("{:.4}", stats::mean(&quiet_steal))),
    ];
    if let Some(hwm) = sdea_obs::mem::vm_hwm_bytes() {
        info.push(("vm_hwm_mb", format!("{}", hwm as f64 / MIB)));
    }
    let lags_ms: Vec<f64> = answered.iter().map(|a| a.sent.lag.as_secs_f64() * 1e3).collect();
    let metrics = match (&traced, &direct) {
        (Some(t), Some(d)) => {
            // The untraced training that followed the replica.
            let untraced_s = timed.last().map_or(f64::NAN, |t| t.secs);
            let lag_p99_ms = stats::quantile(&lags_ms, 0.99);
            per_layer(t, untraced_s, d, &serve_counts, threads_max, lag_p99_ms)
        }
        _ => vec![
            m("setup_s", stats::median(&setups), "s"),
            m("peak_heap_mb", sdea_obs::mem::peak_bytes() as f64 / MIB, "MiB"),
            m("train_s", stats::min(&train_secs), "s"),
            m("hits1", quality.hits1, "ratio"),
            m("mrr", quality.mrr, "ratio"),
            m("stable_hits1", stable_hits1, "ratio"),
            m("latency_p50_ms", latency_p50_ms, "ms"),
            m("qps", ok as f64 / span.as_secs_f64(), "1/s"),
            m("slo_met", quiet_within_slo as f64 / quiet_sent.max(1) as f64, "ratio"),
        ],
    };
    drop(scratch);
    Ok(Outcome { metrics, info, attempted: n_requests, failed: wrong + refused + errors, problems })
}

fn per_layer(
    t: &Traced,
    untraced_train_s: f64,
    d: &Direct,
    serve: &ServeCounts,
    threads_max: usize,
    lag_p99_ms: f64,
) -> Vec<Metric> {
    let l = &t.layers;
    let c = |name: &str| t.snapshot.counters.get(name).copied().unwrap_or(0) as f64;
    // `embed_all` spans anywhere under `attr.fit`: the pre-loop validation,
    // and each epoch's candidate generation and validation.
    let fit_embed_s: f64 = t
        .snapshot
        .spans
        .iter()
        .filter(|(path, _)| path.starts_with("attr.fit.") && path.ends_with(".embed_all"))
        .map(|(_, s)| s.total_secs)
        .sum();
    let pool = c("tensor.pool.hits") + c("tensor.pool.misses");
    let queue_wait_ms = serve.queue_wait_sum / serve.queue_wait_count as f64 * 1e3;
    vec![
        m("core.sequencing_s", l.sequencing_s, "s"),
        m("core.attr_build_s", l.attr_build_s, "s"),
        m("text.token_cache_s", l.token_cache_s, "s"),
        m("core.attr_fit_s", l.attr_fit_s, "s"),
        m("core.attr_fit_embed_s", fit_embed_s, "s"),
        m("core.embed_all_s", l.embed_all_s, "s"),
        m("core.embed_rows_per_s", l.embed_rows as f64 / l.embed_all_s, "rows/s"),
        m("core.rel_fit_s", l.rel_fit_s, "s"),
        m("core.final_embed_s", l.final_embed_s, "s"),
        m("eval.align_s", t.align_s, "s"),
        m("core.attr_steps", c("attr.steps"), "count"),
        m("eval.cosine_cells", c("eval.cosine_cells"), "count"),
        m("tensor.alloc_gb", t.alloc_bytes as f64 / 1e9, "GB"),
        m("core.attr_fit_peak_mb", l.attr_fit_peak_bytes as f64 / MIB, "MiB"),
        m("core.embed_all_peak_mb", l.embed_all_peak_bytes as f64 / MIB, "MiB"),
        m("tensor.pool_hit_ratio", c("tensor.pool.hits") / pool, "ratio"),
        m("tensor.pool_requests", pool, "count"),
        m("tensor.par_workers_spawned", c("par.workers_spawned"), "count"),
        m("obs.overhead_ratio", t.train_s / untraced_train_s, "ratio"),
        m("trace.layer_coverage", l.total_s() / t.train_s, "ratio"),
        m("text.tokenize_query_us", d.tokenize_us, "us"),
        m("core.embed_b1_ms", d.embed_b1_ms, "ms"),
        m("core.embed_b2_ms", d.embed_b2_ms, "ms"),
        m("index.search_us", d.search_us, "us"),
        m("serve.submit_ms", d.submit_ms, "ms"),
        m("serve.queue_wait_ms", queue_wait_ms, "ms"),
        m("serve.batch_size_mean", serve.batched_queries as f64 / serve.batches as f64, "rows"),
        m("serve.threads_max", threads_max as f64, "count"),
        m("client.lag_p99_ms", lag_p99_ms, "ms"),
    ]
}
