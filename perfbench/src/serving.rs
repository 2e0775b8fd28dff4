//! Serving: export, reload and bring-up of the alignment server, the HTTP
//! client side of a request, the offline reference answers, and direct
//! timings of the query path's layers.

use crate::stats::median;
use sdea_core::attr_module::AttrModule;
use sdea_core::SdeaModel;
use sdea_index::{ExactRetriever, Hit, Retriever};
use sdea_obs::json::Json;
use sdea_serve::{BatchConfig, Batcher, ModelState, ServeState, Server, ShutdownHandle};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A server running in-process on an ephemeral loopback port.
pub struct Running {
    /// `host:port` to send requests to.
    pub addr: String,
    /// The model state the server answers from.
    pub model: Arc<ModelState>,
    shutdown: ShutdownHandle,
    thread: std::thread::JoinHandle<io::Result<()>>,
}

impl Running {
    /// Exports the trained tables and encoder to `dir`, reloads them the
    /// way `sdea_serve serve` does, binds the server and waits until
    /// `GET /healthz` answers.
    pub fn bring_up(
        model: &SdeaModel,
        encoder: &AttrModule,
        dataset_dir: &Path,
        dir: &Path,
    ) -> io::Result<Running> {
        std::fs::create_dir_all(dir)?;
        let model_path = dir.join("model.sdt");
        let encoder_path = dir.join("encoder.sdqe");
        sdea_core::model_io::save_model(model, &model_path)?;
        sdea_core::encoder_io::save_encoder(encoder, &encoder_path)?;
        let state = ServeState::load(dataset_dir, &model_path, &encoder_path, None)?;
        let model = state.model.clone();
        let server = Server::bind("127.0.0.1:0", state, &BatchConfig::from_env())?;
        let addr = server.local_addr()?.to_string();
        let shutdown = server.shutdown_handle()?;
        let thread = std::thread::spawn(move || server.run());
        let running = Running { addr, model, shutdown, thread };
        match sdea_serve::http::request(&running.addr, "GET", "/healthz", "") {
            Ok((200, _)) => Ok(running),
            other => {
                running.stop()?;
                Err(io::Error::other(format!("server not healthy after bind: {other:?}")))
            }
        }
    }

    /// Graceful shutdown; waits for the server thread to drain and exit.
    pub fn stop(self) -> io::Result<()> {
        self.shutdown.shutdown();
        self.thread.join().map_err(|_| io::Error::other("server thread panicked"))?
    }
}

/// Why a request did not produce a usable answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Failure {
    /// Connect, send or receive failed.
    Io(String),
    /// The server answered with a non-200 status (503 = refused).
    Status(u16),
    /// A 200 whose body is not a candidate list.
    Malformed,
}

/// One `POST /v1/align` for `text` with `k` candidates, parsed back into
/// `(KG2 row, score)` hits.
pub fn align(addr: &str, text: &str, k: usize) -> Result<Vec<Hit>, Failure> {
    let body = Json::obj(vec![("text", Json::str(text)), ("k", Json::Num(k as f64))]).encode();
    let (status, reply) = sdea_serve::http::request(addr, "POST", "/v1/align", &body)
        .map_err(|e| Failure::Io(e.to_string()))?;
    if status != 200 {
        return Err(Failure::Status(status));
    }
    let parsed = Json::parse(&reply).map_err(|_| Failure::Malformed)?;
    let candidates =
        parsed.get("candidates").and_then(|c| c.as_array()).ok_or(Failure::Malformed)?;
    candidates
        .iter()
        .map(|c| {
            let index = c.get("index").and_then(|v| v.as_f64()).ok_or(Failure::Malformed)?;
            let score = c.get("score").and_then(|v| v.as_f64()).ok_or(Failure::Malformed)?;
            // The server widens each f32 score to f64 and prints the
            // shortest round-trip form, so narrowing back is exact.
            Ok((index as usize, score as f32))
        })
        .collect()
}

/// The offline answer to every query: `embed_one` on the in-memory
/// encoder, then an exact search over the in-memory KG2 table.
pub fn reference_answers(
    encoder: &AttrModule,
    table: &sdea_tensor::Tensor,
    queries: &[String],
    k: usize,
) -> Vec<Vec<Hit>> {
    let retriever = ExactRetriever::new(table);
    queries
        .iter()
        .map(|q| retriever.search(&encoder.embed_one(q), k).pop().unwrap_or_default())
        .collect()
}

/// Whether a served answer equals the reference index for index and
/// score bit for bit.
pub fn same_answer(served: &[Hit], reference: &[Hit]) -> bool {
    served.len() == reference.len()
        && served.iter().zip(reference).all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
}

/// Direct timings of the query path's layers on a loaded model.
#[derive(Clone, Debug)]
pub struct Direct {
    /// Mean `tokenize_query` time per query (µs).
    pub tokenize_us: f64,
    /// Median `embed_token_rows` time for one row (ms).
    pub embed_b1_ms: f64,
    /// Median `embed_token_rows` time for two rows (ms).
    pub embed_b2_ms: f64,
    /// Median one-row `Retriever::search` time (µs).
    pub search_us: f64,
    /// Median sequential `Batcher::submit` time (ms).
    pub submit_ms: f64,
}

/// Times each query-path layer directly, with nothing else running: every
/// query once per measurement (pairs for the two-row embed), on a fresh
/// batcher with the server's configuration for `submit`.
pub fn direct_timings(
    model: &Arc<ModelState>,
    queries: &[String],
    k: usize,
) -> Result<Direct, String> {
    let enc = &model.encoder;
    let t0 = Instant::now();
    let rows: Vec<Vec<u32>> = queries.iter().map(|q| enc.tokenize_query(q)).collect();
    let tokenize_us = t0.elapsed().as_secs_f64() * 1e6 / queries.len().max(1) as f64;

    let mut b1 = Vec::with_capacity(rows.len());
    let mut search = Vec::with_capacity(rows.len());
    for r in &rows {
        let t0 = Instant::now();
        let emb = enc.embed_token_rows(std::slice::from_ref(r));
        b1.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        std::hint::black_box(model.retriever.search(&emb, k));
        search.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let mut b2 = Vec::with_capacity(rows.len() / 2);
    for pair in rows.chunks_exact(2) {
        let t0 = Instant::now();
        std::hint::black_box(enc.embed_token_rows(pair));
        b2.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let batcher = Batcher::new(model.clone(), &BatchConfig::from_env());
    let mut submit = Vec::with_capacity(rows.len());
    for r in &rows {
        let t0 = Instant::now();
        let hits = batcher.submit(r.clone(), k);
        submit.push(t0.elapsed().as_secs_f64() * 1e3);
        hits.map_err(|e| format!("an idle batcher refused a submission: {e:?}"))?;
    }
    drop(batcher);
    Ok(Direct {
        tokenize_us,
        embed_b1_ms: median(&b1),
        embed_b2_ms: median(&b2),
        search_us: median(&search),
        submit_ms: median(&submit),
    })
}

/// Samples the process's thread count from `/proc/self/status` every
/// millisecond until `stop` is set; returns the largest count seen.
pub fn sample_threads(stop: &AtomicBool) -> usize {
    let mut max = threads_now();
    while !stop.load(Ordering::Relaxed) {
        max = max.max(threads_now());
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    max
}

fn threads_now() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| l.strip_prefix("Threads:")).and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}
