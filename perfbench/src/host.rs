//! The host and settings every result records.

use sdea_obs::json::Json;
use std::path::Path;

/// Host facts and the resolved execution settings of one run.
pub struct Context {
    /// Hardware parallelism the process sees.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Commit the checkout came from, when it is a git checkout.
    pub git_revision: String,
    /// FNV-1a digest of the workspace sources and manifests, which
    /// identifies the build when no git metadata is present.
    pub source_digest: String,
    /// Thread budget of `sdea_tensor::par` (`SDEA_THREADS` resolved).
    pub sdea_threads: usize,
    /// Whether `SDEA_MEM` left allocation counting on. The benchmark turns
    /// it on either way: `peak_heap_mb` and `tensor.alloc_gb` need it.
    pub sdea_mem: bool,
}

impl Context {
    /// Reads the host facts from the checkout rooted at the working
    /// directory.
    pub fn capture() -> Context {
        Context {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: cpu_model().unwrap_or_else(|| "unknown".into()),
            git_revision: git_revision(Path::new(".")).unwrap_or_else(|| "unavailable".into()),
            source_digest: format!("{:016x}", source_digest(Path::new("."))),
            sdea_threads: sdea_tensor::par::max_threads(),
            sdea_mem: sdea_obs::mem::counting_enabled(),
        }
    }

    /// The context as a JSON object, with the run's own arguments.
    pub fn to_json(&self, workload: &str, seed: u64, seconds: u64, trace: bool) -> Json {
        Json::obj(vec![
            ("workload", Json::str(workload)),
            ("seed", Json::Num(seed as f64)),
            ("seconds", Json::Num(seconds as f64)),
            ("trace", Json::Bool(trace)),
            ("nproc", Json::Num(self.nproc as f64)),
            ("cpu_model", Json::str(self.cpu_model.as_str())),
            ("git_revision", Json::str(self.git_revision.as_str())),
            ("source_digest", Json::str(self.source_digest.as_str())),
            ("sdea_threads", Json::Num(self.sdea_threads as f64)),
            // Untraced runs force the obs layer off; traced runs turn it on
            // around the traced phases only.
            ("sdea_obs", Json::str(if trace { "on for traced phases" } else { "off" })),
            ("sdea_mem", Json::str(if self.sdea_mem { "on" } else { "forced on" })),
        ])
    }
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// Resolves `HEAD` from the `.git` directory without running git.
fn git_revision(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (rev, name) = l.split_once(' ')?;
        (name == reference).then(|| rev.to_string())
    })
}

/// Digest of every `.rs` and `.toml` file under `crates/`, `vendor/`,
/// `src/` and `perfbench/src/`, plus the root manifest, in sorted path
/// order.
pub fn source_digest(root: &Path) -> u64 {
    let mut files = Vec::new();
    for dir in ["crates", "vendor", "src", "perfbench/src"] {
        collect(&root.join(dir), &mut files);
    }
    files.push(root.join("Cargo.toml"));
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325;
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            h = crate::replica::fnv(h, f.to_string_lossy().as_bytes());
            h = crate::replica::fnv(h, &bytes);
        }
    }
    h
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}

/// Cumulative CPU time the guest kernel has seen, from the `cpu` line of
/// `/proc/stat`, in clock ticks.
#[derive(Clone, Copy, Debug)]
pub struct CpuTicks {
    /// Time the hypervisor ran something else while a vCPU wanted to run.
    pub steal: u64,
    /// All accounted time: user, nice, system, idle, iowait, irq,
    /// softirq and steal.
    pub total: u64,
}

impl CpuTicks {
    /// Reads the counters now; `None` off Linux.
    pub fn now() -> Option<CpuTicks> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let line = stat.lines().find(|l| l.starts_with("cpu "))?;
        let v: Vec<u64> =
            line.split_whitespace().skip(1).take(8).filter_map(|x| x.parse().ok()).collect();
        (v.len() == 8).then(|| CpuTicks { steal: v[7], total: v.iter().sum() })
    }

    /// Share of the time since `earlier` that the hypervisor stole.
    pub fn steal_since(&self, earlier: &CpuTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}
