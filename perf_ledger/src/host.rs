//! The host and provenance block printed with every result, so figures
//! taken on different machines are never compared as if alike.

use std::path::Path;

/// Where and how a result was produced.
#[derive(Debug, Clone)]
pub struct Host {
    /// Hardware threads available to this process.
    pub nproc: usize,
    /// CPU model string from `/proc/cpuinfo`.
    pub cpu: String,
    /// The compiler that built the benchmark.
    pub rustc: &'static str,
    /// The repository commit, or `unknown` outside a git checkout.
    pub commit: String,
}

impl Host {
    /// Probes the running machine.
    pub fn probe() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        Host {
            nproc: nproc(),
            cpu,
            rustc: env!("LEDGER_RUSTC_VERSION"),
            commit: git_commit(&repo).unwrap_or_else(|| "unknown".to_string()),
        }
    }

    /// One JSON object: the host plus the run's seed, workload and
    /// worker-thread count.
    pub fn to_json(&self, workload: &str, seed: u64, threads: usize, trace: bool) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}, \
             \"workload\": {}, \"seed\": {seed}, \"threads\": {threads}, \"trace\": {trace}}}",
            self.nproc,
            json_str(&self.cpu),
            json_str(self.rustc),
            json_str(&self.commit),
            json_str(workload),
        )
    }
}

/// `std::thread::available_parallelism`, 1 when unknown.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Resolves `HEAD` from the `.git` directory without spawning git.
fn git_commit(repo: &Path) -> Option<String> {
    let git = repo.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
