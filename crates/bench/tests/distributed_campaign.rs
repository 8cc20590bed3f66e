//! End-to-end distributed campaign acceptance: a real multi-process
//! campaign driven through the `teem-coordinator` binary — including
//! one worker dying mid-shard — merges to a journal digest-identical
//! to the uninterrupted single-process run.
//!
//! This is the process-boundary complement of
//! `crates/scenario/tests/shard_invariants.rs` (same algebra, pinned
//! in-process) and the local twin of the CI `distributed-campaign`
//! job, which runs the same assertions in release mode on the 500-cell
//! acceptance grid. Here the 60-cell `small` grid keeps debug-mode
//! wall time comparable to the existing 500-cell resume test.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The coordinator binary under test (built by cargo for this crate).
fn coordinator() -> Command {
    Command::new(env!("CARGO_BIN_EXE_teem-coordinator"))
}

/// A per-test campaign directory, removed on drop.
struct CampaignDir(PathBuf);

impl CampaignDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("teem_campaign_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("campaign dir");
        CampaignDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for CampaignDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_ok(cmd: &mut Command) -> String {
    let Output {
        status,
        stdout,
        stderr,
    } = cmd.output().expect("spawns");
    let stdout = String::from_utf8_lossy(&stdout).to_string();
    let stderr = String::from_utf8_lossy(&stderr).to_string();
    assert!(
        status.success(),
        "command failed ({status:?})\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    stdout
}

/// Pulls the `merged digest <16 hex>` line out of coordinator output.
fn digest_of(output: &str) -> String {
    output
        .lines()
        .find_map(|l| l.strip_prefix("merged digest "))
        .unwrap_or_else(|| panic!("no digest line in:\n{output}"))
        .to_string()
}

/// A clean 3-process campaign is digest-identical to the
/// single-process run, and its merged journal file loads as an
/// ordinary complete journal.
#[test]
fn three_process_campaign_matches_single_process_digest() {
    let dir = CampaignDir::new("clean");
    let merged_path = dir.path().join("merged.jsonl");

    let single = run_ok(coordinator().args(["single", "--grid", "small"]));
    let campaign = run_ok(coordinator().args([
        "run",
        "--grid",
        "small",
        "--workers",
        "3",
        "--dir",
        dir.path().to_str().expect("utf-8 tmp"),
        "--merged",
        merged_path.to_str().expect("utf-8 tmp"),
        "--verify",
    ]));
    assert_eq!(
        digest_of(&single),
        digest_of(&campaign),
        "single:\n{single}\ncampaign:\n{campaign}"
    );
    assert!(campaign.contains("verified"), "{campaign}");
    assert!(campaign.contains("(0 deaths"), "{campaign}");

    // The merged journal is an ordinary journal: the offline merge of
    // the shard journals reproduces the same digest from the files
    // alone.
    let shards: Vec<String> = (0..3)
        .map(|i| {
            dir.path()
                .join(format!("shard_{i:03}.jsonl"))
                .to_str()
                .expect("utf-8 tmp")
                .to_string()
        })
        .collect();
    let offline = run_ok(coordinator().arg("merge").args(&shards));
    assert_eq!(digest_of(&offline), digest_of(&single), "{offline}");
}

/// The acceptance headline: worker 1 dies (durable abort) after 3
/// cells; the coordinator re-shards its remaining cells onto the
/// survivors; the merged result is still digest-identical to the
/// uninterrupted single-process run.
#[test]
fn campaign_with_a_worker_killed_mid_shard_still_matches_single_process_digest() {
    let dir = CampaignDir::new("killed");

    let single = run_ok(coordinator().args(["single", "--grid", "small"]));
    let campaign = run_ok(coordinator().args([
        "run",
        "--grid",
        "small",
        "--workers",
        "3",
        "--dir",
        dir.path().to_str().expect("utf-8 tmp"),
        "--kill",
        "1@3",
        "--verify",
    ]));
    assert_eq!(
        digest_of(&single),
        digest_of(&campaign),
        "single:\n{single}\ncampaign:\n{campaign}"
    );
    assert!(campaign.contains("verified"), "{campaign}");
    assert!(campaign.contains("1 deaths"), "{campaign}");

    // The dead worker left a journal with exactly the 3 durable records
    // it synced before aborting — those cells were *not* re-run (the
    // merge would reject the overlap otherwise), just merged in.
    let dead = std::fs::read_to_string(dir.path().join("shard_001.jsonl")).expect("dead journal");
    let done_lines = dead
        .lines()
        .filter(|l| l.starts_with("{\"kind\":\"done\""))
        .count();
    assert_eq!(done_lines, 3, "exactly the durable records at death");
    assert!(
        !dir.path().join("shard_001.jsonl.metrics.json").exists(),
        "a dead worker writes no metrics sidecar"
    );
}

/// Runs a worker with `shard` plus `extra` flags, which the command line
/// must refuse before creating its journal: exit code 1, `message` on
/// stderr, no panic, and no journal file left behind.
fn assert_worker_refuses(tag: &str, shard: &str, extra: &[&str], message: &str) {
    let dir = CampaignDir::new(tag);
    let journal = dir.path().join("worker.jsonl");
    let Output { status, stderr, .. } = coordinator()
        .args(["worker", "--grid", "small", "--journal"])
        .arg(&journal)
        .args(["--shard", shard])
        .args(extra)
        .output()
        .expect("spawns");
    let stderr = String::from_utf8_lossy(&stderr);
    assert_eq!(status.code(), Some(1), "{shard} {extra:?}:\n{stderr}");
    assert!(stderr.contains(message), "{shard} {extra:?}:\n{stderr}");
    assert!(!stderr.contains("panicked"), "{shard} {extra:?}:\n{stderr}");
    assert!(!journal.exists(), "{shard} {extra:?} left a journal behind");
}

#[test]
fn worker_refuses_an_empty_partition() {
    assert_worker_refuses(
        "part00",
        "mod:0/1",
        &["--part", "0/0"],
        "--part 0/0 is not a partition slot",
    );
}

#[test]
fn worker_refuses_a_part_past_its_partition() {
    assert_worker_refuses(
        "part32",
        "mod:0/1",
        &["--part", "3/2"],
        "--part 3/2 is not a partition slot",
    );
}

#[test]
fn worker_refuses_a_zero_fsync_batch() {
    assert_worker_refuses(
        "fsync0",
        "mod:0/1",
        &["--fsync-every", "0"],
        "--fsync-every must be at least 1",
    );
}

#[test]
fn worker_refuses_a_shard_past_the_grid() {
    assert_worker_refuses(
        "range",
        "range:0..99999",
        &[],
        "--shard range:0..99999 does not fit the grid: range shard 0..99999 ends past the 60-cell grid",
    );
}

#[test]
fn worker_refuses_an_injection_at_record_zero() {
    assert_worker_refuses(
        "die0",
        "mod:0/1",
        &["--die-after", "0"],
        "--die-after 0: this worker writes 60 records and they count from 1, \
         so record 0 never comes",
    );
}

#[test]
fn worker_refuses_an_injection_past_its_records() {
    assert_worker_refuses(
        "hang_past",
        "mod:1/3",
        &["--hang-after", "21"],
        "--hang-after 21: this worker writes 20 records",
    );
}

#[test]
fn worker_refuses_a_kill_and_a_hang_together() {
    assert_worker_refuses(
        "die_and_hang",
        "mod:0/1",
        &["--die-after", "5", "--hang-after", "10"],
        "--die-after 5 and --hang-after 10 are both given",
    );
}

/// Runs a campaign on the small grid with `extra` flags, which the
/// command line must refuse before it creates the campaign directory or
/// spawns a worker: exit code 1, `message` on stderr, no panic, and
/// nothing left in the working directory (a flag taken as a path would
/// leave a file named after it there).
fn assert_run_refuses(tag: &str, extra: &[&str], message: &str) {
    let dir = CampaignDir::new(tag);
    let campaign = dir.path().join("campaign");
    let Output { status, stderr, .. } = coordinator()
        .current_dir(dir.path())
        .args(["run", "--grid", "small", "--dir"])
        .arg(&campaign)
        .args(extra)
        .output()
        .expect("spawns");
    let stderr = String::from_utf8_lossy(&stderr);
    assert_eq!(status.code(), Some(1), "{extra:?}:\n{stderr}");
    assert!(stderr.contains(message), "{extra:?}:\n{stderr}");
    assert!(!stderr.contains("panicked"), "{extra:?}:\n{stderr}");
    let left: Vec<PathBuf> = std::fs::read_dir(dir.path())
        .expect("working directory")
        .map(|e| e.expect("entry").path())
        .collect();
    assert!(left.is_empty(), "{extra:?} left {left:?} behind");
}

#[test]
fn run_refuses_a_flag_as_the_merged_path() {
    assert_run_refuses(
        "merged_flag",
        &["--workers", "1", "--merged", "--verify"],
        "flag --merged needs a value",
    );
}

#[test]
fn run_refuses_a_kill_of_a_worker_past_the_fleet() {
    assert_run_refuses(
        "kill_ordinal",
        &["--workers", "1", "--kill", "5@3"],
        "--kill 5@3: worker 5 does not exist (--workers 1)",
    );
}

#[test]
fn run_refuses_a_kill_at_record_zero() {
    assert_run_refuses(
        "kill_zero",
        &["--kill", "0@0"],
        "--kill 0@0: worker 0's shard holds 20 cells and its records count from 1, \
         so record 0 never comes",
    );
}

#[test]
fn run_refuses_a_kill_past_the_workers_shard() {
    assert_run_refuses(
        "kill_past",
        &["--workers", "1", "--kill", "0@61"],
        "--kill 0@61: worker 0's shard holds 60 cells",
    );
}

#[test]
fn run_refuses_a_hang_that_never_fires() {
    assert_run_refuses(
        "hang_past",
        &["--workers", "2", "--hang", "1@31"],
        "--hang 1@31: worker 1's shard holds 30 cells",
    );
}

#[test]
fn run_refuses_a_kill_and_a_hang_on_one_worker() {
    assert_run_refuses(
        "kill_and_hang",
        &["--workers", "2", "--kill", "0@5", "--hang", "0@10"],
        "--kill 0@5 and --hang 0@10 name the same worker",
    );
}
