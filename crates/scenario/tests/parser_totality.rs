//! The text parsers are total: no input makes `LoadedJournal::parse`,
//! `MetricsSnapshot::from_json`, `Scenario::from_csv_str` or
//! `ShardSpec::from_str` panic, and every line-numbered error
//! (`JournalError::Corrupt`, `TraceParseError::Line`) names a line of
//! its input, counting a final unterminated one.
//!
//! The inputs are real artefacts — a sharded sweep's journal, its
//! metrics snapshot, the `phone_day` arrival trace and shard labels —
//! damaged by seeded mutations: byte flips, insertions, deletions,
//! truncations, duplicated spans and long digit runs. The case budget
//! is fixed, so every run parses the same inputs.

use std::str::FromStr;
use std::sync::OnceLock;

use proptest::prelude::*;
use teem_core::runner::Approach;
use teem_scenario::{
    ConfigPatch, JournalError, LoadedJournal, Scenario, ShardSpec, SweepJournal, SweepSpec,
    TraceParseError,
};
use teem_telemetry::MetricsSnapshot;
use teem_workload::App;

/// Inputs per parser.
const CASES: u32 = 10_000;

/// The undamaged artefacts.
struct Originals {
    journal: Vec<u8>,
    snapshot: Vec<u8>,
    trace: Vec<u8>,
    shards: [Vec<u8>; 2],
}

fn originals() -> &'static Originals {
    static ORIGINALS: OnceLock<Originals> = OnceLock::new();
    ORIGINALS.get_or_init(|| {
        let spec = SweepSpec::over([
            Scenario::new("mvt").arrive(0.0, App::Mvt, 0.9),
            Scenario::new("pair")
                .arrive(0.0, App::Gesummv, 0.9)
                .arrive(0.5, App::Mvt, 0.9),
            Scenario::new("late").arrive(1.0, App::Covariance, 0.9),
        ])
        .approaches(&[Approach::Teem, Approach::Ondemand])
        .patch_config(ConfigPatch {
            timeout_s: Some(2.0),
            ..ConfigPatch::default()
        })
        .shard(ShardSpec::Modulo { k: 0, of: 1 })
        .threads(1);
        let path =
            std::env::temp_dir().join(format!("teem_parser_totality_{}.jsonl", std::process::id()));
        let mut journal = SweepJournal::create(&path, &spec).expect("create journal");
        let (_, report) = spec
            .run_instrumented(|ev| journal.observe(&ev).expect("write"))
            .expect("sweep runs");
        drop(journal);
        let bytes = std::fs::read(&path).expect("read journal");
        let _ = std::fs::remove_file(&path);
        Originals {
            journal: bytes,
            snapshot: report.snapshot().to_json().into_bytes(),
            trace: include_bytes!("../../../examples/traces/phone_day.csv").to_vec(),
            shards: [
                ShardSpec::Range { start: 0, end: 250 }
                    .to_string()
                    .into_bytes(),
                ShardSpec::Modulo { k: 1, of: 3 }.to_string().into_bytes(),
            ],
        }
    })
}

/// Bytes that carry structure in one of the formats.
const STRUCTURAL: &[u8] = b"\n\r\t ,:;{}[]\"\\-+.eE0123456789#tnu/_";

/// `original` damaged by one to four seeded mutations.
fn mutate(original: &[u8], seed: u64) -> Vec<u8> {
    let mut rng = TestRng::new(seed);
    let mut b = original.to_vec();
    for _ in 0..=rng.below(4) {
        let at = rng.below(b.len() as u64 + 1) as usize;
        match rng.below(6) {
            // Byte flip.
            0 if at < b.len() => b[at] ^= 1 << rng.below(8),
            // Insertion: a structural byte or any byte.
            1 => {
                let byte = if rng.below(2) == 0 {
                    STRUCTURAL[rng.below(STRUCTURAL.len() as u64) as usize]
                } else {
                    rng.below(256) as u8
                };
                b.insert(at, byte);
            }
            // Deletion of up to 16 bytes.
            2 => {
                let end = (at + 1 + rng.below(16) as usize).min(b.len());
                b.drain(at..end);
            }
            // Truncation.
            3 => b.truncate(at),
            // A span of up to 200 bytes, duplicated somewhere.
            4 => {
                let end = (at + 1 + rng.below(200) as usize).min(b.len());
                let span = b[at..end].to_vec();
                let to = rng.below(b.len() as u64 + 1) as usize;
                b.splice(to..to, span);
            }
            // A run of up to 400 digits.
            _ => {
                let digits: Vec<u8> = (0..=rng.below(400))
                    .map(|_| b'0' + rng.below(10) as u8)
                    .collect();
                b.splice(at..at, digits);
            }
        }
    }
    b
}

/// Lines in `bytes`, a final unterminated one included.
fn line_count(bytes: &[u8]) -> usize {
    let segments = bytes.split(|&b| b == b'\n').count();
    segments - usize::from(bytes.last() == Some(&b'\n'))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn journal_parse_is_total(seed in 0u64..u64::MAX) {
        let bytes = mutate(&originals().journal, seed);
        if let Err(JournalError::Corrupt { line, message }) = LoadedJournal::parse(&bytes) {
            let lines = line_count(&bytes);
            prop_assert!(
                (1..=lines).contains(&line),
                "seed {seed}: line {line} of {lines} ({message})"
            );
        }
    }

    #[test]
    fn snapshot_from_json_is_total(seed in 0u64..u64::MAX) {
        let bytes = mutate(&originals().snapshot, seed);
        let _ = MetricsSnapshot::from_json(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn trace_from_csv_str_is_total(seed in 0u64..u64::MAX) {
        let text = String::from_utf8_lossy(&mutate(&originals().trace, seed)).into_owned();
        if let Err(TraceParseError::Line { line, message }) = Scenario::from_csv_str("day", &text)
        {
            let lines = line_count(text.as_bytes());
            prop_assert!(
                (1..=lines).contains(&line),
                "seed {seed}: line {line} of {lines} ({message})"
            );
        }
    }

    #[test]
    fn shard_from_str_is_total(seed in 0u64..u64::MAX) {
        let label = &originals().shards[(seed % 2) as usize];
        let _ = ShardSpec::from_str(&String::from_utf8_lossy(&mutate(label, seed)));
    }
}

#[test]
fn originals_parse_cleanly() {
    let o = originals();
    let journal = LoadedJournal::parse(&o.journal).expect("journal parses");
    assert!(journal.torn_tail.is_none());
    assert_eq!(journal.records.len(), 6);
    let snapshot = MetricsSnapshot::from_json(std::str::from_utf8(&o.snapshot).unwrap())
        .expect("snapshot parses");
    assert_eq!(snapshot.counter("sweep.cells"), Some(6));
    let trace = Scenario::from_csv_str("day", std::str::from_utf8(&o.trace).unwrap())
        .expect("trace parses");
    assert!(trace.arrivals() > 0);
    for label in &o.shards {
        ShardSpec::from_str(std::str::from_utf8(label).unwrap()).expect("label parses");
    }
}
