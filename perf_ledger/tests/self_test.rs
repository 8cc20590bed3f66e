//! The benchmark's self-test: every workload run twice at smoke size
//! must give the same digest (equal to its reference pass), and the
//! counts the ledger treats as exact must repeat exactly. Also checks
//! that `BENCHMARK.json` names what the source measures.

use std::path::Path;

use perf_ledger::layers::PER_LAYER;
use perf_ledger::{smoke, Args, Workload, END_TO_END};

#[test]
fn every_workload_repeats_its_digest_and_counts() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    for w in Workload::ALL {
        let a = smoke(w, 3, 2, dir).expect("first smoke run");
        let b = smoke(w, 3, 2, dir).expect("second smoke run");
        assert_eq!(a.failed, 0, "{}", w.name());
        assert_eq!(a.digest, a.reference, "{}: timed != reference", w.name());
        assert_eq!(a.digest, b.digest, "{}: digest", w.name());
        assert_eq!(a.steps, b.steps, "{}: engine.steps", w.name());
        assert_eq!(a.gaps_skipped, b.gaps_skipped, "{}: gaps", w.name());
        assert_eq!(
            a.journal_bytes_per_record.to_bits(),
            b.journal_bytes_per_record.to_bits(),
            "{}: journal bytes",
            w.name()
        );
        match w {
            Workload::SweepGrid => assert!(a.steps > 0),
            Workload::TraceCampaign => {
                assert!(a.gaps_skipped > 0, "phone_day has idle gaps");
                assert!(a.journal_bytes_per_record > 0.0);
            }
            Workload::PaperDse => assert_eq!(a.steps, 0, "no scenario engine"),
        }
    }
}

#[test]
fn seeds_change_inputs_not_shape() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let a = smoke(Workload::SweepGrid, 3, 1, dir).expect("seed 3");
    let b = smoke(Workload::SweepGrid, 4, 1, dir).expect("seed 4");
    assert_ne!(a.digest, b.digest, "the seed picks the grid values");
    assert_eq!(a.steps, b.steps, "every cell is cut at the same length");
}

#[test]
fn benchmark_json_names_what_the_source_measures() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for w in Workload::ALL {
        assert!(
            json.contains(&format!(
                "{{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )),
            "workload {} and its reason",
            w.name()
        );
    }
    for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            json.contains(&format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\""
            )),
            "metric {name}"
        );
    }
    assert_eq!(
        json.matches("\"unit\":").count(),
        END_TO_END.len() + PER_LAYER.len(),
        "no metric beyond the source's"
    );
}

#[test]
fn arguments_parse_and_reject() {
    let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
    let a = parse("--workload paper_dse --seed 7 --seconds 10 --trace 1").expect("valid");
    assert_eq!(a.workload, Workload::PaperDse);
    assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
    for bad in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload sweep_grid --seed 1 --seconds 0 --trace 0",
        "--workload sweep_grid --seed 1 --seconds 1 --trace 2",
        "--workload sweep_grid --seed 1 --seconds 1",
        "--workload sweep_grid --seed x --seconds 1 --trace 0",
    ] {
        assert!(parse(bad).is_err(), "{bad}");
    }
}
