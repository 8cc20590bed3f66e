//! Property tests for the digests [`Trace::seal_digests`] and
//! [`Trace::fold_digest`] store: after a group of traces is sealed, or
//! a trace folded at any budget, every `digest()` equals the digest an
//! untouched clone computes, and after any later mutation it equals a
//! fresh computation again; a fold the trace changes under starts over.
//!
//! Each case draws 1–9 traces, either all with one registered channel
//! layout or each with its own: random channel subsets, channels left
//! empty (the gap channel most of all), late-created channels (one of
//! them with a name longer than the serialisation buffer) and 0–600
//! samples per channel. The shadow copies are never sealed, so their
//! `digest()` always computes.

use proptest::prelude::*;
use teem_telemetry::{SampleStage, Trace};

/// The engine's channel set, `gap.fastforward_s` among them.
const CHANNELS: [&str; 9] = [
    "freq.big",
    "freq.gpu",
    "freq.little",
    "gap.fastforward_s",
    "power.total",
    "temp.big",
    "temp.gpu",
    "temp.little",
    "temp.max",
];

/// A finite value, now and then a signed zero.
fn value(rng: &mut TestRng) -> f64 {
    match rng.below(16) {
        0 => -0.0,
        1 => 0.0,
        _ => rng.next_f64() * 120.0 - 20.0,
    }
}

/// Records `samples` samples into `name` from time 0, times
/// non-decreasing (repeats included).
fn fill_channel(tr: &mut Trace, rng: &mut TestRng, name: &str, samples: usize) {
    let mut t = 0.0;
    for _ in 0..samples {
        let v = value(rng);
        tr.record(name, t, v);
        if rng.below(8) != 0 {
            t += rng.next_f64();
        }
    }
}

/// One trace: a registered channel subset (`layout`, or a random one),
/// each channel filled with 0–`max_len` samples or left empty, plus
/// now and then a late-created channel.
fn random_trace(rng: &mut TestRng, layout: Option<u64>, max_len: u64) -> Trace {
    let mask = layout.unwrap_or_else(|| rng.below(1 << CHANNELS.len()));
    let names: Vec<&'static str> = CHANNELS
        .iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, &n)| n)
        .collect();
    let mut tr = Trace::with_channels(&names);
    for name in names {
        let samples = match (name, rng.below(6)) {
            // The gap channel stays empty in most runs, as in the engine.
            ("gap.fastforward_s", r) if r != 0 => 0,
            (_, 0) => 0,
            _ => rng.below(max_len + 1) as usize,
        };
        fill_channel(&mut tr, rng, name, samples);
    }
    let late = match rng.below(10) {
        0 => Some(("a.late".to_string(), 1 + rng.below(40))),
        1 => Some((format!("z.{}", "long".repeat(1100)), rng.below(5))), // > 4 KiB
        _ => None,
    };
    if let Some((name, samples)) = late {
        fill_channel(&mut tr, rng, &name, samples as usize);
    }
    tr
}

/// Applies one random mutation at time `t` (past every recorded
/// sample) to both `tr` and its `shadow`: a record by name, a record by
/// id, a staged flush, a late channel creation, or nothing.
fn mutate(tr: &mut Trace, shadow: &mut Trace, rng: &mut TestRng, t: f64) {
    let v = value(rng);
    let names: Vec<String> = tr.channel_names().into_iter().map(str::to_string).collect();
    let pick = |rng: &mut TestRng| names[rng.below(names.len() as u64) as usize].clone();
    match rng.below(5) {
        0 if !names.is_empty() => {
            let name = pick(rng);
            tr.record(&name, t, v);
            shadow.record(&name, t, v);
        }
        1 if !names.is_empty() => {
            let name = pick(rng);
            tr.record_id(tr.channel_id(&name).unwrap(), t, v);
            shadow.record_id(shadow.channel_id(&name).unwrap(), t, v);
        }
        2 if !names.is_empty() => {
            let name = pick(rng);
            let rows = 1 + rng.below(3) as usize;
            for trace in [tr, shadow] {
                let mut stage = SampleStage::new(vec![trace.channel_id(&name).unwrap()]);
                for r in 0..rows {
                    stage.push(t + r as f64, &[v]);
                }
                trace.flush_stage(&mut stage);
            }
        }
        3 => {
            tr.record("b.created_late", t, v);
            shadow.record("b.created_late", t, v);
        }
        _ => {}
    }
}

/// Samples in `tr`, every channel counted.
fn samples(tr: &Trace) -> usize {
    tr.channel_names()
        .into_iter()
        .map(|name| tr.channel(name).map_or(0, |s| s.len()))
        .sum()
}

/// Folds `tr`'s digest `budget` samples per call until it is stored;
/// returns the number of calls.
fn fold(tr: &mut Trace, budget: usize) -> usize {
    let mut calls = 1;
    while !tr.fold_digest(budget) {
        calls += 1;
    }
    calls
}

/// The fold budgets checked on a trace of `total` samples: every one
/// from 1 sample to one past the whole trace, where that is at most
/// `EVERY_BUDGET_UP_TO` samples (the check costs `total²`); on a longer
/// trace every budget up to 40, the three just around the whole trace
/// and a few between.
fn budgets(total: usize) -> Vec<usize> {
    const EVERY_BUDGET_UP_TO: usize = 400;
    if total <= EVERY_BUDGET_UP_TO {
        return (1..=total + 1).collect();
    }
    let mut b: Vec<usize> = (1..=40).collect();
    b.extend([97, 256, total / 3, total / 2, total - 1, total, total + 1]);
    b
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn sealed_digests_equal_computed_ones_until_a_mutation(
        seed in 0u64..u64::MAX,
        n in 1usize..=9,
        shared_layout in 0u64..2,
    ) {
        let mut rng = TestRng::new(seed);
        let layout = (shared_layout == 1).then(|| rng.below(1 << CHANNELS.len()));
        let max_len = if rng.below(4) == 0 { 600 } else { 40 };
        let mut traces: Vec<Trace> =
            (0..n).map(|_| random_trace(&mut rng, layout, max_len)).collect();
        let mut shadows = traces.clone();

        let mut refs: Vec<&mut Trace> = traces.iter_mut().collect();
        Trace::seal_digests(&mut refs);
        for (i, (tr, shadow)) in traces.iter().zip(&shadows).enumerate() {
            prop_assert_eq!(tr.digest(), shadow.digest(), "sealed trace {} of {}", i, n);
            prop_assert_eq!(tr.clone().digest(), shadow.digest(), "clone of trace {}", i);
        }

        // Folded at every budget, each call but the last taking exactly
        // `budget` samples.
        for (i, shadow) in shadows.iter().enumerate() {
            let total = samples(shadow);
            for budget in budgets(total) {
                let mut folded = shadow.clone();
                let calls = fold(&mut folded, budget);
                prop_assert_eq!(
                    folded.digest(),
                    shadow.digest(),
                    "trace {} folded {} samples per call",
                    i,
                    budget
                );
                prop_assert_eq!(calls, total.div_ceil(budget).max(1), "trace {}", i);
                prop_assert!(folded.fold_digest(1), "a stored digest stays stored");
            }
        }

        for round in 0..3 {
            let t = 1e6 * f64::from(round + 1);
            for (i, (tr, shadow)) in traces.iter_mut().zip(&mut shadows).enumerate() {
                mutate(tr, shadow, &mut rng, t);
                prop_assert_eq!(
                    tr.digest(),
                    shadow.digest(),
                    "trace {} after mutation round {}",
                    i,
                    round
                );
                // A mutation in the middle of a fold restarts it.
                tr.fold_digest(1 + rng.below(8) as usize);
                mutate(tr, shadow, &mut rng, t + 1e3);
                fold(tr, 1 + rng.below(64) as usize);
                prop_assert_eq!(
                    tr.digest(),
                    shadow.digest(),
                    "trace {} folded across a mutation in round {}",
                    i,
                    round
                );
            }
            // Every trace now holds a folded digest. Re-seal every other
            // round, so the next round's mutations clear digests stored
            // both ways.
            if round % 2 == 1 {
                let mut refs: Vec<&mut Trace> = traces.iter_mut().collect();
                Trace::seal_digests(&mut refs);
            }
        }
    }
}

/// Traces with equal contents seal to equal digests whatever group
/// they land in, and a one-trace call leaves the digest computed.
#[test]
fn grouping_does_not_change_a_digest() {
    let mut rng = TestRng::new(7);
    let base = random_trace(&mut rng, Some(0b1_1111_1111), 30);
    let expected = base.digest();
    for n in 1..=9 {
        let mut traces = vec![base.clone(); n];
        let mut refs: Vec<&mut Trace> = traces.iter_mut().collect();
        Trace::seal_digests(&mut refs);
        assert!(traces.iter().all(|t| t.digest() == expected), "n = {n}");
    }
}
