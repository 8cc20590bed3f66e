//! # teem-scenario
//!
//! Event-driven multi-application workload scenarios for the TEEM
//! reproduction.
//!
//! The paper evaluates one application at a time, but its motivation is
//! a phone running *concurrent, dynamically arriving* workloads while
//! its environment changes. This crate makes that setting expressible
//! and measurable:
//!
//! * a [`Scenario`] is a named timeline of [`ScenarioEvent`]s — app
//!   arrivals with per-app [requirements](AppRequest), ambient
//!   temperature changes, threshold changes and management-approach
//!   swaps — built by hand or by the deterministic generators
//!   (back-to-back, periodic, bursty, ambient staircase,
//!   mixed-deadline);
//! * a [`ScenarioRunner`] executes a scenario under any
//!   [`Approach`](teem_core::runner::Approach): arrivals queue FIFO,
//!   the board idles and cools between runs, and the thermal state
//!   carries across the whole timeline — physics shared function-level
//!   with the single-run engine;
//! * a [`MappingArbiter`] decides how co-arriving apps share the board
//!   ([`ContentionPolicy`]): serialised as the paper measures,
//!   device-exclusive co-scheduling (one app on the CPU complex, one on
//!   the GPU), or fully shared clusters with the big cluster split
//!   between apps — co-runners slowed by the shared-memory-bandwidth
//!   model in [`teem_workload::contention`];
//! * [`Scenario::from_csv`] loads recorded arrival timelines
//!   (`t, app, treq_factor` lines) so real usage traces can drive the
//!   evaluation instead of synthetic generators;
//! * a [`SweepSpec`] names cartesian axes — scenarios × approaches ×
//!   [`ContentionPolicy`] × initial threshold × ambient ×
//!   [`TeemTunables`](teem_core::TeemTunables) knob sets × board — and
//!   a thread pool claiming cells from one shared cursor streams every
//!   finished cell as a [`SweepEvent`], so thousands-of-cell grids
//!   aggregate online in O(workers) memory (pair it with
//!   [`SweepAggregator`](teem_telemetry::SweepAggregator));
//! * a [`SweepJournal`] spills the event stream to an append-only
//!   JSONL journal (fsync-batched, torn-tail tolerant) so an
//!   interrupted grid **resumes** from its last completed cell
//!   ([`SweepSpec::resume_from`] — fingerprint-checked, skipping
//!   journalled cells in the enumerator) and finished sweeps can be
//!   diffed across commits
//!   ([`sweep_diff`](teem_telemetry::sweep_diff)) or replayed into
//!   reports offline
//!   ([`SweepAggregator::replay`](teem_telemetry::SweepAggregator::replay));
//! * a **distributed campaign** splits one grid across worker
//!   *processes*: a [`ShardSpec`] ([`SweepSpec::shard`]) lowers onto
//!   the skip set and stamps the shard into the journal header,
//!   [`SweepJournal::merge`] verifies the shard journals (same
//!   fingerprint, no overlap, full coverage) and folds them into one
//!   digest-identical whole, and [`run_campaign`] supervises the fleet
//!   — killing stragglers and re-sharding their remaining cells onto
//!   survivors (the `teem-coordinator` binary is its CLI face);
//! * [`SweepSpec::run_collect`] buffers a small grid — say a scenario ×
//!   approach matrix — back into deterministic cell-index order
//!   (scenario-major), ready for
//!   [`scenario_table`](teem_telemetry::scenario_table).
//!
//! Everything is deterministic: the same scenario under the same
//! approach produces an identical trace, run to run and thread to
//! thread.
//!
//! # Examples
//!
//! Two apps arrive half a minute apart while the ambient steps up 6 °C;
//! compare TEEM against the stock ondemand stack:
//!
//! ```
//! use teem_scenario::{Scenario, ScenarioEvent, SweepSpec};
//! use teem_core::runner::Approach;
//! use teem_workload::App;
//!
//! let scenario = Scenario::new("warm-afternoon")
//!     .arrive(0.0, App::Mvt, 0.9)
//!     .at(30.0, ScenarioEvent::AmbientChange { ambient_c: 31.0 })
//!     .arrive(30.0, App::Gesummv, 0.9);
//!
//! let results = SweepSpec::over([scenario])
//!     .approaches(&[Approach::Teem, Approach::Ondemand])
//!     .run_collect()
//!     .expect("profiling succeeds");
//! assert_eq!(results.len(), 2);
//! assert_eq!(results[0].summary.approach, "TEEM");
//! assert_eq!(results[0].summary.zone_trips, 0); // proactive, trip-free
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod arbiter;
mod csv;
mod event;
mod exec;
mod journal;
mod lockstep;
mod obs;
mod scenario;
mod shard;
mod sweep;

pub use arbiter::{Admission, ContentionPolicy, MappingArbiter, ResourceClaim};
pub use csv::TraceParseError;
pub use event::{AppRequest, ScenarioEvent, TimedEvent};
pub use exec::{ScenarioResult, ScenarioRunner, SimConfig};
pub use journal::{
    journal_digest, run_interrupted, FailedCell, JournalError, JournalIoStats, LoadedJournal,
    SweepJournal, JOURNAL_VERSION,
};
pub use obs::{ProgressReporter, SweepObsReport};
pub use scenario::{Scenario, DEFAULT_THRESHOLD_C};
pub use shard::{
    metrics_sidecar, run_campaign, CampaignError, CampaignOpts, CampaignOutcome, ShardSpec,
    WorkerAssignment,
};
pub use sweep::{ConfigPatch, SweepCell, SweepError, SweepEvent, SweepRunStats, SweepSpec};
