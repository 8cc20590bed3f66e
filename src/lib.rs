//! # teem
//!
//! A complete reproduction of **"TEEM: Online Thermal- and
//! Energy-Efficiency Management on CPU-GPU MPSoCs"** (Isuwa, Dey, Singh,
//! McDonald-Maier — DATE 2019), built as a Rust workspace with every
//! substrate implemented from scratch:
//!
//! | Crate | Role |
//! |-------|------|
//! | [`soc`] | Behavioural Exynos 5422 / Odroid-XU4 simulator: DVFS, power, RC thermals, TMU sensors, wall meter |
//! | [`workload`] | Polybench kernels, work-item partitioning, per-device characteristics |
//! | [`governors`] | Linux-style cpufreq governors: ondemand (the stock baseline) and userspace |
//! | [`dse`] | Design-space enumeration (eq. 1/2), the 10 368-point sample, design-point evaluation |
//! | [`linreg`] | OLS with R-style inference — the paper's R workflow (Tables I/II) |
//! | [`core`] | TEEM itself: offline model fitting, online governor, EEMP/RMP baselines |
//! | [`scenario`] | Event-driven multi-app workload scenarios and the streaming sweep engine |
//! | [`telemetry`] | Traces, thermal statistics, run/scenario summaries, terminal plots |
//!
//! This facade re-exports the full public API and provides a [`prelude`].
//!
//! # Quickstart
//!
//! Profile an application offline, then run it under TEEM:
//!
//! ```
//! use teem::prelude::*;
//!
//! # fn main() -> Result<(), teem::linreg::LinregError> {
//! let board = Board::odroid_xu4_ideal();
//! let profile = offline::profile_app(&board, App::Covariance)?;
//! let req = UserRequirement::with_paper_threshold(profile.et_gpu_s * 0.85);
//! let result = run(App::Covariance, Approach::Teem, &req, Some(&profile), None, None);
//! assert_eq!(result.zone_trips, 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use teem_core as core;
pub use teem_dse as dse;
pub use teem_governors as governors;
pub use teem_linreg as linreg;
pub use teem_scenario as scenario;
pub use teem_soc as soc;
pub use teem_telemetry as telemetry;
pub use teem_workload as workload;

/// Everything needed for typical use: board, apps, approaches, the TEEM
/// governor and the offline pipeline.
pub mod prelude {
    pub use teem_core::offline;
    pub use teem_core::runner::{run, Approach};
    pub use teem_core::{
        plan, AppProfile, MappingModel, ProfileStore, TeemGovernor, TeemPlan, TeemTunables,
        UserRequirement,
    };
    pub use teem_governors::{Ondemand, Userspace};
    pub use teem_scenario::{
        AppRequest, ConfigPatch, ContentionPolicy, LoadedJournal, MappingArbiter, ProgressReporter,
        Scenario, ScenarioEvent, ScenarioResult, ScenarioRunner, SimConfig, SweepEvent,
        SweepJournal, SweepObsReport, SweepSpec,
    };
    pub use teem_soc::{
        Board, ClusterFreqs, CpuMapping, MHz, Manager, NodePowerModel, RunResult, RunSpec,
        Simulation, SocControl, SocView, StepScratch, ThermalZone, TimeAdvance,
    };
    pub use teem_telemetry::{
        sweep_diff, CellRecord, LogHistogram, MetricsRegistry, MetricsSnapshot, RunSummary,
        ScenarioSummary, SweepAggregator, TimeSeries, Trace, TraceEventLog,
    };
    pub use teem_workload::{App, Kernel, Partition, ProblemSize};
}

#[cfg(test)]
mod facade_tests {
    #[test]
    fn re_exports_are_reachable() {
        // Equation (1) through the facade path.
        assert_eq!(crate::dse::enumerate::mcpu_count(4, 4), 24);
        // Prelude types construct.
        use crate::prelude::*;
        let m = CpuMapping::new(2, 3);
        assert_eq!(m.to_string(), "2L+3B");
        let _ = Board::odroid_xu4_ideal();
    }
}
