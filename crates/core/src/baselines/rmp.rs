//! RMP — "Reliable mapping and partitioning of performance-constrained
//! OpenCL applications on CPU-GPU MPSoCs" \[9\], as the paper describes it
//! in §IV-B: *"if better temperature behavior can be obtained by running
//! all the application on GPU with minimal performance trade-off, then
//! the application is mapped on only the GPU, else the partition of
//! work-items on the CPU and GPU cores with minimal performance
//! infringement is determined."* The decision is made at design time; no
//! online optimisation follows — the gap TEEM's §III-B closes.

use super::MaxVfTable;
use teem_dse::DesignPoint;
use teem_soc::{Board, CpuMapping};
use teem_workload::App;

/// The RMP baseline planner.
#[derive(Debug, Clone)]
pub struct Rmp {
    /// Acceptable performance trade-off for the GPU-only mapping (the
    /// "minimal performance trade-off"): GPU-only is chosen when its ET
    /// is within this factor of the deadline.
    pub gpu_only_slack: f64,
    app: App,
    decision: DesignPoint,
}

impl Rmp {
    /// Plans RMP's static design point for an application and deadline,
    /// searching all combination mappings.
    pub fn build(board: &Board, app: App, treq_s: f64) -> Rmp {
        Rmp::build_with_mapping(board, app, treq_s, None)
    }

    /// Like [`Rmp::build`] but with the CPU mapping fixed (the paper's
    /// Fig. 5 holds 2L+4B across approaches); the GPU-only option is
    /// unaffected by the mapping.
    pub fn build_with_mapping(
        board: &Board,
        app: App,
        treq_s: f64,
        mapping: Option<CpuMapping>,
    ) -> Rmp {
        Rmp::from_table(&MaxVfTable::build(board, app), treq_s, mapping)
    }

    /// RMP's decision read from an evaluated table: the search of
    /// [`Rmp::build_with_mapping`] over the table's stored points.
    pub fn from_table(table: &MaxVfTable, treq_s: f64, mapping: Option<CpuMapping>) -> Rmp {
        // "Minimal performance trade-off": RMP accepts up to 15% longer
        // execution for the GPU-only mapping's superior temperature
        // behaviour (big cluster idle).
        let slack = 1.15;
        let rmp = |decision| Rmp {
            gpu_only_slack: slack,
            app: table.app(),
            decision,
        };

        // Option 1: GPU only (cool: the big cluster idles).
        let (gpu_only, gpu_eval) = *table.gpu_only();
        if gpu_eval.et_s <= treq_s * slack {
            return rmp(gpu_only);
        }

        // Option 2: the coolest CPU-GPU partition meeting the deadline
        // ("minimal performance infringement" with temperature
        // awareness): search mappings x partitions at maximum frequency,
        // prefer the lowest peak temperature among deadline-meeting
        // points; fall back to the fastest point if none meets it.
        let mut best_ok: Option<(DesignPoint, f64)> = None;
        let mut best_any: Option<(DesignPoint, f64)> = None;
        let candidates: Vec<CpuMapping> = match mapping {
            Some(m) => vec![m],
            None => MaxVfTable::combination_mappings().collect(),
        };
        for &(dp, e) in candidates.into_iter().flat_map(|m| table.row(m)) {
            if !e.et_s.is_finite() {
                continue;
            }
            // RMP trades up to `slack` of the deadline for better
            // temperature behaviour.
            if e.et_s <= treq_s * slack {
                let better = best_ok.map(|(_, t)| e.peak_temp_c < t).unwrap_or(true);
                if better {
                    best_ok = Some((dp, e.peak_temp_c));
                }
            }
            let faster = best_any.map(|(_, t)| e.et_s < t).unwrap_or(true);
            if faster {
                best_any = Some((dp, e.et_s));
            }
        }
        let decision = best_ok
            .or(best_any)
            .map(|(dp, _)| dp)
            .expect("candidate space is non-empty");
        rmp(decision)
    }

    /// The planned static design point.
    pub fn plan(&self) -> DesignPoint {
        self.decision
    }

    /// The application this plan was built for.
    pub fn app(&self) -> App {
        self.app
    }

    /// `true` when RMP chose the GPU-only mapping (the paper's 2D and GM
    /// cases in Fig. 5a).
    pub fn is_gpu_only(&self) -> bool {
        self.decision.partition.is_gpu_only()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teem_dse::evaluate;
    use teem_soc::{perf, MHz};
    use teem_workload::Partition;

    #[test]
    fn gpu_friendly_apps_go_gpu_only() {
        // 2D and GEMM: strongly GPU-affine; with a deadline near the
        // GPU-only time RMP must choose GPU-only (the paper's Fig. 5a
        // behaviour that gives TEEM an energy overhead there).
        let board = Board::odroid_xu4_ideal();
        for app in [App::Conv2d, App::Gemm] {
            let chars = app.characteristics();
            let et_gpu = perf::et_gpu(&chars, MHz(600));
            let rmp = Rmp::build(&board, app, et_gpu * 1.05);
            assert!(rmp.is_gpu_only(), "{app} should be GPU-only");
        }
    }

    #[test]
    fn tight_deadline_forces_partitioning() {
        let board = Board::odroid_xu4_ideal();
        let chars = App::Covariance.characteristics();
        let et_gpu = perf::et_gpu(&chars, MHz(600));
        // Deadline at 60% of GPU-only time: must use the CPU too.
        let rmp = Rmp::build(&board, App::Covariance, et_gpu * 0.6);
        assert!(!rmp.is_gpu_only());
        let dp = rmp.plan();
        assert!(dp.mapping.total_cores() > 0);
        // RMP accepts up to its slack of the deadline for cooler choices.
        let eval = evaluate::predict(&board, &chars, &dp);
        assert!(
            eval.et_s <= et_gpu * 0.6 * rmp.gpu_only_slack + 1e-6,
            "exceeds even the slacked deadline: {}",
            eval.et_s
        );
    }

    #[test]
    fn partitioned_choice_is_coolest_feasible() {
        let board = Board::odroid_xu4_ideal();
        let app = App::Syrk;
        let chars = app.characteristics();
        let et_gpu = perf::et_gpu(&chars, MHz(600));
        let treq = et_gpu * 0.8;
        let rmp = Rmp::build(&board, app, treq);
        let chosen = evaluate::predict(&board, &chars, &rmp.plan());
        // Every slack-feasible grid point is at least as hot.
        for little in 1..=4u32 {
            for big in 1..=4u32 {
                for partition in Partition::offline_grid() {
                    let dp = DesignPoint {
                        mapping: CpuMapping::new(little, big),
                        freqs: rmp.plan().freqs,
                        partition,
                    };
                    let e = evaluate::predict(&board, &chars, &dp);
                    if e.et_s <= treq * rmp.gpu_only_slack {
                        assert!(
                            e.peak_temp_c >= chosen.peak_temp_c - 1e-9,
                            "{dp} cooler than RMP's choice"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn impossible_deadline_falls_back_to_fastest() {
        let board = Board::odroid_xu4_ideal();
        let rmp = Rmp::build(&board, App::Mvt, 0.01);
        // Still returns a valid plan.
        let dp = rmp.plan();
        assert!(dp.mapping.total_cores() > 0 || dp.partition.is_gpu_only());
    }
}
