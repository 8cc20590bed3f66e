//! The design-point table both static baselines plan from.
//!
//! EEMP's LUT and RMP's search evaluate the same points: CPU mappings ×
//! the offline partition grid, every point at maximum V/f, plus RMP's
//! GPU-only option with the CPU clusters idling at their floors. The
//! paper treats both tables as design-time artefacts, and their values
//! depend only on the application and the board. Launch planning always
//! runs on the ideal XU4, so [`MaxVfTable::ideal`] evaluates each
//! application's table once per process and every later EEMP or RMP
//! launch reads it.

use std::sync::{Arc, Mutex, PoisonError};
use teem_dse::{evaluate, DesignPoint, DesignPointEval};
use teem_soc::{Board, ClusterFreqs, CpuMapping, MHz};
use teem_workload::{App, Partition};

/// Cores per cluster a [`CpuMapping`] can use.
const CLUSTER_CORES: u32 = 4;

/// Every mapping's maximum-V/f points for one application, plus RMP's
/// GPU-only point.
///
/// The table holds a row for every mapping a [`CpuMapping`] can
/// express, empty clusters included, so a fixed-mapping plan (the
/// paper's Fig. 5, or the co-run arbiter's device-exclusive re-plan)
/// always finds its row.
#[derive(Debug, Clone)]
pub struct MaxVfTable {
    app: App,
    gpu_only: (DesignPoint, DesignPointEval),
    /// The offline grid per mapping, indexed by
    /// `little × (CLUSTER_CORES + 1) + big`.
    rows: Vec<[(DesignPoint, DesignPointEval); 9]>,
}

impl MaxVfTable {
    /// Maximum V/f: the frequencies every row point runs at.
    pub(crate) const FREQS: ClusterFreqs = ClusterFreqs {
        big: MHz(2000),
        little: MHz(1400),
        gpu: MHz(600),
    };

    /// Evaluates `app`'s table on `board` with the analytic model.
    pub fn build(board: &Board, app: App) -> MaxVfTable {
        let chars = app.characteristics();
        let eval = |dp: DesignPoint| (dp, evaluate::predict(board, &chars, &dp));
        let gpu_only = eval(DesignPoint {
            mapping: CpuMapping::new(0, 0),
            freqs: ClusterFreqs {
                big: MHz(200),
                little: MHz(600),
                gpu: MHz(600),
            },
            partition: Partition::all_gpu(),
        });
        let rows = (0..=CLUSTER_CORES)
            .flat_map(|little| (0..=CLUSTER_CORES).map(move |big| CpuMapping::new(little, big)))
            .map(|mapping| {
                Partition::offline_grid().map(|partition| {
                    eval(DesignPoint {
                        mapping,
                        freqs: Self::FREQS,
                        partition,
                    })
                })
            })
            .collect();
        MaxVfTable {
            app,
            gpu_only,
            rows,
        }
    }

    /// `app`'s table on [`Board::odroid_xu4_ideal`], the board launch
    /// planning runs on, memoised for the life of the process: the
    /// first call for an app evaluates it and every later call shares
    /// it.
    pub fn ideal(app: App) -> Arc<MaxVfTable> {
        static CACHE: Mutex<Vec<Arc<MaxVfTable>>> = Mutex::new(Vec::new());
        // A build that panics pushes nothing, so a poisoned cache still
        // holds only complete tables.
        let mut cache = CACHE.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(table) = cache.iter().find(|t| t.app == app) {
            return Arc::clone(table);
        }
        let table = Arc::new(MaxVfTable::build(&Board::odroid_xu4_ideal(), app));
        cache.push(Arc::clone(&table));
        table
    }

    /// The application the table was evaluated for.
    pub(crate) fn app(&self) -> App {
        self.app
    }

    /// RMP's GPU-only point.
    pub(crate) fn gpu_only(&self) -> &(DesignPoint, DesignPointEval) {
        &self.gpu_only
    }

    /// The points at `mapping`, in offline-grid partition order.
    pub(crate) fn row(&self, mapping: CpuMapping) -> &[(DesignPoint, DesignPointEval)] {
        &self.rows[(mapping.little * (CLUSTER_CORES + 1) + mapping.big) as usize]
    }

    /// The 16 mappings that use both clusters, LITTLE count outermost:
    /// the mappings EEMP stores and RMP searches, in that order.
    pub(crate) fn combination_mappings() -> impl Iterator<Item = CpuMapping> {
        (1..=CLUSTER_CORES)
            .flat_map(|little| (1..=CLUSTER_CORES).map(move |big| CpuMapping::new(little, big)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_hold_every_mapping_at_max_vf() {
        let table = MaxVfTable::build(&Board::odroid_xu4_ideal(), App::Mvt);
        assert_eq!(table.app(), App::Mvt);
        assert_eq!(MaxVfTable::combination_mappings().count(), 16);
        for little in 0..=CLUSTER_CORES {
            for big in 0..=CLUSTER_CORES {
                let mapping = CpuMapping::new(little, big);
                let row = table.row(mapping);
                for ((dp, _), partition) in row.iter().zip(Partition::offline_grid()) {
                    assert_eq!(dp.mapping, mapping);
                    assert_eq!(dp.partition, partition);
                    assert_eq!(dp.freqs, MaxVfTable::FREQS);
                }
            }
        }
        // No cores: only the all-GPU partition can finish.
        let empty = table.row(CpuMapping::new(0, 0));
        assert!(empty[0].1.et_s.is_finite());
        assert!(empty[1..].iter().all(|(_, e)| e.et_s.is_infinite()));
        assert!(table.gpu_only().0.partition.is_gpu_only());
    }

    #[test]
    fn the_memo_is_the_ideal_board_table() {
        let fresh = MaxVfTable::build(&Board::odroid_xu4_ideal(), App::Gemm);
        let memo = MaxVfTable::ideal(App::Gemm);
        assert!(Arc::ptr_eq(&memo, &MaxVfTable::ideal(App::Gemm)));
        assert_eq!(memo.gpu_only(), fresh.gpu_only());
        for mapping in MaxVfTable::combination_mappings() {
            assert_eq!(memo.row(mapping), fresh.row(mapping));
        }
    }
}
