//! EEMP — "Energy-Efficient Run-Time Mapping and Thread Partitioning of
//! Concurrent OpenCL Applications on CPU-GPU MPSoCs" \[15\], as the paper
//! describes it in §IV-B: a per-application table of evaluated design
//! points (mapping × partition — 128 entries); at runtime the
//! minimum-energy stored point meeting the performance constraint is
//! selected, *"executing at the maximum voltage/frequency and turning
//! off the unused cores"*. **No thermal consideration** — the reactive
//! kernel trip is all that protects the chip, which is why EEMP reaches
//! the thermal limit in Fig. 5(b) and pays for it in energy and time.

use super::MaxVfTable;
use teem_dse::{DesignPoint, DesignPointLut};
use teem_soc::{Board, CpuMapping};
use teem_workload::App;

/// The EEMP baseline: stored LUT + static minimum-energy selection at
/// maximum V/f.
#[derive(Debug, Clone)]
pub struct Eemp {
    lut: DesignPointLut,
}

impl Eemp {
    /// Builds EEMP's 128-entry design-point table for an application:
    /// all 16 combination mappings × the 8 non-GPU-only partitions of
    /// the offline grid, every entry at maximum V/f (the paper's EEMP
    /// power management is core gating, not frequency scaling).
    /// Evaluated with the analytic model (the paper's EEMP stores
    /// measured values; ours stores the simulator's predictions).
    pub fn build(board: &Board, app: App) -> Eemp {
        Eemp::from_table(&MaxVfTable::build(board, app))
    }

    /// EEMP's LUT read from an evaluated table: the combination
    /// mappings' rows without their leading GPU-only partition, in table
    /// order.
    pub fn from_table(table: &MaxVfTable) -> Eemp {
        let entries: Vec<_> = MaxVfTable::combination_mappings()
            .flat_map(|m| &table.row(m)[1..])
            .copied()
            .collect();
        debug_assert_eq!(entries.len(), DesignPointLut::EEMP_ENTRIES);
        Eemp {
            lut: DesignPointLut::new(table.app().abbrev(), entries),
        }
    }

    /// EEMP's runtime decision: the minimum-energy stored point meeting
    /// `treq_s`, falling back to the fastest stored point when none
    /// meets it.
    ///
    /// # Panics
    ///
    /// Panics if the LUT is empty (cannot happen via [`Eemp::build`]).
    pub fn plan(&self, treq_s: f64) -> DesignPoint {
        self.lut
            .min_energy_within(treq_s)
            .or_else(|| self.lut.fastest())
            .expect("EEMP LUT is never empty")
            .0
    }

    /// Like [`Eemp::plan`] but with the mapping fixed (the paper's
    /// Fig. 5 holds the mapping at 2L+4B across approaches): selection
    /// restricted to entries with that mapping.
    pub fn plan_with_mapping(&self, treq_s: f64, mapping: CpuMapping) -> DesignPoint {
        let feasible = self
            .lut
            .iter()
            .filter(|(dp, _)| dp.mapping == mapping)
            .filter(|(_, e)| e.et_s <= treq_s)
            .min_by(|a, b| a.1.energy_j.partial_cmp(&b.1.energy_j).expect("finite"));
        if let Some((dp, _)) = feasible {
            return *dp;
        }
        // Fallback: fastest entry with that mapping.
        self.lut
            .iter()
            .filter(|(dp, _)| dp.mapping == mapping)
            .min_by(|a, b| a.1.et_s.partial_cmp(&b.1.et_s).expect("finite"))
            .map(|(dp, _)| *dp)
            .unwrap_or_else(|| self.plan(treq_s))
    }

    /// The stored table (for memory accounting and inspection).
    pub fn lut(&self) -> &DesignPointLut {
        &self.lut
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teem_dse::evaluate;
    use teem_soc::MHz;

    #[test]
    fn builds_exactly_128_entries_at_max_vf() {
        let e = Eemp::build(&Board::odroid_xu4_ideal(), App::Covariance);
        assert_eq!(e.lut().len(), DesignPointLut::EEMP_ENTRIES);
        for (dp, _) in e.lut().iter() {
            assert_eq!(dp.freqs.big, MHz(2000), "EEMP executes at max V/f");
            assert!(!dp.partition.is_gpu_only());
        }
    }

    #[test]
    fn plan_meets_constraint_when_possible() {
        let board = Board::odroid_xu4_ideal();
        let e = Eemp::build(&board, App::Covariance);
        let chars = App::Covariance.characteristics();
        let fastest = e.lut().fastest().unwrap().1.et_s;
        let treq = fastest * 1.3;
        let dp = e.plan(treq);
        let eval = evaluate::predict(&board, &chars, &dp);
        assert!(eval.et_s <= treq + 1e-9, "{} > {treq}", eval.et_s);
        for (other, ev) in e.lut().iter() {
            if ev.et_s <= treq {
                assert!(
                    ev.energy_j >= eval.energy_j - 1e-9,
                    "{other} cheaper than selection"
                );
            }
        }
    }

    #[test]
    fn impossible_constraint_falls_back_to_fastest() {
        let e = Eemp::build(&Board::odroid_xu4_ideal(), App::Mvt);
        let dp = e.plan(0.001);
        let fastest = e.lut().fastest().unwrap().0;
        assert_eq!(dp, fastest);
    }

    #[test]
    fn fixed_mapping_selection_respects_mapping() {
        let board = Board::odroid_xu4_ideal();
        let e = Eemp::build(&board, App::Gemm);
        let mapping = CpuMapping::new(2, 4);
        let dp = e.plan_with_mapping(30.0, mapping);
        assert_eq!(dp.mapping, mapping);
        // Impossible deadline still returns that mapping's fastest.
        let dp = e.plan_with_mapping(0.001, mapping);
        assert_eq!(dp.mapping, mapping);
    }

    #[test]
    fn looser_deadline_never_costs_more_energy() {
        let board = Board::odroid_xu4_ideal();
        let e = Eemp::build(&board, App::Gemm);
        let chars = App::Gemm.characteristics();
        let fastest = e.lut().fastest().unwrap().1.et_s;
        let tight = evaluate::predict(&board, &chars, &e.plan(fastest * 1.1));
        let loose = evaluate::predict(&board, &chars, &e.plan(fastest * 3.0));
        assert!(loose.energy_j <= tight.energy_j + 1e-9);
    }
}
