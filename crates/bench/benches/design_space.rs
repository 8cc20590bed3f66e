//! Design-space machinery — eq. (1)/(2) enumeration, the 10 368-point
//! diverse sample, analytic design-point evaluation, EEMP LUT
//! construction, and the cold fill of the EEMP/RMP planning tables.

use std::hint::black_box;
use teem_bench::microbench::Runner;
use teem_core::baselines::{Eemp, MaxVfTable};
use teem_dse::{enumerate, evaluate, sample, DesignPoint};
use teem_soc::{Board, ClusterFreqs, CpuMapping, MHz};
use teem_workload::{App, Partition};

fn main() {
    let mut r = Runner::from_args();
    let board = Board::odroid_xu4_ideal();
    let chars = App::Covariance.characteristics();

    r.bench("enumerate_full_space_257040", || {
        enumerate::full_space(black_box(&board)).count()
    });

    r.bench("diverse_sample_10368", || sample::diverse_sample().len());

    let dp = DesignPoint {
        mapping: CpuMapping::new(2, 3),
        freqs: ClusterFreqs {
            big: MHz(1500),
            little: MHz(1400),
            gpu: MHz(600),
        },
        partition: Partition::even(),
    };
    r.bench("predict_one_design_point", || {
        evaluate::predict(black_box(&board), black_box(&chars), black_box(&dp))
    });

    r.bench("eemp_lut_build_128", || {
        Eemp::build(black_box(&board), App::Covariance)
    });

    // What a process pays once to fill the planning memo: every app's
    // table, each on a fresh board as the memo builds it.
    r.bench("max_vf_tables_all_apps", || {
        App::all().map(|app| MaxVfTable::build(&Board::odroid_xu4_ideal(), black_box(app)))
    });

    r.finish();
}
