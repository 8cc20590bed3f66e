//! # teem-governors
//!
//! Linux-style cpufreq governors for the simulated Exynos 5422: the stock
//! managers TEEM is compared against and built on top of.
//!
//! * [`Ondemand`] — the paper's Fig. 1(a) baseline; jumps to maximum under
//!   load, so thermal protection falls entirely to the kernel's reactive
//!   trip (95 °C → 900 MHz), producing the oscillation the paper
//!   criticises.
//! * [`Userspace`] — pin arbitrary per-cluster frequencies; the actuation
//!   primitive used to hold a design point's V/f setting (EEMP-style
//!   static management and offline design-point evaluation).
//!
//! # Examples
//!
//! ```
//! use teem_governors::Ondemand;
//! use teem_soc::{Board, ClusterFreqs, CpuMapping, MHz, RunSpec, Simulation};
//! use teem_workload::{App, Partition};
//!
//! let spec = RunSpec {
//!     app: App::Covariance,
//!     mapping: CpuMapping::new(2, 3),
//!     partition: Partition::even(),
//!     initial: ClusterFreqs { big: MHz(2000), little: MHz(1400), gpu: MHz(600) },
//! };
//! let mut sim = Simulation::new(Board::odroid_xu4_ideal(), spec);
//! let result = sim.run(&mut Ondemand::xu4());
//! assert!(result.summary.peak_temp_c >= 95.0); // reactive throttling regime
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod fixed;
mod ondemand;

pub use fixed::Userspace;
pub use ondemand::Ondemand;
