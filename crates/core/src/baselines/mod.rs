//! The comparison approaches of §IV-B: EEMP \[15\] (energy-efficient
//! mapping and thread partitioning, no thermal consideration) and RMP \[9\]
//! (reliable, temperature-aware mapping and partitioning, no online
//! adaptation). Both plan a static design point and hold its V/f for the
//! whole run — the kernel's reactive thermal zone is their only
//! protection, exactly the behaviour the paper contrasts TEEM against.
//! Both decide from one table of maximum-V/f design points
//! ([`MaxVfTable`]), evaluated once per application for launch planning.

mod eemp;
mod rmp;
mod table;

pub use eemp::Eemp;
pub use rmp::Rmp;
pub use table::MaxVfTable;
