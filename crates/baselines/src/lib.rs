//! Baseline SOC test methods the paper compares SOCET against, plus the
//! chip-flattening and testability measurements behind Tables 2 and 3.
//!
//! * [`fscan_bscan`] — the FSCAN-BSCAN method: every core fully scanned,
//!   every core isolated by boundary scan. Large area, long serial shifts.
//! * [`testbus`] — the test-bus architecture: an added bus from PIs to POs
//!   with isolation multiplexers per core.
//! * [`flatten`] — merges the per-core gate netlists along the SOC nets
//!   into one chip netlist, the object the "Orig." and "HSCAN-only"
//!   experiments fault-simulate.
//! * [`testability`] — fault-coverage measurements: random sequential
//!   testing of the un-DFT'd chip and the HSCAN-only chip.

pub mod flatten;
pub mod fscan_bscan;
pub mod testability;
pub mod testbus;

pub use flatten::flatten_soc;
pub use fscan_bscan::{FscanBscanCore, FscanBscanReport};
pub use testability::{hscan_only_coverage, orig_coverage};
pub use testbus::TestBusReport;
