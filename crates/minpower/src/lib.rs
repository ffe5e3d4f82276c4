//! `minpower` — a Rust reproduction of *Device-Circuit Optimization for
//! Minimal Energy and Power Consumption in CMOS Random Logic Networks*
//! (Pant, De, Chatterjee — DAC 1997).
//!
//! This facade re-exports the whole workspace under stable module names:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`netlist`] | `minpower-netlist` | gate-level DAG, ISCAS `.bench` I/O |
//! | [`device`] | `minpower-device` | technology + transregional MOSFET model |
//! | [`wiring`] | `minpower-wiring` | Rent's-rule a-priori wire-length model |
//! | [`activity`] | `minpower-activity` | signal probability + transition density |
//! | [`models`] | `minpower-models` | Appendix-A energy/delay models |
//! | [`timing`] | `minpower-timing` | STA, criticality, K-most-critical paths |
//! | [`opt`] | `minpower-core` | Procedures 1 + 2, baselines, annealing, variation |
//! | [`spice`] | `minpower-spice` | transient simulator (HSPICE substitute) |
//! | [`circuits`] | `minpower-circuits` | s27/c17 + synthetic ISCAS-like suite |
//! | [`bdd`] | `minpower-bdd` | ROBDDs for exact probability analysis |
//! | [`engine`] | `minpower-engine` | worker pool, probe cache, telemetry |
//!
//! The most common entry points are also re-exported at the crate root.
//!
//! # Quickstart
//!
//! ```
//! use minpower::{CircuitModel, Optimizer, Problem, Technology};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let netlist = minpower::circuits::s27();
//! let model = CircuitModel::with_uniform_activity(&netlist, Technology::dac97(), 0.5, 0.1);
//! let problem = Problem::new(model, 300.0e6);
//! let result = Optimizer::new(&problem).run()?;
//! println!(
//!     "s27 @300 MHz: {:.2e} J/cycle at Vdd = {:.2} V",
//!     result.energy.total(),
//!     result.design.vdd
//! );
//! assert!(result.feasible);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use minpower_activity as activity;
pub use minpower_bdd as bdd;
pub use minpower_circuits as circuits;
pub use minpower_core as opt;
pub use minpower_device as device;
pub use minpower_engine as engine;
pub use minpower_models as models;
pub use minpower_netlist as netlist;
pub use minpower_spice as spice;
pub use minpower_timing as timing;
pub use minpower_wiring as wiring;

pub use minpower_activity::{Activities, InputActivity};
pub use minpower_core::{
    AnnealCheckpoint, CheckpointSpec, EvalContext, OptimizationResult, OptimizeError, Optimizer,
    ProbeJournal, Problem, Progress, RunControl, SearchOptions, TripReason,
};
pub use minpower_device::Technology;
pub use minpower_models::{CircuitModel, Design, EnergyBreakdown};
pub use minpower_netlist::{GateKind, Netlist, NetlistBuilder, NetlistError};
pub use minpower_wiring::WireModel;
