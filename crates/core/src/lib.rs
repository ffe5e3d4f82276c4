//! Joint device-circuit optimization for minimal energy in CMOS random
//! logic networks — the core algorithm of Pant, De & Chatterjee (DAC'97).
//!
//! Given a logic network required to run at clock frequency `f_c`, the
//! optimizer chooses one global supply voltage `V_dd`, one (or `n_v`)
//! threshold voltage(s) `V_ts`, and a channel width `w_i` per gate so that
//! the total static + dynamic energy per cycle is minimized while every
//! path meets the cycle time. The algorithm is a two-phase heuristic:
//!
//! 1. **[`budget`] (Procedure 1)** — walk paths in decreasing fanout-sum
//!    criticality and give every gate a maximum-delay budget proportional
//!    to its fanout, stretching *all* paths (critical and non-critical) to
//!    the available cycle time;
//! 2. **[`search`] (Procedure 2)** — nested `M`-step binary searches over
//!    `V_dd`, `V_ts`, and per-gate widths, relying on the monotonicity of
//!    delay and energy in each variable, `O(M³)` circuit evaluations
//!    total.
//!
//! Also provided, because the paper's evaluation needs them:
//!
//! * [`baseline`] — the Table 1 comparison point: widths + `V_dd`
//!   optimized at a fixed 700 mV threshold;
//! * [`anneal`] — the multiple-pass simulated-annealing optimizer the
//!   heuristic is shown to beat (§5);
//! * [`variation`] — worst-case threshold margining for the
//!   process-fluctuation study of Fig. 2(a);
//! * multi-threshold (`n_v > 1`) operation via
//!   [`SearchOptions::vt_groups`].
//!
//! # Example
//!
//! ```
//! use minpower_core::{Optimizer, Problem};
//! use minpower_device::Technology;
//! use minpower_models::CircuitModel;
//! use minpower_netlist::{GateKind, NetlistBuilder};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = NetlistBuilder::new("demo");
//! b.input("a")?;
//! b.input("b")?;
//! b.gate("x", GateKind::Nand, &["a", "b"])?;
//! b.gate("y", GateKind::Nor, &["x", "b"])?;
//! b.output("y")?;
//! let netlist = b.finish()?;
//!
//! let model = CircuitModel::with_uniform_activity(&netlist, Technology::dac97(), 0.5, 0.3);
//! let problem = Problem::new(model, 300.0e6);
//! let result = Optimizer::new(&problem).run()?;
//! assert!(result.feasible);
//! assert!(result.critical_delay <= problem.cycle_time());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anneal;
pub mod baseline;
pub mod budget;
pub mod checkpoint;
pub mod context;
mod error;
mod incremental;
pub mod jobstore;
pub mod json;
mod problem;
pub mod report;
mod result;
pub mod runctl;
pub mod search;
pub mod session;
pub mod store;
pub mod tilos;
pub mod variation;
pub mod yield_mc;

pub use checkpoint::{AnnealCheckpoint, CheckpointSpec, ProbeJournal};
pub use context::EvalContext;
pub use error::OptimizeError;
pub use jobstore::{Claim, FsJobStore, JobStore, Lease};
pub use problem::Problem;
pub use result::OptimizationResult;
pub use runctl::{Progress, RunControl, TripReason};
pub use search::{Optimizer, SearchOptions, SizingMethod};
pub use store::StoreHealth;
