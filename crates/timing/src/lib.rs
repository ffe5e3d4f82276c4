//! Static timing analysis and path criticality for random logic networks.
//!
//! Procedure 1 of the paper assigns per-gate delay budgets by walking
//! circuit paths in decreasing *criticality*, where the criticality of a
//! path is the **sum of the fanouts of its gates** (`N_cj = Σ f_oij`,
//! §4.2) — not its gate count. This crate provides the timing machinery
//! that procedure (and the experiments) need:
//!
//! * [`Sta`] — dense arrival/required/slack analysis for a delay
//!   assignment under a cycle-time constraint;
//! * [`virtual_sinks`] and [`sink_critical`] — the timing endpoints of
//!   the width-sizing loops (primary outputs plus dangling gates) and the
//!   latest of their arrivals, with a fixed tie-break;
//! * [`Criticality`] — the prefix/suffix dynamic program over fanout
//!   weights: maximum path criticality through every gate, and extraction
//!   of the maximizing path;
//! * [`KMostCriticalPaths`] — lazy enumeration of input→output paths in
//!   exactly decreasing criticality order, a fanout-weighted variant of
//!   the Ju–Saleh K-most-critical-paths algorithm (ref \[6\]).
//!
//! # Example
//!
//! ```
//! use minpower_netlist::{GateKind, NetlistBuilder};
//! use minpower_timing::Criticality;
//!
//! # fn main() -> Result<(), minpower_netlist::NetlistError> {
//! let mut b = NetlistBuilder::new("t");
//! b.input("a")?;
//! b.gate("x", GateKind::Not, &["a"])?;
//! b.gate("y", GateKind::Not, &["x"])?;
//! b.output("y")?;
//! let n = b.finish()?;
//! let crit = Criticality::compute(&n);
//! let path = crit.most_critical_path();
//! assert_eq!(path.len(), 3); // a → x → y
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod criticality;
mod delay_paths;
mod event_sim;
mod kpaths;
mod sta;

pub use criticality::Criticality;
pub use delay_paths::{DelayPath, KWorstDelayPaths};
pub use event_sim::{EventSimResult, EventSimulator};
pub use kpaths::{KMostCriticalPaths, Path};
pub use sta::{sink_critical, virtual_sinks, Sta};
