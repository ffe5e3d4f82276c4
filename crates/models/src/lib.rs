//! Energy and delay models for CMOS random logic (paper Appendix A).
//!
//! This crate turns a [`Netlist`](minpower_netlist::Netlist) plus a
//! [`Technology`](minpower_device::Technology), a wiring model,
//! and an activity profile into a fast, repeatedly evaluable
//! [`CircuitModel`]: given a [`Design`] (one supply voltage, per-gate
//! threshold voltages, per-gate widths) it computes
//!
//! * **static energy per cycle** of each gate — Eq. (A1):
//!   `E_s = V_dd · w_i · I_off / f_c`;
//! * **dynamic energy per cycle** — Eq. (A2):
//!   `E_d = ½ · a_i · V_dd² · [w_i·C_PD + (f_ii−1)·C_m·w_i + Σ_j (w_ij·C_t + C_INT_ij)]`;
//! * **worst-case transregional gate delay** — Eq. (A3): an input-slope
//!   term proportional to the slowest driving gate's delay, the switching
//!   term with series-stack derating and leakage loss, the
//!   intermediate-node term of multi-fanin stacks, and interconnect
//!   RC + time-of-flight;
//! * whole-circuit aggregates: per-gate delays (topological), critical
//!   path delay, and the total [`EnergyBreakdown`].
//!
//! The optimizer in `minpower-core` calls these evaluations `O(M³)` times,
//! so construction precomputes all structure-dependent quantities
//! (activities, stack depths, interconnect loads) once, in flat per-gate
//! arrays over the netlist's shared levelized CSR, and evaluation is a
//! single `O(E)` pass that computes each distinct `(V_dd, V_t)` device
//! term once. One scalar per-gate delay formula
//! ([`CircuitModel::gate_delay`]) calls the device functions directly; it
//! is the oracle the dense passes and the batched sizing sweep
//! ([`CircuitModel::size_sweep`], see [`soa`]) reproduce bit for bit.
//!
//! # Example
//!
//! ```
//! use minpower_device::Technology;
//! use minpower_models::{CircuitModel, Design};
//! use minpower_netlist::{GateKind, NetlistBuilder};
//!
//! # fn main() -> Result<(), minpower_netlist::NetlistError> {
//! let mut b = NetlistBuilder::new("chain");
//! b.input("a")?;
//! b.gate("x", GateKind::Nand, &["a", "a"])?;
//! b.gate("y", GateKind::Nor, &["x", "a"])?;
//! b.output("y")?;
//! let n = b.finish()?;
//!
//! let model = CircuitModel::with_uniform_activity(&n, Technology::dac97(), 0.5, 0.5);
//! let design = Design::uniform(&n, 3.3, 0.7, 4.0);
//! let eval = model.evaluate(&design, 300.0e6);
//! assert!(eval.critical_delay > 0.0);
//! assert!(eval.energy.dynamic > eval.energy.static_);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod circuit;
mod design;
mod energy;
mod short_circuit;
pub mod soa;

pub use circuit::{CircuitEval, CircuitModel, EnergyLedger, GateEval};
pub use design::Design;
pub use energy::EnergyBreakdown;
pub use soa::{SizeScratch, SoaKernel};
