//! Interactive what-if sessions: warm incremental state plus a typed,
//! durable edit log.
//!
//! A cold optimization job answers one question per netlist load; a
//! *session* keeps the expensive artifacts — the [`CircuitModel`] and the
//! warm evaluator the sizing loops also run on (self-consistent delays
//! and arrivals, and an energy ledger) — alive between
//! questions, so "what if this gate were 2× wider" or "what if `f_c`
//! moved to 400 MHz" costs one dirty-cone repair instead of a full dense
//! evaluation. Every incremental path is bitwise-identical to the dense
//! recomputation it replaces, and debug builds assert that after every
//! edit.
//!
//! The pieces:
//!
//! - [`SessionOp`] — the typed edit vocabulary (resize, retime via
//!   `set_vt`, operating-point nudges, structural add/remove/rewire/
//!   retype, dirty-cone re-optimization), with a JSON codec whose persisted
//!   form uses the hex-bits float encoding of `crate::json` so replay is
//!   bit-exact.
//! - [`SessionState`] — the warm state and the per-op incremental
//!   strategies: width/vt edits run the evaluator's one journaled
//!   delay + arrival repair pass and a ledger refresh; operating-point edits
//!   rebuild only the invalidated artifacts (the ledger for `f_c` and
//!   for activity, everything for `V_dd`); structural
//!   edits rebuild densely (the wire model is a function of gate count,
//!   so the whole delay surface legitimately moves).
//! - The **op-log**: `append_op` appends one CRC-framed record per
//!   applied op through [`crate::store::append_durable`], and
//!   `read_oplog` replays the longest valid prefix (a torn tail — a
//!   crash or the `io.write.torn` fault — ends the prefix instead of
//!   poisoning the session, and its offset is reported so the caller
//!   can cut it). Replaying the log over the creation parameters
//!   reproduces the live state bit-for-bit, which is what makes
//!   kill-and-restart recovery and the dense cross-check meaningful.
//! - The **checkpoint**: [`SessionState::checkpoint`] encodes the whole
//!   state in a binary format (v2, layout at [`CHECKPOINT_MAGIC`]) whose
//!   structure section is encoded once per structural revision and
//!   whose numeric state is raw `f64` bits;
//!   [`SessionState::from_checkpoint`] rebuilds it bit-identically. The
//!   JSON [`SessionState::snapshot`] document is the full-state read
//!   format; nothing reads it back.
//!
//! Checkpointing policy (how often to fold the log into a snapshot)
//! and eviction live in the service layer; this module owns only the
//! state machine and its durability primitives.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap};
use std::fmt;
use std::fs;
use std::path::Path;
use std::sync::OnceLock;

use minpower_device::Technology;
use minpower_models::{CircuitModel, Design, EnergyBreakdown};
use minpower_netlist::{GateId, GateKind, Netlist, NetlistBuilder};

use crate::checkpoint::{put_str, put_varint, Cursor};
use crate::incremental::IncrementalEval;
use crate::json::{self, Value};
use crate::store::{self, FramedJournal};

/// Input switching probability used for every session model, matching
/// the cold job path (`JobSpec::build`) so a session and the equivalent
/// job see the same activities.
const ACTIVITY_PROBABILITY: f64 = 0.5;

/// Default bisection depth for [`SessionOp::Reoptimize`].
pub const DEFAULT_REOPT_STEPS: u32 = 12;

/// Most bisection steps a single re-optimize op may request.
pub const MAX_REOPT_STEPS: u32 = 64;

/// A session-layer failure: invalid op, unknown gate, out-of-range
/// value, or a malformed persisted document. Always a client/caller
/// error — internal invariant violations panic instead.
#[derive(Debug, Clone)]
pub struct SessionError {
    /// Human-readable description.
    pub message: String,
}

impl SessionError {
    fn new(message: impl Into<String>) -> Self {
        SessionError {
            message: message.into(),
        }
    }
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for SessionError {}

impl From<json::JsonError> for SessionError {
    fn from(e: json::JsonError) -> Self {
        SessionError::new(e.to_string())
    }
}

/// Operating point and uniform starting design for a new session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionParams {
    /// Clock frequency target, Hz.
    pub fc: f64,
    /// Uniform input activity density.
    pub activity: f64,
    /// Usable clock fraction (skew margin), `(0, 1]`.
    pub skew: f64,
    /// Supply voltage, volts.
    pub vdd: f64,
    /// Uniform starting threshold voltage, volts.
    pub vt: f64,
    /// Uniform starting gate width (also the default for added gates).
    pub width: f64,
}

impl Default for SessionParams {
    fn default() -> Self {
        SessionParams {
            fc: 300.0e6,
            activity: 0.3,
            skew: 1.0,
            vdd: 2.5,
            vt: 0.45,
            width: 2.0,
        }
    }
}

impl SessionParams {
    /// Validates every field against physical and technology ranges.
    ///
    /// # Errors
    ///
    /// [`SessionError`] naming the first offending field.
    pub fn validate(&self, tech: &Technology) -> Result<(), SessionError> {
        if !self.fc.is_finite() || self.fc <= 0.0 {
            return Err(SessionError::new("`fc` must be finite and positive"));
        }
        if !(0.0..=1.0).contains(&self.activity) {
            return Err(SessionError::new("`activity` must be within [0, 1]"));
        }
        if !(self.skew > 0.0 && self.skew <= 1.0) {
            return Err(SessionError::new("`skew` must be within (0, 1]"));
        }
        check_range("vdd", self.vdd, tech.vdd_range)?;
        check_range("vt", self.vt, tech.vt_range)?;
        check_range("width", self.width, tech.w_range)?;
        Ok(())
    }
}

fn check_range(what: &str, x: f64, (lo, hi): (f64, f64)) -> Result<(), SessionError> {
    if !x.is_finite() || x < lo || x > hi {
        return Err(SessionError::new(format!(
            "`{what}` must be within [{lo}, {hi}]"
        )));
    }
    Ok(())
}

/// One typed session edit. The JSON wire form is
/// `{"op": "<kind>", ...}`; numeric fields accept either plain numbers
/// (the client form) or `0x...` bit-exact hex floats (the persisted
/// op-log form, which [`SessionOp::to_json`] always emits so replay
/// cannot drift through a decimal round-trip).
#[derive(Debug, Clone, PartialEq)]
pub enum SessionOp {
    /// Set `gate`'s width (resize).
    Resize {
        /// Target gate name.
        gate: String,
        /// New width, within the technology's `w_range`.
        width: f64,
    },
    /// Set `gate`'s threshold voltage (retime its drive/leakage trade).
    SetVt {
        /// Target gate name.
        gate: String,
        /// New threshold voltage, within `vt_range`.
        vt: f64,
    },
    /// Move the supply voltage (global operating-point edit).
    SetVdd {
        /// New supply voltage, within `vdd_range`.
        vdd: f64,
    },
    /// Move the clock frequency target.
    SetFc {
        /// New target, Hz.
        fc: f64,
    },
    /// Change the uniform input activity density.
    SetActivity {
        /// New density, `[0, 1]`.
        activity: f64,
    },
    /// Add a logic gate driven by existing nets.
    AddGate {
        /// Fresh net name.
        name: String,
        /// Logic function (any non-`INPUT` kind).
        kind: GateKind,
        /// Names of the driving nets.
        fanin: Vec<String>,
    },
    /// Remove a gate that drives nothing (not an input, output, or
    /// another gate's fanin).
    RemoveGate {
        /// Target gate name.
        gate: String,
    },
    /// Replace `gate`'s fanin list. The netlist re-levelizes (a stable
    /// topological re-sort), so rewiring to a gate that currently sits
    /// later in index order is legal as long as no cycle forms.
    RewireFanin {
        /// Target gate name (a logic gate).
        gate: String,
        /// Names of the new driving nets, in order.
        fanin: Vec<String>,
    },
    /// Swap `gate`'s logic function in place (any non-`INPUT` kind whose
    /// arity admits the gate's current fanin count).
    SwapGateKind {
        /// Target gate name (a logic gate).
        gate: String,
        /// The new logic function.
        kind: GateKind,
    },
    /// Re-optimize the dirty cone: minimal feasible width per dirty
    /// gate, in deterministic (level, index) order.
    Reoptimize {
        /// Bisection depth per gate, `1..=`[`MAX_REOPT_STEPS`].
        steps: u32,
    },
}

impl SessionOp {
    /// Parses the JSON wire form. Unknown fields are rejected so client
    /// typos fail loudly instead of silently no-oping.
    ///
    /// # Errors
    ///
    /// [`SessionError`] describing the malformation.
    pub fn from_json(doc: &Value) -> Result<SessionOp, SessionError> {
        let obj = doc.as_obj("session op")?;
        let kind = obj.req("op")?.as_str("op")?;
        let known: &[&str] = match kind {
            "resize" => &["op", "gate", "width"],
            "set_vt" => &["op", "gate", "vt"],
            "set_vdd" => &["op", "vdd"],
            "set_fc" => &["op", "fc"],
            "set_activity" => &["op", "activity"],
            "add_gate" => &["op", "name", "kind", "fanin"],
            "remove_gate" => &["op", "gate"],
            "rewire_fanin" => &["op", "gate", "fanin"],
            "swap_gate_kind" => &["op", "gate", "kind"],
            "reoptimize" => &["op", "steps"],
            other => {
                return Err(SessionError::new(format!("unknown op kind {other:?}")));
            }
        };
        if let Value::Obj(fields) = doc {
            for (key, _) in fields {
                if !known.contains(&key.as_str()) {
                    return Err(SessionError::new(format!(
                        "unknown field {key:?} for op {kind:?}"
                    )));
                }
            }
        }
        let op = match kind {
            "resize" => SessionOp::Resize {
                gate: obj.req("gate")?.as_str("gate")?.to_string(),
                width: float_field(obj.req("width")?, "width")?,
            },
            "set_vt" => SessionOp::SetVt {
                gate: obj.req("gate")?.as_str("gate")?.to_string(),
                vt: float_field(obj.req("vt")?, "vt")?,
            },
            "set_vdd" => SessionOp::SetVdd {
                vdd: float_field(obj.req("vdd")?, "vdd")?,
            },
            "set_fc" => SessionOp::SetFc {
                fc: float_field(obj.req("fc")?, "fc")?,
            },
            "set_activity" => SessionOp::SetActivity {
                activity: float_field(obj.req("activity")?, "activity")?,
            },
            "add_gate" => {
                let name = obj.req("name")?.as_str("name")?.to_string();
                let kind = kind_from_keyword(obj.req("kind")?.as_str("kind")?)?;
                let fanin = obj
                    .req("fanin")?
                    .as_arr("fanin")?
                    .iter()
                    .map(|v| v.as_str("fanin entry").map(str::to_string))
                    .collect::<Result<Vec<_>, _>>()?;
                SessionOp::AddGate { name, kind, fanin }
            }
            "remove_gate" => SessionOp::RemoveGate {
                gate: obj.req("gate")?.as_str("gate")?.to_string(),
            },
            "rewire_fanin" => {
                let fanin = obj
                    .req("fanin")?
                    .as_arr("fanin")?
                    .iter()
                    .map(|v| v.as_str("fanin entry").map(str::to_string))
                    .collect::<Result<Vec<_>, _>>()?;
                SessionOp::RewireFanin {
                    gate: obj.req("gate")?.as_str("gate")?.to_string(),
                    fanin,
                }
            }
            "swap_gate_kind" => SessionOp::SwapGateKind {
                gate: obj.req("gate")?.as_str("gate")?.to_string(),
                kind: kind_from_keyword(obj.req("kind")?.as_str("kind")?)?,
            },
            "reoptimize" => {
                let steps = match obj.opt("steps") {
                    Some(v) => v.as_u64("steps")? as u32,
                    None => DEFAULT_REOPT_STEPS,
                };
                if steps == 0 || steps > MAX_REOPT_STEPS {
                    return Err(SessionError::new(format!(
                        "`steps` must be within [1, {MAX_REOPT_STEPS}]"
                    )));
                }
                SessionOp::Reoptimize { steps }
            }
            _ => unreachable!("kind validated above"),
        };
        Ok(op)
    }

    /// Canonical (persisted) JSON form: hex-float numerics, stable
    /// field order. `from_json(to_json(op)) == op` bit-for-bit.
    pub fn to_json(&self) -> Value {
        let f = json::bits_f64;
        match self {
            SessionOp::Resize { gate, width } => Value::Obj(vec![
                ("op".into(), Value::Str("resize".into())),
                ("gate".into(), Value::Str(gate.clone())),
                ("width".into(), f(*width)),
            ]),
            SessionOp::SetVt { gate, vt } => Value::Obj(vec![
                ("op".into(), Value::Str("set_vt".into())),
                ("gate".into(), Value::Str(gate.clone())),
                ("vt".into(), f(*vt)),
            ]),
            SessionOp::SetVdd { vdd } => Value::Obj(vec![
                ("op".into(), Value::Str("set_vdd".into())),
                ("vdd".into(), f(*vdd)),
            ]),
            SessionOp::SetFc { fc } => Value::Obj(vec![
                ("op".into(), Value::Str("set_fc".into())),
                ("fc".into(), f(*fc)),
            ]),
            SessionOp::SetActivity { activity } => Value::Obj(vec![
                ("op".into(), Value::Str("set_activity".into())),
                ("activity".into(), f(*activity)),
            ]),
            SessionOp::AddGate { name, kind, fanin } => Value::Obj(vec![
                ("op".into(), Value::Str("add_gate".into())),
                ("name".into(), Value::Str(name.clone())),
                ("kind".into(), Value::Str(kind.bench_keyword().into())),
                (
                    "fanin".into(),
                    Value::Arr(fanin.iter().map(|n| Value::Str(n.clone())).collect()),
                ),
            ]),
            SessionOp::RemoveGate { gate } => Value::Obj(vec![
                ("op".into(), Value::Str("remove_gate".into())),
                ("gate".into(), Value::Str(gate.clone())),
            ]),
            SessionOp::RewireFanin { gate, fanin } => Value::Obj(vec![
                ("op".into(), Value::Str("rewire_fanin".into())),
                ("gate".into(), Value::Str(gate.clone())),
                (
                    "fanin".into(),
                    Value::Arr(fanin.iter().map(|n| Value::Str(n.clone())).collect()),
                ),
            ]),
            SessionOp::SwapGateKind { gate, kind } => Value::Obj(vec![
                ("op".into(), Value::Str("swap_gate_kind".into())),
                ("gate".into(), Value::Str(gate.clone())),
                ("kind".into(), Value::Str(kind.bench_keyword().into())),
            ]),
            SessionOp::Reoptimize { steps } => Value::Obj(vec![
                ("op".into(), Value::Str("reoptimize".into())),
                ("steps".into(), Value::Int(u64::from(*steps))),
            ]),
        }
    }
}

/// Accepts both the client form (plain number) and the persisted form
/// (hex-bits string) for a float field.
fn float_field(v: &Value, what: &str) -> Result<f64, SessionError> {
    match v {
        Value::Str(_) => Ok(v.as_bits_f64(what)?),
        _ => Ok(v.as_number(what)?),
    }
}

/// Parses a `.bench`-style gate keyword (case-insensitive). `INPUT` is
/// rejected: structural edits only add logic.
fn kind_from_keyword(s: &str) -> Result<GateKind, SessionError> {
    let kind = match s.to_ascii_uppercase().as_str() {
        "AND" => GateKind::And,
        "OR" => GateKind::Or,
        "NAND" => GateKind::Nand,
        "NOR" => GateKind::Nor,
        "NOT" | "INV" => GateKind::Not,
        "BUF" | "BUFF" => GateKind::Buf,
        "XOR" => GateKind::Xor,
        "XNOR" => GateKind::Xnor,
        other => {
            return Err(SessionError::new(format!("unknown gate kind {other:?}")));
        }
    };
    Ok(kind)
}

/// What one applied op did to the session, for the HTTP response.
#[derive(Debug, Clone, Copy)]
pub struct OpOutcome {
    /// Session revision after the op (ops applied since creation).
    pub revision: u64,
    /// Gates whose delay entry moved during the incremental repair
    /// (dense rebuilds report the full gate count).
    pub gates_touched: usize,
    /// Gates whose width a [`SessionOp::Reoptimize`] changed.
    pub resized: usize,
    /// Whether the circuit currently meets the cycle-time constraint.
    pub feasible: bool,
    /// Critical path delay, seconds.
    pub critical_delay: f64,
    /// Effective cycle time (`skew / fc`), seconds.
    pub cycle_time: f64,
    /// Exact (index-order) energy total per cycle.
    pub energy: EnergyBreakdown,
    /// Gates currently marked dirty for the next re-optimize.
    pub dirty: usize,
}

/// Warm per-session state: the model, the warm evaluator (design,
/// self-consistent delays and arrivals, energy ledger), and the
/// dirty set feeding the re-optimization planner. All mutation goes
/// through [`SessionState::apply`]; replaying the same ops over the same
/// [`SessionParams`] reproduces the state bit-for-bit.
pub struct SessionState {
    tech: Technology,
    model: CircuitModel,
    eval: IncrementalEval,
    activity: f64,
    skew: f64,
    default_vt: f64,
    default_width: f64,
    dirty: BTreeSet<String>,
    revision: u64,
    /// The checkpoint's structure section, encoded on first use and
    /// reset only by [`SessionState::rebuild_structural`]: every other
    /// op leaves the netlist as it is.
    structure: OnceLock<Vec<u8>>,
}

impl SessionState {
    /// Builds the warm state: dense delays, arrivals, energy
    /// ledger, all inside the warm evaluator.
    ///
    /// # Errors
    ///
    /// [`SessionError`] when `params` is out of range.
    pub fn new(netlist: Netlist, params: &SessionParams) -> Result<SessionState, SessionError> {
        let design = Design::uniform(&netlist, params.vdd, params.vt, params.width);
        SessionState::with_design(netlist, params, design)
    }

    /// [`SessionState::new`] starting from `design` instead of the
    /// uniform one: one dense delay, STA and ledger evaluation.
    fn with_design(
        netlist: Netlist,
        params: &SessionParams,
        design: Design,
    ) -> Result<SessionState, SessionError> {
        let tech = Technology::dac97();
        params.validate(&tech)?;
        let model = CircuitModel::with_uniform_activity(
            &netlist,
            tech.clone(),
            ACTIVITY_PROBABILITY,
            params.activity,
        );
        // Energy at the design's own thresholds; session ops count
        // nothing in the engine telemetry.
        let delays = model.delays(&design);
        let tc = params.skew / params.fc;
        let eval = IncrementalEval::new(&model, design, delays, None, params.fc, tc, None);
        Ok(SessionState {
            tech,
            model,
            eval,
            activity: params.activity,
            skew: params.skew,
            default_vt: params.vt,
            default_width: params.width,
            dirty: BTreeSet::new(),
            revision: 0,
            structure: OnceLock::new(),
        })
    }

    /// Rebuilds a state from the creation parameters by replaying an
    /// op-log prefix. Deterministic ops over deterministic params mean
    /// the result is bit-identical to the live state that wrote the log.
    ///
    /// # Errors
    ///
    /// [`SessionError`] if construction or any op fails (a log written
    /// by `apply` never fails to replay; a hand-edited one can).
    pub fn replay(
        netlist: Netlist,
        params: &SessionParams,
        ops: &[SessionOp],
    ) -> Result<SessionState, SessionError> {
        let mut state = SessionState::new(netlist, params)?;
        for op in ops {
            state.apply(op)?;
        }
        Ok(state)
    }

    /// Applies one op, incrementally where the op's footprint allows.
    /// On error the state is unchanged (ops validate before mutating).
    ///
    /// # Errors
    ///
    /// [`SessionError`] naming the offending field or gate.
    pub fn apply(&mut self, op: &SessionOp) -> Result<OpOutcome, SessionError> {
        let (gates_touched, resized) = match op {
            SessionOp::Resize { gate, width } => {
                let id = self.logic_gate(gate, "resize")?;
                check_range("width", *width, self.tech.w_range)?;
                let touched = self.eval.set_width(&self.model, id.index(), *width);
                self.dirty.insert(gate.clone());
                (touched, 0)
            }
            SessionOp::SetVt { gate, vt } => {
                let id = self.logic_gate(gate, "set_vt")?;
                check_range("vt", *vt, self.tech.vt_range)?;
                let touched = self.eval.set_vt(&self.model, id, *vt);
                self.dirty.insert(gate.clone());
                (touched, 0)
            }
            SessionOp::SetVdd { vdd } => {
                check_range("vdd", *vdd, self.tech.vdd_range)?;
                self.eval.rebuild(&self.model, |d| d.vdd = *vdd);
                self.mark_all_dirty();
                (self.model.netlist().gate_count(), 0)
            }
            SessionOp::SetFc { fc } => {
                if !fc.is_finite() || *fc <= 0.0 {
                    return Err(SessionError::new("`fc` must be finite and positive"));
                }
                // Delays are untouched; only the constraint and the
                // static-energy terms (∝ 1/fc) move.
                self.eval.set_fc(&self.model, *fc, self.skew / *fc);
                self.mark_all_dirty();
                (0, 0)
            }
            SessionOp::SetActivity { activity } => {
                if !(0.0..=1.0).contains(activity) {
                    return Err(SessionError::new("`activity` must be within [0, 1]"));
                }
                self.activity = *activity;
                // Activity enters only the dynamic-energy terms, never
                // gate_delay, so the delay vector and STA stay valid.
                let netlist = self.model.netlist().clone();
                self.model = CircuitModel::with_uniform_activity(
                    &netlist,
                    self.tech.clone(),
                    ACTIVITY_PROBABILITY,
                    *activity,
                );
                self.eval.reprice(&self.model);
                self.mark_all_dirty();
                (0, 0)
            }
            SessionOp::AddGate { name, kind, fanin } => {
                let touched = self.add_gate(name, *kind, fanin)?;
                (touched, 0)
            }
            SessionOp::RemoveGate { gate } => {
                let touched = self.remove_gate(gate)?;
                (touched, 0)
            }
            SessionOp::RewireFanin { gate, fanin } => {
                let touched = self.rewire_fanin(gate, fanin)?;
                (touched, 0)
            }
            SessionOp::SwapGateKind { gate, kind } => {
                let touched = self.swap_gate_kind(gate, *kind)?;
                (touched, 0)
            }
            SessionOp::Reoptimize { steps } => {
                if *steps == 0 || *steps > MAX_REOPT_STEPS {
                    return Err(SessionError::new(format!(
                        "`steps` must be within [1, {MAX_REOPT_STEPS}]"
                    )));
                }
                self.reoptimize(*steps)
            }
        };
        self.revision += 1;
        Ok(OpOutcome {
            revision: self.revision,
            gates_touched,
            resized,
            feasible: self.eval.meets_constraint(),
            critical_delay: self.eval.critical_delay(),
            cycle_time: self.cycle_time(),
            energy: self.eval.energy(),
            dirty: self.dirty.len(),
        })
    }

    /// Resolves a gate name to a non-input gate id.
    fn logic_gate(&self, name: &str, op: &str) -> Result<GateId, SessionError> {
        let id = self
            .model
            .netlist()
            .find(name)
            .ok_or_else(|| SessionError::new(format!("unknown gate {name:?}")))?;
        if self.model.netlist().gate(id).kind().is_input() {
            return Err(SessionError::new(format!(
                "cannot {op} primary input {name:?}"
            )));
        }
        Ok(id)
    }

    /// Trial width probe on the warm evaluator: applies, checks
    /// feasibility, reverts bit-exactly.
    fn probe_feasible(&mut self, id: GateId, w: f64) -> bool {
        self.eval.try_width(&self.model, id.index(), w);
        let feasible = self.eval.meets_constraint();
        self.eval.revert(&self.model);
        feasible
    }

    /// Dirty-cone planner: for each dirty gate in (level, index) order,
    /// bisect for the minimal feasible width in the technology range
    /// (energy grows with width, so minimal feasible ≈ minimal energy,
    /// the paper's objective). Best-effort: a gate that cannot reach
    /// feasibility at any width keeps its current one.
    fn reoptimize(&mut self, steps: u32) -> (usize, usize) {
        let mut cone: Vec<GateId> = self
            .dirty
            .iter()
            .filter_map(|name| self.model.netlist().find(name))
            .filter(|&id| !self.model.netlist().gate(id).kind().is_input())
            .collect();
        let netlist = self.model.netlist();
        cone.sort_by_key(|&id| (netlist.level(id), id.index()));
        let (w_min, w_max) = self.tech.w_range;
        let mut touched = 0usize;
        let mut resized = 0usize;
        for id in cone {
            let current = self.eval.design().width[id.index()];
            let chosen = if self.probe_feasible(id, w_min) {
                w_min
            } else if !self.probe_feasible(id, w_max) {
                current
            } else {
                let (mut lo, mut hi) = (w_min, w_max);
                for _ in 0..steps {
                    let mid = 0.5 * (lo + hi);
                    if self.probe_feasible(id, mid) {
                        hi = mid;
                    } else {
                        lo = mid;
                    }
                }
                hi
            };
            if chosen.to_bits() != current.to_bits() {
                touched += self.eval.set_width(&self.model, id.index(), chosen);
                resized += 1;
            }
        }
        self.dirty.clear();
        (touched, resized)
    }

    /// Structural add: the new gate's descriptor is appended and the
    /// netlist rebuilt through [`SessionState::rebuild_structural`]. The
    /// current index order is topological, so the stable re-sort keeps
    /// every existing gate in place and the new one last.
    fn add_gate(
        &mut self,
        name: &str,
        kind: GateKind,
        fanin: &[String],
    ) -> Result<usize, SessionError> {
        if name.is_empty() {
            return Err(SessionError::new("`name` must be non-empty"));
        }
        if kind.is_input() {
            return Err(SessionError::new("cannot add a primary input"));
        }
        if self.model.netlist().find(name).is_some() {
            return Err(SessionError::new(format!("gate {name:?} already exists")));
        }
        let mut gates = gate_descs(self.model.netlist());
        gates.push((name.to_string(), kind, fanin.to_vec()));
        self.rebuild_structural(gates)?;
        self.dirty.insert(name.to_string());
        self.mark_logic_dirty(fanin);
        Ok(self.model.netlist().gate_count())
    }

    /// Structural remove: only a leaf gate (no fanout, not an output,
    /// not an input) can go; its descriptor is dropped and the netlist
    /// rebuilt through [`SessionState::rebuild_structural`].
    fn remove_gate(&mut self, name: &str) -> Result<usize, SessionError> {
        let (gates, fanin_names) = {
            let old = self.model.netlist();
            let id = old
                .find(name)
                .ok_or_else(|| SessionError::new(format!("unknown gate {name:?}")))?;
            if old.gate(id).kind().is_input() {
                return Err(SessionError::new(format!(
                    "cannot remove primary input {name:?}"
                )));
            }
            if old.is_output(id) {
                return Err(SessionError::new(format!(
                    "cannot remove primary output {name:?}"
                )));
            }
            let fanout = old.fanout(id).len();
            if fanout > 0 {
                return Err(SessionError::new(format!(
                    "gate {name:?} drives {fanout} gate(s); remove those first"
                )));
            }
            let mut gates = gate_descs(old);
            let (_, _, fanin_names) = gates.remove(id.index());
            (gates, fanin_names)
        };
        self.rebuild_structural(gates)?;
        self.dirty.remove(name);
        self.mark_logic_dirty(&fanin_names);
        Ok(self.model.netlist().gate_count())
    }

    /// Structural rewire: replace a logic gate's fanin list. The graph
    /// re-levelizes through [`SessionState::rebuild_structural`], so the
    /// new drivers may sit anywhere in the current index order as long
    /// as the result stays acyclic. The gate and its old and new drivers
    /// are marked dirty for the next re-optimize.
    fn rewire_fanin(&mut self, name: &str, fanin: &[String]) -> Result<usize, SessionError> {
        if fanin.is_empty() {
            return Err(SessionError::new("`fanin` must be non-empty"));
        }
        let (gates, old_fanin) = {
            let old = self.model.netlist();
            let id = old
                .find(name)
                .ok_or_else(|| SessionError::new(format!("unknown gate {name:?}")))?;
            if old.gate(id).kind().is_input() {
                return Err(SessionError::new(format!(
                    "cannot rewire primary input {name:?}"
                )));
            }
            let old_fanin: Vec<String> = old
                .gate(id)
                .fanin()
                .iter()
                .map(|&f| old.gate(f).name().to_string())
                .collect();
            let mut gates = gate_descs(old);
            gates[id.index()].2 = fanin.to_vec();
            (gates, old_fanin)
        };
        // The arity of the (unchanged) kind must admit the new count;
        // the builder validates that during the rebuild.
        self.rebuild_structural(gates)?;
        self.dirty.insert(name.to_string());
        self.mark_logic_dirty(&old_fanin);
        self.mark_logic_dirty(fanin);
        Ok(self.model.netlist().gate_count())
    }

    /// Structural retype: swap a logic gate's function in place. Gate
    /// order and the design vectors are untouched (no edges move); the
    /// model rebuilds because a kind change propagates through the
    /// downstream switching activities. The gate, its drivers, and its
    /// direct fanout are marked dirty.
    fn swap_gate_kind(&mut self, name: &str, kind: GateKind) -> Result<usize, SessionError> {
        if kind.is_input() {
            return Err(SessionError::new("cannot swap a gate to INPUT"));
        }
        let (gates, neighbors) = {
            let old = self.model.netlist();
            let id = old
                .find(name)
                .ok_or_else(|| SessionError::new(format!("unknown gate {name:?}")))?;
            if old.gate(id).kind().is_input() {
                return Err(SessionError::new(format!(
                    "cannot swap primary input {name:?}"
                )));
            }
            let neighbors: Vec<String> = old
                .gate(id)
                .fanin()
                .iter()
                .chain(old.fanout(id).iter())
                .map(|&g| old.gate(g).name().to_string())
                .collect();
            let mut gates = gate_descs(old);
            gates[id.index()].1 = kind;
            (gates, neighbors)
        };
        self.rebuild_structural(gates)?;
        self.dirty.insert(name.to_string());
        self.mark_logic_dirty(&neighbors);
        Ok(self.model.netlist().gate_count())
    }

    /// Rebuilds the netlist from edited gate descriptors: a stable
    /// topological re-sort (Kahn's algorithm draining ready gates in
    /// original index order, so an edit that inverts no edges preserves
    /// the current order exactly), the design vectors permuted by gate
    /// name (a gate new to the netlist takes the session defaults), then
    /// a full model + dense rebuild. Fails — leaving the state untouched
    /// — on an unknown fanin name, a combinational cycle, or an arity
    /// the builder rejects.
    fn rebuild_structural(&mut self, gates: Vec<GateDesc>) -> Result<(), SessionError> {
        let (netlist_name, outputs, ffs, old_vals) = {
            let old = self.model.netlist();
            let outputs: Vec<String> = old
                .outputs()
                .iter()
                .map(|&o| old.gate(o).name().to_string())
                .collect();
            let design = self.eval.design();
            let old_vals: HashMap<String, (f64, f64)> = old
                .gates()
                .iter()
                .enumerate()
                .map(|(i, g)| (g.name().to_string(), (design.vt[i], design.width[i])))
                .collect();
            (
                old.name().to_string(),
                outputs,
                old.flip_flop_count(),
                old_vals,
            )
        };
        let pos: HashMap<&str, usize> = gates
            .iter()
            .enumerate()
            .map(|(i, g)| (g.0.as_str(), i))
            .collect();
        let mut indeg = vec![0usize; gates.len()];
        let mut out_edges: Vec<Vec<usize>> = vec![Vec::new(); gates.len()];
        for (i, (_, _, fanin)) in gates.iter().enumerate() {
            for f in fanin {
                let &j = pos
                    .get(f.as_str())
                    .ok_or_else(|| SessionError::new(format!("unknown fanin {f:?}")))?;
                out_edges[j].push(i);
                indeg[i] += 1;
            }
        }
        let mut ready: BinaryHeap<Reverse<usize>> = indeg
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d == 0)
            .map(|(i, _)| Reverse(i))
            .collect();
        let mut order: Vec<usize> = Vec::with_capacity(gates.len());
        while let Some(Reverse(i)) = ready.pop() {
            order.push(i);
            for &k in &out_edges[i] {
                indeg[k] -= 1;
                if indeg[k] == 0 {
                    ready.push(Reverse(k));
                }
            }
        }
        if order.len() != gates.len() {
            return Err(SessionError::new("edit creates a combinational cycle"));
        }
        let netlist = build_netlist(
            &netlist_name,
            order.iter().map(|&i| &gates[i]),
            &outputs,
            ffs,
        )?;
        let defaults = (self.default_vt, self.default_width);
        let (vt, width): (Vec<f64>, Vec<f64>) = netlist
            .gates()
            .iter()
            .map(|g| old_vals.get(g.name()).copied().unwrap_or(defaults))
            .unzip();
        self.model = CircuitModel::with_uniform_activity(
            &netlist,
            self.tech.clone(),
            ACTIVITY_PROBABILITY,
            self.activity,
        );
        self.eval.restructure(&self.model, |d| {
            d.vt = vt;
            d.width = width;
        });
        self.structure = OnceLock::new();
        Ok(())
    }

    /// Marks the named gates dirty, skipping primary inputs and names
    /// the netlist no longer has.
    fn mark_logic_dirty(&mut self, names: &[String]) {
        let n = self.model.netlist();
        for f in names {
            if n.find(f).is_some_and(|id| !n.gate(id).kind().is_input()) {
                self.dirty.insert(f.clone());
            }
        }
    }

    fn mark_all_dirty(&mut self) {
        for g in self.model.netlist().gates() {
            if !g.kind().is_input() {
                self.dirty.insert(g.name().to_string());
            }
        }
    }

    /// The warm evaluator's dense cross-check: delays, arrival times,
    /// and ledger total must be bitwise-identical to a from-scratch
    /// evaluation. Debug builds run it after every edit.
    ///
    /// # Panics
    ///
    /// Panics at the first bit that differs.
    pub fn cross_check(&self) {
        self.eval.cross_check(&self.model);
    }

    /// Effective cycle time, `skew / fc` (matches
    /// `Problem::effective_cycle_time`).
    pub fn cycle_time(&self) -> f64 {
        self.skew / self.fc()
    }

    /// Ops applied since creation.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// The bound netlist (post any structural edits).
    pub fn netlist(&self) -> &Netlist {
        self.model.netlist()
    }

    /// The current design point.
    pub fn design(&self) -> &Design {
        self.eval.design()
    }

    /// Current self-consistent per-gate delays.
    pub fn delays(&self) -> &[f64] {
        self.eval.delays()
    }

    /// Current per-gate arrival times.
    pub fn arrivals(&self) -> &[f64] {
        self.eval.arrivals()
    }

    /// Current critical path delay, seconds.
    pub fn critical_delay(&self) -> f64 {
        self.eval.critical_delay()
    }

    /// Whether the circuit meets the cycle-time constraint.
    pub fn feasible(&self) -> bool {
        self.eval.meets_constraint()
    }

    /// Exact (index-order) energy per cycle; bitwise-identical to
    /// `CircuitModel::total_energy` over the same design.
    pub fn energy(&self) -> EnergyBreakdown {
        self.eval.energy()
    }

    /// Clock frequency target, Hz.
    pub fn fc(&self) -> f64 {
        self.eval.fc()
    }

    /// Uniform input activity density.
    pub fn activity(&self) -> f64 {
        self.activity
    }

    /// Usable clock fraction.
    pub fn skew(&self) -> f64 {
        self.skew
    }

    /// Names currently marked dirty for the next re-optimize.
    pub fn dirty(&self) -> &BTreeSet<String> {
        &self.dirty
    }

    /// Coarse estimate of this warm state's in-memory footprint, bytes.
    /// Counts the per-gate vectors (delays, arrivals, design, model
    /// coefficients), the fanout adjacency, the name strings and the
    /// cached checkpoint structure — the terms that scale with circuit
    /// size. Used by the service's memory-pressure governor; accuracy to
    /// a small constant factor is all the shedding thresholds need.
    pub fn approx_bytes(&self) -> u64 {
        let n = self.model.netlist();
        let gates = n.gate_count() as u64;
        let edges: u64 = n.gates().iter().map(|g| g.fanin().len() as u64).sum();
        let names: u64 = n.gates().iter().map(|g| g.name().len() as u64 + 48).sum();
        let dirty: u64 = self.dirty.iter().map(|s| s.len() as u64 + 64).sum();
        let structure = self.structure.get().map_or(0, |s| s.len() as u64);
        gates * 176 + edges * 24 + names + dirty + structure
    }

    /// Full-state snapshot in the hex-bits float encoding, so two
    /// renders are equal exactly when the states are bit-identical. This
    /// is the service's `?detail=gates` read format; durable snapshots
    /// are [`SessionState::checkpoint`] instead.
    pub fn snapshot(&self) -> Value {
        let n = self.model.netlist();
        let gates: Vec<Value> = n
            .gates()
            .iter()
            .map(|g| {
                Value::Arr(vec![
                    Value::Str(g.name().to_string()),
                    Value::Str(g.kind().bench_keyword().to_string()),
                    Value::Arr(
                        g.fanin()
                            .iter()
                            .map(|&f| Value::Str(n.gate(f).name().to_string()))
                            .collect(),
                    ),
                ])
            })
            .collect();
        let outputs: Vec<Value> = n
            .outputs()
            .iter()
            .map(|&o| Value::Str(n.gate(o).name().to_string()))
            .collect();
        Value::Obj(vec![
            (
                "schema".into(),
                Value::Str("minpower-session-snapshot".into()),
            ),
            ("version".into(), Value::Int(1)),
            ("revision".into(), Value::Int(self.revision)),
            ("fc".into(), json::bits_f64(self.fc())),
            ("activity".into(), json::bits_f64(self.activity)),
            ("skew".into(), json::bits_f64(self.skew)),
            ("vdd".into(), json::bits_f64(self.design().vdd)),
            ("default_vt".into(), json::bits_f64(self.default_vt)),
            ("default_width".into(), json::bits_f64(self.default_width)),
            ("netlist_name".into(), Value::Str(n.name().to_string())),
            ("gates".into(), Value::Arr(gates)),
            ("outputs".into(), Value::Arr(outputs)),
            ("flip_flops".into(), Value::Int(n.flip_flop_count() as u64)),
            ("vt".into(), json::bits_f64_array(&self.design().vt)),
            ("width".into(), json::bits_f64_array(&self.design().width)),
            (
                "dirty".into(),
                Value::Arr(self.dirty.iter().map(|s| Value::Str(s.clone())).collect()),
            ),
        ])
    }

    /// The state a persisted document describes: built over `netlist`,
    /// with the design vectors installed and the delays, STA and ledger
    /// recomputed densely — bit-identical to the live values by the
    /// incremental contract. Every value must lie in its technology
    /// range and every dirty name must be a logic gate: the invariants
    /// `apply` keeps.
    fn restore(
        netlist: Netlist,
        params: &SessionParams,
        vt: Vec<f64>,
        width: Vec<f64>,
        revision: u64,
        dirty: BTreeSet<String>,
    ) -> Result<SessionState, SessionError> {
        if vt.len() != netlist.gate_count() || width.len() != netlist.gate_count() {
            return Err(SessionError::new(
                "snapshot design vectors disagree with the gate count",
            ));
        }
        let tech = Technology::dac97();
        for (&v, &w) in vt.iter().zip(&width) {
            check_range("vt", v, tech.vt_range)?;
            check_range("width", w, tech.w_range)?;
        }
        if let Some(name) = dirty.iter().find(|d| {
            netlist
                .find(d)
                .is_none_or(|id| netlist.gate(id).kind().is_input())
        }) {
            return Err(SessionError::new(format!(
                "dirty gate {name:?} is not a logic gate"
            )));
        }
        let design = Design {
            vdd: params.vdd,
            vt,
            width,
        };
        let mut state = SessionState::with_design(netlist, params, design)?;
        state.revision = revision;
        state.dirty = dirty;
        Ok(state)
    }

    /// Binary checkpoint (format v2) folding `ops_folded` op-log records:
    /// the fixed header, the structure section (encoded once per
    /// structural revision) and the numeric section — see
    /// [`CHECKPOINT_MAGIC`] for the layout.
    /// [`SessionState::from_checkpoint`] rebuilds a bit-identical state.
    pub fn checkpoint(&self, ops_folded: u64) -> Vec<u8> {
        let structure = self
            .structure
            .get_or_init(|| encode_structure(self.model.netlist()));
        let design = self.design();
        let n = design.vt.len();
        let mut out =
            Vec::with_capacity(CHECKPOINT_HEADER_LEN + structure.len() + 16 * n + n.div_ceil(8));
        out.extend_from_slice(&CHECKPOINT_MAGIC);
        out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        out.extend_from_slice(&ops_folded.to_le_bytes());
        out.extend_from_slice(&self.revision.to_le_bytes());
        let scalars = [
            self.fc(),
            self.activity,
            self.skew,
            design.vdd,
            self.default_vt,
            self.default_width,
        ];
        for x in scalars {
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        out.extend_from_slice(structure);
        for x in design.vt.iter().chain(&design.width) {
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        out.extend_from_slice(&self.dirty_bitmap());
        out
    }

    /// The dirty set as a bitmap over gate indices, bit `i % 8` of byte
    /// `i / 8` for gate `i`.
    fn dirty_bitmap(&self) -> Vec<u8> {
        let n = self.model.netlist();
        let mut bits = vec![0u8; n.gate_count().div_ceil(8)];
        let mut set = |i: usize| bits[i / 8] |= 1 << (i % 8);
        if self.dirty.len() == n.logic_gate_count() {
            // Only logic gates are ever dirty, so this is all of them:
            // skip the per-name lookups.
            for (i, g) in n.gates().iter().enumerate() {
                if !g.kind().is_input() {
                    set(i);
                }
            }
        } else {
            for name in &self.dirty {
                set(n
                    .find(name)
                    .expect("dirty gates are in the netlist")
                    .index());
            }
        }
        bits
    }

    /// Rebuilds a state from a [`SessionState::checkpoint`] payload,
    /// returning it with the `ops_folded` it records. The netlist goes
    /// through the same descriptor→builder helper as structural edits,
    /// in index order.
    ///
    /// # Errors
    ///
    /// [`SessionError`] on a truncated or inconsistent payload, or a
    /// different magic or version.
    pub fn from_checkpoint(bytes: &[u8]) -> Result<(SessionState, u64), SessionError> {
        let mut c = Cursor(bytes);
        if c.take() != Some(CHECKPOINT_MAGIC) {
            return Err(SessionError::new("not a session checkpoint"));
        }
        let version = need(c.u32())?;
        if version != CHECKPOINT_VERSION {
            return Err(SessionError::new(format!(
                "unsupported checkpoint version {version}"
            )));
        }
        let ops_folded = need(c.u64())?;
        let revision = need(c.u64())?;
        let mut scalar = || need(c.f64());
        let params = SessionParams {
            fc: scalar()?,
            activity: scalar()?,
            skew: scalar()?,
            vdd: scalar()?,
            vt: scalar()?,
            width: scalar()?,
        };
        let netlist_name = need(c.str())?.to_string();
        let count = need(c.count())?;
        let mut gates: Vec<GateDesc> = Vec::with_capacity(count);
        // A fanin or output index names a gate already read.
        let name_at = |c: &mut Cursor, gates: &[GateDesc]| {
            let i = usize::try_from(c.varint()?).ok()?;
            gates.get(i).map(|g| g.0.clone())
        };
        for _ in 0..count {
            let name = need(c.str())?.to_string();
            let [code] = need(c.take())?;
            let kind = *need(GATE_KINDS.get(usize::from(code)))?;
            let fanin = (0..need(c.count())?)
                .map(|_| need(name_at(&mut c, &gates)))
                .collect::<Result<Vec<_>, _>>()?;
            gates.push((name, kind, fanin));
        }
        let outputs = (0..need(c.count())?)
            .map(|_| need(name_at(&mut c, &gates)))
            .collect::<Result<Vec<_>, _>>()?;
        let flip_flops = need(c.varint().and_then(|v| usize::try_from(v).ok()))?;
        let vt = need((0..count).map(|_| c.f64()).collect())?;
        let width = need((0..count).map(|_| c.f64()).collect())?;
        let bitmap = need(c.bytes(count.div_ceil(8)))?;
        let bit = |i: usize| (bitmap[i / 8] >> (i % 8)) & 1 == 1;
        if !c.0.is_empty() || (count..bitmap.len() * 8).any(bit) {
            return Err(malformed());
        }
        let dirty = (0..count)
            .filter(|&i| bit(i))
            .map(|i| gates[i].0.clone())
            .collect();
        // Persisted in index order, which is topological.
        let netlist = build_netlist(&netlist_name, &gates, &outputs, flip_flops)?;
        let state = SessionState::restore(netlist, &params, vt, width, revision, dirty)?;
        Ok((state, ops_folded))
    }
}

// ---------------------------------------------------------------------------
// Binary checkpoint (format v2).
// ---------------------------------------------------------------------------

/// Magic opening a binary session checkpoint. The payload, all integers
/// little-endian:
///
/// - **header** — this magic, [`CHECKPOINT_VERSION`] (`u32`),
///   `ops_folded` and `revision` (`u64`), then `fc`, `activity`, `skew`,
///   `vdd`, `default_vt`, `default_width` as raw `f64` bits;
/// - **structure** — the netlist name, the gate count, each gate in
///   index order as (name, kind code, fanin count, fanin indices), the
///   output indices, and the flip-flop count. Counts and indices are
///   LEB128 varints; a string is its byte length then its UTF-8 bytes;
///   kind codes 0–8 are `INPUT`, `AND`, `OR`, `NAND`, `NOR`, `NOT`,
///   `BUF`, `XOR`, `XNOR`;
/// - **numeric** — `vt` then `width` as raw `f64` bits per gate, then
///   the dirty set as a bitmap over gate indices (bit `i % 8` of byte
///   `i / 8` for gate `i`).
///
/// The format carries no checksum of its own: the service writes it
/// through `store::write_durable`, whose CRC envelope rejects a torn or
/// bit-flipped file before the decoder sees it.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"minpsnap";

/// Binary checkpoint format version. Version 1 was the JSON
/// [`SessionState::snapshot`] document.
pub const CHECKPOINT_VERSION: u32 = 2;

/// Magic, version, `ops_folded`, revision and six `f64` scalars.
const CHECKPOINT_HEADER_LEN: usize = 8 + 4 + 8 + 8 + 6 * 8;

/// Gate kinds by checkpoint kind code.
const GATE_KINDS: [GateKind; 9] = [
    GateKind::Input,
    GateKind::And,
    GateKind::Or,
    GateKind::Nand,
    GateKind::Nor,
    GateKind::Not,
    GateKind::Buf,
    GateKind::Xor,
    GateKind::Xnor,
];

/// The checkpoint's structure section for `n`.
fn encode_structure(n: &Netlist) -> Vec<u8> {
    let mut out = Vec::new();
    put_str(&mut out, n.name());
    put_varint(&mut out, n.gate_count() as u64);
    for g in n.gates() {
        put_str(&mut out, g.name());
        let code = GATE_KINDS.iter().position(|&k| k == g.kind());
        out.push(code.expect("every kind has a code") as u8);
        put_varint(&mut out, g.fanin().len() as u64);
        for f in g.fanin() {
            put_varint(&mut out, f.index() as u64);
        }
    }
    put_varint(&mut out, n.outputs().len() as u64);
    for o in n.outputs() {
        put_varint(&mut out, o.index() as u64);
    }
    put_varint(&mut out, n.flip_flop_count() as u64);
    out
}

fn malformed() -> SessionError {
    SessionError::new("malformed session checkpoint")
}

/// A checkpoint read that must succeed.
fn need<T>(read: Option<T>) -> Result<T, SessionError> {
    read.ok_or_else(malformed)
}

fn to_session_error(e: impl fmt::Display) -> SessionError {
    SessionError::new(e.to_string())
}

/// An owned `(name, kind, fanin names)` gate descriptor — the editable
/// form of a gate for structural rebuilds and snapshots.
type GateDesc = (String, GateKind, Vec<String>);

/// Builds a netlist from descriptors in the given order. The builder
/// rejects undefined fanins, so the order must be topological.
fn build_netlist<'g>(
    name: &str,
    gates: impl IntoIterator<Item = &'g GateDesc>,
    outputs: &[String],
    flip_flops: usize,
) -> Result<Netlist, SessionError> {
    let mut b = NetlistBuilder::new(name);
    for (name, kind, fanin) in gates {
        let added = if kind.is_input() {
            b.input(name)
        } else {
            let refs: Vec<&str> = fanin.iter().map(String::as_str).collect();
            b.gate(name, *kind, &refs)
        };
        added.map_err(to_session_error)?;
    }
    for o in outputs {
        b.output(o).map_err(to_session_error)?;
    }
    b.record_flip_flops(flip_flops);
    b.finish().map_err(to_session_error)
}

/// Owned descriptors in index order.
fn gate_descs(n: &Netlist) -> Vec<GateDesc> {
    n.gates()
        .iter()
        .map(|g| {
            (
                g.name().to_string(),
                g.kind(),
                g.fanin()
                    .iter()
                    .map(|&f| n.gate(f).name().to_string())
                    .collect(),
            )
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Op-log: one CRC-framed record per applied op, append + fsync.
// ---------------------------------------------------------------------------

/// Magic token opening every op-log record.
pub const OPLOG_MAGIC: &str = "minpower-oplog";

/// Op-log record format version.
pub const OPLOG_VERSION: u32 = 1;

const OPLOG: FramedJournal = FramedJournal::new(OPLOG_MAGIC, OPLOG_VERSION);

/// Appends one op record — `"minpower-oplog <version> <len> <crc32>\n"`
/// then canonical op JSON then `"\n"` — through
/// [`store::append_durable`], returning the bytes written (the service's
/// disk accounting sums them against the session quota). The first
/// append creates the file and fsyncs its directory; later appends cost
/// one write and one `fdatasync`. The store's `io.*` and
/// `checkpoint.corrupt` fault sites apply.
///
/// # Errors
///
/// The store error once its retry budget is exhausted; the caller
/// should drop its warm state so the session reconverges to the
/// durable log.
pub fn append_op(path: &Path, op: &SessionOp) -> std::io::Result<u64> {
    let payload = op.to_json().render();
    let mut record = Vec::with_capacity(payload.len() + 48);
    OPLOG.frame_into(&mut record, payload.as_bytes());
    let report =
        store::append_durable(path, &record, !path.exists()).map_err(std::io::Error::other)?;
    Ok(report.bytes)
}

/// Result of scanning an op-log.
#[derive(Debug)]
pub struct OplogReplay {
    /// Ops decoded from the longest valid record prefix.
    pub ops: Vec<SessionOp>,
    /// Bytes those records span, when a torn or corrupt tail follows
    /// them; `None` when the whole file replays.
    pub torn_at: Option<u64>,
}

/// Reads the longest valid prefix of an op-log. A missing file is an
/// empty log; a torn or corrupt tail (crash mid-append, injected torn
/// write) is dropped and its offset reported via
/// [`OplogReplay::torn_at`] — every record before it replays normally.
pub fn read_oplog(path: &Path) -> OplogReplay {
    let Ok(bytes) = fs::read(path) else {
        return OplogReplay {
            ops: Vec::new(),
            torn_at: None,
        };
    };
    let prefix = OPLOG.scan(&bytes);
    let mut ops = Vec::with_capacity(prefix.records.len());
    let mut valid_len = 0;
    for &(payload, end) in &prefix.records {
        let op = std::str::from_utf8(payload)
            .ok()
            .and_then(|text| json::parse(text).ok())
            .and_then(|doc| SessionOp::from_json(&doc).ok());
        let Some(op) = op else { break };
        ops.push(op);
        valid_len = end;
    }
    OplogReplay {
        ops,
        torn_at: (valid_len < bytes.len()).then_some(valid_len as u64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64 as TestSeq, Ordering};

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        static SEQ: TestSeq = TestSeq::new(0);
        let dir = std::env::temp_dir().join(format!(
            "minpower-session-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    /// A small two-level netlist with named gates.
    fn sample() -> Netlist {
        let mut b = NetlistBuilder::new("sample");
        for name in ["a", "b", "c", "d"] {
            b.input(name).unwrap();
        }
        b.gate("n1", GateKind::Nand, &["a", "b"]).unwrap();
        b.gate("n2", GateKind::Nor, &["c", "d"]).unwrap();
        b.gate("n3", GateKind::And, &["n1", "n2"]).unwrap();
        b.gate("n4", GateKind::Xor, &["n1", "c"]).unwrap();
        b.output("n3").unwrap();
        b.output("n4").unwrap();
        b.finish().unwrap()
    }

    fn params() -> SessionParams {
        SessionParams::default()
    }

    #[test]
    fn op_json_round_trips_bitwise() {
        let ops = vec![
            SessionOp::Resize {
                gate: "n1".into(),
                width: f64::from_bits(2.340625e0_f64.to_bits() + 1),
            },
            SessionOp::SetVt {
                gate: "n2".into(),
                vt: 0.512345678901234,
            },
            SessionOp::SetVdd { vdd: 2.25 },
            SessionOp::SetFc { fc: 312.5e6 },
            SessionOp::SetActivity { activity: 0.275 },
            SessionOp::AddGate {
                name: "x0".into(),
                kind: GateKind::Nand,
                fanin: vec!["n1".into(), "n2".into()],
            },
            SessionOp::RemoveGate { gate: "x0".into() },
            SessionOp::Reoptimize { steps: 9 },
        ];
        for op in ops {
            let doc = json::parse(&op.to_json().render()).unwrap();
            assert_eq!(SessionOp::from_json(&doc).unwrap(), op);
        }
    }

    #[test]
    fn client_form_plain_numbers_accepted() {
        let doc = json::parse(r#"{"op":"resize","gate":"n1","width":2.5}"#).unwrap();
        let op = SessionOp::from_json(&doc).unwrap();
        assert_eq!(
            op,
            SessionOp::Resize {
                gate: "n1".into(),
                width: 2.5
            }
        );
        let bad = json::parse(r#"{"op":"resize","gate":"n1","witdh":2.5}"#).unwrap();
        assert!(SessionOp::from_json(&bad).is_err(), "typo must be rejected");
    }

    #[test]
    fn resize_matches_dense_recomputation() {
        let mut s = SessionState::new(sample(), &params()).unwrap();
        let out = s
            .apply(&SessionOp::Resize {
                gate: "n1".into(),
                width: 3.5,
            })
            .unwrap();
        assert!(out.gates_touched >= 1);
        // cross_check runs in debug; assert explicitly for release too.
        s.cross_check();
        assert_eq!(s.dirty().len(), 1);
    }

    #[test]
    fn operating_point_edits_stay_consistent() {
        let mut s = SessionState::new(sample(), &params()).unwrap();
        s.apply(&SessionOp::SetVt {
            gate: "n2".into(),
            vt: 0.5,
        })
        .unwrap();
        s.apply(&SessionOp::SetVdd { vdd: 2.2 }).unwrap();
        s.apply(&SessionOp::SetFc { fc: 250.0e6 }).unwrap();
        s.apply(&SessionOp::SetActivity { activity: 0.4 }).unwrap();
        s.cross_check();
    }

    #[test]
    fn structural_edits_rebuild_consistently() {
        let mut s = SessionState::new(sample(), &params()).unwrap();
        s.apply(&SessionOp::AddGate {
            name: "x0".into(),
            kind: GateKind::Nand,
            fanin: vec!["n1".into(), "n2".into()],
        })
        .unwrap();
        s.cross_check();
        assert!(s.netlist().find("x0").is_some());
        // x0 drives nothing, so it can be removed again.
        s.apply(&SessionOp::RemoveGate { gate: "x0".into() })
            .unwrap();
        s.cross_check();
        assert!(s.netlist().find("x0").is_none());
        // n1 drives n3/n4: removal must be rejected.
        assert!(s
            .apply(&SessionOp::RemoveGate { gate: "n1".into() })
            .is_err());
        assert!(s
            .apply(&SessionOp::RemoveGate { gate: "a".into() })
            .is_err());
    }

    #[test]
    fn reoptimize_clears_dirty_and_keeps_feasibility() {
        let mut s = SessionState::new(sample(), &params()).unwrap();
        assert!(s.feasible(), "sample must start feasible");
        let before = s.energy().total();
        s.apply(&SessionOp::Resize {
            gate: "n3".into(),
            width: 8.0,
        })
        .unwrap();
        let out = s
            .apply(&SessionOp::Reoptimize {
                steps: DEFAULT_REOPT_STEPS,
            })
            .unwrap();
        assert_eq!(out.dirty, 0);
        assert!(out.feasible);
        assert!(
            s.energy().total() <= before,
            "minimal feasible width must not cost energy vs the start"
        );
        s.cross_check();
    }

    #[test]
    fn replay_is_bit_identical() {
        let ops = vec![
            SessionOp::Resize {
                gate: "n1".into(),
                width: 3.25,
            },
            SessionOp::SetFc { fc: 280.0e6 },
            SessionOp::AddGate {
                name: "x0".into(),
                kind: GateKind::Or,
                fanin: vec!["n1".into(), "n2".into()],
            },
            SessionOp::Reoptimize { steps: 8 },
            SessionOp::SetActivity { activity: 0.35 },
        ];
        let mut live = SessionState::new(sample(), &params()).unwrap();
        for op in &ops {
            live.apply(op).unwrap();
        }
        let replayed = SessionState::replay(sample(), &params(), &ops).unwrap();
        assert_eq!(live.snapshot().render(), replayed.snapshot().render());
        for (a, b) in live.delays().iter().zip(replayed.delays().iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(
            live.energy().total().to_bits(),
            replayed.energy().total().to_bits()
        );
    }

    #[test]
    fn oplog_round_trips_and_tolerates_torn_tail() {
        let dir = scratch_dir("oplog");
        let path = dir.join("session.oplog");
        let ops = vec![
            SessionOp::Resize {
                gate: "n1".into(),
                width: 2.5,
            },
            SessionOp::SetFc { fc: 310.0e6 },
            SessionOp::Reoptimize { steps: 6 },
        ];
        for op in &ops {
            append_op(&path, op).unwrap();
        }
        let replay = read_oplog(&path);
        assert_eq!(replay.torn_at, None);
        assert_eq!(replay.ops, ops);
        // Tear the tail mid-record: the valid prefix must survive.
        let mut bytes = fs::read(&path).unwrap();
        let keep = bytes.len() - 7;
        bytes.truncate(keep);
        fs::write(&path, &bytes).unwrap();
        let torn = read_oplog(&path);
        assert_eq!(torn.ops, ops[..2]);
        // The cut point is the end of the last intact record: cutting
        // there leaves a log that replays whole.
        let cut = torn.torn_at.expect("torn tail reported");
        store::truncate(&path, cut).unwrap();
        let clean = read_oplog(&path);
        assert_eq!((clean.ops, clean.torn_at), (ops[..2].to_vec(), None));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn invalid_ops_leave_state_unchanged() {
        let mut s = SessionState::new(sample(), &params()).unwrap();
        let snap = s.snapshot().render();
        for op in [
            SessionOp::Resize {
                gate: "missing".into(),
                width: 2.0,
            },
            SessionOp::Resize {
                gate: "a".into(),
                width: 2.0,
            },
            SessionOp::Resize {
                gate: "n1".into(),
                width: 1.0e9,
            },
            SessionOp::SetVdd { vdd: -1.0 },
            SessionOp::AddGate {
                name: "n1".into(),
                kind: GateKind::And,
                fanin: vec!["a".into()],
            },
        ] {
            assert!(s.apply(&op).is_err(), "{op:?} must be rejected");
        }
        assert_eq!(s.snapshot().render(), snap);
        assert_eq!(s.revision(), 0);
    }

    #[test]
    fn rewire_and_swap_json_round_trip_bitwise() {
        let ops = vec![
            SessionOp::RewireFanin {
                gate: "n4".into(),
                fanin: vec!["n2".into(), "d".into()],
            },
            SessionOp::SwapGateKind {
                gate: "n3".into(),
                kind: GateKind::Nor,
            },
        ];
        for op in ops {
            let doc = json::parse(&op.to_json().render()).unwrap();
            assert_eq!(SessionOp::from_json(&doc).unwrap(), op);
        }
    }

    #[test]
    fn rewire_and_swap_replay_bit_identically() {
        let ops = vec![
            SessionOp::RewireFanin {
                gate: "n4".into(),
                fanin: vec!["n2".into(), "d".into()],
            },
            SessionOp::SwapGateKind {
                gate: "n3".into(),
                kind: GateKind::Nor,
            },
            SessionOp::Reoptimize { steps: 6 },
        ];
        let mut live = SessionState::new(sample(), &params()).unwrap();
        for op in &ops {
            live.apply(op).unwrap();
            live.cross_check();
        }
        let n = live.netlist();
        let n4 = n.find("n4").unwrap();
        let fanin: Vec<&str> = n
            .gate(n4)
            .fanin()
            .iter()
            .map(|&f| n.gate(f).name())
            .collect();
        assert_eq!(fanin, ["n2", "d"]);
        assert_eq!(n.gate(n.find("n3").unwrap()).kind(), GateKind::Nor);
        let replayed = SessionState::replay(sample(), &params(), &ops).unwrap();
        assert_eq!(live.snapshot().render(), replayed.snapshot().render());
    }

    #[test]
    fn rewire_and_swap_reject_invalid_edits_untouched() {
        let mut s = SessionState::new(sample(), &params()).unwrap();
        let snap = s.snapshot().render();
        for op in [
            // n3 depends on n1, so feeding n3 back into n1 is a cycle.
            SessionOp::RewireFanin {
                gate: "n1".into(),
                fanin: vec!["n3".into(), "b".into()],
            },
            SessionOp::RewireFanin {
                gate: "a".into(),
                fanin: vec!["b".into()],
            },
            SessionOp::RewireFanin {
                gate: "n1".into(),
                fanin: vec!["ghost".into()],
            },
            SessionOp::RewireFanin {
                gate: "n1".into(),
                fanin: vec![],
            },
            // Not is unary; n3 has two fanins.
            SessionOp::SwapGateKind {
                gate: "n3".into(),
                kind: GateKind::Not,
            },
            SessionOp::SwapGateKind {
                gate: "a".into(),
                kind: GateKind::Nand,
            },
        ] {
            assert!(s.apply(&op).is_err(), "{op:?} must be rejected");
        }
        assert_eq!(
            s.snapshot().render(),
            snap,
            "rejected edits must not mutate"
        );
        assert_eq!(s.revision(), 0);
    }

    /// Decodes `s`'s checkpoint and asserts the result is `s`, bit for
    /// bit: the same checkpoint bytes, JSON snapshot, delays, arrivals
    /// and energy.
    fn assert_checkpoint_round_trips(s: &SessionState, ops_folded: u64) {
        let bytes = s.checkpoint(ops_folded);
        let (restored, folded) = SessionState::from_checkpoint(&bytes).unwrap();
        assert_eq!(folded, ops_folded);
        assert_eq!(restored.checkpoint(ops_folded), bytes);
        assert_eq!(restored.snapshot().render(), s.snapshot().render());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(restored.delays()), bits(s.delays()));
        assert_eq!(bits(restored.arrivals()), bits(s.arrivals()));
        assert_eq!(
            restored.energy().total().to_bits(),
            s.energy().total().to_bits()
        );
        restored.cross_check();
    }

    #[test]
    fn checkpoint_round_trips_bitwise_across_op_classes() {
        let mut s = SessionState::new(sample(), &params()).unwrap();
        assert_checkpoint_round_trips(&s, 0); // empty dirty set
        let ops = [
            SessionOp::Resize {
                gate: "n1".into(),
                width: 3.25,
            },
            SessionOp::SetVt {
                gate: "n4".into(),
                vt: 0.5,
            },
            SessionOp::SetVdd { vdd: 2.2 },
            SessionOp::Reoptimize { steps: 8 },
            SessionOp::SetFc { fc: 280.0e6 },
            SessionOp::Reoptimize { steps: 8 },
            SessionOp::SetActivity { activity: 0.35 },
            SessionOp::AddGate {
                name: "x0".into(),
                kind: GateKind::Or,
                fanin: vec!["n1".into(), "n2".into()],
            },
            SessionOp::RemoveGate { gate: "x0".into() },
            SessionOp::RewireFanin {
                gate: "n4".into(),
                fanin: vec!["n2".into(), "d".into()],
            },
            SessionOp::SwapGateKind {
                gate: "n3".into(),
                kind: GateKind::Nor,
            },
            SessionOp::Reoptimize { steps: 6 },
        ];
        let (mut empty, mut partial, mut full) = (1, 0, 0);
        for (k, op) in ops.iter().enumerate() {
            s.apply(op).unwrap();
            match s.dirty().len() {
                0 => empty += 1,
                n if n == s.netlist().logic_gate_count() => full += 1,
                _ => partial += 1,
            }
            assert_checkpoint_round_trips(&s, k as u64);
        }
        assert!(
            empty >= 2 && partial >= 2 && full >= 2,
            "{empty}/{partial}/{full}"
        );
    }

    #[test]
    fn checkpoint_rejects_truncation_and_bit_flips() {
        let mut s = SessionState::new(sample(), &params()).unwrap();
        s.apply(&SessionOp::Resize {
            gate: "n2".into(),
            width: 4.75,
        })
        .unwrap();
        let bytes = s.checkpoint(3);
        for len in 0..bytes.len() {
            assert!(
                SessionState::from_checkpoint(&bytes[..len]).is_err(),
                "prefix of {len} bytes accepted"
            );
        }
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(SessionState::from_checkpoint(&longer).is_err());
        // As persisted: a flipped payload bit fails the envelope's CRC,
        // so it never reaches the decoder.
        let path = Path::new("session.snap");
        let mut framed = store::frame(&bytes);
        let payload_at = framed.len() - bytes.len();
        let read = |file: &[u8]| {
            let payload = store::decode(path, file).map_err(to_session_error)?;
            SessionState::from_checkpoint(payload)
        };
        assert!(read(&framed).is_ok());
        for bit in payload_at * 8..framed.len() * 8 {
            framed[bit / 8] ^= 1 << (bit % 8);
            assert!(read(&framed).is_err(), "payload bit {bit} flipped accepted");
            framed[bit / 8] ^= 1 << (bit % 8);
        }
        // Past a broken envelope the decoder still never panics.
        let mut flipped = bytes.clone();
        for bit in 0..bytes.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            let _ = SessionState::from_checkpoint(&flipped);
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn checkpoint_bytes_match_the_v2_layout() {
        // Golden bytes of a small c17 state: existing `snap` files must
        // keep decoding unchanged.
        let mut s = SessionState::new(minpower_circuits::c17(), &params()).unwrap();
        s.apply(&SessionOp::Resize {
            gate: "16".into(),
            width: 2.5,
        })
        .unwrap();
        let hex: String = s.checkpoint(1).iter().map(|b| format!("{b:02x}")).collect();
        let golden = concat!(
            // header: magic, version 2, ops_folded 1, revision 1
            "6d696e70736e6170",
            "02000000",
            "0100000000000000",
            "0100000000000000",
            // fc, activity, skew, vdd, default_vt, default_width
            "00000000a3e1b141",
            "333333333333d33f",
            "000000000000f03f",
            "0000000000000440",
            "cdccccccccccdc3f",
            "0000000000000040",
            // structure: name "c17", 11 gates as (name, kind, fanins)
            "03633137",
            "0b",
            "01310000",       // 1 = INPUT
            "01320000",       // 2
            "01330000",       // 3
            "01360000",       // 6
            "01370000",       // 7
            "02313003020002", // 10 = NAND(1, 3)
            "02313103020203", // 11 = NAND(3, 6)
            "02313603020106", // 16 = NAND(2, 11)
            "02313903020604", // 19 = NAND(11, 7)
            "02323203020507", // 22 = NAND(10, 16)
            "02323303020708", // 23 = NAND(16, 19)
            "02090a",         // outputs 22, 23
            "00",             // no flip-flops
            // numeric: vt per gate, width per gate (16 resized to 2.5)
            "cdccccccccccdc3f",
            "cdccccccccccdc3f",
            "cdccccccccccdc3f",
            "cdccccccccccdc3f",
            "cdccccccccccdc3f",
            "cdccccccccccdc3f",
            "cdccccccccccdc3f",
            "cdccccccccccdc3f",
            "cdccccccccccdc3f",
            "cdccccccccccdc3f",
            "cdccccccccccdc3f",
            "0000000000000040",
            "0000000000000040",
            "0000000000000040",
            "0000000000000040",
            "0000000000000040",
            "0000000000000040",
            "0000000000000040",
            "0000000000000440",
            "0000000000000040",
            "0000000000000040",
            "0000000000000040",
            // dirty bitmap: gate 16 (index 7)
            "8000",
        );
        assert_eq!(hex, golden);
    }

    #[test]
    fn structural_edit_then_checkpoint_decodes_to_the_new_netlist() {
        let edits = [
            SessionOp::AddGate {
                name: "x0".into(),
                kind: GateKind::Nand,
                fanin: vec!["n3".into(), "n4".into()],
            },
            SessionOp::RemoveGate { gate: "x0".into() },
            SessionOp::RewireFanin {
                gate: "n4".into(),
                fanin: vec!["n2".into(), "d".into()],
            },
            SessionOp::SwapGateKind {
                gate: "n3".into(),
                kind: GateKind::Or,
            },
        ];
        let mut s = SessionState::new(sample(), &params()).unwrap();
        for op in &edits {
            s.checkpoint(0); // fill the structure cache with the old netlist
            s.apply(op).unwrap();
            let (restored, _) = SessionState::from_checkpoint(&s.checkpoint(0)).unwrap();
            assert_eq!(
                gate_descs(restored.netlist()),
                gate_descs(s.netlist()),
                "after {op:?}"
            );
            assert_eq!(restored.snapshot().render(), s.snapshot().render());
        }
    }

    #[test]
    fn structure_is_encoded_once_per_structural_revision() {
        let mut s = SessionState::new(sample(), &params()).unwrap();
        assert!(s.structure.get().is_none(), "encoded lazily");
        s.checkpoint(0);
        let encoded = s
            .structure
            .get()
            .expect("encoded by the first checkpoint")
            .as_ptr();
        // Non-structural ops, a rejected structural edit, and repeated
        // checkpoints all reuse the one encoding: a set cell cannot be
        // re-initialized, only replaced.
        for op in [
            SessionOp::Resize {
                gate: "n1".into(),
                width: 3.0,
            },
            SessionOp::SetVt {
                gate: "n2".into(),
                vt: 0.5,
            },
            SessionOp::SetVdd { vdd: 2.2 },
            SessionOp::SetFc { fc: 280.0e6 },
            SessionOp::SetActivity { activity: 0.4 },
            SessionOp::Reoptimize { steps: 4 },
        ] {
            s.apply(&op).unwrap();
            s.checkpoint(0);
            assert_eq!(
                s.structure.get().map(|b| b.as_ptr()),
                Some(encoded),
                "{op:?}"
            );
        }
        let cycle = SessionOp::RewireFanin {
            gate: "n1".into(),
            fanin: vec!["n3".into(), "b".into()],
        };
        assert!(s.apply(&cycle).is_err());
        assert_eq!(s.structure.get().map(|b| b.as_ptr()), Some(encoded));
        // Each structural op drops the encoding; the next checkpoint
        // encodes the new netlist once.
        for op in [
            SessionOp::AddGate {
                name: "x0".into(),
                kind: GateKind::Nand,
                fanin: vec!["n1".into(), "n2".into()],
            },
            SessionOp::SwapGateKind {
                gate: "x0".into(),
                kind: GateKind::Nor,
            },
            SessionOp::RewireFanin {
                gate: "x0".into(),
                fanin: vec!["n3".into(), "n4".into()],
            },
            SessionOp::RemoveGate { gate: "x0".into() },
        ] {
            s.apply(&op).unwrap();
            assert!(s.structure.get().is_none(), "{op:?} must drop the encoding");
            s.checkpoint(0);
            assert_eq!(
                s.structure.get().map(Vec::as_slice),
                Some(encode_structure(s.netlist()).as_slice()),
                "{op:?}"
            );
        }
    }

    #[test]
    fn oplog_bytes_match_the_v1_layout() {
        // Golden bytes of the op-log layout existing `*.oplog` files use:
        // they must keep replaying unchanged.
        let dir = scratch_dir("golden");
        let path = dir.join("session.oplog");
        append_op(&path, &SessionOp::SetFc { fc: 310.0e6 }).unwrap();
        let resize = SessionOp::Resize {
            gate: "n1".into(),
            width: 2.5,
        };
        append_op(&path, &resize).unwrap();
        assert_eq!(
            fs::read_to_string(&path).unwrap(),
            "minpower-oplog 1 41 a1c33883\n\
             {\"op\":\"set_fc\",\"fc\":\"0x41b27a3980000000\"}\n\
             minpower-oplog 1 56 c69351d1\n\
             {\"op\":\"resize\",\"gate\":\"n1\",\"width\":\"0x4004000000000000\"}\n"
        );
        fs::remove_dir_all(&dir).ok();
    }
}
