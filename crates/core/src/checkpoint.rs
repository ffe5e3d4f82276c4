//! Checkpoints: save an interrupted run, resume it bit-identically.
//!
//! Two engines checkpoint, each in the form that suits it:
//!
//! * **search** — the Procedure-2 optimizer is deterministic, so its
//!   checkpoint is a *probe journal* ([`ProbeJournal`]): every distinct
//!   `(V_dd, V⃗_ts) → sized design` probe completed so far. The journal
//!   is an append-only [`FramedJournal`] file: one header record, then
//!   one record per probe, each encoded and written exactly once, in
//!   batches of one write and one `fdatasync`. Resuming reads the
//!   longest valid prefix, preloads those probes into the evaluation
//!   cache and replays the search; probes already journaled hit the
//!   cache (bit-identical by the cache's exact-fingerprint contract) and
//!   the run continues from where it stopped, producing exactly the
//!   result an uninterrupted run would have. A torn or corrupt tail only
//!   means those probes are computed again.
//! * **anneal** — the annealer is sequential and stochastic, so its
//!   checkpoint ([`AnnealCheckpoint`]) is the loop state itself:
//!   pass/step indices, temperature, PRNG state, and the current/best
//!   designs. It is a fixed-size snapshot, rewritten crash-safely
//!   through [`store::write_durable`] (CRC32 envelope, fsynced temp
//!   file, atomic rename, previous snapshot kept as a `.1` generation).
//!   Resuming continues the Metropolis walk from the exact step it
//!   stopped at.
//!
//! Both carry a `salt` fingerprinting the problem and the options the
//! run was started under; resuming against a different circuit, cycle
//! time, or option set is rejected instead of silently mixing runs.
//!
//! # Formats and versioning
//!
//! A probe journal's records are framed with magic `minpower-journal`
//! and version 2 ([`JOURNAL_VERSION`]); version 1 was the retired
//! `minpower-checkpoint` JSON snapshot of the whole journal. Payloads
//! are raw little-endian bytes, so every `f64` round-trips bitwise:
//!
//! * header: `u32` format version, `u64` salt, `u32` gate count `n`,
//!   `n × f64` budget vector (constant per run);
//! * probe: `f64` V_dd; `u32` threshold count (1 when every gate shares
//!   one threshold, else `n`) and the thresholds; `u32` `n` and `n × f64`
//!   widths; `f64` static energy, `f64` dynamic energy, `f64` critical
//!   delay; `u8` feasible. The sized design's `vdd` and `vt` equal the
//!   probe's own, so they are rebuilt on load rather than stored.
//!
//! The anneal snapshot is ordinary JSON (via the shared [`crate::json`]
//! module): the top level carries `"format": "minpower-checkpoint"`, an
//! integer `"version"` (1) and `"engine": "anneal"`, and every `f64` is
//! the hex bit pattern of its IEEE-754 representation
//! (`"0x3fe0000000000000"` for 0.5), since decimal formatting would
//! lose ULPs. Loaders reject unknown formats and newer versions; adding
//! fields is a compatible change (unknown fields are ignored), removing
//! or reinterpreting one requires a version bump.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use minpower_models::{Design, EnergyBreakdown};

use crate::error::OptimizeError;
use crate::json::{self, Value};
use crate::store::{self, FramedJournal, StoreHealth, WriteReport};

/// The format marker every anneal snapshot carries.
pub const FORMAT: &str = "minpower-checkpoint";
/// The newest anneal snapshot schema version this build reads and
/// writes.
pub const VERSION: u64 = 1;
/// Magic token opening every probe-journal record.
pub const JOURNAL_MAGIC: &str = "minpower-journal";
/// Probe-journal format version (1 was the whole-journal JSON snapshot).
pub const JOURNAL_VERSION: u32 = 2;

const JOURNAL: FramedJournal = FramedJournal::new(JOURNAL_MAGIC, JOURNAL_VERSION);

/// One journaled Procedure-2 probe: the operating point and the sized
/// outcome. The width-shaping input (the budget vector) is constant per
/// run and stored once in the journal's header, not per probe.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeRecord {
    /// Supply voltage of the probe, volts.
    pub vdd: f64,
    /// Per-gate nominal thresholds of the probe, volts.
    pub vts: Vec<f64>,
    /// The sized design the probe produced (`design.vdd == vdd` and
    /// `design.vt == vts`).
    pub design: Design,
    /// Its energy breakdown.
    pub energy: EnergyBreakdown,
    /// Its critical-path delay, seconds.
    pub critical_delay: f64,
    /// Whether it met the cycle time.
    pub feasible: bool,
}

/// A search run's probe journal as read back from disk: its header and
/// the longest valid prefix of its probe records.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeJournal {
    /// Fingerprint of the problem + options the run was started with.
    pub salt: u64,
    /// The per-gate budget vector (constant across the run's probes).
    pub budgets: Vec<f64>,
    /// The valid probes, in the order they were journaled.
    pub probes: Vec<ProbeRecord>,
    /// Bytes the header and the valid probes span; anything after is a
    /// torn or corrupt tail.
    pub valid_len: usize,
}

impl ProbeJournal {
    /// Frames the header record of a run into `out`.
    pub fn encode_header(out: &mut Vec<u8>, salt: u64, budgets: &[f64]) {
        let mut payload = Vec::with_capacity(16 + 8 * budgets.len());
        payload.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
        payload.extend_from_slice(&salt.to_le_bytes());
        put_f64s(&mut payload, budgets);
        JOURNAL.frame_into(out, &payload);
    }

    /// Frames one probe record into `out`.
    pub fn encode_probe(out: &mut Vec<u8>, p: &ProbeRecord) {
        debug_assert!(
            p.design.vdd.to_bits() == p.vdd.to_bits() && bits_equal(&p.design.vt, &p.vts),
            "a probe's design must carry the probe's own (V_dd, V_ts)"
        );
        debug_assert_eq!(p.vts.len(), p.design.width.len());
        let uniform = p.vts.windows(2).all(|w| w[0].to_bits() == w[1].to_bits());
        let vts = if uniform {
            &p.vts[..p.vts.len().min(1)]
        } else {
            &p.vts[..]
        };
        let width = &p.design.width;
        let mut payload = Vec::with_capacity(45 + 8 * (vts.len() + width.len()));
        payload.extend_from_slice(&p.vdd.to_le_bytes());
        put_f64s(&mut payload, vts);
        put_f64s(&mut payload, width);
        for x in [p.energy.static_, p.energy.dynamic, p.critical_delay] {
            payload.extend_from_slice(&x.to_le_bytes());
        }
        payload.push(u8::from(p.feasible));
        JOURNAL.frame_into(out, &payload);
    }

    /// Decodes a journal file's bytes: the header record, then every
    /// probe record up to the first one that is torn, corrupt or
    /// malformed.
    ///
    /// # Errors
    ///
    /// Why the header record is missing or invalid — the one damage a
    /// journal cannot resume from.
    pub fn parse(bytes: &[u8]) -> Result<ProbeJournal, String> {
        let mut records = JOURNAL.scan(bytes).records.into_iter();
        let Some((header, mut valid_len)) = records.next() else {
            return Err(if bytes.is_empty() {
                "empty file".to_string()
            } else if bytes.starts_with(store::MAGIC.as_bytes()) {
                "a retired v1 search checkpoint, not a probe journal".to_string()
            } else {
                format!("no valid `{JOURNAL_MAGIC} {JOURNAL_VERSION}` header record")
            });
        };
        let (salt, budgets) =
            decode_header(header).ok_or_else(|| "malformed header record".to_string())?;
        let mut probes = Vec::new();
        for (payload, end) in records {
            let Some(probe) = decode_probe(payload) else {
                break;
            };
            probes.push(probe);
            valid_len = end;
        }
        Ok(ProbeJournal {
            salt,
            budgets,
            probes,
            valid_len,
        })
    }

    /// Reads and decodes the journal at `path`.
    ///
    /// # Errors
    ///
    /// [`OptimizeError::Checkpoint`] on I/O failure or an invalid
    /// header record.
    pub fn load(path: &Path) -> Result<ProbeJournal, OptimizeError> {
        let bytes = std::fs::read(path).map_err(|e| bad(format!("{}: {e}", path.display())))?;
        ProbeJournal::parse(&bytes).map_err(|why| bad(format!("{}: {why}", path.display())))
    }
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn put_f64s(out: &mut Vec<u8>, xs: &[f64]) {
    let n = u32::try_from(xs.len()).expect("vector length fits the journal's u32 count");
    out.extend_from_slice(&n.to_le_bytes());
    for x in xs {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

/// Appends `v` as an LEB128 varint.
pub(crate) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Appends `s` as its varint byte length, then its UTF-8 bytes.
pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// A little-endian cursor over one record payload (also the session
/// checkpoint's). Every read yields `None` past the end.
pub(crate) struct Cursor<'a>(pub(crate) &'a [u8]);

impl<'a> Cursor<'a> {
    pub(crate) fn take<const N: usize>(&mut self) -> Option<[u8; N]> {
        let (head, rest) = self.0.split_first_chunk::<N>()?;
        self.0 = rest;
        Some(*head)
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        self.take().map(u32::from_le_bytes)
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        self.take().map(u64::from_le_bytes)
    }

    pub(crate) fn f64(&mut self) -> Option<f64> {
        self.take().map(f64::from_le_bytes)
    }

    /// The next `n` bytes.
    pub(crate) fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let head = self.0.get(..n)?;
        self.0 = &self.0[n..];
        Some(head)
    }

    /// An LEB128 varint, as [`put_varint`] writes it.
    pub(crate) fn varint(&mut self) -> Option<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let [b] = self.take()?;
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Some(v);
            }
        }
        None
    }

    /// A varint count of items that each take at least one more byte,
    /// so a corrupt count cannot reserve more than the payload holds.
    pub(crate) fn count(&mut self) -> Option<usize> {
        let n = usize::try_from(self.varint()?).ok()?;
        (n <= self.0.len()).then_some(n)
    }

    /// A string as [`put_str`] writes it.
    pub(crate) fn str(&mut self) -> Option<&'a str> {
        let n = self.count()?;
        std::str::from_utf8(self.bytes(n)?).ok()
    }

    fn f64s(&mut self) -> Option<Vec<f64>> {
        let n = self.u32()? as usize;
        // Checked before allocating: a corrupt count must not reserve
        // gigabytes.
        if self.0.len() / 8 < n {
            return None;
        }
        (0..n).map(|_| self.f64()).collect()
    }
}

fn decode_header(payload: &[u8]) -> Option<(u64, Vec<f64>)> {
    let mut c = Cursor(payload);
    if c.u32()? != JOURNAL_VERSION {
        return None;
    }
    let salt = c.u64()?;
    let budgets = c.f64s()?;
    c.0.is_empty().then_some((salt, budgets))
}

fn decode_probe(payload: &[u8]) -> Option<ProbeRecord> {
    let mut c = Cursor(payload);
    let vdd = c.f64()?;
    let mut vts = c.f64s()?;
    let width = c.f64s()?;
    let energy = EnergyBreakdown::new(c.f64()?, c.f64()?);
    let critical_delay = c.f64()?;
    let feasible = match c.take::<1>()? {
        [0] => false,
        [1] => true,
        _ => return None,
    };
    if !c.0.is_empty() {
        return None;
    }
    if vts.len() == 1 {
        vts = vec![vts[0]; width.len()];
    } else if vts.len() != width.len() {
        return None;
    }
    Some(ProbeRecord {
        vdd,
        design: Design {
            vdd,
            vt: vts.clone(),
            width,
        },
        vts,
        energy,
        critical_delay,
        feasible,
    })
}

/// The writing end of a search run's probe journal: frames each batch of
/// new probes and appends it with one durable write.
#[derive(Debug)]
pub(crate) struct JournalWriter {
    path: PathBuf,
    /// Whether `path` already holds this run's header record, so batches
    /// append after it instead of starting a new file.
    started: bool,
}

impl JournalWriter {
    /// A writer that starts a new journal at `path` on its first batch.
    pub(crate) fn new(path: &Path) -> Self {
        JournalWriter {
            path: path.to_path_buf(),
            started: false,
        }
    }

    /// A writer continuing the journal a resumed run was loaded from.
    /// Before anything is appended, a torn or corrupt tail past
    /// `valid_len` is cut off (same file), or the valid prefix is copied
    /// over (a different checkpoint file), so the journal at `path`
    /// stays cumulative.
    ///
    /// # Errors
    ///
    /// [`OptimizeError::Checkpoint`] when the cut or the copy fails.
    pub(crate) fn resume(
        path: &Path,
        from: &Path,
        valid_len: usize,
    ) -> Result<Self, OptimizeError> {
        if path == from {
            let len = std::fs::metadata(path)
                .map_err(|e| bad(format!("{}: {e}", path.display())))?
                .len();
            if len > valid_len as u64 {
                store::truncate(path, valid_len as u64)?;
            }
        } else {
            let bytes = std::fs::read(from).map_err(|e| bad(format!("{}: {e}", from.display())))?;
            store::append_durable(path, &bytes[..valid_len.min(bytes.len())], true)?;
        }
        Ok(JournalWriter {
            path: path.to_path_buf(),
            started: true,
        })
    }

    /// Appends `probes` — preceded by the header record on a new
    /// journal — with one write and one `fdatasync`.
    ///
    /// # Errors
    ///
    /// [`OptimizeError::Checkpoint`] once the store's retry budget is
    /// exhausted.
    pub(crate) fn append(
        &mut self,
        salt: u64,
        budgets: &[f64],
        probes: &[ProbeRecord],
    ) -> Result<WriteReport, OptimizeError> {
        let mut batch = Vec::new();
        if !self.started {
            ProbeJournal::encode_header(&mut batch, salt, budgets);
        }
        for p in probes {
            ProbeJournal::encode_probe(&mut batch, p);
        }
        let report = store::append_durable(&self.path, &batch, !self.started)?;
        self.started = true;
        Ok(report)
    }
}

/// Exact loop state of an annealing run, sufficient to continue the
/// Metropolis walk from the step after the one recorded.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnealState {
    /// Cooling pass index.
    pub pass: usize,
    /// Step index within the pass.
    pub step: usize,
    /// Design evaluations spent so far.
    pub evaluations: usize,
    /// Current acceptance temperature.
    pub temperature: f64,
    /// The PRNG's walked internal state.
    pub rng_state: u64,
    /// The walk's current design.
    pub current: Design,
    /// Penalized cost of the current design.
    pub current_cost: f64,
    /// Best design seen so far.
    pub best: Design,
    /// Penalized cost of the best design.
    pub best_cost: f64,
    /// Whether the best design met every delay budget.
    pub best_feasible: bool,
}

/// A resumable snapshot of a simulated-annealing run.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnealCheckpoint {
    /// Fingerprint of the problem + options the run was started with.
    pub salt: u64,
    /// The exact walk state.
    pub state: AnnealState,
}

/// Where and how often an engine writes checkpoints, and what a write
/// failure means for the run.
#[derive(Debug, Clone)]
pub struct CheckpointSpec {
    /// Destination file: a probe journal for search runs, a snapshot
    /// written crash-safely through [`crate::store`] for annealing.
    pub path: PathBuf,
    /// Evaluations between periodic writes (a final write also happens on
    /// interruption and on completion).
    pub every: usize,
    /// When `true` (the default, what the CLI wants) a checkpoint write
    /// failure fails the run. When `false` (what the service wants) the
    /// run continues *without* checkpointing — losing resumability, not
    /// the job — and the failure is reported through `health`.
    pub required: bool,
    /// Optional shared degraded-mode latch: write failures latch it,
    /// successful writes clear it.
    pub health: Option<Arc<StoreHealth>>,
}

impl CheckpointSpec {
    /// A spec writing to `path` every 32 evaluations; failures fail the
    /// run.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        CheckpointSpec {
            path: path.into(),
            every: 32,
            required: true,
            health: None,
        }
    }

    /// Makes checkpoint writes best-effort: a failure degrades the run to
    /// uncheckpointed instead of failing it.
    #[must_use]
    pub fn best_effort(mut self) -> Self {
        self.required = false;
        self
    }

    /// Attaches a shared [`StoreHealth`] latch that tracks write
    /// failures and recoveries.
    #[must_use]
    pub fn with_health(mut self, health: Arc<StoreHealth>) -> Self {
        self.health = Some(health);
        self
    }
}

impl AnnealCheckpoint {
    /// Writes the snapshot crash-safely through [`crate::store`]:
    /// CRC32 envelope, fsynced temp file, previous snapshot rotated to
    /// the `.1` generation, atomic rename, parent-directory fsync —
    /// readers see either the old snapshot or the new one, never a torn
    /// write, and a corrupt newest snapshot still leaves the previous
    /// one to resume from.
    ///
    /// # Errors
    ///
    /// [`OptimizeError::Checkpoint`] once the store's retry budget is
    /// exhausted.
    pub fn save(&self, path: &Path) -> Result<(), OptimizeError> {
        self.save_report(path).map(|_| ())
    }

    /// Like [`save`](AnnealCheckpoint::save) but reports how many
    /// transient failures the durable write absorbed (for telemetry).
    ///
    /// # Errors
    ///
    /// [`OptimizeError::Checkpoint`] once the store's retry budget is
    /// exhausted.
    pub fn save_report(&self, path: &Path) -> Result<WriteReport, OptimizeError> {
        let body = self.to_json();
        Ok(store::write_durable(path, body.as_bytes())?)
    }

    /// Reads, integrity-checks, and parses a snapshot, falling back to
    /// the previous (`.1`) generation when the newest one is missing or
    /// fails verification.
    ///
    /// # Errors
    ///
    /// [`OptimizeError::Checkpoint`] on I/O failure, a corrupt envelope,
    /// malformed JSON, an unknown format marker, or a newer schema
    /// version.
    pub fn load(path: &Path) -> Result<AnnealCheckpoint, OptimizeError> {
        let loaded = store::read_with_fallback(path)?;
        let body = String::from_utf8(loaded.payload).map_err(|_| OptimizeError::Checkpoint {
            message: format!("{}: checkpoint is not UTF-8", path.display()),
        })?;
        AnnealCheckpoint::from_json(&body)
    }

    /// Serializes to the versioned JSON document.
    pub fn to_json(&self) -> String {
        let top = vec![
            ("format".to_string(), Value::Str(FORMAT.to_string())),
            ("version".to_string(), Value::Int(VERSION)),
            ("engine".to_string(), Value::Str("anneal".to_string())),
            ("salt".to_string(), Value::Int(self.salt)),
            ("state".to_string(), anneal_value(&self.state)),
        ];
        let mut out = String::new();
        Value::Obj(top).write(&mut out);
        out.push('\n');
        out
    }

    /// Parses the versioned JSON document.
    ///
    /// # Errors
    ///
    /// [`OptimizeError::Checkpoint`] describing the first malformation
    /// encountered.
    pub fn from_json(text: &str) -> Result<AnnealCheckpoint, OptimizeError> {
        let value = json::parse(text)?;
        let obj = value.as_obj("checkpoint")?;
        let format = obj.req("format")?.as_str("format")?;
        if format != FORMAT {
            return Err(bad(format!("not a checkpoint file (format {format:?})")));
        }
        let version = obj.req("version")?.as_u64("version")?;
        if version > VERSION {
            return Err(bad(format!(
                "checkpoint version {version} is newer than this build understands ({VERSION})"
            )));
        }
        let salt = obj.req("salt")?.as_u64("salt")?;
        match obj.req("engine")?.as_str("engine")? {
            "anneal" => Ok(AnnealCheckpoint {
                salt,
                state: parse_anneal(obj.req("state")?)?,
            }),
            "search" => Err(bad(
                "a retired v1 search checkpoint: search runs resume from probe journals",
            )),
            other => Err(bad(format!("unknown checkpoint engine {other:?}"))),
        }
    }
}

fn bad(message: impl Into<String>) -> OptimizeError {
    OptimizeError::Checkpoint {
        message: message.into(),
    }
}

fn design_value(d: &Design) -> Value {
    Value::Obj(vec![
        ("vdd".to_string(), json::bits_f64(d.vdd)),
        ("vt".to_string(), json::bits_f64_array(&d.vt)),
        ("width".to_string(), json::bits_f64_array(&d.width)),
    ])
}

fn parse_design(v: &Value) -> Result<Design, OptimizeError> {
    let obj = v.as_obj("design")?;
    Ok(Design {
        vdd: obj.req("vdd")?.as_bits_f64("design.vdd")?,
        vt: obj.req("vt")?.as_bits_f64_vec("design.vt")?,
        width: obj.req("width")?.as_bits_f64_vec("design.width")?,
    })
}

fn anneal_value(s: &AnnealState) -> Value {
    Value::Obj(vec![
        ("pass".to_string(), Value::Int(s.pass as u64)),
        ("step".to_string(), Value::Int(s.step as u64)),
        ("evaluations".to_string(), Value::Int(s.evaluations as u64)),
        ("temperature".to_string(), json::bits_f64(s.temperature)),
        ("rng_state".to_string(), Value::Int(s.rng_state)),
        ("current".to_string(), design_value(&s.current)),
        ("current_cost".to_string(), json::bits_f64(s.current_cost)),
        ("best".to_string(), design_value(&s.best)),
        ("best_cost".to_string(), json::bits_f64(s.best_cost)),
        ("best_feasible".to_string(), Value::Bool(s.best_feasible)),
    ])
}

fn parse_anneal(v: &Value) -> Result<AnnealState, OptimizeError> {
    let obj = v.as_obj("state")?;
    Ok(AnnealState {
        pass: obj.req("pass")?.as_u64("state.pass")? as usize,
        step: obj.req("step")?.as_u64("state.step")? as usize,
        evaluations: obj.req("evaluations")?.as_u64("state.evaluations")? as usize,
        temperature: obj.req("temperature")?.as_bits_f64("state.temperature")?,
        rng_state: obj.req("rng_state")?.as_u64("state.rng_state")?,
        current: parse_design(obj.req("current")?)?,
        current_cost: obj.req("current_cost")?.as_bits_f64("state.current_cost")?,
        best: parse_design(obj.req("best")?)?,
        best_cost: obj.req("best_cost")?.as_bits_f64("state.best_cost")?,
        best_feasible: obj.req("best_feasible")?.as_bool("state.best_feasible")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn design(tag: f64) -> Design {
        Design {
            vdd: tag,
            vt: vec![0.3, tag],
            width: vec![1.0, 2.5],
        }
    }

    fn probe(vdd: f64, vts: Vec<f64>) -> ProbeRecord {
        ProbeRecord {
            vdd,
            design: Design {
                vdd,
                vt: vts.clone(),
                width: vec![1.0, 2.5 + vdd],
            },
            vts,
            energy: EnergyBreakdown::new(1.0e-15, 3.7e-12),
            critical_delay: 4.999999999999999e-9,
            feasible: true,
        }
    }

    /// A journal of three probes: one with per-gate thresholds (awkward
    /// bit patterns that decimal formatting would lose), two uniform.
    fn journal() -> ProbeJournal {
        let mut bytes = Vec::new();
        let budgets = vec![0.0, 1.25e-9];
        let probes = vec![
            probe(1.5, vec![0.1 + 0.2, f64::MIN_POSITIVE]),
            probe(1.25, vec![0.3, 0.3]),
            ProbeRecord {
                feasible: false,
                ..probe(0.9, vec![-0.0, -0.0])
            },
        ];
        ProbeJournal::encode_header(&mut bytes, 0xDEAD_BEEF, &budgets);
        for p in &probes {
            ProbeJournal::encode_probe(&mut bytes, p);
        }
        ProbeJournal {
            salt: 0xDEAD_BEEF,
            budgets,
            probes,
            valid_len: bytes.len(),
        }
    }

    fn encode(j: &ProbeJournal) -> Vec<u8> {
        let mut bytes = Vec::new();
        ProbeJournal::encode_header(&mut bytes, j.salt, &j.budgets);
        for p in &j.probes {
            ProbeJournal::encode_probe(&mut bytes, p);
        }
        bytes
    }

    fn anneal_checkpoint() -> AnnealCheckpoint {
        AnnealCheckpoint {
            salt: 42,
            state: AnnealState {
                pass: 1,
                step: 350,
                evaluations: 1023,
                temperature: 1.7e-13,
                rng_state: 0x1234_5678_9ABC_DEF0,
                current: design(2.0),
                current_cost: 5.0e-12,
                best: design(1.8),
                best_cost: 4.0e-12,
                best_feasible: true,
            },
        }
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "minpower-checkpoint-test-{}-{name}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn search_round_trips_bitwise() {
        let j = journal();
        let bytes = encode(&j);
        assert_eq!(ProbeJournal::parse(&bytes).unwrap(), j);
        // A uniform threshold vector is stored once, not per gate.
        let mut one = Vec::new();
        ProbeJournal::encode_probe(&mut one, &j.probes[1]);
        let mut two = Vec::new();
        ProbeJournal::encode_probe(&mut two, &j.probes[0]);
        assert_eq!(two.len() - one.len(), 8);
    }

    #[test]
    fn anneal_round_trips_bitwise() {
        let cp = anneal_checkpoint();
        let back = AnnealCheckpoint::from_json(&cp.to_json()).unwrap();
        assert_eq!(cp, back);
    }

    #[test]
    fn nan_and_infinity_round_trip() {
        let mut bytes = Vec::new();
        ProbeJournal::encode_header(
            &mut bytes,
            1,
            &[f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0],
        );
        let budgets = ProbeJournal::parse(&bytes).unwrap().budgets;
        assert!(budgets[0].is_nan());
        assert_eq!(budgets[1], f64::INFINITY);
        assert_eq!(budgets[2], f64::NEG_INFINITY);
        assert_eq!(budgets[3].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn journal_keeps_the_longest_valid_prefix() {
        let j = journal();
        let bytes = encode(&j);
        let header_len = {
            let mut h = Vec::new();
            ProbeJournal::encode_header(&mut h, j.salt, &j.budgets);
            h.len()
        };
        // Every truncation yields a prefix of the real probes, or — with
        // the header itself cut — an error; never a panic or an impostor.
        for cut in 0..bytes.len() {
            match ProbeJournal::parse(&bytes[..cut]) {
                Ok(got) => {
                    assert!(cut >= header_len - 1, "cut {cut} accepted a torn header");
                    assert!(got.valid_len <= cut);
                    assert_eq!(got.probes, j.probes[..got.probes.len()], "cut {cut}");
                    assert_eq!((got.salt, &got.budgets), (j.salt, &j.budgets));
                }
                Err(why) => assert!(cut < header_len, "cut {cut}: {why}"),
            }
        }
        // Single-bit flips anywhere: a valid prefix or a header error.
        for i in 0..bytes.len() {
            for bit in [0x01u8, 0x80] {
                let mut bad = bytes.clone();
                bad[i] ^= bit;
                if let Ok(got) = ProbeJournal::parse(&bad) {
                    assert_eq!(got.probes, j.probes[..got.probes.len()], "flip at {i}");
                    assert_eq!(got.salt, j.salt, "flip at {i}");
                    assert!(i >= got.valid_len, "flip at {i} inside the accepted prefix");
                }
            }
        }
    }

    #[test]
    fn journal_writer_cuts_a_torn_tail_before_appending() {
        let dir = scratch("writer");
        let path = dir.join("run.journal");
        let j = journal();
        let mut writer = JournalWriter::new(&path);
        let report = writer.append(j.salt, &j.budgets, &j.probes[..2]).unwrap();
        assert_eq!(report.bytes, std::fs::metadata(&path).unwrap().len());
        // Tear the last record, as a crash mid-append would.
        let len = std::fs::metadata(&path).unwrap().len();
        store::truncate(&path, len - 5).unwrap();
        let loaded = ProbeJournal::load(&path).unwrap();
        assert_eq!(loaded.probes, j.probes[..1]);

        let mut resumed = JournalWriter::resume(&path, &path, loaded.valid_len).unwrap();
        resumed.append(j.salt, &j.budgets, &j.probes[1..]).unwrap();
        assert_eq!(ProbeJournal::load(&path).unwrap(), j);

        // Continuing into another file copies the valid prefix first.
        let copy = dir.join("copy.journal");
        let mut other = JournalWriter::resume(&copy, &path, j.valid_len).unwrap();
        other.append(j.salt, &j.budgets, &[]).unwrap();
        assert_eq!(ProbeJournal::load(&copy).unwrap(), j);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_load_round_trips_through_disk() {
        let path = scratch("anneal").join("cp-roundtrip.json");
        let cp = anneal_checkpoint();
        cp.save(&path).unwrap();
        // The temp file must not linger after the rename.
        assert!(!path.with_extension("tmp").exists());
        assert_eq!(AnnealCheckpoint::load(&path).unwrap(), cp);
        // Overwrite with a different snapshot: atomic replace, previous
        // snapshot kept as the fallback generation.
        let mut cp2 = anneal_checkpoint();
        cp2.state.step += 1;
        cp2.state.rng_state ^= 0xFF;
        cp2.save(&path).unwrap();
        assert_eq!(AnnealCheckpoint::load(&path).unwrap(), cp2);
        assert_eq!(
            AnnealCheckpoint::load(&crate::store::previous_generation(&path)).unwrap(),
            cp
        );
        // A corrupt newest snapshot falls back to the previous one.
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n / 2] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(AnnealCheckpoint::load(&path).unwrap(), cp);
        crate::store::remove_generations(&path);
    }

    #[test]
    fn malformed_documents_are_rejected_not_panicked() {
        for text in [
            "",
            "{",
            "nonsense",
            "{\"format\":\"minpower-checkpoint\"}",
            "{\"format\":\"other-tool\",\"version\":1}",
            "{\"format\":\"minpower-checkpoint\",\"version\":1,\"engine\":\"mystery\",\"salt\":0}",
            "{\"format\":\"minpower-checkpoint\",\"version\":1,\"engine\":\"anneal\",\"salt\":\"zero\"}",
            "{\"format\":\"minpower-checkpoint\",\"version\":1,\"engine\":\"search\",\"salt\":0}",
            "{\"format\":\"minpower-checkpoint\",\"version\":1} trailing",
        ] {
            assert!(
                matches!(
                    AnnealCheckpoint::from_json(text),
                    Err(OptimizeError::Checkpoint { .. })
                ),
                "accepted: {text:?}"
            );
        }
        for bytes in [
            &b""[..],
            b"garbage\n",
            b"minpower-store 1 2 00000000\n{}",
            b"minpower-journal 2 0 00000000\n\n",
        ] {
            assert!(ProbeJournal::parse(bytes).is_err(), "accepted: {bytes:?}");
        }
    }

    #[test]
    fn newer_versions_are_rejected() {
        let text = anneal_checkpoint()
            .to_json()
            .replace("\"version\":1", &format!("\"version\":{}", VERSION + 1));
        let err = AnnealCheckpoint::from_json(&text).unwrap_err();
        assert!(err.to_string().contains("newer"), "{err}");
        // A journal framed with a newer version has no header this build
        // accepts.
        let mut bytes = Vec::new();
        FramedJournal::new(JOURNAL_MAGIC, JOURNAL_VERSION + 1).frame_into(&mut bytes, b"x");
        assert!(ProbeJournal::parse(&bytes).is_err());
    }

    #[test]
    fn unknown_fields_are_ignored_for_forward_compat() {
        let text = anneal_checkpoint()
            .to_json()
            .replace("\"salt\"", "\"future_extension\":\"yes\",\"salt\"");
        assert!(AnnealCheckpoint::from_json(&text).is_ok());
    }

    #[test]
    fn missing_file_is_an_error() {
        let err = AnnealCheckpoint::load(Path::new("/nonexistent/minpower.cp")).unwrap_err();
        assert!(matches!(err, OptimizeError::Checkpoint { .. }));
        let err = ProbeJournal::load(Path::new("/nonexistent/minpower.journal")).unwrap_err();
        assert!(matches!(err, OptimizeError::Checkpoint { .. }));
    }
}
