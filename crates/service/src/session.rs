//! The service's session layer: specs, the durable per-session files,
//! and the [`SessionManager`] (warm-state cache, LRU + idle-TTL
//! eviction, op-log recovery).
//!
//! ## Durability layout
//!
//! Each open session `id` owns a directory
//! `state-dir/sessions/<id>/` holding three files:
//!
//! * `record.json` — the creation record (spec), written through
//!   [`minpower_core::store::write_durable`] before the session is
//!   acknowledged;
//! * `oplog` — one CRC-framed record per applied op, appended through
//!   [`minpower_core::store::append_durable`] *after* the op applies and
//!   *before* the client sees success
//!   ([`minpower_core::session::append_op`]);
//! * `snap` — a periodic full snapshot folding the log
//!   (`session_checkpoint_every` ops), so recovery replays a bounded
//!   tail instead of the whole history. The payload is a binary
//!   checkpoint ([`SessionState::checkpoint`], format v2) inside the
//!   `write_durable` CRC envelope, with the previous snapshot kept as
//!   `snap.1`: the structure section is encoded once per structural
//!   revision and the numeric state is written as raw `f64` bits, so a
//!   periodic write costs little more than its fsyncs.
//!
//! `DELETE /sessions/{id}` removes the whole directory, and the bytes
//! it held are counted in the `sessions.reclaimed_bytes` metric.
//!
//! ## Disk governance
//!
//! The manager accounts every byte it writes (record + op log +
//! snapshot, including `.1` generations) into per-slot counters and a
//! global `disk_bytes` gauge. Three policies hang off that accounting:
//!
//! * **Per-session quota** (`session_quota_bytes`): the op log
//!   auto-compacts into the snapshot once it reaches half the quota; an
//!   op arriving while the session is still over quota after compaction
//!   answers `503`.
//! * **Global budget** (`session_disk_budget`): `POST /sessions`
//!   answers `503` while the gauge is at/over it.
//! * **Compaction** ([`SessionManager::compact`], plus the background
//!   sweep) folds the log into the snapshot in three crash-safe steps:
//!   write the snapshot with `ops_folded = N`, remove the log, rewrite
//!   the snapshot with `ops_folded = 0`. A crash after step 1 replays
//!   `snapshot + skip(N)` (no double-apply); a crash after step 2
//!   leaves the snapshot *ahead* of the (missing or shorter) log, which
//!   the warm-up normalization folds back to a clean `ops_folded = 0`
//!   snapshot before any new op is accepted — the
//!   `session.compact.crash` fault drills the first window. If that
//!   normalization cannot be made durable the warm-up fails (`503`)
//!   instead of accepting ops a later replay would skip.
//!
//! Recovery (server restart, or re-warming an evicted session) rebuilds
//! from the newest decodable snapshot generation plus the op-log tail —
//! or, when the session has no snapshot file at all, from the spec plus
//! the whole log — and lands on a state bit-identical to the live one,
//! because every op is deterministic. A snapshot that exists but that
//! neither generation decodes fails the warm-up (`500`): the log may
//! have been compacted into it, so the spec plus the log is no
//! substitute. A torn log tail (crash mid-append, or the `io.write.torn`
//! fault) is cut in place at the last intact record before any op is
//! appended after it; acknowledged-but-lost ops are impossible because
//! the acknowledgement is ordered after the fsync.
//!
//! ## Eviction
//!
//! Warm in-memory states are bounded by `max_sessions` (LRU: warming a
//! new session evicts the least-recently-used warm one) and by an idle
//! TTL sweep. Eviction drops only the warm state — the session stays
//! open and replays from disk on its next touch, counted in the
//! `session.replays` metric. Open sessions (records on disk) are capped
//! at `4 × max_sessions`, beyond which `POST /sessions` answers `429`.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use minpower_core::json::{self, Value};
use minpower_core::session::{
    append_op, read_oplog, OpOutcome, SessionOp, SessionParams, SessionState,
};
use minpower_core::store;

use crate::http::HttpError;
use crate::job::{resolve_netlist, Source};

/// Open-session cap as a multiple of the warm (`max_sessions`) cap.
const OPEN_SESSIONS_FACTOR: usize = 4;

/// Process-wide compaction sequence indexing the `session.compact.crash`
/// fault site.
static COMPACT_SEQ: AtomicU64 = AtomicU64::new(0);

/// Resets the fault-site call indices (test isolation; run fault tests
/// single-threaded).
#[cfg(feature = "faults")]
pub fn reset_fault_indices() {
    COMPACT_SEQ.store(0, Ordering::Relaxed);
}

/// Size of `path`, or `0` when it does not exist.
fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// Size of a durable record: the primary file plus its `.1` generation.
fn durable_len(path: &Path) -> u64 {
    file_len(path) + file_len(&store::previous_generation(path))
}

/// Total size of the regular files directly inside `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter_map(|e| e.metadata().ok())
        .filter(|m| m.is_file())
        .map(|m| m.len())
        .sum()
}

/// A validated `POST /sessions` body: a circuit source plus the
/// session's operating point and uniform starting design.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// The circuit payload.
    pub source: Source,
    /// Operating point and starting design.
    pub params: SessionParams,
}

impl SessionSpec {
    /// Parses and validates the JSON body. Unknown fields are rejected.
    ///
    /// # Errors
    ///
    /// [`HttpError`] with status 400 naming the offending field.
    pub fn from_json(value: &Value) -> Result<SessionSpec, HttpError> {
        let Value::Obj(raw) = value else {
            return Err(HttpError::new(400, "session spec must be a JSON object"));
        };
        let obj = value
            .as_obj("session spec")
            .map_err(|e| HttpError::new(400, e.message))?;
        const KNOWN: &[&str] = &[
            "circuit", "bench", "verilog", "fc", "activity", "skew", "vdd", "vt", "width",
        ];
        for (name, _) in raw {
            if !KNOWN.contains(&name.as_str()) {
                return Err(HttpError::new(400, format!("unknown option `{name}`")));
            }
        }
        let text = |name: &str| -> Result<Option<String>, HttpError> {
            match obj.opt(name) {
                None => Ok(None),
                Some(v) => Ok(Some(
                    v.as_str(name)
                        .map_err(|e| HttpError::new(400, e.message))?
                        .to_string(),
                )),
            }
        };
        let source = match (text("circuit")?, text("bench")?, text("verilog")?) {
            (Some(name), None, None) => Source::Suite(name),
            (None, Some(b), None) => Source::Bench(b),
            (None, None, Some(v)) => Source::Verilog(v),
            _ => {
                return Err(HttpError::new(
                    400,
                    "provide exactly one of `circuit`, `bench`, `verilog`",
                ))
            }
        };
        let defaults = SessionParams::default();
        let num = |name: &str, fallback: f64| -> Result<f64, HttpError> {
            match obj.opt(name) {
                None => Ok(fallback),
                Some(v) => v
                    .as_number(name)
                    .map_err(|e| HttpError::new(400, e.message)),
            }
        };
        let params = SessionParams {
            fc: num("fc", defaults.fc)?,
            activity: num("activity", defaults.activity)?,
            skew: num("skew", defaults.skew)?,
            vdd: num("vdd", defaults.vdd)?,
            vt: num("vt", defaults.vt)?,
            width: num("width", defaults.width)?,
        };
        params
            .validate(&minpower_device::Technology::dac97())
            .map_err(|e| HttpError::new(400, e.message))?;
        Ok(SessionSpec { source, params })
    }

    /// Serializes for the session record; floats write
    /// shortest-round-trip, so `from_json(to_json(spec))` is
    /// bitwise-faithful (the recovery replay depends on it).
    pub fn to_json(&self) -> Value {
        let mut fields = Vec::new();
        match &self.source {
            Source::Suite(name) => fields.push(("circuit".to_string(), Value::Str(name.clone()))),
            Source::Bench(text) => fields.push(("bench".to_string(), Value::Str(text.clone()))),
            Source::Verilog(text) => fields.push(("verilog".to_string(), Value::Str(text.clone()))),
        }
        fields.push(("fc".to_string(), Value::Float(self.params.fc)));
        fields.push(("activity".to_string(), Value::Float(self.params.activity)));
        fields.push(("skew".to_string(), Value::Float(self.params.skew)));
        fields.push(("vdd".to_string(), Value::Float(self.params.vdd)));
        fields.push(("vt".to_string(), Value::Float(self.params.vt)));
        fields.push(("width".to_string(), Value::Float(self.params.width)));
        Value::Obj(fields)
    }

    /// Short human label for listings.
    pub fn label(&self) -> String {
        match &self.source {
            Source::Suite(name) => name.clone(),
            Source::Bench(_) => "<inline .bench>".to_string(),
            Source::Verilog(_) => "<inline verilog>".to_string(),
        }
    }
}

/// `session.*` counters for `GET /metrics`.
#[derive(Debug, Default)]
pub struct SessionMetrics {
    /// Ops applied and durably logged.
    pub ops_served: AtomicU64,
    /// Cold replays (restart recovery or post-eviction warm-up).
    pub replays: AtomicU64,
    /// Warm states dropped by the LRU cap or the idle-TTL sweep.
    pub evictions: AtomicU64,
    /// Snapshots written (periodic, compaction and normalization).
    pub checkpoints: AtomicU64,
    /// Cumulative bytes those snapshots wrote, envelope included.
    pub snapshot_bytes: AtomicU64,
    /// Op-logs whose torn/corrupt tail was truncated during recovery.
    pub oplog_truncated: AtomicU64,
    /// Estimated warm-state bytes resident in memory (gauge; the load
    /// governor's input).
    pub warm_bytes: AtomicU64,
    /// Bytes on disk across all session directories (gauge).
    pub disk_bytes: AtomicU64,
    /// Op-log folds into the snapshot (explicit `POST .../compact`,
    /// quota-triggered, or the background sweep).
    pub compactions: AtomicU64,
    /// Bytes reclaimed by compaction and session deletion.
    pub reclaimed_bytes: AtomicU64,
    /// Creations refused by the global disk budget, and ops refused by
    /// a per-session quota that compaction could not satisfy.
    pub quota_rejected: AtomicU64,
}

/// Mutable half of a session entry, behind the per-session lock.
struct Slot {
    /// Warm state, or `None` when evicted/cold (replay on next touch).
    warm: Option<SessionState>,
    /// Estimated bytes of the warm state (mirrored into the
    /// `warm_bytes` gauge while warm).
    warm_bytes: u64,
    /// Records currently in the on-disk op-log.
    ops_logged: u64,
    /// Records folded into the newest snapshot.
    ops_snapshotted: u64,
    /// On-disk bytes of the creation record (+ generation).
    record_bytes: u64,
    /// On-disk bytes of the op log.
    oplog_bytes: u64,
    /// On-disk bytes of the snapshot (+ generation).
    snap_bytes: u64,
    /// Last touch, for LRU and the TTL sweep.
    last_used: Instant,
}

impl Slot {
    fn cold(record_bytes: u64, oplog_bytes: u64, snap_bytes: u64) -> Slot {
        Slot {
            warm: None,
            warm_bytes: 0,
            ops_logged: 0,
            ops_snapshotted: 0,
            record_bytes,
            oplog_bytes,
            snap_bytes,
            last_used: Instant::now(),
        }
    }

    /// The session's on-disk footprint, as accounted.
    fn disk_bytes(&self) -> u64 {
        self.record_bytes + self.oplog_bytes + self.snap_bytes
    }
}

/// On-disk facts about a session, handed to [`SessionManager::with_state`]
/// readers.
#[derive(Debug, Clone, Copy)]
pub struct DiskView {
    /// Records currently in the op log.
    pub ops_logged: u64,
    /// Bytes of the snapshot plus its `.1` generation.
    pub snap_bytes: u64,
}

/// One open session: immutable identity + spec, lock-guarded state.
pub struct SessionEntry {
    /// Session id (the `/sessions/{id}` path segment).
    pub id: u64,
    /// The creation spec (also persisted in `record.json`).
    pub spec: SessionSpec,
    slot: Mutex<Slot>,
}

/// The warm-session cache and its durability/eviction policy.
pub struct SessionManager {
    dir: PathBuf,
    max_sessions: usize,
    session_ttl: f64,
    checkpoint_every: usize,
    max_gates: usize,
    quota_bytes: u64,
    disk_budget: u64,
    compact_bytes: u64,
    sessions: Mutex<HashMap<u64, Arc<SessionEntry>>>,
    next_id: AtomicU64,
    /// `session.*` counters.
    pub metrics: SessionMetrics,
}

impl SessionManager {
    /// Creates a manager over `state_dir` and scans it for persisted
    /// session records, registering each as a cold entry (lazy replay
    /// on first touch) — the restart-recovery half of the contract.
    pub fn new(config: &crate::Config) -> SessionManager {
        let manager = SessionManager {
            dir: config.state_dir.clone(),
            max_sessions: config.max_sessions.max(1),
            session_ttl: config.session_ttl,
            checkpoint_every: config.session_checkpoint_every,
            max_gates: config.max_gates,
            quota_bytes: config.session_quota_bytes,
            disk_budget: config.session_disk_budget,
            compact_bytes: config.session_compact_bytes,
            sessions: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            metrics: SessionMetrics::default(),
        };
        manager.recover_records();
        manager
    }

    fn recover_records(&self) {
        let Ok(entries) = std::fs::read_dir(self.dir.join("sessions")) else {
            return;
        };
        let mut sessions = self.sessions.lock().expect("session map");
        let mut max_id = 0u64;
        let mut disk = 0u64;
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Ok(id) = name.to_string_lossy().parse::<u64>() else {
                continue;
            };
            let Ok(loaded) = store::read_with_fallback(&self.record_path(id)) else {
                continue;
            };
            let Ok(text) = String::from_utf8(loaded.payload) else {
                continue;
            };
            let Ok(doc) = json::parse(&text) else {
                continue;
            };
            let Ok(obj) = doc.as_obj("session record") else {
                continue;
            };
            let Some(spec_doc) = obj.opt("spec") else {
                continue;
            };
            let Ok(spec) = SessionSpec::from_json(spec_doc) else {
                continue;
            };
            let slot = Slot::cold(
                durable_len(&self.record_path(id)),
                file_len(&self.oplog_path(id)),
                durable_len(&self.snapshot_path(id)),
            );
            disk += slot.disk_bytes();
            max_id = max_id.max(id);
            sessions.insert(
                id,
                Arc::new(SessionEntry {
                    id,
                    spec,
                    slot: Mutex::new(slot),
                }),
            );
        }
        self.metrics.disk_bytes.store(disk, Ordering::Relaxed);
        self.next_id.store(max_id + 1, Ordering::Relaxed);
    }

    fn session_dir(&self, id: u64) -> PathBuf {
        self.dir.join("sessions").join(id.to_string())
    }

    fn record_path(&self, id: u64) -> PathBuf {
        self.session_dir(id).join("record.json")
    }

    fn oplog_path(&self, id: u64) -> PathBuf {
        self.session_dir(id).join("oplog")
    }

    fn snapshot_path(&self, id: u64) -> PathBuf {
        self.session_dir(id).join("snap")
    }

    /// Mirrors a warm-state change into the slot + the `warm_bytes`
    /// gauge.
    fn set_warm(&self, slot: &mut Slot, state: SessionState) {
        self.drop_warm(slot, false);
        slot.warm_bytes = state.approx_bytes();
        self.metrics
            .warm_bytes
            .fetch_add(slot.warm_bytes, Ordering::Relaxed);
        slot.warm = Some(state);
    }

    /// Drops the warm state (if any), keeping the gauge in sync.
    fn drop_warm(&self, slot: &mut Slot, count_eviction: bool) {
        if slot.warm.take().is_some() {
            self.metrics
                .warm_bytes
                .fetch_sub(slot.warm_bytes, Ordering::Relaxed);
            slot.warm_bytes = 0;
            if count_eviction {
                self.metrics.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Re-estimates the warm state's size after an op mutated it.
    fn refresh_warm_bytes(&self, slot: &mut Slot) {
        if let Some(state) = slot.warm.as_ref() {
            let bytes = state.approx_bytes();
            self.metrics.warm_bytes.fetch_add(bytes, Ordering::Relaxed);
            self.metrics
                .warm_bytes
                .fetch_sub(slot.warm_bytes, Ordering::Relaxed);
            slot.warm_bytes = bytes;
        }
    }

    /// Points the slot's snapshot accounting at a freshly written
    /// snapshot of `bytes` bytes.
    fn account_snap(&self, slot: &mut Slot, bytes: u64) {
        self.metrics.disk_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.metrics
            .disk_bytes
            .fetch_sub(slot.snap_bytes, Ordering::Relaxed);
        slot.snap_bytes = bytes;
    }

    /// Opens a session: resolve + validate, persist the record, build
    /// the warm state, register it (evicting LRU warm states over the
    /// cap).
    ///
    /// # Errors
    ///
    /// `400`/`422` for bad specs, `429` at the open-session cap, `503`
    /// when the global disk budget is exhausted or the record cannot be
    /// persisted.
    pub fn create(&self, spec: SessionSpec) -> Result<(u64, OpOutcome), HttpError> {
        {
            let sessions = self.sessions.lock().expect("session map");
            if sessions.len() >= self.max_sessions * OPEN_SESSIONS_FACTOR {
                return Err(HttpError::new(
                    429,
                    format!(
                        "open-session cap reached ({}); DELETE a session first",
                        self.max_sessions * OPEN_SESSIONS_FACTOR
                    ),
                ));
            }
        }
        let disk = self.metrics.disk_bytes.load(Ordering::Relaxed);
        if self.disk_budget > 0 && disk >= self.disk_budget {
            self.metrics.quota_rejected.fetch_add(1, Ordering::Relaxed);
            return Err(HttpError::new(
                503,
                format!(
                    "session disk budget exhausted ({disk} of {} bytes in use); \
                     DELETE or compact sessions, or raise --session-disk-budget",
                    self.disk_budget
                ),
            ));
        }
        let netlist = resolve_netlist(&spec.source)?;
        let gates = netlist.logic_gate_count();
        if gates > self.max_gates {
            return Err(HttpError::new(
                422,
                format!(
                    "netlist has {gates} logic gates; this server admits at most {}",
                    self.max_gates
                ),
            ));
        }
        let state =
            SessionState::new(netlist, &spec.params).map_err(|e| HttpError::new(400, e.message))?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let record = Value::Obj(vec![
            ("schema".into(), Value::Str("minpower-session".into())),
            ("version".into(), Value::Int(1)),
            ("id".into(), Value::Int(id)),
            ("spec".into(), spec.to_json()),
        ]);
        std::fs::create_dir_all(self.session_dir(id))
            .map_err(|e| HttpError::new(503, format!("cannot create session directory: {e}")))?;
        store::write_durable(&self.record_path(id), record.render().as_bytes())
            .map_err(|e| HttpError::new(503, format!("cannot persist session record: {e}")))?;
        let record_bytes = durable_len(&self.record_path(id));
        self.metrics
            .disk_bytes
            .fetch_add(record_bytes, Ordering::Relaxed);
        let outcome = OpOutcome {
            revision: 0,
            gates_touched: state.netlist().gate_count(),
            resized: 0,
            feasible: state.feasible(),
            critical_delay: state.critical_delay(),
            cycle_time: state.cycle_time(),
            energy: state.energy(),
            dirty: 0,
        };
        let mut slot = Slot::cold(record_bytes, 0, 0);
        self.set_warm(&mut slot, state);
        let entry = Arc::new(SessionEntry {
            id,
            spec,
            slot: Mutex::new(slot),
        });
        self.sessions.lock().expect("session map").insert(id, entry);
        self.enforce_warm_cap(Some(id));
        Ok((id, outcome))
    }

    /// Looks up an open session.
    ///
    /// # Errors
    ///
    /// `404` when no such session exists.
    pub fn get(&self, id: u64) -> Result<Arc<SessionEntry>, HttpError> {
        self.sessions
            .lock()
            .expect("session map")
            .get(&id)
            .cloned()
            .ok_or_else(|| HttpError::new(404, format!("no session {id}")))
    }

    /// Applies one op: warm (replaying if cold), apply, append to the
    /// op-log + fsync, *then* acknowledge. An op-log append failure
    /// drops the warm state so the session reconverges to the durable
    /// log, and answers `503`.
    ///
    /// # Errors
    ///
    /// `400` for invalid ops, `404`/`500` for recovery failures, `503`
    /// for durability failures or an unsatisfiable disk quota.
    pub fn apply(&self, entry: &SessionEntry, op: &SessionOp) -> Result<OpOutcome, HttpError> {
        let mut slot = entry.slot.lock().expect("session slot");
        self.ensure_warm(entry, &mut slot)?;
        if self.quota_bytes > 0 && slot.disk_bytes() >= self.quota_bytes {
            // Folding the log reclaims almost the whole footprint; only
            // a session whose *snapshot* fills the quota stays over.
            self.compact_locked(entry, &mut slot)?;
            if slot.disk_bytes() >= self.quota_bytes {
                self.metrics.quota_rejected.fetch_add(1, Ordering::Relaxed);
                return Err(HttpError::new(
                    503,
                    format!(
                        "session {} is over its disk quota ({} of {} bytes) even after \
                         compaction; DELETE it or raise --session-quota-bytes",
                        entry.id,
                        slot.disk_bytes(),
                        self.quota_bytes
                    ),
                ));
            }
        }
        let state = slot.warm.as_mut().expect("warmed above");
        let outcome = state
            .apply(op)
            .map_err(|e| HttpError::new(400, e.message))?;
        match append_op(&self.oplog_path(entry.id), op) {
            Ok(bytes) => {
                slot.oplog_bytes += bytes;
                self.metrics.disk_bytes.fetch_add(bytes, Ordering::Relaxed);
            }
            Err(e) => {
                self.drop_warm(&mut slot, true);
                return Err(HttpError::new(
                    503,
                    format!("session op-log append failed: {e}"),
                ));
            }
        }
        self.refresh_warm_bytes(&mut slot);
        slot.ops_logged += 1;
        slot.last_used = Instant::now();
        self.metrics.ops_served.fetch_add(1, Ordering::Relaxed);
        if self.quota_bytes > 0 && slot.oplog_bytes >= (self.quota_bytes / 2).max(1) {
            // Best-effort: a failed auto-compaction just leaves the log
            // for the next attempt (or the hard pre-check above).
            let _ = self.compact_locked(entry, &mut slot);
        } else if self.checkpoint_every > 0
            && slot.ops_logged - slot.ops_snapshotted >= self.checkpoint_every as u64
        {
            let folded = slot.ops_logged;
            let written = {
                let state = slot.warm.as_ref().expect("warmed above");
                self.write_snapshot(entry.id, state, folded)
            };
            if let Some(bytes) = written {
                self.account_snap(&mut slot, bytes);
                slot.ops_snapshotted = folded;
            }
        }
        Ok(outcome)
    }

    /// Explicitly folds the session's op log into its snapshot (`POST
    /// /sessions/{id}/compact`), returning `(reclaimed_bytes,
    /// ops_folded)`.
    ///
    /// # Errors
    ///
    /// `500` when recovery fails, `503` when a compaction step cannot be
    /// made durable (the session recovers from disk on its next touch).
    pub fn compact(&self, entry: &SessionEntry) -> Result<(u64, u64), HttpError> {
        let mut slot = entry.slot.lock().expect("session slot");
        self.ensure_warm(entry, &mut slot)?;
        let folded = slot.ops_logged;
        let reclaimed = self.compact_locked(entry, &mut slot)?;
        slot.last_used = Instant::now();
        Ok((reclaimed, folded))
    }

    /// The three-step crash-safe fold (see the module doc): snapshot
    /// with `ops_folded = N`, remove the log, snapshot with
    /// `ops_folded = 0`. Requires a warm slot.
    fn compact_locked(&self, entry: &SessionEntry, slot: &mut Slot) -> Result<u64, HttpError> {
        if slot.ops_logged == 0 {
            return Ok(0);
        }
        let folded = slot.ops_logged;
        let written = {
            let state = slot.warm.as_ref().expect("caller warms the slot");
            self.write_snapshot(entry.id, state, folded)
        };
        let Some(bytes) = written else {
            return Err(HttpError::new(503, "compaction snapshot write failed"));
        };
        self.account_snap(slot, bytes);
        slot.ops_snapshotted = folded;
        let seq = COMPACT_SEQ.fetch_add(1, Ordering::Relaxed);
        if minpower_engine::faults::should_fire("session.compact.crash", seq) {
            // Crash window: the folded snapshot is durable, the log
            // still holds every folded record. Drop the warm state so
            // the next touch recovers purely from disk — replay must
            // skip the folded prefix, never double-apply it.
            self.drop_warm(slot, false);
            return Err(HttpError::new(
                503,
                "compaction crashed (injected fault); session recovers on next touch",
            ));
        }
        let reclaimed = slot.oplog_bytes;
        if let Err(e) = std::fs::remove_file(self.oplog_path(entry.id)) {
            self.drop_warm(slot, false);
            return Err(HttpError::new(
                503,
                format!("compaction could not remove the op log: {e}"),
            ));
        }
        self.account_oplog(slot, 0);
        slot.ops_logged = 0;
        slot.ops_snapshotted = 0;
        let rewritten = {
            let state = slot.warm.as_ref().expect("caller warms the slot");
            self.write_snapshot(entry.id, state, 0)
        };
        match rewritten {
            Some(bytes) => self.account_snap(slot, bytes),
            None => {
                // The snapshot now claims `folded` ops the log no longer
                // holds; the warm-up normalization repairs that, so fall
                // back to disk rather than serving from a state the disk
                // cannot reproduce on its own terms.
                self.drop_warm(slot, false);
                return Err(HttpError::new(
                    503,
                    "compaction could not rewrite the snapshot; session recovers on next touch",
                ));
            }
        }
        self.metrics.compactions.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .reclaimed_bytes
            .fetch_add(reclaimed, Ordering::Relaxed);
        Ok(reclaimed)
    }

    /// Warm accessor for snapshots: replays if cold, refreshes the LRU
    /// stamp, and hands the caller a view of the state and its disk
    /// footprint via `f`.
    ///
    /// # Errors
    ///
    /// `500` when recovery fails (corrupt record and log).
    pub fn with_state<T>(
        &self,
        entry: &SessionEntry,
        f: impl FnOnce(&SessionState, DiskView) -> T,
    ) -> Result<T, HttpError> {
        let mut slot = entry.slot.lock().expect("session slot");
        self.ensure_warm(entry, &mut slot)?;
        slot.last_used = Instant::now();
        let disk = DiskView {
            ops_logged: slot.ops_logged,
            snap_bytes: slot.snap_bytes,
        };
        Ok(f(slot.warm.as_ref().expect("warmed above"), disk))
    }

    /// Rebuilds the warm state from disk when the slot is cold:
    /// snapshot + op-log tail when a snapshot exists, spec + whole log
    /// otherwise. A torn log tail is cut first. Counted in
    /// `session.replays`.
    fn ensure_warm(&self, entry: &SessionEntry, slot: &mut Slot) -> Result<(), HttpError> {
        if slot.warm.is_some() {
            return Ok(());
        }
        let oplog = self.oplog_path(entry.id);
        let replay = read_oplog(&oplog);
        if let Some(valid_len) = replay.torn_at {
            // Appending after torn bytes would hide every later record
            // from the next replay, so the tail goes before any op.
            store::truncate(&oplog, valid_len).map_err(|e| {
                HttpError::new(503, format!("cannot cut the op log's torn tail: {e}"))
            })?;
            self.metrics.oplog_truncated.fetch_add(1, Ordering::Relaxed);
        }
        let (mut state, mut folded) = match self.load_snapshot(entry.id)? {
            Some(found) => found,
            None => {
                let netlist = resolve_netlist(&entry.spec.source)?;
                let state = SessionState::new(netlist, &entry.spec.params)
                    .map_err(|e| HttpError::new(500, format!("session rebuild failed: {e}")))?;
                (state, 0)
            }
        };
        // A snapshot *ahead* of the log (a compaction crashed between
        // removing the log and rewriting `ops_folded`, or a torn log
        // dropped records the snapshot had already folded) contains
        // every surviving op itself; the surviving log records are a
        // folded prefix, so skipping all of them is exact.
        let ahead = folded > replay.ops.len() as u64;
        if ahead {
            folded = replay.ops.len() as u64;
        }
        for op in replay.ops.iter().skip(folded as usize) {
            state
                .apply(op)
                .map_err(|e| HttpError::new(500, format!("session op-log replay failed: {e}")))?;
        }
        slot.ops_logged = replay.ops.len() as u64;
        slot.ops_snapshotted = folded;
        self.account_oplog(slot, file_len(&oplog));
        if ahead {
            // Normalize before accepting any new op: appending to a log
            // the snapshot is ahead of would let a later replay skip the
            // new records as if they had been folded. The log goes
            // first, so a crash between the steps leaves the snapshot
            // still ahead of an absent log.
            match std::fs::remove_file(&oplog) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => {
                    return Err(HttpError::new(
                        503,
                        format!("cannot remove the op log behind the snapshot: {e}"),
                    ))
                }
            }
            self.account_oplog(slot, 0);
            slot.ops_logged = 0;
            slot.ops_snapshotted = 0;
            let bytes = self.write_snapshot(entry.id, &state, 0).ok_or_else(|| {
                HttpError::new(503, "cannot rewrite the snapshot ahead of its op log")
            })?;
            self.account_snap(slot, bytes);
        }
        self.set_warm(slot, state);
        self.metrics.replays.fetch_add(1, Ordering::Relaxed);
        self.enforce_warm_cap(Some(entry.id));
        Ok(())
    }

    /// Points the slot's op-log accounting at a log of `bytes` bytes.
    fn account_oplog(&self, slot: &mut Slot, bytes: u64) {
        self.metrics.disk_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.metrics
            .disk_bytes
            .fetch_sub(slot.oplog_bytes, Ordering::Relaxed);
        slot.oplog_bytes = bytes;
    }

    /// The newest snapshot generation that decodes, as `(state,
    /// ops_folded)`; `None` when the session has no snapshot file.
    ///
    /// # Errors
    ///
    /// `500` naming the snapshot when a generation exists but neither
    /// decodes.
    fn load_snapshot(&self, id: u64) -> Result<Option<(SessionState, u64)>, HttpError> {
        let path = self.snapshot_path(id);
        let prev = store::previous_generation(&path);
        if !path.exists() && !prev.exists() {
            return Ok(None);
        }
        let mut why = Vec::new();
        for p in [&path, &prev] {
            let decoded = store::read_verified(p)
                .map_err(|e| e.to_string())
                .and_then(|payload| {
                    SessionState::from_checkpoint(&payload)
                        .map_err(|e| format!("{}: {e}", p.display()))
                });
            match decoded {
                Ok(found) => return Ok(Some(found)),
                Err(e) => why.push(e),
            }
        }
        Err(HttpError::new(
            500,
            format!("session snapshot unreadable: {}", why.join("; ")),
        ))
    }

    /// Writes a binary (v2) snapshot folding `ops_folded` log records,
    /// returning the on-disk size of the snapshot and its generation.
    /// Best-effort: a failed write just postpones the checkpoint.
    fn write_snapshot(&self, id: u64, state: &SessionState, ops_folded: u64) -> Option<u64> {
        let path = self.snapshot_path(id);
        let report = store::write_durable(&path, &state.checkpoint(ops_folded)).ok()?;
        self.metrics.checkpoints.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .snapshot_bytes
            .fetch_add(report.bytes, Ordering::Relaxed);
        Some(durable_len(&path))
    }

    /// Drops LRU warm states beyond `max_sessions`, never touching
    /// `keep` (the session being served) or busy slots. A busy slot —
    /// including the caller's own, locked while it warms — still counts
    /// toward the cap, or warming an entry under its own lock would
    /// let the warm population drift above `max_sessions`.
    fn enforce_warm_cap(&self, keep: Option<u64>) {
        let sessions = self.sessions.lock().expect("session map");
        loop {
            let mut evictable: Vec<(Instant, u64)> = Vec::new();
            let mut warm_count = 0usize;
            for (id, entry) in sessions.iter() {
                match entry.slot.try_lock() {
                    Ok(slot) => {
                        if slot.warm.is_some() {
                            warm_count += 1;
                            if Some(*id) != keep {
                                evictable.push((slot.last_used, *id));
                            }
                        }
                    }
                    Err(_) => warm_count += 1, // busy = warm (or becoming so)
                }
            }
            if warm_count <= self.max_sessions {
                return;
            }
            evictable.sort();
            let Some(&(_, victim)) = evictable.first() else {
                return;
            };
            let entry = sessions.get(&victim).expect("listed above");
            let Ok(mut slot) = entry.slot.try_lock() else {
                return;
            };
            self.drop_warm(&mut slot, true);
        }
    }

    /// Idle-TTL sweep: evicts warm states untouched for longer than
    /// `session_ttl` seconds. Cheap; the server calls it on session
    /// traffic.
    pub fn sweep_idle(&self) {
        if self.session_ttl <= 0.0 {
            return;
        }
        let sessions = self.sessions.lock().expect("session map");
        for entry in sessions.values() {
            if let Ok(mut slot) = entry.slot.try_lock() {
                if slot.warm.is_some() && slot.last_used.elapsed().as_secs_f64() > self.session_ttl
                {
                    self.drop_warm(&mut slot, true);
                }
            }
        }
    }

    /// One background governance pass: the idle-TTL sweep plus a
    /// compaction sweep folding any op log past its threshold — half
    /// the per-session quota, or `session_compact_bytes` for
    /// quota-less sessions — so a month-long session stays bounded
    /// without ever calling `POST /sessions/{id}/compact` itself.
    pub fn background_sweep(&self) {
        self.sweep_idle();
        let threshold = if self.quota_bytes > 0 {
            (self.quota_bytes / 2).max(1)
        } else if self.compact_bytes > 0 {
            self.compact_bytes
        } else {
            return;
        };
        let entries: Vec<Arc<SessionEntry>> = {
            let sessions = self.sessions.lock().expect("session map");
            sessions.values().cloned().collect()
        };
        for entry in entries {
            let Ok(mut slot) = entry.slot.try_lock() else {
                continue; // busy sessions compact on their own apply path
            };
            if slot.oplog_bytes < threshold {
                continue;
            }
            if self.ensure_warm(&entry, &mut slot).is_err() {
                continue;
            }
            let _ = self.compact_locked(&entry, &mut slot);
        }
    }

    /// Evicts idle warm sessions, oldest first, until the `warm_bytes`
    /// gauge drops to `floor`; returns how many were shed. The load
    /// governor's pressure tier drives this from the background sweep.
    pub fn shed_warm_to(&self, floor: u64) -> u64 {
        let mut shed = 0u64;
        loop {
            let before = self.metrics.warm_bytes.load(Ordering::Relaxed);
            if before <= floor {
                return shed;
            }
            let victim = {
                let sessions = self.sessions.lock().expect("session map");
                let mut best: Option<(Instant, Arc<SessionEntry>)> = None;
                for entry in sessions.values() {
                    if let Ok(slot) = entry.slot.try_lock() {
                        if slot.warm.is_some()
                            && best.as_ref().is_none_or(|(t, _)| slot.last_used < *t)
                        {
                            best = Some((slot.last_used, Arc::clone(entry)));
                        }
                    }
                }
                best
            };
            let Some((_, entry)) = victim else {
                return shed; // everything warm is busy right now
            };
            if let Ok(mut slot) = entry.slot.try_lock() {
                self.drop_warm(&mut slot, true);
            }
            if self.metrics.warm_bytes.load(Ordering::Relaxed) >= before {
                return shed; // raced; avoid spinning
            }
            shed += 1;
        }
    }

    /// Tears a session down: removes it from the map and reclaims its
    /// whole on-disk directory (record, op log, snapshot, generations),
    /// returning the bytes reclaimed (also counted in
    /// `sessions.reclaimed_bytes`).
    ///
    /// # Errors
    ///
    /// `404` when no such session exists.
    pub fn delete(&self, id: u64) -> Result<u64, HttpError> {
        let removed = self.sessions.lock().expect("session map").remove(&id);
        let Some(entry) = removed else {
            return Err(HttpError::new(404, format!("no session {id}")));
        };
        // Wait for an in-flight op to finish; the entry is already out
        // of the map, so no new work can start on it.
        let mut slot = entry.slot.lock().expect("session slot");
        self.drop_warm(&mut slot, false);
        let dir = self.session_dir(id);
        let reclaimed = dir_bytes(&dir).max(slot.disk_bytes());
        let _ = std::fs::remove_dir_all(&dir);
        self.metrics
            .disk_bytes
            .fetch_sub(slot.disk_bytes(), Ordering::Relaxed);
        slot.record_bytes = 0;
        slot.oplog_bytes = 0;
        slot.snap_bytes = 0;
        self.metrics
            .reclaimed_bytes
            .fetch_add(reclaimed, Ordering::Relaxed);
        Ok(reclaimed)
    }

    /// Sorted-by-id listing rows: `(id, label, warm, ops_logged,
    /// disk_bytes, revision-if-warm)`. Cold sessions are not replayed
    /// just to list them.
    pub fn list_rows(&self) -> Vec<Value> {
        let sessions = self.sessions.lock().expect("session map");
        let mut ids: Vec<u64> = sessions.keys().copied().collect();
        ids.sort_unstable();
        ids.iter()
            .map(|id| {
                let entry = &sessions[id];
                let (warm, ops, disk, revision) = match entry.slot.try_lock() {
                    Ok(slot) => (
                        slot.warm.is_some(),
                        slot.ops_logged,
                        slot.disk_bytes(),
                        slot.warm.as_ref().map(SessionState::revision),
                    ),
                    Err(_) => (true, 0, 0, None),
                };
                let mut fields = vec![
                    ("id".to_string(), Value::Int(*id)),
                    ("circuit".to_string(), Value::Str(entry.spec.label())),
                    (
                        "status".to_string(),
                        Value::Str(if warm { "warm" } else { "cold" }.to_string()),
                    ),
                    ("ops".to_string(), Value::Int(ops)),
                    ("disk_bytes".to_string(), Value::Int(disk)),
                ];
                if let Some(rev) = revision {
                    fields.push(("revision".to_string(), Value::Int(rev)));
                }
                Value::Obj(fields)
            })
            .collect()
    }

    /// Open- and warm-session gauges.
    pub fn counts(&self) -> (u64, u64) {
        let sessions = self.sessions.lock().expect("session map");
        let open = sessions.len() as u64;
        let warm = sessions
            .values()
            .filter(|e| e.slot.try_lock().map(|s| s.warm.is_some()).unwrap_or(true))
            .count() as u64;
        (open, warm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn scratch_config(tag: &str) -> crate::Config {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "minpower-session-mgr-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        crate::Config {
            state_dir: dir,
            max_sessions: 2,
            session_checkpoint_every: 4,
            ..crate::Config::default()
        }
    }

    fn c17_spec() -> SessionSpec {
        SessionSpec {
            source: Source::Suite("c17".to_string()),
            params: SessionParams::default(),
        }
    }

    fn cleanup(dir: &Path) {
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn create_apply_recover_is_bit_identical() {
        let config = scratch_config("recover");
        let manager = SessionManager::new(&config);
        let (id, _) = manager.create(c17_spec()).unwrap();
        let entry = manager.get(id).unwrap();
        let ops = [
            SessionOp::Resize {
                gate: "10".into(),
                width: 3.0,
            },
            SessionOp::SetFc { fc: 280.0e6 },
            SessionOp::Reoptimize { steps: 8 },
        ];
        for op in &ops {
            manager.apply(&entry, op).unwrap();
        }
        let live = manager
            .with_state(&entry, |s, _| s.snapshot().render())
            .unwrap();
        // A second manager over the same directory = restart recovery.
        let manager2 = SessionManager::new(&config);
        let entry2 = manager2.get(id).unwrap();
        let recovered = manager2
            .with_state(&entry2, |s, _| s.snapshot().render())
            .unwrap();
        assert_eq!(live, recovered, "restart must replay bit-identically");
        assert_eq!(manager2.metrics.replays.load(Ordering::Relaxed), 1);
        cleanup(&config.state_dir);
    }

    #[test]
    fn checkpoint_bounds_replay_and_stays_identical() {
        let config = scratch_config("ckpt");
        let manager = SessionManager::new(&config);
        let (id, _) = manager.create(c17_spec()).unwrap();
        let entry = manager.get(id).unwrap();
        for i in 0..10u32 {
            manager
                .apply(
                    &entry,
                    &SessionOp::Resize {
                        gate: "10".into(),
                        width: 2.0 + f64::from(i) * 0.25,
                    },
                )
                .unwrap();
        }
        assert!(
            manager.metrics.checkpoints.load(Ordering::Relaxed) >= 2,
            "checkpoint_every=4 over 10 ops"
        );
        let live = manager
            .with_state(&entry, |s, _| s.snapshot().render())
            .unwrap();
        let manager2 = SessionManager::new(&config);
        let entry2 = manager2.get(id).unwrap();
        let recovered = manager2
            .with_state(&entry2, |s, _| s.snapshot().render())
            .unwrap();
        assert_eq!(live, recovered);
        cleanup(&config.state_dir);
    }

    #[test]
    fn lru_eviction_keeps_sessions_open() {
        let config = scratch_config("lru");
        let manager = SessionManager::new(&config);
        let a = manager.create(c17_spec()).unwrap().0;
        let b = manager.create(c17_spec()).unwrap().0;
        let c = manager.create(c17_spec()).unwrap().0; // cap is 2 → evicts LRU
        assert!(manager.metrics.evictions.load(Ordering::Relaxed) >= 1);
        let (open, warm) = manager.counts();
        assert_eq!(open, 3);
        assert!(warm <= 2);
        // The evicted session still answers (replays transparently).
        for id in [a, b, c] {
            let entry = manager.get(id).unwrap();
            manager
                .apply(
                    &entry,
                    &SessionOp::Resize {
                        gate: "10".into(),
                        width: 2.5,
                    },
                )
                .unwrap();
        }
        assert!(manager.metrics.replays.load(Ordering::Relaxed) >= 1);
        cleanup(&config.state_dir);
    }

    #[test]
    fn open_cap_answers_429_and_delete_frees() {
        let config = scratch_config("cap");
        let manager = SessionManager::new(&config);
        let mut ids = Vec::new();
        for _ in 0..8 {
            ids.push(manager.create(c17_spec()).unwrap().0);
        }
        let err = manager.create(c17_spec()).unwrap_err();
        assert_eq!(err.status, 429);
        manager.delete(ids[0]).unwrap();
        manager.create(c17_spec()).unwrap();
        assert_eq!(manager.delete(ids[0]).unwrap_err().status, 404);
        cleanup(&config.state_dir);
    }

    fn resize(width: f64) -> SessionOp {
        SessionOp::Resize {
            gate: "10".into(),
            width,
        }
    }

    fn rendered(manager: &SessionManager, entry: &SessionEntry) -> String {
        manager
            .with_state(entry, |s, _| s.snapshot().render())
            .unwrap()
    }

    #[test]
    fn quota_bounds_footprint_across_compaction_cycles() {
        let mut config = scratch_config("quota");
        config.session_quota_bytes = 64 << 10;
        let manager = SessionManager::new(&config);
        let (id, _) = manager.create(c17_spec()).unwrap();
        let entry = manager.get(id).unwrap();
        let dir = manager.session_dir(id);
        for cycle in 0..10u32 {
            for i in 0..5u32 {
                manager
                    .apply(&entry, &resize(2.0 + f64::from(cycle * 5 + i) * 0.03125))
                    .unwrap();
            }
            manager.compact(&entry).unwrap();
            let footprint = dir_bytes(&dir);
            assert!(
                footprint <= config.session_quota_bytes,
                "cycle {cycle}: footprint {footprint} over quota {}",
                config.session_quota_bytes
            );
            // The accounting gauge must agree with the filesystem.
            let slot = entry.slot.lock().unwrap();
            assert_eq!(slot.disk_bytes(), footprint, "cycle {cycle}");
        }
        assert!(manager.metrics.compactions.load(Ordering::Relaxed) >= 10);
        assert!(manager.metrics.reclaimed_bytes.load(Ordering::Relaxed) > 0);
        let live = rendered(&manager, &entry);
        let manager2 = SessionManager::new(&config);
        let entry2 = manager2.get(id).unwrap();
        assert_eq!(rendered(&manager2, &entry2), live);
        cleanup(&config.state_dir);
    }

    #[test]
    fn background_sweep_compacts_quota_less_sessions() {
        let mut config = scratch_config("sweep");
        config.session_quota_bytes = 0;
        config.session_compact_bytes = 1;
        config.session_checkpoint_every = 0;
        let manager = SessionManager::new(&config);
        let (id, _) = manager.create(c17_spec()).unwrap();
        let entry = manager.get(id).unwrap();
        for i in 0..3u32 {
            manager
                .apply(&entry, &resize(2.0 + f64::from(i) * 0.25))
                .unwrap();
        }
        let live = rendered(&manager, &entry);
        manager.background_sweep();
        assert!(manager.metrics.compactions.load(Ordering::Relaxed) >= 1);
        assert_eq!(file_len(&manager.oplog_path(id)), 0, "log must be folded");
        let manager2 = SessionManager::new(&config);
        let entry2 = manager2.get(id).unwrap();
        assert_eq!(rendered(&manager2, &entry2), live);
        cleanup(&config.state_dir);
    }

    #[test]
    fn delete_reclaims_directory_and_bytes() {
        let config = scratch_config("reclaim");
        let manager = SessionManager::new(&config);
        let (id, _) = manager.create(c17_spec()).unwrap();
        let entry = manager.get(id).unwrap();
        manager.apply(&entry, &resize(2.5)).unwrap();
        let dir = manager.session_dir(id);
        assert!(dir.is_dir());
        let reclaimed = manager.delete(id).unwrap();
        assert!(reclaimed > 0);
        assert!(!dir.exists(), "session directory must be removed");
        assert_eq!(manager.metrics.disk_bytes.load(Ordering::Relaxed), 0);
        assert!(manager.metrics.reclaimed_bytes.load(Ordering::Relaxed) >= reclaimed);
        cleanup(&config.state_dir);
    }

    #[test]
    fn disk_budget_gates_creation() {
        let mut config = scratch_config("budget");
        config.session_disk_budget = 1;
        let manager = SessionManager::new(&config);
        let (id, _) = manager.create(c17_spec()).unwrap();
        let err = manager.create(c17_spec()).unwrap_err();
        assert_eq!(err.status, 503);
        assert!(err.message.contains("disk budget"), "{}", err.message);
        assert!(manager.metrics.quota_rejected.load(Ordering::Relaxed) >= 1);
        manager.delete(id).unwrap();
        manager.create(c17_spec()).unwrap();
        cleanup(&config.state_dir);
    }

    /// Drills both compaction crash windows without the fault feature by
    /// constructing their on-disk states by hand: (A) the folded
    /// snapshot is durable but the log survives in full; (B) the log is
    /// gone but the snapshot still claims `ops_folded = N` (snapshot
    /// ahead). Both must recover bit-identically, and (B) must keep
    /// accepting + recovering new ops after the normalization.
    #[test]
    fn compaction_crash_windows_recover_bit_identically() {
        let config = scratch_config("crashwin");
        let manager = SessionManager::new(&config);
        let (id, _) = manager.create(c17_spec()).unwrap();
        let entry = manager.get(id).unwrap();
        for i in 0..3u32 {
            manager
                .apply(&entry, &resize(2.0 + f64::from(i) * 0.5))
                .unwrap();
        }
        let live = rendered(&manager, &entry);
        // Window A: snapshot(folded=3) durable, log still holds 3 records.
        manager
            .with_state(&entry, |s, _| manager.write_snapshot(id, s, 3))
            .unwrap();
        let m2 = SessionManager::new(&config);
        let e2 = m2.get(id).unwrap();
        assert_eq!(rendered(&m2, &e2), live, "folded prefix must be skipped");
        // Window B: the log was removed before ops_folded was rewritten.
        manager
            .with_state(&entry, |s, _| manager.write_snapshot(id, s, 3))
            .unwrap();
        std::fs::remove_file(manager.oplog_path(id)).unwrap();
        let m3 = SessionManager::new(&config);
        let e3 = m3.get(id).unwrap();
        assert_eq!(rendered(&m3, &e3), live, "snapshot-ahead must normalize");
        // After normalization new ops must survive yet another restart.
        m3.apply(&e3, &resize(4.5)).unwrap();
        let live2 = rendered(&m3, &e3);
        let m4 = SessionManager::new(&config);
        let e4 = m4.get(id).unwrap();
        assert_eq!(rendered(&m4, &e4), live2, "post-normalization ops kept");
        cleanup(&config.state_dir);
    }

    #[test]
    fn snapshot_bytes_count_every_snapshot_write() {
        let config = scratch_config("snapbytes");
        let manager = SessionManager::new(&config);
        let (id, _) = manager.create(c17_spec()).unwrap();
        let entry = manager.get(id).unwrap();
        for i in 0..8u32 {
            manager
                .apply(&entry, &resize(2.0 + f64::from(i) * 0.25))
                .unwrap();
        }
        let snap = manager.snapshot_path(id);
        let written = manager.metrics.snapshot_bytes.load(Ordering::Relaxed);
        // checkpoint_every = 4: two same-size snapshots, both still on disk.
        assert_eq!(manager.metrics.checkpoints.load(Ordering::Relaxed), 2);
        assert_eq!(written, durable_len(&snap));
        assert_eq!(written, 2 * file_len(&snap));
        let reported = manager
            .with_state(&entry, |_, disk| disk.snap_bytes)
            .unwrap();
        assert_eq!(reported, written);
        cleanup(&config.state_dir);
    }

    #[test]
    fn structural_ops_recover_bit_identically() {
        use minpower_netlist::GateKind;
        let config = scratch_config("structural");
        let manager = SessionManager::new(&config);
        let (id, _) = manager.create(c17_spec()).unwrap();
        let entry = manager.get(id).unwrap();
        let ops = [
            SessionOp::RewireFanin {
                gate: "22".into(),
                fanin: vec!["10".into(), "19".into()],
            },
            SessionOp::SwapGateKind {
                gate: "16".into(),
                kind: GateKind::Nor,
            },
            SessionOp::Reoptimize { steps: 6 },
        ];
        for op in &ops {
            manager.apply(&entry, op).unwrap();
        }
        let live = rendered(&manager, &entry);
        let manager2 = SessionManager::new(&config);
        let entry2 = manager2.get(id).unwrap();
        assert_eq!(rendered(&manager2, &entry2), live);
        cleanup(&config.state_dir);
    }
}
