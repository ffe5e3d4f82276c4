//! `minpower-serve` — a std-only HTTP optimization service.
//!
//! Wraps the DAC'97 optimizer in a long-running process: clients submit
//! netlists + options as JSON jobs, poll or stream progress, and fetch
//! results whose JSON is **bit-identical** to what a direct library run
//! produces. Everything is hand-rolled on `std::net` — no async runtime,
//! no serde — in keeping with the workspace's zero-dependency rule.
//!
//! ## Endpoints
//!
//! | method & path            | purpose                                      |
//! |--------------------------|----------------------------------------------|
//! | `POST /jobs`             | submit (`202` + id; `429` when queue full)   |
//! | `GET /jobs`              | paginated job listing (`?offset=&limit=`)    |
//! | `GET /jobs/{id}`         | status + result document                     |
//! | `DELETE /jobs/{id}`      | cancel; interrupted jobs keep best-so-far    |
//! | `GET /jobs/{id}/events`  | NDJSON progress stream                       |
//! | `POST /sessions`         | open a what-if session (warm state)          |
//! | `GET /sessions`          | paginated session listing                    |
//! | `GET /sessions/{id}`     | session snapshot (`?detail=gates` for all)   |
//! | `POST /sessions/{id}/ops`| apply one incremental edit op                |
//! | `POST /sessions/{id}/compact` | fold the op log into a snapshot         |
//! | `DELETE /sessions/{id}`  | tear a session down (directory reclaimed)    |
//! | `GET /metrics`           | queue depth, engine + store counters, latency|
//! | `GET /healthz`           | `ok` / `degraded` + reason                   |
//! | `POST /shutdown`         | graceful drain                               |
//!
//! ## Sessions
//!
//! `POST /sessions` loads a netlist once into warm incremental state
//! (delays, STA, energy ledger); `POST /sessions/{id}/ops` then applies
//! cheap deltas — resize a gate, nudge `f_c`, re-optimize the dirty
//! cone — each journaled to a per-session op-log before it is applied,
//! so a killed-and-restarted server replays every session to a
//! bit-identical state. Sessions are meant to be driven over a
//! keep-alive connection (`Connection: keep-alive`): the TCP handshake
//! is paid once and each op is a single round-trip against warm state.
//!
//! ## Durability
//!
//! Every admitted job is persisted to the state directory before it is
//! queued, and checkpointed while it runs. All on-disk state goes
//! through [`minpower_core::store`]: job records are CRC32-framed,
//! written through fsynced temp-file + atomic-rename writes with a `.1`
//! fallback generation, and each running job appends its probes to a
//! CRC-framed `job-<id>.journal`. A server killed mid-job (or drained
//! by SIGINT) leaves those records `pending`; the next server on the
//! same state directory runs a recovery audit (cutting a journal's torn
//! tail and quarantining anything corrupt into `state-dir/quarantine/`),
//! re-admits them, and resumes each from its journal's valid prefix,
//! finishing bit-identically to an uninterrupted run — the
//! same guarantee the CLI's `--resume` makes, delivered as a service.
//! When durable writes fail persistently (disk full), the service
//! latches a degraded read-only mode — `503 + Retry-After` for new
//! submissions while in-flight jobs continue uncheckpointed — and
//! un-latches automatically once writes succeed again.
//!
//! ## Governance
//!
//! Overload is a first-class regime, not an emergent failure (see
//! [`govern`]): deterministic token buckets rate-limit session ops
//! per-session and per-client-IP (`429 + Retry-After`), disk quotas
//! bound each session's on-disk footprint (the op log auto-compacts at
//! half the quota; `POST /sessions/{id}/compact` folds it explicitly),
//! a global disk budget bounds the sum, and a memory-pressure governor
//! sheds the lowest-priority work first — evict idle warm sessions,
//! then refuse new sessions, then refuse new jobs — with the tier
//! visible in `/healthz` and everything counted in `/metrics`. All
//! limits default to off (rates `0`, budgets `0`) except the per-session
//! quota, which defaults generously.
//!
//! ## Quick start
//!
//! ```no_run
//! use minpower_serve::{Config, Server};
//!
//! let server = Server::bind(Config {
//!     addr: "127.0.0.1:0".to_string(),
//!     ..Config::default()
//! }).expect("bind");
//! println!("listening on {}", server.local_addr().expect("addr"));
//! let outcome = server.run(); // blocks until shutdown
//! # let _ = outcome;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod govern;
pub mod http;
pub mod job;
pub mod metrics;
pub mod queue;
mod server;
pub mod session;
pub mod shard;

use std::path::PathBuf;

pub use server::{Server, ServerHandle, ServiceState};

/// Server configuration (the `minpower serve` flags).
#[derive(Debug, Clone)]
pub struct Config {
    /// Listen address; use port `0` to let the OS pick.
    pub addr: String,
    /// Concurrent optimization workers.
    pub workers: usize,
    /// Maximum jobs waiting in the queue before `429`.
    pub queue_depth: usize,
    /// Server-side cap on any job's soft deadline, seconds (`0` = none).
    pub job_time_limit: f64,
    /// Directory for job records and checkpoints.
    pub state_dir: PathBuf,
    /// Maximum accepted request-body size, bytes.
    pub max_body_bytes: usize,
    /// Maximum logic gates per submitted netlist (`422` beyond).
    pub max_gates: usize,
    /// Evaluations between periodic job checkpoints.
    pub checkpoint_every: usize,
    /// Worker mode for distributed serving: accept `POST /shards` from a
    /// `minpower-coord` coordinator. A worker skips the startup recovery
    /// audit and job re-admission — the shared directory is the
    /// coordinator's to audit, and shard reassignment (not local resume)
    /// is the recovery mechanism.
    pub worker: bool,
    /// Shared job-store directory for shard results (worker mode);
    /// defaults to `state_dir` when unset. Coordinator and workers must
    /// point at the same directory.
    pub shared_dir: Option<PathBuf>,
    /// Maximum open what-if sessions (`429` beyond). Warm in-memory
    /// states are additionally bounded by LRU eviction to this count —
    /// an evicted session stays open and replays from its op-log on the
    /// next touch.
    pub max_sessions: usize,
    /// Idle seconds before a session's warm state is evicted to disk
    /// (`0` disables the idle sweep; the session itself stays open).
    pub session_ttl: f64,
    /// Requests served per keep-alive connection before the server
    /// closes it (connection budget; `1` disables reuse).
    pub keep_alive_requests: usize,
    /// Idle seconds the server waits for the next request on a
    /// keep-alive connection before closing it.
    pub keep_alive_idle: f64,
    /// Ops between periodic session snapshots folding the op-log into a
    /// checkpoint (bounds replay length after a restart).
    pub session_checkpoint_every: usize,
    /// Per-session op rate limit, ops/second (`0` disables). Ops beyond
    /// the bucket answer `429` with a `Retry-After` hint.
    pub ops_rate: f64,
    /// Burst capacity of the per-session op bucket, tokens (`0`
    /// defaults to one second of refill).
    pub ops_burst: f64,
    /// Per-client-IP rate limit shared by session ops and job
    /// submissions, requests/second (`0` disables).
    pub client_rate: f64,
    /// Burst capacity of the per-client bucket, tokens (`0` defaults to
    /// one second of refill).
    pub client_burst: f64,
    /// Per-session on-disk byte quota — record + op log + snapshot
    /// (`0` = unlimited). The op log auto-compacts into the snapshot at
    /// half the quota; an op that still cannot fit answers `503`.
    pub session_quota_bytes: u64,
    /// Global byte budget across all session directories (`0` =
    /// unlimited); `POST /sessions` answers `503` while exhausted.
    pub session_disk_budget: u64,
    /// Warm-session memory budget, bytes (`0` disables load shedding).
    /// Crossing 75% / 90% / 100% of it moves `/healthz` through the
    /// `pressure` / `shed-sessions` / `shed-jobs` tiers.
    pub mem_budget_bytes: u64,
    /// Op-log size that triggers the background compaction sweep for
    /// sessions *without* a quota, bytes (`0` disables; quota'd
    /// sessions compact at half their quota regardless).
    pub session_compact_bytes: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            addr: "127.0.0.1:7817".to_string(),
            workers: 2,
            queue_depth: 16,
            job_time_limit: 0.0,
            state_dir: PathBuf::from("minpower-serve-state"),
            max_body_bytes: 1 << 20,
            max_gates: 50_000,
            checkpoint_every: 16,
            worker: false,
            shared_dir: None,
            max_sessions: 64,
            session_ttl: 600.0,
            keep_alive_requests: 1000,
            keep_alive_idle: 5.0,
            session_checkpoint_every: 64,
            ops_rate: 0.0,
            ops_burst: 0.0,
            client_rate: 0.0,
            client_burst: 0.0,
            session_quota_bytes: 64 << 20,
            session_disk_budget: 0,
            mem_budget_bytes: 0,
            session_compact_bytes: 4 << 20,
        }
    }
}

/// Validates a state directory *before* binding: an existing path that
/// is not a directory, an uncreatable path, or a directory we cannot
/// write into is rejected up front with a clear message, instead of
/// surfacing as a persist failure on the first submitted job.
///
/// # Errors
///
/// A human-readable description of what is wrong with `dir`.
pub fn validate_state_dir(dir: &std::path::Path) -> Result<(), String> {
    if dir.exists() && !dir.is_dir() {
        return Err(format!(
            "state dir {} exists but is not a directory",
            dir.display()
        ));
    }
    std::fs::create_dir_all(dir)
        .map_err(|e| format!("state dir {} cannot be created: {e}", dir.display()))?;
    let probe = dir.join(".write-probe");
    match minpower_core::store::write_durable(&probe, b"{\"probe\":true}") {
        Ok(_) => {
            minpower_core::store::remove_generations(&probe);
            Ok(())
        }
        Err(e) => Err(format!("state dir {} is not writable: {e}", dir.display())),
    }
}

/// How a server run ended, for the CLI's exit-code mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainOutcome {
    /// Every job had reached a terminal state (exit 0).
    Clean,
    /// At least one job was interrupted by the drain and left resumable
    /// (exit 4, matching the CLI's `interrupted` code).
    JobsInterrupted,
}
