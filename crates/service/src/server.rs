//! The HTTP server: accept loop, connection handlers, the worker pool
//! that executes jobs, and the graceful-drain state machine.
//!
//! ## Threading model
//!
//! * the **accept loop** ([`Server::run`]) owns the listener in
//!   non-blocking mode and polls the stop/kill tokens every few
//!   milliseconds — overload never blocks it, because admission control
//!   ([`crate::queue::JobQueue::push`]) is non-blocking;
//! * each **connection** gets a short-lived handler thread wrapped in
//!   `catch_unwind`, so a handler bug answers `500` instead of taking
//!   the process down;
//! * `workers` **job threads** block on the queue and run one
//!   optimization at a time on a per-job
//!   [`EvalContext`](minpower_core::EvalContext) (single-threaded, cache
//!   on), so concurrent jobs cannot interleave probe journals — the
//!   property the checkpoint/resume guarantee rests on.
//!
//! ## Drain semantics
//!
//! Three stop flavors, in decreasing order of abruptness:
//!
//! * A *stop* (SIGINT via the CLI's token, `POST /shutdown`, or
//!   [`ServerHandle::shutdown`]) stops accepting, closes the queue,
//!   trips every running job's cancel token, and joins the workers.
//!   Running jobs stop at their next poll boundary; the optimizer writes
//!   a final checkpoint on interruption, and the job's persisted record
//!   stays `pending` — a restarted server on the same state directory
//!   resumes it bit-identically.
//! * A *graceful drain* ([`ServerHandle::drain_graceful`], wired to
//!   SIGTERM by the CLI) refuses new work with `503` but lets in-flight
//!   work **finish**: running jobs and shard executions run to
//!   completion and answer `200`, then the server returns. This is the
//!   fleet-rotation path — a coordinator never sees a half-finished
//!   shard from a worker rotated out under it.
//! * A *kill* ([`ServerHandle::kill`], used by tests to simulate power
//!   loss) skips every terminal write, leaving unfinished jobs `pending`
//!   on disk for the next run to resume.

use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use minpower_core::jobstore::{FsJobStore, JobStore};
use minpower_core::json::{self, Value};
use minpower_core::store::{self, StoreHealth};
use minpower_core::{
    CheckpointSpec, EvalContext, OptimizeError, Optimizer, RunControl, TripReason,
};
use minpower_engine::{EngineStats, StatsSnapshot};

use crate::govern::{Govern, Tier};
use crate::http::{self, HttpError, Request};
use crate::job::{self, Job, JobState, JobStatus};
use crate::metrics::{route_key, Metrics};
use crate::queue::{JobQueue, Pushed};
use crate::session::{SessionManager, SessionSpec};
use crate::shard::{self, ShardError, ShardRequest};
use crate::{Config, DrainOutcome};
use minpower_core::session::{OpOutcome, SessionOp};

/// Shared server state: configuration, queue, job table, telemetry.
pub struct ServiceState {
    config: Config,
    queue: JobQueue,
    jobs: Mutex<HashMap<u64, Arc<Job>>>,
    next_id: AtomicU64,
    metrics: Metrics,
    /// Completed jobs' engine counters, merged as each job finishes.
    finished_stats: Mutex<StatsSnapshot>,
    /// Live engine contexts of running jobs (so `/metrics` includes
    /// in-flight work).
    running_ctx: Mutex<HashMap<u64, Arc<EvalContext>>>,
    draining: AtomicBool,
    stop: Arc<AtomicBool>,
    /// Graceful-drain token: refuse new work, finish in-flight work,
    /// then return (see the module docs).
    graceful: Arc<AtomicBool>,
    killed: Arc<AtomicBool>,
    conn_seq: AtomicU64,
    /// Degraded-mode latch: set when durable writes fail persistently
    /// (disk full, dead volume), cleared when they succeed again. While
    /// latched, new submissions get `503 + Retry-After` and running jobs
    /// continue uncheckpointed.
    health: Arc<StoreHealth>,
    /// Service-level durable-store telemetry (job-record writes, the
    /// startup audit, health probes); per-job checkpoint writes land in
    /// each job's engine context and are merged alongside.
    store_stats: Arc<EngineStats>,
    /// Run controls of in-flight `POST /shards` executions (worker
    /// mode), keyed by connection sequence — a drain or kill cancels
    /// them so the worker never wedges on shard work.
    shard_controls: Mutex<HashMap<u64, RunControl>>,
    /// What-if sessions: warm incremental states, their op-logs and
    /// snapshots, LRU/TTL eviction (see [`crate::session`]).
    sessions: SessionManager,
    /// Resource governance: rate-limit buckets, the load-shedding
    /// governor, and their counters (see [`crate::govern`]).
    govern: Govern,
}

/// A handle for stopping a running server from another thread.
#[derive(Clone)]
pub struct ServerHandle {
    stop: Arc<AtomicBool>,
    graceful: Arc<AtomicBool>,
    killed: Arc<AtomicBool>,
}

impl ServerHandle {
    /// Requests a stop: stop accepting, interrupt running jobs at their
    /// next poll (checkpointed, left resumable), then return.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Requests a graceful drain: refuse new submissions and shard
    /// dispatches with `503`, let running jobs and in-flight shards
    /// finish (and answer `200`), then return. The CLI wires SIGTERM
    /// here.
    pub fn drain_graceful(&self) {
        self.graceful.store(true, Ordering::Relaxed);
    }

    /// Simulates power loss: the server returns as fast as possible and
    /// writes **no** terminal job records, leaving every unfinished job
    /// `pending` on disk for the next run to resume. Test-oriented.
    pub fn kill(&self) {
        self.killed.store(true, Ordering::Relaxed);
        self.stop.store(true, Ordering::Relaxed);
    }
}

/// The bound-but-not-yet-running server.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServiceState>,
}

impl Server {
    /// Binds `config.addr` and loads persisted jobs from
    /// `config.state_dir`: terminal records become queryable history,
    /// `pending` records are re-admitted and will resume from their
    /// checkpoints.
    ///
    /// # Errors
    ///
    /// Propagates listener-bind and state-directory I/O failures.
    pub fn bind(config: Config) -> std::io::Result<Server> {
        std::fs::create_dir_all(&config.state_dir)?;
        let store_stats = Arc::new(EngineStats::default());
        // Recovery audit: delete staging debris, verify every record,
        // promote intact fallback generations, quarantine the rest —
        // BEFORE anything is loaded from the directory. Workers skip it:
        // their state directory may be the coordinator's *shared* store,
        // and exactly one process (the coordinator) must own the audit,
        // or two workers starting together could race each other's
        // in-flight atomic writes.
        if !config.worker {
            let audit = store::audit(&config.state_dir);
            store_stats.count_store_quarantined(audit.quarantined.len() as u64);
        }
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let queue = JobQueue::new(config.queue_depth);
        let state = Arc::new(ServiceState {
            queue,
            jobs: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            metrics: Metrics::default(),
            finished_stats: Mutex::new(StatsSnapshot::default()),
            running_ctx: Mutex::new(HashMap::new()),
            draining: AtomicBool::new(false),
            stop: Arc::new(AtomicBool::new(false)),
            graceful: Arc::new(AtomicBool::new(false)),
            killed: Arc::new(AtomicBool::new(false)),
            conn_seq: AtomicU64::new(0),
            health: Arc::new(StoreHealth::new()),
            store_stats,
            shard_controls: Mutex::new(HashMap::new()),
            // Scans the state directory for persisted session records —
            // each becomes a cold entry that replays its op-log on
            // first touch (the session half of restart recovery).
            sessions: SessionManager::new(&config),
            govern: Govern::new(&config),
            config,
        });
        if !state.config.worker {
            state.recover_persisted_jobs();
        }
        Ok(Server { listener, state })
    }

    /// The bound address (useful with `addr = "127.0.0.1:0"`).
    ///
    /// # Errors
    ///
    /// Propagates `TcpListener::local_addr` failures.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A stop/kill handle usable from other threads (and, through the
    /// stop token, from a signal handler).
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            stop: self.state.stop.clone(),
            graceful: self.state.graceful.clone(),
            killed: self.state.killed.clone(),
        }
    }

    /// The raw stop token; storing `true` interrupts running work and
    /// drains — the CLI wires its SIGINT handler to this.
    pub fn stop_token(&self) -> Arc<AtomicBool> {
        self.state.stop.clone()
    }

    /// The raw graceful-drain token; storing `true` refuses new work and
    /// lets in-flight work finish — the CLI wires its SIGTERM handler to
    /// this.
    pub fn graceful_token(&self) -> Arc<AtomicBool> {
        self.state.graceful.clone()
    }

    /// Runs the accept loop until a stop is requested, then drains.
    /// Returns how the run ended so the CLI can map it to an exit code.
    pub fn run(self) -> DrainOutcome {
        let state = self.state;
        let mut workers = Vec::new();
        for i in 0..state.config.workers.max(1) {
            let state = state.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("minpower-worker-{i}"))
                    .spawn(move || worker_loop(&state))
                    .expect("spawn worker thread"),
            );
        }

        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        let mut graceful_seen = false;
        let mut last_sweep = Instant::now();
        while !state.stop.load(Ordering::Relaxed) {
            // Background governance: compaction of oversized op logs,
            // idle eviction, and pressure shedding, about once a second
            // — the accept loop already wakes every few milliseconds.
            if last_sweep.elapsed() >= Duration::from_secs(1) {
                last_sweep = Instant::now();
                state.governance_sweep();
            }
            if state.graceful.load(Ordering::Relaxed) {
                if !graceful_seen {
                    graceful_seen = true;
                    // Refuse new work (503 on submissions and shard
                    // dispatches) and retire idle workers, but keep
                    // serving connections so in-flight work can answer.
                    state.draining.store(true, Ordering::Relaxed);
                    state.queue.close();
                }
                // Quiescent — no running jobs, no in-flight shards — so
                // the graceful drain is complete.
                if !state.has_inflight_work() {
                    break;
                }
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    state.metrics.connections.fetch_add(1, Ordering::Relaxed);
                    let state = state.clone();
                    handlers.retain(|h| !h.is_finished());
                    handlers.push(std::thread::spawn(move || {
                        let _ = catch_unwind(AssertUnwindSafe(|| {
                            handle_connection(&state, stream);
                        }));
                    }));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }

        // Drain: no new admissions, wake idle workers. A hard stop (the
        // stop token, possibly arriving mid-graceful-drain) additionally
        // interrupts running jobs and in-flight shard executions so the
        // coordinator gets its 503 (or, on kill, a dropped connection)
        // promptly and reassigns the shards; a completed graceful drain
        // has nothing left to interrupt.
        state.draining.store(true, Ordering::Relaxed);
        state.queue.close();
        let hard = state.stop.load(Ordering::Relaxed);
        let mut interrupted = false;
        if hard {
            interrupted = state.cancel_active_jobs();
            for control in state
                .shard_controls
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .values()
            {
                control.cancel();
            }
        }
        if !state.killed.load(Ordering::Relaxed) {
            for handler in handlers {
                let _ = handler.join();
            }
        }
        for worker in workers {
            let _ = worker.join();
        }
        if !hard {
            // Graceful path: queued-but-never-started jobs (their queue
            // slots were discarded by the close) move to a resumable
            // interrupted state; their persisted records stay pending.
            interrupted = state.cancel_active_jobs();
        }
        if state.killed.load(Ordering::Relaxed) || interrupted {
            DrainOutcome::JobsInterrupted
        } else {
            DrainOutcome::Clean
        }
    }
}

impl ServiceState {
    fn recover_persisted_jobs(self: &Arc<Self>) {
        let mut max_id = 0;
        for record in job::load_dir(&self.config.state_dir) {
            max_id = max_id.max(record.id);
            let loaded = Arc::new(Job::new(record.id, record.spec));
            match record.status.as_str() {
                "pending" => {
                    // Unfinished from a previous run: back in the queue;
                    // the worker resumes from the checkpoint if present.
                    self.jobs
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .insert(record.id, loaded.clone());
                    let _ = self.queue.push(loaded);
                }
                status => {
                    loaded.set_state(match status {
                        "done" => match record.result {
                            Some(r) => JobState::Done(r),
                            None => JobState::Failed("persisted result missing".into()),
                        },
                        "cancelled" => JobState::Cancelled(record.result),
                        "interrupted" => JobState::Interrupted {
                            message: record.error.unwrap_or_else(|| "interrupted".into()),
                            partial: record.result,
                            resumable: false,
                        },
                        _ => JobState::Failed(record.error.unwrap_or_else(|| "failed".into())),
                    });
                    self.jobs
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .insert(record.id, loaded);
                }
            }
        }
        self.next_id.store(max_id + 1, Ordering::Relaxed);
    }

    /// Cancels every queued/running job's control. Queued jobs move to a
    /// resumable `Interrupted` state in memory (their persisted records
    /// stay `pending`, so a restart re-admits them) — this also ends any
    /// event streams watching them, which the drain joins on. Returns
    /// whether any job was in flight or waiting.
    fn cancel_active_jobs(&self) -> bool {
        let jobs = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
        let mut any = false;
        for job in jobs.values() {
            match job.status() {
                JobStatus::Running => {
                    job.control.cancel();
                    any = true;
                }
                JobStatus::Queued => {
                    job.control.cancel();
                    job.set_state(JobState::Interrupted {
                        message: "server draining before the job started".to_string(),
                        partial: None,
                        resumable: true,
                    });
                    any = true;
                }
                _ => {}
            }
        }
        any
    }

    fn job(&self, id: u64) -> Option<Arc<Job>> {
        self.jobs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&id)
            .cloned()
    }

    /// Whether any job is running or any shard execution is in flight —
    /// the condition a graceful drain waits out.
    fn has_inflight_work(&self) -> bool {
        if !self
            .shard_controls
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_empty()
        {
            return true;
        }
        self.jobs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .any(|job| matches!(job.status(), JobStatus::Running))
    }

    /// Fleet-wide engine counters: finished jobs' merged snapshots, a
    /// live snapshot of every running job's context, the service-level
    /// store counters, and the health latch's degraded-time total.
    fn merged_engine_stats(&self) -> StatsSnapshot {
        let mut total = *self
            .finished_stats
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let running = self.running_ctx.lock().unwrap_or_else(|e| e.into_inner());
        for ctx in running.values() {
            total.merge(&ctx.snapshot());
        }
        drop(running);
        total.merge(&self.store_stats.snapshot());
        total.store_degraded_seconds += self.health.degraded_seconds();
        total
    }

    /// Persists a job record through the durable store, feeding the
    /// outcome into the store counters and the degraded-mode latch.
    fn persist_job(
        &self,
        job: &Job,
        status: &str,
        result: Option<&Value>,
        error: Option<&str>,
    ) -> Result<(), OptimizeError> {
        match job::persist(&self.config.state_dir, job, status, result, error) {
            Ok(report) => {
                self.store_stats.count_store_write(report.retries);
                self.health.report_success();
                Ok(())
            }
            Err(e) => {
                self.health.report_failure(&e.to_string());
                Err(e)
            }
        }
    }

    /// The governor's current shedding tier, from the warm-byte gauge
    /// and queue depth.
    fn current_tier(&self) -> Tier {
        self.govern.governor.tier(
            self.sessions.metrics.warm_bytes.load(Ordering::Relaxed),
            self.queue.len(),
        )
    }

    /// One background governance pass: the session sweep (idle TTL +
    /// compaction of oversized op logs), then pressure shedding — at
    /// [`Tier::Pressure`] or worse, idle warm sessions are evicted
    /// oldest-first until the warm gauge is back under 75% of the
    /// memory budget.
    fn governance_sweep(&self) {
        self.sessions.background_sweep();
        if self.current_tier() >= Tier::Pressure {
            let shed = self
                .sessions
                .shed_warm_to(self.govern.governor.pressure_floor());
            self.govern
                .metrics
                .pressure_evictions
                .fetch_add(shed, Ordering::Relaxed);
        }
    }

    /// Checks whether durable writes work right now by writing (and
    /// removing) a tiny probe record; un-latches or latches the health
    /// state accordingly. Called on submissions and health checks while
    /// degraded, so recovery is automatic once the disk comes back.
    fn probe_store(&self) -> bool {
        let path = self.config.state_dir.join(".write-probe");
        match store::write_durable(&path, b"{\"probe\":true}") {
            Ok(report) => {
                self.store_stats.count_store_write(report.retries);
                store::remove_generations(&path);
                self.health.report_success();
                true
            }
            Err(e) => {
                self.health.report_failure(&e.to_string());
                false
            }
        }
    }
}

/// Worker thread body: pop, run, repeat until the queue closes.
fn worker_loop(state: &Arc<ServiceState>) {
    while let Some(job) = state.queue.pop() {
        if state.stop.load(Ordering::Relaxed) {
            // Drain began while we were waiting: leave the job pending
            // (its persisted record already says so) and exit.
            continue;
        }
        let result = catch_unwind(AssertUnwindSafe(|| run_job(state, &job)));
        if result.is_err() {
            job.set_state(JobState::Failed("job runner panicked".to_string()));
            let _ = state.persist_job(&job, "failed", None, Some("job runner panicked"));
        }
        state
            .running_ctx
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&job.id);
    }
}

/// Copies the job context's checkpoint counters onto the job, for
/// `GET /jobs/{id}`.
fn note_checkpoints(job: &Job, stats: &EngineStats) {
    for (to, from) in [
        (&job.checkpoints_written, &stats.checkpoints_written),
        (&job.checkpoint_bytes, &stats.checkpoint_bytes),
    ] {
        to.store(from.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// Executes one job end to end: build the problem, attach run control
/// (+observer, deadline, checkpoint, resume), run, classify the outcome.
fn run_job(state: &Arc<ServiceState>, job: &Arc<Job>) {
    job.set_state(JobState::Running);
    let (problem, options) = match job.spec.build(state.config.max_gates) {
        Ok(built) => built,
        Err(e) => {
            job.set_state(JobState::Failed(e.message.clone()));
            let _ = state.persist_job(job, "failed", None, Some(&e.message));
            return;
        }
    };

    // Single-threaded per-job context: the probe journal backing the
    // checkpoint records one run's probes, so jobs must not share one.
    let ctx = Arc::new(EvalContext::new(
        1,
        minpower_core::context::DEFAULT_CACHE_CAPACITY,
    ));
    state
        .running_ctx
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(job.id, ctx.clone());

    let observer_job = job.clone();
    let observer_ctx = ctx.clone();
    let mut control = job.control.clone().with_progress(
        4,
        Arc::new(move |polls, elapsed| {
            observer_job.polls.store(polls, Ordering::Relaxed);
            observer_job
                .elapsed_ms
                .store((elapsed * 1e3) as u64, Ordering::Relaxed);
            note_checkpoints(&observer_job, observer_ctx.stats());
        }),
    );
    let mut limit = job.spec.time_limit;
    if state.config.job_time_limit > 0.0 {
        limit = if limit > 0.0 {
            limit.min(state.config.job_time_limit)
        } else {
            state.config.job_time_limit
        };
    }
    if limit > 0.0 {
        control = control.with_deadline(Duration::from_secs_f64(limit));
    }

    let ckpt = job::checkpoint_file(&state.config.state_dir, job.id);
    let mut optimizer = Optimizer::new(&problem)
        .with_options(options)
        .with_engine(ctx.clone())
        .with_run_control(control)
        .with_checkpoint({
            // Best-effort: a checkpoint-write failure must not kill the
            // job — it keeps running uncheckpointed while the shared
            // health latch flips the service into degraded mode.
            let mut spec = CheckpointSpec::new(ckpt.clone())
                .best_effort()
                .with_health(state.health.clone());
            spec.every = state.config.checkpoint_every;
            spec
        });
    if ckpt.exists() {
        optimizer = optimizer.resume_from(&ckpt);
    }

    let outcome = optimizer.run();
    note_checkpoints(job, ctx.stats());
    let killed = state.killed.load(Ordering::Relaxed);
    let finish = |snapshot: StatsSnapshot| {
        state
            .finished_stats
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .merge(&snapshot);
    };
    let snapshot = state
        .running_ctx
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .get(&job.id)
        .map(|c| c.snapshot())
        .unwrap_or_default();

    match outcome {
        Ok(result) => {
            let doc = minpower_core::report::result_to_json(&problem, &result, job.spec.top_gates);
            if !killed {
                let _ = state.persist_job(job, "done", Some(&doc), None);
                let _ = std::fs::remove_file(&ckpt);
                finish(snapshot);
            }
            job.set_state(JobState::Done(doc));
        }
        Err(OptimizeError::Interrupted {
            reason,
            best_so_far,
            progress,
        }) => {
            let partial = best_so_far.map(|best| {
                minpower_core::report::result_to_json(&problem, &best, job.spec.top_gates)
            });
            let message = format!(
                "interrupted ({reason}) after {} evaluations in {:.1} s",
                progress.evaluations, progress.elapsed_secs
            );
            if job.user_cancelled.load(Ordering::Relaxed) {
                if !killed {
                    let _ = state.persist_job(job, "cancelled", partial.as_ref(), Some(&message));
                    let _ = std::fs::remove_file(&ckpt);
                    finish(snapshot);
                }
                job.set_state(JobState::Cancelled(partial));
            } else if reason == TripReason::Cancelled {
                // Server drain (or kill): not the client's doing. Leave
                // the persisted record pending and keep the checkpoint —
                // the next run on this state directory resumes the job.
                job.set_state(JobState::Interrupted {
                    message,
                    partial,
                    resumable: true,
                });
            } else {
                // Deadline: terminal, carries the feasible best-so-far.
                if !killed {
                    let _ = state.persist_job(job, "interrupted", partial.as_ref(), Some(&message));
                    let _ = std::fs::remove_file(&ckpt);
                    finish(snapshot);
                }
                job.set_state(JobState::Interrupted {
                    message,
                    partial,
                    resumable: false,
                });
            }
        }
        Err(e) => {
            let message = e.to_string();
            if !killed {
                let _ = state.persist_job(job, "failed", None, Some(&message));
                let _ = std::fs::remove_file(&ckpt);
                finish(snapshot);
            }
            job.set_state(JobState::Failed(message));
        }
    }
}

/// Per-connection entry point: parse, dispatch, respond, record metrics
/// — looping for up to `keep_alive_requests` sequential requests when
/// the client asks for `Connection: keep-alive` (no pipelining; see the
/// [`crate::http`] module docs).
fn handle_connection(state: &Arc<ServiceState>, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let conn = state.conn_seq.fetch_add(1, Ordering::Relaxed);
    let budget = state.config.keep_alive_requests.max(1);
    // The per-client rate-limit key. Sockets that lose their peer before
    // we ask share one bucket — they are already half-dead anyway.
    let peer_ip = stream
        .peer_addr()
        .map(|addr| addr.ip().to_string())
        .unwrap_or_else(|_| "unknown".to_string());

    for served in 0..budget {
        let mut started = Instant::now();
        let request = match http::read_request(&mut stream, state.config.max_body_bytes) {
            Ok(Some(request)) => {
                // Restart the clock now that the request has fully
                // arrived: on a reused keep-alive connection the read
                // above blocks through the client's think time, which
                // must not be billed to the route's latency histogram.
                started = Instant::now();
                request
            }
            Ok(None) => return,
            Err(e) => {
                if served > 0 && e.status == 408 {
                    // Idle keep-alive connection: the client simply never
                    // sent another request before `keep_alive_idle` ran
                    // out (or closed uncleanly). Not an error; just
                    // hang up.
                    return;
                }
                state
                    .metrics
                    .observe("other", e.status, started.elapsed().as_micros() as u64);
                let _ = http::respond_error(&mut stream, &e);
                // Lingering close: the request may have unread bytes in
                // flight; closing now would RST the connection and the
                // peer could lose the error response. Drain until EOF
                // (bounded by the read timeout) before dropping the
                // socket.
                let _ = stream.shutdown(std::net::Shutdown::Write);
                let mut sink = [0u8; 4096];
                while matches!(std::io::Read::read(&mut stream, &mut sink), Ok(n) if n > 0) {}
                return;
            }
        };
        let route = route_key(&request.method, &request.path);

        // Fault site: the connection dies before any response bytes —
        // the drill for client-facing robustness (the *server* must stay
        // up and the job state consistent).
        if minpower_engine::faults::should_fire("service.conn.drop", conn) {
            drop(stream);
            return;
        }

        // The events stream manages its own socket lifetime.
        if route == "GET /jobs/{id}/events" {
            let status = stream_events(state, &request, &mut stream);
            state
                .metrics
                .observe(route, status, started.elapsed().as_micros() as u64);
            return;
        }

        // Shard execution manages its own response (it must be able to
        // *drop* the connection silently when the server is killed
        // mid-shard, simulating worker death for the coordinator).
        if route == "POST /shards" {
            let status = handle_shard(state, &request, &mut stream, conn);
            state
                .metrics
                .observe(route, status, started.elapsed().as_micros() as u64);
            return;
        }

        // Honor keep-alive unless the budget is spent or the server is
        // coming down (a closing response lets draining clients move on
        // immediately instead of discovering the drain on their next
        // request).
        let keep = served + 1 < budget
            && request.wants_keep_alive()
            && !state.stop.load(Ordering::Relaxed)
            && !state.graceful.load(Ordering::Relaxed);

        let (status, body, extra) = dispatch(state, &request, &peer_ip);
        state
            .metrics
            .observe(route, status, started.elapsed().as_micros() as u64);
        let extra_refs: Vec<(&str, String)> =
            extra.iter().map(|(n, v)| (n.as_str(), v.clone())).collect();
        if http::respond_json_conn(&mut stream, status, &body, &extra_refs, keep).is_err() || !keep
        {
            return;
        }
        // Subsequent requests on a reused connection wait at most the
        // keep-alive idle budget, not the full request timeout.
        let idle = state.config.keep_alive_idle.max(0.05);
        let _ = stream.set_read_timeout(Some(Duration::from_secs_f64(idle)));
    }
}

/// `POST /shards` (worker mode): execute one coordinator-dispatched
/// shard synchronously and persist its result to the shared store
/// before responding. Response statuses:
///
/// * `200` — result document (freshly computed or idempotently replayed
///   from the shared store when a reassigned shard already ran here);
/// * `400`/`422` — invalid request (the coordinator fails the job);
/// * `404` — this server is not in worker mode;
/// * `500` — deterministic execution failure (the coordinator fails the
///   job: retrying a deterministic failure elsewhere cannot help);
/// * `503` — draining; the shard is untainted, retry on another worker;
/// * *dropped connection* — the worker was killed mid-shard.
fn handle_shard(
    state: &Arc<ServiceState>,
    request: &Request,
    stream: &mut TcpStream,
    conn: u64,
) -> u16 {
    let answer = |stream: &mut TcpStream, status: u16, body: &Value| {
        let _ = http::respond_json(stream, status, body, &[]);
        status
    };
    let fail = |stream: &mut TcpStream, status: u16, message: &str| {
        answer(
            stream,
            status,
            &Value::Obj(vec![("error".to_string(), Value::Str(message.to_string()))]),
        )
    };
    if !state.config.worker {
        return fail(stream, 404, "this server is not a shard worker");
    }
    let parsed = std::str::from_utf8(&request.body)
        .map_err(|_| HttpError::new(400, "body is not UTF-8"))
        .and_then(|text| json::parse(text).map_err(|e| HttpError::new(400, e.message)))
        .and_then(|value| ShardRequest::from_json(&value));
    let shard_request = match parsed {
        Ok(shard_request) => shard_request,
        Err(e) => return fail(stream, e.status, &e.message),
    };
    let shared = state
        .config
        .shared_dir
        .clone()
        .unwrap_or_else(|| state.config.state_dir.clone());
    let store = match FsJobStore::open(&shared) {
        Ok(store) => store,
        Err(e) => return fail(stream, 500, &format!("shared store: {e}")),
    };
    // Idempotent replay: a reassigned shard may have completed here (or
    // on a sibling sharing the store) before the coordinator lost the
    // original response. The recompute would be bit-identical, so serve
    // the stored document straight back.
    if let Ok(Some(bytes)) = store.get(&shard_request.store_key) {
        if let Some(doc) = std::str::from_utf8(&bytes)
            .ok()
            .and_then(|text| json::parse(text).ok())
            .filter(|doc| shard::result_matches(doc, &shard_request))
        {
            return answer(stream, 200, &doc);
        }
    }

    // Deadline propagation: the coordinator forwards its job's remaining
    // wall budget as `X-Minpower-Deadline` (seconds); the shard adopts it
    // as a soft deadline, so work whose result nobody can use anymore
    // stops at the next poll boundary (answering 503, a transient the
    // coordinator classifies like any other). Bounded to a day so a
    // garbled header cannot disable the deadline entirely.
    let mut control = RunControl::new();
    if let Some(header) = request.header("x-minpower-deadline") {
        if let Ok(secs) = header.trim().parse::<f64>() {
            if secs.is_finite() && secs > 0.0 {
                control = control.with_deadline(Duration::from_secs_f64(secs.min(86_400.0)));
            }
        }
    }
    state
        .shard_controls
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(conn, control.clone());
    // Close the registration race: a drain that swept the control map
    // just before we inserted must still interrupt this shard.
    if state.stop.load(Ordering::Relaxed) || state.draining.load(Ordering::Relaxed) {
        control.cancel();
    }
    let outcome = shard::execute(&shard_request, state.config.max_gates, &control);
    state
        .shard_controls
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .remove(&conn);
    let killed = state.killed.load(Ordering::Relaxed);
    match outcome {
        Ok((doc, snapshot)) => {
            if killed {
                // Power loss: no persist, no response — the coordinator
                // observes a vanished worker and reassigns the shard.
                return 200;
            }
            // Persist-then-respond: once the coordinator hears 200, the
            // shard's result is durable in the shared store (best
            // effort — a failed write degrades this worker's health but
            // the response still carries the full document).
            match store.put(&shard_request.store_key, doc.render().as_bytes()) {
                Ok(()) => {
                    state.store_stats.count_store_write(0);
                    state.health.report_success();
                }
                Err(e) => state.health.report_failure(&e.to_string()),
            }
            state
                .finished_stats
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .merge(&snapshot);
            answer(stream, 200, &doc)
        }
        Err(ShardError::Interrupted) => {
            if killed {
                return 200;
            }
            let _ = http::respond_json(
                stream,
                503,
                &Value::Obj(vec![(
                    "error".to_string(),
                    Value::Str("worker draining; retry the shard elsewhere".to_string()),
                )]),
                &[("Retry-After", "1".to_string())],
            );
            503
        }
        Err(ShardError::Reject(e)) => fail(stream, e.status, &e.message),
        Err(ShardError::Failed(message)) => fail(stream, 500, &message),
    }
}

type Response = (u16, Value, Vec<(String, String)>);

fn error_response(status: u16, message: impl Into<String>) -> Response {
    (
        status,
        Value::Obj(vec![("error".to_string(), Value::Str(message.into()))]),
        Vec::new(),
    )
}

fn dispatch(state: &Arc<ServiceState>, request: &Request, peer_ip: &str) -> Response {
    let path = request.path.as_str();
    match (request.method.as_str(), path) {
        ("POST", "/jobs") => submit_job(state, request, peer_ip),
        ("GET", "/jobs") => list_jobs(state, request),
        ("POST", "/sessions") => create_session(state, request),
        ("GET", "/sessions") => list_sessions(state, request),
        (method, _) if path.starts_with("/sessions/") => {
            session_route(state, request, method, peer_ip)
        }
        ("GET", "/metrics") => metrics_endpoint(state),
        ("GET", "/healthz") => healthz_endpoint(state),
        ("POST", "/shutdown") => {
            state.stop.store(true, Ordering::Relaxed);
            (
                200,
                Value::Obj(vec![(
                    "status".to_string(),
                    Value::Str("draining".to_string()),
                )]),
                Vec::new(),
            )
        }
        (method, _) if path.starts_with("/jobs/") => {
            let id_part = &path["/jobs/".len()..];
            let id_text = id_part.strip_suffix("/events").unwrap_or(id_part);
            let Ok(id) = id_text.parse::<u64>() else {
                return error_response(404, format!("no such job `{id_part}`"));
            };
            let Some(job) = state.job(id) else {
                return error_response(404, format!("no job {id}"));
            };
            match (method, id_part.ends_with("/events")) {
                ("GET", false) => (200, job.status_json(), Vec::new()),
                ("DELETE", false) => {
                    job.cancel_by_user();
                    (
                        200,
                        Value::Obj(vec![
                            ("id".to_string(), Value::Int(id)),
                            (
                                "status".to_string(),
                                Value::Str(job.status().as_str().to_string()),
                            ),
                        ]),
                        Vec::new(),
                    )
                }
                _ => error_response(405, format!("{method} not allowed here")),
            }
        }
        _ => error_response(404, format!("no endpoint {} {path}", request.method)),
    }
}

/// Parses `?offset=&limit=` pagination with sane clamps.
fn pagination(request: &Request) -> Result<(usize, usize), Response> {
    let parse = |name: &str, fallback: usize| -> Result<usize, Response> {
        match request.query_param(name) {
            None | Some("") => Ok(fallback),
            Some(text) => text
                .parse::<usize>()
                .map_err(|_| error_response(400, format!("bad `{name}` value `{text}`"))),
        }
    };
    let offset = parse("offset", 0)?;
    let limit = parse("limit", 50)?.clamp(1, 500);
    Ok((offset, limit))
}

/// Wraps sorted listing rows in the `{total, offset, limit, sort,
/// items}` envelope shared by `GET /jobs` and `GET /sessions`. The
/// `sort` field names the stable key the rows are ordered by (ids are
/// monotonically assigned and never reused), so clients can page
/// without races: a row can appear twice across pages only if it was
/// created mid-walk, never because the order shifted.
fn paginate(rows: Vec<Value>, offset: usize, limit: usize) -> Response {
    let total = rows.len();
    let items: Vec<Value> = rows.into_iter().skip(offset).take(limit).collect();
    (
        200,
        Value::Obj(vec![
            ("total".to_string(), Value::Int(total as u64)),
            ("offset".to_string(), Value::Int(offset as u64)),
            ("limit".to_string(), Value::Int(limit as u64)),
            ("sort".to_string(), Value::Str("id".to_string())),
            ("items".to_string(), Value::Arr(items)),
        ]),
        Vec::new(),
    )
}

/// `GET /jobs`: paginated listing, sorted by id, one light row per job
/// (fetch `GET /jobs/{id}` for the full status document).
fn list_jobs(state: &Arc<ServiceState>, request: &Request) -> Response {
    let (offset, limit) = match pagination(request) {
        Ok(page) => page,
        Err(response) => return response,
    };
    let jobs = state.jobs.lock().unwrap_or_else(|e| e.into_inner());
    let mut ids: Vec<u64> = jobs.keys().copied().collect();
    ids.sort_unstable();
    let rows = ids
        .iter()
        .map(|id| {
            let job = &jobs[id];
            Value::Obj(vec![
                ("id".to_string(), Value::Int(*id)),
                (
                    "status".to_string(),
                    Value::Str(job.status().as_str().to_string()),
                ),
            ])
        })
        .collect();
    drop(jobs);
    paginate(rows, offset, limit)
}

/// `GET /sessions`: paginated listing, sorted by id. Cold sessions are
/// listed without being replayed.
fn list_sessions(state: &Arc<ServiceState>, request: &Request) -> Response {
    state.sessions.sweep_idle();
    let (offset, limit) = match pagination(request) {
        Ok(page) => page,
        Err(response) => return response,
    };
    paginate(state.sessions.list_rows(), offset, limit)
}

/// The `{id, revision, ...}` document answering session creation and
/// every applied op — the client's view of the warm state after the op.
fn outcome_json(id: u64, outcome: &OpOutcome, fc: f64) -> Value {
    Value::Obj(vec![
        ("id".to_string(), Value::Int(id)),
        ("revision".to_string(), Value::Int(outcome.revision)),
        ("feasible".to_string(), Value::Bool(outcome.feasible)),
        (
            "gates_touched".to_string(),
            Value::Int(outcome.gates_touched as u64),
        ),
        ("resized".to_string(), Value::Int(outcome.resized as u64)),
        ("dirty".to_string(), Value::Int(outcome.dirty as u64)),
        (
            "critical_delay".to_string(),
            Value::Float(outcome.critical_delay),
        ),
        ("cycle_time".to_string(), Value::Float(outcome.cycle_time)),
        (
            "energy".to_string(),
            Value::Obj(vec![
                ("static".to_string(), Value::Float(outcome.energy.static_)),
                ("dynamic".to_string(), Value::Float(outcome.energy.dynamic)),
                ("total".to_string(), Value::Float(outcome.energy.total())),
            ]),
        ),
        ("power".to_string(), Value::Float(outcome.energy.power(fc))),
    ])
}

/// `POST /sessions`: open a what-if session. `201` + the initial state
/// document; the session record is durable before the response.
fn create_session(state: &Arc<ServiceState>, request: &Request) -> Response {
    if state.draining.load(Ordering::Relaxed) || state.stop.load(Ordering::Relaxed) {
        return error_response(503, "server is draining");
    }
    state.sessions.sweep_idle();
    let tier = state.current_tier();
    if tier >= Tier::ShedSessions {
        state
            .govern
            .metrics
            .shed_sessions
            .fetch_add(1, Ordering::Relaxed);
        return shed_response(tier, "new sessions");
    }
    let text = match std::str::from_utf8(&request.body) {
        Ok(text) => text,
        Err(_) => return error_response(400, "body is not UTF-8"),
    };
    let value = match json::parse(text) {
        Ok(value) => value,
        Err(e) => return error_response(400, format!("bad JSON: {}", e.message)),
    };
    let spec = match SessionSpec::from_json(&value) {
        Ok(spec) => spec,
        Err(e) => return (e.status, error_body(&e), Vec::new()),
    };
    let fc = spec.params.fc;
    match state.sessions.create(spec) {
        Ok((id, outcome)) => {
            let mut doc = outcome_json(id, &outcome, fc);
            if let Value::Obj(fields) = &mut doc {
                fields.insert(1, ("status".to_string(), Value::Str("warm".to_string())));
            }
            (201, doc, Vec::new())
        }
        Err(e) => {
            let extra = if e.status == 429 {
                vec![("Retry-After".to_string(), "1".to_string())]
            } else {
                Vec::new()
            };
            (e.status, error_body(&e), extra)
        }
    }
}

/// `/sessions/{id}`, `/sessions/{id}/ops`, `/sessions/{id}/compact`:
/// snapshot, op, explicit compaction, teardown.
fn session_route(
    state: &Arc<ServiceState>,
    request: &Request,
    method: &str,
    peer_ip: &str,
) -> Response {
    state.sessions.sweep_idle();
    let id_part = &request.path["/sessions/".len()..];
    let (id_text, action) = if let Some(text) = id_part.strip_suffix("/ops") {
        (text, "ops")
    } else if let Some(text) = id_part.strip_suffix("/compact") {
        (text, "compact")
    } else {
        (id_part, "")
    };
    let Ok(id) = id_text.parse::<u64>() else {
        return error_response(404, format!("no such session `{id_part}`"));
    };
    match (method, action) {
        ("POST", "ops") => session_op(state, request, id, peer_ip),
        ("POST", "compact") => session_compact(state, id),
        ("GET", "") => session_snapshot(state, request, id),
        ("DELETE", "") => match state.sessions.delete(id) {
            Ok(reclaimed) => (
                200,
                Value::Obj(vec![
                    ("id".to_string(), Value::Int(id)),
                    ("status".to_string(), Value::Str("deleted".to_string())),
                    ("reclaimed_bytes".to_string(), Value::Int(reclaimed)),
                ]),
                Vec::new(),
            ),
            Err(e) => (e.status, error_body(&e), Vec::new()),
        },
        _ => error_response(405, format!("{method} not allowed here")),
    }
}

/// `429 + Retry-After` when a token bucket runs dry.
fn rate_limited_response(retry: u64, what: &str) -> Response {
    (
        429,
        Value::Obj(vec![(
            "error".to_string(),
            Value::Str(format!("rate limit exceeded ({what}); retry in {retry} s")),
        )]),
        vec![("Retry-After".to_string(), retry.to_string())],
    )
}

/// `503 + Retry-After` when the load governor refuses this work class.
fn shed_response(tier: Tier, what: &str) -> Response {
    (
        503,
        Value::Obj(vec![(
            "error".to_string(),
            Value::Str(format!(
                "shedding load (tier {}): {what} refused under memory pressure",
                tier.as_str()
            )),
        )]),
        vec![("Retry-After".to_string(), "2".to_string())],
    )
}

/// `POST /sessions/{id}/compact`: fold the op log into the snapshot now
/// instead of waiting for the quota trigger or the background sweep.
fn session_compact(state: &Arc<ServiceState>, id: u64) -> Response {
    let entry = match state.sessions.get(id) {
        Ok(entry) => entry,
        Err(e) => return (e.status, error_body(&e), Vec::new()),
    };
    match state.sessions.compact(&entry) {
        Ok((reclaimed, folded)) => (
            200,
            Value::Obj(vec![
                ("id".to_string(), Value::Int(id)),
                ("status".to_string(), Value::Str("compacted".to_string())),
                ("ops_folded".to_string(), Value::Int(folded)),
                ("reclaimed_bytes".to_string(), Value::Int(reclaimed)),
            ]),
            Vec::new(),
        ),
        Err(e) => {
            let extra = if e.status == 503 {
                vec![("Retry-After".to_string(), "1".to_string())]
            } else {
                Vec::new()
            };
            (e.status, error_body(&e), extra)
        }
    }
}

/// `POST /sessions/{id}/ops`: apply one edit op against warm state. The
/// op is journaled (fsynced) before the `200` — an acknowledged op
/// survives any crash.
fn session_op(state: &Arc<ServiceState>, request: &Request, id: u64, peer_ip: &str) -> Response {
    // Rate limits come first — they exist to keep a chatty client from
    // spending server cycles, parsing included.
    if let Err(retry) = state.govern.session_buckets.try_acquire(&id.to_string()) {
        state
            .govern
            .metrics
            .rate_limited_ops
            .fetch_add(1, Ordering::Relaxed);
        return rate_limited_response(retry, &format!("session {id} ops"));
    }
    if let Err(retry) = state.govern.client_buckets.try_acquire(peer_ip) {
        state
            .govern
            .metrics
            .rate_limited_ops
            .fetch_add(1, Ordering::Relaxed);
        return rate_limited_response(retry, &format!("client {peer_ip}"));
    }
    let entry = match state.sessions.get(id) {
        Ok(entry) => entry,
        Err(e) => return (e.status, error_body(&e), Vec::new()),
    };
    let text = match std::str::from_utf8(&request.body) {
        Ok(text) => text,
        Err(_) => return error_response(400, "body is not UTF-8"),
    };
    let value = match json::parse(text) {
        Ok(value) => value,
        Err(e) => return error_response(400, format!("bad JSON: {}", e.message)),
    };
    let op = match SessionOp::from_json(&value) {
        Ok(op) => op,
        Err(e) => return error_response(400, e.message),
    };
    match state.sessions.apply(&entry, &op) {
        Ok(outcome) => {
            let fc = state
                .sessions
                .with_state(&entry, |s, _| s.fc())
                .unwrap_or(entry.spec.params.fc);
            (200, outcome_json(id, &outcome, fc), Vec::new())
        }
        Err(e) => {
            let extra = if e.status == 503 {
                vec![("Retry-After".to_string(), "1".to_string())]
            } else {
                Vec::new()
            };
            (e.status, error_body(&e), extra)
        }
    }
}

/// `GET /sessions/{id}`: current-state summary, with the op-log length
/// and the on-disk snapshot bytes (`snap` plus `snap.1`); `?detail=gates`
/// appends the full deterministic JSON snapshot (hex-bits floats, so
/// string equality is bit equality).
fn session_snapshot(state: &Arc<ServiceState>, request: &Request, id: u64) -> Response {
    let entry = match state.sessions.get(id) {
        Ok(entry) => entry,
        Err(e) => return (e.status, error_body(&e), Vec::new()),
    };
    let detail = request.query_param("detail") == Some("gates");
    let result = state.sessions.with_state(&entry, |s, disk| {
        let outcome = OpOutcome {
            revision: s.revision(),
            gates_touched: 0,
            resized: 0,
            feasible: s.feasible(),
            critical_delay: s.critical_delay(),
            cycle_time: s.cycle_time(),
            energy: s.energy(),
            dirty: s.dirty().len(),
        };
        let mut doc = outcome_json(id, &outcome, s.fc());
        if let Value::Obj(fields) = &mut doc {
            fields.insert(1, ("ops".to_string(), Value::Int(disk.ops_logged)));
            fields.insert(2, ("snap_bytes".to_string(), Value::Int(disk.snap_bytes)));
            if detail {
                fields.push(("state".to_string(), s.snapshot()));
            }
        }
        doc
    });
    match result {
        Ok(doc) => (200, doc, Vec::new()),
        Err(e) => (e.status, error_body(&e), Vec::new()),
    }
}

fn submit_job(state: &Arc<ServiceState>, request: &Request, peer_ip: &str) -> Response {
    if state.draining.load(Ordering::Relaxed) || state.stop.load(Ordering::Relaxed) {
        return error_response(503, "server is draining");
    }
    let tier = state.current_tier();
    if tier >= Tier::ShedJobs {
        state
            .govern
            .metrics
            .shed_jobs
            .fetch_add(1, Ordering::Relaxed);
        return shed_response(tier, "new jobs");
    }
    if let Err(retry) = state.govern.client_buckets.try_acquire(peer_ip) {
        state
            .govern
            .metrics
            .rate_limited_jobs
            .fetch_add(1, Ordering::Relaxed);
        return rate_limited_response(retry, &format!("client {peer_ip}"));
    }
    let text = match std::str::from_utf8(&request.body) {
        Ok(text) => text,
        Err(_) => return error_response(400, "body is not UTF-8"),
    };
    let value = match json::parse(text) {
        Ok(value) => value,
        Err(e) => return error_response(400, format!("bad JSON: {}", e.message)),
    };
    let spec = match job::JobSpec::from_json(&value) {
        Ok(spec) => spec,
        Err(e) => return (e.status, error_body(&e), Vec::new()),
    };
    // Admission: build (and size-check) the problem *before* queueing so
    // an oversized or malformed netlist never occupies a queue slot.
    if let Err(e) = spec.build(state.config.max_gates) {
        return (e.status, error_body(&e), Vec::new());
    }

    // Degraded-mode gate: while the store is latched read-only, probe it
    // — if writes still fail, refuse new work with a retry hint (the
    // probe doubles as the auto-recovery path once the disk comes back).
    if state.health.is_degraded() && !state.probe_store() {
        let (_, reason) = state.health.status();
        return degraded_response(&reason);
    }

    let id = state.next_id.fetch_add(1, Ordering::Relaxed);
    let job = Arc::new(Job::new(id, spec));
    if state.persist_job(&job, "pending", None, None).is_err() {
        let (_, reason) = state.health.status();
        return degraded_response(&reason);
    }
    state
        .jobs
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(id, job.clone());
    match state.queue.push(job) {
        Pushed::Admitted(depth) => (
            202,
            Value::Obj(vec![
                ("id".to_string(), Value::Int(id)),
                ("status".to_string(), Value::Str("queued".to_string())),
                ("queue_depth".to_string(), Value::Int(depth as u64)),
            ]),
            Vec::new(),
        ),
        Pushed::Full => {
            state
                .metrics
                .rejected_queue_full
                .fetch_add(1, Ordering::Relaxed);
            state
                .jobs
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .remove(&id);
            store::remove_generations(&job::job_file(&state.config.state_dir, id));
            (
                429,
                Value::Obj(vec![(
                    "error".to_string(),
                    Value::Str(format!(
                        "queue is full ({} jobs waiting)",
                        state.config.queue_depth
                    )),
                )]),
                vec![("Retry-After".to_string(), "1".to_string())],
            )
        }
    }
}

fn error_body(e: &HttpError) -> Value {
    Value::Obj(vec![("error".to_string(), Value::Str(e.message.clone()))])
}

/// `503 + Retry-After` while the store cannot accept durable writes.
fn degraded_response(reason: &str) -> Response {
    (
        503,
        Value::Obj(vec![(
            "error".to_string(),
            Value::Str(format!(
                "service is degraded (read-only): {}",
                if reason.is_empty() {
                    "durable writes are failing"
                } else {
                    reason
                }
            )),
        )]),
        vec![("Retry-After".to_string(), "5".to_string())],
    )
}

/// `GET /healthz`: `ok` or `degraded` + reason — degraded either when
/// the durable store is latched read-only or when the load governor is
/// in a shedding tier. While store-degraded, each health check probes
/// the store so recovery is observed promptly; the shedding tier clears
/// itself as the pressure sweep evicts warm state.
fn healthz_endpoint(state: &Arc<ServiceState>) -> Response {
    if state.health.is_degraded() {
        state.probe_store();
    }
    let (store_degraded, reason) = state.health.status();
    let tier = state.current_tier();
    let degraded = store_degraded || tier >= Tier::ShedSessions;
    let mut fields = vec![(
        "status".to_string(),
        Value::Str(if degraded { "degraded" } else { "ok" }.to_string()),
    )];
    if store_degraded {
        fields.push(("reason".to_string(), Value::Str(reason)));
    } else if degraded {
        fields.push((
            "reason".to_string(),
            Value::Str(format!("memory pressure: shedding ({})", tier.as_str())),
        ));
    }
    fields.push(("tier".to_string(), Value::Str(tier.as_str().to_string())));
    fields.push((
        "warm_bytes".to_string(),
        Value::Int(state.sessions.metrics.warm_bytes.load(Ordering::Relaxed)),
    ));
    fields.push((
        "mem_budget_bytes".to_string(),
        Value::Int(state.govern.governor.mem_budget()),
    ));
    fields.push((
        "degraded_seconds".to_string(),
        Value::Int(state.health.degraded_seconds()),
    ));
    (200, Value::Obj(fields), Vec::new())
}

fn metrics_endpoint(state: &Arc<ServiceState>) -> Response {
    let engine = state.merged_engine_stats();
    let jobs = state.jobs.lock().unwrap_or_else(|e| e.into_inner());
    let mut by_status = [0u64; 6];
    for job in jobs.values() {
        let idx = match job.status() {
            JobStatus::Queued => 0,
            JobStatus::Running => 1,
            JobStatus::Done => 2,
            JobStatus::Failed => 3,
            JobStatus::Cancelled => 4,
            JobStatus::Interrupted => 5,
        };
        by_status[idx] += 1;
    }
    drop(jobs);
    let doc = Value::Obj(vec![
        (
            "queue_depth".to_string(),
            Value::Int(state.queue.len() as u64),
        ),
        (
            "jobs".to_string(),
            Value::Obj(
                [
                    "queued",
                    "running",
                    "done",
                    "failed",
                    "cancelled",
                    "interrupted",
                ]
                .iter()
                .zip(by_status)
                .map(|(name, n)| ((*name).to_string(), Value::Int(n)))
                .collect(),
            ),
        ),
        (
            "engine".to_string(),
            Value::Obj(vec![
                (
                    "circuit_evals".to_string(),
                    Value::Int(engine.circuit_evals),
                ),
                ("sta_calls".to_string(), Value::Int(engine.sta_calls)),
                ("cache_hits".to_string(), Value::Int(engine.cache_hits)),
                ("cache_misses".to_string(), Value::Int(engine.cache_misses)),
                (
                    "incremental_commits".to_string(),
                    Value::Int(engine.incremental_commits),
                ),
                (
                    "sta_fallbacks".to_string(),
                    Value::Int(engine.sta_fallbacks),
                ),
                (
                    "deadline_trips".to_string(),
                    Value::Int(engine.deadline_trips),
                ),
                (
                    "checkpoints_written".to_string(),
                    Value::Int(engine.checkpoints_written),
                ),
                (
                    "checkpoint_bytes".to_string(),
                    Value::Int(engine.checkpoint_bytes),
                ),
                (
                    "panics_recovered".to_string(),
                    Value::Int(engine.panics_recovered),
                ),
            ]),
        ),
        (
            "store".to_string(),
            Value::Obj(vec![
                ("writes".to_string(), Value::Int(engine.store_writes)),
                ("retries".to_string(), Value::Int(engine.store_retries)),
                (
                    "quarantined".to_string(),
                    Value::Int(engine.store_quarantined),
                ),
                (
                    "degraded_seconds".to_string(),
                    Value::Int(engine.store_degraded_seconds),
                ),
                (
                    "degraded".to_string(),
                    Value::Bool(state.health.is_degraded()),
                ),
            ]),
        ),
        ("sessions".to_string(), session_metrics_json(state)),
        ("govern".to_string(), govern_metrics_json(state)),
        ("http".to_string(), state.metrics.to_json()),
    ]);
    (200, doc, Vec::new())
}

/// The `govern` section of `GET /metrics`: the shedding tier, budgets,
/// and the rate-limit/shed counters.
fn govern_metrics_json(state: &Arc<ServiceState>) -> Value {
    let gm = &state.govern.metrics;
    Value::Obj(vec![
        (
            "tier".to_string(),
            Value::Str(state.current_tier().as_str().to_string()),
        ),
        (
            "mem_budget_bytes".to_string(),
            Value::Int(state.govern.governor.mem_budget()),
        ),
        (
            "rate_limited_ops".to_string(),
            Value::Int(gm.rate_limited_ops.load(Ordering::Relaxed)),
        ),
        (
            "rate_limited_jobs".to_string(),
            Value::Int(gm.rate_limited_jobs.load(Ordering::Relaxed)),
        ),
        (
            "shed_sessions".to_string(),
            Value::Int(gm.shed_sessions.load(Ordering::Relaxed)),
        ),
        (
            "shed_jobs".to_string(),
            Value::Int(gm.shed_jobs.load(Ordering::Relaxed)),
        ),
        (
            "pressure_evictions".to_string(),
            Value::Int(gm.pressure_evictions.load(Ordering::Relaxed)),
        ),
    ])
}

/// The `sessions` section of `GET /metrics`: open/warm gauges, the
/// `session.*` counters, and op-latency p50/p99 derived from the
/// `POST /sessions/{id}/ops` route histogram.
fn session_metrics_json(state: &Arc<ServiceState>) -> Value {
    let (open, warm) = state.sessions.counts();
    let sm = &state.sessions.metrics;
    let (p50, p99) = state
        .metrics
        .route_histogram("POST /sessions/{id}/ops")
        .map(|h| (h.quantile_us(0.5), h.quantile_us(0.99)))
        .unwrap_or((0, 0));
    Value::Obj(vec![
        ("open".to_string(), Value::Int(open)),
        ("warm".to_string(), Value::Int(warm)),
        (
            "ops_served".to_string(),
            Value::Int(sm.ops_served.load(Ordering::Relaxed)),
        ),
        (
            "replays".to_string(),
            Value::Int(sm.replays.load(Ordering::Relaxed)),
        ),
        (
            "evictions".to_string(),
            Value::Int(sm.evictions.load(Ordering::Relaxed)),
        ),
        (
            "checkpoints".to_string(),
            Value::Int(sm.checkpoints.load(Ordering::Relaxed)),
        ),
        (
            "snapshot_bytes".to_string(),
            Value::Int(sm.snapshot_bytes.load(Ordering::Relaxed)),
        ),
        (
            "oplog_truncated".to_string(),
            Value::Int(sm.oplog_truncated.load(Ordering::Relaxed)),
        ),
        (
            "compactions".to_string(),
            Value::Int(sm.compactions.load(Ordering::Relaxed)),
        ),
        (
            "reclaimed_bytes".to_string(),
            Value::Int(sm.reclaimed_bytes.load(Ordering::Relaxed)),
        ),
        (
            "quota_rejected".to_string(),
            Value::Int(sm.quota_rejected.load(Ordering::Relaxed)),
        ),
        (
            "warm_bytes".to_string(),
            Value::Int(sm.warm_bytes.load(Ordering::Relaxed)),
        ),
        (
            "disk_bytes".to_string(),
            Value::Int(sm.disk_bytes.load(Ordering::Relaxed)),
        ),
        ("op_p50_us".to_string(), Value::Int(p50)),
        ("op_p99_us".to_string(), Value::Int(p99)),
    ])
}

/// `GET /jobs/{id}/events`: NDJSON progress stream fed from the job's
/// run-control observer counters; one `progress` line whenever the poll
/// counter advances, a final `end` line at a terminal state. Returns the
/// HTTP status recorded in metrics.
fn stream_events(state: &Arc<ServiceState>, request: &Request, stream: &mut TcpStream) -> u16 {
    use std::io::Write as _;
    let id_part = &request.path["/jobs/".len()..];
    let id_text = id_part.strip_suffix("/events").unwrap_or(id_part);
    let Some(job) = id_text.parse::<u64>().ok().and_then(|id| state.job(id)) else {
        let _ = http::respond_error(
            stream,
            &HttpError::new(404, format!("no such job `{id_part}`")),
        );
        return 404;
    };
    if http::start_ndjson(stream).is_err() {
        return 500;
    }
    let mut last_polls = u64::MAX;
    loop {
        let status = job.status();
        let terminal = !matches!(status, JobStatus::Queued | JobStatus::Running);
        let polls = job.polls.load(Ordering::Relaxed);
        if polls != last_polls && !terminal {
            last_polls = polls;
            let line = Value::Obj(vec![
                ("event".to_string(), Value::Str("progress".to_string())),
                (
                    "status".to_string(),
                    Value::Str(status.as_str().to_string()),
                ),
                ("polls".to_string(), Value::Int(polls)),
                (
                    "elapsed_secs".to_string(),
                    Value::Float(job.elapsed_ms.load(Ordering::Relaxed) as f64 / 1e3),
                ),
            ]);
            if stream
                .write_all(format!("{}\n", line.render()).as_bytes())
                .is_err()
            {
                return 200; // client went away
            }
        }
        if terminal {
            let line = Value::Obj(vec![
                ("event".to_string(), Value::Str("end".to_string())),
                (
                    "status".to_string(),
                    Value::Str(status.as_str().to_string()),
                ),
            ]);
            let _ = stream.write_all(format!("{}\n", line.render()).as_bytes());
            let _ = stream.flush();
            return 200;
        }
        if state.killed.load(Ordering::Relaxed) {
            return 200;
        }
        std::thread::sleep(Duration::from_millis(15));
    }
}
