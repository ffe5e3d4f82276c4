//! Job specifications, lifecycle state, and on-disk persistence.
//!
//! A job is one optimization run submitted over HTTP. Its whole
//! lifecycle lives here:
//!
//! * [`JobSpec`] — the validated submission (circuit source + options),
//!   JSON round-trippable so a persisted job rebuilds the *identical*
//!   problem after a restart (floats survive bitwise via the shortest
//!   round-trip rendering of [`minpower_core::json`]);
//! * [`Job`] — the in-memory record: a [`RunControl`] for cancellation,
//!   progress counters fed by the control's observer, and a state
//!   machine ([`JobState`]) guarded by a mutex;
//! * persistence — `job-<id>.json` files written crash-safely through
//!   [`minpower_core::store`] (CRC32 envelope, fsync, atomic rename,
//!   `.1` fallback generation). A job file stays `pending` until
//!   the run reaches a *terminal* state, so a crashed or killed server
//!   finds every unfinished job on disk and resumes it from its
//!   probe journal (`job-<id>.journal`).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use minpower_core::json::{self, Value};
use minpower_core::store;
use minpower_core::{OptimizeError, Problem, RunControl, SearchOptions};
use minpower_models::CircuitModel;
use minpower_netlist::Netlist;

use crate::http::HttpError;

/// The circuit payload of a submission.
#[derive(Debug, Clone, PartialEq)]
pub enum Source {
    /// A named circuit from the built-in benchmark suite.
    Suite(String),
    /// Inline ISCAS `.bench` text.
    Bench(String),
    /// Inline structural-Verilog text.
    Verilog(String),
}

/// A validated job submission: circuit source plus the same options the
/// CLI's `optimize` command takes.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Where the netlist comes from.
    pub source: Source,
    /// Clock frequency, hertz.
    pub fc: f64,
    /// Uniform input transition density, in `[0, 1]`.
    pub activity: f64,
    /// Clock-skew factor in `(0, 1]`.
    pub skew: f64,
    /// Binary-search steps per variable.
    pub steps: usize,
    /// Number of threshold groups.
    pub vt_groups: usize,
    /// Threshold-tolerance margin.
    pub tolerance: f64,
    /// Width-sizing method, `"budgeted"` or `"greedy"`.
    pub sizing: minpower_core::SizingMethod,
    /// Per-job soft deadline, seconds (`0` = none; the server may cap it).
    pub time_limit: f64,
    /// Queue priority; higher dequeues first.
    pub priority: u64,
    /// Gate rows in the result's `top_gates` table.
    pub top_gates: usize,
}

fn opt_number(obj: &json::Obj<'_>, name: &str, default: f64) -> Result<f64, HttpError> {
    match obj.opt(name) {
        None => Ok(default),
        Some(v) => v
            .as_number(name)
            .map_err(|e| HttpError::new(400, e.message)),
    }
}

fn opt_usize(obj: &json::Obj<'_>, name: &str, default: usize) -> Result<usize, HttpError> {
    match obj.opt(name) {
        None => Ok(default),
        Some(v) => Ok(v.as_u64(name).map_err(|e| HttpError::new(400, e.message))? as usize),
    }
}

impl JobSpec {
    /// Parses a submission body. Unknown options are rejected (a typo'd
    /// option must fail loudly, not silently run with defaults), and
    /// numeric ranges are validated here so admission control can answer
    /// `400` before the job ever touches the queue.
    ///
    /// # Errors
    ///
    /// [`HttpError`] with status 400 naming the offending field.
    pub fn from_json(value: &Value) -> Result<JobSpec, HttpError> {
        let Value::Obj(raw) = value else {
            return Err(HttpError::new(400, "job spec must be a JSON object"));
        };
        let obj = value
            .as_obj("job spec")
            .map_err(|e| HttpError::new(400, e.message))?;
        const KNOWN: &[&str] = &[
            "circuit",
            "bench",
            "verilog",
            "fc",
            "activity",
            "skew",
            "steps",
            "vt_groups",
            "tolerance",
            "sizing",
            "time_limit",
            "priority",
            "top_gates",
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
        let spec = JobSpec {
            source,
            fc: opt_number(&obj, "fc", 300.0e6)?,
            activity: opt_number(&obj, "activity", 0.3)?,
            skew: opt_number(&obj, "skew", 1.0)?,
            steps: opt_usize(&obj, "steps", 14)?,
            vt_groups: opt_usize(&obj, "vt_groups", 1)?,
            tolerance: opt_number(&obj, "tolerance", 0.0)?,
            sizing: match text("sizing")?.as_deref() {
                None | Some("budgeted") => minpower_core::SizingMethod::Budgeted,
                Some("greedy") => minpower_core::SizingMethod::Greedy,
                Some(other) => {
                    return Err(HttpError::new(
                        400,
                        format!("`sizing` must be `budgeted` or `greedy`, got `{other}`"),
                    ))
                }
            },
            time_limit: opt_number(&obj, "time_limit", 0.0)?,
            priority: match obj.opt("priority") {
                None => 0,
                Some(v) => v
                    .as_u64("priority")
                    .map_err(|e| HttpError::new(400, e.message))?,
            },
            top_gates: opt_usize(&obj, "top_gates", 0)?,
        };
        if !spec.fc.is_finite() || spec.fc <= 0.0 {
            return Err(HttpError::new(400, "`fc` must be finite and positive"));
        }
        if !(0.0..=1.0).contains(&spec.activity) {
            return Err(HttpError::new(400, "`activity` must lie in [0, 1]"));
        }
        if !(spec.skew > 0.0 && spec.skew <= 1.0) {
            return Err(HttpError::new(400, "`skew` must lie in (0, 1]"));
        }
        if spec.time_limit < 0.0 || !spec.time_limit.is_finite() {
            return Err(HttpError::new(
                400,
                "`time_limit` must be finite and non-negative",
            ));
        }
        Ok(spec)
    }

    /// Renders the spec back to its submission JSON (bitwise faithful
    /// for the float fields), used for the persisted job file.
    pub fn to_json(&self) -> Value {
        let mut fields = vec![match &self.source {
            Source::Suite(name) => ("circuit".to_string(), Value::Str(name.clone())),
            Source::Bench(text) => ("bench".to_string(), Value::Str(text.clone())),
            Source::Verilog(text) => ("verilog".to_string(), Value::Str(text.clone())),
        }];
        fields.extend([
            ("fc".to_string(), Value::Float(self.fc)),
            ("activity".to_string(), Value::Float(self.activity)),
            ("skew".to_string(), Value::Float(self.skew)),
            ("steps".to_string(), Value::Int(self.steps as u64)),
            ("vt_groups".to_string(), Value::Int(self.vt_groups as u64)),
            ("tolerance".to_string(), Value::Float(self.tolerance)),
            (
                "sizing".to_string(),
                Value::Str(
                    match self.sizing {
                        minpower_core::SizingMethod::Budgeted => "budgeted",
                        minpower_core::SizingMethod::Greedy => "greedy",
                    }
                    .to_string(),
                ),
            ),
            ("time_limit".to_string(), Value::Float(self.time_limit)),
            ("priority".to_string(), Value::Int(self.priority)),
            ("top_gates".to_string(), Value::Int(self.top_gates as u64)),
        ]);
        Value::Obj(fields)
    }

    /// Resolves the netlist from the source. Parse failures are `400`;
    /// an unknown suite name is `404`-flavored but still a client error,
    /// reported as `400` with the suite hint.
    ///
    /// # Errors
    ///
    /// [`HttpError`] describing the malformed or unknown circuit.
    pub fn netlist(&self) -> Result<Netlist, HttpError> {
        resolve_netlist(&self.source)
    }

    /// Builds the optimization problem and search options, enforcing the
    /// server's `max_gates` admission cap (`422`: syntactically fine,
    /// semantically too large for this deployment).
    ///
    /// # Errors
    ///
    /// [`HttpError`] with 400 for invalid inputs, 422 for oversized
    /// netlists.
    pub fn build(&self, max_gates: usize) -> Result<(Problem, SearchOptions), HttpError> {
        let netlist = self.netlist()?;
        let gates = netlist.logic_gate_count();
        if gates > max_gates {
            return Err(HttpError::new(
                422,
                format!("netlist has {gates} logic gates; this server admits at most {max_gates}"),
            ));
        }
        let model = CircuitModel::with_uniform_activity(
            &netlist,
            minpower_device::Technology::dac97(),
            0.5,
            self.activity,
        );
        let problem = Problem::try_new(model, self.fc)
            .map_err(|e| HttpError::new(400, e.to_string()))?
            .with_clock_skew(self.skew);
        let options = SearchOptions {
            steps: self.steps,
            vt_groups: self.vt_groups,
            vt_tolerance: self.tolerance,
            sizing: self.sizing,
            ..SearchOptions::default()
        };
        Ok((problem, options))
    }
}

/// Resolves a circuit [`Source`] into a netlist (shared by job and
/// session specs). Parse failures and unknown suite names are `400`.
///
/// # Errors
///
/// [`HttpError`] describing the malformed or unknown circuit.
pub fn resolve_netlist(source: &Source) -> Result<Netlist, HttpError> {
    match source {
        Source::Suite(name) => {
            if name == "c17" {
                return Ok(minpower_circuits::c17());
            }
            minpower_circuits::circuit(name)
                .ok_or_else(|| HttpError::new(400, format!("unknown suite circuit `{name}`")))
        }
        Source::Bench(text) => minpower_netlist::bench::parse("job", text)
            .map_err(|e| HttpError::new(400, format!("bad .bench source: {e}"))),
        Source::Verilog(text) => minpower_netlist::verilog::parse(text)
            .map_err(|e| HttpError::new(400, format!("bad Verilog source: {e}"))),
    }
}

/// Coarse job status exposed over the API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is optimizing it.
    Running,
    /// Finished with a result.
    Done,
    /// Failed with a typed error.
    Failed,
    /// Cancelled by `DELETE /jobs/{id}`.
    Cancelled,
    /// Stopped by deadline or server drain before converging.
    Interrupted,
}

impl JobStatus {
    /// Wire name of the status.
    pub fn as_str(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
            JobStatus::Cancelled => "cancelled",
            JobStatus::Interrupted => "interrupted",
        }
    }
}

/// Full lifecycle state, including terminal payloads.
#[derive(Debug, Clone)]
pub enum JobState {
    /// Waiting in the queue.
    Queued,
    /// Being optimized.
    Running,
    /// Completed; carries the `minpower-result` document.
    Done(Value),
    /// Errored; carries the message.
    Failed(String),
    /// Cancelled by the client; carries the delay-feasible best-so-far
    /// design if one had been found.
    Cancelled(Option<Value>),
    /// Interrupted (deadline or drain). `resumable` marks a drain
    /// interruption whose persisted file stayed `pending`, so a
    /// restarted server picks the job up from its checkpoint.
    Interrupted {
        /// Why the run stopped.
        message: String,
        /// Best-so-far result document, if any.
        partial: Option<Value>,
        /// Whether a restart will resume this job.
        resumable: bool,
    },
}

impl JobState {
    fn status(&self) -> JobStatus {
        match self {
            JobState::Queued => JobStatus::Queued,
            JobState::Running => JobStatus::Running,
            JobState::Done(_) => JobStatus::Done,
            JobState::Failed(_) => JobStatus::Failed,
            JobState::Cancelled(_) => JobStatus::Cancelled,
            JobState::Interrupted { .. } => JobStatus::Interrupted,
        }
    }
}

/// One submitted job: spec, run control, progress counters, state.
pub struct Job {
    /// Server-assigned identifier.
    pub id: u64,
    /// The validated submission.
    pub spec: JobSpec,
    /// Shared cancel token + deadline carrier; `DELETE` and server drain
    /// both cancel through (clones of) this control.
    pub control: RunControl,
    /// Set when the cancellation came from `DELETE /jobs/{id}` (to
    /// distinguish client cancel from server drain).
    pub user_cancelled: AtomicBool,
    /// Latest poll index reported by the progress observer.
    pub polls: AtomicU64,
    /// Latest elapsed time reported by the observer, milliseconds.
    pub elapsed_ms: AtomicU64,
    /// Probe-journal batches this server run has written for the job.
    pub checkpoints_written: AtomicU64,
    /// Bytes those batches put on disk.
    pub checkpoint_bytes: AtomicU64,
    state: Mutex<JobState>,
}

impl Job {
    /// A freshly admitted job in the `Queued` state.
    pub fn new(id: u64, spec: JobSpec) -> Self {
        Job {
            id,
            spec,
            control: RunControl::new(),
            user_cancelled: AtomicBool::new(false),
            polls: AtomicU64::new(0),
            elapsed_ms: AtomicU64::new(0),
            checkpoints_written: AtomicU64::new(0),
            checkpoint_bytes: AtomicU64::new(0),
            state: Mutex::new(JobState::Queued),
        }
    }

    /// Current coarse status.
    pub fn status(&self) -> JobStatus {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .status()
    }

    /// Replaces the lifecycle state.
    pub fn set_state(&self, state: JobState) {
        *self.state.lock().unwrap_or_else(|e| e.into_inner()) = state;
    }

    /// A clone of the full state.
    pub fn state(&self) -> JobState {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Requests cancellation on behalf of the client.
    pub fn cancel_by_user(&self) {
        self.user_cancelled.store(true, Ordering::Relaxed);
        self.control.cancel();
        // A job still waiting in the queue will never run; mark it
        // terminal right away (the queue skips cancelled entries).
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if matches!(*state, JobState::Queued) {
            *state = JobState::Cancelled(None);
        }
    }

    /// The `GET /jobs/{id}` response document.
    pub fn status_json(&self) -> Value {
        let state = self.state();
        let mut fields = vec![
            ("id".to_string(), Value::Int(self.id)),
            (
                "status".to_string(),
                Value::Str(state.status().as_str().to_string()),
            ),
            (
                "polls".to_string(),
                Value::Int(self.polls.load(Ordering::Relaxed)),
            ),
            (
                "elapsed_secs".to_string(),
                Value::Float(self.elapsed_ms.load(Ordering::Relaxed) as f64 / 1e3),
            ),
            (
                "checkpoints_written".to_string(),
                Value::Int(self.checkpoints_written.load(Ordering::Relaxed)),
            ),
            (
                "checkpoint_bytes".to_string(),
                Value::Int(self.checkpoint_bytes.load(Ordering::Relaxed)),
            ),
        ];
        match state {
            JobState::Done(result) => fields.push(("result".to_string(), result)),
            JobState::Failed(message) => {
                fields.push(("error".to_string(), Value::Str(message)));
            }
            JobState::Cancelled(partial) => {
                fields.push(("result".to_string(), partial.unwrap_or(Value::Null)));
            }
            JobState::Interrupted {
                message,
                partial,
                resumable,
            } => {
                fields.push(("error".to_string(), Value::Str(message)));
                fields.push(("result".to_string(), partial.unwrap_or(Value::Null)));
                fields.push(("resumable".to_string(), Value::Bool(resumable)));
            }
            JobState::Queued | JobState::Running => {}
        }
        Value::Obj(fields)
    }
}

/// Path of the persisted job record.
pub fn job_file(state_dir: &Path, id: u64) -> PathBuf {
    state_dir.join(format!("job-{id}.json"))
}

/// Path of the job's probe journal (its optimizer checkpoint).
pub fn checkpoint_file(state_dir: &Path, id: u64) -> PathBuf {
    state_dir.join(format!("job-{id}.journal"))
}

/// Writes the job record crash-safely through `minpower_core::store`
/// (CRC32 envelope, fsync, atomic rename, previous record kept as the
/// `.1` generation). `status` is the *persisted* disposition — a job
/// interrupted by drain is persisted `pending` so the next server run
/// resumes it. Returns the write's retry telemetry.
///
/// # Errors
///
/// [`OptimizeError::Checkpoint`] once the store's retry budget is
/// exhausted.
pub fn persist(
    state_dir: &Path,
    job: &Job,
    status: &str,
    result: Option<&Value>,
    error: Option<&str>,
) -> Result<store::WriteReport, OptimizeError> {
    let doc = Value::Obj(vec![
        ("schema".to_string(), Value::Str("minpower-job".to_string())),
        ("version".to_string(), Value::Int(1)),
        ("id".to_string(), Value::Int(job.id)),
        ("spec".to_string(), job.spec.to_json()),
        ("status".to_string(), Value::Str(status.to_string())),
        ("result".to_string(), result.cloned().unwrap_or(Value::Null)),
        (
            "error".to_string(),
            error.map_or(Value::Null, |e| Value::Str(e.to_string())),
        ),
    ]);
    let path = job_file(state_dir, job.id);
    Ok(store::write_durable(&path, doc.render().as_bytes())?)
}

/// A job record loaded back from disk at startup.
pub struct LoadedJob {
    /// Persisted identifier.
    pub id: u64,
    /// The original submission.
    pub spec: JobSpec,
    /// Persisted disposition (`pending` or a terminal status).
    pub status: String,
    /// Persisted result document, if any.
    pub result: Option<Value>,
    /// Persisted error message, if any.
    pub error: Option<String>,
}

/// Loads every `job-*.json` record in `state_dir`, verifying each
/// through the store (CRC frame when present, `.1`-generation fallback
/// when the primary is corrupt) and skipping records that still fail to
/// parse — the startup recovery audit has already quarantined anything
/// corrupt, so a skip here is pure defensiveness.
pub fn load_dir(state_dir: &Path) -> Vec<LoadedJob> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(state_dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if !name.starts_with("job-") || !name.ends_with(".json") {
            continue;
        }
        let Ok(loaded) = store::read_with_fallback(&entry.path()) else {
            continue;
        };
        let Ok(text) = String::from_utf8(loaded.payload) else {
            continue;
        };
        if let Some(job) = parse_record(&text) {
            out.push(job);
        }
    }
    out.sort_by_key(|j| j.id);
    out
}

fn parse_record(text: &str) -> Option<LoadedJob> {
    let value = json::parse(text).ok()?;
    let obj = value.as_obj("job record").ok()?;
    if obj.req("schema").ok()?.as_str("schema").ok()? != "minpower-job" {
        return None;
    }
    let spec = JobSpec::from_json(obj.req("spec").ok()?).ok()?;
    Some(LoadedJob {
        id: obj.req("id").ok()?.as_u64("id").ok()?,
        spec,
        status: obj.req("status").ok()?.as_str("status").ok()?.to_string(),
        result: obj.opt("result").cloned(),
        error: obj
            .opt("error")
            .and_then(|v| v.as_str("error").ok())
            .map(str::to_string),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_value(text: &str) -> Value {
        json::parse(text).unwrap()
    }

    #[test]
    fn spec_round_trips_bitwise() {
        let v = spec_value(r#"{"circuit":"c17","fc":312500000.5,"activity":0.2875,"steps":9}"#);
        let spec = JobSpec::from_json(&v).unwrap();
        assert_eq!(spec.fc.to_bits(), 312500000.5f64.to_bits());
        let back = JobSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn unknown_option_is_rejected() {
        let v = spec_value(r#"{"circuit":"c17","stepz":9}"#);
        let err = JobSpec::from_json(&v).unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("stepz"));
    }

    #[test]
    fn exactly_one_source_is_required() {
        for body in [r#"{}"#, r#"{"circuit":"c17","bench":"INPUT(a)"}"#] {
            let err = JobSpec::from_json(&spec_value(body)).unwrap_err();
            assert_eq!(err.status, 400);
        }
    }

    #[test]
    fn range_validation_rejects_bad_numbers() {
        for body in [
            r#"{"circuit":"c17","fc":-1}"#,
            r#"{"circuit":"c17","activity":1.5}"#,
            r#"{"circuit":"c17","skew":0}"#,
            r#"{"circuit":"c17","time_limit":-2}"#,
        ] {
            let err = JobSpec::from_json(&spec_value(body)).unwrap_err();
            assert_eq!(err.status, 400, "{body}");
        }
    }

    #[test]
    fn oversized_netlist_is_422() {
        let spec = JobSpec::from_json(&spec_value(r#"{"circuit":"c17"}"#)).unwrap();
        let err = spec.build(3).unwrap_err();
        assert_eq!(err.status, 422);
        assert!(spec.build(100).is_ok());
    }

    #[test]
    fn user_cancel_of_queued_job_is_terminal() {
        let spec = JobSpec::from_json(&spec_value(r#"{"circuit":"c17"}"#)).unwrap();
        let job = Job::new(7, spec);
        assert_eq!(job.status(), JobStatus::Queued);
        job.cancel_by_user();
        assert_eq!(job.status(), JobStatus::Cancelled);
        assert!(job.control.is_cancelled());
    }

    #[test]
    fn persist_and_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("minpower-job-rt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spec = JobSpec::from_json(&spec_value(r#"{"circuit":"s27","fc":2.5e8}"#)).unwrap();
        let job = Job::new(3, spec.clone());
        persist(&dir, &job, "pending", None, None).unwrap();
        let loaded = load_dir(&dir);
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].id, 3);
        assert_eq!(loaded[0].status, "pending");
        assert_eq!(loaded[0].spec, spec);
        assert!(loaded[0].result.is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
