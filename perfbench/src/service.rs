//! `service_mix`: an in-process `minpower_serve::Server` under two
//! closed-loop keep-alive clients.
//!
//! * Client 1 owns one what-if session on a ~10k-gate Rent netlist sent
//!   as `.bench` text and streams a seeded op mix: mostly local edits
//!   (`resize`, `set_vt`), a few global edits (`set_vdd`,
//!   `set_activity`) and some full-state reads (`?detail=gates`).
//! * Client 2 keeps one cold `POST /jobs` optimize of s713 in flight
//!   and polls it to `done`.
//!
//! Governance is on, with limits generous enough that nothing is
//! refused; the run checks that the limiter refused nothing.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use minpower_circuits::{synthesize, BenchmarkSpec};
use minpower_core::context::DEFAULT_CACHE_CAPACITY;
use minpower_core::json::{self, Value};
use minpower_core::session::{append_op, SessionOp, SessionParams, SessionState};
use minpower_core::{baseline, store, EvalContext, Optimizer, Problem, SearchOptions};
use minpower_device::Technology;
use minpower_engine::SplitMix64;
use minpower_models::CircuitModel;
use minpower_netlist::{bench, GateKind, Netlist};
use minpower_serve::{Config, Server};

use crate::http::Client;
use crate::report::{median, quantile, repeat_setup, Outcome};
use crate::trace::Tracer;
use crate::Args;

const SETUP_REPS: usize = 5;
const SETUP_BUDGET_S: f64 = 1.0;
/// Share of client 1's requests that are local edits, global edits;
/// the rest are full-state reads. Assumed, not measured from real use:
/// what-if work is mostly local edits, and the rare classes get a few
/// hundred samples per 30 s run, enough for a steady median.
const LOCAL_SHARE: f64 = 0.97;
const GLOBAL_SHARE: f64 = 0.01;
/// The service's default snapshot cadence, mirrored in the traced
/// replay.
const CHECKPOINT_EVERY: usize = 64;
/// Client 2's job: the paper's largest suite row, the same in every run
/// so its energy ratio and latency carry no seed-to-seed variation.
const JOB_CIRCUIT: &str = "s713";
const JOB_ACTIVITY: f64 = 0.1;
const JOB_FC: f64 = 300.0e6;
const POLL: Duration = Duration::from_millis(2);

/// Request classes of client 1.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Local,
    Global,
    Read,
}

struct Inputs {
    session_netlist: Netlist,
    session_body: String,
}

fn session_body(text: &str, p: &SessionParams) -> String {
    Value::Obj(vec![
        ("bench".into(), Value::Str(text.to_string())),
        ("fc".into(), Value::Float(p.fc)),
        ("activity".into(), Value::Float(p.activity)),
        ("skew".into(), Value::Float(p.skew)),
        ("vdd".into(), Value::Float(p.vdd)),
        ("vt".into(), Value::Float(p.vt)),
        ("width".into(), Value::Float(p.width)),
    ])
    .render()
}

fn build_inputs(args: &Args, tracer: &mut Tracer) -> Inputs {
    let gates = if args.tiny { 500 } else { 10_000 };
    let mut spec = BenchmarkSpec::rent("session", gates);
    spec.seed = args.seed;
    let (netlist, _) = tracer.time(
        "circuits.synthesize",
        None,
        || spec.name.clone(),
        || synthesize(&spec).expect("rent spec is valid"),
    );
    // Round-trip through the text the service parses, so the local
    // replay sees exactly the netlist the server built.
    let text = bench::write(&netlist);
    let session_netlist = bench::parse("job", &text).expect("written bench parses");
    Inputs {
        session_netlist,
        session_body: session_body(&text, &SessionParams::default()),
    }
}

fn field<'a>(doc: &'a Value, path: &[&str]) -> Option<&'a Value> {
    let mut cur = doc;
    for name in path {
        cur = cur.as_obj(name).ok()?.opt(name)?;
    }
    Some(cur)
}

fn number(doc: &Value, path: &[&str]) -> Option<f64> {
    field(doc, path).and_then(|v| v.as_number("field").ok())
}

/// The seeded op stream of client 1: `(class, request body or path)`.
struct OpStream {
    rng: SplitMix64,
    gates: Vec<String>,
    session: u64,
}

impl OpStream {
    fn next(&mut self) -> (Class, String) {
        let r = self.rng.next_f64();
        let gate =
            |rng: &mut SplitMix64, gates: &[String]| gates[rng.range_usize(gates.len())].clone();
        if r < LOCAL_SHARE {
            let g = gate(&mut self.rng, &self.gates);
            let body = if self.rng.next_f64() < 2.0 / 3.0 {
                format!(
                    r#"{{"op":"resize","gate":"{g}","width":{:.4}}}"#,
                    self.rng.range_f64(1.0, 8.0)
                )
            } else {
                format!(
                    r#"{{"op":"set_vt","gate":"{g}","vt":{:.4}}}"#,
                    self.rng.range_f64(0.3, 0.6)
                )
            };
            (Class::Local, body)
        } else if r < LOCAL_SHARE + GLOBAL_SHARE {
            let body = if self.rng.next_f64() < 0.5 {
                format!(
                    r#"{{"op":"set_vdd","vdd":{:.4}}}"#,
                    self.rng.range_f64(2.0, 3.0)
                )
            } else {
                format!(
                    r#"{{"op":"set_activity","activity":{:.4}}}"#,
                    self.rng.range_f64(0.1, 0.5)
                )
            };
            (Class::Global, body)
        } else {
            (
                Class::Read,
                format!("/sessions/{}?detail=gates", self.session),
            )
        }
    }
}

/// What client 1 saw.
#[derive(Default)]
struct SessionLoad {
    local: Vec<f64>,
    global: Vec<f64>,
    read: Vec<f64>,
    acked: Vec<SessionOp>,
    attempted: u64,
    failed: u64,
}

fn session_client(
    addr: &str,
    mut stream: OpStream,
    deadline: Instant,
    tracer: &mut Tracer,
) -> SessionLoad {
    let mut load = SessionLoad::default();
    let ops_path = format!("/sessions/{}/ops", stream.session);
    let mut client = Client::connect(addr).ok();
    while Instant::now() < deadline {
        let (class, text) = stream.next();
        let n = load.attempted;
        load.attempted += 1;
        let name = match class {
            Class::Local => "client.edit",
            Class::Global => "client.global",
            Class::Read => "client.read",
        };
        let open = tracer.begin(name, None, || format!("op{n}"));
        let response = match client.as_mut() {
            Some(c) if class == Class::Read => c.request("GET", &text, ""),
            Some(c) => c.request("POST", &ops_path, &text),
            None => Err(std::io::Error::other("not connected")),
        };
        let secs = tracer.end(open);
        match response {
            Ok((status, _)) if (200..300).contains(&status) => {
                match class {
                    Class::Local => load.local.push(secs),
                    Class::Global => load.global.push(secs),
                    Class::Read => {
                        load.read.push(secs);
                        continue;
                    }
                }
                let op = SessionOp::from_json(&json::parse(&text).expect("generated op is JSON"))
                    .expect("generated op is valid");
                load.acked.push(op);
            }
            Ok((status, body)) => {
                load.failed += 1;
                eprintln!("session request answered {status}: {body}");
            }
            Err(e) => {
                load.failed += 1;
                eprintln!("session request failed: {e}");
                client = Client::connect(addr).ok();
            }
        }
    }
    load
}

/// What client 2 saw.
#[derive(Default)]
struct JobLoad {
    latencies: Vec<f64>,
    /// Result energy and feasibility per finished job.
    results: Vec<(f64, bool)>,
    attempted: u64,
    failed: u64,
}

fn job_client(addr: &str, body: &str, deadline: Instant, tracer: &mut Tracer) -> JobLoad {
    let mut load = JobLoad::default();
    let Ok(mut client) = Client::connect(addr) else {
        load.attempted = 1;
        load.failed = 1;
        return load;
    };
    while Instant::now() < deadline {
        load.attempted += 1;
        let n = load.attempted;
        let open = tracer.begin("client.job", None, || format!("job{n}"));
        let outcome = run_job(&mut client, body);
        let secs = tracer.end(open);
        match outcome {
            Ok((energy, feasible)) => {
                load.latencies.push(secs);
                load.results.push((energy, feasible));
                if !feasible {
                    load.failed += 1;
                }
            }
            Err(e) => {
                load.failed += 1;
                eprintln!("job failed: {e}");
                match Client::connect(addr) {
                    Ok(c) => client = c,
                    Err(_) => break,
                }
            }
        }
    }
    load
}

/// Submits one job and polls it to a terminal state; returns the
/// result's total energy and feasibility.
fn run_job(client: &mut Client, body: &str) -> Result<(f64, bool), String> {
    let (status, reply) = client
        .request("POST", "/jobs", body)
        .map_err(|e| e.to_string())?;
    if status != 202 {
        return Err(format!("submit answered {status}: {reply}"));
    }
    let doc = json::parse(&reply).map_err(|e| e.message)?;
    let id = field(&doc, &["id"])
        .and_then(|v| v.as_u64("id").ok())
        .ok_or("no job id")?;
    loop {
        let (status, reply) = client
            .request("GET", &format!("/jobs/{id}"), "")
            .map_err(|e| e.to_string())?;
        if status != 200 {
            return Err(format!("poll answered {status}: {reply}"));
        }
        let doc = json::parse(&reply).map_err(|e| e.message)?;
        let state = field(&doc, &["status"])
            .and_then(|v| v.as_str("status").ok())
            .unwrap_or("");
        match state {
            "queued" | "running" => std::thread::sleep(POLL),
            "done" => {
                let energy = number(&doc, &["result", "energy", "total"]).ok_or("no energy")?;
                let feasible = field(&doc, &["result", "feasible"])
                    .and_then(|v| v.as_bool("feasible").ok())
                    .unwrap_or(false);
                return Ok((energy, feasible));
            }
            other => return Err(format!("job {id} ended {other}: {reply}")),
        }
    }
}

/// Filesystem type of the mount holding `dir`, from `/proc/self/mounts`.
fn filesystem_of(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut parts = l.split_whitespace();
            let (_, point, fs) = (parts.next()?, parts.next()?, parts.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

fn config(state_dir: PathBuf) -> Config {
    Config {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        state_dir,
        max_body_bytes: 8 << 20,
        keep_alive_requests: usize::MAX,
        keep_alive_idle: 60.0,
        ops_rate: 100_000.0,
        ops_burst: 100_000.0,
        client_rate: 100_000.0,
        client_burst: 100_000.0,
        mem_budget_bytes: 1 << 30,
        session_checkpoint_every: CHECKPOINT_EVERY,
        ..Config::default()
    }
}

/// In-process replay of the acked ops under per-op spans: the session
/// layer's apply, op-log append and periodic snapshot, timed outside
/// the server.
fn mirror(inputs: &Inputs, acked: &[SessionOp], dir: &Path, tracer: &mut Tracer) {
    let oplog = dir.join("mirror.oplog");
    let snap = dir.join("mirror.snap");
    let mut state = SessionState::new(inputs.session_netlist.clone(), &SessionParams::default())
        .expect("valid params");
    for (k, op) in acked.iter().enumerate() {
        let name = match op {
            SessionOp::Resize { .. } | SessionOp::SetVt { .. } => "session.apply_local",
            _ => "session.apply_global",
        };
        let (r, _) = tracer.time(name, None, || format!("op{k}"), || state.apply(op));
        r.expect("acked op replays");
        let (r, _) = tracer.time(
            "session.oplog_append",
            None,
            || format!("op{k}"),
            || append_op(&oplog, op),
        );
        r.expect("op-log append");
        if (k + 1) % CHECKPOINT_EVERY == 0 {
            let (r, _) = tracer.time(
                "session.snapshot",
                None,
                || format!("op{k}"),
                || store::write_durable(&snap, state.snapshot().render().as_bytes()),
            );
            r.expect("snapshot write");
        }
    }
    let _ = std::fs::remove_file(&oplog);
    store::remove_generations(&snap);
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let dir = &args.dir;
    let state_dir = dir.join("state");
    let server = Server::bind(config(state_dir.clone())).expect("bind the service");
    let addr = server.local_addr().expect("service address").to_string();
    let handle = server.handle();
    let server_thread = std::thread::spawn(move || server.run());
    out.info("state_dir_fs", Value::Str(filesystem_of(&state_dir)));

    // Set-up: inputs plus a cold session create; repeated, the extra
    // sessions deleted again.
    let mut admin = Client::connect(&addr).expect("connect to the service");
    let mut session = None;
    let mut create_failures = Vec::new();
    let (inputs, setup) = repeat_setup(SETUP_REPS, SETUP_BUDGET_S, tracer, |t| {
        if let Some(id) = session.take() {
            let _ = admin.request("DELETE", &format!("/sessions/{id}"), "");
        }
        let built = build_inputs(args, t);
        let (created, _) = t.time("service.session_create", None, String::new, || {
            admin.request("POST", "/sessions", &built.session_body)
        });
        match created {
            Ok((201, body)) => {
                session = json::parse(&body)
                    .ok()
                    .and_then(|doc| field(&doc, &["id"]).and_then(|v| v.as_u64("id").ok()));
            }
            other => create_failures.push(format!("session create failed: {other:?}")),
        }
        built
    });
    out.check_failures.extend(create_failures);
    out.e2e.insert("setup_s", median(&setup));
    out.count("setup_reps", setup.len());
    out.count("session_gates", inputs.session_netlist.logic_gate_count());
    out.count("session_bench_bytes", inputs.session_body.len());

    let Some(session) = session else {
        handle.shutdown();
        let _ = server_thread.join();
        return out;
    };
    let gates: Vec<String> = inputs
        .session_netlist
        .gates()
        .iter()
        .filter(|g| g.kind() != GateKind::Input)
        .map(|g| g.name().to_string())
        .collect();
    let stream = OpStream {
        rng: SplitMix64::new(args.seed ^ 0x5e55_1011),
        gates,
        session,
    };
    let job_circuit = if args.tiny { "s208" } else { JOB_CIRCUIT };
    let job_body = Value::Obj(vec![
        ("circuit".into(), Value::Str(job_circuit.into())),
        ("fc".into(), Value::Float(JOB_FC)),
        ("activity".into(), Value::Float(JOB_ACTIVITY)),
    ])
    .render();

    // Measured phase: both clients until the deadline; client 2 finishes
    // the job it has in flight.
    let deadline = Instant::now() + args.seconds;
    let (session_load, job_load) = std::thread::scope(|scope| {
        let mut t1 = tracer.fork();
        let mut t2 = tracer.fork();
        let addr1 = addr.clone();
        let c1 = scope.spawn(move || (session_client(&addr1, stream, deadline, &mut t1), t1));
        let c2 = scope.spawn(|| (job_client(&addr, &job_body, deadline, &mut t2), t2));
        let (s, t1) = c1.join().expect("session client");
        let (j, t2) = c2.join().expect("job client");
        tracer.join(t1);
        tracer.join(t2);
        (s, j)
    });

    let metrics = admin
        .request("GET", "/metrics", "")
        .ok()
        .and_then(|(_, body)| json::parse(&body).ok())
        .unwrap_or(Value::Null);
    let detail = admin
        .request("GET", &format!("/sessions/{session}?detail=gates"), "")
        .ok()
        .and_then(|(_, body)| json::parse(&body).ok())
        .unwrap_or(Value::Null);
    drop(admin);
    handle.shutdown();
    let _ = server_thread.join();
    let _ = std::fs::remove_dir_all(&state_dir);

    out.attempted = session_load.attempted + job_load.attempted;
    out.failed = session_load.failed + job_load.failed;
    out.count("ops_acked", session_load.acked.len());
    out.count("edit_samples", session_load.local.len());
    out.count("global_samples", session_load.global.len());
    out.count("read_samples", session_load.read.len());
    out.count("job_samples", job_load.latencies.len());

    // Correctness 1: the served session equals a cold replay of the
    // acked ops, bit for bit.
    let (replayed, replay_s) = tracer.time("session.replay", None, String::new, || {
        SessionState::replay(
            inputs.session_netlist.clone(),
            &SessionParams::default(),
            &session_load.acked,
        )
    });
    match replayed {
        Ok(cold) => {
            let served = field(&detail, &["state"]).map(Value::render);
            out.check(served == Some(cold.snapshot().render()), || {
                "served session state differs from a cold replay of the acked ops".to_string()
            });
            let energy = number(&detail, &["energy", "total"]);
            out.check(
                energy.map(f64::to_bits) == Some(cold.energy().total().to_bits()),
                || "served session energy differs from a cold replay".to_string(),
            );
        }
        Err(e) => out.check(false, || format!("cold replay failed: {}", e.message)),
    }

    // Correctness 2: every job is done, feasible, and bit-identical to
    // the same optimize run in-process.
    let job_netlist = minpower_circuits::circuit(job_circuit).expect("suite circuit");
    let model =
        CircuitModel::with_uniform_activity(&job_netlist, Technology::dac97(), 0.5, JOB_ACTIVITY);
    let problem = Problem::try_new(model, JOB_FC).expect("valid job problem");
    let ctx = Arc::new(EvalContext::new(1, DEFAULT_CACHE_CAPACITY));
    let (reference, inprocess_s) = tracer.time(
        "core.optimize",
        None,
        || "job".into(),
        || Optimizer::new(&problem).with_engine(ctx).run(),
    );
    let reference = reference.map(|r| r.energy.total()).unwrap_or(f64::NAN);
    out.check(job_load.failed == 0 && !job_load.results.is_empty(), || {
        format!(
            "{} of {} jobs did not end done and feasible",
            job_load.failed, job_load.attempted
        )
    });
    out.check(
        job_load
            .results
            .iter()
            .all(|(e, _)| e.to_bits() == reference.to_bits()),
        || "a served job's energy differs from the in-process optimize".to_string(),
    );
    let (table1, baseline_s) = tracer.time(
        "core.baseline",
        None,
        || "job".into(),
        || baseline::optimize_fixed_vt(&problem, 0.7, SearchOptions::default()),
    );
    let table1 = table1.map(|r| r.energy.total()).unwrap_or(f64::NAN);

    // Correctness 3: the limiter and the governor refused nothing, so no
    // latency includes a Retry-After sleep.
    let refused: u64 = [
        "rate_limited_ops",
        "rate_limited_jobs",
        "shed_sessions",
        "shed_jobs",
    ]
    .iter()
    .map(|k| {
        field(&metrics, &["govern", k])
            .and_then(|v| v.as_u64(k).ok())
            .unwrap_or(u64::MAX)
    })
    .fold(0, u64::saturating_add);
    out.check(refused == 0, || {
        format!("the governor refused {refused} requests")
    });
    out.check(session_load.failed == 0, || {
        format!("{} session requests failed", session_load.failed)
    });

    let edits = &session_load.local;
    if edits.is_empty() || job_load.latencies.is_empty() {
        out.check(false, || "no edits or no jobs completed".to_string());
        return out;
    }
    let job_p50 = median(&job_load.latencies);
    out.e2e.insert("solve_s", job_p50);
    out.e2e.insert("energy_ratio", table1 / reference);
    out.e2e.insert("op_p50_ms", 1e3 * median(edits));
    out.e2e.insert("op_p99_ms", 1e3 * quantile(edits, 0.99));
    // Local edits only: the rare classes' shares are assumed, and a
    // global edit or a read costs tens of local edits.
    out.e2e
        .insert("ops_per_s", edits.len() as f64 / edits.iter().sum::<f64>());

    if tracer.enabled() {
        mirror(&inputs, &session_load.acked, dir, tracer);
        let (_, build_s) = tracer.time(
            "models.build",
            None,
            || "session".into(),
            || {
                CircuitModel::with_uniform_activity(
                    &inputs.session_netlist,
                    Technology::dac97(),
                    0.5,
                    SessionParams::default().activity,
                )
            },
        );
        let ms = |name: &str| {
            let d = tracer.durations(name);
            if d.is_empty() {
                0.0
            } else {
                1e3 * median(&d)
            }
        };
        let apply_local = ms("session.apply_local");
        let append = ms("session.oplog_append");
        let l = &mut out.layers;
        l.insert("circuits.synthesize_s", tracer.total("circuits.synthesize"));
        l.insert("models.build_s", build_s);
        l.insert("core.optimize_s", inprocess_s);
        l.insert("core.baseline_s", baseline_s);
        l.insert("session.apply_local_ms", apply_local);
        l.insert("session.apply_global_ms", ms("session.apply_global"));
        l.insert("session.oplog_append_ms", append);
        l.insert("session.snapshot_ms", ms("session.snapshot"));
        l.insert("session.replay_s", replay_s);
        l.insert("service.global_p50_ms", ms("client.global"));
        l.insert("service.read_p50_ms", ms("client.read"));
        // Derived: round trip minus the work the server does in-process.
        l.insert(
            "service.http_overhead_ms",
            1e3 * median(edits) - apply_local - append,
        );
        l.insert("service.job_inprocess_s", inprocess_s);
        l.insert("service.job_overhead_s", job_p50 - inprocess_s);
        let counter = |path: &[&str]| number(&metrics, path).unwrap_or(0.0);
        l.insert("metrics.connections", counter(&["http", "connections"]));
        l.insert(
            "metrics.requests",
            counter(&["http", "responses_ok"])
                + counter(&["http", "responses_client_error"])
                + counter(&["http", "responses_server_error"]),
        );
        l.insert("metrics.checkpoints", counter(&["sessions", "checkpoints"]));
        l.insert("metrics.replays", counter(&["sessions", "replays"]));
        l.insert("metrics.evictions", counter(&["sessions", "evictions"]));
        l.insert(
            "metrics.rate_limited",
            counter(&["govern", "rate_limited_ops"]) + counter(&["govern", "rate_limited_jobs"]),
        );
        // The clients' spans are the only tracing inside the measured
        // phase; their recording cost is the overhead.
        let client_spans = tracer
            .spans()
            .iter()
            .filter(|s| s.name.starts_with("client."))
            .count();
        l.insert(
            "trace.overhead_s",
            Tracer::span_cost() * client_spans as f64,
        );
        out.info(
            "derived_layers",
            Value::Obj(vec![
                (
                    "service.http_overhead_ms".into(),
                    Value::Str("edit p50 - apply - append".into()),
                ),
                (
                    "service.job_overhead_s".into(),
                    Value::Str("job p50 - in-process optimize".into()),
                ),
            ]),
        );
    }
    out
}
