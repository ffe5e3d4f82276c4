//! Loopback integration tests for `minpower-serve`: a real server on
//! `127.0.0.1:0`, real `TcpStream` clients, no mocks.
//!
//! The load-bearing claims verified here:
//!
//! * a served result is **byte-identical** to a direct library run of
//!   the same spec (same JSON document, same float bits);
//! * concurrent submissions all complete, and overload answers `429`
//!   without ever blocking the accept loop;
//! * `DELETE /jobs/{id}` mid-run yields a cancelled job carrying a
//!   delay-feasible best-so-far design;
//! * a server killed mid-job (simulated power loss) leaves the job
//!   `pending` + checkpointed, and a restarted server on the same state
//!   directory resumes it to the *same final design*.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use minpower::opt::json::{self, Value};
use minpower_serve::{Config, DrainOutcome, Server, ServerHandle};

// ---------------------------------------------------------------- helpers

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "minpower-serve-{name}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

struct TestServer {
    addr: SocketAddr,
    handle: ServerHandle,
    thread: std::thread::JoinHandle<DrainOutcome>,
}

fn start(config: Config) -> TestServer {
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    TestServer {
        addr,
        handle,
        thread,
    }
}

impl TestServer {
    fn shutdown(self) -> DrainOutcome {
        self.handle.shutdown();
        self.thread.join().expect("server thread")
    }

    fn kill(self) -> DrainOutcome {
        self.handle.kill();
        self.thread.join().expect("server thread")
    }
}

/// Sends one raw request, returns `(status, head, body)`.
fn raw_request(addr: SocketAddr, raw: &[u8]) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(raw).expect("write request");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    let text = String::from_utf8_lossy(&response).to_string();
    let (head, body) = text
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("no header/body split in {text:?}"));
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in {head:?}"));
    (status, head.to_string(), body.to_string())
}

fn post_json(addr: SocketAddr, path: &str, body: &str) -> (u16, String, String) {
    let raw = format!(
        "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    raw_request(addr, raw.as_bytes())
}

fn get(addr: SocketAddr, path: &str) -> (u16, String, String) {
    raw_request(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes(),
    )
}

fn delete(addr: SocketAddr, path: &str) -> (u16, String, String) {
    raw_request(
        addr,
        format!("DELETE {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes(),
    )
}

fn parse_body(body: &str) -> Value {
    json::parse(body).unwrap_or_else(|e| panic!("bad JSON body {body:?}: {e}"))
}

fn field<'a>(value: &'a Value, name: &str) -> &'a Value {
    value
        .as_obj("response")
        .expect("object")
        .req(name)
        .unwrap_or_else(|e| panic!("{e} in {}", value.render()))
}

fn status_of(value: &Value) -> String {
    field(value, "status")
        .as_str("status")
        .expect("status string")
        .to_string()
}

fn submit(addr: SocketAddr, spec: &str) -> u64 {
    let (status, _, body) = post_json(addr, "/jobs", spec);
    assert_eq!(status, 202, "{body}");
    field(&parse_body(&body), "id").as_u64("id").unwrap()
}

/// Polls `GET /jobs/{id}` until `pred` accepts the parsed body.
fn wait_for(addr: SocketAddr, id: u64, what: &str, pred: impl Fn(&Value) -> bool) -> Value {
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let (status, _, body) = get(addr, &format!("/jobs/{id}"));
        assert_eq!(status, 200, "GET /jobs/{id} -> {body}");
        let value = parse_body(&body);
        if pred(&value) {
            return value;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}; last: {}",
            value.render()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn terminal(value: &Value) -> bool {
    !matches!(status_of(value).as_str(), "queued" | "running")
}

/// Runs the same spec through the library directly (fresh
/// single-threaded engine, exactly like a service worker) and renders
/// the canonical result document.
fn direct_run_document(spec_json: &str) -> String {
    let spec = minpower_serve::job::JobSpec::from_json(&json::parse(spec_json).expect("spec JSON"))
        .expect("spec");
    let top_gates = spec.top_gates;
    let (problem, options) = spec.build(usize::MAX).expect("build");
    let ctx = std::sync::Arc::new(minpower::EvalContext::new(
        1,
        minpower::opt::context::DEFAULT_CACHE_CAPACITY,
    ));
    let result = minpower::Optimizer::new(&problem)
        .with_options(options)
        .with_engine(ctx)
        .run()
        .expect("direct run");
    minpower::opt::report::result_to_json(&problem, &result, top_gates).render()
}

// ------------------------------------------------------------------ tests

#[test]
fn served_result_is_bit_identical_to_direct_library_run() {
    let spec = r#"{"circuit":"c17","steps":9,"top_gates":3}"#;
    let server = start(Config {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        state_dir: scratch_dir("identical"),
        ..Config::default()
    });

    let id = submit(server.addr, spec);
    let done = wait_for(server.addr, id, "completion", terminal);
    assert_eq!(status_of(&done), "done", "{}", done.render());
    let served = field(&done, "result").render();
    assert_eq!(
        served,
        direct_run_document(spec),
        "served result differs from the direct run"
    );
    assert_eq!(server.shutdown(), DrainOutcome::Clean);
}

#[test]
fn concurrent_submissions_all_complete() {
    let server = start(Config {
        addr: "127.0.0.1:0".into(),
        workers: 3,
        queue_depth: 16,
        state_dir: scratch_dir("concurrent"),
        ..Config::default()
    });

    // Five concurrent submitters (≥4 jobs in flight at once).
    let specs = [
        r#"{"circuit":"c17","steps":8}"#,
        r#"{"circuit":"s27","steps":8}"#,
        r#"{"circuit":"c17","steps":10,"priority":3}"#,
        r#"{"circuit":"s27","steps":10}"#,
        r#"{"circuit":"c17","steps":6,"top_gates":2}"#,
    ];
    let addr = server.addr;
    let ids: Vec<u64> = std::thread::scope(|scope| {
        let submitters: Vec<_> = specs
            .iter()
            .map(|spec| scope.spawn(move || submit(addr, spec)))
            .collect();
        submitters.into_iter().map(|s| s.join().unwrap()).collect()
    });
    assert_eq!(ids.len(), 5);

    for id in &ids {
        let done = wait_for(addr, *id, "completion", terminal);
        assert_eq!(status_of(&done), "done", "job {id}: {}", done.render());
        let result = field(&done, "result");
        assert_eq!(
            field(result, "feasible"),
            &Value::Bool(true),
            "job {id} infeasible"
        );
    }
    assert_eq!(server.shutdown(), DrainOutcome::Clean);
}

#[test]
fn overload_rejects_with_429_and_stays_responsive() {
    // One slow worker + a 2-deep queue: most submissions must bounce with
    // 429 while the accept loop keeps answering other requests.
    let server = start(Config {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_depth: 2,
        state_dir: scratch_dir("overload"),
        ..Config::default()
    });
    let slow = r#"{"circuit":"s713","steps":18}"#;
    let mut rejected = 0;
    for _ in 0..6 {
        let (status, head, body) = post_json(server.addr, "/jobs", slow);
        if status == 429 {
            assert!(
                head.contains("Retry-After"),
                "429 without Retry-After: {head}"
            );
            rejected += 1;
        } else {
            assert_eq!(status, 202, "{body}");
        }
    }
    assert!(
        rejected >= 3,
        "expected most submissions rejected, got {rejected}"
    );

    let (status, _, body) = get(server.addr, "/metrics");
    assert_eq!(status, 200);
    let metrics = parse_body(&body);
    assert!(
        field(&metrics, "queue_depth")
            .as_u64("queue_depth")
            .unwrap()
            <= 2,
        "{body}"
    );
    assert!(
        field(field(&metrics, "http"), "rejected_queue_full")
            .as_u64("rejected_queue_full")
            .unwrap()
            >= 3,
        "{body}"
    );
    // Engine counters and latency histograms are present.
    field(field(&metrics, "engine"), "circuit_evals");
    let latency = field(field(&metrics, "http"), "latency");
    field(latency, "POST /jobs");

    // Drain with jobs still queued/running: interrupted but resumable.
    assert_eq!(server.kill(), DrainOutcome::JobsInterrupted);
}

#[test]
fn cancel_mid_run_returns_delay_feasible_best_so_far() {
    let server = start(Config {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        state_dir: scratch_dir("cancel"),
        ..Config::default()
    });
    let id = submit(server.addr, r#"{"circuit":"s713","steps":18}"#);

    // Let the run make real progress first, so a feasible best-so-far
    // exists (polls advance once per probe).
    wait_for(server.addr, id, "mid-run progress", |v| {
        terminal(v)
            || (status_of(v) == "running" && field(v, "polls").as_u64("polls").unwrap() >= 200)
    });
    let (status, _, body) = delete(server.addr, &format!("/jobs/{id}"));
    assert_eq!(status, 200, "{body}");

    let ended = wait_for(server.addr, id, "cancellation", terminal);
    assert_eq!(status_of(&ended), "cancelled", "{}", ended.render());
    let result = field(&ended, "result");
    assert_ne!(result, &Value::Null, "cancelled job carried no best-so-far");
    assert_eq!(field(result, "feasible"), &Value::Bool(true));
    let delay = field(result, "critical_delay").as_number("delay").unwrap();
    let cycle = field(result, "cycle_time").as_number("cycle").unwrap();
    assert!(
        delay <= cycle,
        "best-so-far violates the delay constraint: {delay} > {cycle}"
    );
    assert_eq!(server.shutdown(), DrainOutcome::Clean);
}

#[test]
fn killed_server_resumes_checkpointed_job_to_the_same_design() {
    let spec = r#"{"circuit":"s713","steps":16,"top_gates":2}"#;
    let expected = direct_run_document(spec);

    let state_dir = scratch_dir("resume");
    let first = start(Config {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        checkpoint_every: 4,
        state_dir: state_dir.clone(),
        ..Config::default()
    });
    let id = submit(first.addr, spec);

    // Wait until at least one checkpoint hit the disk, then pull the plug.
    let ckpt = state_dir.join(format!("job-{id}.journal"));
    let deadline = Instant::now() + Duration::from_secs(120);
    while !ckpt.exists() {
        assert!(Instant::now() < deadline, "no checkpoint appeared");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(first.kill(), DrainOutcome::JobsInterrupted);

    // The job record must still be pending (not terminal) on disk.
    let record = std::fs::read_to_string(state_dir.join(format!("job-{id}.json"))).unwrap();
    assert!(
        record.contains("\"status\":\"pending\""),
        "kill wrote a terminal record: {record}"
    );

    // A new server on the same state directory resumes and finishes.
    let second = start(Config {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        checkpoint_every: 4,
        state_dir: state_dir.clone(),
        ..Config::default()
    });
    let done = wait_for(second.addr, id, "resumed completion", terminal);
    assert_eq!(status_of(&done), "done", "{}", done.render());
    assert_eq!(
        field(&done, "result").render(),
        expected,
        "resumed run diverged from the uninterrupted design"
    );
    // The finished job's record flipped to done and its checkpoint is gone.
    assert!(!ckpt.exists(), "checkpoint not cleaned up after completion");
    assert_eq!(second.shutdown(), DrainOutcome::Clean);
}

#[test]
fn events_stream_reports_progress_then_end() {
    let server = start(Config {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        state_dir: scratch_dir("events"),
        ..Config::default()
    });
    let id = submit(server.addr, r#"{"circuit":"s27","steps":10}"#);

    let mut stream = TcpStream::connect(server.addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    stream
        .write_all(format!("GET /jobs/{id}/events HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
        .unwrap();
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("stream to end");
    assert!(text.starts_with("HTTP/1.1 200"), "{text}");
    let body = text.split_once("\r\n\r\n").unwrap().1;
    let lines: Vec<Value> = body.lines().map(parse_body).collect();
    assert!(!lines.is_empty(), "empty event stream");
    let last = lines.last().unwrap();
    assert_eq!(
        field(last, "event"),
        &Value::Str("end".into()),
        "stream did not end cleanly: {body}"
    );
    assert_eq!(status_of(last), "done");
    assert!(
        lines
            .iter()
            .any(|l| field(l, "event") == &Value::Str("progress".into())),
        "no progress events: {body}"
    );
    assert_eq!(server.shutdown(), DrainOutcome::Clean);
}
