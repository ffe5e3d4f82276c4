//! Loopback multi-worker integration tests: one coordinator + one or
//! three `minpower serve --worker` processes (in-process servers on
//! loopback ports), sharing a job-store directory.
//!
//! The two invariants under test:
//!
//! * the merged result and merged deterministic stats of a distributed
//!   run are **bit-identical** to the single-process reference
//!   ([`minpower_coord::merge::run_local`]), and
//! * killing a worker mid-run never wedges or corrupts a job — its
//!   shards are reassigned and the final answer is still bit-identical.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use minpower_coord::{merge, spec::CoordSpec, CoordServer};
use minpower_core::json::{self, Value};
use minpower_serve::{DrainOutcome, Server, ServerHandle};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "minpower-coord-it-{name}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

struct Worker {
    addr: String,
    handle: ServerHandle,
    thread: std::thread::JoinHandle<DrainOutcome>,
}

fn start_worker(shared: &Path, name: &str) -> Worker {
    let server = Server::bind(minpower_serve::Config {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        state_dir: scratch_dir(name),
        worker: true,
        shared_dir: Some(shared.to_path_buf()),
        ..minpower_serve::Config::default()
    })
    .expect("bind worker");
    let addr = server.local_addr().expect("worker addr").to_string();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    Worker {
        addr,
        handle,
        thread,
    }
}

struct Coord {
    addr: String,
    handle: minpower_coord::CoordHandle,
    thread: std::thread::JoinHandle<DrainOutcome>,
}

fn start_coord(shared: &Path, workers: &[&Worker]) -> Coord {
    let server = CoordServer::bind(minpower_coord::Config {
        addr: "127.0.0.1:0".into(),
        workers: workers.iter().map(|w| w.addr.clone()).collect(),
        store_dir: shared.to_path_buf(),
        lease_ttl: 5.0,
        dispatch_timeout: 120.0,
        ..minpower_coord::Config::default()
    })
    .expect("bind coordinator");
    let addr = server.local_addr().expect("coord addr").to_string();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    Coord {
        addr,
        handle,
        thread,
    }
}

fn http(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body.as_bytes()).expect("write body");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8_lossy(&raw).into_owned();
    let split = text.find("\r\n\r\n").expect("header terminator");
    let status = text
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in {text:?}"));
    (status, text[split + 4..].to_string())
}

/// Polls `GET /jobs/{id}` until the job is terminal (or the deadline
/// passes); returns the final status document.
fn await_job(coord: &str, id: u64, deadline: Duration) -> Value {
    let started = Instant::now();
    loop {
        let (status, body) = http(coord, "GET", &format!("/jobs/{id}"), "");
        assert_eq!(status, 200, "{body}");
        let doc = json::parse(&body).expect("status json");
        let state = doc
            .as_obj("status")
            .and_then(|o| o.req("status"))
            .and_then(|v| v.as_str("status"))
            .unwrap()
            .to_string();
        if state != "running" {
            return doc;
        }
        assert!(
            started.elapsed() < deadline,
            "job {id} still running after {deadline:?}: {body}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Completed-shard count from a `GET /jobs/{id}` document.
fn completed_of(doc: &Value) -> u64 {
    doc.as_obj("status")
        .and_then(|o| o.req("completed"))
        .and_then(|v| v.as_u64("completed"))
        .unwrap()
}

/// Drops the coordinator-assigned `job` id so distributed and local
/// merged documents (which differ only in that field) compare equal.
fn strip_job_id(doc: &Value) -> Value {
    let Value::Obj(fields) = doc else {
        panic!("merged result is not an object");
    };
    Value::Obj(
        fields
            .iter()
            .filter(|(name, _)| name != "job")
            .cloned()
            .collect(),
    )
}

fn shutdown(coord: Coord, workers: Vec<Worker>) {
    coord.handle.shutdown();
    let _ = coord.thread.join().expect("coordinator thread");
    for worker in workers {
        worker.handle.shutdown();
        let _ = worker.thread.join().expect("worker thread");
    }
}

#[test]
fn one_and_three_workers_produce_bit_identical_suite_results() {
    for worker_count in [1, 3] {
        suite_results_match_local_run(worker_count);
    }
}

/// Runs a three-shard suite job through a coordinator with
/// `worker_count` workers and checks it against `merge::run_local`.
fn suite_results_match_local_run(worker_count: usize) {
    let shared = scratch_dir("suite-shared");
    let workers: Vec<Worker> = (0..worker_count)
        .map(|i| start_worker(&shared, &format!("suite-w{i}")))
        .collect();
    let coord = start_coord(&shared, &workers.iter().collect::<Vec<_>>());

    let submission = r#"{"suite":["c17","s27","c17"],"fc":2.5e8,"steps":6}"#;
    let (status, body) = http(&coord.addr, "POST", "/jobs", submission);
    assert_eq!(status, 202, "{body}");
    let id = json::parse(&body)
        .unwrap()
        .as_obj("accepted")
        .and_then(|o| o.req("id"))
        .and_then(|v| v.as_u64("id"))
        .unwrap();

    let doc = await_job(&coord.addr, id, Duration::from_secs(120));
    let obj = doc.as_obj("status").unwrap();
    assert_eq!(obj.req("status").unwrap().as_str("s").unwrap(), "done");
    assert_eq!(completed_of(&doc), 3, "no shard may be lost");
    let distributed = obj.req("result").unwrap();

    // Single-process reference: the exact same shard plan, sequentially.
    let spec = CoordSpec::from_json(&json::parse(submission).unwrap()).unwrap();
    let (local, local_stats) = merge::run_local(&spec, 50_000).unwrap();
    assert_eq!(
        strip_job_id(distributed).render(),
        strip_job_id(&local).render(),
        "distributed merge with {worker_count} workers must be bit-identical to the local run"
    );
    assert_eq!(
        merge::stats_of(distributed).unwrap(),
        local_stats,
        "merged deterministic stats with {worker_count} workers must match"
    );

    // The aggregate endpoints answer while everything is still up.
    let (status, metrics) = http(&coord.addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(metrics.contains("\"workers\""), "{metrics}");
    let (status, _) = http(&coord.addr, "GET", "/healthz", "");
    assert_eq!(status, 200);

    // The NDJSON event stream replays to the terminal `end` event.
    let (status, events) = http(&coord.addr, "GET", &format!("/jobs/{id}/events"), "");
    assert_eq!(status, 200);
    assert!(events.lines().any(|l| l.contains("\"end\"")), "{events}");

    shutdown(coord, workers);
}

#[test]
fn killing_a_worker_mid_run_reassigns_its_shards() {
    let shared = scratch_dir("kill-shared");
    let mut workers: Vec<Worker> = (0..3)
        .map(|i| start_worker(&shared, &format!("kill-w{i}")))
        .collect();
    let coord = start_coord(&shared, &workers.iter().collect::<Vec<_>>());

    // 1 optimize shard + 12 trial shards: enough work that every worker
    // holds shards when one of them dies.
    let submission = r#"{"circuit":"c17","fc":2.5e8,"steps":6,
        "yield":{"sigma":0.08,"samples":96,"seed":3,"shard_size":8}}"#;
    let (status, body) = http(&coord.addr, "POST", "/jobs", submission);
    assert_eq!(status, 202, "{body}");
    let id = json::parse(&body)
        .unwrap()
        .as_obj("accepted")
        .and_then(|o| o.req("id"))
        .and_then(|v| v.as_u64("id"))
        .unwrap();

    // Wait until the fan-out happened and at least one trial shard is in
    // flight, then pull the plug on a worker.
    let started = Instant::now();
    loop {
        let (_, body) = http(&coord.addr, "GET", &format!("/jobs/{id}"), "");
        let doc = json::parse(&body).unwrap();
        if completed_of(&doc) >= 2 {
            break;
        }
        assert!(
            started.elapsed() < Duration::from_secs(120),
            "fan-out never progressed: {body}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let victim = workers.remove(0);
    victim.handle.kill();
    let _ = victim.thread.join().expect("victim thread");

    let doc = await_job(&coord.addr, id, Duration::from_secs(120));
    let obj = doc.as_obj("status").unwrap();
    assert_eq!(
        obj.req("status").unwrap().as_str("s").unwrap(),
        "done",
        "losing one of three workers must not fail the job: {:?}",
        obj.opt("error").map(Value::render)
    );
    assert_eq!(completed_of(&doc), 13, "every shard must complete");
    let distributed = obj.req("result").unwrap();

    let spec = CoordSpec::from_json(&json::parse(submission).unwrap()).unwrap();
    let (local, local_stats) = merge::run_local(&spec, 50_000).unwrap();
    assert_eq!(
        strip_job_id(distributed).render(),
        strip_job_id(&local).render(),
        "reassigned shards must still merge bit-identically"
    );
    assert_eq!(merge::stats_of(distributed).unwrap(), local_stats);

    // The survivors keep the coordinator healthy (degraded only when
    // *every* worker is gone).
    let (status, health) = http(&coord.addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{health}");

    shutdown(coord, workers);
}
