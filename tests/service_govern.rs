//! Loopback integration tests for resource governance: rate limits,
//! disk quotas, memory-pressure load shedding, and the fault drills
//! behind them.
//!
//! The load-bearing claims verified here:
//!
//! * a client past its op budget gets `429` with a `Retry-After` that,
//!   when honored, actually readmits it;
//! * a session over its disk quota (even after compaction) answers
//!   `503` and stays usable after `DELETE` + re-create; a server over
//!   its global disk budget refuses new sessions;
//! * memory pressure degrades `/healthz` through the shedding tiers —
//!   refusing new sessions, then new jobs — and the pressure sweep
//!   sheds warm state until the service recovers to `ok` on its own;
//! * `POST /sessions/{id}/compact` folds the op log, reclaims bytes,
//!   and a kill/restart afterwards recovers bit-identically;
//! * under the `govern.clock_skew` fault the limiter neither banks
//!   unbounded tokens nor freezes; under `session.compact.crash` and
//!   `io.disk.full` a failed compaction leaves a session that recovers
//!   bit-identically on its next touch and across a kill/restart.

// The faults build compiles only the fault drills, which use a subset
// of the shared helpers.
#![cfg_attr(feature = "faults", allow(dead_code))]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use minpower::opt::json::{self, Value};
use minpower::opt::session::{SessionOp, SessionParams, SessionState};
use minpower_serve::{Config, DrainOutcome, Server, ServerHandle};

// ---------------------------------------------------------------- helpers

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "minpower-govern-{name}-{}-{}",
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

/// The value of header `name` in a raw response head, if present.
fn header(head: &str, name: &str) -> Option<String> {
    head.lines().find_map(|line| {
        let (n, v) = line.split_once(':')?;
        n.eq_ignore_ascii_case(name).then(|| v.trim().to_string())
    })
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

fn u64_field(value: &Value, name: &str) -> u64 {
    field(value, name).as_u64(name).expect("u64 field")
}

fn str_field(value: &Value, name: &str) -> String {
    field(value, name)
        .as_str(name)
        .expect("string field")
        .to_string()
}

fn open_session(addr: SocketAddr, spec: &str) -> u64 {
    let (status, _, body) = post_json(addr, "/sessions", spec);
    assert_eq!(status, 201, "{body}");
    u64_field(&parse_body(&body), "id")
}

fn resize_op(width: f64) -> String {
    format!(r#"{{"op":"resize","gate":"10","width":{width}}}"#)
}

/// The server-side state document, hex-bits floats: string equality is
/// bit equality.
fn state_doc(addr: SocketAddr, id: u64) -> String {
    let (status, _, body) = get(addr, &format!("/sessions/{id}?detail=gates"));
    assert_eq!(status, 200, "{body}");
    field(&parse_body(&body), "state").render()
}

fn cold_replay_doc(ops: &[SessionOp]) -> String {
    let state = SessionState::replay(minpower::circuits::c17(), &SessionParams::default(), ops)
        .expect("cold replay");
    state.snapshot().render()
}

fn govern_metric(addr: SocketAddr, name: &str) -> u64 {
    let (status, _, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    u64_field(field(&parse_body(&body), "govern"), name)
}

fn session_metric(addr: SocketAddr, name: &str) -> u64 {
    let (status, _, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    u64_field(field(&parse_body(&body), "sessions"), name)
}

// ------------------------------------------------------------------ tests

/// A client past its per-session op budget gets `429 + Retry-After`;
/// sleeping out the hint readmits it. Counted in
/// `govern.rate_limited_ops`.
#[cfg(not(feature = "faults"))]
#[test]
fn rate_limited_ops_answer_429_and_retry_after_readmits() {
    let server = start(Config {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        ops_rate: 2.0,
        ops_burst: 3.0,
        state_dir: scratch_dir("ratelimit"),
        ..Config::default()
    });
    let id = open_session(server.addr, r#"{"circuit":"c17"}"#);

    // Hammer until the bucket runs dry.
    let mut retry_after = None;
    for i in 0..16u32 {
        let (status, head, body) = post_json(
            server.addr,
            &format!("/sessions/{id}/ops"),
            &resize_op(2.0 + f64::from(i) * 0.125),
        );
        match status {
            200 => {}
            429 => {
                let hint = header(&head, "Retry-After")
                    .unwrap_or_else(|| panic!("429 without Retry-After: {head}"))
                    .parse::<u64>()
                    .expect("numeric Retry-After");
                assert!(hint >= 1, "hint {hint}");
                assert!(body.contains("rate limit"), "{body}");
                retry_after = Some(hint);
                break;
            }
            other => panic!("unexpected status {other}: {body}"),
        }
    }
    let hint = retry_after.expect("a burst of 3 at 2/s must hit the limiter");

    // Honoring the hint readmits the client.
    std::thread::sleep(Duration::from_secs(hint));
    let (status, _, body) = post_json(server.addr, &format!("/sessions/{id}/ops"), &resize_op(4.0));
    assert_eq!(status, 200, "after honoring Retry-After: {body}");
    assert!(govern_metric(server.addr, "rate_limited_ops") >= 1);
    assert_eq!(server.shutdown(), DrainOutcome::Clean);
}

/// A session whose snapshot alone exceeds its quota answers `503` even
/// after compaction; `DELETE` + re-create recovers service.
#[cfg(not(feature = "faults"))]
#[test]
fn session_over_quota_answers_503_until_deleted() {
    let server = start(Config {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        // A c17 session's record is 172 bytes and one v2 snapshot 359
        // (two after a compaction): this quota admits the first op but no
        // compacted footprint.
        session_quota_bytes: 256,
        state_dir: scratch_dir("quota"),
        ..Config::default()
    });
    let id = open_session(server.addr, r#"{"circuit":"c17"}"#);

    let mut rejected = false;
    for i in 0..64u32 {
        let (status, head, body) = post_json(
            server.addr,
            &format!("/sessions/{id}/ops"),
            &resize_op(2.0 + f64::from(i) * 0.03125),
        );
        if status == 503 {
            assert!(body.contains("disk quota"), "{body}");
            assert!(header(&head, "Retry-After").is_some(), "{head}");
            rejected = true;
            break;
        }
        assert_eq!(status, 200, "{body}");
    }
    assert!(rejected, "a 256-byte quota must reject ops eventually");
    assert!(session_metric(server.addr, "quota_rejected") >= 1);
    assert!(
        session_metric(server.addr, "compactions") >= 1,
        "the quota path must have tried compaction first"
    );

    // DELETE reclaims the directory; a fresh session serves again.
    let (status, _, body) = delete(server.addr, &format!("/sessions/{id}"));
    assert_eq!(status, 200, "{body}");
    assert!(
        u64_field(&parse_body(&body), "reclaimed_bytes") > 0,
        "{body}"
    );
    let fresh = open_session(server.addr, r#"{"circuit":"c17"}"#);
    let (status, _, body) = post_json(
        server.addr,
        &format!("/sessions/{fresh}/ops"),
        &resize_op(2.5),
    );
    assert_eq!(status, 200, "{body}");
    assert_eq!(server.shutdown(), DrainOutcome::Clean);
}

/// An exhausted global disk budget refuses *new* sessions with `503`
/// while existing ones keep serving; `DELETE` frees budget.
#[cfg(not(feature = "faults"))]
#[test]
fn disk_budget_refuses_new_sessions() {
    let server = start(Config {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        session_disk_budget: 1, // any existing session exhausts it
        state_dir: scratch_dir("budget"),
        ..Config::default()
    });
    let id = open_session(server.addr, r#"{"circuit":"c17"}"#);
    let (status, _, body) = post_json(server.addr, "/sessions", r#"{"circuit":"c17"}"#);
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("disk budget"), "{body}");
    // The existing session is unaffected.
    let (status, _, body) = post_json(server.addr, &format!("/sessions/{id}/ops"), &resize_op(3.0));
    assert_eq!(status, 200, "{body}");
    let (status, _, _) = delete(server.addr, &format!("/sessions/{id}"));
    assert_eq!(status, 200);
    open_session(server.addr, r#"{"circuit":"c17"}"#);
    assert_eq!(server.shutdown(), DrainOutcome::Clean);
}

/// Memory pressure walks `/healthz` into a degraded shedding tier that
/// refuses new sessions and new jobs, then the pressure sweep sheds
/// warm state and the service recovers to `ok` on its own.
#[cfg(not(feature = "faults"))]
#[test]
fn memory_pressure_sheds_then_recovers() {
    let server = start(Config {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        mem_budget_bytes: 1, // any warm session saturates the budget
        state_dir: scratch_dir("pressure"),
        ..Config::default()
    });
    let id = open_session(server.addr, r#"{"circuit":"c17"}"#);

    // The background sweep (1 s cadence) races us by design: it sheds
    // warm state whenever it runs. Re-warm via an op, then observe the
    // shed responses; retry the whole sequence until all three land in
    // one pressure window.
    let mut saw = (false, false, false); // (healthz degraded, shed session, shed job)
    for _ in 0..30 {
        let (status, _, body) =
            post_json(server.addr, &format!("/sessions/{id}/ops"), &resize_op(2.5));
        assert_eq!(status, 200, "ops are never shed: {body}");
        let (status, _, body) = get(server.addr, "/healthz");
        assert_eq!(status, 200);
        let health = parse_body(&body);
        if str_field(&health, "status") == "degraded" {
            assert!(
                str_field(&health, "reason").contains("memory pressure"),
                "{body}"
            );
            assert_ne!(str_field(&health, "tier"), "ok", "{body}");
            saw.0 = true;
        }
        let (status, _, _) = post_json(server.addr, "/sessions", r#"{"circuit":"c17"}"#);
        if status == 503 {
            saw.1 = true;
        }
        if !saw.2 {
            let (status, head, _) =
                post_json(server.addr, "/jobs", r#"{"circuit":"c17","steps":4}"#);
            if status == 503 {
                assert!(header(&head, "Retry-After").is_some(), "{head}");
                saw.2 = true;
            }
        }
        if saw == (true, true, true) {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(saw.0, "healthz never reported the degraded tier");
    assert!(saw.1, "POST /sessions was never shed");
    assert!(saw.2, "POST /jobs was never shed");
    assert!(govern_metric(server.addr, "shed_sessions") >= 1);
    assert!(govern_metric(server.addr, "shed_jobs") >= 1);

    // Stop touching the session: the pressure sweep evicts its warm
    // state and the service recovers to `ok` without intervention.
    let deadline = std::time::Instant::now() + Duration::from_secs(15);
    loop {
        let (_, _, body) = get(server.addr, "/healthz");
        if str_field(&parse_body(&body), "status") == "ok" {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "service never recovered: {body}"
        );
        std::thread::sleep(Duration::from_millis(200));
    }
    assert!(govern_metric(server.addr, "pressure_evictions") >= 1);
    let (status, _, body) = post_json(server.addr, "/jobs", r#"{"circuit":"c17","steps":4}"#);
    assert_eq!(status, 202, "recovered service must admit jobs: {body}");
    assert!(matches!(
        server.shutdown(),
        DrainOutcome::Clean | DrainOutcome::JobsInterrupted
    ));
}

/// `POST /sessions/{id}/compact` folds the log, reports reclaimed
/// bytes, and a kill/restart afterwards recovers bit-identically.
#[cfg(not(feature = "faults"))]
#[test]
fn explicit_compaction_survives_kill_and_restart() {
    let state_dir = scratch_dir("compact");
    let first = start(Config {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        state_dir: state_dir.clone(),
        ..Config::default()
    });
    let id = open_session(first.addr, r#"{"circuit":"c17"}"#);
    let widths = [2.5, 3.0, 3.5];
    for w in widths {
        let (status, _, body) =
            post_json(first.addr, &format!("/sessions/{id}/ops"), &resize_op(w));
        assert_eq!(status, 200, "{body}");
    }
    let (status, _, body) = post_json(first.addr, &format!("/sessions/{id}/compact"), "");
    assert_eq!(status, 200, "{body}");
    let doc = parse_body(&body);
    assert_eq!(u64_field(&doc, "ops_folded"), 3, "{body}");
    assert!(u64_field(&doc, "reclaimed_bytes") > 0, "{body}");
    let live = state_doc(first.addr, id);
    assert_eq!(first.kill(), DrainOutcome::JobsInterrupted);

    let second = start(Config {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        state_dir,
        ..Config::default()
    });
    let recovered = state_doc(second.addr, id);
    assert_eq!(recovered, live, "restart diverged after compaction");
    let cold: Vec<SessionOp> = widths
        .iter()
        .map(|&width| SessionOp::Resize {
            gate: "10".into(),
            width,
        })
        .collect();
    assert_eq!(recovered, cold_replay_doc(&cold));
    assert_eq!(second.shutdown(), DrainOutcome::Clean);
}

/// The `govern.clock_skew` drill: wild forward/backward clock readings
/// may deny at most the requests they touch — the limiter must neither
/// bank unbounded tokens nor freeze the bucket.
#[cfg(feature = "faults")]
#[test]
fn clock_skew_fault_cannot_freeze_the_limiter() {
    use minpower::engine::faults;

    let server = start(Config {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        ops_rate: 1000.0,
        ops_burst: 1000.0,
        state_dir: scratch_dir("skew"),
        ..Config::default()
    });
    let id = open_session(server.addr, r#"{"circuit":"c17"}"#);

    minpower_serve::govern::reset_fault_indices();
    // Acquire 1 sees the clock at zero (backward), acquire 2 an hour
    // ahead (forward).
    faults::arm("govern.clock_skew", faults::Trigger::OnIndices(vec![1, 2]));
    for i in 0..8u32 {
        let (status, _, body) = post_json(
            server.addr,
            &format!("/sessions/{id}/ops"),
            &resize_op(2.0 + f64::from(i) * 0.25),
        );
        assert_eq!(status, 200, "op {i} under clock skew: {body}");
    }
    assert_eq!(faults::fired_count("govern.clock_skew"), 2);
    faults::disarm("govern.clock_skew");

    // The bucket keeps refilling from real time afterwards.
    let (status, _, body) = post_json(server.addr, &format!("/sessions/{id}/ops"), &resize_op(4.0));
    assert_eq!(status, 200, "{body}");
    assert_eq!(server.shutdown(), DrainOutcome::Clean);
}

/// The `session.compact.crash` drill, including a kill/restart inside
/// the crash window: the folded snapshot is durable, the log was never
/// truncated, and every recovery — same process or a fresh one — lands
/// bit-identically and keeps accepting ops.
#[cfg(feature = "faults")]
#[test]
fn compaction_crash_then_kill_recovers_bit_identically() {
    use minpower::engine::faults;

    let state_dir = scratch_dir("compact-crash");
    let first = start(Config {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        state_dir: state_dir.clone(),
        ..Config::default()
    });
    let id = open_session(first.addr, r#"{"circuit":"c17"}"#);
    let widths = [2.5, 3.0, 3.5];
    for w in widths {
        let (status, _, body) =
            post_json(first.addr, &format!("/sessions/{id}/ops"), &resize_op(w));
        assert_eq!(status, 200, "{body}");
    }
    let live = state_doc(first.addr, id);

    minpower_serve::session::reset_fault_indices();
    faults::arm("session.compact.crash", faults::Trigger::OnIndices(vec![0]));
    let (status, _, body) = post_json(first.addr, &format!("/sessions/{id}/compact"), "");
    assert_eq!(status, 503, "the drill must crash the compaction: {body}");
    assert!(body.contains("injected fault"), "{body}");
    assert_eq!(faults::fired_count("session.compact.crash"), 1);
    faults::disarm("session.compact.crash");

    // Same process: the next touch recovers from the crash window.
    assert_eq!(state_doc(first.addr, id), live);

    // Fresh process killed into the same window state.
    assert_eq!(first.kill(), DrainOutcome::JobsInterrupted);
    let second = start(Config {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        state_dir: state_dir.clone(),
        ..Config::default()
    });
    assert_eq!(state_doc(second.addr, id), live);

    // The recovered session keeps taking ops, durably.
    let (status, _, body) = post_json(second.addr, &format!("/sessions/{id}/ops"), &resize_op(4.0));
    assert_eq!(status, 200, "{body}");
    let advanced = state_doc(second.addr, id);
    assert_eq!(second.kill(), DrainOutcome::JobsInterrupted);
    let third = start(Config {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        state_dir,
        ..Config::default()
    });
    assert_eq!(state_doc(third.addr, id), advanced);
    // A clean compaction now succeeds.
    let (status, _, body) = post_json(third.addr, &format!("/sessions/{id}/compact"), "");
    assert_eq!(status, 200, "{body}");
    assert_eq!(state_doc(third.addr, id), advanced);
    assert_eq!(third.shutdown(), DrainOutcome::Clean);
}

/// `io.disk.full` during compaction: the snapshot write fails, the
/// compaction answers `503`, and the session recovers untouched once
/// the disk drains.
#[cfg(feature = "faults")]
#[test]
fn disk_full_during_compaction_postpones_it() {
    use minpower::engine::faults;

    let server = start(Config {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        state_dir: scratch_dir("disk-full"),
        ..Config::default()
    });
    let id = open_session(server.addr, r#"{"circuit":"c17"}"#);
    for w in [2.5, 3.0] {
        let (status, _, body) =
            post_json(server.addr, &format!("/sessions/{id}/ops"), &resize_op(w));
        assert_eq!(status, 200, "{body}");
    }
    let live = state_doc(server.addr, id);

    faults::arm("io.disk.full", faults::Trigger::EveryNth(1));
    let (status, _, body) = post_json(server.addr, &format!("/sessions/{id}/compact"), "");
    assert_eq!(status, 503, "{body}");
    faults::disarm("io.disk.full");

    // Disk back: the session is intact and compaction completes.
    assert_eq!(state_doc(server.addr, id), live);
    let (status, _, body) = post_json(server.addr, &format!("/sessions/{id}/compact"), "");
    assert_eq!(status, 200, "{body}");
    assert_eq!(state_doc(server.addr, id), live);
    assert_eq!(server.shutdown(), DrainOutcome::Clean);
}
