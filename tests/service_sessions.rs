//! Loopback integration tests for the what-if session layer: real
//! server, real `TcpStream` clients, keep-alive connection reuse.
//!
//! The load-bearing claims verified here:
//!
//! * a session driven over HTTP lands on a state **bit-identical** to
//!   replaying the same ops through [`SessionState`] directly (the
//!   cold path) — floats compared through the snapshot's hex bits;
//! * a keep-alive connection serves many ops over one TCP connection
//!   (connections ≪ requests in `/metrics`);
//! * `GET /jobs` and `GET /sessions` are real paginated listings;
//! * LRU eviction is transparent: an evicted session replays from its
//!   op-log on the next touch and keeps answering;
//! * a server killed mid-session (simulated power loss) recovers every
//!   acknowledged op on restart, bit-identically — and, when
//!   `io.write.torn` tears an op-log append, cuts the torn tail in place
//!   instead of poisoning the session;
//! * a damaged newest snapshot (a torn write under `io.write.torn`, a
//!   flipped bit, or a payload that does not decode) falls back to
//!   `snap.1` plus the op-log tail, again bit-identical to a cold
//!   replay; with no decodable generation the warm-up fails instead of
//!   serving the creation state;
//! * a warm-up whose writes the disk refuses never leaves the session
//!   accepting ops that a later replay would lose.

// The faults build compiles only the drills, which use a subset of the
// shared helpers.
#![cfg_attr(feature = "faults", allow(dead_code))]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use minpower::opt::json::{self, Value};
use minpower::opt::session::{SessionOp, SessionParams, SessionState};
use minpower_serve::{Config, DrainOutcome, Server, ServerHandle};

// ---------------------------------------------------------------- helpers

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "minpower-sessions-{name}-{}-{}",
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

/// A client that holds one TCP connection open and sends sequential
/// `Connection: keep-alive` requests over it, reading each response by
/// its `Content-Length` (the framing keep-alive reuse depends on).
struct KeepAliveClient {
    stream: TcpStream,
}

impl KeepAliveClient {
    fn connect(addr: SocketAddr) -> KeepAliveClient {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        KeepAliveClient { stream }
    }

    fn request(&mut self, method: &str, path: &str, body: &str) -> (u16, Value) {
        let raw = format!(
            "{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\n\
             Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.write_all(raw.as_bytes()).expect("write");
        // Read the head byte-by-byte up to the blank line.
        let mut head = Vec::new();
        let mut byte = [0u8; 1];
        while !head.ends_with(b"\r\n\r\n") {
            let n = self.stream.read(&mut byte).expect("read head");
            assert!(n == 1, "connection closed mid-head: {head:?}");
            head.push(byte[0]);
        }
        let head = String::from_utf8_lossy(&head).to_string();
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("bad status line in {head:?}"));
        assert!(
            head.to_ascii_lowercase().contains("connection: keep-alive"),
            "server refused keep-alive: {head}"
        );
        let length: usize = head
            .lines()
            .find_map(|line| {
                let (name, value) = line.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .unwrap_or_else(|| panic!("no Content-Length in {head:?}"));
        let mut body = vec![0u8; length];
        self.stream.read_exact(&mut body).expect("read body");
        let text = String::from_utf8(body).expect("UTF-8 body");
        (
            status,
            json::parse(&text).unwrap_or_else(|e| panic!("bad JSON {text:?}: {e}")),
        )
    }
}

/// One-shot (close-delimited) request, as in tests/service.rs.
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

fn open_session(addr: SocketAddr, spec: &str) -> u64 {
    let (status, _, body) = post_json(addr, "/sessions", spec);
    assert_eq!(status, 201, "{body}");
    u64_field(&parse_body(&body), "id")
}

/// The server-side state document (`GET /sessions/{id}?detail=gates`,
/// `state` field) — hex-bits floats, so string equality is bit equality.
fn state_doc(addr: SocketAddr, id: u64) -> String {
    let (status, _, body) = get(addr, &format!("/sessions/{id}?detail=gates"));
    assert_eq!(status, 200, "{body}");
    field(&parse_body(&body), "state").render()
}

/// The ops exercised by the durability tests: every strategy class —
/// incremental repair (resize, vt), operating-point rebuilds (fc,
/// activity), structural add/remove, and a dirty-cone re-optimize.
fn workout_ops() -> Vec<(String, SessionOp)> {
    vec![
        (
            r#"{"op":"resize","gate":"10","width":3.5}"#.to_string(),
            SessionOp::Resize {
                gate: "10".into(),
                width: 3.5,
            },
        ),
        (
            r#"{"op":"set_vt","gate":"16","vt":0.5}"#.to_string(),
            SessionOp::SetVt {
                gate: "16".into(),
                vt: 0.5,
            },
        ),
        (
            r#"{"op":"set_fc","fc":250000000}"#.to_string(),
            SessionOp::SetFc { fc: 250.0e6 },
        ),
        (
            r#"{"op":"set_activity","activity":0.25}"#.to_string(),
            SessionOp::SetActivity { activity: 0.25 },
        ),
        (
            r#"{"op":"add_gate","name":"probe_g","kind":"nand","fanin":["22","23"]}"#.to_string(),
            SessionOp::AddGate {
                name: "probe_g".into(),
                kind: minpower::netlist::GateKind::Nand,
                fanin: vec!["22".into(), "23".into()],
            },
        ),
        (
            r#"{"op":"remove_gate","gate":"probe_g"}"#.to_string(),
            SessionOp::RemoveGate {
                gate: "probe_g".into(),
            },
        ),
        (
            r#"{"op":"reoptimize","steps":10}"#.to_string(),
            SessionOp::Reoptimize { steps: 10 },
        ),
    ]
}

/// Replays `ops` through the library directly — the cold path a served
/// session must match bit-for-bit.
fn cold_replay_doc(ops: &[SessionOp]) -> String {
    let state = SessionState::replay(minpower::circuits::c17(), &SessionParams::default(), ops)
        .expect("cold replay");
    state.snapshot().render()
}

// ------------------------------------------------------------------ tests

#[cfg(not(feature = "faults"))]
#[test]
fn served_session_is_bit_identical_to_cold_replay() {
    let server = start(Config {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        state_dir: scratch_dir("identity"),
        ..Config::default()
    });
    let id = open_session(server.addr, r#"{"circuit":"c17"}"#);

    let ops = workout_ops();
    for (wire, _) in &ops {
        let (status, _, body) = post_json(server.addr, &format!("/sessions/{id}/ops"), wire);
        assert_eq!(status, 200, "op {wire}: {body}");
    }
    let cold: Vec<SessionOp> = ops.into_iter().map(|(_, op)| op).collect();
    assert_eq!(
        state_doc(server.addr, id),
        cold_replay_doc(&cold),
        "served session diverged from the cold replay"
    );

    // Invalid ops answer 400 and perturb nothing.
    let before = state_doc(server.addr, id);
    for bad in [
        r#"{"op":"resize","gate":"no-such-gate","width":3.0}"#,
        r#"{"op":"resize","gate":"10","width":1e9}"#,
        r#"{"op":"nonsense"}"#,
    ] {
        let (status, _, body) = post_json(server.addr, &format!("/sessions/{id}/ops"), bad);
        assert_eq!(status, 400, "op {bad}: {body}");
    }
    assert_eq!(state_doc(server.addr, id), before);
    assert_eq!(server.shutdown(), DrainOutcome::Clean);
}

#[cfg(not(feature = "faults"))]
#[test]
fn keep_alive_connection_serves_many_ops() {
    let server = start(Config {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        state_dir: scratch_dir("keepalive"),
        ..Config::default()
    });
    let id = open_session(server.addr, r#"{"circuit":"c17"}"#);

    // 40 ops + a snapshot over ONE connection.
    let ops = 40u64;
    let mut client = KeepAliveClient::connect(server.addr);
    for i in 0..ops {
        let width = 2.0 + (i % 8) as f64 * 0.25;
        let (status, body) = client.request(
            "POST",
            &format!("/sessions/{id}/ops"),
            &format!(r#"{{"op":"resize","gate":"10","width":{width}}}"#),
        );
        assert_eq!(status, 200, "{}", body.render());
        assert_eq!(u64_field(&body, "revision"), i + 1);
    }
    let (status, snap) = client.request("GET", &format!("/sessions/{id}"), "");
    assert_eq!(status, 200, "{}", snap.render());
    assert_eq!(u64_field(&snap, "revision"), ops);
    drop(client);

    let (status, _, body) = get(server.addr, "/metrics");
    assert_eq!(status, 200);
    let metrics = parse_body(&body);
    let sessions = field(&metrics, "sessions");
    assert_eq!(u64_field(sessions, "ops_served"), ops, "{body}");
    assert!(u64_field(sessions, "op_p99_us") > 0, "{body}");
    let http = field(&metrics, "http");
    let connections = u64_field(http, "connections");
    let responses = u64_field(http, "responses_ok");
    assert!(
        connections * 4 <= responses,
        "keep-alive reuse not measurable: {connections} connections for {responses} responses"
    );
    assert_eq!(server.shutdown(), DrainOutcome::Clean);
}

#[cfg(not(feature = "faults"))]
#[test]
fn job_and_session_listings_paginate() {
    let server = start(Config {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        state_dir: scratch_dir("listing"),
        ..Config::default()
    });

    for _ in 0..3 {
        let (status, _, body) = post_json(server.addr, "/jobs", r#"{"circuit":"c17","steps":6}"#);
        assert_eq!(status, 202, "{body}");
    }
    for _ in 0..3 {
        open_session(server.addr, r#"{"circuit":"c17"}"#);
    }

    let (status, _, body) = get(server.addr, "/jobs?offset=1&limit=1");
    assert_eq!(status, 200, "{body}");
    let page = parse_body(&body);
    assert_eq!(u64_field(&page, "total"), 3);
    let items = field(&page, "items").as_arr("items").unwrap();
    assert_eq!(items.len(), 1);
    assert_eq!(u64_field(&items[0], "id"), 2, "sorted by id: {body}");

    let (status, _, body) = get(server.addr, "/sessions?limit=2");
    assert_eq!(status, 200, "{body}");
    let page = parse_body(&body);
    assert_eq!(u64_field(&page, "total"), 3);
    assert_eq!(field(&page, "items").as_arr("items").unwrap().len(), 2);

    // Route edges: bad id 404s, wrong method 405s.
    let (status, _, _) = get(server.addr, "/sessions/999");
    assert_eq!(status, 404);
    let (status, _, _) = post_json(server.addr, "/sessions/1", "{}");
    assert_eq!(status, 405);
    assert!(matches!(
        server.shutdown(),
        DrainOutcome::Clean | DrainOutcome::JobsInterrupted
    ));
}

#[cfg(not(feature = "faults"))]
#[test]
fn evicted_sessions_replay_transparently() {
    let server = start(Config {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        max_sessions: 1, // every touch of the *other* session evicts one
        state_dir: scratch_dir("evict"),
        ..Config::default()
    });
    let a = open_session(server.addr, r#"{"circuit":"c17"}"#);
    let b = open_session(server.addr, r#"{"circuit":"c17"}"#);

    for round in 0..3 {
        for id in [a, b] {
            let width = 2.0 + round as f64 * 0.5;
            let (status, _, body) = post_json(
                server.addr,
                &format!("/sessions/{id}/ops"),
                &format!(r#"{{"op":"resize","gate":"10","width":{width}}}"#),
            );
            assert_eq!(status, 200, "session {id} round {round}: {body}");
        }
    }

    let (status, _, body) = get(server.addr, "/metrics");
    assert_eq!(status, 200);
    let metrics = parse_body(&body);
    let sessions = field(&metrics, "sessions");
    assert_eq!(u64_field(sessions, "open"), 2, "{body}");
    assert!(u64_field(sessions, "warm") <= 1, "{body}");
    assert!(u64_field(sessions, "evictions") >= 1, "{body}");
    assert!(u64_field(sessions, "replays") >= 1, "{body}");

    // Both sessions' states are exactly what an uninterrupted warm
    // session would hold.
    let expected = cold_replay_doc(&[
        SessionOp::Resize {
            gate: "10".into(),
            width: 2.0,
        },
        SessionOp::Resize {
            gate: "10".into(),
            width: 2.5,
        },
        SessionOp::Resize {
            gate: "10".into(),
            width: 3.0,
        },
    ]);
    assert_eq!(state_doc(server.addr, a), expected);
    assert_eq!(state_doc(server.addr, b), expected);
    assert_eq!(server.shutdown(), DrainOutcome::Clean);
}

#[cfg(not(feature = "faults"))]
#[test]
fn killed_server_recovers_sessions_bit_identically() {
    let state_dir = scratch_dir("recover");
    let first = start(Config {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        session_checkpoint_every: 3, // force a mid-stream checkpoint too
        state_dir: state_dir.clone(),
        ..Config::default()
    });
    let id = open_session(first.addr, r#"{"circuit":"c17"}"#);
    let ops = workout_ops();
    for (wire, _) in &ops {
        let (status, _, body) = post_json(first.addr, &format!("/sessions/{id}/ops"), wire);
        assert_eq!(status, 200, "op {wire}: {body}");
    }
    let live = state_doc(first.addr, id);

    // Periodic snapshots at ops 3 and 6: both generations are on disk,
    // and they are every snapshot byte the server wrote.
    let dir = state_dir.join("sessions").join(id.to_string());
    let on_disk: u64 = ["snap", "snap.1"]
        .iter()
        .map(|f| std::fs::metadata(dir.join(f)).expect("snapshot file").len())
        .sum();
    let (status, _, body) = get(first.addr, &format!("/sessions/{id}"));
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        u64_field(&parse_body(&body), "snap_bytes"),
        on_disk,
        "{body}"
    );
    let (status, _, body) = get(first.addr, "/metrics");
    assert_eq!(status, 200);
    let metrics = parse_body(&body);
    let sessions = field(&metrics, "sessions");
    assert_eq!(u64_field(sessions, "checkpoints"), 2, "{body}");
    assert_eq!(u64_field(sessions, "snapshot_bytes"), on_disk, "{body}");

    // Power loss: no graceful teardown, no final writes.
    assert_eq!(first.kill(), DrainOutcome::JobsInterrupted);

    let second = start(Config {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        session_checkpoint_every: 3,
        state_dir: state_dir.clone(),
        ..Config::default()
    });
    // Every acknowledged op survived, bit-for-bit — and matches the
    // cold replay, closing the loop kill → restart → replay ≡ no kill.
    let recovered = state_doc(second.addr, id);
    assert_eq!(recovered, live, "restart diverged from the live session");
    let cold: Vec<SessionOp> = ops.into_iter().map(|(_, op)| op).collect();
    assert_eq!(recovered, cold_replay_doc(&cold));
    let (status, _, body) = get(second.addr, "/metrics");
    assert_eq!(status, 200);
    assert!(
        u64_field(field(&parse_body(&body), "sessions"), "replays") >= 1,
        "{body}"
    );

    // The recovered session keeps taking ops.
    let (status, _, body) = post_json(
        second.addr,
        &format!("/sessions/{id}/ops"),
        r#"{"op":"resize","gate":"11","width":4.0}"#,
    );
    assert_eq!(status, 200, "{body}");

    // Teardown removes the session's whole directory and reports the
    // bytes it reclaimed.
    let raw = format!("DELETE /sessions/{id} HTTP/1.1\r\nHost: t\r\n\r\n");
    let (status, _, body) = raw_request(second.addr, raw.as_bytes());
    assert_eq!(status, 200);
    assert!(
        u64_field(&parse_body(&body), "reclaimed_bytes") > 0,
        "{body}"
    );
    assert!(!state_dir.join("sessions").join(id.to_string()).exists());
    assert_eq!(second.shutdown(), DrainOutcome::Clean);
}

fn resize_wire(width: f64) -> String {
    format!(r#"{{"op":"resize","gate":"10","width":{width}}}"#)
}

fn resizes(widths: &[f64]) -> Vec<SessionOp> {
    widths
        .iter()
        .map(|&width| SessionOp::Resize {
            gate: "10".into(),
            width,
        })
        .collect()
}

fn default_config(state_dir: &Path) -> Config {
    Config {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        state_dir: state_dir.to_path_buf(),
        ..Config::default()
    }
}

/// Opens a c17 session in a fresh state directory and posts a resize
/// per entry of `widths`, with `io.write.torn` tearing the op-log append
/// at index `torn` (the disk persists half the record and reports
/// success). Every op is acknowledged; the server is then killed.
/// Returns the state directory and the session id.
#[cfg(feature = "faults")]
fn session_with_torn_oplog(tag: &str, widths: &[f64], torn: u64) -> (PathBuf, u64) {
    use minpower::engine::faults;

    let state_dir = scratch_dir(tag);
    let first = start(default_config(&state_dir));
    let id = open_session(first.addr, r#"{"circuit":"c17"}"#);
    minpower::opt::store::reset_fault_indices();
    faults::arm("io.write.torn", faults::Trigger::OnIndices(vec![torn]));
    for &width in widths {
        let (status, _, body) = post_json(
            first.addr,
            &format!("/sessions/{id}/ops"),
            &resize_wire(width),
        );
        assert_eq!(status, 200, "{body}");
    }
    assert_eq!(faults::fired_count("io.write.torn"), 1);
    faults::disarm("io.write.torn");
    assert_eq!(first.kill(), DrainOutcome::JobsInterrupted);
    (state_dir, id)
}

/// The torn op-log drill: an append persists only half a record while
/// reporting success (a lying disk). The next recovery must cut the log
/// at the last intact record, count the cut, and keep the session
/// serving — never poison it.
#[cfg(feature = "faults")]
#[test]
fn torn_oplog_tail_truncates_and_session_survives() {
    let (state_dir, id) = session_with_torn_oplog("torn", &[2.5, 3.0, 3.5, 4.0], 2);
    let second = start(default_config(&state_dir));
    // The torn record (index 2) ends the readable prefix: ops 0 and 1
    // survive, the tail is gone — cut cleanly, not corrupting.
    assert_eq!(
        state_doc(second.addr, id),
        cold_replay_doc(&resizes(&[2.5, 3.0]))
    );
    let (status, _, body) = get(second.addr, "/metrics");
    assert_eq!(status, 200);
    assert_eq!(
        u64_field(field(&parse_body(&body), "sessions"), "oplog_truncated"),
        1,
        "{body}"
    );

    // Cut in place: new ops append after the intact prefix and a further
    // restart still recovers bit-identically.
    let (status, _, body) = post_json(
        second.addr,
        &format!("/sessions/{id}/ops"),
        &resize_wire(5.0),
    );
    assert_eq!(status, 200, "{body}");
    let live = state_doc(second.addr, id);
    assert_eq!(second.kill(), DrainOutcome::JobsInterrupted);

    let third = start(default_config(&state_dir));
    assert_eq!(state_doc(third.addr, id), live);
    assert_eq!(third.shutdown(), DrainOutcome::Clean);
}

/// A torn op-log tail met by a warm-up while the disk is full: the cut
/// needs no write the disk refuses, so the op acknowledged afterwards
/// lands after the intact prefix and survives a restart.
#[cfg(feature = "faults")]
#[test]
fn op_acked_after_a_disk_full_warm_up_survives_restart() {
    use minpower::engine::faults;

    let (state_dir, id) = session_with_torn_oplog("torn-full", &[2.5, 3.0, 3.5], 2);
    let second = start(default_config(&state_dir));
    minpower::opt::store::reset_fault_indices();
    faults::arm("io.disk.full", faults::Trigger::EveryNth(1));
    let (status, _, body) = get(second.addr, &format!("/sessions/{id}"));
    faults::disarm("io.disk.full");
    assert_eq!(status, 200, "{body}");
    assert_eq!(u64_field(&parse_body(&body), "revision"), 2, "{body}");

    let (status, _, body) = post_json(
        second.addr,
        &format!("/sessions/{id}/ops"),
        &resize_wire(5.0),
    );
    assert_eq!(status, 200, "{body}");
    assert_eq!(u64_field(&parse_body(&body), "revision"), 3, "{body}");
    let live = state_doc(second.addr, id);
    assert_eq!(second.kill(), DrainOutcome::JobsInterrupted);

    let third = start(default_config(&state_dir));
    let recovered = state_doc(third.addr, id);
    assert_eq!(recovered, live, "the acknowledged op was lost");
    assert_eq!(recovered, cold_replay_doc(&resizes(&[2.5, 3.0, 5.0])));
    assert_eq!(third.shutdown(), DrainOutcome::Clean);
}

/// A planted snapshot *ahead* of its (absent) log, met by a warm-up
/// while the disk is full: the normalization that folds it back to
/// `ops_folded = 0` cannot be written, so the warm-up must fail rather
/// than accept ops a later replay would skip. Once the disk drains the
/// session recovers and keeps every later op.
#[cfg(feature = "faults")]
#[test]
fn snapshot_ahead_warm_up_fails_when_normalization_cannot_be_written() {
    use minpower::engine::faults;
    use minpower::opt::store;

    let state_dir = scratch_dir("ahead-full");
    let first = start(default_config(&state_dir));
    let id = open_session(first.addr, r#"{"circuit":"c17"}"#);
    assert_eq!(first.shutdown(), DrainOutcome::Clean);
    let dir = state_dir.join("sessions").join(id.to_string());
    let folded = resizes(&[2.5, 3.0, 3.5]);
    let state = SessionState::replay(
        minpower::circuits::c17(),
        &SessionParams::default(),
        &folded,
    )
    .expect("replay");
    store::write_durable(&dir.join("snap"), &state.checkpoint(3)).expect("plant snapshot");
    let _ = std::fs::remove_file(dir.join("oplog"));

    let second = start(default_config(&state_dir));
    store::reset_fault_indices();
    faults::arm("io.disk.full", faults::Trigger::EveryNth(1));
    let (status, _, body) = get(second.addr, &format!("/sessions/{id}"));
    faults::disarm("io.disk.full");
    assert_eq!(
        status, 503,
        "warm-up went warm without its normalization: {body}"
    );

    assert_eq!(state_doc(second.addr, id), cold_replay_doc(&folded));
    let (status, _, body) = post_json(
        second.addr,
        &format!("/sessions/{id}/ops"),
        &resize_wire(5.0),
    );
    assert_eq!(status, 200, "{body}");
    let live = state_doc(second.addr, id);
    assert_eq!(second.kill(), DrainOutcome::JobsInterrupted);

    let third = start(default_config(&state_dir));
    assert_eq!(
        state_doc(third.addr, id),
        live,
        "an op after the warm-up was lost"
    );
    assert_eq!(third.shutdown(), DrainOutcome::Clean);
}

/// Drives a session into the damaged-newest-snapshot window and checks
/// recovery. Ops 1–3, then a compaction, so the op log alone no longer
/// reproduces the state; then ops 4–7 with a periodic snapshot at op 6
/// (`arm` runs before them). After a kill, `damage` gets the newest
/// `snap`, which must then fail verification. The restart must recover
/// from `snap.1` plus the log tail, bit-identical to a cold replay.
fn damaged_snapshot_falls_back(tag: &str, arm: impl FnOnce(), damage: impl FnOnce(&Path)) {
    use minpower::opt::store;

    let state_dir = scratch_dir(tag);
    let config = || Config {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        session_checkpoint_every: 3,
        state_dir: state_dir.clone(),
        ..Config::default()
    };
    let first = start(config());
    let id = open_session(first.addr, r#"{"circuit":"c17"}"#);
    let ops = workout_ops();
    let post_op = |wire: &str| {
        let (status, _, body) = post_json(first.addr, &format!("/sessions/{id}/ops"), wire);
        assert_eq!(status, 200, "op {wire}: {body}");
    };
    for (wire, _) in &ops[..3] {
        post_op(wire);
    }
    let (status, _, body) = post_json(first.addr, &format!("/sessions/{id}/compact"), "");
    assert_eq!(status, 200, "{body}");
    arm();
    for (wire, _) in &ops[3..] {
        post_op(wire);
    }
    assert_eq!(first.kill(), DrainOutcome::JobsInterrupted);

    let snap = state_dir.join("sessions").join(id.to_string()).join("snap");
    damage(&snap);
    assert!(
        store::read_verified(&snap).is_err(),
        "newest snap must be damaged"
    );
    assert!(store::read_verified(&store::previous_generation(&snap)).is_ok());

    let second = start(config());
    let cold: Vec<SessionOp> = ops.into_iter().map(|(_, op)| op).collect();
    assert_eq!(
        state_doc(second.addr, id),
        cold_replay_doc(&cold),
        "recovery from snap.1 + log tail diverged from the cold replay"
    );
    assert_eq!(second.shutdown(), DrainOutcome::Clean);
}

/// The `io.write.torn` drill on a session snapshot: the periodic write
/// at op 6 persists only half its payload while reporting success.
/// Op-log appends share the site, so the write is index 3: the appends
/// of ops 4, 5 and 6 come first.
#[cfg(feature = "faults")]
#[test]
fn torn_snapshot_write_falls_back_to_previous_generation() {
    use minpower::engine::faults;

    damaged_snapshot_falls_back(
        "torn-snap",
        || {
            minpower::opt::store::reset_fault_indices();
            faults::arm("io.write.torn", faults::Trigger::OnIndices(vec![3]));
        },
        |_| {},
    );
    assert_eq!(faults::fired_count("io.write.torn"), 1);
    faults::disarm("io.write.torn");
}

/// Bit rot in the newest snapshot: one flipped payload bit fails its
/// CRC, and recovery takes the previous generation instead.
#[test]
fn flipped_snapshot_bit_falls_back_to_previous_generation() {
    damaged_snapshot_falls_back(
        "flip-snap",
        || {},
        |snap| {
            let mut bytes = std::fs::read(snap).expect("read snap");
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x04;
            std::fs::write(snap, &bytes).expect("write snap");
        },
    );
}

/// A snapshot whose envelope is intact but whose payload does not
/// decode — a retired v1 `minpower-session-ckpt` document, or bytes that
/// were never a checkpoint. With a decodable `snap.1` the warm-up takes
/// it; with neither generation decodable it fails naming the snapshot,
/// because after a compaction the creation spec plus the log no longer
/// holds the acknowledged ops.
#[test]
fn undecodable_snapshot_falls_back_then_fails_never_serving_the_creation_state() {
    use minpower::opt::store;

    let state_dir = scratch_dir("undecodable-snap");
    let first = start(default_config(&state_dir));
    let id = open_session(first.addr, r#"{"circuit":"c17"}"#);
    let widths = [2.5, 3.0, 3.5];
    for width in widths {
        let (status, _, body) = post_json(
            first.addr,
            &format!("/sessions/{id}/ops"),
            &resize_wire(width),
        );
        assert_eq!(status, 200, "{body}");
    }
    let (status, _, body) = post_json(first.addr, &format!("/sessions/{id}/compact"), "");
    assert_eq!(status, 200, "{body}");
    assert_eq!(first.shutdown(), DrainOutcome::Clean);
    let expected = cold_replay_doc(&resizes(&widths));

    // The v1 document goes in as `snap`; the intact v2 snapshot rotates
    // to `snap.1`.
    let snap = state_dir.join("sessions").join(id.to_string()).join("snap");
    let v1 = Value::Obj(vec![
        ("schema".into(), Value::Str("minpower-session-ckpt".into())),
        ("version".into(), Value::Int(1)),
        ("ops_folded".into(), Value::Int(0)),
        ("state".into(), json::parse(&expected).expect("state doc")),
    ]);
    store::write_durable(&snap, v1.render().as_bytes()).expect("plant v1 snapshot");
    let second = start(default_config(&state_dir));
    assert_eq!(state_doc(second.addr, id), expected, "snap.1 not taken");
    assert_eq!(second.shutdown(), DrainOutcome::Clean);

    // Now neither generation decodes: the v1 document rotates to
    // `snap.1` under a payload that was never a checkpoint.
    store::write_durable(&snap, b"not a session checkpoint").expect("plant garbage");
    let third = start(default_config(&state_dir));
    let (status, _, body) = get(third.addr, &format!("/sessions/{id}"));
    assert_eq!(status, 500, "{body}");
    assert!(
        body.contains("snap"),
        "error must name the snapshot: {body}"
    );
    let (status, _, body) = post_json(
        third.addr,
        &format!("/sessions/{id}/ops"),
        &resize_wire(5.0),
    );
    assert_eq!(
        status, 500,
        "an op was accepted over an unreadable snapshot: {body}"
    );
    assert_eq!(third.shutdown(), DrainOutcome::Clean);
}
