//! Durable-store integration tests: corruption corpus, recovery audit,
//! degraded-mode operation, and a kill/corrupt/restart chaos soak.
//!
//! Two halves, like `service_http.rs`:
//!
//! * **without** `faults` — real on-disk corruption (truncations, bit
//!   flips, garbage) against real servers: every corrupt job record is
//!   either recovered from its previous generation or quarantined with
//!   a reason file, and every damaged probe journal is cut back to its
//!   valid prefix (the cut tail kept in quarantine) or, with a broken
//!   header, quarantined whole — never a panic, never a silently wrong
//!   resume;
//! * **with** `faults` — the injected-IO drills (`io.write.torn`,
//!   `io.write.short`, `io.fsync.fail`, `io.disk.full`,
//!   `checkpoint.corrupt`), including the disk-full degraded-mode
//!   state machine end to end over HTTP and torn/corrupt journal
//!   appends under a running job. Run these single-threaded
//!   (`--test-threads=1`): the fault registry is process-global.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use minpower::models::{Design, EnergyBreakdown};
use minpower::opt::checkpoint::{ProbeJournal, ProbeRecord};
use minpower::opt::json::{self, Value};
use minpower::opt::store;
use minpower_serve::{Config, DrainOutcome, Server, ServerHandle};

// ---------------------------------------------------------------- helpers

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "minpower-store-it-{name}-{}-{}",
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

/// Waits until `path` exists (checkpoint writes are asynchronous to the
/// test's point of view).
fn wait_for_file(path: &Path, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(120);
    while !path.exists() {
        assert!(Instant::now() < deadline, "{what} never appeared");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn flip_bit_in_payload(path: &Path) {
    let mut bytes = std::fs::read(path).expect("read victim");
    let i = bytes.len() * 3 / 4; // deep inside the payload
    bytes[i] ^= 0x08;
    std::fs::write(path, &bytes).expect("write corrupted victim");
}

fn quarantine_entries(state_dir: &Path) -> Vec<String> {
    let mut names = Vec::new();
    if let Ok(entries) = std::fs::read_dir(state_dir.join("quarantine")) {
        for entry in entries.flatten() {
            names.push(entry.file_name().to_string_lossy().into_owned());
        }
    }
    names.sort();
    names
}

// ------------------------------------------------- corruption corpus

fn journal_path(state_dir: &Path, id: u64) -> PathBuf {
    state_dir.join(format!("job-{id}.journal"))
}

/// Polls the journal at `path` until it holds at least `probes` valid
/// probes.
fn wait_for_probes(path: &Path, probes: usize) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if let Ok(j) = ProbeJournal::load(path) {
            if j.probes.len() >= probes {
                return;
            }
        }
        assert!(
            Instant::now() < deadline,
            "journal never reached {probes} probes"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A four-probe journal and the probes it holds.
fn sample_journal() -> (Vec<u8>, Vec<ProbeRecord>) {
    let probes: Vec<ProbeRecord> = (0..4)
        .map(|k| {
            let vdd = 1.0 + 0.1 * k as f64;
            let vts = if k % 2 == 0 {
                vec![0.3; 3]
            } else {
                vec![0.25, 0.3, 0.35]
            };
            ProbeRecord {
                vdd,
                design: Design {
                    vdd,
                    vt: vts.clone(),
                    width: vec![1.0, 2.0 + k as f64, 3.5],
                },
                vts,
                energy: EnergyBreakdown::new(1.0e-15 * k as f64, 2.0e-12),
                critical_delay: 3.0e-9,
                feasible: k != 2,
            }
        })
        .collect();
    let mut bytes = Vec::new();
    ProbeJournal::encode_header(&mut bytes, 7, &[1.5e-10, 2.5e-10, 0.0]);
    for p in &probes {
        ProbeJournal::encode_probe(&mut bytes, p);
    }
    (bytes, probes)
}

/// Every way a probe journal can be damaged yields, after the startup
/// audit, either a valid prefix of the real probes (the bad tail cut
/// off and kept in quarantine) or a quarantined file with a reason —
/// never a panic and never an impostor record. A leftover v1 `.ckpt`
/// snapshot is quarantined too.
#[test]
fn corrupt_checkpoint_corpus_is_recovered_or_rejected() {
    let dir = scratch_dir("ckpt-corpus");
    let path = dir.join("job-1.journal");
    let (pristine, probes) = sample_journal();
    let header_len = {
        let mut h = Vec::new();
        ProbeJournal::encode_header(&mut h, 7, &[1.5e-10, 2.5e-10, 0.0]);
        h.len()
    };

    let mut bad_header = pristine.clone();
    bad_header[header_len / 2] ^= 0x04;
    let mut corpus: Vec<(String, Vec<u8>, bool)> = vec![
        ("empty file".into(), Vec::new(), false),
        (
            "pure garbage".into(),
            b"\x00\xffnot a journal at all".to_vec(),
            false,
        ),
        ("bad header record".into(), bad_header, false),
    ];
    for frac in 1..8 {
        let cut = pristine.len() * frac / 8;
        corpus.push((
            format!("truncated to {cut} bytes"),
            pristine[..cut].to_vec(),
            cut >= header_len,
        ));
    }
    for i in [
        header_len + 3,
        pristine.len() / 3,
        pristine.len() / 2,
        pristine.len() - 2,
    ] {
        let mut bytes = pristine.clone();
        bytes[i] ^= 0x01;
        corpus.push((format!("bit flip at {i}"), bytes, true));
    }

    for (what, bytes, keeps_prefix) in corpus {
        std::fs::write(&path, &bytes).expect("plant corruption");
        let report = store::audit(&dir);
        if path.exists() {
            // What survives is a prefix of the real probes, cut to
            // exactly the bytes that verified.
            let j = ProbeJournal::load(&path)
                .unwrap_or_else(|e| panic!("{what}: kept an unreadable journal: {e}"));
            assert_eq!(j.salt, 7, "{what}");
            assert_eq!(j.probes, probes[..j.probes.len()], "{what}: impostor probe");
            assert_eq!(
                std::fs::metadata(&path).unwrap().len() as usize,
                j.valid_len,
                "{what}: bad tail not cut"
            );
            if j.valid_len < bytes.len() {
                let cut = &report.quarantined[0].path;
                assert_eq!(std::fs::read(cut).unwrap(), bytes[j.valid_len..], "{what}");
            }
        } else {
            assert!(!keeps_prefix, "{what}: a valid prefix was quarantined");
            assert_eq!(report.quarantined.len(), 1, "{what}: {report:?}");
            let q = &report.quarantined[0];
            assert!(!q.reason.is_empty(), "{what}: empty reason");
            assert!(q.path.exists(), "{what}: quarantined bytes lost");
        }
        let _ = std::fs::remove_file(&path);
    }

    // A v1 whole-journal snapshot left over from an older build.
    let v1 = dir.join("job-2.ckpt");
    store::write_durable(
        &v1,
        br#"{"format":"minpower-checkpoint","version":1,"engine":"search","salt":7}"#,
    )
    .unwrap();
    let report = store::audit(&dir);
    assert!(!v1.exists(), "v1 checkpoint left in place");
    let q = report
        .quarantined
        .iter()
        .find(|q| q.path.file_name().unwrap() == "job-2.ckpt")
        .unwrap_or_else(|| panic!("v1 checkpoint not quarantined: {report:?}"));
    assert!(q.reason.contains("v1"), "{}", q.reason);
}

/// A leftover v1 `job-<id>.ckpt` from an older build is quarantined at
/// startup, and its pending job reruns from scratch to the same bits.
#[test]
fn leftover_v1_checkpoint_is_quarantined_and_the_job_reruns() {
    let spec = r#"{"circuit":"s27","steps":8}"#;
    let expected = direct_run_document(spec);
    let state_dir = scratch_dir("v1-ckpt");
    let job = minpower_serve::job::Job::new(
        1,
        minpower_serve::job::JobSpec::from_json(&json::parse(spec).unwrap()).unwrap(),
    );
    minpower_serve::job::persist(&state_dir, &job, "pending", None, None).expect("record");
    let v1 = state_dir.join("job-1.ckpt");
    store::write_durable(
        &v1,
        br#"{"format":"minpower-checkpoint","version":1,"engine":"search","salt":7,"probes":[]}"#,
    )
    .unwrap();

    let server = start(Config {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        state_dir: state_dir.clone(),
        ..Config::default()
    });
    let names = quarantine_entries(&state_dir);
    assert!(
        names.contains(&"job-1.ckpt".to_string())
            && names.contains(&"job-1.ckpt.reason".to_string()),
        "v1 checkpoint not quarantined: {names:?}"
    );
    let done = wait_for(server.addr, 1, "rerun", terminal);
    assert_eq!(status_of(&done), "done", "{}", done.render());
    assert_eq!(field(&done, "result").render(), expected);
    assert_eq!(server.shutdown(), DrainOutcome::Clean);
}

/// The startup audit quarantines a corrupt job record (reason file and
/// all) and the restarted server runs fine without it.
#[test]
fn startup_audit_quarantines_corrupt_job_records() {
    let spec = r#"{"circuit":"c17","steps":7}"#;
    let state_dir = scratch_dir("audit-quarantine");
    let first = start(Config {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        state_dir: state_dir.clone(),
        ..Config::default()
    });
    let id = submit(first.addr, spec);
    let done = wait_for(first.addr, id, "completion", terminal);
    assert_eq!(status_of(&done), "done", "{}", done.render());
    assert_eq!(first.shutdown(), DrainOutcome::Clean);

    // Damage the terminal record beyond recovery: corrupt the primary
    // and remove its fallback generation.
    let record = state_dir.join(format!("job-{id}.json"));
    flip_bit_in_payload(&record);
    let _ = std::fs::remove_file(store::previous_generation(&record));
    // And plant an unrelated garbage record.
    std::fs::write(state_dir.join("job-99.json"), b"\x00\x01 not json").unwrap();

    let second = start(Config {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        state_dir: state_dir.clone(),
        ..Config::default()
    });
    // The corrupt records are quarantined with reason files, not loaded.
    let names = quarantine_entries(&state_dir);
    assert!(
        names.contains(&format!("job-{id}.json"))
            && names.contains(&format!("job-{id}.json.reason")),
        "quarantine missing the corrupt record: {names:?}"
    );
    assert!(
        names.contains(&"job-99.json".to_string()),
        "garbage record not quarantined: {names:?}"
    );
    let (status, _, body) = get(second.addr, &format!("/jobs/{id}"));
    assert_eq!(status, 404, "quarantined job still served: {body}");

    // The server is healthy (quarantine is recovery, not degradation)
    // and reports what it did.
    let (status, _, body) = get(second.addr, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(status_of(&parse_body(&body)), "ok", "{body}");
    let (_, _, metrics) = get(second.addr, "/metrics");
    let quarantined = field(field(&parse_body(&metrics), "store"), "quarantined")
        .as_u64("quarantined")
        .unwrap();
    assert!(quarantined >= 2, "store.quarantined = {quarantined}");

    // And it still takes new work.
    let id2 = submit(second.addr, spec);
    let done2 = wait_for(second.addr, id2, "fresh job", terminal);
    assert_eq!(status_of(&done2), "done", "{}", done2.render());
    assert_eq!(second.shutdown(), DrainOutcome::Clean);
}

/// Kill mid-run, corrupt a *later* record of the probe journal,
/// restart: the audit cuts the journal back to the records before the
/// damage (keeping the cut tail in quarantine with a reason), and the
/// resumed job still finishes bit-identically (the search replay is
/// deterministic from any valid prefix).
#[test]
fn resume_from_previous_generation_after_newest_checkpoint_corrupts() {
    let spec = r#"{"circuit":"s713","steps":16,"top_gates":2}"#;
    let expected = direct_run_document(spec);

    let state_dir = scratch_dir("gen-fallback");
    let first = start(Config {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        checkpoint_every: 4,
        state_dir: state_dir.clone(),
        ..Config::default()
    });
    let id = submit(first.addr, spec);

    // Wait for at least two appended batches, then pull the plug.
    let journal = journal_path(&state_dir, id);
    wait_for_probes(&journal, 8);
    assert_eq!(first.kill(), DrainOutcome::JobsInterrupted);

    // Bit-flip a later record: the CRC frame must catch it.
    let before = ProbeJournal::load(&journal).expect("intact journal");
    flip_bit_in_payload(&journal);

    let second = start(Config {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        checkpoint_every: 4,
        state_dir: state_dir.clone(),
        ..Config::default()
    });
    let names = quarantine_entries(&state_dir);
    assert!(
        names.contains(&format!("job-{id}.journal.tail"))
            && names.contains(&format!("job-{id}.journal.tail.reason")),
        "corrupt journal tail not quarantined: {names:?}"
    );
    let done = wait_for(second.addr, id, "resumed completion", terminal);
    assert_eq!(status_of(&done), "done", "{}", done.render());
    assert_eq!(
        field(&done, "result").render(),
        expected,
        "resume from the journal's valid prefix diverged"
    );
    assert!(
        field(&done, "checkpoints_written")
            .as_u64("checkpoints_written")
            .unwrap()
            >= 1,
        "the resumed run appended nothing after the {} kept probes",
        before.probes.len()
    );
    // Degraded mode never latched: quarantine + recovery is normal
    // operation, not a write failure.
    let (_, _, body) = get(second.addr, "/healthz");
    assert_eq!(status_of(&parse_body(&body)), "ok", "{body}");
    assert_eq!(second.shutdown(), DrainOutcome::Clean);
}

/// `GET /healthz` answers `ok` on a healthy server, and `/metrics`
/// carries the store section with real write counts.
#[test]
fn healthz_ok_and_store_metrics_on_healthy_server() {
    let server = start(Config {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        state_dir: scratch_dir("healthz-ok"),
        ..Config::default()
    });
    let (status, _, body) = get(server.addr, "/healthz");
    assert_eq!(status, 200, "{body}");
    let doc = parse_body(&body);
    assert_eq!(status_of(&doc), "ok", "{body}");
    assert_eq!(
        field(&doc, "degraded_seconds")
            .as_u64("degraded_seconds")
            .unwrap(),
        0
    );

    let id = submit(server.addr, r#"{"circuit":"c17","steps":7}"#);
    wait_for(server.addr, id, "completion", terminal);
    let (_, _, metrics) = get(server.addr, "/metrics");
    let store_doc = parse_body(&metrics);
    let store_obj = field(&store_doc, "store");
    let writes = field(store_obj, "writes").as_u64("writes").unwrap();
    assert!(
        writes >= 2,
        "expected job-record + checkpoint writes, got {writes}"
    );
    assert!(!field(store_obj, "degraded").as_bool("degraded").unwrap());
    server.shutdown();
}

/// The pre-flight state-dir validation rejects paths that can never
/// hold durable state (the CLI maps this to usage exit code 2).
#[test]
fn validate_state_dir_rejects_files_and_dead_parents() {
    let dir = scratch_dir("validate");
    let file = dir.join("occupied");
    std::fs::write(&file, b"i am a file").unwrap();

    let err = minpower_serve::validate_state_dir(&file).unwrap_err();
    assert!(err.contains("not a directory"), "{err}");

    let err = minpower_serve::validate_state_dir(&file.join("sub")).unwrap_err();
    assert!(err.contains("cannot be created"), "{err}");

    assert_eq!(
        minpower_serve::validate_state_dir(&dir.join("fresh")),
        Ok(())
    );
    // The probe leaves no debris behind.
    assert!(std::fs::read_dir(dir.join("fresh"))
        .unwrap()
        .next()
        .is_none());
}

// ------------------------------------------------------------ chaos soak

/// Kill/corrupt/restart in a loop: after every crash + random(ish)
/// corruption, the restarted server either finishes the job
/// bit-identically or has cleanly quarantined what it could not use —
/// never wedged, never wrong. Iterations default low for CI smoke;
/// raise `MINPOWER_SOAK_ITERS` for a longer soak.
#[test]
fn chaos_soak_kill_corrupt_restart() {
    let iters: usize = std::env::var("MINPOWER_SOAK_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    let spec = r#"{"circuit":"s713","steps":16,"top_gates":2}"#;
    let expected = direct_run_document(spec);

    for iter in 0..iters {
        let state_dir = scratch_dir(&format!("soak-{iter}"));
        let first = start(Config {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            checkpoint_every: 4,
            state_dir: state_dir.clone(),
            ..Config::default()
        });
        let id = submit(first.addr, spec);
        let ckpt = journal_path(&state_dir, id);
        let record = state_dir.join(format!("job-{id}.json"));
        wait_for_file(&ckpt, "first checkpoint");
        assert_eq!(first.kill(), DrainOutcome::JobsInterrupted, "iter {iter}");

        // Deterministic per-iteration damage. Damaging the *journal*
        // must not lose the job (its valid prefix or a from-scratch
        // rerun still lands on the identical design); damaging
        // the *job record* — written only once so far, no fallback
        // generation yet — must quarantine it cleanly.
        let record_damaged = iter % 3 == 1;
        match iter % 3 {
            0 => flip_bit_in_payload(&ckpt),
            1 => {
                let bytes = std::fs::read(&record).unwrap();
                std::fs::write(&record, &bytes[..bytes.len() / 2]).unwrap();
            }
            _ => std::fs::write(&ckpt, b"total garbage, not even framed").unwrap(),
        }

        let second = start(Config {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            checkpoint_every: 4,
            state_dir: state_dir.clone(),
            ..Config::default()
        });
        if record_damaged {
            let (status, _, body) = get(second.addr, &format!("/jobs/{id}"));
            assert_eq!(status, 404, "iter {iter}: quarantined job served: {body}");
            let names = quarantine_entries(&state_dir);
            assert!(
                names.contains(&format!("job-{id}.json")),
                "iter {iter}: truncated record not quarantined: {names:?}"
            );
        } else {
            let done = wait_for(second.addr, id, "soak resume", terminal);
            assert_eq!(status_of(&done), "done", "iter {iter}: {}", done.render());
            assert_eq!(
                field(&done, "result").render(),
                expected,
                "iter {iter}: resumed design diverged"
            );
        }
        let (_, _, body) = get(second.addr, "/healthz");
        assert_eq!(status_of(&parse_body(&body)), "ok", "iter {iter}: {body}");
        assert_eq!(second.shutdown(), DrainOutcome::Clean, "iter {iter}");
        let _ = std::fs::remove_dir_all(&state_dir);
    }
}

// ----------------------------------------------------------- fault drills

#[cfg(feature = "faults")]
mod fault_drills {
    use super::*;
    use minpower::engine::faults;

    /// `io.disk.full` armed persistently: submissions get `503 +
    /// Retry-After`, `/healthz` reports `degraded` with a reason, the
    /// in-flight job completes, and one disarm later the service
    /// recovers on its own. The end-to-end degraded-mode state machine.
    #[test]
    fn disk_full_latches_degraded_mode_and_recovers() {
        let spec_slow = r#"{"circuit":"s713","steps":16,"top_gates":2}"#;
        let spec_fast = r#"{"circuit":"c17","steps":7}"#;
        let state_dir = scratch_dir("disk-full");
        let server = start(Config {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            checkpoint_every: 4,
            state_dir: state_dir.clone(),
            ..Config::default()
        });

        // Get a job in flight first, then break the disk.
        let id = submit(server.addr, spec_slow);
        wait_for(server.addr, id, "job running", |v| {
            status_of(v) == "running"
        });
        store::reset_fault_indices();
        faults::arm("io.disk.full", faults::Trigger::EveryNth(1));

        // New submissions are refused with a retry hint.
        let (status, head, body) = post_json(server.addr, "/jobs", spec_fast);
        assert_eq!(status, 503, "{body}");
        assert!(head.contains("Retry-After:"), "no Retry-After in {head}");
        assert!(body.contains("degraded"), "{body}");

        // Health reports the latch and its reason.
        let (status, _, body) = get(server.addr, "/healthz");
        assert_eq!(status, 200);
        let doc = parse_body(&body);
        assert_eq!(status_of(&doc), "degraded", "{body}");
        assert!(
            field(&doc, "reason").render().contains("space"),
            "reason should mention the disk: {body}"
        );
        let (_, _, metrics) = get(server.addr, "/metrics");
        let store_obj_doc = parse_body(&metrics);
        let store_obj = field(&store_obj_doc, "store");
        assert!(field(store_obj, "degraded").as_bool("degraded").unwrap());

        // The in-flight job completes despite the dead disk (its
        // checkpoints and terminal record simply don't persist).
        let done = wait_for(server.addr, id, "in-flight completion", terminal);
        assert_eq!(status_of(&done), "done", "{}", done.render());

        // Disk comes back: the next submission probes, un-latches, and
        // is admitted.
        faults::disarm("io.disk.full");
        let id2 = submit(server.addr, spec_fast);
        let done2 = wait_for(server.addr, id2, "post-recovery job", terminal);
        assert_eq!(status_of(&done2), "done", "{}", done2.render());
        let (_, _, body) = get(server.addr, "/healthz");
        assert_eq!(status_of(&parse_body(&body)), "ok", "{body}");
        server.shutdown();
    }

    /// `checkpoint.corrupt` flips a payload bit silently: the write
    /// "succeeds" but the CRC catches it on the next read, and the
    /// previous generation recovers the data.
    #[test]
    fn silent_corruption_is_caught_by_the_crc_and_recovered() {
        let dir = scratch_dir("silent-corrupt");
        let path = dir.join("rec.json");
        store::write_durable(&path, b"{\"v\":1}").expect("clean write");

        store::reset_fault_indices();
        faults::arm("checkpoint.corrupt", faults::Trigger::EveryNth(1));
        store::write_durable(&path, b"{\"v\":2}").expect("corrupted write still reports success");
        assert!(faults::fired_count("checkpoint.corrupt") >= 1);
        faults::disarm("checkpoint.corrupt");

        // Direct read: typed checksum error. Load: previous generation.
        let err = store::read_verified(&path).unwrap_err();
        assert_eq!(err.kind(), "checksum-mismatch", "{err}");
        let loaded = store::read_with_fallback(&path).expect("fallback");
        assert!(loaded.from_fallback);
        assert_eq!(loaded.payload, b"{\"v\":1}");
    }

    /// A torn write (prefix persisted, success reported) is caught as a
    /// length mismatch and recovered from the previous generation.
    #[test]
    fn torn_write_is_caught_and_recovered() {
        let dir = scratch_dir("torn");
        let path = dir.join("rec.json");
        store::write_durable(&path, b"{\"v\":1}").expect("clean write");

        store::reset_fault_indices();
        faults::arm("io.write.torn", faults::Trigger::OnIndices(vec![0]));
        store::write_durable(&path, b"{\"v\":2}").expect("torn write reports success");
        faults::disarm("io.write.torn");

        let err = store::read_verified(&path).unwrap_err();
        assert_eq!(err.kind(), "length-mismatch", "{err}");
        let loaded = store::read_with_fallback(&path).expect("fallback");
        assert!(loaded.from_fallback);
        assert_eq!(loaded.payload, b"{\"v\":1}");
    }

    /// Damages the second probe-journal batch of a running job through
    /// `site` (the write still reports success), kills the server once
    /// later batches landed behind the damage, and restarts it: the
    /// audit cuts the journal at the damage and keeps the cut bytes in
    /// quarantine with a reason, and the job resumes to the bits of an
    /// uninterrupted run with `/healthz` `ok`.
    fn journal_damage_drill(site: &str, tag: &str) {
        let spec = r#"{"circuit":"s713","steps":16,"top_gates":2}"#;
        let expected = direct_run_document(spec);
        let state_dir = scratch_dir(tag);
        let config = Config {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            checkpoint_every: 4,
            state_dir: state_dir.clone(),
            ..Config::default()
        };
        let first = start(config.clone());
        // Store write 0 is the job record, 1 the first journal batch, 2
        // the second.
        store::reset_fault_indices();
        faults::arm(site, faults::Trigger::OnIndices(vec![2]));
        let id = submit(first.addr, spec);
        wait_for(first.addr, id, "three journal batches", |v| {
            field(v, "checkpoints_written")
                .as_u64("checkpoints_written")
                .unwrap()
                >= 3
        });
        assert_eq!(first.kill(), DrainOutcome::JobsInterrupted);
        assert_eq!(faults::fired_count(site), 1, "{site} never fired");
        faults::disarm(site);

        let journal = journal_path(&state_dir, id);
        let damaged_len = std::fs::metadata(&journal).unwrap().len();
        let second = start(config);
        let names = quarantine_entries(&state_dir);
        assert!(
            names.contains(&format!("job-{id}.journal.tail"))
                && names.contains(&format!("job-{id}.journal.tail.reason")),
            "{site}: damaged journal tail not quarantined: {names:?}"
        );
        let tail = std::fs::read(
            state_dir
                .join("quarantine")
                .join(format!("job-{id}.journal.tail")),
        )
        .unwrap();
        let kept = damaged_len as usize - tail.len();
        assert!(kept > 0 && !tail.is_empty(), "{site}: kept {kept} bytes");
        let done = wait_for(second.addr, id, "resumed completion", terminal);
        assert_eq!(status_of(&done), "done", "{}", done.render());
        assert_eq!(
            field(&done, "result").render(),
            expected,
            "{site}: resume diverged"
        );
        let (_, _, body) = get(second.addr, "/healthz");
        assert_eq!(status_of(&parse_body(&body)), "ok", "{body}");
        assert_eq!(second.shutdown(), DrainOutcome::Clean);
    }

    #[test]
    fn journal_silent_corruption_is_cut_and_the_job_resumes() {
        journal_damage_drill("checkpoint.corrupt", "journal-corrupt");
    }

    #[test]
    fn journal_torn_append_is_cut_and_the_job_resumes() {
        journal_damage_drill("io.write.torn", "journal-torn");
    }

    /// Transient failures (one bad fsync, one short write) are absorbed
    /// by the bounded retry and surfaced only as telemetry.
    #[test]
    fn transient_io_failures_are_absorbed_by_retry() {
        let dir = scratch_dir("transient");

        store::reset_fault_indices();
        faults::arm("io.fsync.fail", faults::Trigger::OnIndices(vec![0]));
        let report = store::write_durable(&dir.join("a.json"), b"{\"a\":1}").expect("retried");
        assert_eq!(report.retries, 1, "one fsync failure absorbed");
        faults::disarm("io.fsync.fail");

        store::reset_fault_indices();
        faults::arm("io.write.short", faults::Trigger::OnIndices(vec![0]));
        let report = store::write_durable(&dir.join("b.json"), b"{\"b\":1}").expect("retried");
        assert_eq!(report.retries, 1, "one short write absorbed");
        faults::disarm("io.write.short");

        // Persistent failure exhausts the budget and errors out.
        store::reset_fault_indices();
        faults::arm("io.fsync.fail", faults::Trigger::EveryNth(1));
        let err = store::write_durable(&dir.join("c.json"), b"{\"c\":1}").unwrap_err();
        assert_eq!(err.kind(), "io", "{err}");
        faults::disarm("io.fsync.fail");
        assert!(!dir.join("c.json").exists(), "failed write left a record");
    }
}
