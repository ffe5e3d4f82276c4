//! `minpower-store` — the durable persistence layer every on-disk state
//! file (search probe journals, annealing snapshots, service job
//! records, session op logs) is routed through.
//!
//! The resilience built in PRs 3 and 4 (checkpoint/resume, kill-and-
//! restart recovery) is only as strong as the bytes under it. This
//! module makes those bytes crash-safe:
//!
//! * **Integrity framing** — every snapshot record is wrapped in a CRC32
//!   envelope: a single ASCII header line
//!   `minpower-store <version> <length> <crc32-hex>` followed by the
//!   payload. A torn write, a truncation, or a flipped bit is detected
//!   on the next read instead of being parsed into silently wrong
//!   state. A file without the envelope is corruption like any other.
//! * **Framed journals** — [`FramedJournal`] is the append-only form:
//!   one CRC-framed record per entry, read back as the longest valid
//!   prefix. [`append_durable`] is the one append path (probe journals
//!   and session op logs): a batch of records with one write and one
//!   `fdatasync`, so each record is written once.
//! * **Atomic, durable writes** — [`write_durable`] writes a sibling
//!   temp file, fsyncs it, rotates the previous record to a `.1`
//!   generation, renames the temp into place, and fsyncs the parent
//!   directory, so a crash at any instant leaves either the old record,
//!   the new record, or debris the recovery audit cleans up — never a
//!   half-written record at the live path.
//! * **Bounded deterministic retry** — transient I/O failures are
//!   retried up to [`MAX_ATTEMPTS`] times with a fixed backoff
//!   schedule; the retry count is reported so telemetry can track
//!   flaky storage.
//! * **Generations** — keeping the previous snapshot (`<file>.1`) means
//!   a corrupt newest generation degrades to a slightly older resume
//!   point instead of a lost run. A journal's valid prefix plays the
//!   same role for search runs.
//! * **Recovery audit** — [`audit`] scans a state directory at startup,
//!   verifies every record, deletes leftover temp files, promotes
//!   intact `.1` generations over corrupt or missing primaries, cuts
//!   each probe journal back to its valid prefix, and moves anything
//!   unrecoverable (and every cut tail) into `state-dir/quarantine/`
//!   next to a `.reason` file — the service starts degraded-but-running
//!   instead of aborting on the first bad file.
//! * **Degraded mode** — [`StoreHealth`] is a shared latch flipped by
//!   persistent write failure (e.g. disk full). A service holding it
//!   answers `503 + Retry-After` for new work while in-flight jobs
//!   continue without checkpointing, and un-latches as soon as a write
//!   succeeds again.
//!
//! Five deterministic fault sites (see `minpower_engine::faults`)
//! exercise every one of these paths: `io.write.torn`,
//! `io.write.short`, `io.fsync.fail`, `io.disk.full`, and
//! `checkpoint.corrupt`. Snapshot writes and journal appends share
//! them. Each site is queried with its own monotone call index, so
//! `Trigger::OnIndices(vec![0])` means "the first durable write fails
//! once and the retry succeeds" while `Trigger::EveryNth(1)` means
//! "storage is persistently broken".

use std::fmt;
use std::fs;
use std::io::{Seek as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use minpower_engine::faults;

/// Magic token opening every framed record's header line.
pub const MAGIC: &str = "minpower-store";
/// Newest envelope version this build reads and writes.
pub const VERSION: u64 = 1;
/// Write attempts before a transient I/O failure becomes permanent.
pub const MAX_ATTEMPTS: u32 = 4;
/// Backoff before retry `i` (deterministic — never wall-clock random).
const BACKOFF_MS: [u64; 3] = [1, 5, 25];

/// A typed durable-storage failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Filesystem-level failure (open, write, fsync, rename).
    Io {
        /// File the operation targeted.
        path: PathBuf,
        /// Rendered OS error.
        message: String,
    },
    /// The file does not open with an envelope header line, or that
    /// line is truncated or unparseable.
    BadHeader {
        /// Offending file.
        path: PathBuf,
    },
    /// The envelope version is newer than this build understands.
    BadVersion {
        /// Offending file.
        path: PathBuf,
        /// Version found in the header.
        version: u64,
    },
    /// The payload length does not match the header (torn or truncated
    /// write, or trailing garbage).
    LengthMismatch {
        /// Offending file.
        path: PathBuf,
        /// Bytes the header promised.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// The payload bytes do not hash to the header's CRC32 (bit rot or
    /// an interrupted in-place mutation).
    ChecksumMismatch {
        /// Offending file.
        path: PathBuf,
        /// CRC32 recorded in the header.
        expected: u32,
        /// CRC32 of the bytes on disk.
        actual: u32,
    },
}

impl StoreError {
    /// Short machine-readable class, used in quarantine reason files.
    pub fn kind(&self) -> &'static str {
        match self {
            StoreError::Io { .. } => "io",
            StoreError::BadHeader { .. } => "bad-header",
            StoreError::BadVersion { .. } => "bad-version",
            StoreError::LengthMismatch { .. } => "length-mismatch",
            StoreError::ChecksumMismatch { .. } => "checksum-mismatch",
        }
    }

    /// Whether the record itself is damaged (as opposed to the
    /// filesystem refusing the operation).
    pub fn is_corruption(&self) -> bool {
        !matches!(self, StoreError::Io { .. })
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, message } => write!(f, "{}: {message}", path.display()),
            StoreError::BadHeader { path } => {
                write!(f, "{}: malformed store header", path.display())
            }
            StoreError::BadVersion { path, version } => write!(
                f,
                "{}: store envelope version {version} is newer than this build ({VERSION})",
                path.display()
            ),
            StoreError::LengthMismatch {
                path,
                expected,
                actual,
            } => write!(
                f,
                "{}: truncated or torn record ({actual} of {expected} payload bytes)",
                path.display()
            ),
            StoreError::ChecksumMismatch {
                path,
                expected,
                actual,
            } => write!(
                f,
                "{}: checksum mismatch (header {expected:08x}, payload {actual:08x})",
                path.display()
            ),
        }
    }
}

impl std::error::Error for StoreError {}

fn io_err(path: &Path, e: impl fmt::Display) -> StoreError {
    StoreError::Io {
        path: path.to_path_buf(),
        message: e.to_string(),
    }
}

// --------------------------------------------------------------- CRC32

/// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Slicing-by-8 tables (8 KiB, built at compile time): `crc32` folds
/// eight bytes per step, since probe journals CRC every record they
/// write. `CRC_TABLES[0]` is the classic byte-at-a-time table;
/// `CRC_TABLES[k][i]` advances `CRC_TABLES[k - 1][i]` by one zero byte.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

// ------------------------------------------------------------- framing

/// Wraps `payload` in the versioned CRC32 envelope.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{MAGIC} {VERSION} {} {:08x}\n",
        payload.len(),
        crc32(payload)
    )
    .into_bytes();
    out.extend_from_slice(payload);
    out
}

/// Verifies and strips the envelope, returning the payload.
///
/// # Errors
///
/// The typed [`StoreError`] naming the first integrity violation; a
/// file that does not open with the envelope header is
/// [`StoreError::BadHeader`].
pub fn decode<'a>(path: &Path, bytes: &'a [u8]) -> Result<&'a [u8], StoreError> {
    let bad = || StoreError::BadHeader {
        path: path.to_path_buf(),
    };
    let nl = bytes.iter().position(|&b| b == b'\n').ok_or_else(bad)?;
    let header = std::str::from_utf8(&bytes[..nl]).map_err(|_| bad())?;
    let mut parts = header.split(' ');
    if parts.next() != Some(MAGIC) {
        return Err(bad());
    }
    let version: u64 = parts.next().and_then(|t| t.parse().ok()).ok_or_else(bad)?;
    if version > VERSION {
        return Err(StoreError::BadVersion {
            path: path.to_path_buf(),
            version,
        });
    }
    let expected_len: usize = parts.next().and_then(|t| t.parse().ok()).ok_or_else(bad)?;
    let expected_crc = parts
        .next()
        .and_then(|t| u32::from_str_radix(t, 16).ok())
        .ok_or_else(bad)?;
    if parts.next().is_some() {
        return Err(bad());
    }
    let payload = &bytes[nl + 1..];
    if payload.len() != expected_len {
        return Err(StoreError::LengthMismatch {
            path: path.to_path_buf(),
            expected: expected_len,
            actual: payload.len(),
        });
    }
    let actual = crc32(payload);
    if actual != expected_crc {
        return Err(StoreError::ChecksumMismatch {
            path: path.to_path_buf(),
            expected: expected_crc,
            actual,
        });
    }
    Ok(payload)
}

// ------------------------------------------------------ framed journals

/// An append-only file of CRC-framed records. Each record is one ASCII
/// header line `<magic> <version> <len> <crc32-hex>\n`, then `len`
/// payload bytes, then `\n`. A reader keeps the longest valid prefix: a
/// torn or corrupt record ends the scan, and everything before it is
/// intact. The session op log and the search probe journal are both
/// framed journals; they differ only in magic and version.
#[derive(Debug, Clone, Copy)]
pub struct FramedJournal {
    magic: &'static str,
    version: u32,
}

/// The longest valid prefix of a framed journal, as [`FramedJournal::scan`]
/// found it.
#[derive(Debug, Clone, Default)]
pub struct Prefix<'a> {
    /// Each valid record's payload with the byte offset just past the
    /// record, in file order.
    pub records: Vec<(&'a [u8], usize)>,
    /// Bytes the valid records span; everything after is a torn or
    /// corrupt tail.
    pub valid_len: usize,
}

/// Longest header line a reader will look for: magic, version, length
/// and CRC never come near it, and the bound keeps a scan of garbage
/// from searching the whole file for a newline.
const MAX_HEADER_LINE: usize = 96;

impl FramedJournal {
    /// A journal whose records open with `magic` and `version`.
    pub const fn new(magic: &'static str, version: u32) -> Self {
        FramedJournal { magic, version }
    }

    /// Appends the framed record for `payload` to `out`.
    pub fn frame_into(&self, out: &mut Vec<u8>, payload: &[u8]) {
        let header = format!(
            "{} {} {} {:08x}\n",
            self.magic,
            self.version,
            payload.len(),
            crc32(payload)
        );
        out.extend_from_slice(header.as_bytes());
        out.extend_from_slice(payload);
        out.push(b'\n');
    }

    /// The longest valid record prefix of `bytes`. A record is valid when
    /// its header line parses with this journal's magic and version and
    /// its payload is complete and matches the CRC. The trailing `\n` is
    /// optional, so a record cut just before it still counts.
    pub fn scan<'a>(&self, bytes: &'a [u8]) -> Prefix<'a> {
        let mut prefix = Prefix::default();
        let mut pos = 0usize;
        while pos < bytes.len() {
            let window = &bytes[pos..bytes.len().min(pos + MAX_HEADER_LINE)];
            let Some(nl) = window.iter().position(|&b| b == b'\n') else {
                break;
            };
            let Some((len, crc)) = self.parse_header(&window[..nl]) else {
                break;
            };
            let start = pos + nl + 1;
            let Some(payload) = start.checked_add(len).and_then(|end| bytes.get(start..end)) else {
                break;
            };
            if crc32(payload) != crc {
                break;
            }
            pos = start + len;
            if bytes.get(pos) == Some(&b'\n') {
                pos += 1;
            }
            prefix.records.push((payload, pos));
            prefix.valid_len = pos;
        }
        prefix
    }

    fn parse_header(&self, line: &[u8]) -> Option<(usize, u32)> {
        let mut it = std::str::from_utf8(line).ok()?.split(' ');
        let magic = it.next()?;
        let version = it.next()?.parse::<u32>().ok()?;
        let len = it.next()?.parse::<usize>().ok()?;
        let crc = u32::from_str_radix(it.next()?, 16).ok()?;
        if magic != self.magic || version != self.version || it.next().is_some() {
            return None;
        }
        Some((len, crc))
    }
}

/// Appends framed `records` to the journal at `path` durably: one write
/// and one `fdatasync`. With `create`, any old file is replaced and the
/// parent directory is fsynced too, so the new entry survives power
/// loss. A failed attempt cuts the file back to its previous length and
/// is retried like [`write_durable`]. Shares `write_durable`'s fault
/// sites: `checkpoint.corrupt` flips a bit and `io.write.torn` drops
/// the second half of the batch, both while reporting success.
///
/// # Errors
///
/// [`StoreError::Io`] once the retry budget is exhausted.
pub fn append_durable(
    path: &Path,
    records: &[u8],
    create: bool,
) -> Result<WriteReport, StoreError> {
    let mut corrupted;
    let mut body = records;
    if !records.is_empty() && fire("checkpoint.corrupt", &CORRUPT_SEQ) {
        corrupted = records.to_vec();
        corrupted[records.len() / 2] ^= 0x10;
        body = &corrupted;
    }
    if fire("io.write.torn", &TORN_SEQ) {
        // Just past the middle: a batch of equal-size records split in
        // half would end on a record boundary and tear nothing.
        body = &body[..(body.len() / 2 + 1).min(body.len())];
    }
    retrying(body.len(), || append_once(path, body, create))
}

fn append_once(path: &Path, body: &[u8], create: bool) -> Result<(), StoreError> {
    if fire("io.disk.full", &FULL_SEQ) {
        return Err(io_err(path, "no space left on device (injected)"));
    }
    let mut file = fs::OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(create)
        .open(path)
        .map_err(|e| io_err(path, e))?;
    let start = file
        .seek(std::io::SeekFrom::End(0))
        .map_err(|e| io_err(path, e))?;
    let result = (|| {
        if fire("io.write.short", &SHORT_SEQ) {
            return Err(io_err(path, "short write (injected)"));
        }
        file.write_all(body).map_err(|e| io_err(path, e))?;
        if fire("io.fsync.fail", &FSYNC_SEQ) {
            return Err(io_err(path, "fsync failed (injected)"));
        }
        file.sync_data().map_err(|e| io_err(path, e))
    })();
    if result.is_err() {
        let _ = file.set_len(start);
    } else if create {
        sync_parent(path);
    }
    result
}

/// Cuts the file at `path` to its first `len` bytes and fsyncs it (a
/// journal's torn or corrupt tail, before anything is appended after
/// the valid prefix).
///
/// # Errors
///
/// [`StoreError::Io`] when the file cannot be opened or cut.
pub fn truncate(path: &Path, len: u64) -> Result<(), StoreError> {
    let file = fs::OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| io_err(path, e))?;
    file.set_len(len).map_err(|e| io_err(path, e))?;
    file.sync_all().map_err(|e| io_err(path, e))
}

// ------------------------------------------------------------- writing

/// What a completed [`write_durable`] or [`append_durable`] had to do to
/// land.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteReport {
    /// Transient failures absorbed before the write succeeded.
    pub retries: u64,
    /// Bytes the successful attempt wrote (envelope included).
    pub bytes: u64,
}

/// The previous-generation sibling of `path` (`job-3.json` →
/// `job-3.json.1`).
pub fn previous_generation(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".1");
    path.with_file_name(name)
}

/// The temp sibling a write stages through (`job-3.json` →
/// `job-3.json.tmp`).
fn temp_sibling(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Removes `path` and its previous generation (terminal-state cleanup).
pub fn remove_generations(path: &Path) {
    let _ = fs::remove_file(path);
    let _ = fs::remove_file(previous_generation(path));
}

// Per-site monotone fault indices: each query of a site advances its own
// counter, so `OnIndices(vec![0])` fails exactly one attempt (the retry
// queries index 1 and passes) while `EveryNth(1)` is a persistent fault.
static TORN_SEQ: AtomicU64 = AtomicU64::new(0);
static SHORT_SEQ: AtomicU64 = AtomicU64::new(0);
static FSYNC_SEQ: AtomicU64 = AtomicU64::new(0);
static FULL_SEQ: AtomicU64 = AtomicU64::new(0);
static CORRUPT_SEQ: AtomicU64 = AtomicU64::new(0);

fn fire(site: &str, seq: &AtomicU64) -> bool {
    faults::should_fire(site, seq.fetch_add(1, Ordering::Relaxed))
}

/// Resets the per-site fault call indices to zero, so a fault drill can
/// use `Trigger::OnIndices(vec![0])` ("first write fails, retry
/// succeeds") regardless of how many writes earlier tests issued. Only
/// meaningful with the `faults` feature; drills run single-threaded.
#[cfg(feature = "faults")]
pub fn reset_fault_indices() {
    for seq in [&TORN_SEQ, &SHORT_SEQ, &FSYNC_SEQ, &FULL_SEQ, &CORRUPT_SEQ] {
        seq.store(0, Ordering::Relaxed);
    }
}

/// Writes `payload` to `path` crash-safely: CRC32 envelope, temp file +
/// fsync, previous record rotated to the `.1` generation, atomic
/// rename, parent-directory fsync. Transient I/O failures are retried
/// up to [`MAX_ATTEMPTS`] times on a fixed backoff schedule.
///
/// # Errors
///
/// [`StoreError::Io`] once the retry budget is exhausted.
pub fn write_durable(path: &Path, payload: &[u8]) -> Result<WriteReport, StoreError> {
    let mut body = frame(payload);
    let header_len = body.len() - payload.len();
    // Silent-corruption drills: the write "succeeds" but the bytes are
    // wrong — exactly what the CRC frame exists to catch on read.
    if !payload.is_empty() && fire("checkpoint.corrupt", &CORRUPT_SEQ) {
        let i = header_len + payload.len() / 2;
        body[i] ^= 0x10;
    }
    if fire("io.write.torn", &TORN_SEQ) {
        body.truncate(header_len + payload.len() / 2);
    }

    retrying(body.len(), || write_once(path, &body))
}

/// Runs `attempt` (a write of `bytes` bytes) up to [`MAX_ATTEMPTS`]
/// times on the fixed backoff schedule, counting the failures it
/// absorbed.
fn retrying(
    bytes: usize,
    mut attempt: impl FnMut() -> Result<(), StoreError>,
) -> Result<WriteReport, StoreError> {
    let mut retries = 0u64;
    loop {
        match attempt() {
            Ok(()) => {
                return Ok(WriteReport {
                    retries,
                    bytes: bytes as u64,
                })
            }
            Err(e) if retries + 1 >= u64::from(MAX_ATTEMPTS) => return Err(e),
            Err(_) => {
                std::thread::sleep(Duration::from_millis(
                    BACKOFF_MS[(retries as usize).min(BACKOFF_MS.len() - 1)],
                ));
                retries += 1;
            }
        }
    }
}

/// Fsyncs `path`'s parent directory, so renames and new entries in it
/// survive power loss too. Best-effort on filesystems that refuse
/// directory handles.
fn sync_parent(path: &Path) {
    if let Some(parent) = path.parent() {
        if let Ok(dir) = fs::File::open(parent) {
            let _ = dir.sync_all();
        }
    }
}

fn write_once(path: &Path, body: &[u8]) -> Result<(), StoreError> {
    if fire("io.disk.full", &FULL_SEQ) {
        return Err(io_err(path, "no space left on device (injected)"));
    }
    let tmp = temp_sibling(path);
    let result = (|| {
        let mut file = fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
        if fire("io.write.short", &SHORT_SEQ) {
            return Err(io_err(&tmp, "short write (injected)"));
        }
        file.write_all(body).map_err(|e| io_err(&tmp, e))?;
        if fire("io.fsync.fail", &FSYNC_SEQ) {
            return Err(io_err(&tmp, "fsync failed (injected)"));
        }
        file.sync_all().map_err(|e| io_err(&tmp, e))?;
        drop(file);
        // Keep the previous record as the fallback generation, then
        // publish atomically.
        if path.exists() {
            fs::rename(path, previous_generation(path)).map_err(|e| io_err(path, e))?;
        }
        fs::rename(&tmp, path).map_err(|e| io_err(path, e))?;
        sync_parent(path);
        Ok(())
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

// ------------------------------------------------------------- reading

/// Reads and integrity-checks the record at `path`.
///
/// # Errors
///
/// [`StoreError`] describing the I/O failure or the corruption.
pub fn read_verified(path: &Path) -> Result<Vec<u8>, StoreError> {
    let bytes = fs::read(path).map_err(|e| io_err(path, e))?;
    decode(path, &bytes).map(<[u8]>::to_vec)
}

/// A record loaded by [`read_with_fallback`].
#[derive(Debug, Clone)]
pub struct Loaded {
    /// The verified payload.
    pub payload: Vec<u8>,
    /// `true` when the primary was unreadable/corrupt and the `.1`
    /// generation was used instead.
    pub from_fallback: bool,
}

/// Reads `path`, falling back to its `.1` generation when the primary
/// is missing or fails verification.
///
/// # Errors
///
/// The *primary's* error when neither generation is intact (it names
/// the record the caller asked for).
pub fn read_with_fallback(path: &Path) -> Result<Loaded, StoreError> {
    match read_verified(path) {
        Ok(payload) => Ok(Loaded {
            payload,
            from_fallback: false,
        }),
        Err(primary) => match read_verified(&previous_generation(path)) {
            Ok(payload) => Ok(Loaded {
                payload,
                from_fallback: true,
            }),
            Err(_) => Err(primary),
        },
    }
}

// --------------------------------------------------------- quarantine

/// Moves `path` into `state_dir/quarantine/` and writes a sibling
/// `<name>.reason` file, so corrupt state is preserved for post-mortems
/// instead of deleted or — worse — parsed.
///
/// # Errors
///
/// [`StoreError::Io`] when the move itself fails.
pub fn quarantine(state_dir: &Path, path: &Path, reason: &str) -> Result<PathBuf, StoreError> {
    let dest = quarantine_slot(state_dir, &file_name(path))?;
    fs::rename(path, &dest).map_err(|e| io_err(path, e))?;
    write_reason(&dest, reason);
    Ok(dest)
}

/// Preserves `bytes` cut from `path` (a journal's bad tail) as
/// `state_dir/quarantine/<name>.tail`, next to a `.reason` file.
///
/// # Errors
///
/// [`StoreError::Io`] when the copy cannot be written.
pub fn quarantine_bytes(
    state_dir: &Path,
    path: &Path,
    bytes: &[u8],
    reason: &str,
) -> Result<PathBuf, StoreError> {
    let dest = quarantine_slot(state_dir, &format!("{}.tail", file_name(path)))?;
    fs::write(&dest, bytes).map_err(|e| io_err(&dest, e))?;
    write_reason(&dest, reason);
    Ok(dest)
}

fn file_name(path: &Path) -> String {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "unnamed".to_string())
}

/// A free path for `name` inside `state_dir/quarantine/` (numbered
/// suffixes keep earlier quarantines of the same name).
fn quarantine_slot(state_dir: &Path, name: &str) -> Result<PathBuf, StoreError> {
    let qdir = state_dir.join("quarantine");
    fs::create_dir_all(&qdir).map_err(|e| io_err(&qdir, e))?;
    let mut dest = qdir.join(name);
    let mut n = 1;
    while dest.exists() {
        dest = qdir.join(format!("{name}.{n}"));
        n += 1;
    }
    Ok(dest)
}

fn write_reason(dest: &Path, reason: &str) {
    let mut reason_name = dest
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    reason_name.push(".reason");
    let _ = fs::write(dest.with_file_name(reason_name), format!("{reason}\n"));
}

// -------------------------------------------------------------- audit

/// One file the audit moved aside.
#[derive(Debug, Clone)]
pub struct Quarantined {
    /// Where the file now lives (inside `quarantine/`).
    pub path: PathBuf,
    /// Why it was quarantined.
    pub reason: String,
}

/// What a startup [`audit`] found and did.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// State records examined.
    pub checked: usize,
    /// Corrupt/truncated records moved into `quarantine/`.
    pub quarantined: Vec<Quarantined>,
    /// Records whose primary was corrupt or missing and whose intact
    /// `.1` generation was promoted in its place.
    pub recovered: Vec<PathBuf>,
    /// Leftover `.tmp` staging files deleted (normal crash debris).
    pub removed_temps: usize,
}

/// Whether `payload` is plausibly one of our records: UTF-8 JSON, a
/// schema-independent sanity floor behind the CRC frame.
fn payload_parses(payload: &[u8]) -> Result<(), String> {
    let text = std::str::from_utf8(payload).map_err(|_| "payload is not UTF-8".to_string())?;
    crate::json::parse(text)
        .map(|_| ())
        .map_err(|e| format!("payload is not valid JSON: {}", e.message))
}

fn verify_record(path: &Path) -> Result<(), String> {
    let payload = read_verified(path).map_err(|e| format!("{}: {e}", e.kind()))?;
    payload_parses(&payload)
}

/// Scans `state_dir` and makes it safe to load from:
///
/// * deletes `.tmp` staging debris;
/// * verifies every `*.json` record (CRC frame and JSON
///   well-formedness), promotes an intact `.1` generation over a corrupt
///   or missing primary, and quarantines whatever cannot be recovered;
/// * cuts every `*.journal` probe journal back to its longest valid
///   prefix, keeping the cut tail in `quarantine/`, and quarantines a
///   journal whose header record is invalid;
/// * quarantines retired v1 search checkpoints (`*.ckpt`, `*.ckpt.1`),
///   so their jobs rerun from scratch.
///
/// Never panics and never aborts the caller — a state directory full of
/// garbage yields an empty-but-running service.
pub fn audit(state_dir: &Path) -> AuditReport {
    let mut report = AuditReport::default();
    let Ok(entries) = fs::read_dir(state_dir) else {
        return report;
    };
    let mut primaries = Vec::new();
    let mut generations = Vec::new();
    let mut journals = Vec::new();
    let mut retired = Vec::new();
    for entry in entries.flatten() {
        let path = entry.path();
        if !path.is_file() {
            continue;
        }
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".tmp") {
            if fs::remove_file(&path).is_ok() {
                report.removed_temps += 1;
            }
        } else if name.ends_with(".json.1") {
            generations.push(path);
        } else if name.ends_with(".json") {
            primaries.push(path);
        } else if name.ends_with(".journal") {
            journals.push(path);
        } else if name.ends_with(".ckpt") || name.ends_with(".ckpt.1") {
            retired.push(path);
        }
    }

    // Quarantine failing (e.g. read-only disk) must not stop the audit;
    // the file stays where it is and loaders will skip it record-by-record.
    let move_aside = |report: &mut AuditReport, path: &Path, reason: &str| {
        if let Ok(dest) = quarantine(state_dir, path, reason) {
            report.quarantined.push(Quarantined {
                path: dest,
                reason: reason.to_string(),
            });
        }
    };

    for path in primaries {
        report.checked += 1;
        let Err(reason) = verify_record(&path) else {
            continue;
        };
        let prev = previous_generation(&path);
        if prev.is_file() && verify_record(&prev).is_ok() {
            move_aside(&mut report, &path, &reason);
            if fs::rename(&prev, &path).is_ok() {
                report.recovered.push(path.clone());
            }
        } else {
            move_aside(&mut report, &path, &reason);
            if prev.is_file() {
                move_aside(
                    &mut report,
                    &prev,
                    "previous generation of a corrupt record, itself corrupt",
                );
            }
        }
    }
    // A crash between "rotate primary to .1" and "rename temp into
    // place" leaves only the generation: promote it.
    for prev in generations {
        let name = prev.file_name().map(|n| n.to_string_lossy().into_owned());
        let Some(name) = name else { continue };
        let primary = prev.with_file_name(name.trim_end_matches(".1"));
        if primary.exists() {
            continue;
        }
        report.checked += 1;
        if verify_record(&prev).is_ok() {
            if fs::rename(&prev, &primary).is_ok() {
                report.recovered.push(primary);
            }
        } else {
            move_aside(&mut report, &prev, "orphaned generation, corrupt");
        }
    }
    for path in journals {
        report.checked += 1;
        let Ok(bytes) = fs::read(&path) else { continue };
        match crate::checkpoint::ProbeJournal::parse(&bytes) {
            Err(why) => move_aside(
                &mut report,
                &path,
                &format!("invalid journal header: {why}"),
            ),
            Ok(journal) if journal.valid_len < bytes.len() => {
                let reason = format!(
                    "torn or corrupt journal tail: bytes {}..{} failed verification \
                     and were cut; the job resumes from the {} valid probes before them",
                    journal.valid_len,
                    bytes.len(),
                    journal.probes.len()
                );
                if let Ok(dest) =
                    quarantine_bytes(state_dir, &path, &bytes[journal.valid_len..], &reason)
                {
                    report.quarantined.push(Quarantined { path: dest, reason });
                }
                // A failed cut is harmless: a resume cuts the same tail
                // before it appends.
                let _ = truncate(&path, journal.valid_len as u64);
            }
            Ok(_) => {}
        }
    }
    for path in retired {
        report.checked += 1;
        move_aside(
            &mut report,
            &path,
            "retired v1 search checkpoint (format minpower-checkpoint); \
             search runs now journal to .journal files, so the job reruns from scratch",
        );
    }
    report
}

// ------------------------------------------------------------- health

/// A shared degraded-mode latch: flipped on persistent write failure,
/// cleared as soon as any durable write succeeds again. A service polls
/// [`is_degraded`](StoreHealth::is_degraded) to gate new-work admission
/// and reports the state via `GET /healthz`.
#[derive(Debug, Default)]
pub struct StoreHealth {
    state: Mutex<HealthState>,
    degraded_nanos: AtomicU64,
}

#[derive(Debug, Default)]
struct HealthState {
    /// Why writes are failing; `None` means healthy.
    reason: Option<String>,
    /// When the current degraded episode began.
    since: Option<Instant>,
}

impl StoreHealth {
    /// A fresh healthy latch.
    pub fn new() -> Self {
        StoreHealth::default()
    }

    /// Latches degraded mode with `reason` (the first reason of an
    /// episode wins; later failures keep the episode running).
    pub fn report_failure(&self, reason: &str) {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if s.reason.is_none() {
            s.reason = Some(reason.to_string());
            s.since = Some(Instant::now());
        }
    }

    /// Clears the latch; the episode's duration is added to the
    /// degraded-seconds total.
    pub fn report_success(&self) {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(since) = s.since.take() {
            self.degraded_nanos.fetch_add(
                since.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
                Ordering::Relaxed,
            );
        }
        s.reason = None;
    }

    /// Whether the store is currently degraded (read-only).
    pub fn is_degraded(&self) -> bool {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .reason
            .is_some()
    }

    /// `(degraded, reason)` — the reason is empty when healthy.
    pub fn status(&self) -> (bool, String) {
        let s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        match &s.reason {
            Some(reason) => (true, reason.clone()),
            None => (false, String::new()),
        }
    }

    /// Whole seconds spent degraded, past episodes plus the current one.
    pub fn degraded_seconds(&self) -> u64 {
        let current = {
            let s = self.state.lock().unwrap_or_else(|e| e.into_inner());
            s.since.map_or(0, |t| {
                t.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
            })
        };
        (self.degraded_nanos.load(Ordering::Relaxed) + current) / 1_000_000_000
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("minpower-store-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Every length and alignment agrees with the bit-at-a-time
        // definition.
        let bitwise = |bytes: &[u8]| {
            let mut crc = 0xFFFF_FFFFu32;
            for &b in bytes {
                crc ^= u32::from(b);
                for _ in 0..8 {
                    crc = if crc & 1 != 0 {
                        0xEDB8_8320 ^ (crc >> 1)
                    } else {
                        crc >> 1
                    };
                }
            }
            !crc
        };
        let data: Vec<u8> = (0..300u32).map(|i| (i * 131 + 7) as u8).collect();
        for start in 0..9 {
            for end in start..data.len() {
                assert_eq!(crc32(&data[start..end]), bitwise(&data[start..end]));
            }
        }
    }

    #[test]
    fn frame_decode_round_trips() {
        let payload = br#"{"hello":[1,2,3]}"#;
        let framed = frame(payload);
        assert_eq!(decode(Path::new("t"), &framed).unwrap(), payload);
    }

    #[test]
    fn unframed_files_are_rejected() {
        for bytes in [&b"{\"legacy\":true}"[..], b"", b"minpower-store"] {
            assert!(matches!(
                decode(Path::new("t"), bytes),
                Err(StoreError::BadHeader { .. })
            ));
        }
    }

    #[test]
    fn every_corruption_is_a_typed_error_never_a_panic() {
        let payload = b"{\"k\":\"0123456789abcdef\"}";
        let good = frame(payload);
        let p = Path::new("t");
        // Truncations at every byte boundary, the empty file included.
        for cut in 0..good.len() {
            match decode(p, &good[..cut]) {
                Ok(_) => panic!("truncation at {cut} accepted"),
                Err(e) => assert!(e.is_corruption(), "cut {cut}: {e}"),
            }
        }
        // Single-bit flips everywhere. A flip in the magic is always an
        // error. Other header flips may still decode (e.g. the version
        // digit, which the CRC does not cover) — but then the payload
        // MUST be byte-identical; a damaged payload is never returned.
        for i in 0..good.len() {
            for bit in [0x01u8, 0x80] {
                let mut bad = good.clone();
                bad[i] ^= bit;
                match decode(p, &bad) {
                    Ok(_) if i < MAGIC.len() => panic!("magic flip at {i} accepted"),
                    Ok(d) => assert_eq!(d, payload, "flip at {i} returned damaged bytes"),
                    Err(e) => assert!(e.is_corruption()),
                }
            }
        }
        // Trailing garbage.
        let mut long = good.clone();
        long.extend_from_slice(b"xx");
        assert!(matches!(
            decode(p, &long),
            Err(StoreError::LengthMismatch { .. })
        ));
        // Future version.
        let future = frame(payload);
        let text = String::from_utf8(future).unwrap().replace(
            &format!("{MAGIC} {VERSION}"),
            &format!("{MAGIC} {}", VERSION + 1),
        );
        assert!(matches!(
            decode(p, text.as_bytes()),
            Err(StoreError::BadVersion { .. })
        ));
    }

    #[test]
    fn framed_journal_scan_keeps_the_longest_valid_prefix() {
        let log = FramedJournal::new("t-log", 3);
        let mut bytes = Vec::new();
        for payload in [&b"one"[..], b"", b"three\nwith newline"] {
            log.frame_into(&mut bytes, payload);
        }
        let full = log.scan(&bytes);
        let payloads: Vec<&[u8]> = full.records.iter().map(|r| r.0).collect();
        assert_eq!(payloads, [&b"one"[..], b"", b"three\nwith newline"]);
        assert_eq!(full.valid_len, bytes.len());
        assert_eq!(full.records[2].1, bytes.len());
        // The final newline is optional; one byte less tears the record.
        assert_eq!(log.scan(&bytes[..bytes.len() - 1]).records.len(), 3);
        let torn = log.scan(&bytes[..bytes.len() - 2]);
        assert_eq!((torn.records.len(), torn.valid_len), (2, full.records[1].1));
        // Another magic or version reads as nothing.
        assert!(FramedJournal::new("t-log", 4)
            .scan(&bytes)
            .records
            .is_empty());
        assert!(FramedJournal::new("u-log", 3)
            .scan(&bytes)
            .records
            .is_empty());
    }

    #[test]
    fn append_durable_creates_then_appends() {
        let dir = scratch("append");
        let path = dir.join("run.journal");
        let log = FramedJournal::new("t-log", 1);
        let mut first = Vec::new();
        log.frame_into(&mut first, b"a");
        let report = append_durable(&path, &first, true).unwrap();
        assert_eq!(
            report,
            WriteReport {
                retries: 0,
                bytes: first.len() as u64
            }
        );
        let mut second = Vec::new();
        log.frame_into(&mut second, b"b");
        append_durable(&path, &second, false).unwrap();
        let bytes = fs::read(&path).unwrap();
        assert_eq!(log.scan(&bytes).records.len(), 2);
        // `create` starts over.
        append_durable(&path, &second, true).unwrap();
        assert_eq!(fs::read(&path).unwrap(), second);
        truncate(&path, 3).unwrap();
        assert_eq!(fs::read(&path).unwrap(), &second[..3]);
    }

    #[test]
    fn write_read_round_trips_and_keeps_a_generation() {
        let dir = scratch("wrrt");
        let path = dir.join("rec.json");
        write_durable(&path, b"{\"v\":1}").unwrap();
        assert_eq!(read_verified(&path).unwrap(), b"{\"v\":1}");
        assert!(!previous_generation(&path).exists());
        write_durable(&path, b"{\"v\":2}").unwrap();
        assert_eq!(read_verified(&path).unwrap(), b"{\"v\":2}");
        assert_eq!(
            read_verified(&previous_generation(&path)).unwrap(),
            b"{\"v\":1}"
        );
        // No staging debris.
        assert!(!temp_sibling(&path).exists());
        remove_generations(&path);
        assert!(!path.exists() && !previous_generation(&path).exists());
    }

    #[test]
    fn fallback_read_survives_a_corrupt_primary() {
        let dir = scratch("fallback");
        let path = dir.join("rec.json");
        write_durable(&path, b"{\"v\":1}").unwrap();
        write_durable(&path, b"{\"v\":2}").unwrap();
        // Flip a payload bit in the primary.
        let mut bytes = fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 2] ^= 0x04;
        fs::write(&path, &bytes).unwrap();
        assert!(read_verified(&path).is_err());
        let loaded = read_with_fallback(&path).unwrap();
        assert!(loaded.from_fallback);
        assert_eq!(loaded.payload, b"{\"v\":1}");
    }

    #[test]
    fn audit_quarantines_corrupt_and_promotes_generations() {
        let dir = scratch("audit");
        // Intact record: untouched.
        write_durable(&dir.join("job-1.json"), b"{\"ok\":1}").unwrap();
        // Corrupt primary with an intact generation: recovered.
        let two = dir.join("job-2.json");
        write_durable(&two, b"{\"gen\":1}").unwrap();
        write_durable(&two, b"{\"gen\":2}").unwrap();
        fs::write(&two, b"garbage that is not json").unwrap();
        // Corrupt primary, no generation: quarantined.
        fs::write(dir.join("job-3.json"), &frame(b"{\"x\":1}")[..10]).unwrap();
        // Orphaned intact generation (crash between rotate and rename).
        write_durable(&dir.join("job-4.json"), b"{\"orphan\":1}").unwrap();
        fs::rename(
            dir.join("job-4.json"),
            previous_generation(&dir.join("job-4.json")),
        )
        .unwrap();
        // Staging debris.
        fs::write(dir.join("job-5.json.tmp"), b"half").unwrap();

        let report = audit(&dir);
        assert_eq!(report.removed_temps, 1);
        assert_eq!(
            read_verified(&dir.join("job-1.json")).unwrap(),
            b"{\"ok\":1}"
        );
        assert_eq!(read_verified(&two).unwrap(), b"{\"gen\":1}");
        assert_eq!(
            read_verified(&dir.join("job-4.json")).unwrap(),
            b"{\"orphan\":1}"
        );
        assert_eq!(report.recovered.len(), 2, "{report:?}");
        // job-2's corrupt primary + job-3.
        assert_eq!(report.quarantined.len(), 2, "{report:?}");
        assert!(!dir.join("job-3.json").exists());
        let q = dir.join("quarantine");
        assert!(q.join("job-3.json").exists());
        let reason = fs::read_to_string(q.join("job-3.json.reason")).unwrap();
        assert!(!reason.trim().is_empty());
        // Auditing again is a no-op.
        let again = audit(&dir);
        assert!(again.quarantined.is_empty() && again.recovered.is_empty());
    }

    #[test]
    fn health_latches_and_recovers() {
        let h = StoreHealth::new();
        assert!(!h.is_degraded());
        h.report_failure("disk full");
        h.report_failure("still full");
        let (degraded, reason) = h.status();
        assert!(degraded);
        assert_eq!(reason, "disk full", "first reason of an episode wins");
        h.report_success();
        assert!(!h.is_degraded());
        assert_eq!(h.status().1, "");
    }
}
