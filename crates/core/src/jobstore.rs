//! Shared job-store abstraction for distributed serving.
//!
//! A coordinator and its worker processes coordinate through a store of
//! keyed records plus **leases** — exclusive, expiring ownership claims
//! over a key. The [`JobStore`] trait abstracts the backend; the first
//! implementation, [`FsJobStore`], lives on a shared directory and
//! writes every record through the durable [`crate::store`] layer
//! (CRC32 envelope, fsync, atomic rename, `.1` fallback generation), so
//! shard state survives the crash of any single process.
//!
//! ## Lease protocol
//!
//! A lease on `key` is a sidecar file `key.lease` holding the owner name
//! and an absolute expiry time. Acquisition must be atomic even between
//! unrelated processes, so [`FsJobStore`] claims by *hard-linking* a
//! fully written temp file into place: the link syscall fails if the
//! lease already exists, which makes the kernel the arbiter — when N
//! claimants race, exactly one wins, deterministically. An expired lease
//! is taken over by first renaming it aside (again atomic: only one
//! renamer succeeds) and then re-claiming. Owners renew by atomically
//! replacing their own lease file and release by deleting it; both
//! verify ownership first, so a claimant that lost its lease to expiry
//! cannot clobber the new owner.
//!
//! Lease files deliberately use the `.lease` extension: the recovery
//! audit ([`crate::store::audit`]) only inspects record extensions, so
//! a half-written lease from a crashed process can never be quarantined
//! as a corrupt record — it is simply taken over once it expires.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::store::{self, StoreError};

/// Outcome of a lease claim attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum Claim {
    /// The caller now owns the lease until its expiry.
    Acquired,
    /// Another owner holds an unexpired lease.
    Held {
        /// The current lease holder.
        owner: String,
        /// Seconds until the holder's lease expires (0 when imminent).
        expires_in_secs: f64,
    },
}

/// A decoded lease record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lease {
    /// The owner that claimed the lease.
    pub owner: String,
    /// Absolute expiry, milliseconds since the Unix epoch.
    pub expires_unix_ms: u64,
}

/// Backend-agnostic store of keyed records plus exclusive leases —
/// the contract a coordinator and its workers share.
///
/// Keys are restricted to `[A-Za-z0-9._-]` (no separators), so a key can
/// never escape the backend's namespace; see [`valid_key`].
pub trait JobStore: Send + Sync {
    /// Durably writes `payload` under `key`, replacing any previous
    /// record (the previous generation stays readable as a fallback).
    ///
    /// # Errors
    ///
    /// [`StoreError`] when the write cannot be made durable.
    fn put(&self, key: &str, payload: &[u8]) -> Result<(), StoreError>;

    /// Reads the record under `key`, falling back to the previous
    /// generation when the primary is corrupt. `Ok(None)` when the key
    /// has never been written.
    ///
    /// # Errors
    ///
    /// [`StoreError`] when a record exists but no generation verifies.
    fn get(&self, key: &str) -> Result<Option<Vec<u8>>, StoreError>;

    /// Removes the record under `key` (all generations). Idempotent.
    fn delete(&self, key: &str);

    /// Keys of every stored record starting with `prefix`, sorted.
    fn list(&self, prefix: &str) -> Vec<String>;

    /// Attempts to claim the lease on `key` for `owner`, valid for
    /// `ttl_secs`. Exactly one of N concurrent claimants acquires it; an
    /// expired lease is broken and re-claimed transparently.
    fn try_claim(&self, key: &str, owner: &str, ttl_secs: f64) -> Claim;

    /// Extends `owner`'s lease on `key` by `ttl_secs` from now (the
    /// heartbeat). Returns `false` — without extending anything — when
    /// `owner` no longer holds the lease.
    fn renew(&self, key: &str, owner: &str, ttl_secs: f64) -> bool;

    /// Releases `owner`'s lease on `key`. Returns `false` when `owner`
    /// did not hold it (already expired and taken over, or never held).
    fn release(&self, key: &str, owner: &str) -> bool;

    /// The current lease on `key`, expired or not, if one exists.
    fn lease(&self, key: &str) -> Option<Lease>;
}

/// Whether `key` is a valid store key: non-empty, at most 200 bytes, and
/// only `[A-Za-z0-9._-]` characters (and not entirely dots).
pub fn valid_key(key: &str) -> bool {
    !key.is_empty()
        && key.len() <= 200
        && key
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
        && key.chars().any(|c| c != '.')
}

fn now_unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis().min(u128::from(u64::MAX)) as u64)
}

/// [`JobStore`] on a shared directory, records written through the
/// durable [`crate::store`] layer.
///
/// Every process pointing an `FsJobStore` at the same directory sees the
/// same records and competes for the same leases — the loopback
/// equivalent of a small cluster sharing a network filesystem.
pub struct FsJobStore {
    root: PathBuf,
    /// Per-instance nonce source for unique temp/stale file names, so
    /// concurrent claimants within one process never collide on them.
    nonce: AtomicU64,
}

impl FsJobStore {
    /// A store rooted at `root` (created if missing).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the directory cannot be created.
    pub fn open(root: &Path) -> Result<FsJobStore, StoreError> {
        std::fs::create_dir_all(root).map_err(|e| StoreError::Io {
            path: root.to_path_buf(),
            message: e.to_string(),
        })?;
        Ok(FsJobStore {
            root: root.to_path_buf(),
            nonce: AtomicU64::new(1),
        })
    }

    /// The directory this store lives on.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn record_path(&self, key: &str) -> PathBuf {
        self.root.join(format!("{key}.json"))
    }

    fn lease_path(&self, key: &str) -> PathBuf {
        self.root.join(format!("{key}.lease"))
    }

    /// A name unique across processes and claimants: pid + per-instance
    /// counter (wall time deliberately avoided — uniqueness must not
    /// depend on clock resolution).
    fn unique_suffix(&self) -> String {
        format!(
            "{}-{}",
            std::process::id(),
            self.nonce.fetch_add(1, Ordering::Relaxed)
        )
    }

    fn read_lease(path: &Path) -> Option<Lease> {
        let text = std::fs::read_to_string(path).ok()?;
        let mut lines = text.lines();
        let owner = lines.next()?.to_string();
        let expires_unix_ms = lines.next()?.parse().ok()?;
        Some(Lease {
            owner,
            expires_unix_ms,
        })
    }

    /// Atomically creates the lease file with full contents: write a
    /// private temp file, then `hard_link` it into place — the link is
    /// the atomic claim point and fails if the lease already exists.
    fn link_lease(&self, key: &str, owner: &str, ttl_secs: f64) -> std::io::Result<()> {
        let expires = now_unix_ms().saturating_add((ttl_secs.max(0.0) * 1e3) as u64);
        let tmp = self
            .root
            .join(format!("{key}.lease-tmp-{}", self.unique_suffix()));
        std::fs::write(&tmp, format!("{owner}\n{expires}\n"))?;
        let outcome = std::fs::hard_link(&tmp, self.lease_path(key));
        let _ = std::fs::remove_file(&tmp);
        outcome
    }

    /// Moves an expired lease aside so it can be re-claimed. The rename
    /// is atomic and the source vanishes for every loser, so exactly one
    /// breaker proceeds per stale lease.
    fn break_expired(&self, key: &str, observed: &Lease) -> bool {
        let path = self.lease_path(key);
        // Re-check under the current clock: never break a live lease.
        match Self::read_lease(&path) {
            Some(current) if current == *observed && current.expires_unix_ms <= now_unix_ms() => {
                let stale = self
                    .root
                    .join(format!("{key}.lease-stale-{}", self.unique_suffix()));
                if std::fs::rename(&path, &stale).is_ok() {
                    let _ = std::fs::remove_file(&stale);
                    true
                } else {
                    false
                }
            }
            _ => false,
        }
    }
}

impl JobStore for FsJobStore {
    fn put(&self, key: &str, payload: &[u8]) -> Result<(), StoreError> {
        assert!(valid_key(key), "invalid store key `{key}`");
        store::write_durable(&self.record_path(key), payload).map(|_| ())
    }

    fn get(&self, key: &str) -> Result<Option<Vec<u8>>, StoreError> {
        assert!(valid_key(key), "invalid store key `{key}`");
        let path = self.record_path(key);
        if !path.exists() && !store::previous_generation(&path).exists() {
            return Ok(None);
        }
        store::read_with_fallback(&path).map(|loaded| Some(loaded.payload))
    }

    fn delete(&self, key: &str) {
        assert!(valid_key(key), "invalid store key `{key}`");
        store::remove_generations(&self.record_path(key));
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        let mut keys = Vec::new();
        let Ok(entries) = std::fs::read_dir(&self.root) else {
            return keys;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(key) = name.strip_suffix(".json") {
                if key.starts_with(prefix) && valid_key(key) {
                    keys.push(key.to_string());
                }
            }
        }
        keys.sort();
        keys
    }

    fn try_claim(&self, key: &str, owner: &str, ttl_secs: f64) -> Claim {
        assert!(valid_key(key), "invalid store key `{key}`");
        // Two rounds: a fresh claim, and — after breaking an expired
        // lease — one more. A second `Held` means we lost a legitimate
        // race; the caller retries on its own schedule.
        for _ in 0..2 {
            match self.link_lease(key, owner, ttl_secs) {
                Ok(()) => return Claim::Acquired,
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    match Self::read_lease(&self.lease_path(key)) {
                        Some(lease) if lease.expires_unix_ms > now_unix_ms() => {
                            return Claim::Held {
                                owner: lease.owner,
                                expires_in_secs: lease.expires_unix_ms.saturating_sub(now_unix_ms())
                                    as f64
                                    / 1e3,
                            };
                        }
                        Some(lease) => {
                            // Expired: break it (one winner) and retry.
                            let _ = self.break_expired(key, &lease);
                        }
                        // Vanished between link and read: retry.
                        None => {}
                    }
                }
                // Unexpected I/O failure: report as held-by-unknown so
                // the caller backs off instead of assuming ownership.
                Err(_) => {
                    return Claim::Held {
                        owner: String::new(),
                        expires_in_secs: 0.0,
                    }
                }
            }
        }
        match Self::read_lease(&self.lease_path(key)) {
            Some(lease) => Claim::Held {
                expires_in_secs: lease.expires_unix_ms.saturating_sub(now_unix_ms()) as f64 / 1e3,
                owner: lease.owner,
            },
            None => Claim::Held {
                owner: String::new(),
                expires_in_secs: 0.0,
            },
        }
    }

    fn renew(&self, key: &str, owner: &str, ttl_secs: f64) -> bool {
        assert!(valid_key(key), "invalid store key `{key}`");
        let path = self.lease_path(key);
        match Self::read_lease(&path) {
            Some(lease) if lease.owner == owner && lease.expires_unix_ms > now_unix_ms() => {
                let expires = now_unix_ms().saturating_add((ttl_secs.max(0.0) * 1e3) as u64);
                let tmp = self
                    .root
                    .join(format!("{key}.lease-tmp-{}", self.unique_suffix()));
                if std::fs::write(&tmp, format!("{owner}\n{expires}\n")).is_err() {
                    return false;
                }
                // Atomic replace of our own live lease.
                let renewed = std::fs::rename(&tmp, &path).is_ok();
                if !renewed {
                    let _ = std::fs::remove_file(&tmp);
                }
                renewed
            }
            _ => false,
        }
    }

    fn release(&self, key: &str, owner: &str) -> bool {
        assert!(valid_key(key), "invalid store key `{key}`");
        let path = self.lease_path(key);
        match Self::read_lease(&path) {
            // Only the live owner may delete; an expired lease is left
            // for `try_claim`'s break path so takeover stays single-file.
            Some(lease) if lease.owner == owner => std::fs::remove_file(&path).is_ok(),
            _ => false,
        }
    }

    fn lease(&self, key: &str) -> Option<Lease> {
        Self::read_lease(&self.lease_path(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    fn scratch(name: &str) -> PathBuf {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "minpower-jobstore-{name}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn records_round_trip_and_list() {
        let store = FsJobStore::open(&scratch("rt")).unwrap();
        assert_eq!(store.get("job-1").unwrap(), None);
        store.put("job-1", b"{\"a\":1}").unwrap();
        store.put("job-1-shard-0", b"{\"b\":2}").unwrap();
        store.put("other", b"{}").unwrap();
        assert_eq!(store.get("job-1").unwrap().unwrap(), b"{\"a\":1}");
        assert_eq!(
            store.list("job-1"),
            vec!["job-1".to_string(), "job-1-shard-0".to_string()]
        );
        store.delete("job-1");
        assert_eq!(store.get("job-1").unwrap(), None);
        assert_eq!(store.list("job-1"), vec!["job-1-shard-0".to_string()]);
    }

    #[test]
    fn key_validation_rejects_separators() {
        assert!(valid_key("coord-job-3-shard-12"));
        assert!(valid_key("a.b_c-D9"));
        assert!(!valid_key(""));
        assert!(!valid_key(".."));
        assert!(!valid_key("a/b"));
        assert!(!valid_key("a\\b"));
        assert!(!valid_key(&"x".repeat(201)));
    }

    #[test]
    fn claim_is_exclusive_until_released() {
        let store = FsJobStore::open(&scratch("excl")).unwrap();
        assert_eq!(store.try_claim("s0", "alice", 30.0), Claim::Acquired);
        match store.try_claim("s0", "bob", 30.0) {
            Claim::Held { owner, .. } => assert_eq!(owner, "alice"),
            other => panic!("expected Held, got {other:?}"),
        }
        assert!(store.renew("s0", "alice", 30.0));
        assert!(!store.renew("s0", "bob", 30.0));
        assert!(!store.release("s0", "bob"));
        assert!(store.release("s0", "alice"));
        assert_eq!(store.try_claim("s0", "bob", 30.0), Claim::Acquired);
    }

    #[test]
    fn expired_lease_is_taken_over() {
        let store = FsJobStore::open(&scratch("expire")).unwrap();
        assert_eq!(store.try_claim("s1", "alice", 0.0), Claim::Acquired);
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert_eq!(store.try_claim("s1", "bob", 30.0), Claim::Acquired);
        assert_eq!(store.lease("s1").unwrap().owner, "bob");
        // The previous owner can no longer renew or release.
        assert!(!store.renew("s1", "alice", 30.0));
        assert!(!store.release("s1", "alice"));
    }

    /// The satellite requirement: two independent store handles (the
    /// moral equivalent of two processes — the claim arbitration runs
    /// entirely through filesystem syscalls, with no shared in-process
    /// state) racing many claimants at one shard key must deterministically
    /// produce exactly one owner.
    #[test]
    fn concurrent_claims_yield_exactly_one_owner() {
        let dir = scratch("race");
        let a = Arc::new(FsJobStore::open(&dir).unwrap());
        let b = Arc::new(FsJobStore::open(&dir).unwrap());
        for round in 0..8 {
            let key = format!("shard-{round}");
            let winners = Arc::new(AtomicUsize::new(0));
            let threads: Vec<_> = (0..8)
                .map(|i| {
                    let store: Arc<FsJobStore> = if i % 2 == 0 { a.clone() } else { b.clone() };
                    let winners = winners.clone();
                    let key = key.clone();
                    std::thread::spawn(move || {
                        if store.try_claim(&key, &format!("claimant-{i}"), 60.0) == Claim::Acquired
                        {
                            winners.fetch_add(1, Ordering::Relaxed);
                        }
                    })
                })
                .collect();
            for t in threads {
                t.join().unwrap();
            }
            assert_eq!(
                winners.load(Ordering::Relaxed),
                1,
                "round {round}: exactly one claimant must win"
            );
            // And the winner on disk is a real claimant with a live lease.
            let lease = a.lease(&key).unwrap();
            assert!(lease.owner.starts_with("claimant-"));
            assert!(lease.expires_unix_ms > now_unix_ms());
        }
    }

    #[test]
    fn records_survive_through_the_durable_layer() {
        let dir = scratch("durable");
        {
            let store = FsJobStore::open(&dir).unwrap();
            store.put("k", b"{\"v\":1}").unwrap();
            store.put("k", b"{\"v\":2}").unwrap();
        }
        // A fresh handle (new process) sees the latest generation; after
        // the primary is destroyed, the `.1` fallback still serves it.
        let store = FsJobStore::open(&dir).unwrap();
        assert_eq!(store.get("k").unwrap().unwrap(), b"{\"v\":2}");
        // A framed record whose CRC does not match its payload — the
        // store must reject it and fall back.
        std::fs::write(dir.join("k.json"), b"minpower-store 1 7 00000000\ngarbage").unwrap();
        assert_eq!(store.get("k").unwrap().unwrap(), b"{\"v\":1}");
    }
}
