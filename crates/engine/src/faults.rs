//! Deterministic fault injection (failpoints-style), behind the `faults`
//! feature.
//!
//! Robustness claims — "a worker panic is recovered", "a NaN model output
//! never becomes the returned optimum", "a clock jump past the deadline
//! degrades to best-so-far" — are untestable without a way to *cause*
//! those faults on demand. This module is the single switchboard: code
//! under test arms a named **site** with a `Trigger`, and production
//! code queries the site at the matching point. With the feature disabled
//! (the default) every query compiles to a constant `false` and the
//! library carries no registry, no locking, and no behavioral difference.
//!
//! Sites are plain strings agreed between the arm point and the fire
//! point; the ones built into the workspace are:
//!
//! | site                | effect at the fire point                     |
//! |---------------------|----------------------------------------------|
//! | `pool.worker.panic` | the worker closure panics before running     |
//! | `probe.nan`         | a sizing probe reports NaN energy            |
//! | `runctl.clock_jump` | a deadline check behaves as if time jumped   |
//! | `service.conn.drop` | an HTTP connection dies before the response  |
//! | `io.write.torn`     | a durable write or journal append persists
//!                         only a prefix and still reports success (torn
//!                         write caught by the CRC frame on the next
//!                         read)                                         |
//! | `io.write.short`    | a durable write fails with a short-write error
//!                         (transient; absorbed by the bounded retry)    |
//! | `io.fsync.fail`     | an fsync fails (transient; retried)          |
//! | `io.disk.full`      | a durable write fails as if the disk is full |
//! | `checkpoint.corrupt`| a bit flips inside the persisted payload
//!                         (silent corruption for the recovery audit)    |
//! | `coord.worker.lost` | a coordinator→worker shard dispatch connects
//!                         and then drops before sending (network-drop
//!                         worker loss; indexed by the per-endpoint
//!                         dispatch sequence number)                     |
//! | `net.connect.refused`| a dispatch's TCP connect fails immediately,
//!                         as if no worker listens on the endpoint
//!                         (indexed by the coordinator-wide network
//!                         sequence number, as are all `net.*` sites)    |
//! | `net.partition`     | a dispatch's TCP connect black-holes: it
//!                         blocks for the (bounded) connect timeout and
//!                         then fails — a network partition between the
//!                         coordinator and the worker                    |
//! | `net.read.stall`    | the request is sent but the response read
//!                         stalls until the (bounded) read timeout — a
//!                         straggling worker, the hedge-dispatch trigger |
//! | `net.response.truncated` | the response arrives cut off mid-stream,
//!                         so HTTP/JSON parsing fails and the dispatch
//!                         is classified transient                       |
//! | `session.compact.crash` | a session compaction crashes after the
//!                         folded snapshot is durable but before the op
//!                         log is truncated — the window recovery must
//!                         normalize without double-applying ops
//!                         (indexed by the process-wide compaction
//!                         sequence)                                    |
//! | `govern.clock_skew` | a token-bucket refill observes a wildly
//!                         skewed monotonic reading (hours forward on
//!                         even indices, to zero on odd ones); the
//!                         limiter must clamp instead of banking
//!                         unbounded tokens or locking clients out
//!                         (indexed by the process-wide acquire
//!                         sequence)                                    |
//!
//! Triggers are deterministic: an explicit index set, every-nth, or a
//! seeded pseudo-random subset — never wall clock — so failing runs
//! replay exactly.

#[cfg(feature = "faults")]
mod imp {
    use std::collections::HashMap;
    use std::sync::Mutex;
    use std::sync::OnceLock;

    use crate::rng::SplitMix64;

    /// When an armed site fires, as a function of the site's call index.
    #[derive(Debug, Clone)]
    pub enum Trigger {
        /// Fire on exactly these call indices.
        OnIndices(Vec<u64>),
        /// Fire on every `n`-th call (indices `n-1, 2n-1, ...`).
        EveryNth(u64),
        /// Fire on a seeded pseudo-random subset: call index `i` fires
        /// when `SplitMix64::stream(seed, i)` draws below `probability`.
        /// Deterministic per `(seed, i)` — independent of thread timing.
        Seeded {
            /// Stream seed.
            seed: u64,
            /// Per-call fire probability in `[0, 1]`.
            probability: f64,
        },
    }

    struct Armed {
        trigger: Trigger,
        calls: u64,
        fired: u64,
    }

    fn registry() -> &'static Mutex<HashMap<String, Armed>> {
        static REGISTRY: OnceLock<Mutex<HashMap<String, Armed>>> = OnceLock::new();
        REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
    }

    /// Arms `site` with `trigger`, replacing any previous arming.
    pub fn arm(site: &str, trigger: Trigger) {
        registry().lock().expect("fault registry").insert(
            site.to_string(),
            Armed {
                trigger,
                calls: 0,
                fired: 0,
            },
        );
    }

    /// Disarms one site.
    pub fn disarm(site: &str) {
        registry().lock().expect("fault registry").remove(site);
    }

    /// Disarms every site (test teardown).
    pub fn disarm_all() {
        registry().lock().expect("fault registry").clear();
    }

    /// Number of times `site` actually fired since it was armed.
    pub fn fired_count(site: &str) -> u64 {
        registry()
            .lock()
            .expect("fault registry")
            .get(site)
            .map_or(0, |a| a.fired)
    }

    /// Queries `site` at its next call index, returning whether the fault
    /// fires. Unarmed sites never fire. `index` is the *caller's* notion
    /// of position (work-item index, probe count); [`Trigger::OnIndices`]
    /// matches against it so injection is independent of call ordering
    /// across threads, while `EveryNth`/`Seeded` use it likewise.
    pub fn should_fire(site: &str, index: u64) -> bool {
        let mut reg = registry().lock().expect("fault registry");
        let Some(armed) = reg.get_mut(site) else {
            return false;
        };
        armed.calls += 1;
        let fire = match &armed.trigger {
            Trigger::OnIndices(set) => set.contains(&index),
            Trigger::EveryNth(n) => *n > 0 && (index + 1).is_multiple_of(*n),
            Trigger::Seeded { seed, probability } => {
                SplitMix64::stream(*seed, index).next_f64() < *probability
            }
        };
        if fire {
            armed.fired += 1;
        }
        fire
    }
}

#[cfg(feature = "faults")]
pub use imp::{arm, disarm, disarm_all, fired_count, should_fire, Trigger};

/// No-op stand-in when the `faults` feature is off: sites never fire and
/// the query inlines to `false`.
#[cfg(not(feature = "faults"))]
#[inline(always)]
pub fn should_fire(_site: &str, _index: u64) -> bool {
    false
}

#[cfg(all(test, feature = "faults"))]
mod tests {
    use super::*;

    // The registry is process-global, so tests share it; each test uses
    // its own site names to stay independent.

    #[test]
    fn unarmed_sites_never_fire() {
        assert!(!should_fire("t.unarmed", 0));
        assert!(!should_fire("t.unarmed", 99));
    }

    #[test]
    fn on_indices_fires_exactly_there() {
        arm("t.idx", Trigger::OnIndices(vec![2, 5]));
        let fired: Vec<u64> = (0..8).filter(|&i| should_fire("t.idx", i)).collect();
        assert_eq!(fired, vec![2, 5]);
        assert_eq!(fired_count("t.idx"), 2);
        disarm("t.idx");
        assert!(!should_fire("t.idx", 2));
    }

    #[test]
    fn every_nth_fires_periodically() {
        arm("t.nth", Trigger::EveryNth(3));
        let fired: Vec<u64> = (0..9).filter(|&i| should_fire("t.nth", i)).collect();
        assert_eq!(fired, vec![2, 5, 8]);
        disarm("t.nth");
    }

    #[test]
    fn seeded_trigger_is_deterministic_per_index() {
        arm(
            "t.seeded",
            Trigger::Seeded {
                seed: 7,
                probability: 0.5,
            },
        );
        let a: Vec<bool> = (0..64).map(|i| should_fire("t.seeded", i)).collect();
        let b: Vec<bool> = (0..64).map(|i| should_fire("t.seeded", i)).collect();
        assert_eq!(a, b, "same (seed, index) must fire identically");
        assert!(a.iter().any(|&f| f) && a.iter().any(|&f| !f));
        disarm("t.seeded");
    }
}
