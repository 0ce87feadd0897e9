//! Canonical-AIG result cache: synthesis as a content-addressed function.
//!
//! The cache key is `(canonical digest of the input AIG, script text,
//! server configuration fingerprint)` — everything the synthesis output is
//! a function of.
//! The canonical digest ([`xsfq_aig::digest::canonical_digest`]) sees
//! through internal node numbering and signal naming, so a design
//! resubmitted from a different tool's BLIF writer still hits. The cached
//! value is the exact encoded OK-response body (netlist + report bytes),
//! so a hit is byte-identical to the miss that populated it — the property
//! the smoke test pins.
//!
//! Eviction is LRU under a byte budget: each entry charges its value bytes
//! plus a small fixed overhead, and inserts evict least-recently-used
//! entries until the total fits. A budget of zero disables caching
//! entirely (every `get` misses, every `put` is dropped).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use xsfq_aig::digest::Digest;

/// Everything the synthesis result is a function of.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct CacheKey {
    /// Canonical structural digest of the parsed input.
    pub digest: Digest,
    /// Pass script text (post-defaulting, so `""` never appears).
    pub script: String,
    /// Fingerprint of the server's flow configuration: job deadline,
    /// checking level, timing options and script defaults. The field keeps
    /// its old name because perfbench builds `CacheKey` by field name.
    pub guards: String,
}

/// Fixed per-entry overhead charged against the byte budget.
const ENTRY_OVERHEAD: usize = 128;

struct Entry {
    bytes: Arc<Vec<u8>>,
    stamp: u64,
}

struct State {
    map: HashMap<CacheKey, Entry>,
    clock: u64,
    used: usize,
}

/// The LRU result cache. See the [module docs](self).
pub struct ResultCache {
    state: Mutex<State>,
    budget: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ResultCache {
    /// A cache holding at most `budget` value bytes; zero disables it.
    pub fn new(budget: usize) -> ResultCache {
        ResultCache {
            state: Mutex::new(State {
                map: HashMap::new(),
                clock: 0,
                used: 0,
            }),
            budget,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Look up a result, refreshing its recency on a hit.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<Vec<u8>>> {
        let found = self.lookup(key);
        // Ordering: Relaxed — hit/miss counters are telemetry only;
        // readers tolerate momentary skew and no data rides on them.
        match found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Look up again a request whose [`get`](Self::get) missed, e.g. a job
    /// that queued while a twin filled the cache. A hit moves the
    /// request's count from misses to hits; a miss counts nothing, so each
    /// request is counted once.
    pub fn recheck(&self, key: &CacheKey) -> Option<Arc<Vec<u8>>> {
        let found = self.lookup(key);
        if found.is_some() {
            // Ordering: Relaxed — telemetry counters, as in `get`.
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.misses.fetch_sub(1, Ordering::Relaxed);
        }
        found
    }

    fn lookup(&self, key: &CacheKey) -> Option<Arc<Vec<u8>>> {
        if self.budget == 0 {
            return None;
        }
        let mut s = self.state.lock().unwrap();
        s.clock += 1;
        let stamp = s.clock;
        let e = s.map.get_mut(key)?;
        e.stamp = stamp;
        Some(Arc::clone(&e.bytes))
    }

    /// Insert a result, evicting LRU entries to fit the budget. Values
    /// larger than the whole budget are not cached.
    pub fn put(&self, key: CacheKey, bytes: Vec<u8>) {
        let cost = bytes.len() + ENTRY_OVERHEAD;
        if self.budget == 0 || cost > self.budget {
            return;
        }
        let mut s = self.state.lock().unwrap();
        if let Some(old) = s.map.remove(&key) {
            s.used -= old.bytes.len() + ENTRY_OVERHEAD;
        }
        while s.used + cost > self.budget {
            // O(n) LRU scan: entry counts are small (netlists are large
            // relative to any sane budget), so a linked list isn't worth
            // its unsafe code here.
            let Some(lru) = s
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            let e = s.map.remove(&lru).unwrap();
            s.used -= e.bytes.len() + ENTRY_OVERHEAD;
        }
        s.clock += 1;
        let stamp = s.clock;
        s.used += cost;
        s.map.insert(
            key,
            Entry {
                bytes: Arc::new(bytes),
                stamp,
            },
        );
    }

    /// `(hits, misses, entries, used_bytes)` counters for the stats frame.
    pub fn stats(&self) -> (u64, u64, usize, usize) {
        let s = self.state.lock().unwrap();
        (
            // Ordering: Relaxed — telemetry snapshot; a count racing in
            // from a concurrent lookup may or may not be included, and
            // either answer is a correct stats frame.
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            s.map.len(),
            s.used,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(tag: u8, script: &str) -> CacheKey {
        CacheKey {
            digest: Digest([tag; 16]),
            script: script.into(),
            guards: "g".into(),
        }
    }

    #[test]
    fn hit_returns_the_exact_bytes() {
        let c = ResultCache::new(1 << 20);
        assert!(c.get(&key(1, "fast")).is_none());
        c.put(key(1, "fast"), b"payload".to_vec());
        assert_eq!(c.get(&key(1, "fast")).unwrap().as_slice(), b"payload");
        // Same design, different script: a distinct result.
        assert!(c.get(&key(1, "high")).is_none());
        assert_eq!(c.stats().0, 1);
    }

    #[test]
    fn lru_eviction_respects_the_byte_budget() {
        let budget = 3 * (100 + ENTRY_OVERHEAD);
        let c = ResultCache::new(budget);
        for tag in 0..3 {
            c.put(key(tag, "s"), vec![tag; 100]);
        }
        // Touch 0 so 1 becomes the LRU, then insert a fourth entry.
        assert!(c.get(&key(0, "s")).is_some());
        c.put(key(3, "s"), vec![3; 100]);
        assert!(c.get(&key(1, "s")).is_none(), "LRU entry evicted");
        assert!(c.get(&key(0, "s")).is_some());
        assert!(c.get(&key(3, "s")).is_some());
        let (_, _, entries, used) = c.stats();
        assert_eq!(entries, 3);
        assert!(used <= budget);
    }

    #[test]
    fn recheck_moves_a_miss_to_the_hits() {
        let c = ResultCache::new(1 << 20);
        assert!(c.get(&key(1, "s")).is_none());
        assert!(c.recheck(&key(1, "s")).is_none(), "still absent");
        assert_eq!(c.stats().1, 1, "a missed recheck counts nothing");
        c.put(key(1, "s"), b"x".to_vec());
        assert_eq!(c.recheck(&key(1, "s")).unwrap().as_slice(), b"x");
        assert_eq!((c.stats().0, c.stats().1), (1, 0), "one request, one hit");
    }

    #[test]
    fn zero_budget_disables_caching() {
        let c = ResultCache::new(0);
        c.put(key(1, "s"), b"x".to_vec());
        assert!(c.get(&key(1, "s")).is_none());
        assert_eq!(c.stats().2, 0);
    }
}
