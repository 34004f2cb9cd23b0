//! Content-addressed response cache: canonical request → full report body.
//!
//! The first cache level of the server (the second being the shared
//! [`argus_core::SccCache`], which accelerates *near*-repeat submissions
//! that share SCCs). The key is a canonical
//! string rendering of everything that determines the response bytes —
//! program text, query, adornment, and every semantic option — built by
//! the request handler; two requests with equal keys are guaranteed to
//! produce byte-identical responses, because the analysis pipeline is
//! deterministic in exactly those inputs.
//!
//! Lookup cost is one FNV-1a pass over the canonical key plus a bucket
//! probe that compares keys byte-for-byte (hash collisions can therefore
//! degrade speed, never correctness). Residency is bounded by an
//! approximate byte budget with least-recently-used eviction under a
//! single lock — the critical section is a hash-map probe, no analysis
//! work ever happens while it's held.

use argus_logic::hash::Fnv64;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

struct Entry {
    key: String,
    body: Arc<[u8]>,
    stamp: u64,
    bytes: usize,
}

#[derive(Default)]
struct Inner {
    /// Content hash → entries (a short chain only under 64-bit collision).
    map: HashMap<u64, Vec<Entry>>,
    /// LRU order: stamp → content hash, kept in lockstep with `map`.
    by_stamp: BTreeMap<u64, u64>,
    bytes: usize,
    clock: u64,
}

/// The report cache; see the module docs.
pub struct ReportCache {
    inner: Mutex<Inner>,
    byte_budget: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl ReportCache {
    /// A cache bounded by `byte_budget` approximate resident bytes.
    pub fn new(byte_budget: usize) -> ReportCache {
        ReportCache {
            inner: Mutex::new(Inner::default()),
            byte_budget,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The cached response body for `key`, refreshing its LRU stamp.
    pub fn get(&self, key: &str) -> Option<Arc<[u8]>> {
        let hash = Fnv64::digest(key.as_bytes());
        let mut inner = self.inner.lock().expect("report cache poisoned");
        inner.clock += 1;
        let stamp = inner.clock;
        let chain = match inner.map.get_mut(&hash) {
            Some(chain) => chain,
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        let Some(entry) = chain.iter_mut().find(|e| e.key == key) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let old = entry.stamp;
        entry.stamp = stamp;
        let body = Arc::clone(&entry.body);
        inner.by_stamp.remove(&old);
        inner.by_stamp.insert(stamp, hash);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(body)
    }

    /// Insert a response body for `key` (first insert wins on a race),
    /// evicting least-recently-used entries past the byte budget.
    pub fn put(&self, key: &str, body: Arc<[u8]>) {
        let hash = Fnv64::digest(key.as_bytes());
        let bytes = key.len() + body.len() + std::mem::size_of::<Entry>();
        let mut inner = self.inner.lock().expect("report cache poisoned");
        inner.clock += 1;
        let stamp = inner.clock;
        let chain = inner.map.entry(hash).or_default();
        if chain.iter().any(|e| e.key == key) {
            return;
        }
        chain.push(Entry { key: key.to_string(), body, stamp, bytes });
        inner.by_stamp.insert(stamp, hash);
        inner.bytes += bytes;
        self.insertions.fetch_add(1, Ordering::Relaxed);
        while inner.bytes > self.byte_budget && inner.by_stamp.len() > 1 {
            let (&victim_stamp, &victim_hash) =
                inner.by_stamp.iter().next().expect("nonempty LRU index");
            inner.by_stamp.remove(&victim_stamp);
            let mut freed = 0;
            if let Some(chain) = inner.map.get_mut(&victim_hash) {
                if let Some(pos) = chain.iter().position(|e| e.stamp == victim_stamp) {
                    let gone = chain.remove(pos);
                    freed = gone.bytes;
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                if chain.is_empty() {
                    inner.map.remove(&victim_hash);
                }
            }
            inner.bytes -= freed;
        }
    }

    /// Lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that missed.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Bodies inserted.
    pub fn insertions(&self) -> u64 {
        self.insertions.load(Ordering::Relaxed)
    }

    /// Entries evicted to honor the byte budget.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Entries currently resident.
    pub fn entries(&self) -> u64 {
        self.inner.lock().expect("report cache poisoned").by_stamp.len() as u64
    }

    /// Approximate resident bytes.
    pub fn resident_bytes(&self) -> u64 {
        self.inner.lock().expect("report cache poisoned").bytes as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(s: &str) -> Arc<[u8]> {
        Arc::from(s.as_bytes().to_vec().into_boxed_slice())
    }

    #[test]
    fn hit_returns_exact_bytes() {
        let c = ReportCache::new(1 << 20);
        assert!(c.get("k1").is_none());
        c.put("k1", body("report-1"));
        assert_eq!(c.get("k1").as_deref(), Some(b"report-1".as_slice()));
        assert_eq!((c.hits(), c.misses()), (1, 1));
    }

    #[test]
    fn lru_evicts_cold_entries_first() {
        // Budget fits roughly two entries of this size.
        let payload = "x".repeat(400);
        let per_entry = 2 + payload.len() + std::mem::size_of::<Entry>();
        let c = ReportCache::new(2 * per_entry + 8);
        c.put("a", body(&payload));
        c.put("b", body(&payload));
        assert!(c.get("a").is_some(), "touch a so b is the LRU victim");
        c.put("c", body(&payload));
        assert!(c.evictions() >= 1);
        assert!(c.get("a").is_some(), "recently touched survives");
        assert!(c.get("b").is_none(), "cold entry evicted");
        assert!(c.get("c").is_some(), "fresh entry resident");
    }

    #[test]
    fn first_insert_wins() {
        let c = ReportCache::new(1 << 20);
        c.put("k", body("first"));
        c.put("k", body("second"));
        assert_eq!(c.get("k").as_deref(), Some(b"first".as_slice()));
        assert_eq!(c.insertions(), 1);
    }

    #[test]
    fn colliding_hashes_are_correct() {
        // Force a collision by bypassing the hash: both keys in one chain
        // can only be simulated with a real collision, so instead verify
        // distinct keys with equal prefixes resolve independently.
        let c = ReportCache::new(1 << 20);
        c.put("key-one", body("1"));
        c.put("key-two", body("2"));
        assert_eq!(c.get("key-one").as_deref(), Some(b"1".as_slice()));
        assert_eq!(c.get("key-two").as_deref(), Some(b"2".as_slice()));
    }
}
