//! Global symbol interning.
//!
//! Every functor, constant, variable, and predicate name in the system is
//! a [`Sym`]: a `u32` index into a process-wide append-only string table.
//! Equality and hashing are O(1) on the id; ordering compares the resolved
//! strings so `BTreeMap`/`BTreeSet` iteration stays in lexicographic
//! order — the property every piece of text/JSON output in this repo
//! depends on for byte-identical reports. (Interning ids are assigned in
//! first-come order, and under the `--jobs` worker pool that order races;
//! nothing observable may ever depend on id order, and the `Ord` instance
//! enforces that by never looking at ids.)
//!
//! The table is built for a read-mostly parallel workload: lookups of
//! already-interned strings take a sharded read lock, and resolving an id
//! back to its string is entirely lock-free (an atomic chunk-table walk),
//! so `Display` formatting and string comparisons on the analysis hot
//! paths never contend. Interned strings are leaked — the table is global
//! and append-only by design, and the population is bounded by the
//! distinct names in the programs a process analyzes.

use crate::hash::Fnv64;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicUsize, Ordering};
use std::sync::{OnceLock, RwLock};

/// Strings per chunk of the id → string table.
const CHUNK: usize = 4096;
/// Maximum number of chunks (bounds the table at ~16M symbols).
const NCHUNKS: usize = 4096;
/// Shards of the string → id map; selected by the string's hash.
const NSHARDS: usize = 32;

/// An interned string. `Copy`, 4 bytes, O(1) equality/hash; dereferences
/// to the underlying `str`.
#[derive(Clone, Copy)]
pub struct Sym(u32);

impl Sym {
    /// Intern `s`, returning its symbol (allocating an id on first sight).
    pub fn new(s: impl AsRef<str>) -> Sym {
        interner().intern(s.as_ref())
    }

    /// The interned string. Lock-free.
    pub fn as_str(self) -> &'static str {
        interner().resolve(self.0)
    }

    /// The raw id. Ids are assigned in first-come order and race under
    /// parallel interning: use only for capacity-style diagnostics, never
    /// for anything output-visible.
    pub fn id(self) -> u32 {
        self.0
    }
}

impl PartialEq for Sym {
    fn eq(&self, other: &Sym) -> bool {
        self.0 == other.0
    }
}
impl Eq for Sym {}

impl Hash for Sym {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

/// Ordering compares the *strings*, not the ids: interning order is
/// nondeterministic under `--jobs`, and every ordered container in the
/// output path relies on lexicographic iteration.
impl Ord for Sym {
    fn cmp(&self, other: &Sym) -> std::cmp::Ordering {
        if self.0 == other.0 {
            return std::cmp::Ordering::Equal;
        }
        self.as_str().cmp(other.as_str())
    }
}
impl PartialOrd for Sym {
    fn partial_cmp(&self, other: &Sym) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Deref for Sym {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Sym {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Sym {
        Sym::new(s)
    }
}
impl From<String> for Sym {
    fn from(s: String) -> Sym {
        Sym::new(s)
    }
}
impl From<&String> for Sym {
    fn from(s: &String) -> Sym {
        Sym::new(s.as_str())
    }
}

impl PartialEq<str> for Sym {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}
impl PartialEq<&str> for Sym {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

/// Number of symbols interned so far in this process.
pub fn symbols_interned() -> u64 {
    interner().len.load(Ordering::Acquire) as u64
}

/// Total bytes of string payload held by the interner.
pub fn interned_bytes() -> u64 {
    interner().bytes.load(Ordering::Relaxed) as u64
}

struct Interner {
    /// string → id, sharded by string hash. Read-mostly after warmup.
    shards: Vec<RwLock<HashMap<&'static str, u32>>>,
    /// id → string: chunked so readers never see a reallocation. Each
    /// chunk is a leaked array of thin pointers to leaked `&'static str`
    /// fat pointers (a fat pointer cannot be stored atomically).
    chunks: Vec<AtomicPtr<Slot>>,
    len: AtomicU32,
    bytes: AtomicUsize,
}

type Slot = AtomicPtr<&'static str>;

fn interner() -> &'static Interner {
    static INTERNER: OnceLock<Interner> = OnceLock::new();
    INTERNER.get_or_init(|| Interner {
        shards: (0..NSHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
        chunks: (0..NCHUNKS).map(|_| AtomicPtr::new(std::ptr::null_mut())).collect(),
        len: AtomicU32::new(0),
        bytes: AtomicUsize::new(0),
    })
}

fn shard_of(s: &str) -> usize {
    // FNV-1a over the bytes; independent of the map's own hasher.
    (Fnv64::digest(s.as_bytes()) as usize) % NSHARDS
}

impl Interner {
    fn intern(&self, s: &str) -> Sym {
        let shard = &self.shards[shard_of(s)];
        if let Some(&id) = shard.read().expect("interner shard").get(s) {
            return Sym(id);
        }
        let mut map = shard.write().expect("interner shard");
        if let Some(&id) = map.get(s) {
            return Sym(id);
        }
        let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
        let id = self.len.fetch_add(1, Ordering::AcqRel);
        assert!((id as usize) < CHUNK * NCHUNKS, "interner capacity exceeded");
        self.bytes.fetch_add(s.len(), Ordering::Relaxed);
        let slot = self.slot(id as usize);
        let fat: &'static mut &'static str = Box::leak(Box::new(leaked));
        slot.store(fat, Ordering::Release);
        map.insert(leaked, id);
        Sym(id)
    }

    fn slot(&self, id: usize) -> &Slot {
        let (c, i) = (id / CHUNK, id % CHUNK);
        let mut chunk = self.chunks[c].load(Ordering::Acquire);
        if chunk.is_null() {
            let fresh: Box<[Slot]> =
                (0..CHUNK).map(|_| AtomicPtr::new(std::ptr::null_mut())).collect();
            let fresh = Box::into_raw(fresh) as *mut Slot;
            match self.chunks[c].compare_exchange(
                std::ptr::null_mut(),
                fresh,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => chunk = fresh,
                Err(winner) => {
                    // Another thread installed the chunk first; free ours.
                    drop(unsafe {
                        Box::from_raw(std::ptr::slice_from_raw_parts_mut(fresh, CHUNK))
                    });
                    chunk = winner;
                }
            }
        }
        unsafe { &*chunk.add(i) }
    }

    fn resolve(&self, id: u32) -> &'static str {
        let (c, i) = (id as usize / CHUNK, id as usize % CHUNK);
        let chunk = self.chunks[c].load(Ordering::Acquire);
        debug_assert!(!chunk.is_null(), "resolve of unknown symbol {id}");
        let fat = unsafe { (*chunk.add(i)).load(Ordering::Acquire) };
        debug_assert!(!fat.is_null(), "resolve of unpublished symbol {id}");
        unsafe { *fat }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeSet, HashSet};

    #[test]
    fn intern_round_trips_and_dedups() {
        let a = Sym::new("append");
        let b = Sym::new("append");
        let c = Sym::new("member");
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
        assert_ne!(a, c);
        assert_eq!(a.as_str(), "append");
        assert_eq!(c.as_str(), "member");
        assert_eq!(&*a, "append");
    }

    #[test]
    fn ord_is_lexicographic_not_id_order() {
        // Intern in reverse lexicographic order: ids ascend, strings
        // descend — the BTreeSet must still iterate lexicographically.
        let names = ["zeta_ord", "midl_ord", "alfa_ord"];
        let syms: Vec<Sym> = names.iter().map(Sym::new).collect();
        let set: BTreeSet<Sym> = syms.iter().copied().collect();
        let iterated: Vec<&str> = set.iter().map(|s| s.as_str()).collect();
        assert_eq!(iterated, vec!["alfa_ord", "midl_ord", "zeta_ord"]);
    }

    #[test]
    fn concurrent_interning_agrees() {
        let names: Vec<String> = (0..2000).map(|i| format!("conc_sym_{}", i % 500)).collect();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let names = names.clone();
                std::thread::spawn(move || {
                    names.iter().map(|n| (n.clone(), Sym::new(n))).collect::<Vec<_>>()
                })
            })
            .collect();
        let mut seen: HashMap<String, u32> = HashMap::new();
        for h in handles {
            for (name, sym) in h.join().expect("thread") {
                assert_eq!(sym.as_str(), name);
                let id = *seen.entry(name).or_insert(sym.id());
                assert_eq!(id, sym.id(), "same string must get the same id everywhere");
            }
        }
        assert_eq!(seen.len(), 500);
        let distinct: HashSet<u32> = seen.values().copied().collect();
        assert_eq!(distinct.len(), 500);
    }

    #[test]
    fn crosses_chunk_boundaries() {
        // Force allocation past the first chunk and resolve across it.
        let mut syms = Vec::new();
        for i in 0..(CHUNK + 10) {
            syms.push(Sym::new(format!("chunk_fill_{i}")));
        }
        for (i, s) in syms.iter().enumerate() {
            assert_eq!(s.as_str(), format!("chunk_fill_{i}"));
        }
        assert!(symbols_interned() > CHUNK as u64);
        assert!(interned_bytes() > 0);
    }
}
