//! Content-addressed in-memory cache of compressed chunks.
//!
//! The served workloads that matter (FCBench's database/query and telemetry
//! traces) are read-heavy with highly skewed key popularity: the same hot
//! chunks are compressed and decompressed over and over. Since the container
//! already checksums every chunk with XXH64, the chunk *contents* are a
//! natural cache key — two byte-identical chunks encode to byte-identical
//! bodies (every codec is a pure function of the chunk), so a cache lookup
//! is indistinguishable from a fresh encode. That property is the whole
//! contract: **cache-on and cache-off must produce byte-identical streams**,
//! and every consumer asserts it.
//!
//! Design:
//!
//! - **Keys** ([`CacheKey`]) are two independent XXH64 hashes of the chunk
//!   bytes under different seeds, with a caller-supplied context word mixed
//!   into both (algorithm id, direction, expected length — anything that
//!   changes what the cached value means). 128 effective bits makes an
//!   accidental collision — which would silently substitute another chunk's
//!   bytes — beyond reach of any realistic working set (~2^64 chunks for a
//!   50% birthday bound). Decode paths already hold each chunk body's
//!   container checksum, an XXH64 under the stream seed, so their keys
//!   ([`CacheKey::with_checksum`]) take the high half from it and hash the
//!   body once, for the low half.
//! - **Sharding:** keys map to one of a power-of-two number of shards, each
//!   behind its own mutex, so concurrent connections rarely contend. Each
//!   shard owns `capacity / shards` bytes of the budget; the global
//!   capacity is therefore a hard bound, never exceeded.
//! - **Eviction** is segmented LRU per shard: new entries enter a
//!   *probationary* segment; a hit promotes to a *protected* segment capped
//!   at ~80% of the shard budget (overflow demotes the protected LRU back
//!   to probation). One-hit-wonder scans flush only the probationary
//!   segment and cannot evict the hot set — the failure mode of plain LRU
//!   under zipfian traffic with scattered cold keys.
//! - **Values** are `Arc<[u8]>`, so a hit hands out a reference without
//!   copying and eviction never invalidates an outstanding reader.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use fpc_container::checksum::xxh64;

/// Seed for the high key half ("fpcCACHE" LE) — distinct from the container
/// stream seed so a cache key never doubles as a frame checksum.
const SEED_HI: u64 = u64::from_le_bytes(*b"fpcCACHE");
/// Seed for the low key half ("EHCACcpf" LE).
const SEED_LO: u64 = u64::from_le_bytes(*b"EHCACcpf");

/// Default shard count (power of two). Per-shard mutexes make this the
/// effective concurrency limit for cache operations.
pub const DEFAULT_SHARDS: usize = 16;

/// Fraction of a shard's byte budget reserved for the protected segment,
/// expressed as parts per 10 (8 == 80%).
const PROTECTED_TENTHS: u64 = 8;

const NIL: u32 = u32::MAX;

/// 128-bit content address: two XXH64 halves under independent seeds.
///
/// `context` namespaces keys whose *bytes* may coincide but whose cached
/// values differ (e.g. compress-path vs decompress-path entries, different
/// algorithms, different expected lengths).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    hi: u64,
    lo: u64,
}

impl CacheKey {
    /// Hashes `bytes` under both seeds, mixing `context` into each half.
    pub fn new(bytes: &[u8], context: u64) -> CacheKey {
        CacheKey {
            hi: xxh64(bytes, SEED_HI ^ context),
            lo: xxh64(bytes, SEED_LO ^ context.rotate_left(32)),
        }
    }

    /// The key of `bytes` whose high half comes from `checksum`, the
    /// container's [`frame_checksum`](fpc_container::checksum::frame_checksum)
    /// of the same bytes, which a decoder has already computed or verified:
    /// only the low half hashes `bytes`. `checksum` and `context` are mixed
    /// through one 8-byte XXH64 under the high-half seed, so the high half
    /// is never the bare checksum. The decode paths key verified chunk
    /// bodies this way; compress-path keys use [`CacheKey::new`].
    pub fn with_checksum(bytes: &[u8], checksum: u64, context: u64) -> CacheKey {
        CacheKey {
            hi: xxh64(&checksum.to_le_bytes(), SEED_HI ^ context),
            lo: xxh64(bytes, SEED_LO ^ context.rotate_left(32)),
        }
    }

    /// Shard index for this key (`shards` must be a power of two).
    fn shard(&self, shards: usize) -> usize {
        // The low half's top bits are well mixed (XXH64 avalanche); the
        // HashMap inside the shard uses the full key, so reusing low bits
        // here costs nothing.
        (self.lo as usize) & (shards - 1)
    }
}

/// Monotonic operation counters, mirrored into the `cache.*` metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Values actually stored (oversized and duplicate inserts excluded).
    pub insertions: u64,
    /// Entries removed to make room, or replaced by an insert of other
    /// bytes under their key.
    pub evictions: u64,
    /// Sum of inserted value lengths.
    pub bytes_inserted: u64,
    /// Sum of evicted value lengths.
    pub bytes_evicted: u64,
    /// Bytes currently resident across all shards.
    pub resident_bytes: u64,
    /// Entries currently resident across all shards.
    pub resident_entries: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]`; `0` before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One resident entry in a shard's slab.
struct Entry {
    key: CacheKey,
    value: Arc<[u8]>,
    prev: u32,
    next: u32,
    protected: bool,
}

/// Intrusive doubly-linked LRU list over slab indices (head = MRU).
#[derive(Clone, Copy)]
struct Segment {
    head: u32,
    tail: u32,
    bytes: u64,
}

impl Segment {
    fn new() -> Segment {
        Segment {
            head: NIL,
            tail: NIL,
            bytes: 0,
        }
    }
}

struct Shard {
    map: HashMap<CacheKey, u32>,
    slab: Vec<Entry>,
    free: Vec<u32>,
    probation: Segment,
    protected: Segment,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            map: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            probation: Segment::new(),
            protected: Segment::new(),
        }
    }

    fn bytes(&self) -> u64 {
        self.probation.bytes + self.protected.bytes
    }

    fn segment(&mut self, protected: bool) -> &mut Segment {
        if protected {
            &mut self.protected
        } else {
            &mut self.probation
        }
    }

    /// Unlinks slot `idx` from its segment (does not free the slot).
    fn unlink(&mut self, idx: u32) {
        let (prev, next, protected, len) = {
            let e = &self.slab[idx as usize];
            (e.prev, e.next, e.protected, e.value.len() as u64)
        };
        if prev == NIL {
            self.segment(protected).head = next;
        } else {
            self.slab[prev as usize].next = next;
        }
        if next == NIL {
            self.segment(protected).tail = prev;
        } else {
            self.slab[next as usize].prev = prev;
        }
        self.segment(protected).bytes -= len;
    }

    /// Links slot `idx` at the MRU end of a segment.
    fn link_front(&mut self, idx: u32, protected: bool) {
        let len = self.slab[idx as usize].value.len() as u64;
        let old_head = self.segment(protected).head;
        {
            let e = &mut self.slab[idx as usize];
            e.prev = NIL;
            e.next = old_head;
            e.protected = protected;
        }
        if old_head != NIL {
            self.slab[old_head as usize].prev = idx;
        }
        let seg = self.segment(protected);
        seg.head = idx;
        if seg.tail == NIL {
            seg.tail = idx;
        }
        seg.bytes += len;
    }

    /// Removes the LRU entry of `protected`'s segment, returning its length.
    fn evict_tail(&mut self, protected: bool) -> Option<u64> {
        let tail = self.segment(protected).tail;
        (tail != NIL).then(|| self.evict(tail))
    }

    /// Removes the entry in slot `idx`, returning its length.
    fn evict(&mut self, idx: u32) -> u64 {
        self.unlink(idx);
        let e = &mut self.slab[idx as usize];
        let len = e.value.len() as u64;
        self.map.remove(&e.key);
        e.value = Arc::from(&[][..]);
        self.free.push(idx);
        len
    }
}

/// Sharded, byte-budgeted, segmented-LRU cache of immutable byte values.
///
/// See the module docs for the design; the invariants a [`ChunkCache`]
/// maintains at every instant are:
///
/// 1. resident bytes never exceed `capacity` (enforced per shard);
/// 2. a `get` hit returns exactly the bytes previously `insert`ed under
///    that key;
/// 3. all operations are safe under arbitrary concurrency (per-shard
///    mutexes; no lock is held across user code).
pub struct ChunkCache {
    shards: Box<[Mutex<Shard>]>,
    shard_budget: u64,
    capacity: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    bytes_inserted: AtomicU64,
    bytes_evicted: AtomicU64,
}

impl ChunkCache {
    /// Creates a cache bounded by `capacity` bytes with
    /// [`DEFAULT_SHARDS`] shards.
    pub fn new(capacity: u64) -> ChunkCache {
        ChunkCache::with_shards(capacity, DEFAULT_SHARDS)
    }

    /// Creates a cache with an explicit shard count (rounded up to a power
    /// of two, minimum 1). A single shard gives globally exact LRU order —
    /// useful for deterministic tests; more shards trade exactness of the
    /// global order for parallelism.
    pub fn with_shards(capacity: u64, shards: usize) -> ChunkCache {
        let shards = shards.max(1).next_power_of_two();
        let mut v = Vec::with_capacity(shards);
        for _ in 0..shards {
            v.push(Mutex::new(Shard::new()));
        }
        ChunkCache {
            shards: v.into_boxed_slice(),
            shard_budget: capacity / shards as u64,
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            bytes_inserted: AtomicU64::new(0),
            bytes_evicted: AtomicU64::new(0),
        }
    }

    /// Total byte budget.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    fn lock_shard(&self, key: &CacheKey) -> MutexGuard<'_, Shard> {
        let idx = key.shard(self.shards.len());
        // A poisoned shard mutex means another thread panicked inside the
        // cache; its state is still structurally sound (no user code runs
        // under the lock), so keep serving.
        match self.shards[idx].lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Looks up `key`, promoting the entry on a hit.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<[u8]>> {
        let mut shard = self.lock_shard(key);
        let Some(&idx) = shard.map.get(key) else {
            drop(shard);
            self.misses.fetch_add(1, Ordering::Relaxed);
            fpc_metrics::incr(fpc_metrics::Counter::CacheMisses, 1);
            return None;
        };
        let value = Arc::clone(&shard.slab[idx as usize].value);
        // Segmented-LRU promotion: probation -> protected on first re-use;
        // already-protected entries just move to their segment's MRU end.
        shard.unlink(idx);
        shard.link_front(idx, true);
        let protected_cap = self.shard_budget * PROTECTED_TENTHS / 10;
        while shard.protected.bytes > protected_cap {
            let demote = shard.protected.tail;
            if demote == idx || demote == NIL {
                // Never demote the entry just promoted (a single oversized
                // hot entry would otherwise ping-pong forever).
                break;
            }
            shard.unlink(demote);
            shard.link_front(demote, false);
        }
        drop(shard);
        self.hits.fetch_add(1, Ordering::Relaxed);
        fpc_metrics::incr(fpc_metrics::Counter::CacheHits, 1);
        Some(value)
    }

    /// Inserts `value` under `key`.
    ///
    /// Values larger than a shard's byte budget are not cached (they would
    /// evict an entire shard for one entry). Re-inserting an existing key
    /// with the same bytes refreshes its recency but stores nothing — keys
    /// are content addresses, so that is the normal case. Re-inserting it
    /// with other bytes (a caller found the cached value unusable) evicts
    /// the old entry and stores the new value.
    pub fn insert(&self, key: CacheKey, value: Arc<[u8]>) {
        let len = value.len() as u64;
        if len > self.shard_budget || len == 0 {
            return;
        }
        let mut evicted_n = 0u64;
        let mut evicted_bytes = 0u64;
        {
            let mut shard = self.lock_shard(&key);
            if let Some(&idx) = shard.map.get(&key) {
                if shard.slab[idx as usize].value[..] == value[..] {
                    let protected = shard.slab[idx as usize].protected;
                    shard.unlink(idx);
                    shard.link_front(idx, protected);
                    return;
                }
                evicted_n += 1;
                evicted_bytes += shard.evict(idx);
            }
            while shard.bytes() + len > self.shard_budget {
                // Probationary entries go first; the protected segment is
                // only raided when probation is already empty.
                let freed = shard
                    .evict_tail(false)
                    .or_else(|| shard.evict_tail(true))
                    .expect("non-empty shard over budget has a tail to evict");
                evicted_n += 1;
                evicted_bytes += freed;
            }
            let idx = match shard.free.pop() {
                Some(idx) => {
                    shard.slab[idx as usize] = Entry {
                        key,
                        value,
                        prev: NIL,
                        next: NIL,
                        protected: false,
                    };
                    idx
                }
                None => {
                    shard.slab.push(Entry {
                        key,
                        value,
                        prev: NIL,
                        next: NIL,
                        protected: false,
                    });
                    (shard.slab.len() - 1) as u32
                }
            };
            shard.map.insert(key, idx);
            shard.link_front(idx, false);
        }
        self.insertions.fetch_add(1, Ordering::Relaxed);
        self.bytes_inserted.fetch_add(len, Ordering::Relaxed);
        fpc_metrics::incr(fpc_metrics::Counter::CacheInsertions, 1);
        fpc_metrics::incr(fpc_metrics::Counter::CacheBytesInserted, len);
        if evicted_n > 0 {
            self.evictions.fetch_add(evicted_n, Ordering::Relaxed);
            self.bytes_evicted
                .fetch_add(evicted_bytes, Ordering::Relaxed);
            fpc_metrics::incr(fpc_metrics::Counter::CacheEvictions, evicted_n);
            fpc_metrics::incr(fpc_metrics::Counter::CacheBytesEvicted, evicted_bytes);
        }
    }

    /// Bytes currently resident across all shards.
    pub fn resident_bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| match s.lock() {
                Ok(g) => g.bytes(),
                Err(p) => p.into_inner().bytes(),
            })
            .sum()
    }

    /// Snapshot of the operation counters and residency.
    pub fn stats(&self) -> CacheStats {
        let mut resident_bytes = 0;
        let mut resident_entries = 0;
        for s in self.shards.iter() {
            let g = match s.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            resident_bytes += g.bytes();
            resident_entries += g.map.len() as u64;
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes_inserted: self.bytes_inserted.load(Ordering::Relaxed),
            bytes_evicted: self.bytes_evicted.load(Ordering::Relaxed),
            resident_bytes,
            resident_entries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> CacheKey {
        CacheKey::new(&n.to_le_bytes(), 0)
    }

    fn val(n: u64, len: usize) -> Arc<[u8]> {
        let mut v = vec![0u8; len];
        for (i, b) in v.iter_mut().enumerate() {
            *b = (n as u8).wrapping_add(i as u8);
        }
        Arc::from(v.into_boxed_slice())
    }

    #[test]
    fn keys_differ_by_bytes_and_context() {
        let a = CacheKey::new(b"chunk", 1);
        assert_eq!(a, CacheKey::new(b"chunk", 1));
        assert_ne!(a, CacheKey::new(b"chunk", 2));
        assert_ne!(a, CacheKey::new(b"chunk2", 1));
        let sum = fpc_container::checksum::frame_checksum(b"chunk");
        let b = CacheKey::with_checksum(b"chunk", sum, 1);
        assert_eq!(b, CacheKey::with_checksum(b"chunk", sum, 1));
        assert_ne!(b, CacheKey::with_checksum(b"chunk", sum, 2));
        assert_ne!(b.hi, sum, "the high half is mixed, not the bare checksum");
        assert_ne!(b, a);
    }

    #[test]
    fn hit_returns_inserted_bytes() {
        let cache = ChunkCache::new(1 << 20);
        let v = val(7, 100);
        cache.insert(key(7), Arc::clone(&v));
        assert_eq!(cache.get(&key(7)).as_deref(), Some(&v[..]));
        assert_eq!(cache.get(&key(8)), None);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
        assert_eq!(s.resident_bytes, 100);
    }

    #[test]
    fn eviction_is_lru_ordered() {
        // One shard => globally exact order. Budget holds two 100-byte
        // entries; the third insert must evict the least recently used.
        let cache = ChunkCache::with_shards(200, 1);
        cache.insert(key(1), val(1, 100));
        cache.insert(key(2), val(2, 100));
        cache.insert(key(3), val(3, 100)); // evicts 1 (LRU)
        assert!(cache.get(&key(1)).is_none());
        assert!(cache.get(&key(2)).is_some());
        // 2 is now protected; inserting 4 evicts 3 (probation LRU), not 2.
        cache.insert(key(4), val(4, 100));
        assert!(cache.get(&key(3)).is_none());
        assert!(cache.get(&key(2)).is_some());
        let s = cache.stats();
        assert_eq!(s.evictions, 2);
        assert_eq!(s.bytes_evicted, 200);
        assert_eq!(s.resident_bytes, 200);
    }

    #[test]
    fn protected_hot_set_survives_scan_flood() {
        let cache = ChunkCache::with_shards(1000, 1);
        // Establish a hot entry (inserted, then hit => protected).
        cache.insert(key(0), val(0, 100));
        assert!(cache.get(&key(0)).is_some());
        // Flood with one-hit wonders worth several budgets.
        for n in 1..100 {
            cache.insert(key(n), val(n, 100));
        }
        assert!(
            cache.get(&key(0)).is_some(),
            "protected entry evicted by a cold scan"
        );
    }

    #[test]
    fn oversized_and_empty_values_are_not_cached() {
        let cache = ChunkCache::with_shards(1024, 1);
        cache.insert(key(1), val(1, 2048)); // > shard budget
        cache.insert(key(2), Arc::from(&[][..]));
        assert_eq!(cache.stats().insertions, 0);
        assert_eq!(cache.resident_bytes(), 0);
    }

    #[test]
    fn duplicate_insert_stores_nothing() {
        let cache = ChunkCache::with_shards(1024, 1);
        cache.insert(key(1), val(1, 64));
        cache.insert(key(1), val(1, 64));
        let s = cache.stats();
        assert_eq!(s.insertions, 1);
        assert_eq!(s.resident_bytes, 64);
        assert_eq!(s.resident_entries, 1);
    }

    #[test]
    fn insert_with_other_bytes_replaces_the_value() {
        // Two 400-byte entries in a 1 KiB shard: key 1 shrinks to 300
        // bytes (one eviction), then grows to 700, which evicts itself
        // and then key 2 to make room.
        let cache = ChunkCache::with_shards(1024, 1);
        cache.insert(key(1), val(1, 400));
        cache.insert(key(2), val(2, 400));
        for (len, resident) in [(300, 700), (700, 700)] {
            cache.insert(key(1), val(1, len));
            assert_eq!(cache.get(&key(1)).map(|v| v.len()), Some(len));
            assert_eq!(cache.resident_bytes(), resident, "after {len}");
        }
        assert!(cache.get(&key(2)).is_none());
        let s = cache.stats();
        assert_eq!((s.insertions, s.evictions, s.resident_entries), (4, 3, 1));
        assert_eq!(s.resident_bytes, s.bytes_inserted - s.bytes_evicted);
    }

    #[test]
    fn capacity_never_exceeded_property() {
        // Randomized op mix over a small cache; the byte budget must hold
        // after every single operation, and hits must return the exact
        // bytes inserted for the key.
        let mut rng = fpc_prng::Rng::seed_from_u64(0xCAC4E);
        for shards in [1usize, 4] {
            let capacity = 8 * 1024;
            let cache = ChunkCache::with_shards(capacity as u64, shards);
            for _ in 0..5000 {
                let n = rng.next_u64() % 64;
                let len = 1 + (rng.next_u64() % 600) as usize;
                if rng.next_u64().is_multiple_of(3) {
                    if let Some(v) = cache.get(&key(n)) {
                        // Content-addressed: length may differ per insert n,
                        // but the *prefix pattern* is keyed by n.
                        assert_eq!(v[0], n as u8);
                    }
                } else {
                    cache.insert(key(n), val(n, len));
                }
                assert!(
                    cache.resident_bytes() <= capacity as u64,
                    "budget exceeded with {shards} shards"
                );
            }
            let s = cache.stats();
            assert_eq!(
                s.resident_bytes,
                s.bytes_inserted - s.bytes_evicted,
                "byte accounting drifted"
            );
        }
    }

    #[test]
    fn concurrent_hits_are_byte_identical_under_pool() {
        // Hammer one cache from the worker pool: every index derives a
        // deterministic value from its key, looks it up, inserts it on a
        // miss, and checks the bytes that come back. Any cross-key mixup
        // or torn state is a byte mismatch or a panic.
        let cache = ChunkCache::new(64 * 1024);
        let results = fpc_pool::run_indexed(512, 8, |i| {
            let n = (i % 32) as u64;
            let expect = val(n, 128 + (n as usize) * 3);
            let got = cache.get(&key(n)).unwrap_or_else(|| {
                cache.insert(key(n), Arc::clone(&expect));
                Arc::clone(&expect)
            });
            got[..] == expect[..]
        });
        assert!(results.into_iter().all(|ok| ok));
        let s = cache.stats();
        assert!(
            s.hits > 0,
            "expected warm hits across 512 lookups of 32 keys"
        );
        assert!(s.resident_bytes <= 64 * 1024);
    }
}
