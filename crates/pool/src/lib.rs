//! Persistent work-claiming executor shared by every parallel stage.
//!
//! The paper's CPU path owes its throughput to dynamically assigning chunks
//! to threads (§3). The seed implementation reproduced the *scheduling*
//! faithfully but paid for it structurally: every compress/decompress call
//! spawned fresh OS threads (`std::thread::scope`) and allocated a
//! `Mutex<Option<T>>` per chunk. On many-small-chunk workloads — exactly
//! the regime FCBench-style throughput comparisons measure — that overhead
//! is charged directly against SPspeed/DPspeed numbers.
//!
//! This crate replaces the per-call machinery with a process-wide pool:
//!
//! * **Lazy persistent workers.** One set of OS threads is spawned on first
//!   use (one per available core) and parked on a condvar between jobs.
//!   Submitting a job is a queue push + notify, not N `clone(2)` calls.
//! * **Batched index claiming.** Workers claim `K` indices per
//!   `fetch_add` (K scales with `count / threads`), cutting cache-line
//!   contention on the shared counter while keeping the dynamic load
//!   balance the paper's OpenMP `schedule(dynamic)` provides.
//! * **Caller participation.** The submitting thread always executes
//!   batches itself, so a job completes even when every pool worker is
//!   busy — which is also what makes nested/re-entrant use deadlock-free:
//!   a worker that submits a sub-job drains that sub-job on its own thread
//!   if no peer is free.
//! * **Deterministic output.** Results land in per-index slots, so the
//!   collected `Vec` is in index order regardless of which worker ran
//!   which batch; output bytes never depend on the thread count.
//! * **Panic propagation without deadlock.** A panic inside the closure is
//!   caught, remaining indices are drained without executing, and the
//!   first payload is re-thrown on the submitting thread after every
//!   in-flight batch has retired.
//! * **Per-worker scratch arenas.** [`with_scratch`] hands out a reusable
//!   thread-local byte buffer so per-chunk encoders and decoders stop
//!   allocating a fresh `Vec` per chunk.
//! * **In-place output slots.** [`fill_slots`] lets each worker write its
//!   part of one output buffer directly, at an offset fixed by its index,
//!   instead of returning a `Vec` the caller then copies.
//! * **In-place variable-length spans.** [`fill_spans`] does the same for
//!   outputs whose lengths are known only after the work: each group's
//!   offset comes from a decoupled look-back ([`LookBack`]) over earlier
//!   groups' lengths (the paper's write-position chain, §3.1).
//!
//! # Closure contract
//!
//! `f` must be a pure function of its index (plus captured shared state):
//! it may be called from any worker in any order. If `f` blocks waiting
//! for *another index* of the same job to run (the decoupled look-back
//! scan does, on strictly lower indices), that is safe for lower indices —
//! batches are claimed monotonically and processed in ascending order —
//! but a panic in such a job may hang it, because indices after a panic
//! are skipped without executing.

use std::cell::{RefCell, UnsafeCell};
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Runs `f(0..count)` across up to `threads` workers (0 = all cores) and
/// returns the results in index order.
///
/// `threads` is an upper bound: the calling thread always participates,
/// and at most `threads - 1` pool workers join it. `threads == 1` (or a
/// single-element job) runs inline on the caller with no synchronization.
///
/// # Panics
///
/// If `f` panics for any index, the first panic payload is re-thrown on
/// the calling thread once all in-flight work has retired.
pub fn run_indexed<T, F>(count: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = effective_threads(threads, count);
    if threads <= 1 || count <= 1 {
        return (0..count).map(f).collect();
    }
    let mut slots: Vec<Slot<T>> = Vec::with_capacity(count);
    slots.resize_with(count, || Slot(UnsafeCell::new(None)));
    {
        let slots = &slots[..];
        execute(count, threads, &|i| {
            let value = f(i);
            // Exclusive access: the claim protocol hands each index to
            // exactly one worker, and the submitter reads only after every
            // batch has retired (release/acquire via `pending` + latch).
            unsafe { *slots[i].0.get() = Some(value) };
        });
    }
    slots
        .into_iter()
        .map(|s| {
            s.0.into_inner()
                .expect("claim protocol runs every index exactly once")
        })
        .collect()
}

/// Runs `f(0..count)` for side effects only — no per-index result slots.
///
/// Same scheduling, participation, and panic semantics as [`run_indexed`];
/// used by stages that publish through their own shared state (the
/// decoupled look-back scan, the union-find FCM decode) where a
/// `Vec<()>` of slots would be pure overhead.
pub fn for_each_index<F>(count: usize, threads: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    let threads = effective_threads(threads, count);
    if threads <= 1 || count <= 1 {
        for i in 0..count {
            f(i);
        }
        return;
    }
    execute(count, threads, &f);
}

/// Number of workers that will actually run a job of `count` items when
/// `requested` threads are asked for (0 = all available cores).
///
/// Oversubscription is clamped: the pool only ever has one worker per
/// available core, so `requested > available_parallelism` would merely
/// shrink the claim batches (more counter contention) without adding
/// concurrency — callers asking for 64 threads on a 4-core box get 4.
///
/// The clamp has a floor of 2 for explicit multi-thread requests: an
/// explicit `threads >= 2` always reaches the parallel path, even on a
/// single-core host. The jobs are deterministic and CPU-bound, so two
/// workers on one core are merely slow, and single-core CI runners rely
/// on `--threads 2` to exercise the pool machinery at all.
pub fn effective_threads(requested: usize, count: usize) -> usize {
    let available = available_cores();
    let t = if requested == 0 {
        available
    } else {
        requested.min(available.max(2))
    };
    t.min(count.max(1))
}

/// `available_parallelism`, read once: on Linux each query reads cgroup
/// files (tens of microseconds), and the pool's worker count is fixed at
/// first use anyway.
fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Cap beyond which a thread's scratch arena is shrunk after use, so one
/// outsized chunk cannot pin megabytes per worker for the process lifetime.
const SCRATCH_RETAIN: usize = 1 << 20;

thread_local! {
    static SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Hands `f` this thread's reusable scratch buffer, cleared but with its
/// capacity retained across calls.
///
/// Chunk encoders use this instead of allocating a fresh output `Vec` per
/// chunk: the arena warms up to the working-set size once per worker and
/// every later chunk encodes allocation-free. Re-entrant calls (an encoder
/// inside an encoder) fall back to a fresh buffer rather than aliasing.
pub fn with_scratch<R>(f: impl FnOnce(&mut Vec<u8>) -> R) -> R {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut buf) => {
            if fpc_metrics::ENABLED {
                let counter = if buf.capacity() > 0 {
                    fpc_metrics::Counter::PoolScratchHits
                } else {
                    fpc_metrics::Counter::PoolScratchMisses
                };
                fpc_metrics::incr(counter, 1);
            }
            buf.clear();
            let out = f(&mut buf);
            if buf.capacity() > SCRATCH_RETAIN {
                buf.truncate(0);
                buf.shrink_to(SCRATCH_RETAIN);
            }
            out
        }
        Err(_) => f(&mut Vec::new()),
    })
}

/// Per-index result slot. `Sync` is sound because the claim protocol gives
/// each index to exactly one worker and the submitter only reads after the
/// completion latch (see `execute`).
struct Slot<T>(UnsafeCell<Option<T>>);

unsafe impl<T: Send> Sync for Slot<T> {}

/// Grows `out` by `len` bytes that workers write in place, each into its
/// own disjoint slot of the vector's spare capacity.
///
/// The new bytes are cut at every multiple of `width`, counted as if the
/// first new byte sat `phase` bytes into a `width`-byte cell
/// (`phase < width`): slot 0 is the rest of that cell, later slots are
/// whole cells, and the last may be short. `fill(j, slot)` runs once per
/// slot, on whichever worker claims `j`, and should [`OutSlot::fill`] it;
/// a slot it leaves unfilled (because it returned an error, say) reads as
/// zeros. Either way a slot is first touched by the worker that owns it,
/// so page faults and copies run in parallel and the caller never makes a
/// pass over the new bytes. `out` grows by exactly `len` (no amortized
/// over-allocation).
///
/// Returns every slot's result in slot order. Scheduling and panics are
/// as for [`run_indexed`]; after a panic `out` keeps its old length.
///
/// # Panics
///
/// If `phase >= width`, and as for [`run_indexed`].
pub fn fill_slots<E, F>(
    out: &mut Vec<u8>,
    phase: usize,
    width: usize,
    len: usize,
    threads: usize,
    fill: F,
) -> Vec<Result<(), E>>
where
    E: Send,
    F: Fn(usize, &mut OutSlot<'_>) -> Result<(), E> + Sync,
{
    assert!(phase < width, "phase {phase} must be below width {width}");
    if len == 0 {
        return Vec::new();
    }
    // Slot `j` spans `edge(j)..edge(j + 1)`. For `0 < j < count`,
    // `j * width <= (count - 1) * width < phase + len`, so no step
    // overflows and the edges rise strictly from 0 to `len`.
    let count = phase
        .checked_add(len)
        .expect("slot span fits in usize")
        .div_ceil(width);
    let edge = |j: usize| match j {
        0 => 0,
        j if j == count => len,
        j => j * width - phase,
    };
    out.reserve_exact(len);
    let old_len = out.len();
    let spare = SpareBytes(out.as_mut_ptr().wrapping_add(old_len));
    let results = run_indexed(count, threads, |j| {
        let (start, end) = (edge(j), edge(j + 1));
        let mut slot = OutSlot {
            // SAFETY: `start < end <= len` and `reserve_exact` made room
            // for `len` bytes past `old_len`, so the offset stays inside
            // the allocation.
            ptr: unsafe { spare.at(start) },
            len: end - start,
            written: 0,
            _out: PhantomData,
        };
        let result = fill(j, &mut slot);
        slot.zero_rest();
        result
    });
    // SAFETY: `run_indexed` returned (it re-throws any panic before this
    // point), so every slot's closure ran and every slot was written by
    // `OutSlot` or zeroed above; the slots tile `old_len..old_len + len`
    // exactly, so every new byte is initialized.
    unsafe { out.set_len(old_len + len) };
    results
}

/// Grows `out` by the variable-length outputs of `items` items, in item
/// order, each written in place into spare capacity by the worker that
/// produced it.
///
/// `0..items` is cut into contiguous groups, one per claim batch of
/// [`run_indexed`]: `4 × effective_threads(threads, items)` of them, or
/// one per item when there are fewer items. A worker therefore holds one
/// group at a time and never waits on a group later in its own batch.
/// `group(range, span)` runs once per group, on whichever worker claims
/// it: it prepares the group's bytes (in its [`with_scratch`] arena, say),
/// calls [`Span::place`] with their length and writes them into the
/// returned [`OutSlot`] while they are still in cache. `place` publishes
/// the length at once and then looks back over earlier groups until it
/// knows their total, so no group waits for an earlier one to finish
/// writing. Bytes a slot leaves unwritten read as zeros; a group that
/// never places adds no bytes.
///
/// The spans go into the spare capacity `out` already has, so the caller
/// reserves for the worst case and `out` never reallocates. It grows by
/// the sum of the placed lengths.
///
/// Returns the error of the lowest-index group that failed. Scheduling
/// is as for [`run_indexed`]; after a panic `out` keeps its old length.
///
/// # Panics
///
/// If the placed lengths add up to more than the spare capacity, and as
/// for [`run_indexed`].
pub fn fill_spans<E, F>(out: &mut Vec<u8>, items: usize, threads: usize, group: F) -> Result<(), E>
where
    E: Send,
    F: Fn(Range<usize>, &mut Span<'_>) -> Result<(), E> + Sync,
{
    let groups = (4 * effective_threads(threads, items)).min(items);
    if groups == 0 {
        return Ok(());
    }
    let (per, extra) = (items / groups, items % groups);
    let first = |g: usize| g * per + g.min(extra);
    let (old_len, spare_len) = (out.len(), out.capacity() - out.len());
    let spare = SpareBytes(out.as_mut_ptr().wrapping_add(old_len));
    let chain = LookBack::new(groups);
    let results = run_indexed(groups, threads, |g| {
        let mut span = Span {
            index: g,
            chain: &chain,
            spare: &spare,
            spare_len,
            slot: None,
        };
        let result = group(first(g)..first(g + 1), &mut span);
        span.placed().zero_rest();
        result
    });
    // Every group placed (`Span::placed`), so the last group's prefix is
    // the total, and `place` checked it against the spare capacity.
    let total = chain.items[groups - 1].prefix.load(Ordering::Relaxed);
    // SAFETY: `run_indexed` returned, so every group's closure ran and
    // its slot was written through `OutSlot` or zeroed above. The slots
    // sit at the exclusive prefix sums of their lengths, so they tile
    // `old_len..old_len + total` exactly and every new byte is
    // initialized; `total` fits the spare capacity (checked by `place`).
    unsafe { out.set_len(old_len + total) };
    results.into_iter().collect()
}

const AGGREGATE: u8 = 1;
const PREFIX: u8 = 2;

/// One item's published state in a [`LookBack`]: 0 until it publishes,
/// then `AGGREGATE` (its own length is known) and `PREFIX` (the total
/// through it is known).
#[derive(Default)]
struct Published {
    state: AtomicU8,
    aggregate: AtomicUsize,
    prefix: AtomicUsize,
}

/// Merrill and Garland's decoupled look-back, the single-pass exclusive
/// prefix sum the paper uses to pass compressed-chunk write positions
/// between thread blocks (§3.1). [`fill_spans`] places its groups with it,
/// and gpu-sim's look-back scan runs on it.
///
/// Each of `count` items publishes its length once, from whichever pool
/// worker runs it, and learns its offset: the total length of the items
/// before it. An item publishes its own length first, so the items after
/// it can sum past it before its offset is known.
pub struct LookBack {
    items: Vec<Published>,
    /// Set when a group panics before it publishes, so later groups stop
    /// waiting for it (the pool skips the indices after a panic).
    abandoned: AtomicBool,
}

impl LookBack {
    /// A chain of `count` items, none published.
    pub fn new(count: usize) -> LookBack {
        LookBack {
            items: (0..count).map(|_| Published::default()).collect(),
            abandoned: AtomicBool::new(false),
        }
    }

    /// Publishes item `index`'s length and returns its offset, the total
    /// length of items `0..index` (saturating). Waits only on lower
    /// indices, spinning briefly and then yielding. Call it from the pool
    /// job that runs every item once: claims are monotonic and a worker
    /// runs its batch in ascending order, so each awaited item is
    /// published already or runs on a live worker.
    ///
    /// Each `Release` store of a `state` publishes the `aggregate` or
    /// `prefix` stored before it; the `Acquire` load that reads the state
    /// pairs with it, so the relaxed value loads after it see them.
    ///
    /// # Panics
    ///
    /// If `index` is out of range, or an earlier [`fill_spans`] group
    /// panicked before it published.
    pub fn publish(&self, index: usize, len: usize) -> usize {
        let me = &self.items[index];
        me.aggregate.store(len, Ordering::Relaxed);
        me.state.store(AGGREGATE, Ordering::Release);
        let mut offset = 0usize;
        'walk: for earlier in self.items[..index].iter().rev() {
            let mut spins = 0u32;
            loop {
                match earlier.state.load(Ordering::Acquire) {
                    PREFIX => {
                        offset = offset.saturating_add(earlier.prefix.load(Ordering::Relaxed));
                        break 'walk;
                    }
                    AGGREGATE => {
                        offset = offset.saturating_add(earlier.aggregate.load(Ordering::Relaxed));
                        break;
                    }
                    _ if self.abandoned.load(Ordering::Relaxed) => {
                        panic!("an earlier span's group panicked")
                    }
                    _ if spins < 128 => {
                        spins += 1;
                        std::hint::spin_loop();
                    }
                    _ => std::thread::yield_now(),
                }
            }
        }
        me.prefix
            .store(offset.saturating_add(len), Ordering::Relaxed);
        me.state.store(PREFIX, Ordering::Release);
        offset
    }
}

/// One group's claim on a [`fill_spans`] output.
pub struct Span<'a> {
    index: usize,
    chain: &'a LookBack,
    spare: &'a SpareBytes,
    spare_len: usize,
    slot: Option<OutSlot<'a>>,
}

impl<'a> Span<'a> {
    /// Publishes that this group's output is `len` bytes, waits until the
    /// groups before it have published theirs, and returns the group's
    /// window of the output: `len` bytes right after theirs.
    ///
    /// # Panics
    ///
    /// If called twice, or if the output would run past the spare
    /// capacity.
    pub fn place(&mut self, len: usize) -> &mut OutSlot<'a> {
        assert!(self.slot.is_none(), "a group places its span once");
        let offset = self.chain.publish(self.index, len);
        assert!(
            offset.saturating_add(len) <= self.spare_len,
            "spans overrun the reserved capacity"
        );
        self.slot.insert(OutSlot {
            // SAFETY: `offset + len <= spare_len`, checked above, so the
            // offset stays inside the allocation.
            ptr: unsafe { self.spare.at(offset) },
            len,
            written: 0,
            _out: PhantomData,
        })
    }

    /// The placed slot, placing an empty one if the group never placed.
    fn placed(&mut self) -> &mut OutSlot<'a> {
        if self.slot.is_none() {
            self.place(0);
        }
        self.slot.as_mut().expect("placed above")
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.chain.abandoned.store(true, Ordering::Relaxed);
        }
    }
}

/// The spare capacity [`fill_slots`] and [`fill_spans`] hand out.
struct SpareBytes(*mut u8);

// SAFETY: workers only derive slot pointers from the one field. The slot
// edges in `fill_slots`, and the look-back prefix sums in `fill_spans`,
// give every index a disjoint byte range, each claimed by exactly one
// worker (the claim protocol of `run_indexed`); `out` stays mutably
// borrowed by the caller, so nothing else reads or writes the spare bytes
// until the job retires.
unsafe impl Sync for SpareBytes {}

impl SpareBytes {
    /// The byte `offset` past the start of the spare capacity.
    ///
    /// # Safety
    ///
    /// `offset` must not exceed the reserved spare length.
    unsafe fn at(&self, offset: usize) -> *mut u8 {
        self.0.add(offset)
    }
}

/// One worker's disjoint, not yet initialized window of a [`fill_slots`]
/// or [`fill_spans`] output, written front to back.
pub struct OutSlot<'a> {
    ptr: *mut u8,
    len: usize,
    /// Bytes written so far, from the front.
    written: usize,
    _out: PhantomData<&'a mut [u8]>,
}

impl OutSlot<'_> {
    /// Bytes this slot holds.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the slot holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Writes the whole slot.
    ///
    /// # Panics
    ///
    /// If `bytes.len() != self.len()`.
    pub fn fill(&mut self, bytes: &[u8]) {
        assert_eq!(bytes.len(), self.len, "slot length");
        self.written = 0;
        self.push(bytes);
    }

    /// Zero-fills the whole slot and hands it out as a byte slice, for a
    /// caller that decodes into it in place. Bytes it leaves alone stay
    /// zero.
    pub fn zeroed(&mut self) -> &mut [u8] {
        self.written = 0;
        self.zero_rest();
        // SAFETY: `ptr..ptr + len` lies in `out`'s spare capacity, belongs
        // to this slot alone (see `SpareBytes`) and was just initialized;
        // the slice borrows the slot mutably, so no other write through it
        // can alias the slice while it lives.
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.len) }
    }

    /// Writes `bytes` right after what the slot holds so far.
    ///
    /// # Panics
    ///
    /// If they do not fit in the rest of the slot.
    pub fn push(&mut self, bytes: &[u8]) {
        assert!(bytes.len() <= self.len - self.written, "slot overflow");
        // SAFETY: `ptr..ptr + len` lies in `out`'s spare capacity and
        // belongs to this slot alone (see `SpareBytes`), and the assert
        // keeps the write inside it. `bytes` cannot overlap it: the caller
        // holds no reference into spare capacity, and other slots are only
        // reachable through their own `OutSlot`.
        unsafe {
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), self.ptr.add(self.written), bytes.len())
        };
        self.written += bytes.len();
    }

    /// Zero-fills the bytes no write reached.
    fn zero_rest(&mut self) {
        // SAFETY: as for `push`; `written <= len`.
        unsafe { std::ptr::write_bytes(self.ptr.add(self.written), 0, self.len - self.written) };
        self.written = self.len;
    }
}

/// Heap-shared state of one job. Lives in an `Arc` so a worker's final
/// touch (the completion latch) is always on memory it co-owns, never on
/// the submitter's stack.
struct JobCore {
    /// Next unclaimed index; claims advance by `batch`.
    next: AtomicUsize,
    count: usize,
    /// Indices claimed per `fetch_add` — the contention/balance dial.
    batch: usize,
    /// Indices not yet retired; 0 ⇒ job complete.
    pending: AtomicUsize,
    /// Pool workers still allowed to join (the submitter needs none).
    permits: AtomicIsize,
    /// Set on the first panic; later indices are drained without running.
    poisoned: AtomicBool,
    /// First panic payload, re-thrown by the submitter.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Completion latch.
    done: Mutex<bool>,
    done_cv: Condvar,
    /// Submit-to-first-claim stopwatch (zero-sized without `metrics`).
    queue_wait: fpc_metrics::Stopwatch,
    /// Ensures the queue wait is recorded by exactly one claimant.
    wait_recorded: AtomicBool,
}

impl JobCore {
    fn new(count: usize, threads: usize) -> Self {
        JobCore {
            next: AtomicUsize::new(0),
            count,
            batch: (count / (threads * 4)).clamp(1, 64),
            pending: AtomicUsize::new(count),
            permits: AtomicIsize::new(threads as isize - 1),
            poisoned: AtomicBool::new(false),
            panic: Mutex::new(None),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
            queue_wait: fpc_metrics::Stopwatch::start(),
            wait_recorded: AtomicBool::new(false),
        }
    }

    /// Called under the pool queue lock: reserve a helper seat if the job
    /// still has unclaimed work and spare permits.
    fn try_take_permit(&self) -> bool {
        if self.next.load(Ordering::Relaxed) >= self.count {
            return false;
        }
        if self.permits.fetch_sub(1, Ordering::Relaxed) > 0 {
            true
        } else {
            self.permits.fetch_add(1, Ordering::Relaxed);
            false
        }
    }

    fn poison(&self, payload: Box<dyn std::any::Any + Send>) {
        let mut slot = lock(&self.panic);
        if slot.is_none() {
            *slot = Some(payload);
        }
        self.poisoned.store(true, Ordering::Relaxed);
    }

    /// Retires `n` indices; the worker that retires the last one trips the
    /// latch. `AcqRel` chains every worker's slot writes into the final
    /// decrement, so the submitter's post-latch reads see all results.
    fn complete(&self, n: usize) {
        if self.pending.fetch_sub(n, Ordering::AcqRel) == n {
            *lock(&self.done) = true;
            self.done_cv.notify_all();
        }
    }

    fn wait(&self) {
        let mut done = lock(&self.done);
        while !*done {
            done = self
                .done_cv
                .wait(done)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Borrowed job body, living on the submitter's stack. Holds the fat
/// `dyn Fn` pointer behind one thin pointer so `JobHandle` stays `'static`
/// after type erasure.
struct JobData<'a> {
    body: &'a (dyn Fn(usize) + Sync),
}

/// Queue entry cloned by each joining worker.
struct JobHandle {
    core: Arc<JobCore>,
    /// Points at a `JobData` on the submitting thread's stack. Dereferenced
    /// only between a successful batch claim and that batch's `complete`
    /// call — a window in which the submitter is provably still blocked in
    /// `JobCore::wait`, keeping the stack frame alive.
    data: *const JobData<'static>,
}

// SAFETY: the raw pointer is only dereferenced under the claim protocol
// described on the field; `JobCore` is `Send + Sync` by construction.
unsafe impl Send for JobHandle {}

impl Clone for JobHandle {
    fn clone(&self) -> Self {
        JobHandle {
            core: Arc::clone(&self.core),
            data: self.data,
        }
    }
}

/// The claim-execute loop every participant (submitter and pool workers)
/// runs until the job's index space is drained.
///
/// SAFETY (`data`): see `JobHandle::data`. The dereference happens only
/// after `next.fetch_add` returned an in-range start, i.e. while this
/// worker holds ≥1 unretired index, so `pending > 0` and the submitter
/// cannot have returned.
unsafe fn drive(core: &JobCore, data: *const JobData<'static>, is_worker: bool) {
    loop {
        let start = core.next.fetch_add(core.batch, Ordering::Relaxed);
        if start >= core.count {
            break;
        }
        // Fault hook: delaying a claimed batch perturbs the dynamic
        // schedule (stealing, completion order) without touching data.
        if let Some(delay) = fpc_faults::pool_delay(start as u64) {
            std::thread::sleep(delay);
        }
        if fpc_metrics::ENABLED {
            if !core.wait_recorded.swap(true, Ordering::Relaxed) {
                fpc_metrics::incr(
                    fpc_metrics::Counter::PoolQueueWaitNanos,
                    core.queue_wait.elapsed_nanos(),
                );
            }
            fpc_metrics::incr(fpc_metrics::Counter::PoolBatches, 1);
            if is_worker {
                fpc_metrics::incr(fpc_metrics::Counter::PoolWorkerBatches, 1);
            }
        }
        let end = (start + core.batch).min(core.count);
        let body = (*data).body;
        for i in start..end {
            if !core.poisoned.load(Ordering::Relaxed) {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(i))) {
                    core.poison(payload);
                }
            }
        }
        core.complete(end - start);
    }
}

fn execute(count: usize, threads: usize, body: &(dyn Fn(usize) + Sync)) {
    debug_assert!(count > 1 && threads > 1);
    fpc_metrics::incr(fpc_metrics::Counter::PoolJobs, 1);
    let core = Arc::new(JobCore::new(count, threads));
    let data = JobData { body };
    // Erase the borrow: pointer validity is governed by the claim protocol,
    // not this (fabricated) 'static lifetime.
    let data_ptr: *const JobData<'static> =
        (&data as *const JobData<'_>).cast::<JobData<'static>>();
    let pool = Pool::global();
    pool.submit(JobHandle {
        core: Arc::clone(&core),
        data: data_ptr,
    });
    // The submitter is always one of the workers: the job finishes even if
    // every pool thread is busy (and nested submissions cannot deadlock).
    unsafe { drive(&core, data_ptr, false) };
    core.wait();
    pool.unsubmit(&core);
    let payload = lock(&core.panic).take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

struct Pool {
    queue: Mutex<VecDeque<JobHandle>>,
    available: Condvar,
}

impl Pool {
    /// The process-wide pool, spawning one worker per core on first use.
    /// Workers are detached; they park on the condvar between jobs and die
    /// with the process. (The freshly spawned workers call `global()`
    /// themselves and block on the `OnceLock` until this initializer
    /// returns — that is the normal `get_or_init` contention path.)
    fn global() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| {
            for id in 0..available_cores() {
                std::thread::Builder::new()
                    .name(format!("fpc-pool-{id}"))
                    .spawn(|| worker_loop(Pool::global()))
                    .expect("spawning pool worker");
            }
            Pool {
                queue: Mutex::new(VecDeque::new()),
                available: Condvar::new(),
            }
        })
    }

    fn submit(&self, handle: JobHandle) {
        lock(&self.queue).push_back(handle);
        // Every idle worker may be able to help.
        self.available.notify_all();
    }

    fn unsubmit(&self, core: &Arc<JobCore>) {
        lock(&self.queue).retain(|job| !Arc::ptr_eq(&job.core, core));
    }
}

fn worker_loop(pool: &'static Pool) {
    let mut queue = lock(&pool.queue);
    loop {
        // Oldest job first; skip jobs that are drained or fully staffed.
        let job = queue.iter().find(|job| job.core.try_take_permit()).cloned();
        match job {
            Some(job) => {
                drop(queue);
                unsafe { drive(&job.core, job.data, true) };
                queue = lock(&pool.queue);
            }
            None => {
                queue = pool
                    .available
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn effective_threads_clamps() {
        let available = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        // 0 = all cores.
        assert_eq!(effective_threads(0, usize::MAX), available);
        // Explicit single thread stays single.
        assert_eq!(effective_threads(1, usize::MAX), 1);
        // Oversubscribed requests clamp to the available parallelism,
        // with a floor of 2 so explicit multi-thread requests still take
        // the parallel path on a single-core host.
        assert_eq!(
            effective_threads(available * 16, usize::MAX),
            available.max(2)
        );
        assert_eq!(effective_threads(usize::MAX, usize::MAX), available.max(2));
        assert_eq!(effective_threads(2, usize::MAX), 2);
        // The item count still bounds the worker count...
        assert_eq!(effective_threads(0, 1), 1);
        assert_eq!(effective_threads(8, 2), 2);
        // ...and an empty job still reports one worker (the caller).
        assert_eq!(effective_threads(4, 0), 1);
    }

    #[test]
    fn zero_and_one_count() {
        let out: Vec<u32> = run_indexed(0, 4, |_| unreachable!());
        assert!(out.is_empty());
        let out = run_indexed(1, 8, |i| i + 7);
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn order_preserved_under_contention() {
        for threads in [1usize, 2, 3, 8, 0] {
            let out = run_indexed(500, threads, |i| i * 3);
            assert_eq!(out, (0..500).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn each_index_claimed_once() {
        let calls = Mutex::new(HashSet::new());
        run_indexed(200, 8, |i| {
            assert!(lock(&calls).insert(i), "index {i} claimed twice");
        });
        assert_eq!(lock(&calls).len(), 200);
    }

    #[test]
    fn for_each_index_covers_all() {
        for threads in [0usize, 1, 4, 32] {
            let sum = AtomicU64::new(0);
            for_each_index(300, threads, |i| {
                sum.fetch_add(i as u64, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), 300 * 299 / 2);
        }
    }

    #[test]
    fn load_is_dynamic() {
        let total = AtomicU64::new(0);
        run_indexed(64, 4, |i| {
            let work = if i % 16 == 0 { 100_000 } else { 10 };
            let mut acc = 0u64;
            for k in 0..work {
                acc = acc.wrapping_add(k);
            }
            total.fetch_add(acc.min(1), Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 64);
    }

    /// A slot handed out through `OutSlot::zeroed` keeps the writes made
    /// into the slice and zeros everywhere else; small enough for Miri.
    #[test]
    fn zeroed_slots_take_in_place_writes() {
        let mut out = vec![9u8];
        let results = fill_slots(&mut out, 0, 4, 10, 2, |j, slot| {
            slot.zeroed()[0] = j as u8 + 1;
            Ok::<(), ()>(())
        });
        assert_eq!(results.len(), 3);
        assert_eq!(out, [9, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0]);
    }

    /// Small enough to run under Miri, which checks the spare-capacity
    /// writes for out-of-bounds and uninitialized reads.
    #[test]
    fn fill_slots_tiles_spare_capacity() {
        for threads in [1usize, 2, 3] {
            for (phase, width, len) in [(0usize, 4usize, 16usize), (3, 4, 10), (0, 5, 3), (2, 8, 5)]
            {
                let mut out = vec![0xAA; 3];
                // Slot 1 fails without writing: it must read as zeros.
                let results = fill_slots(&mut out, phase, width, len, threads, |j, slot| {
                    if j == 1 {
                        return Err(j);
                    }
                    slot.fill(&vec![j as u8 + 1; slot.len()]);
                    Ok(())
                });
                let mut want = vec![0xAA; 3];
                want.extend((0..len).map(|k| match (phase + k) / width {
                    1 => 0,
                    j => j as u8 + 1,
                }));
                assert_eq!(out, want, "phase {phase} width {width} len {len}");
                assert_eq!(results.len(), (phase + len).div_ceil(width));
                for (j, result) in results.iter().enumerate() {
                    assert_eq!(result.is_err(), j == 1);
                }
            }
        }
        let mut out = vec![1u8];
        let none = fill_slots::<(), _>(&mut out, 0, 4, 0, 2, |_, _| unreachable!());
        assert!(none.is_empty());
        assert_eq!(out, [1]);
    }

    #[test]
    fn fill_slots_panic_keeps_old_length() {
        let mut out = vec![7u8; 2];
        let caught = catch_unwind(AssertUnwindSafe(|| {
            fill_slots::<(), _>(&mut out, 0, 2, 8, 2, |j, slot| {
                assert_ne!(j, 2, "slot 2 panics");
                slot.fill(&[1, 1]);
                Ok(())
            })
        }));
        assert!(caught.is_err());
        assert_eq!(out, [7, 7]);
    }

    /// Runs `fill_spans` over `items` items where group `range` writes
    /// `bytes(range)` (fully, or only its first half when `partial`), and
    /// returns the output plus the ranges the groups saw, in order.
    fn spans(
        items: usize,
        threads: usize,
        partial: impl Fn(&Range<usize>) -> bool + Sync,
    ) -> (Vec<u8>, Vec<Range<usize>>) {
        let bytes = |r: &Range<usize>| vec![r.start as u8 + 1; r.len() * 3 % 7];
        let seen = Mutex::new(Vec::new());
        let mut out = vec![0xAA; 3];
        out.reserve(items * 7);
        let result: Result<(), ()> = fill_spans(&mut out, items, threads, |range, span| {
            let body = bytes(&range);
            let slot = span.place(body.len());
            assert_eq!(slot.len(), body.len());
            if partial(&range) {
                slot.push(&body[..body.len() / 2]);
            } else {
                slot.fill(&body);
            }
            lock(&seen).push(range);
            Ok(())
        });
        assert_eq!(result, Ok(()));
        let mut seen = seen.into_inner().unwrap();
        seen.sort_by_key(|r| r.start);
        let mut want = vec![0xAA; 3];
        for range in &seen {
            let body = bytes(range);
            let kept = if partial(range) {
                body.len() / 2
            } else {
                body.len()
            };
            want.extend_from_slice(&body[..kept]);
            want.resize(want.len() + body.len() - kept, 0);
        }
        assert_eq!(out, want, "items {items} threads {threads}");
        (out, seen)
    }

    /// Small enough to run under Miri, like the `fill_slots` tests.
    #[test]
    fn fill_spans_concatenates_groups_in_order() {
        for threads in [1usize, 2, 3] {
            for items in [0usize, 1, 5, 13] {
                let (_, ranges) = spans(items, threads, |r| r.start % 3 == 1);
                // One group per claim batch, tiling the items in order.
                let groups = (4 * effective_threads(threads, items)).min(items);
                assert_eq!(ranges.len(), groups);
                let mut next = 0;
                for range in ranges {
                    assert_eq!(range.start, next);
                    assert!(!range.is_empty());
                    next = range.end;
                }
                assert_eq!(next, items);
            }
        }
    }

    #[test]
    fn fill_spans_reports_the_lowest_error_and_skips_unplaced_groups() {
        for threads in [1usize, 2, 3] {
            let placed = AtomicUsize::new(0);
            let mut out = Vec::with_capacity(64);
            let result = fill_spans(&mut out, 12, threads, |range, span| {
                if range.contains(&5) || range.contains(&9) {
                    // Fails without placing: adds no bytes.
                    return Err(range.start);
                }
                span.place(2).fill(&[range.start as u8; 2]);
                placed.fetch_add(1, Ordering::Relaxed);
                Ok(())
            });
            let Err(start) = result else {
                panic!("threads {threads}: the failures must surface")
            };
            assert!(start <= 5, "threads {threads}: not the lowest error");
            assert_eq!(out.len(), 2 * placed.load(Ordering::Relaxed));
        }
    }

    #[test]
    fn fill_spans_panic_keeps_old_length() {
        let mut out = Vec::with_capacity(64);
        out.push(5u8);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            fill_spans::<(), _>(&mut out, 8, 2, |range, span| {
                // A group that panics before placing must not leave later
                // groups waiting for its length.
                assert_ne!(range.start, 1, "group 1 panics");
                span.place(1).fill(&[1]);
                Ok(())
            })
        }));
        let payload = caught.expect_err("the panic propagates");
        let message = payload.downcast_ref::<String>().map_or("", String::as_str);
        assert!(
            message.contains("group 1 panics"),
            "first panic wins: {message}"
        );
        assert_eq!(out, [5]);
    }

    #[test]
    fn fill_spans_refuses_to_overrun_the_reserved_capacity() {
        let mut out = Vec::with_capacity(4);
        let spare = out.capacity();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            fill_spans::<(), _>(&mut out, 3, 2, |_, span| {
                span.place(spare / 2 + 1).fill(&vec![9; spare / 2 + 1]);
                Ok(())
            })
        }));
        assert!(caught.is_err());
        assert!(out.is_empty());
    }

    #[test]
    fn scratch_reuses_capacity_and_nests() {
        let cap = with_scratch(|buf| {
            buf.extend_from_slice(&[1, 2, 3]);
            buf.capacity()
        });
        with_scratch(|buf| {
            assert!(buf.is_empty(), "scratch must be handed out cleared");
            assert!(buf.capacity() >= cap.min(3));
            // Re-entrant use must not alias the outer borrow.
            let inner = with_scratch(|inner| {
                inner.push(9);
                inner.len()
            });
            assert_eq!(inner, 1);
        });
    }
}
