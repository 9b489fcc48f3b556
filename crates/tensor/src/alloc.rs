//! A thread-safe, size-class buffer arena recycling tensor backing stores.
//!
//! Every op in this crate returns a fresh [`crate::Tensor`], and a pipeline
//! iteration runs thousands of ops — without recycling, each microbatch
//! churns the allocator with short-lived multi-kilobyte `Vec<f32>`s. The
//! arena keeps released backing buffers in power-of-two size classes and
//! hands them back to subsequent allocations of a compatible size, so a
//! steady-state training iteration (same shapes as the previous one)
//! allocates **approximately zero** new memory.
//!
//! # Numerics contract
//!
//! Recycling is invisible to the math: a pooled buffer is always
//! re-initialized exactly as a fresh one would be (`take_zeroed` zero-fills,
//! `take_copy` copies) before any kernel reads it, so pooled and fresh runs
//! produce **bitwise identical** results. `crates/tensor/tests/arena.rs`
//! and the runtime's pooled-vs-fresh loss-curve test pin this down.
//!
//! # Configuration and observability
//!
//! * `VP_ARENA=0` (or [`set_enabled`]`(false)`) bypasses the arena entirely:
//!   allocations come straight from the system allocator and releases drop.
//! * [`stats`] exposes monotone `fresh` / `reuse` counters plus the live
//!   `outstanding` and `cached` buffer counts; [`reset_counters`] rebases
//!   the monotone counters (the pool contents survive) so a test or the
//!   benchmark can measure exactly one phase.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Smallest bucketed capacity (floats). Requests below this still round up
/// to it, so tiny tensors share one class instead of fragmenting the pool.
const MIN_CLASS: usize = 64;

/// Number of power-of-two size classes (`MIN_CLASS << (NUM_CLASSES - 1)`
/// caps at 2³³ floats — far beyond any tensor in this workspace).
const NUM_CLASSES: usize = 28;

/// Per-class cap on cached buffers: beyond it, released buffers are
/// genuinely freed so a one-off allocation spike cannot pin memory forever.
const MAX_CACHED_PER_CLASS: usize = 1024;

/// Snapshot of the arena's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArenaStats {
    /// Buffers allocated from the system allocator (pool miss) since the
    /// last [`reset_counters`].
    pub fresh: u64,
    /// Buffers served from the pool (pool hit) since the last
    /// [`reset_counters`].
    pub reuse: u64,
    /// Buffers currently taken and not yet released (live tensors).
    pub outstanding: u64,
    /// Buffers currently parked in the pool.
    pub cached: u64,
}

impl ArenaStats {
    /// Fraction of allocations served from the pool (`0.0` when idle).
    pub fn reuse_ratio(&self) -> f64 {
        let total = self.fresh + self.reuse;
        if total == 0 {
            0.0
        } else {
            self.reuse as f64 / total as f64
        }
    }
}

struct Arena {
    classes: Vec<Mutex<Vec<Vec<f32>>>>,
    fresh: AtomicU64,
    reuse: AtomicU64,
    taken: AtomicU64,
    released: AtomicU64,
    cached: AtomicU64,
}

static ENABLED: AtomicBool = AtomicBool::new(true);
static ENV_CHECKED: OnceLock<()> = OnceLock::new();

fn arena() -> &'static Arena {
    static ARENA: OnceLock<Arena> = OnceLock::new();
    ARENA.get_or_init(|| Arena {
        classes: (0..NUM_CLASSES).map(|_| Mutex::new(Vec::new())).collect(),
        fresh: AtomicU64::new(0),
        reuse: AtomicU64::new(0),
        taken: AtomicU64::new(0),
        released: AtomicU64::new(0),
        cached: AtomicU64::new(0),
    })
}

/// Whether the arena is currently recycling buffers.
///
/// Resolves `VP_ARENA` on first use: `0`/`off`/`false` disables recycling
/// process-wide (useful for the pooled-vs-fresh equivalence gates).
pub fn enabled() -> bool {
    ENV_CHECKED.get_or_init(|| {
        if let Ok(v) = std::env::var("VP_ARENA") {
            let v = v.trim().to_ascii_lowercase();
            if v == "0" || v == "off" || v == "false" {
                ENABLED.store(false, Ordering::Release);
            }
        }
    });
    ENABLED.load(Ordering::Acquire)
}

/// Enables or disables recycling process-wide (overrides `VP_ARENA`).
///
/// Disabling does not drop already-cached buffers; call [`trim`] for that.
pub fn set_enabled(on: bool) {
    // Resolve the env var first so a later `enabled()` cannot overwrite
    // this explicit setting.
    enabled();
    ENABLED.store(on, Ordering::Release);
}

/// The size class serving requests of `len` floats, or `None` when `len`
/// exceeds the largest class (the buffer then bypasses the pool).
fn class_for_len(len: usize) -> Option<usize> {
    let cap = len.max(MIN_CLASS).next_power_of_two();
    let class = cap.trailing_zeros() as usize - MIN_CLASS.trailing_zeros() as usize;
    (class < NUM_CLASSES).then_some(class)
}

/// The size class a buffer of `capacity` can serve, or `None` when it is
/// too small or too large to bucket.
fn class_for_capacity(capacity: usize) -> Option<usize> {
    if capacity < MIN_CLASS {
        return None;
    }
    // Bucket by the largest class the capacity fully covers, so every
    // buffer in class `c` has `capacity >= MIN_CLASS << c`.
    let class =
        (usize::BITS - 1 - capacity.leading_zeros()) as usize - MIN_CLASS.trailing_zeros() as usize;
    Some(class.min(NUM_CLASSES - 1))
}

/// Takes a buffer with `capacity >= len` and `len == 0` — the caller must
/// fill it before any kernel reads it. Counts a pool hit or miss.
pub fn take_raw(len: usize) -> Vec<f32> {
    let a = arena();
    if enabled() {
        if let Some(class) = class_for_len(len) {
            let recycled = a.classes[class].lock().unwrap().pop();
            if let Some(mut v) = recycled {
                a.cached.fetch_sub(1, Ordering::Relaxed);
                a.reuse.fetch_add(1, Ordering::Relaxed);
                a.taken.fetch_add(1, Ordering::Relaxed);
                v.clear();
                return v;
            }
            a.fresh.fetch_add(1, Ordering::Relaxed);
            a.taken.fetch_add(1, Ordering::Relaxed);
            return Vec::with_capacity(len.max(MIN_CLASS).next_power_of_two());
        }
    }
    a.fresh.fetch_add(1, Ordering::Relaxed);
    a.taken.fetch_add(1, Ordering::Relaxed);
    Vec::with_capacity(len)
}

/// Takes a buffer of `len` floats, all zero — the pooled equivalent of
/// `vec![0.0; len]`.
pub fn take_zeroed(len: usize) -> Vec<f32> {
    let mut v = take_raw(len);
    v.resize(len, 0.0);
    v
}

/// Takes a buffer of `len` floats filled with `value`.
pub fn take_filled(len: usize, value: f32) -> Vec<f32> {
    let mut v = take_raw(len);
    v.resize(len, value);
    v
}

/// Takes a buffer holding a copy of `src` — the pooled equivalent of
/// `src.to_vec()` (no intermediate zero-fill).
pub fn take_copy(src: &[f32]) -> Vec<f32> {
    let mut v = take_raw(src.len());
    v.extend_from_slice(src);
    v
}

/// Counts a buffer allocated outside the arena as taken when a tensor
/// adopts it ([`crate::Tensor::from_vec`]), so that its release on drop
/// keeps the `outstanding` gauge balanced.
pub(crate) fn adopt(capacity: usize) {
    if capacity > 0 {
        arena().taken.fetch_add(1, Ordering::Relaxed);
    }
}

/// Returns a backing buffer to the pool (or drops it when the arena is
/// disabled, the buffer is unbucketable, or its class is full).
///
/// Zero-capacity buffers are ignored — they carry no allocation.
pub fn release(v: Vec<f32>) {
    if v.capacity() == 0 {
        return;
    }
    let a = arena();
    // Release ordering: a `stats` that sees this release also sees the
    // take that preceded it.
    a.released.fetch_add(1, Ordering::Release);
    if !enabled() {
        return;
    }
    let Some(class) = class_for_capacity(v.capacity()) else {
        return;
    };
    let mut bucket = a.classes[class].lock().unwrap();
    if bucket.len() < MAX_CACHED_PER_CLASS {
        bucket.push(v);
        a.cached.fetch_add(1, Ordering::Relaxed);
    }
}

/// Current counter snapshot.
pub fn stats() -> ArenaStats {
    let a = arena();
    // Releases first: every release counted here had its take counted
    // before it, so concurrent take/release pairs cannot make
    // `outstanding` undercount the buffers live throughout the call.
    let released = a.released.load(Ordering::Acquire);
    let taken = a.taken.load(Ordering::Relaxed);
    ArenaStats {
        fresh: a.fresh.load(Ordering::Relaxed),
        reuse: a.reuse.load(Ordering::Relaxed),
        outstanding: taken.saturating_sub(released),
        cached: a.cached.load(Ordering::Relaxed),
    }
}

/// Rebases the monotone `fresh` / `reuse` counters to zero (pool contents
/// and the `outstanding` / `cached` gauges are untouched), so a caller can
/// measure exactly one phase of a run.
pub fn reset_counters() {
    let a = arena();
    a.fresh.store(0, Ordering::Relaxed);
    a.reuse.store(0, Ordering::Relaxed);
}

/// Drops every cached buffer, returning the memory to the allocator.
pub fn trim() {
    let a = arena();
    for class in &a.classes {
        let mut bucket = class.lock().unwrap();
        a.cached.fetch_sub(bucket.len() as u64, Ordering::Relaxed);
        bucket.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// Serializes tests that toggle the process-global arena state.
    fn arena_lock() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn classes_cover_small_and_large_requests() {
        assert_eq!(class_for_len(1), Some(0));
        assert_eq!(class_for_len(MIN_CLASS), Some(0));
        assert_eq!(class_for_len(MIN_CLASS + 1), Some(1));
        assert_eq!(class_for_len(1 << 20), Some(20 - 6));
        // A buffer's serving class never exceeds what its capacity covers.
        for cap in [64, 65, 127, 128, 4096, 5000] {
            let c = class_for_capacity(cap).unwrap();
            assert!(cap >= MIN_CLASS << c, "cap {cap} class {c}");
        }
        assert_eq!(class_for_capacity(63), None);
    }

    #[test]
    fn release_then_take_reuses_the_buffer() {
        let _guard = arena_lock();
        set_enabled(true);
        let v = take_zeroed(1000);
        let cap = v.capacity();
        release(v);
        let before = stats();
        let v2 = take_zeroed(900); // same class (1024)
        assert_eq!(v2.capacity(), cap, "must come from the pool");
        let after = stats();
        assert_eq!(after.reuse, before.reuse + 1);
        assert_eq!(after.fresh, before.fresh);
        assert!(v2.iter().all(|&x| x == 0.0));
        release(v2);
    }

    #[test]
    fn disabled_arena_bypasses_the_pool() {
        let _guard = arena_lock();
        set_enabled(false);
        let v = take_filled(512, 3.0);
        assert!(v.iter().all(|&x| x == 3.0));
        let cached_before = stats().cached;
        release(v);
        assert_eq!(stats().cached, cached_before, "release must drop");
        set_enabled(true);
    }

    #[test]
    fn take_copy_round_trips_contents() {
        let _guard = arena_lock();
        set_enabled(true);
        let src = [1.0f32, -2.5, f32::NAN, 0.0];
        let v = take_copy(&src);
        assert_eq!(v.len(), 4);
        assert_eq!(v[0].to_bits(), src[0].to_bits());
        assert_eq!(v[2].to_bits(), src[2].to_bits());
        release(v);
        // A recycled buffer must not leak previous contents through
        // take_zeroed.
        let v2 = take_zeroed(4);
        assert!(v2.iter().all(|&x| x == 0.0));
        release(v2);
    }

    #[test]
    fn trim_empties_the_cache() {
        let _guard = arena_lock();
        set_enabled(true);
        release(take_zeroed(128));
        assert!(stats().cached > 0);
        trim();
        assert_eq!(stats().cached, 0);
    }

    #[test]
    fn counters_reset_rebase_only_monotone_counts() {
        let _guard = arena_lock();
        set_enabled(true);
        let v = take_zeroed(256);
        reset_counters();
        let s = stats();
        assert_eq!((s.fresh, s.reuse), (0, 0));
        assert!(s.outstanding >= 1);
        release(v);
    }
}
