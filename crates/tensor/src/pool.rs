//! A persistent, std-only worker pool for row-parallel kernels.
//!
//! The workspace is deliberately dependency-free, so this module provides
//! the small slice of rayon that the numeric kernels need: a global pool of
//! worker threads plus `par_rows_mut*` entry points that partition the
//! *output rows* of a kernel into contiguous chunks and execute the chunks
//! concurrently.
//!
//! # Determinism contract
//!
//! Parallelism is only ever across **independent output rows**. Every row is
//! produced by exactly one task running exactly the serial per-row kernel, so
//! the floating-point reduction order of each output element is identical for
//! every thread count — results are **bitwise identical** to the serial
//! kernels. This preserves the repo's bit-equivalence story (the paper's
//! §6.5 / Figure 17 claims rest on the numerics being a pure reordering of
//! *communication*, never of per-element arithmetic).
//!
//! # Configuration
//!
//! The thread count is resolved, in order, from:
//!
//! 1. the last call to [`set_num_threads`],
//! 2. the `VP_THREADS` environment variable (read once, lazily),
//! 3. [`std::thread::available_parallelism`].
//!
//! A thread count of 1 bypasses the pool entirely: the caller runs the
//! serial kernel inline, making `VP_THREADS=1` *exactly* the serial code
//! path.
//!
//! Independently, the *dispatch heuristic* caps the worker count at the
//! cores the process may run on ([`assumed_cores`]; tests override it with
//! [`set_assumed_cores`]): oversubscribing a core with workers only adds
//! queueing and context-switch overhead — every kernel *lost* to serial
//! (speedup 0.74–0.98) with 4 threads on a 1-core box. On a single-core
//! machine every kernel therefore takes the serial path, whatever
//! `VP_THREADS` says.
//!
//! # Lane budgets
//!
//! Both settings above are process-wide *caps*. Whoever spawns device
//! threads — the training launcher, the serving engine — owns the core
//! count and hands each of them [`lanes_per_device`] kernel lanes with
//! [`set_lane_budget`], a per-thread cap under those two: `p` device
//! threads then dispatch at most `cores` chunks between them instead of
//! `p × cores`. At a budget of 1 a device thread runs every kernel inline —
//! no task, no latch, no wake-up. Threads nobody budgeted (tests, benches,
//! the single-device reference) see only the process-wide caps.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// A queued unit of work (one row chunk, latch bookkeeping included).
type Task = Box<dyn FnOnce() + Send + 'static>;

/// A not-yet-lifetime-erased chunk task borrowed from a dispatching caller.
type ScopedTask<'a> = Box<dyn FnOnce() + Send + 'a>;

/// Kernels with fewer scalar operations than this run serially: below it,
/// dispatch overhead (queueing + latch wake-up) dominates any speedup.
const MIN_PARALLEL_WORK: usize = 16 * 1024;

/// Kernels spanning fewer output rows than this run serially even when the
/// work estimate is large: with a handful of chunks the per-task queueing
/// and latch wake-ups dominate — speedup was < 1.0 for every sub-8-row
/// dispatch measured.
const MIN_PARALLEL_ROWS: usize = 8;

/// Configured thread count; 0 means "not resolved yet".
static CONFIGURED: AtomicUsize = AtomicUsize::new(0);

/// Assumed number of physical cores; 0 means "detect".
static ASSUMED_CORES: AtomicUsize = AtomicUsize::new(0);

/// Sets the number of threads used by the parallel kernels (min 1).
///
/// Takes effect for subsequent kernel calls, process-wide. `1` disables the
/// pool and runs every kernel serially on the calling thread.
pub fn set_num_threads(n: usize) {
    CONFIGURED.store(n.max(1), Ordering::Release);
}

/// Returns the current kernel thread count.
///
/// Resolves `VP_THREADS` / the machine's available parallelism on first use
/// (see the module docs for the full precedence).
pub fn num_threads() -> usize {
    match CONFIGURED.load(Ordering::Acquire) {
        0 => {
            let n = default_threads();
            // A racing `set_num_threads` wins; only fill in the default once.
            let _ = CONFIGURED.compare_exchange(0, n, Ordering::AcqRel, Ordering::Acquire);
            CONFIGURED.load(Ordering::Acquire)
        }
        n => n,
    }
}

fn default_threads() -> usize {
    if let Ok(v) = std::env::var("VP_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Number of cores the dispatch heuristic assumes the machine has: the
/// last [`set_assumed_cores`] call, else the cached `detect_cores` answer.
pub fn assumed_cores() -> usize {
    match ASSUMED_CORES.load(Ordering::Acquire) {
        0 => detect_cores(),
        n => n,
    }
}

/// The cores this process may run on: [`std::thread::available_parallelism`],
/// which honours the affinity mask (`taskset`, a container's cpuset) and
/// cgroup v1/v2 CPU quotas. Cached, because the dispatch heuristic asks on
/// every kernel call and the answer reads `/proc` and `/sys`.
fn detect_cores() -> usize {
    static DETECTED: OnceLock<usize> = OnceLock::new();
    *DETECTED.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Overrides the core count the dispatch heuristic assumes (`0` restores
/// detection).
///
/// More worker threads than cores is pure overhead, so dispatch caps the
/// worker count at the core count. Tests on small CI machines call
/// this to exercise the pool machinery anyway (determinism is unaffected
/// either way: the chunked and serial paths are bitwise identical by
/// construction).
pub fn set_assumed_cores(n: usize) {
    ASSUMED_CORES.store(n, Ordering::Release);
}

thread_local! {
    /// Kernel-lane cap of this thread; 0 = unbudgeted.
    static LANE_BUDGET: Cell<usize> = const { Cell::new(0) };
    /// Pool tasks this thread has enqueued so far.
    static ENQUEUED: Cell<usize> = const { Cell::new(0) };
}

/// The kernel lanes each of `device_threads` concurrently running device
/// threads gets: an equal share of [`assumed_cores`], at least one. The one
/// place the launcher-side policy lives.
pub fn lanes_per_device(device_threads: usize) -> usize {
    (assumed_cores() / device_threads.max(1)).max(1)
}

/// Caps the calling thread's kernel dispatches at `lanes` (min 1) chunks,
/// for the rest of the thread's life. Called once by a device thread as it
/// starts; the cap sits under [`set_num_threads`] and [`set_assumed_cores`]
/// and never changes a result (splits are thread-count independent).
pub fn set_lane_budget(lanes: usize) {
    LANE_BUDGET.with(|b| b.set(lanes.max(1)));
}

/// The calling thread's lane budget, `None` if nobody set one.
pub fn lane_budget() -> Option<usize> {
    Some(LANE_BUDGET.with(Cell::get)).filter(|&b| b > 0)
}

/// Pool tasks the calling thread has enqueued since it started (kernels
/// that ran inline enqueue none).
pub fn tasks_enqueued() -> usize {
    ENQUEUED.with(Cell::get)
}

/// Size of the process-wide pool: the configured thread count capped at
/// the assumed core count.
fn pool_threads() -> usize {
    num_threads().min(assumed_cores()).max(1)
}

/// Chunks the calling thread's next dispatch may use: [`pool_threads`]
/// under the thread's lane budget. Kernels also read it to choose *how* to
/// split work (the GEMM driver picks row chunks vs column panels); `1`
/// means every dispatch goes serial.
pub(crate) fn effective_parallelism() -> usize {
    match LANE_BUDGET.with(Cell::get) {
        0 => pool_threads(),
        lanes => pool_threads().min(lanes),
    }
}

/// Whether a kernel with `rows` output rows and ~`work` scalar operations
/// would be dispatched to the pool (`false` = serial fallback). This is
/// exactly the predicate `par_rows_mut` uses.
pub(crate) fn would_parallelize(rows: usize, work: usize) -> bool {
    plan(rows, work).is_some()
}

/// Completion latch for one dispatch: counts outstanding chunk tasks and
/// records whether any of them panicked.
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
    poisoned: AtomicBool,
}

impl Latch {
    fn new(count: usize) -> Self {
        Latch {
            remaining: Mutex::new(count),
            done: Condvar::new(),
            poisoned: AtomicBool::new(false),
        }
    }

    fn complete_one(&self) {
        let mut left = self.remaining.lock().unwrap();
        *left -= 1;
        if *left == 0 {
            self.done.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        *self.remaining.lock().unwrap() == 0
    }

    fn wait(&self) {
        let mut left = self.remaining.lock().unwrap();
        while *left > 0 {
            left = self.done.wait(left).unwrap();
        }
    }
}

/// The global worker pool: a shared injector queue drained by persistent
/// worker threads. Workers are spawned lazily up to `num_threads() - 1`
/// (the dispatching caller is the remaining thread — it helps drain the
/// queue while its own chunks are pending).
struct Pool {
    tx: Sender<Task>,
    rx: Mutex<Receiver<Task>>,
    spawned: Mutex<usize>,
}

impl Pool {
    fn global() -> &'static Arc<Pool> {
        static POOL: OnceLock<Arc<Pool>> = OnceLock::new();
        POOL.get_or_init(|| {
            let (tx, rx) = channel();
            Arc::new(Pool {
                tx,
                rx: Mutex::new(rx),
                spawned: Mutex::new(0),
            })
        })
    }

    /// Grows the pool to at least `target` workers.
    fn ensure_workers(self: &Arc<Self>, target: usize) {
        let mut spawned = self.spawned.lock().unwrap();
        while *spawned < target {
            let pool = Arc::clone(self);
            std::thread::Builder::new()
                .name(format!("vp-kernel-{}", *spawned))
                .spawn(move || pool.worker_loop())
                .expect("failed to spawn kernel pool worker");
            *spawned += 1;
        }
    }

    fn worker_loop(&self) {
        loop {
            // Holding the receiver lock while blocked in `recv` is the
            // standard shared-queue pattern: pickup is serialized,
            // execution is parallel.
            let task = { self.rx.lock().unwrap().recv() };
            match task {
                Ok(task) => task(),
                Err(_) => break, // queue closed: process exit
            }
        }
    }

    /// Runs queued tasks on the calling thread until the queue is
    /// momentarily empty (or contended), then blocks on the latch.
    ///
    /// The caller may execute chunks of *other* concurrent dispatches here;
    /// that is fine — each task carries its own latch.
    fn help_then_wait(&self, latch: &Latch) {
        loop {
            if latch.is_done() {
                return;
            }
            let task = match self.rx.try_lock() {
                Ok(rx) => rx.try_recv().ok(),
                // A worker is blocked in `recv` holding the lock; don't
                // queue behind it — our chunks are already being drained.
                Err(_) => None,
            };
            match task {
                Some(task) => task(),
                None => break,
            }
        }
        latch.wait();
    }
}

/// Executes every task, borrowing from the caller's stack, and returns once
/// all of them have completed. Propagates a panic if any task panicked.
fn dispatch(tasks: Vec<ScopedTask<'_>>) {
    let pool = Pool::global();
    // Sized for the process, not for this thread's budget: budgeted device
    // threads share the workers, and what bounds concurrency is the chunks
    // in flight (the budgets sum to at most the core count).
    pool.ensure_workers(pool_threads() - 1);
    ENQUEUED.with(|n| n.set(n.get() + tasks.len()));
    let latch = Arc::new(Latch::new(tasks.len()));
    for task in tasks {
        // SAFETY: `dispatch` does not return until the latch reports every
        // task complete (including panicked ones — `catch_unwind` below
        // guarantees `complete_one` runs), so the borrows captured by the
        // task strictly outlive its execution. This is the same argument
        // that makes scoped threads sound.
        let task: Task = unsafe { std::mem::transmute::<ScopedTask<'_>, Task>(task) };
        let latch = Arc::clone(&latch);
        let wrapped: Task = Box::new(move || {
            if catch_unwind(AssertUnwindSafe(task)).is_err() {
                latch.poisoned.store(true, Ordering::Relaxed);
            }
            latch.complete_one();
        });
        pool.tx.send(wrapped).expect("kernel pool queue closed");
    }
    pool.help_then_wait(&latch);
    if latch.poisoned.load(Ordering::Relaxed) {
        panic!("a parallel kernel task panicked");
    }
}

/// Row-range plan: `Some(rows_per_chunk)` to parallelize, `None` to run the
/// whole range serially on the caller. Serial whenever the effective worker
/// count is 1 ("more threads than cores" and a lane budget of 1 included),
/// the row count is below [`MIN_PARALLEL_ROWS`], or the work below
/// [`MIN_PARALLEL_WORK`].
fn plan(rows: usize, work: usize) -> Option<usize> {
    let threads = effective_parallelism();
    if threads <= 1 || rows < MIN_PARALLEL_ROWS || work < MIN_PARALLEL_WORK {
        return None;
    }
    Some(rows.div_ceil(threads.min(rows)))
}

/// Runs `f(start, end, out_rows)` over disjoint row ranges covering
/// `0..rows`, where `out_rows` is the `[start*width, end*width)` window of
/// `out` (`width = out.len() / rows`).
///
/// `work` is an estimate of the total scalar operations; small kernels run
/// serially. With one thread this is exactly `f(0, rows, out)` on the
/// caller.
///
/// # Panics
///
/// Panics if `out.len()` is not a multiple of `rows`, or if `f` panics in
/// any chunk.
pub fn par_rows_mut(
    rows: usize,
    work: usize,
    out: &mut [f32],
    f: impl Fn(usize, usize, &mut [f32]) + Sync,
) {
    assert!(
        rows == 0 || out.len().is_multiple_of(rows),
        "ragged row buffer"
    );
    let Some(chunk) = plan(rows, work) else {
        f(0, rows, out);
        return;
    };
    let width = out.len() / rows;
    let f = &f;
    let mut tasks: Vec<ScopedTask<'_>> = Vec::new();
    let mut rest = out;
    let mut start = 0;
    while start < rows {
        let end = (start + chunk).min(rows);
        let (head, tail) = rest.split_at_mut((end - start) * width);
        rest = tail;
        tasks.push(Box::new(move || f(start, end, head)));
        start = end;
    }
    dispatch(tasks);
}

/// Mutable view of one column panel `[j0, j1)` of a row-major
/// `rows × stride` matrix, handed to [`par_col_panels_mut`] tasks.
///
/// Panels created by one dispatch cover **disjoint** column ranges of the
/// same buffer — that disjointness (plus the dispatch latch outliving every
/// task) is what makes the aliasing sound; see the `unsafe impl Send`.
/// All methods are safe: a panel can only reach its own columns.
pub struct ColPanelMut<'a> {
    base: *mut f32,
    rows: usize,
    stride: usize,
    j0: usize,
    j1: usize,
    _marker: std::marker::PhantomData<&'a mut [f32]>,
}

// SAFETY: `par_col_panels_mut` constructs the panels of one dispatch over
// pairwise-disjoint column ranges of a single exclusively-borrowed buffer,
// so moving a panel to a worker thread cannot race any other panel's
// accesses, and the `'a` marker keeps the underlying borrow alive until
// the dispatch latch has joined every task.
unsafe impl Send for ColPanelMut<'_> {}

impl ColPanelMut<'_> {
    /// The global `[j0, j1)` column range this panel owns.
    pub fn col_range(&self) -> (usize, usize) {
        (self.j0, self.j1)
    }

    /// Panel width in columns (`j1 - j0`).
    pub fn width(&self) -> usize {
        self.j1 - self.j0
    }

    /// Number of rows in the underlying matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Mutable view of this panel's slice of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "panel row {r} out of {} rows", self.rows);
        // SAFETY: `r < rows` and `j1 <= stride` (checked at construction),
        // so the range lies inside the buffer; `&mut self` plus panel
        // disjointness guarantee exclusive access to it.
        unsafe {
            std::slice::from_raw_parts_mut(
                self.base.add(r * self.stride + self.j0),
                self.j1 - self.j0,
            )
        }
    }
}

/// Runs `f` over disjoint column panels of the row-major `rows × cols`
/// buffer `out`, partitioning columns into up to `effective_parallelism()`
/// panels (so at most the calling thread's lane budget) whose widths are
/// multiples of `align` (except the last).
///
/// This is the GEMM driver's split for **short-wide** outputs (few rows,
/// many columns — e.g. a handful of sequence positions against a large
/// vocabulary), where the rows-only split of [`par_rows_mut`] can't feed
/// more than `rows` workers. Column panels of a matmul are fully
/// independent subproblems over the same `A`, so per-element accumulation
/// order is untouched and the result stays bitwise identical to serial.
///
/// Small work (below the parallel thresholds) runs `f` inline on the
/// caller with one full-width panel — exactly the serial path.
///
/// # Panics
///
/// Panics if `out.len() != rows * cols`, if `align == 0`, or if `f` panics
/// in any panel.
pub fn par_col_panels_mut(
    rows: usize,
    cols: usize,
    align: usize,
    work: usize,
    out: &mut [f32],
    f: impl Fn(ColPanelMut<'_>) + Sync,
) {
    assert_eq!(out.len(), rows * cols, "panel buffer shape mismatch");
    assert!(align > 0, "zero panel alignment");
    let threads = effective_parallelism();
    let panels = threads.min(cols.div_ceil(align)).max(1);
    let width = cols.div_ceil(panels).next_multiple_of(align);
    let base = out.as_mut_ptr();
    let make_panel = move |j0: usize, j1: usize| ColPanelMut {
        base,
        rows,
        stride: cols,
        j0,
        j1,
        _marker: std::marker::PhantomData,
    };
    if panels <= 1 || work < MIN_PARALLEL_WORK {
        f(make_panel(0, cols));
        return;
    }
    let f = &f;
    let mut tasks: Vec<ScopedTask<'_>> = Vec::new();
    let mut j0 = 0;
    while j0 < cols {
        let j1 = (j0 + width).min(cols);
        let panel = make_panel(j0, j1);
        tasks.push(Box::new(move || f(panel)));
        j0 = j1;
    }
    dispatch(tasks);
}

/// Like [`par_rows_mut`] for kernels with two per-row output buffers
/// (e.g. softmax probabilities plus per-row sums). Each buffer may have its
/// own row width (`len / rows`).
///
/// # Panics
///
/// Panics if either buffer length is not a multiple of `rows`, or if `f`
/// panics in any chunk.
pub fn par_rows_mut2(
    rows: usize,
    work: usize,
    a: &mut [f32],
    b: &mut [f32],
    f: impl Fn(usize, usize, &mut [f32], &mut [f32]) + Sync,
) {
    assert!(
        rows == 0 || (a.len().is_multiple_of(rows) && b.len().is_multiple_of(rows)),
        "ragged row buffer"
    );
    let Some(chunk) = plan(rows, work) else {
        f(0, rows, a, b);
        return;
    };
    let (wa, wb) = (a.len() / rows, b.len() / rows);
    let f = &f;
    let mut tasks: Vec<ScopedTask<'_>> = Vec::new();
    let (mut rest_a, mut rest_b) = (a, b);
    let mut start = 0;
    while start < rows {
        let end = (start + chunk).min(rows);
        let (ca, ta) = rest_a.split_at_mut((end - start) * wa);
        let (cb, tb) = rest_b.split_at_mut((end - start) * wb);
        rest_a = ta;
        rest_b = tb;
        tasks.push(Box::new(move || f(start, end, ca, cb)));
        start = end;
    }
    dispatch(tasks);
}

/// Like [`par_rows_mut`] for kernels with three per-row output buffers
/// (e.g. layer-norm output, normalized cache and inverse-std cache).
///
/// # Panics
///
/// Panics if any buffer length is not a multiple of `rows`, or if `f`
/// panics in any chunk.
pub fn par_rows_mut3(
    rows: usize,
    work: usize,
    a: &mut [f32],
    b: &mut [f32],
    c: &mut [f32],
    f: impl Fn(usize, usize, &mut [f32], &mut [f32], &mut [f32]) + Sync,
) {
    assert!(
        rows == 0
            || (a.len().is_multiple_of(rows)
                && b.len().is_multiple_of(rows)
                && c.len().is_multiple_of(rows)),
        "ragged row buffer"
    );
    let Some(chunk) = plan(rows, work) else {
        f(0, rows, a, b, c);
        return;
    };
    let (wa, wb, wc) = (a.len() / rows, b.len() / rows, c.len() / rows);
    let f = &f;
    let mut tasks: Vec<ScopedTask<'_>> = Vec::new();
    let (mut rest_a, mut rest_b, mut rest_c) = (a, b, c);
    let mut start = 0;
    while start < rows {
        let end = (start + chunk).min(rows);
        let (ca, ta) = rest_a.split_at_mut((end - start) * wa);
        let (cb, tb) = rest_b.split_at_mut((end - start) * wb);
        let (cc, tc) = rest_c.split_at_mut((end - start) * wc);
        rest_a = ta;
        rest_b = tb;
        rest_c = tc;
        tasks.push(Box::new(move || f(start, end, ca, cb, cc)));
        start = end;
    }
    dispatch(tasks);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that reconfigure the global thread count and, for
    /// the duration of the guard, pretends the machine has plenty of cores
    /// so the pool machinery is exercised even on a 1-core CI box.
    struct ConfigGuard {
        _lock: std::sync::MutexGuard<'static, ()>,
    }

    impl Drop for ConfigGuard {
        fn drop(&mut self) {
            set_assumed_cores(0);
        }
    }

    fn config_lock() -> ConfigGuard {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        let guard = LOCK
            .get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        set_assumed_cores(16);
        ConfigGuard { _lock: guard }
    }

    #[test]
    fn set_num_threads_overrides_default() {
        let _guard = config_lock();
        let before = num_threads();
        set_num_threads(7);
        assert_eq!(num_threads(), 7);
        set_num_threads(0); // clamps to 1
        assert_eq!(num_threads(), 1);
        set_num_threads(before);
    }

    #[test]
    fn par_rows_mut_covers_every_row_once() {
        let _guard = config_lock();
        let before = num_threads();
        set_num_threads(3);
        let (rows, width) = (103, 64);
        let mut out = vec![0.0f32; rows * width];
        par_rows_mut(rows, rows * width * 100, &mut out, |start, end, chunk| {
            for (local, row) in chunk.chunks_mut(width).enumerate() {
                for v in row {
                    *v += (start + local) as f32;
                }
            }
            assert_eq!(chunk.len(), (end - start) * width);
        });
        for (r, row) in out.chunks(width).enumerate() {
            assert!(
                row.iter().all(|&v| v == r as f32),
                "row {r} wrong/duplicated"
            );
        }
        set_num_threads(before);
    }

    #[test]
    fn small_work_runs_serially_in_one_chunk() {
        let _guard = config_lock();
        let before = num_threads();
        set_num_threads(4);
        let mut out = vec![0.0f32; 8];
        let calls = AtomicUsize::new(0);
        par_rows_mut(8, 8, &mut out, |start, end, _| {
            calls.fetch_add(1, Ordering::SeqCst);
            assert_eq!((start, end), (0, 8));
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        set_num_threads(before);
    }

    #[test]
    fn panic_in_task_propagates_and_pool_survives() {
        let _guard = config_lock();
        let before = num_threads();
        set_num_threads(4);
        let mut out = vec![0.0f32; 64 * 1024];
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            par_rows_mut(64, usize::MAX, &mut out, |start, _, _| {
                if start == 0 {
                    panic!("chunk failure");
                }
            });
        }));
        assert!(caught.is_err(), "worker panic must propagate to the caller");
        // The pool must stay usable after a poisoned dispatch.
        par_rows_mut(64, usize::MAX, &mut out, |_, _, chunk| chunk.fill(1.0));
        assert!(out.iter().all(|&v| v == 1.0));
        set_num_threads(before);
    }

    #[test]
    fn multi_buffer_chunks_stay_aligned() {
        let _guard = config_lock();
        let before = num_threads();
        set_num_threads(5);
        let rows = 31;
        let mut a = vec![0.0f32; rows * 16];
        let mut b = vec![0.0f32; rows];
        let mut c = vec![0.0f32; rows * 3];
        par_rows_mut3(
            rows,
            usize::MAX,
            &mut a,
            &mut b,
            &mut c,
            |start, end, ca, cb, cc| {
                assert_eq!(ca.len(), (end - start) * 16);
                assert_eq!(cb.len(), end - start);
                assert_eq!(cc.len(), (end - start) * 3);
                cb.iter_mut()
                    .enumerate()
                    .for_each(|(i, v)| *v = (start + i) as f32);
            },
        );
        for (r, &v) in b.iter().enumerate() {
            assert_eq!(v, r as f32);
        }
        set_num_threads(before);
    }

    #[test]
    fn more_threads_than_cores_falls_back_to_serial() {
        let _guard = config_lock();
        let before = num_threads();
        set_assumed_cores(1);
        set_num_threads(8);
        assert!(
            !would_parallelize(1024, usize::MAX),
            "8 threads on 1 core must not dispatch"
        );
        let calls = AtomicUsize::new(0);
        let mut out = vec![0.0f32; 1024];
        par_rows_mut(1024, usize::MAX, &mut out, |start, end, _| {
            calls.fetch_add(1, Ordering::SeqCst);
            assert_eq!((start, end), (0, 1024));
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        set_num_threads(before);
    }

    #[test]
    fn few_rows_fall_back_to_serial() {
        let _guard = config_lock();
        let before = num_threads();
        set_num_threads(4);
        // Huge per-row work, but below the row threshold: still serial.
        assert!(!would_parallelize(MIN_PARALLEL_ROWS - 1, usize::MAX));
        assert!(would_parallelize(MIN_PARALLEL_ROWS, usize::MAX));
        let calls = AtomicUsize::new(0);
        let mut out = vec![0.0f32; (MIN_PARALLEL_ROWS - 1) * 8];
        par_rows_mut(MIN_PARALLEL_ROWS - 1, usize::MAX, &mut out, |_, _, _| {
            calls.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        set_num_threads(before);
    }

    #[test]
    fn detect_cores_is_at_least_one_and_consistent() {
        let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(detect_cores(), avail);
    }

    #[test]
    fn col_panels_cover_every_column_once_and_are_aligned() {
        let _guard = config_lock();
        let before = num_threads();
        set_num_threads(3);
        let (rows, cols, align) = (5, 103, 8);
        let mut out = vec![0.0f32; rows * cols];
        par_col_panels_mut(rows, cols, align, usize::MAX, &mut out, |mut panel| {
            let (j0, j1) = panel.col_range();
            assert!(j0 < j1 && j1 <= cols);
            // Every panel except the last is align-wide.
            if j1 != cols {
                assert_eq!(panel.width() % align, 0, "panel [{j0},{j1}) unaligned");
            }
            for r in 0..rows {
                for (local, v) in panel.row_mut(r).iter_mut().enumerate() {
                    *v += (r * cols + j0 + local) as f32;
                }
            }
        });
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i as f32, "column {i} missed or duplicated");
        }
        set_num_threads(before);
    }

    #[test]
    fn col_panels_run_serially_below_thresholds() {
        let _guard = config_lock();
        let before = num_threads();
        set_num_threads(4);
        let calls = AtomicUsize::new(0);
        let mut out = vec![0.0f32; 4 * 64];
        par_col_panels_mut(4, 64, 8, 16, &mut out, |panel| {
            calls.fetch_add(1, Ordering::SeqCst);
            assert_eq!(panel.col_range(), (0, 64));
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        set_num_threads(before);
    }

    #[test]
    fn single_core_machine_never_dispatches_to_the_pool() {
        // Regression for a kernel table where every kernel *lost* to serial
        // yet reported the threaded path as chosen: with a probed
        // core count of 1, the dispatch heuristic must choose serial no
        // matter how many threads were requested — for both split shapes.
        let _guard = config_lock();
        let before = num_threads();
        set_assumed_cores(1);
        set_num_threads(8);
        assert_eq!(effective_parallelism(), 1);
        assert!(!would_parallelize(usize::MAX / 2, usize::MAX));
        let rows_calls = AtomicUsize::new(0);
        let mut out = vec![0.0f32; 64 * 64];
        par_rows_mut(64, usize::MAX, &mut out, |start, end, _| {
            rows_calls.fetch_add(1, Ordering::SeqCst);
            assert_eq!((start, end), (0, 64));
        });
        assert_eq!(rows_calls.load(Ordering::SeqCst), 1);
        let col_calls = AtomicUsize::new(0);
        par_col_panels_mut(64, 64, 8, usize::MAX, &mut out, |panel| {
            col_calls.fetch_add(1, Ordering::SeqCst);
            assert_eq!(panel.col_range(), (0, 64));
        });
        assert_eq!(col_calls.load(Ordering::SeqCst), 1);
        set_num_threads(before);
    }

    /// Runs one row-split and one panel-split dispatch on a fresh thread
    /// under `lanes`; returns what the thread enqueued and the parallelism
    /// it saw.
    fn dispatch_on_a_thread(lanes: Option<usize>) -> (usize, usize) {
        std::thread::spawn(move || {
            if let Some(lanes) = lanes {
                set_lane_budget(lanes);
            }
            let mut out = vec![0.0f32; 64 * 64];
            par_rows_mut(64, usize::MAX, &mut out, |_, _, chunk| chunk.fill(1.0));
            par_col_panels_mut(4, 1024, 8, usize::MAX, &mut out, |mut panel| {
                for r in 0..4 {
                    panel.row_mut(r).fill(2.0);
                }
            });
            assert!(out.iter().all(|&v| v == 2.0));
            (tasks_enqueued(), effective_parallelism())
        })
        .join()
        .unwrap()
    }

    #[test]
    fn one_lane_never_enqueues_while_an_unbudgeted_sibling_still_does() {
        let _guard = config_lock();
        let before = num_threads();
        set_num_threads(4);
        assert_eq!(dispatch_on_a_thread(Some(1)), (0, 1));
        // A wider budget caps both split shapes at its lane count …
        assert_eq!(dispatch_on_a_thread(Some(2)), (2 + 2, 2));
        // … and sits *under* the process-wide caps, never above them.
        assert_eq!(dispatch_on_a_thread(Some(64)), (4 + 4, 4));
        assert_eq!(dispatch_on_a_thread(None), (4 + 4, 4));
        set_num_threads(before);
    }

    #[test]
    fn lane_budgets_are_per_thread_and_die_with_their_thread() {
        assert_eq!(lane_budget(), None);
        std::thread::spawn(|| {
            set_lane_budget(0); // clamps to 1
            assert_eq!(lane_budget(), Some(1));
            set_lane_budget(3);
            assert_eq!(lane_budget(), Some(3));
            // Not inherited: a thread this one spawns starts unbudgeted.
            let child = std::thread::spawn(lane_budget).join().unwrap();
            assert_eq!(child, None);
        })
        .join()
        .unwrap();
        assert_eq!(lane_budget(), None, "a sibling's budget leaked");
        assert_eq!(std::thread::spawn(lane_budget).join().unwrap(), None);
    }

    #[test]
    fn lanes_per_device_shares_out_the_assumed_cores() {
        let _guard = config_lock();
        set_assumed_cores(4);
        assert_eq!(lanes_per_device(1), 4);
        assert_eq!(lanes_per_device(2), 2);
        assert_eq!(lanes_per_device(3), 1);
        assert_eq!(lanes_per_device(8), 1, "never below one lane");
        set_assumed_cores(16);
    }

    #[test]
    fn zero_rows_and_zero_width_are_noops() {
        let _guard = config_lock();
        let before = num_threads();
        set_num_threads(3);
        par_rows_mut(0, usize::MAX, &mut [], |_, _, chunk| {
            assert!(chunk.is_empty());
        });
        let mut empty_width = vec![0.0f32; 0];
        par_rows_mut(5, usize::MAX, &mut empty_width, |start, end, chunk| {
            assert!(chunk.is_empty());
            assert!(end >= start);
        });
        set_num_threads(before);
    }
}
