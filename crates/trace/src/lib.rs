#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Timeline events for the schedule interpreter and the simulator
//! (`vp-trace`).
//!
//! [`TraceEvent`] is the one timeline representation of the workspace:
//! the numeric runtime records it as it runs, and `vp_sim` converts
//! simulated schedules into it. Every executed pass (`F`/`B`/`W`, the
//! vocabulary `S`/`T` passes, sharded input passes), every blocking
//! point-to-point wait and every communication-stream job can record a
//! `{device, name, microbatch, chunk, start_ns, end_ns}` event into a
//! bounded per-device buffer: a `Vec` under a mutex whose capacity is
//! reserved up front, so the write path never allocates. A device has two
//! writers (its thread and its communication-stream worker), so the lock
//! is almost never contended — and when tracing is off it costs nothing.
//!
//! The zero-overhead-when-disabled guarantee is structural, not a runtime
//! check against global state: a disabled [`Tracer`] holds no buffer
//! (`inner: None`), so every hook reduces to one branch on an `Option`
//! that is always taken the same way — the event-free fast path of the
//! interpreter is byte-for-byte the code that runs with no tracer
//! attached. There are no global registries and no environment variables;
//! whoever wants a trace builds a [`TraceLog`], hands per-device
//! [`Tracer`] handles down the stack, and collects the events when the
//! run finishes.
//!
//! On top of the raw events:
//!
//! * [`TimelineReport`] computes per-device bubble rate, communication
//!   wait/overlap fractions and the critical-path length;
//! * [`chrome::to_chrome_trace`] renders events as Chrome trace-event
//!   JSON (`chrome://tracing` / Perfetto) — the one Chrome writer, for
//!   measured and simulated timelines alike.

pub mod chrome;
pub mod report;

pub use report::{DeviceTimeline, TimelineReport};

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Sentinel microbatch for events not tied to a microbatch (stream sync,
/// untagged waits).
pub const NO_MICROBATCH: u32 = u32::MAX;

/// Which timeline row of a device an event belongs to.
///
/// Tracks map to Chrome-trace thread ids, so each device renders as one
/// process with up to three rows: its pass timeline, its blocking
/// communication waits, and the jobs its communication stream executes
/// concurrently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Track {
    /// Passes executed by the device thread (`F`, `B`, `W`, `S`, `T`, …).
    Compute = 0,
    /// Time the device thread spends *blocked* on communication (p2p
    /// receives, waiting on an in-flight stream job).
    Wait = 1,
    /// Work executed on the device's communication stream (the `C1`
    /// barrier collectives that overlap with compute).
    Stream = 2,
}

impl Track {
    /// Human-readable row label used by the Chrome exporter.
    pub fn label(self) -> &'static str {
        match self {
            Track::Compute => "passes",
            Track::Wait => "comm-wait",
            Track::Stream => "comm-stream",
        }
    }
}

/// One recorded span: a half-open `[start_ns, end_ns)` interval on a
/// `(device, track)` row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Pipeline device (thread) the event belongs to.
    pub device: u32,
    /// Timeline row within the device.
    pub track: Track,
    /// Event label — pass kinds use `PassKind` names (`"F"`, `"B"`, …),
    /// communication hooks use dotted names (`"p2p.recv"`, `"stream.job"`).
    pub name: &'static str,
    /// Microbatch index, or [`NO_MICROBATCH`].
    pub microbatch: u32,
    /// Model chunk on the device (0 for single-chunk schedules).
    pub chunk: u8,
    /// Start, nanoseconds since the owning [`TraceLog`]'s epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the owning [`TraceLog`]'s epoch.
    pub end_ns: u64,
}

impl TraceEvent {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Default per-device event capacity (events past it are counted, not
/// stored — see [`TraceLog::dropped`]).
pub const DEFAULT_CAPACITY: usize = 1 << 16;

struct TracerInner {
    device: u32,
    epoch: Instant,
    /// Whether this device's hooks currently record. The runtime disarms
    /// warm-up iterations and arms the final one, so a trace captures one
    /// steady iteration exactly like the simulator's reports.
    armed: AtomicBool,
    /// This device's events; `capacity` slots are reserved up front, so a
    /// push never allocates.
    events: Mutex<Vec<TraceEvent>>,
    capacity: usize,
    /// Events that arrived after `events` was full: counted, not stored.
    dropped: AtomicUsize,
}

impl TracerInner {
    fn events(&self) -> MutexGuard<'_, Vec<TraceEvent>> {
        // A push cannot panic halfway, so a poisoned log is still whole.
        self.events.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push(&self, event: TraceEvent) {
        let mut events = self.events();
        if events.len() < self.capacity {
            events.push(event);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A cheap, cloneable per-device recording handle.
///
/// All clones for one device share the same buffer and arm state, so the
/// device thread, its p2p endpoint and its communication stream write one
/// coherent timeline. [`Tracer::off`] is the disabled handle: every
/// operation on it is a no-op behind a single `Option` branch.
#[derive(Clone)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(i) => f
                .debug_struct("Tracer")
                .field("device", &i.device)
                .field("armed", &i.armed.load(Ordering::Relaxed))
                .finish(),
            None => f.write_str("Tracer(off)"),
        }
    }
}

impl Tracer {
    /// The disabled tracer: records nothing, costs one branch per hook.
    pub fn off() -> Tracer {
        Tracer { inner: None }
    }

    /// Whether spans started now would be recorded.
    pub fn is_enabled(&self) -> bool {
        match &self.inner {
            Some(i) => i.armed.load(Ordering::Relaxed),
            None => false,
        }
    }

    /// Starts recording (no-op on a disabled tracer).
    pub fn arm(&self) {
        if let Some(i) = &self.inner {
            i.armed.store(true, Ordering::Relaxed);
        }
    }

    /// Stops recording without detaching the buffer.
    pub fn disarm(&self) {
        if let Some(i) = &self.inner {
            i.armed.store(false, Ordering::Relaxed);
        }
    }

    /// Nanoseconds since the owning log's epoch (0 when disabled).
    pub fn now_ns(&self) -> u64 {
        match &self.inner {
            Some(i) => i.epoch.elapsed().as_nanos() as u64,
            None => 0,
        }
    }

    /// Opens a span that records itself when dropped (or [`Span::end`]ed).
    /// On a disabled or disarmed tracer this is a no-op handle.
    pub fn span(&self, track: Track, name: &'static str, microbatch: u32, chunk: u8) -> Span {
        match &self.inner {
            Some(i) if i.armed.load(Ordering::Relaxed) => Span {
                inner: Some(SpanInner {
                    tracer: Arc::clone(i),
                    track,
                    name,
                    microbatch,
                    chunk,
                    start_ns: i.epoch.elapsed().as_nanos() as u64,
                }),
            },
            _ => Span { inner: None },
        }
    }

    /// Records a fully-formed span (used when start/end were measured by
    /// the caller).
    pub fn record(
        &self,
        track: Track,
        name: &'static str,
        microbatch: u32,
        chunk: u8,
        start_ns: u64,
        end_ns: u64,
    ) {
        if let Some(i) = &self.inner {
            if i.armed.load(Ordering::Relaxed) {
                i.push(TraceEvent {
                    device: i.device,
                    track,
                    name,
                    microbatch,
                    chunk,
                    start_ns,
                    end_ns,
                });
            }
        }
    }
}

struct SpanInner {
    tracer: Arc<TracerInner>,
    track: Track,
    name: &'static str,
    microbatch: u32,
    chunk: u8,
    start_ns: u64,
}

/// An open span tied to a [`Tracer`]; records `[start, now)` when dropped.
#[must_use = "a span records its interval when dropped; binding it to _ ends it immediately"]
pub struct Span {
    inner: Option<SpanInner>,
}

impl Span {
    /// Ends the span now (equivalent to dropping it).
    pub fn end(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(s) = self.inner.take() {
            let end_ns = s.tracer.epoch.elapsed().as_nanos() as u64;
            s.tracer.push(TraceEvent {
                device: s.tracer.device,
                track: s.track,
                name: s.name,
                microbatch: s.microbatch,
                chunk: s.chunk,
                start_ns: s.start_ns,
                end_ns,
            });
        }
    }
}

/// The collector behind a traced run: one bounded event buffer per
/// device, all sharing a single wall-clock epoch.
pub struct TraceLog {
    epoch: Instant,
    devices: Vec<Arc<TracerInner>>,
}

impl std::fmt::Debug for TraceLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceLog")
            .field("devices", &self.devices.len())
            .field("events", &self.len())
            .finish()
    }
}

impl TraceLog {
    /// A log for `devices` devices with the default per-device capacity.
    pub fn new(devices: usize) -> TraceLog {
        TraceLog::with_capacity(devices, DEFAULT_CAPACITY)
    }

    /// A log with an explicit per-device event capacity.
    pub fn with_capacity(devices: usize, capacity: usize) -> TraceLog {
        let epoch = Instant::now();
        let devices = (0..devices)
            .map(|d| {
                Arc::new(TracerInner {
                    device: d as u32,
                    epoch,
                    armed: AtomicBool::new(true),
                    events: Mutex::new(Vec::with_capacity(capacity)),
                    capacity,
                    dropped: AtomicUsize::new(0),
                })
            })
            .collect();
        TraceLog { epoch, devices }
    }

    /// Number of devices the log collects for.
    pub fn devices(&self) -> usize {
        self.devices.len()
    }

    /// The shared epoch all events are measured against.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// The recording handle for one device (armed by default; the runtime
    /// disarms warm-up iterations itself).
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range.
    pub fn tracer(&self, device: usize) -> Tracer {
        Tracer {
            inner: Some(Arc::clone(&self.devices[device])),
        }
    }

    /// Total recorded events across devices.
    pub fn len(&self) -> usize {
        self.devices.iter().map(|t| t.events().len()).sum()
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events dropped because a device buffer filled up.
    pub fn dropped(&self) -> usize {
        self.devices
            .iter()
            .map(|t| t.dropped.load(Ordering::Relaxed))
            .sum()
    }

    /// Snapshots all events, merged and sorted by `(device, track,
    /// start_ns)` — the order the Chrome exporter and the schema checks
    /// expect.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut events: Vec<TraceEvent> = self
            .devices
            .iter()
            .flat_map(|t| t.events().clone())
            .collect();
        events.sort_by_key(|e| (e.device, e.track as u8, e.start_ns, e.end_ns));
        events
    }

    /// Analyzes the recorded events into a [`TimelineReport`].
    pub fn report(&self) -> TimelineReport {
        TimelineReport::new(&self.events())
    }

    /// Renders the recorded events as Chrome trace-event JSON.
    pub fn chrome_trace(&self) -> String {
        chrome::to_chrome_trace(&self.events())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_records_nothing_and_reports_disabled() {
        let t = Tracer::off();
        assert!(!t.is_enabled());
        t.arm();
        assert!(!t.is_enabled());
        t.record(Track::Compute, "F", 0, 0, 0, 10);
        let _ = t.span(Track::Compute, "F", 0, 0);
        // Nothing observable happened; now_ns is the fixed fast-path zero.
        assert_eq!(t.now_ns(), 0);
    }

    #[test]
    fn spans_record_on_drop_with_device_attribution() {
        let log = TraceLog::new(2);
        let t1 = log.tracer(1);
        {
            let _span = t1.span(Track::Compute, "F", 3, 1);
        }
        t1.record(Track::Wait, "p2p.recv", NO_MICROBATCH, 0, 5, 9);
        let events = log.events();
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(|e| e.device == 1));
        let f = events.iter().find(|e| e.name == "F").unwrap();
        assert_eq!((f.microbatch, f.chunk, f.track), (3, 1, Track::Compute));
        assert!(f.end_ns >= f.start_ns);
        let w = events.iter().find(|e| e.name == "p2p.recv").unwrap();
        assert_eq!(w.duration_ns(), 4);
    }

    #[test]
    fn disarmed_tracer_skips_events_until_rearmed() {
        let log = TraceLog::new(1);
        let t = log.tracer(0);
        t.disarm();
        t.record(Track::Compute, "F", 0, 0, 0, 1);
        assert!(log.is_empty());
        t.arm();
        t.record(Track::Compute, "B", 0, 0, 1, 2);
        assert_eq!(log.len(), 1);
        assert_eq!(log.events()[0].name, "B");
    }

    #[test]
    fn clones_share_the_buffer_and_arm_state() {
        let log = TraceLog::new(1);
        let a = log.tracer(0);
        let b = a.clone();
        b.disarm();
        assert!(!a.is_enabled());
        a.arm();
        b.record(Track::Stream, "stream.job", NO_MICROBATCH, 0, 0, 7);
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn events_are_sorted_by_device_track_start() {
        let log = TraceLog::new(2);
        log.tracer(1).record(Track::Compute, "B", 1, 0, 10, 20);
        log.tracer(0).record(Track::Wait, "p2p.recv", 0, 0, 5, 6);
        log.tracer(0).record(Track::Compute, "F", 0, 0, 7, 9);
        log.tracer(0).record(Track::Compute, "F", 1, 0, 2, 4);
        let ev = log.events();
        let key: Vec<(u32, u8, u64)> = ev
            .iter()
            .map(|e| (e.device, e.track as u8, e.start_ns))
            .collect();
        let mut sorted = key.clone();
        sorted.sort();
        assert_eq!(key, sorted);
        assert_eq!(ev[0].name, "F");
        assert_eq!(ev[0].start_ns, 2);
    }

    fn record(t: &Tracer, start_ns: u64) {
        t.record(Track::Compute, "F", 0, 0, start_ns, start_ns + 1);
    }

    #[test]
    fn push_and_snapshot_round_trip() {
        let log = TraceLog::with_capacity(1, 8);
        assert!(log.is_empty());
        for i in 0..5 {
            record(&log.tracer(0), i);
        }
        let got = log.events();
        assert_eq!(got.len(), 5);
        assert_eq!(got[3].start_ns, 3);
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    fn overflow_counts_drops_instead_of_storing() {
        let log = TraceLog::with_capacity(1, 2);
        for i in 0..4 {
            record(&log.tracer(0), i);
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 2);
        assert_eq!(log.events().len(), 2);
    }

    /// `threads` clones of one device's tracer, released together, each
    /// record `per_thread` events with distinct start times into a
    /// `capacity`-event buffer.
    fn push_from_threads(threads: u64, per_thread: u64, capacity: usize) -> TraceLog {
        let log = TraceLog::with_capacity(1, capacity);
        let start = std::sync::Barrier::new(threads as usize);
        std::thread::scope(|scope| {
            for t in 0..threads {
                let (tracer, start) = (log.tracer(0), &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..per_thread {
                        record(&tracer, t * 1000 + i);
                    }
                });
            }
        });
        log
    }

    #[test]
    fn concurrent_pushes_from_many_threads_all_land() {
        let log = push_from_threads(8, 512, 4096);
        assert_eq!(log.dropped(), 0);
        // Every thread's every event is present exactly once.
        let mut starts: Vec<u64> = log.events().iter().map(|e| e.start_ns).collect();
        starts.dedup();
        assert_eq!(starts.len(), 4096);
    }

    #[test]
    fn concurrent_pushes_past_capacity_fill_it_and_count_the_rest() {
        let log = push_from_threads(8, 1000, 4096);
        assert_eq!(log.len(), 4096);
        assert_eq!(log.len() + log.dropped(), 8 * 1000);
    }
}
