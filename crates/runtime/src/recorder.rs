//! Per-worker observability: one [`Recorder`] per worker counts what the
//! worker did and, when tracing is on, records *when* it did it.
//!
//! The DWS controller (§4.2) is a feedback loop driven by per-worker
//! arrival/service statistics; diagnosing it — and parallel imbalance in
//! general — needs the per-worker load/idle breakdown to be visible, both
//! as totals and as a timeline. The worker thread is the only writer;
//! other threads (the engine, a future live exporter) read via
//! [`Recorder::snapshot`] and [`Recorder::take_trace`]. All counters are
//! relaxed atomics: a counter bump is one uncontended add on a cache line
//! owned by the recording worker.
//!
//! Every phase interval is recorded once, through a [`PhaseGuard`]: it
//! reads the clock when the phase starts and once more when it ends, adds
//! the elapsed nanoseconds to that phase's counter, and, when tracing is
//! on, pushes a span with the same start and duration into the event
//! ring. The counters and the trace therefore agree exactly. Phases that
//! nest inside another (Merge, Backpressure) are trace-only: on an
//! untraced run their guard reads no clock and records nothing.
//!
//! The ω/τ trajectory of the DWS controller is captured in a
//! [`SampleRing`]: a fixed-capacity ring that keeps the *last* `cap`
//! samples (the tail of the trajectory is what matters near the fixpoint)
//! and counts how many older ones were overwritten. The same call stamps
//! the matching `DwsDecision` instant into the trace.

use crate::trace::{EventKind, Mark, Phase, TraceEvent, WorkerTrace};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One observation of the DWS controller state, taken after
/// `update_params` (Algorithm 2, line 12).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DwsSample {
    /// Local iteration index at which the sample was taken.
    pub iteration: u64,
    /// The batch-size threshold `ω_i` chosen by Kingman's formula.
    pub omega: u64,
    /// The wait budget `τ_i`, in nanoseconds.
    pub tau_ns: u64,
    /// Pending delta size when the worker proceeded to iterate.
    pub delta_len: u64,
}

/// Fixed-capacity ring of [`DwsSample`]s: keeps the newest `cap` samples.
struct SampleRing {
    buf: Vec<DwsSample>,
    /// Total samples ever pushed (so `pushed - buf.len()` were dropped).
    pushed: u64,
    /// Next slot to overwrite once the ring is full.
    next: usize,
    cap: usize,
}

impl SampleRing {
    fn new(cap: usize) -> Self {
        SampleRing {
            buf: Vec::with_capacity(cap.min(1024)),
            pushed: 0,
            next: 0,
            cap: cap.max(1),
        }
    }

    fn push(&mut self, s: DwsSample) {
        self.pushed += 1;
        if self.buf.len() < self.cap {
            self.buf.push(s);
        } else {
            self.buf[self.next] = s;
            self.next = (self.next + 1) % self.cap;
        }
    }

    /// Samples in chronological order.
    fn chronological(&self) -> Vec<DwsSample> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.next..]);
        out.extend_from_slice(&self.buf[..self.next]);
        out
    }
}

/// Default capacity of the ω/τ sample ring.
pub const DEFAULT_SAMPLE_CAP: usize = 256;

/// The bounded event buffer of a traced [`Recorder`]. Preallocated, so
/// recording never allocates. A full buffer keeps its oldest events: a
/// trace truncated at the tail is a coherent prefix of the schedule, and
/// the drop count says how much is missing.
struct EventRing {
    /// Origin of event timestamps, shared by every recorder of a run so
    /// the exported tracks align.
    epoch: Instant,
    buf: Vec<TraceEvent>,
    cap: usize,
    dropped: u64,
}

impl EventRing {
    fn push(&mut self, ev: TraceEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.dropped += 1;
        }
    }
}

/// Panic message for a recorder lock whose holder panicked.
const POISONED: &str = "a thread panicked while recording";

/// Number of [`Phase`] variants (`Idle` is the last): the length of the
/// phase-time array.
const PHASES: usize = Phase::Idle as usize + 1;

/// Per-worker recorder: counters for the Gather/Iterate/Distribute loop,
/// per-phase wall-clock time, cache effectiveness, the DWS ω/τ
/// trajectory and, when tracing, the event timeline.
pub struct Recorder {
    iterations: AtomicU64,
    tuples_processed: AtomicU64,
    tuples_sent: AtomicU64,
    batches_out: AtomicU64,
    batches_in: AtomicU64,
    tuples_in: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_in: AtomicU64,
    edb_resident_bytes: AtomicU64,
    local_new: AtomicU64,
    backpressure_retries: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    probe_hits: AtomicU64,
    probe_reuse: AtomicU64,
    kernel_batches: AtomicU64,
    kernel_rows: AtomicU64,
    /// Nanoseconds per phase, indexed by `Phase as usize`. The nested
    /// phases' slots (Merge, Backpressure) fill only on traced runs and
    /// are not reported.
    phase_ns: [AtomicU64; PHASES],
    samples: Mutex<SampleRing>,
    /// The event timeline; `None` when tracing is off.
    events: Option<Mutex<EventRing>>,
}

/// A coherent copy of one worker's metrics (taken after the worker
/// finished, or best-effort mid-run).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Local semi-naive iterations executed.
    pub iterations: u64,
    /// Delta tuples fed into the Iterate operator.
    pub tuples_processed: u64,
    /// Tuples sent to other workers (each counted once per destination).
    pub tuples_sent: u64,
    /// Outgoing batches flushed into SPSC queues.
    pub batches_out: u64,
    /// Incoming batches drained.
    pub batches_in: u64,
    /// Tuples received in those batches.
    pub tuples_in: u64,
    /// Payload bytes in outgoing batches (frame values crossing the
    /// exchange, producer side).
    pub bytes_sent: u64,
    /// Payload bytes in drained inbound batches (consumer side).
    pub bytes_in: u64,
    /// Resident bytes of the EDB slices unique to this worker
    /// (partitioned relations only — replicated relations are shared
    /// and accounted once at the run level).
    pub edb_resident_bytes: u64,
    /// Local merges that produced a new/improved logical row.
    pub local_new: u64,
    /// Full-queue retry loops taken while flushing outgoing batches.
    pub backpressure_retries: u64,
    /// Nanoseconds parked: stratum-entry and post-init barriers, the
    /// Global round barrier, and the idle/termination protocol.
    pub idle_ns: u64,
    /// Nanoseconds spent inside the DWS ω-wait window (Alg. 2 l. 5–8).
    pub omega_wait_ns: u64,
    /// Nanoseconds draining inbound queues (Gather).
    pub gather_ns: u64,
    /// Nanoseconds evaluating delta rules (Iterate).
    pub iterate_ns: u64,
    /// Nanoseconds routing/merging derived tuples (Distribute).
    pub distribute_ns: u64,
    /// Existence-cache hits across this worker's relation stores.
    pub cache_hits: u64,
    /// Existence-cache misses across this worker's relation stores.
    pub cache_misses: u64,
    /// Index descents performed by the batched kernel's first probes.
    pub probe_hits: u64,
    /// Batched first probes that reused the previous row's bucket instead
    /// of descending the index again.
    pub probe_reuse: u64,
    /// `(rel, route, rule)` batches the kernel executed.
    pub kernel_batches: u64,
    /// Delta rows fed through those batches.
    pub kernel_rows: u64,
    /// The newest ω/τ samples, chronological.
    pub dws_samples: Vec<DwsSample>,
    /// Older samples overwritten by the ring.
    pub samples_dropped: u64,
}

impl MetricsSnapshot {
    /// Existence-cache hit rate in `[0, 1]` (0 when the caches were idle).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Mean delta rows per kernel batch (0 when the batched kernel never
    /// ran, e.g. with `batch_kernel` off).
    pub fn rows_per_batch(&self) -> f64 {
        if self.kernel_batches == 0 {
            0.0
        } else {
            self.kernel_rows as f64 / self.kernel_batches as f64
        }
    }
}

/// One open phase interval, from [`Recorder::phase`] or
/// [`Recorder::nested`]. Ending it records the interval once: into the
/// phase's time counter and, when tracing, as a span. A guard dropped
/// without being ended records nothing.
#[must_use = "a phase is recorded only when it is ended"]
pub struct PhaseGuard<'r> {
    rec: &'r Recorder,
    phase: Phase,
    /// `None` for a nested phase on an untraced run.
    start: Option<Instant>,
}

impl PhaseGuard<'_> {
    /// Time since the phase began (zero for an untraced nested phase).
    pub fn elapsed(&self) -> Duration {
        self.start.map_or(Duration::ZERO, |s| s.elapsed())
    }

    /// Ends the phase with no span arguments.
    #[inline]
    pub fn end(self) {
        self.end_args(0, 0, 0);
    }

    /// Ends the phase; a traced span carries `a`, `b`, `c`.
    #[inline]
    pub fn end_args(self, a: u64, b: u64, c: u64) {
        let Some(start) = self.start else {
            return;
        };
        let dur = start.elapsed().as_nanos() as u64;
        let rec = self.rec;
        rec.phase_ns[self.phase as usize].fetch_add(dur, Ordering::Relaxed);
        let kind = EventKind::Span(self.phase);
        rec.push_event(kind, start, dur, a, b, c);
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new(DEFAULT_SAMPLE_CAP)
    }
}

impl Recorder {
    /// An untraced recorder whose sample ring keeps `sample_cap` entries.
    pub fn new(sample_cap: usize) -> Self {
        Recorder {
            iterations: AtomicU64::new(0),
            tuples_processed: AtomicU64::new(0),
            tuples_sent: AtomicU64::new(0),
            batches_out: AtomicU64::new(0),
            batches_in: AtomicU64::new(0),
            tuples_in: AtomicU64::new(0),
            bytes_sent: AtomicU64::new(0),
            bytes_in: AtomicU64::new(0),
            edb_resident_bytes: AtomicU64::new(0),
            local_new: AtomicU64::new(0),
            backpressure_retries: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            probe_hits: AtomicU64::new(0),
            probe_reuse: AtomicU64::new(0),
            kernel_batches: AtomicU64::new(0),
            kernel_rows: AtomicU64::new(0),
            phase_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            samples: Mutex::new(SampleRing::new(sample_cap)),
            events: None,
        }
    }

    /// Turns on tracing: up to `cap` events (preallocated), timestamped
    /// relative to `epoch`.
    pub fn with_trace(mut self, cap: usize, epoch: Instant) -> Self {
        let cap = cap.max(1);
        self.events = Some(Mutex::new(EventRing {
            epoch,
            buf: Vec::with_capacity(cap),
            cap,
            dropped: 0,
        }));
        self
    }

    /// Opens a top-level phase: reads the clock now and once more when
    /// the guard is ended.
    #[inline]
    pub fn phase(&self, phase: Phase) -> PhaseGuard<'_> {
        PhaseGuard {
            rec: self,
            phase,
            start: Some(Instant::now()),
        }
    }

    /// Opens a phase nested inside another (Merge, Backpressure). It is
    /// trace-only: untraced, the guard reads no clock and records nothing.
    #[inline]
    pub fn nested(&self, phase: Phase) -> PhaseGuard<'_> {
        PhaseGuard {
            rec: self,
            phase,
            start: self.events.is_some().then(Instant::now),
        }
    }

    /// Records an instant mark stamped now (a no-op untraced).
    #[inline]
    pub fn mark(&self, mark: Mark, a: u64, b: u64, c: u64) {
        if self.events.is_some() {
            self.push_event(EventKind::Instant(mark), Instant::now(), 0, a, b, c);
        }
    }

    /// Records one DWS controller decision: ω, τ in nanoseconds and the
    /// pending delta size. It becomes both a [`DwsSample`] and, when
    /// tracing, a `DwsDecision` instant with the same values.
    pub fn dws_decision(&self, omega: u64, tau_ns: u64, delta_len: u64) {
        self.samples.lock().expect(POISONED).push(DwsSample {
            iteration: self.iterations(),
            omega,
            tau_ns,
            delta_len,
        });
        self.mark(Mark::DwsDecision, omega, tau_ns, delta_len);
    }

    /// The iteration an event is stamped with. EvalDelta and Distribute
    /// spans and the Iteration mark belong to the iteration in progress
    /// and carry its 0-based index; every other event carries the number
    /// of iterations started so far.
    fn stamp(&self, kind: EventKind) -> u64 {
        let n = self.iterations();
        match kind {
            EventKind::Span(Phase::EvalDelta | Phase::Distribute)
            | EventKind::Instant(Mark::Iteration) => n.saturating_sub(1),
            _ => n,
        }
    }

    #[inline]
    fn push_event(&self, kind: EventKind, start: Instant, dur: u64, a: u64, b: u64, c: u64) {
        let Some(events) = &self.events else {
            return;
        };
        let iteration = self.stamp(kind);
        let mut ring = events.lock().expect(POISONED);
        let ev = TraceEvent {
            kind,
            ts: start.saturating_duration_since(ring.epoch).as_nanos() as u64,
            dur,
            iteration,
            a,
            b,
            c,
        };
        ring.push(ev);
    }

    /// Records one local iteration that processed `tuples` delta tuples.
    #[inline]
    pub fn note_iteration(&self, tuples: u64) {
        self.iterations.fetch_add(1, Ordering::Relaxed);
        self.tuples_processed.fetch_add(tuples, Ordering::Relaxed);
    }

    /// Iterations recorded so far.
    #[inline]
    pub fn iterations(&self) -> u64 {
        self.iterations.load(Ordering::Relaxed)
    }

    /// Records one outgoing batch of `tuples` tuples carrying `bytes`
    /// payload bytes.
    #[inline]
    pub fn note_batch_out(&self, tuples: u64, bytes: u64) {
        self.batches_out.fetch_add(1, Ordering::Relaxed);
        self.tuples_sent.fetch_add(tuples, Ordering::Relaxed);
        self.bytes_sent.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records one drained inbound batch of `tuples` tuples carrying
    /// `bytes` payload bytes.
    #[inline]
    pub fn note_batch_in(&self, tuples: u64, bytes: u64) {
        self.batches_in.fetch_add(1, Ordering::Relaxed);
        self.tuples_in.fetch_add(tuples, Ordering::Relaxed);
        self.bytes_in.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records the resident bytes of this worker's private EDB slices
    /// (set once by the engine after the catalog is built).
    #[inline]
    pub fn record_edb_resident(&self, bytes: u64) {
        self.edb_resident_bytes.store(bytes, Ordering::Relaxed);
    }

    /// Records `k` new/improved local merges.
    #[inline]
    pub fn note_local_new(&self, k: u64) {
        self.local_new.fetch_add(k, Ordering::Relaxed);
    }

    /// Records one full-queue retry while flushing an outgoing batch.
    #[inline]
    pub fn note_backpressure_retry(&self) {
        self.backpressure_retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds in cache hit/miss totals (called once per worker, at the end
    /// of the run, from the storage layer's counters).
    pub fn record_cache(&self, hits: u64, misses: u64) {
        self.cache_hits.fetch_add(hits, Ordering::Relaxed);
        self.cache_misses.fetch_add(misses, Ordering::Relaxed);
    }

    /// Folds in the batched kernel's probe-memoization counters (called
    /// once per worker, at the end of the run, from the eval scratch).
    pub fn record_probes(&self, hits: u64, reuse: u64) {
        self.probe_hits.fetch_add(hits, Ordering::Relaxed);
        self.probe_reuse.fetch_add(reuse, Ordering::Relaxed);
    }

    /// Records one batched-kernel invocation over `rows` delta rows.
    #[inline]
    pub fn note_kernel_batch(&self, rows: u64) {
        self.kernel_batches.fetch_add(1, Ordering::Relaxed);
        self.kernel_rows.fetch_add(rows, Ordering::Relaxed);
    }

    /// Takes a coherent copy of every counter plus the sample ring.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let ring = self.samples.lock().expect(POISONED);
        let ns = |p: Phase| self.phase_ns[p as usize].load(Ordering::Relaxed);
        MetricsSnapshot {
            iterations: self.iterations.load(Ordering::Relaxed),
            tuples_processed: self.tuples_processed.load(Ordering::Relaxed),
            tuples_sent: self.tuples_sent.load(Ordering::Relaxed),
            batches_out: self.batches_out.load(Ordering::Relaxed),
            batches_in: self.batches_in.load(Ordering::Relaxed),
            tuples_in: self.tuples_in.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            edb_resident_bytes: self.edb_resident_bytes.load(Ordering::Relaxed),
            local_new: self.local_new.load(Ordering::Relaxed),
            backpressure_retries: self.backpressure_retries.load(Ordering::Relaxed),
            idle_ns: ns(Phase::Idle),
            omega_wait_ns: ns(Phase::OmegaWait),
            gather_ns: ns(Phase::Gather),
            iterate_ns: ns(Phase::EvalDelta),
            distribute_ns: ns(Phase::Distribute),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            probe_hits: self.probe_hits.load(Ordering::Relaxed),
            probe_reuse: self.probe_reuse.load(Ordering::Relaxed),
            kernel_batches: self.kernel_batches.load(Ordering::Relaxed),
            kernel_rows: self.kernel_rows.load(Ordering::Relaxed),
            dws_samples: ring.chronological(),
            samples_dropped: ring.pushed - ring.buf.len() as u64,
        }
    }

    /// Drains the event timeline into a [`WorkerTrace`] for worker
    /// `worker` (empty when tracing is off).
    pub fn take_trace(&self, worker: usize) -> WorkerTrace {
        let (events, dropped) = match &self.events {
            Some(ring) => {
                let mut ring = ring.lock().expect(POISONED);
                (std::mem::take(&mut ring.buf), ring.dropped)
            }
            None => (Vec::new(), 0),
        };
        WorkerTrace {
            worker,
            events,
            dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced(cap: usize) -> Recorder {
        Recorder::default().with_trace(cap, Instant::now())
    }

    fn spans(tr: &WorkerTrace, phase: Phase) -> Vec<&TraceEvent> {
        tr.events
            .iter()
            .filter(|e| e.kind == EventKind::Span(phase))
            .collect()
    }

    #[test]
    fn counters_accumulate() {
        let m = Recorder::default();
        m.note_iteration(10);
        m.note_iteration(5);
        m.note_batch_out(100, 1600);
        m.note_batch_in(40, 640);
        m.note_batch_in(2, 32);
        m.record_edb_resident(4096);
        m.note_local_new(7);
        m.note_backpressure_retry();
        m.record_cache(9, 1);
        m.record_probes(12, 30);
        m.note_kernel_batch(8);
        m.note_kernel_batch(4);
        let s = m.snapshot();
        assert_eq!(s.iterations, 2);
        assert_eq!(s.tuples_processed, 15);
        assert_eq!((s.batches_out, s.tuples_sent), (1, 100));
        assert_eq!((s.batches_in, s.tuples_in), (2, 42));
        assert_eq!((s.bytes_sent, s.bytes_in), (1600, 672));
        assert_eq!(s.edb_resident_bytes, 4096);
        assert_eq!(s.local_new, 7);
        assert_eq!(s.backpressure_retries, 1);
        assert_eq!((s.cache_hits, s.cache_misses), (9, 1));
        assert!((s.cache_hit_rate() - 0.9).abs() < 1e-12);
        assert_eq!((s.probe_hits, s.probe_reuse), (12, 30));
        assert_eq!((s.kernel_batches, s.kernel_rows), (2, 12));
        assert!((s.rows_per_batch() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn phase_guard_feeds_its_own_counter() {
        let m = Recorder::default();
        let counted = [
            Phase::Idle,
            Phase::OmegaWait,
            Phase::Gather,
            Phase::EvalDelta,
            Phase::Distribute,
        ];
        for (i, &p) in counted.iter().enumerate() {
            let g = m.phase(p);
            std::thread::sleep(Duration::from_millis(1 + i as u64));
            g.end();
        }
        let s = m.snapshot();
        let got = [
            s.idle_ns,
            s.omega_wait_ns,
            s.gather_ns,
            s.iterate_ns,
            s.distribute_ns,
        ];
        for (i, ns) in got.into_iter().enumerate() {
            assert!(ns >= (1 + i as u64) * 1_000_000, "{:?}: {ns}ns", counted[i]);
        }
        // Untraced, nested phases record nothing and a dropped guard
        // records nothing either.
        let g = m.nested(Phase::Merge);
        assert_eq!(g.elapsed(), Duration::ZERO);
        g.end_args(1, 2, 3);
        let _ = m.phase(Phase::Gather);
        assert_eq!(m.snapshot(), s);
        assert!(m.take_trace(0).events.is_empty());
    }

    #[test]
    fn traced_span_and_counter_are_one_interval() {
        let m = traced(128);
        let g = m.phase(Phase::Gather);
        std::thread::sleep(Duration::from_millis(2));
        g.end();
        m.mark(Mark::Iteration, 10, 4, 1);
        let s = m.snapshot();
        let tr = m.take_trace(0);
        assert_eq!(tr.events.len(), 2);
        let g = spans(&tr, Phase::Gather)[0];
        assert!(g.dur >= 2_000_000, "span of a 2ms sleep, got {}ns", g.dur);
        assert_eq!(g.dur, s.gather_ns, "span and counter are the same read");
        let i = &tr.events[1];
        assert_eq!(i.kind, EventKind::Instant(Mark::Iteration));
        assert_eq!((i.a, i.b, i.c), (10, 4, 1));
        assert!(i.ts >= g.end(), "instant stamped after the span ended");
    }

    #[test]
    fn nested_phases_are_trace_only() {
        let m = traced(16);
        let outer = m.phase(Phase::Distribute);
        let inner = m.nested(Phase::Backpressure);
        std::thread::sleep(Duration::from_millis(1));
        inner.end();
        outer.end_args(5, 6, 0);
        let s = m.snapshot();
        let tr = m.take_trace(0);
        let (bp, d) = (
            spans(&tr, Phase::Backpressure)[0],
            spans(&tr, Phase::Distribute)[0],
        );
        assert!(
            bp.ts >= d.ts && bp.end() <= d.end(),
            "nested inside its parent"
        );
        assert_eq!(s.distribute_ns, d.dur);
        assert_eq!((d.a, d.b), (5, 6));
    }

    #[test]
    fn events_carry_the_iteration_they_belong_to() {
        let m = traced(16);
        m.note_iteration(3);
        m.note_iteration(3);
        m.phase(Phase::EvalDelta).end();
        m.phase(Phase::Distribute).end();
        m.mark(Mark::Iteration, 0, 0, 0);
        m.phase(Phase::Gather).end();
        m.nested(Phase::Merge).end();
        m.mark(Mark::TerminationRound, 1, 0, 0);
        let iters: Vec<u64> = m.take_trace(0).events.iter().map(|e| e.iteration).collect();
        assert_eq!(iters, vec![1, 1, 1, 2, 2, 2]);
    }

    #[test]
    fn overflow_keeps_prefix_and_counts_drops() {
        // A tiny ring must keep its first `cap` events and report exactly
        // how many later ones were discarded.
        let m = traced(4);
        for i in 0..10u64 {
            m.mark(Mark::Iteration, i, 0, 0);
        }
        let tr = m.take_trace(7);
        assert_eq!(tr.worker, 7);
        assert_eq!(tr.dropped, 6);
        let firsts: Vec<u64> = tr.events.iter().map(|e| e.a).collect();
        assert_eq!(firsts, vec![0, 1, 2, 3], "coherent prefix, not a ring tail");
    }

    #[test]
    fn empty_snapshot_is_zero() {
        let m = Recorder::default();
        let s = m.snapshot();
        assert_eq!(s, MetricsSnapshot::default());
        assert_eq!(s.cache_hit_rate(), 0.0);
        assert_eq!(s.rows_per_batch(), 0.0);
        m.mark(Mark::Iteration, 1, 0, 0);
        assert_eq!(m.take_trace(0), WorkerTrace::default());
    }

    #[test]
    fn dws_decision_fills_sample_and_instant() {
        let m = traced(16);
        m.note_iteration(1);
        m.dws_decision(8, 500, 3);
        let s = m.snapshot();
        let want = DwsSample {
            iteration: 1,
            omega: 8,
            tau_ns: 500,
            delta_len: 3,
        };
        assert_eq!(s.dws_samples, vec![want]);
        let ev = m.take_trace(0).events[0];
        assert_eq!(ev.kind, EventKind::Instant(Mark::DwsDecision));
        assert_eq!((ev.iteration, ev.a, ev.b, ev.c), (1, 8, 500, 3));
    }

    #[test]
    fn sample_ring_keeps_newest_in_order() {
        let m = Recorder::new(4);
        for i in 0..10u64 {
            m.note_iteration(0);
            m.dws_decision(i * 2, i * 3, i);
        }
        let s = m.snapshot();
        assert_eq!(s.samples_dropped, 6);
        let iters: Vec<u64> = s.dws_samples.iter().map(|x| x.iteration).collect();
        assert_eq!(iters, vec![7, 8, 9, 10], "newest four, chronological");
    }

    #[test]
    fn sample_ring_below_capacity_keeps_all() {
        let m = Recorder::new(8);
        for i in 0..3u64 {
            m.dws_decision(i, 0, 0);
        }
        let s = m.snapshot();
        assert_eq!(s.samples_dropped, 0);
        assert_eq!(s.dws_samples.len(), 3);
        assert_eq!(s.dws_samples[2].omega, 2);
    }

    #[test]
    fn recorder_is_shareable_across_threads() {
        let m = traced(1 << 12);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        m.note_iteration(1);
                        m.mark(Mark::Iteration, 0, 0, 0);
                    }
                });
            }
        });
        assert_eq!(m.snapshot().iterations, 400);
        assert_eq!(m.take_trace(0).events.len(), 400);
    }
}
