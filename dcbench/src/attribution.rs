//! Folds the engine's per-worker event traces into per-phase self times.
//!
//! Spans on one worker's track are disjoint or properly nested (Merge
//! inside Gather, OmegaWait or Backpressure; Backpressure inside
//! Distribute). A span's self time is its duration minus the durations of
//! the spans directly nested in it.

use dcd_runtime::trace::{EventKind, Phase, WorkerTrace};

/// Phases in a fixed order; [`self_times`] indexes its result by it.
pub const PHASES: [Phase; 7] = [
    Phase::Gather,
    Phase::EvalDelta,
    Phase::Distribute,
    Phase::Merge,
    Phase::OmegaWait,
    Phase::Backpressure,
    Phase::Idle,
];

/// Self time in nanoseconds per phase of [`PHASES`], summed over workers.
pub fn self_times(traces: &[WorkerTrace]) -> [u64; PHASES.len()] {
    let mut out = [0u64; PHASES.len()];
    for trace in traces {
        // (phase slot, start, end), parents before the children they
        // contain: by start, then longest first, then outer phases first
        // (a Merge can fill its Gather exactly).
        let mut spans: Vec<(usize, u64, u64)> = trace
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Span(p) => Some((slot(p), e.ts, e.end())),
                EventKind::Instant(_) => None,
            })
            .collect();
        spans.sort_unstable_by_key(|&(p, s, e)| (s, std::cmp::Reverse(e), depth(PHASES[p])));
        // Open spans enclosing the current one, innermost last.
        let mut open: Vec<(usize, u64)> = Vec::new();
        for (p, s, e) in spans {
            while open.last().is_some_and(|&(_, end)| end < e) {
                open.pop();
            }
            let dur = e - s;
            out[p] += dur;
            if let Some(&(parent, _)) = open.last() {
                out[parent] -= dur;
            }
            open.push((p, e));
        }
    }
    out
}

/// How deep `p` can nest: Merge inside Backpressure inside Distribute.
fn depth(p: Phase) -> u8 {
    match p {
        Phase::Merge => 2,
        Phase::Backpressure => 1,
        _ => 0,
    }
}

fn slot(p: Phase) -> usize {
    PHASES
        .iter()
        .position(|&q| q == p)
        .expect("every phase is listed")
}

/// Self time of `phase` in seconds, from [`self_times`] output.
pub fn seconds(times: &[u64; PHASES.len()], phase: Phase) -> f64 {
    times[slot(phase)] as f64 / 1e9
}

/// The smallest share of a worker's traced interval that its spans cover.
pub fn coverage(traces: &[WorkerTrace]) -> f64 {
    traces.iter().map(|t| t.span_coverage()).fold(1.0, f64::min)
}

/// Events the trace rings dropped, over all workers.
pub fn dropped(traces: &[WorkerTrace]) -> u64 {
    traces.iter().map(|t| t.dropped).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcd_runtime::trace::TraceEvent;

    fn span(p: Phase, ts: u64, dur: u64) -> TraceEvent {
        TraceEvent {
            kind: EventKind::Span(p),
            ts,
            dur,
            iteration: 0,
            a: 0,
            b: 0,
            c: 0,
        }
    }

    #[test]
    fn nested_spans_are_subtracted_from_their_direct_parent_only() {
        // Distribute [0, 100) ⊃ Backpressure [10, 60) ⊃ Merge [20, 50);
        // Gather [100, 130) ⊃ Merge [100, 130); Idle [130, 140).
        // Recorded in span-end order, as the engine does.
        let trace = WorkerTrace {
            worker: 0,
            events: vec![
                span(Phase::Merge, 20, 30),
                span(Phase::Backpressure, 10, 50),
                span(Phase::Distribute, 0, 100),
                span(Phase::Merge, 100, 30),
                span(Phase::Gather, 100, 30),
                span(Phase::Idle, 130, 10),
            ],
            dropped: 0,
        };
        let t = self_times(&[trace]);
        assert_eq!(t[slot(Phase::Distribute)], 50);
        assert_eq!(t[slot(Phase::Backpressure)], 20);
        assert_eq!(t[slot(Phase::Merge)], 60);
        assert_eq!(t[slot(Phase::Gather)], 0);
        assert_eq!(t[slot(Phase::Idle)], 10);
        assert_eq!(
            t.iter().sum::<u64>(),
            140,
            "self times partition the covered time"
        );
    }
}
