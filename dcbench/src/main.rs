//! The repository benchmark: one workload per invocation, at 1 worker and
//! at `nproc` workers, every output checked against a native oracle.
//!
//! ```text
//! cargo run --release --manifest-path dcbench/Cargo.toml -- \
//!     --workload tc-rmat --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, measured untraced;
//! `--trace 1` prints the per-layer metrics, from traced runs. The last
//! line of standard output is one JSON object; the line before it is the
//! run's record with the host fingerprint. `NOTES.md` explains the
//! workloads and metrics.

mod attribution;
mod workloads;

use attribution::self_times;
use dcd_common::{Frame, Partitioner, Tuple};
use dcd_frontend::physical::{plan, PhysicalPlan, PlannerConfig};
use dcd_runtime::trace::Phase;
use dcd_storage::{AggFunc, AggRelation, SetRelation};
use dcdatalog::{EdbCatalog, Engine, EngineConfig, EvalReport, EvalResult, Program};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{instances, Input, Workload};

/// Repetitions of each single-layer replay.
const REPLAY_REPS: usize = 5;
/// An engine run longer than this counts as failed.
const RUN_TIMEOUT: Duration = Duration::from_secs(60);
/// Below this share of traced time covered by spans, the per-phase split
/// is unresolved and is not printed.
const MIN_COVERAGE: f64 = 0.95;

/// End-to-end metric names and units, as declared in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("run_s_1w", "s"),
    ("run_s_nw", "s"),
    ("speedup_nw", "x"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metric names and units, as declared in `BENCHMARK.json`.
const PER_LAYER: [(&str, &str); 33] = [
    ("frontend.parse_s", "s"),
    ("frontend.plan_s", "s"),
    ("engine.load_s", "s"),
    ("engine.outside_eval_s", "s"),
    ("catalog.seal_s", "s"),
    ("catalog.edb_bytes", "bytes"),
    ("worker.merge_s", "s"),
    ("worker.distribute_s", "s"),
    ("worker.evaldelta_s", "s"),
    ("worker.gather_s", "s"),
    ("worker.idle_s", "s"),
    ("worker.omega_wait_s", "s"),
    ("worker.backpressure_s", "s"),
    ("worker.iterations", "count"),
    ("worker.imbalance", "x"),
    ("worker.merge_share_1w", "ratio"),
    ("worker.evaldelta_share_1w", "ratio"),
    ("eval.delta_rows", "count"),
    ("eval.delta_rows_per_result", "ratio"),
    ("eval.rows_per_batch", "count"),
    ("eval.probe_reuse_ratio", "ratio"),
    ("storage.cache_hit_ratio", "ratio"),
    ("storage.local_new", "count"),
    ("storage.set_insert_ns_per_row", "ns"),
    ("storage.agg_merge_ns_per_row", "ns"),
    ("runtime.tuples_sent", "count"),
    ("runtime.exchanged_bytes", "bytes"),
    ("runtime.rows_per_batch_out", "count"),
    ("runtime.backpressure_retries", "count"),
    ("common.frame_roundtrip_ns_per_row", "ns"),
    ("trace.overhead_pct", "%"),
    ("trace.dropped_events", "count"),
    ("trace.coverage", "ratio"),
];

/// Command-line options.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => {
                let parsed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse(),
                };
                seed = Some(parsed.map_err(|e| format!("--seed {value}: {e}"))?);
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds {value}: must be a non-negative number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dcbench: {e}");
            eprintln!("usage: dcbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let inputs = instances(args.workload, args.seed);
    let outcome = match measure(&inputs, nproc(), args.seconds, args.trace) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("dcbench: {}: {e}", args.workload.name());
            return ExitCode::from(2);
        }
    };
    println!("{}", record_json(&args, &outcome));
    println!("{}", result_json(&outcome));
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What one invocation measured.
struct Outcome {
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)`, in declaration order; empty when a run failed.
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Sizes and sample counts for the record line.
    notes: Vec<(&'static str, String)>,
}

/// An engine with its input loaded, and the config it was planned under.
struct Planned<'a> {
    engine: Engine,
    cfg: EngineConfig,
    input: &'a Input,
}

/// One checked engine run.
struct Run {
    wall_s: f64,
    /// Peak resident set of the process during the run.
    peak_mb: f64,
    result: EvalResult,
}

/// What every run of one invocation shares: the count of attempted and
/// failed runs (an engine error, a timeout, or an output the oracle
/// rejects) and the set-up timings.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
    /// Seconds of `Program::parse`, `Engine::new` and `Engine::load_edb`,
    /// one entry per set-up.
    setups: Vec<[f64; 3]>,
}

impl Tally {
    /// Plans `input` under `cfg`, timing each step. The rows are copied
    /// before the clock starts: generation is not set-up.
    fn set_up(&mut self, input: &Input, cfg: &EngineConfig) -> Result<Engine, String> {
        let err = |e: dcdatalog::DcdError| e.to_string();
        let rows = input.rows.clone();
        let t0 = Instant::now();
        let mut program = Program::parse(input.source).map_err(err)?;
        for &(name, value) in &input.params {
            program = program.with_param(name, value);
        }
        let t1 = Instant::now();
        let mut engine = Engine::new(program, cfg.clone()).map_err(err)?;
        let t2 = Instant::now();
        engine.load_edb(input.edb, rows).map_err(err)?;
        let t3 = Instant::now();
        self.setups
            .push([t1 - t0, t2 - t1, t3 - t2].map(|d| d.as_secs_f64()));
        Ok(engine)
    }

    /// Median seconds of the set-up steps (parse, plan, load) and of
    /// their sum.
    fn setup_medians(&self) -> [f64; 4] {
        let step =
            |f: &dyn Fn(&[f64; 3]) -> f64| median(&self.setups.iter().map(f).collect::<Vec<_>>());
        [
            step(&|s| s[0]),
            step(&|s| s[1]),
            step(&|s| s[2]),
            step(&|s| s.iter().sum()),
        ]
    }

    /// Runs the engine once and checks its output; `None` when it failed.
    /// Then sets the same input up once more, so that set-up time is
    /// sampled all through the run rather than in one burst.
    fn run(&mut self, p: &Planned) -> Option<Run> {
        self.attempted += 1;
        reset_peak_rss();
        let t = Instant::now();
        let result = p.engine.run();
        let wall_s = t.elapsed().as_secs_f64();
        let peak_mb = peak_rss_mb();
        let checked = result.map_err(|e| e.to_string()).and_then(|r| {
            p.input
                .expected
                .check(r.relation(p.input.result))
                .map(|()| r)
        });
        let set_up = self.set_up(p.input, &p.cfg);
        match checked.and_then(|r| set_up.map(|_| r)) {
            Ok(result) => Some(Run {
                wall_s,
                peak_mb,
                result,
            }),
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }

    fn fail(&mut self, e: String) {
        eprintln!("dcbench: failed: {e}");
        self.failed += 1;
        self.first_error.get_or_insert(e);
    }

    /// The outcome, with no metrics when any run failed.
    fn outcome(
        &self,
        metrics: Vec<(&'static str, f64, &'static str)>,
        mut notes: Vec<(&'static str, String)>,
    ) -> Outcome {
        if let Some(e) = &self.first_error {
            notes.push(("first_error", json_string(e)));
        }
        notes.push(("setups", self.setups.len().to_string()));
        Outcome {
            attempted: self.attempted,
            failed: self.failed,
            metrics: if self.failed == 0 {
                metrics
            } else {
                Vec::new()
            },
            notes,
        }
    }
}

fn config(workers: usize, trace: bool) -> EngineConfig {
    EngineConfig {
        timeout: Some(RUN_TIMEOUT),
        ..EngineConfig::with_workers(workers).tracing(trace)
    }
}

/// One engine per (config, input), grouped by config.
fn plan_all<'a>(
    tally: &mut Tally,
    inputs: &'a [Input],
    configs: &[EngineConfig],
) -> Result<Vec<Vec<Planned<'a>>>, String> {
    configs
        .iter()
        .map(|cfg| {
            inputs
                .iter()
                .map(|input| {
                    let engine = tally.set_up(input, cfg)?;
                    Ok(Planned {
                        engine,
                        cfg: cfg.clone(),
                        input,
                    })
                })
                .collect()
        })
        .collect()
}

fn measure(inputs: &[Input], n: usize, seconds: f64, trace: bool) -> Result<Outcome, String> {
    if trace {
        measure_layers(inputs, n, seconds)
    } else {
        measure_end_to_end(inputs, n, seconds)
    }
}

/// Sizes of the inputs and results, for the record line.
fn size_notes(inputs: &[Input]) -> Vec<(&'static str, String)> {
    let list = |f: &dyn Fn(&Input) -> usize| {
        let sizes: Vec<String> = inputs.iter().map(|i| f(i).to_string()).collect();
        format!("[{}]", sizes.join(", "))
    };
    vec![
        ("input_rows", list(&|i| i.rows.len())),
        ("result_rows", list(&|i| i.expected.len())),
    ]
}

/// Untraced runs in three blocks: 1 worker for a quarter of `seconds`,
/// `n` workers for half, 1 worker for the last quarter. Blocks rather
/// than alternation, because a run leaves the heap shaped for its worker
/// count and the next run at the other count pays for it; the 1-n-1
/// order cancels a linear drift of the host between the two counts.
fn measure_end_to_end(inputs: &[Input], n: usize, seconds: f64) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let planned = plan_all(&mut tally, inputs, &[config(1, false), config(n, false)])?;
    let mut walls: [Vec<f64>; 2] = Default::default();
    let mut peaks: [Vec<f64>; 2] = Default::default();
    let mut warm = Vec::new();
    for (c, share) in [(0, 0.25), (1, 0.5), (0, 0.25)] {
        let runs: Vec<&Planned> = planned[c].iter().collect();
        warm.push(block(&mut tally, &runs, share * seconds, |_, run| {
            walls[c].push(run.wall_s);
            peaks[c].push(run.peak_mb);
        }));
    }
    cross_check(&mut tally, &planned[0][0], &warm[0], &warm[1], n);
    let [one, many] = &walls;
    let mut notes = size_notes(inputs);
    notes.extend([
        ("samples_1w", one.len().to_string()),
        ("samples_nw", many.len().to_string()),
        ("run_s_1w_range", range(one)),
        ("run_s_nw_range", range(many)),
    ]);
    let (r1, rn) = (median(one), median(many));
    // The larger of the typical peaks at either worker count.
    let peak = median(&peaks[0]).max(median(&peaks[1]));
    let values = [tally.setup_medians()[3], r1, rn, r1 / rn, peak];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(k, u), v)| (k, v, u))
        .collect();
    Ok(tally.outcome(metrics, notes))
}

/// One untimed warm-up run of `runs[0]`, then `runs` in turn until `secs`
/// seconds have passed, but at least once each. Every run is checked;
/// each passing timed run goes to `on_run` with its index in `runs`.
/// Returns the warm-up output.
fn block(
    tally: &mut Tally,
    runs: &[&Planned],
    secs: f64,
    mut on_run: impl FnMut(usize, Run),
) -> Option<EvalResult> {
    let warm = tally.run(runs[0]).map(|r| r.result);
    let start = Instant::now();
    for (k, i) in (0..runs.len()).cycle().enumerate() {
        if tally.failed > 0 || (k >= runs.len() && start.elapsed().as_secs_f64() >= secs) {
            break;
        }
        if let Some(run) = tally.run(runs[i]) {
            on_run(i, run);
        }
    }
    warm
}

/// Checks that a 1-worker and an `n`-worker output of the same input agree
/// with each other, not only with the oracle.
fn cross_check(
    tally: &mut Tally,
    p: &Planned,
    one: &Option<EvalResult>,
    many: &Option<EvalResult>,
    n: usize,
) {
    if let (Some(a), Some(b)) = (one, many) {
        let canon = p.input.expected.like(a.relation(p.input.result));
        if let Err(e) = canon.and_then(|c| c.check(b.relation(p.input.result))) {
            tally.fail(format!("1-worker and {n}-worker outputs differ: {e}"));
        }
    }
}

/// Traced runs give the per-layer split: a block of traced 1-worker runs,
/// then a block alternating untraced and traced `n`-worker runs, whose
/// ratio is the tracing overhead.
fn measure_layers(inputs: &[Input], n: usize, seconds: f64) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let configs = [config(1, true), config(n, false), config(n, true)];
    let planned = plan_all(&mut tally, inputs, &configs)?;
    let (mut outside, mut merge_share, mut eval_share) = (Vec::new(), Vec::new(), Vec::new());
    let mut dropped = 0u64;
    let one: Vec<&Planned> = planned[0].iter().collect();
    let warm_one = block(&mut tally, &one, 0.25 * seconds, |_, run| {
        let report = &run.result.stats.report;
        let eval_s = report.elapsed_ns as f64 / 1e9;
        let t = self_times(&report.traces);
        let secs = |p| attribution::seconds(&t, p);
        dropped += attribution::dropped(&report.traces);
        outside.push(run.wall_s - eval_s);
        merge_share.push((secs(Phase::Distribute) + secs(Phase::Merge)) / eval_s);
        eval_share.push(secs(Phase::EvalDelta) / eval_s);
    });

    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut layers: Vec<Vec<(&str, f64)>> = Vec::new();
    // Untraced and traced runs of each input, in turn.
    let many: Vec<&Planned> = planned[1]
        .iter()
        .zip(&planned[2])
        .flat_map(|(u, t)| [u, t])
        .collect();
    let warm_many = block(&mut tally, &many, 0.75 * seconds, |i, run| {
        if i % 2 == 0 {
            untraced.push(run.wall_s);
            return;
        }
        traced.push(run.wall_s);
        let report = &run.result.stats.report;
        dropped += attribution::dropped(&report.traces);
        layers.push(run_layers(
            report,
            run.result.relation(many[i].input.result).len(),
        ));
    });
    cross_check(&mut tally, &planned[0][0], &warm_one, &warm_many, n);

    let mut notes = size_notes(inputs);
    notes.extend([
        ("samples_traced_nw", traced.len().to_string()),
        ("samples_untraced_nw", untraced.len().to_string()),
        ("samples_traced_1w", outside.len().to_string()),
    ]);
    if tally.failed > 0 {
        return Ok(tally.outcome(Vec::new(), notes));
    }
    // Each per-run value is reported as its median over the traced runs.
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    for &(name, _) in &layers[0] {
        let per_run: Vec<f64> = layers
            .iter()
            .map(|l| {
                l.iter()
                    .find(|&&(k, _)| k == name)
                    .expect("same names every run")
                    .1
            })
            .collect();
        values.insert(name, median(&per_run));
    }
    let coverage = values["trace.coverage"];
    if dropped > 0 || coverage < MIN_COVERAGE {
        return Err(format!(
            "per-phase split unresolved: {dropped} trace events dropped, \
             span coverage {coverage:.3} (needs {MIN_COVERAGE})"
        ));
    }
    let (seal_s, edb_bytes) = seal(&inputs[0], n)?;
    let result_rows = warm_one
        .as_ref()
        .map_or(&[][..], |r| r.relation(inputs[0].result));
    let (set_ns, agg_ns, frame_ns) = replays(result_rows);
    let [parse_s, plan_s, load_s, _] = tally.setup_medians();
    values.extend([
        ("frontend.parse_s", parse_s),
        ("frontend.plan_s", plan_s),
        ("engine.load_s", load_s),
        ("engine.outside_eval_s", median(&outside)),
        ("catalog.seal_s", seal_s),
        ("catalog.edb_bytes", edb_bytes),
        ("worker.merge_share_1w", median(&merge_share)),
        ("worker.evaldelta_share_1w", median(&eval_share)),
        ("storage.set_insert_ns_per_row", set_ns),
        ("storage.agg_merge_ns_per_row", agg_ns),
        ("common.frame_roundtrip_ns_per_row", frame_ns),
        (
            "trace.overhead_pct",
            (median(&traced) / median(&untraced) - 1.0) * 100.0,
        ),
        ("trace.dropped_events", dropped as f64),
    ]);
    let metrics = PER_LAYER
        .iter()
        .map(|&(k, u)| {
            (
                k,
                *values.get(k).unwrap_or_else(|| panic!("{k} not measured")),
                u,
            )
        })
        .collect();
    Ok(tally.outcome(metrics, notes))
}

/// Per-layer values of one traced `n`-worker run: phase self times summed
/// over workers (worker layer), the report's counters (eval, storage and
/// runtime layers) and the trace's span coverage.
fn run_layers(report: &EvalReport, result_rows: usize) -> Vec<(&'static str, f64)> {
    let t = self_times(&report.traces);
    let secs = |p| attribution::seconds(&t, p);
    let sum = |f: fn(&dcdatalog::MetricsSnapshot) -> u64| report.total(f) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let delta_rows = sum(|w| w.tuples_processed);
    let probes = sum(|w| w.probe_hits) + sum(|w| w.probe_reuse);
    let cache = sum(|w| w.cache_hits) + sum(|w| w.cache_misses);
    vec![
        ("worker.merge_s", secs(Phase::Merge)),
        ("worker.distribute_s", secs(Phase::Distribute)),
        ("worker.evaldelta_s", secs(Phase::EvalDelta)),
        ("worker.gather_s", secs(Phase::Gather)),
        ("worker.idle_s", secs(Phase::Idle)),
        ("worker.omega_wait_s", secs(Phase::OmegaWait)),
        ("worker.backpressure_s", secs(Phase::Backpressure)),
        ("worker.iterations", sum(|w| w.iterations)),
        ("worker.imbalance", report.imbalance()),
        ("eval.delta_rows", delta_rows),
        (
            "eval.delta_rows_per_result",
            ratio(delta_rows, result_rows as f64),
        ),
        (
            "eval.rows_per_batch",
            ratio(sum(|w| w.kernel_rows), sum(|w| w.kernel_batches)),
        ),
        (
            "eval.probe_reuse_ratio",
            ratio(sum(|w| w.probe_reuse), probes),
        ),
        (
            "storage.cache_hit_ratio",
            ratio(sum(|w| w.cache_hits), cache),
        ),
        ("storage.local_new", sum(|w| w.local_new)),
        ("runtime.tuples_sent", sum(|w| w.tuples_sent)),
        ("runtime.exchanged_bytes", report.exchanged_bytes() as f64),
        (
            "runtime.rows_per_batch_out",
            ratio(sum(|w| w.tuples_sent), sum(|w| w.batches_out)),
        ),
        (
            "runtime.backpressure_retries",
            sum(|w| w.backpressure_retries),
        ),
        ("trace.coverage", attribution::coverage(&report.traces)),
    ]
}

/// `EdbCatalog::build` on the workload's plan for `n` workers: median
/// seconds and resident bytes (replicated plus every partitioned slice).
fn seal(input: &Input, n: usize) -> Result<(f64, f64), String> {
    let plan = physical_plan(input)?;
    let rel = plan
        .rel_by_name(input.edb)
        .ok_or_else(|| format!("plan has no relation '{}'", input.edb))?;
    let mut edb: Vec<Option<Vec<Tuple>>> = vec![None; plan.edb.len()];
    edb[rel] = Some(input.rows.clone());
    let part = Partitioner::new(n);
    let mut times = Vec::new();
    let mut bytes = 0;
    for _ in 0..REPLAY_REPS {
        let t = Instant::now();
        let catalog = black_box(EdbCatalog::build(&plan, &edb, &part));
        times.push(t.elapsed().as_secs_f64());
        bytes =
            catalog.replicated_bytes() + (0..n).map(|w| catalog.partitioned_bytes(w)).sum::<u64>();
    }
    Ok((median(&times), bytes as f64))
}

/// The plan `Engine::new` builds, from the public planner.
fn physical_plan(input: &Input) -> Result<PhysicalPlan, String> {
    let program = Program::parse(input.source).map_err(|e| e.to_string())?;
    let cfg = PlannerConfig {
        params: input
            .params
            .iter()
            .map(|&(k, v)| (k.to_string(), v))
            .collect(),
        sum_epsilon: EngineConfig::default().sum_epsilon,
    };
    plan(program.analyzed(), &cfg).map_err(|e| e.to_string())
}

/// Nanoseconds per row of the workload's result replayed through single
/// storage and wire-format types: a fresh `SetRelation`, a `min`
/// `AggRelation` grouped on all but the last column, and a `Frame`
/// round trip.
fn replays(rows: &[Tuple]) -> (f64, f64, f64) {
    let per_row = |f: &dyn Fn()| {
        let mut times = Vec::new();
        for _ in 0..REPLAY_REPS {
            let t = Instant::now();
            f();
            times.push(t.elapsed().as_nanos() as f64 / rows.len().max(1) as f64);
        }
        median(&times)
    };
    let arity = rows.first().map_or(1, Tuple::arity);
    let set = per_row(&|| {
        let mut rel = SetRelation::new(0);
        for t in rows {
            rel.insert(t.clone());
        }
        black_box(rel);
    });
    let agg = per_row(&|| {
        let mut rel = AggRelation::new(AggFunc::Min, arity - 1, 0.0);
        for t in rows {
            black_box(rel.merge(t));
        }
        black_box(rel);
    });
    let frame = per_row(&|| {
        black_box(Frame::from_tuples(arity, rows).to_tuples());
    });
    (set, agg, frame)
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// `[min, max]` of the samples, for the record line.
fn range(v: &[f64]) -> String {
    let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if v.is_empty() {
        "[]".into()
    } else {
        format!("[{lo}, {hi}]")
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Resets the peak resident set to the current one, so that the next
/// [`peak_rss_mb`] covers only what follows. Where the kernel does not
/// support it, the peak stays the process's lifetime peak.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The record line: workload, seed, host fingerprint, failure rate and
/// sample counts.
fn record_json(args: &Args, o: &Outcome) -> String {
    let mut fields = vec![
        ("workload", json_string(args.workload.name())),
        ("seed", args.seed.to_string()),
        ("trace", (args.trace as u8).to_string()),
        ("nproc", nproc().to_string()),
        ("cpu_model", json_string(&cpu_model())),
        ("rustc", json_string(&rustc_version())),
        ("commit", json_string(&git_commit())),
        (
            "fail_rate",
            (o.failed as f64 / o.attempted.max(1) as f64).to_string(),
        ),
    ];
    fields.extend(o.notes.iter().cloned());
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{\"record\": {{{}}}}}", body.join(", "))
}

/// The result line the benchmark contract asks for.
fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(k, v, u)| format!("\"{k}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The commit checked out in the working directory, read from `.git`
/// without leaving it; "unknown" outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(format!(".git/{p}")).ok();
    let head = read("HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.to_string()
        };
    };
    read(reference)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::generate;
    use dcd_common::Json;
    use std::collections::BTreeSet;

    /// `(name, unit)` pairs of one section of `BENCHMARK.json`.
    fn declared(section: &str) -> BTreeSet<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        doc.get(section)
            .and_then(Json::items)
            .unwrap()
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    fn printed(o: &Outcome) -> BTreeSet<(String, String)> {
        o.metrics
            .iter()
            .map(|&(k, _, u)| (k.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn printed_metrics_match_the_declared_ones_on_every_workload() {
        let workloads: BTreeSet<String> = Json::parse(
            &std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap(),
        )
        .unwrap()
        .get("workloads")
        .and_then(Json::items)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect();
        let ours: BTreeSet<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
        for w in Workload::ALL {
            let inputs = [generate(w, 11, 0, 40), generate(w, 11, 1, 40)];
            let e2e = measure(&inputs, 2, 0.0, false).unwrap();
            assert_eq!(e2e.failed, 0, "{}: {:?}", w.name(), e2e.notes);
            assert_eq!(printed(&e2e), declared("end_to_end"), "{}", w.name());
            assert!(e2e.metrics.iter().all(|m| m.1.is_finite() && m.1 > 0.0));
            let layers = measure(&inputs, 2, 0.0, true).unwrap();
            assert_eq!(layers.failed, 0, "{}", w.name());
            assert_eq!(printed(&layers), declared("per_layer"), "{}", w.name());
            assert!(layers.metrics.iter().all(|m| m.1.is_finite()));
        }
    }

    #[test]
    fn a_wrong_output_fails_the_run() {
        let mut input = generate(Workload::TcRmat, 11, 0, 40);
        let workloads::Expected::Pairs(rows) = &mut input.expected else {
            unreachable!()
        };
        rows.pop();
        let o = measure(&[input], 2, 0.0, false).unwrap();
        assert!(o.failed > 0 && o.metrics.is_empty());
        assert!(result_json(&o).starts_with("{\"correct\": false"));
    }

    #[test]
    fn arguments_are_checked() {
        let ok = |s: &str| parse_args(&s.split(' ').map(String::from).collect::<Vec<_>>());
        let a = ok("--workload apsp-rmat --seed 0xDCDA7A --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::ApspRmat, 0xDC_DA7A, 3.0, true)
        );
        assert!(ok("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(ok("--workload tc-rmat --seed 1 --seconds 1 --trace 2").is_err());
        assert!(ok("--workload tc-rmat --seed 1 --seconds 1").is_err());
    }
}
