//! Structural checks of the two documents the CLI writes: the schema-4
//! `--stats-json` report and the schema-1 `--trace-json` Perfetto export
//! (engine and simulator). Each test drives the built `dcdatalog` binary
//! and parses its output with `dcd_common::json`.
//!
//! `stats_json_*` backs the `metrics-smoke` CI job, `trace_json_*` the
//! `trace-smoke` job and `memory_json` the `memory-smoke` job:
//! `cargo test -p dcd-cli --test report_json stats_json`, `… trace_json`
//! and `… memory_json`.

use dcd_common::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh temporary directory for one test, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("dcd-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self, file: &str) -> PathBuf {
        self.0.join(file)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `dcdatalog` with `args` and fails the test on a non-zero exit.
fn dcdatalog(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_dcdatalog"))
        .args(args)
        .output()
        .expect("dcdatalog starts");
    assert!(
        out.status.success(),
        "dcdatalog {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn parse(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap();
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: not JSON: {e}", path.display()))
}

fn num(doc: &Json, key: &str) -> u64 {
    doc.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("numeric field \"{key}\" missing"))
}

fn program(name: &str) -> String {
    format!("{}/../../programs/{name}.dl", env!("CARGO_MANIFEST_DIR"))
}

fn tc_program() -> String {
    program("tc")
}

/// A small dense-ish graph: 120 edges over 40 vertices, cycles included,
/// so every strategy does several iterations and real exchange.
fn write_edges(dir: &TempDir) -> String {
    let path = dir.path("edges.csv");
    let edges: String = (0..120)
        .map(|i| format!("{} {}\n", i % 40, (i * 7 + 1) % 40))
        .collect();
    std::fs::write(&path, edges).unwrap();
    path.to_str().unwrap().to_string()
}

const REPORT_FIELDS: [&str; 10] = [
    "schema",
    "strategy",
    "workers",
    "elapsed_ns",
    "produced",
    "consumed",
    "exchanged_bytes",
    "edb_replicated_bytes",
    "per_worker",
    "iteration_series",
];

const WORKER_FIELDS: [&str; 27] = [
    "worker",
    "iterations",
    "tuples_processed",
    "tuples_sent",
    "batches_out",
    "batches_in",
    "tuples_in",
    "bytes_sent",
    "bytes_in",
    "edb_resident_bytes",
    "local_new",
    "backpressure_retries",
    "idle_ns",
    "omega_wait_ns",
    "gather_ns",
    "iterate_ns",
    "distribute_ns",
    "cache_hits",
    "cache_misses",
    "probe_hits",
    "probe_reuse",
    "kernel_batches",
    "kernel_rows",
    "rows_per_batch",
    "samples_dropped",
    "dws_samples",
    "dropped_events",
];

#[test]
fn stats_json_is_complete_and_reconciles_for_every_strategy() {
    let dir = TempDir::new("stats-json");
    let edges = write_edges(&dir);
    let arc = format!("arc={edges}");
    for strategy in ["global", "ssp:2", "dws"] {
        let out = dir.path("stats.json");
        let out_arg = out.to_str().unwrap();
        let args = ["run", &tc_program(), "--edb", &arc, "--workers", "4"];
        let flags = [
            "--strategy",
            strategy,
            "--limit",
            "1",
            "--stats-json",
            out_arg,
        ];
        dcdatalog(&[&args[..], &flags[..]].concat());
        let doc = parse(&out);
        for field in REPORT_FIELDS {
            assert!(doc.get(field).is_some(), "{strategy}: \"{field}\" missing");
        }
        assert_eq!(num(&doc, "schema"), 4, "{strategy}");
        let workers = doc.get("per_worker").and_then(Json::items).unwrap();
        assert_eq!(workers.len(), 4, "{strategy}: per_worker entries");
        for w in workers {
            for field in WORKER_FIELDS {
                assert!(
                    w.get(field).is_some(),
                    "{strategy}: worker \"{field}\" missing"
                );
            }
        }
        assert_eq!(num(&doc, "produced"), num(&doc, "consumed"), "{strategy}");
        let bytes_in: u64 = workers.iter().map(|w| num(w, "bytes_in")).sum();
        assert_eq!(num(&doc, "exchanged_bytes"), bytes_in, "{strategy}");
        if strategy == "dws" {
            let samples: usize = workers
                .iter()
                .map(|w| w.get("dws_samples").and_then(Json::items).unwrap().len())
                .sum();
            assert!(samples > 0, "dws: no ω/τ samples recorded");
        }
    }
}

/// Checks one Chrome/Perfetto trace export against trace schema 1.
fn check_trace(doc: &Json, clock: &str, label: &str) {
    assert_eq!(num(doc, "schema"), 1, "{label}");
    assert!(doc.get("displayTimeUnit").is_some(), "{label}");
    let meta = doc
        .get("otherData")
        .unwrap_or_else(|| panic!("{label}: no otherData"));
    assert!(
        meta.get("strategy").and_then(Json::as_str).is_some(),
        "{label}"
    );
    assert!(meta.get("dropped_events").is_some(), "{label}");
    assert_eq!(
        meta.get("clock").and_then(Json::as_str),
        Some(clock),
        "{label}"
    );
    let workers = num(meta, "workers");
    assert!(workers >= 1, "{label}: otherData.workers");
    let events = doc.get("traceEvents").and_then(Json::items).unwrap();
    let ph = |e: &Json| e.get("ph").and_then(Json::as_str).unwrap_or("").to_string();
    let tracks: Vec<&str> = events
        .iter()
        .filter(|e| ph(e) == "M")
        .filter_map(|e| e.get("args")?.get("name")?.as_str())
        .collect();
    for w in 0..workers {
        let track = format!("worker {w}");
        assert!(
            tracks.contains(&track.as_str()),
            "{label}: no {track} track"
        );
    }
    assert!(
        tracks.contains(&"dws-controller"),
        "{label}: no controller track"
    );
    let (mut spans, mut instants) = (0, 0);
    for e in events.iter().filter(|e| ph(e) != "M") {
        for field in ["name", "pid", "tid", "ts", "dur"] {
            assert!(e.get(field).is_some(), "{label}: event without \"{field}\"");
        }
        match ph(e).as_str() {
            "X" => spans += 1,
            "i" => instants += 1,
            other => panic!("{label}: unexpected phase type {other:?}"),
        }
    }
    assert!(
        spans > 0 && instants > 0,
        "{label}: {spans} spans, {instants} instants"
    );
}

#[test]
fn trace_json_engine_and_simulator_share_the_schema() {
    let dir = TempDir::new("trace-json");
    let edges = write_edges(&dir);
    let arc = format!("arc={edges}");
    let (stats, trace, sim) = (
        dir.path("stats.json"),
        dir.path("trace.json"),
        dir.path("sim.json"),
    );
    let args = ["run", &tc_program(), "--edb", &arc, "--workers", "4"];
    let flags = [
        "--strategy",
        "dws",
        "--limit",
        "1",
        "--stats-json",
        stats.to_str().unwrap(),
        "--trace-json",
        trace.to_str().unwrap(),
    ];
    dcdatalog(&[&args[..], &flags[..]].concat());
    dcdatalog(&[
        "simulate",
        "--strategy",
        "dws",
        "--trace-json",
        sim.to_str().unwrap(),
    ]);
    check_trace(&parse(&trace), "ns", "engine");
    check_trace(&parse(&sim), "ticks", "simulator");

    let series = parse(&stats);
    let rows = series
        .get("iteration_series")
        .and_then(Json::items)
        .unwrap();
    assert!(!rows.is_empty(), "traced run has an empty iteration_series");
    for row in rows {
        for col in ["rows_in", "rows_out", "queue_depth", "omega", "tau"] {
            assert!(
                row.get(col).is_some(),
                "iteration_series column \"{col}\" missing"
            );
        }
    }
}

/// Replicated EDB residency is flat in the worker count (DESIGN.md §7).
/// The shared catalog builds every replicated base relation once and hands
/// each worker an `Arc` to the same sealed copy, so the run-level
/// `edb_replicated_bytes` at 4 workers stays within 1.1× of the 1-worker
/// run. SG exercises that path: its `arc` is probed on both columns, so
/// the planner replicates it. TC partitions its EDB: it must report no
/// replicated bytes and a non-zero partitioned residency
/// (`edb_resident_bytes`, summed over workers).
#[test]
fn memory_json_replicated_residency_is_flat_in_workers() {
    let dir = TempDir::new("memory-json");
    // A two-level tree: SG derives real same-generation pairs.
    let tree_path = dir.path("tree.csv");
    let tree: String = (1..=30).map(|i| format!("{} {i}\n", (i - 1) / 3)).collect();
    std::fs::write(&tree_path, tree).unwrap();
    let tree = tree_path.to_str().unwrap().to_string();
    let edges = write_edges(&dir);
    // (replicated bytes, summed partitioned residency) at 1 and 4 workers.
    let measure = |q: &str, arc: &str| -> [(u64, u64); 2] {
        [1, 4].map(|w| {
            let out = dir.path(&format!("{q}{w}.json"));
            let arc = format!("arc={arc}");
            let workers = w.to_string();
            dcdatalog(&[
                "run",
                &program(q),
                "--edb",
                &arc,
                "--workers",
                &workers,
                "--limit",
                "1",
                "--stats-json",
                out.to_str().unwrap(),
            ]);
            let doc = parse(&out);
            let resident = doc
                .get("per_worker")
                .and_then(Json::items)
                .unwrap()
                .iter()
                .map(|w| num(w, "edb_resident_bytes"))
                .sum();
            (num(&doc, "edb_replicated_bytes"), resident)
        })
    };

    let [(sg1, _), (sg4, _)] = measure("sg", &tree);
    assert!(
        sg1 > 0 && sg4 > 0,
        "sg: expected a replicated EDB, got {sg1}/{sg4} bytes"
    );
    assert!(
        10 * sg4 <= 11 * sg1,
        "sg: replicated residency scaled with workers: {sg1}B -> {sg4}B"
    );

    let [_, (tc_rep4, tc_res4)] = measure("tc", &edges);
    assert_eq!(tc_rep4, 0, "tc: partitioned EDB reported replicated bytes");
    assert!(tc_res4 > 0, "tc: no partitioned EDB residency reported");
}
