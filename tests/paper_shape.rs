//! Shape checks against the paper's claims, at test-sized scale: these
//! assert the *relative* behaviours the paper reports (who wins, what
//! grows), not absolute seconds.

use dcdatalog_repro::datagen;
use dcdatalog_repro::engine::{queries, Engine, EngineConfig, Tuple};
use dcdatalog_repro::runtime::simulator::{
    figure3_workload, simulate, SimConfig, SimStrategy, SimWorkload,
};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// One lock for every test in this file. libtest runs a binary's tests on
/// parallel threads, and the wall-clock shape tests (`fig9b`, `tab4`)
/// compare timings: a sibling test sharing the CPUs inflates whichever
/// point it overlaps. Each test holds the lock for its whole body, so no
/// timed section shares the CPUs with another test of this file.
static EXCLUSIVE: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    // A failed test poisons the lock; it guards no data, so the other
    // tests can still take it.
    EXCLUSIVE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Figure 3: DWS ≺ SSP ≺ Global on the worked example, with DWS roughly
/// halving Global (paper: 67 vs 128 units).
#[test]
fn fig3_schedule_ordering() {
    let _serial = exclusive();
    let w = figure3_workload();
    let cfg = SimConfig::default();
    let g = simulate(&w, &cfg, SimStrategy::Global).makespan;
    let s = simulate(&w, &cfg, SimStrategy::Ssp(1)).makespan;
    let d = simulate(&w, &cfg, SimStrategy::Dws { omega: 4, tau: 3 }).makespan;
    assert!(
        d < s && s < g,
        "expected DWS < SSP < Global, got {d}/{s}/{g}"
    );
    let ratio = d as f64 / g as f64;
    let paper = 67.0 / 128.0;
    assert!(
        (ratio - paper).abs() < 0.15,
        "DWS/Global {ratio:.2} should be near the paper's {paper:.2}"
    );
}

/// Figure 8 shape (simulated, 32 workers, realistic cost model): DWS best,
/// Global worst.
#[test]
fn fig8_strategy_ordering_at_32_workers() {
    let _serial = exclusive();
    let edges: Vec<(u64, u64)> = datagen::livejournal_like(20_000, 0xDC_DA7A ^ 0x11)
        .iter()
        .map(|&(a, b)| (a as u64, b as u64))
        .collect();
    let cfg = SimConfig::realistic();
    let w = |n| SimWorkload::cc_partitioned(&edges, n);
    let g = simulate(&w(32), &cfg, SimStrategy::Global).makespan;
    let s = simulate(&w(32), &cfg, SimStrategy::Ssp(5)).makespan;
    let d = simulate(&w(32), &cfg, SimStrategy::DwsAuto).makespan;
    assert!(d < g, "DWS ({d}) must beat Global ({g})");
    assert!(s < g, "SSP ({s}) must beat Global ({g})");
    assert!(d <= s, "DWS ({d}) must be at least as good as SSP ({s})");
}

/// Figure 9(a) shape: simulated makespan shrinks with workers.
#[test]
fn fig9a_worker_scaling_shape() {
    let _serial = exclusive();
    let edges: Vec<(u64, u64)> = datagen::livejournal_like(20_000, 1)
        .iter()
        .map(|&(a, b)| (a as u64, b as u64))
        .collect();
    let cfg = SimConfig::default();
    let mut prev = u64::MAX;
    for n in [1usize, 4, 16] {
        let m = simulate(
            &SimWorkload::cc_partitioned(&edges, n),
            &cfg,
            SimStrategy::DwsAuto,
        )
        .makespan;
        assert!(m < prev, "{n} workers: {m} should beat {prev}");
        prev = m;
    }
}

/// Figure 9(b) shape: evaluation time grows roughly linearly with data.
#[test]
fn fig9b_data_scaling_shape() {
    let _serial = exclusive();
    let mut times = Vec::new();
    for n in [2_000usize, 4_000, 8_000] {
        let edges = datagen::symmetrize(&datagen::rmat(n, 5));
        let mut e = Engine::new(queries::cc().unwrap(), EngineConfig::with_workers(1)).unwrap();
        e.load_edges("arc", &edges).unwrap();
        // Warm once, then take the best of 3 to damp noise.
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let r = e.run().unwrap();
            best = best.min(r.stats.elapsed.as_secs_f64());
        }
        times.push(best);
    }
    // Doubling the data should not blow up super-linearly (paper: time
    // proportional to size). Allow generous noise: ratio in (1.2, 5).
    for w in times.windows(2) {
        let ratio = w[1] / w[0];
        assert!(
            (1.05..5.0).contains(&ratio),
            "doubling data changed time by {ratio:.2} ({times:?})"
        );
    }
}

/// Table 3 shape: broadcast routing exchanges strictly more tuples than
/// two-partition routing on the non-linear APSP, and the gap widens with
/// the graph.
#[test]
fn tab3_broadcast_exchanges_more() {
    let _serial = exclusive();
    let mut gaps = Vec::new();
    for n in [32usize, 64] {
        let edges = datagen::weighted(&datagen::rmat(n, 3), 50, 3);
        let rows: Vec<Tuple> = edges
            .iter()
            .map(|&(a, b, w)| Tuple::from_ints(&[a, b, w]))
            .collect();
        let mut routed =
            Engine::new(queries::apsp().unwrap(), EngineConfig::with_workers(4)).unwrap();
        routed.load_edb("warc", rows.clone()).unwrap();
        let mut cfg = EngineConfig::with_workers(4);
        cfg.broadcast_routing = true;
        let mut bcast = Engine::new(queries::apsp().unwrap(), cfg).unwrap();
        bcast.load_edb("warc", rows).unwrap();
        let routed_sent = routed.run().unwrap().stats.total_sent();
        let bcast_sent = bcast.run().unwrap().stats.total_sent();
        assert!(
            bcast_sent > routed_sent,
            "n={n}: broadcast {bcast_sent} ≤ routed {routed_sent}"
        );
        gaps.push(bcast_sent as f64 / routed_sent.max(1) as f64);
    }
    assert!(
        gaps[1] >= gaps[0] * 0.8,
        "gap should not collapse: {gaps:?}"
    );
}

/// Table 4 shape: disabling the §6.2 optimizations must cost measurable
/// extra work (the linear-scan aggregate path) without changing results.
#[test]
fn tab4_optimizations_speed_shape() {
    let _serial = exclusive();
    let edges = datagen::symmetrize(&datagen::rmat(3_000, 7));
    let run = |optimized: bool| {
        let mut e = Engine::new(
            queries::cc().unwrap(),
            EngineConfig::with_workers(1).optimizations(optimized),
        )
        .unwrap();
        e.load_edges("arc", &edges).unwrap();
        let mut best = f64::INFINITY;
        let mut rows = Vec::new();
        for _ in 0..2 {
            let r = e.run().unwrap();
            best = best.min(r.stats.elapsed.as_secs_f64());
            rows = r.sorted("cc");
        }
        (best, rows)
    };
    let (fast, rows_fast) = run(true);
    let (slow, rows_slow) = run(false);
    assert_eq!(rows_fast, rows_slow);
    assert!(
        slow > fast,
        "w/o optimizations ({slow:.4}s) should be slower than w/ ({fast:.4}s)"
    );
}
