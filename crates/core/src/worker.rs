//! The per-worker evaluation loop: Algorithm 1 (Global), its SSP
//! relaxation, and Algorithm 2 (DWS).
//!
//! Every worker runs the strata in order, synchronizing at stratum entry.
//! Within a recursive stratum it repeatedly: drains its message buffers
//! (Gather), merges the arrivals into its local stores (emitting delta
//! rows), decides per its strategy whether to wait or proceed, evaluates
//! one local semi-naive iteration, and distributes the derived tuples
//! (Distribute). Termination is per-strategy: the round barrier's all-zero
//! round for Global, the produced/consumed counter protocol for SSP/DWS.
//!
//! Routing note: a derived tuple is *sent* once per distinct destination
//! worker, and every receiver re-derives locally which of the relation's
//! routes (§4.3) apply to it — this keeps multi-route relations (APSP)
//! correct even when two routes hash to the same worker.

use crate::config::EngineConfig;
use crate::eval::{DeltaRow, EvalScratch, Evaluator};
use crate::store::{Merged, RecStore, WorkerStore};
use dcd_common::{DcdError, Frame, Partitioner, Result, Tuple, WorkerId};
use dcd_frontend::ast::AggFunc;
use dcd_frontend::physical::{PhysicalPlan, RelId, StorageKind};
use dcd_runtime::trace::{Mark, Phase};
use dcd_runtime::{
    Batch, BufferMatrix, DwsController, IdleOutcome, Recorder, RoundBarrier, SspClock, Strategy,
    Termination, WorkerEndpoints,
};
use dcd_storage::table::next_row_id;
use dcd_storage::{RowTable, TupleCache};
use std::borrow::Borrow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Per-stratum coordination objects (shared by all workers).
pub struct StratumCoord {
    /// Entry synchronization (also separates init sends from round 1).
    pub entry: Barrier,
    /// Post-init synchronization.
    pub post_init: Barrier,
    /// Counter-based fixpoint detection (SSP/DWS).
    pub termination: Termination,
    /// Per-global-iteration barrier (Global).
    pub round: RoundBarrier,
    /// Bounded-staleness clock (SSP).
    pub ssp: SspClock,
}

/// All shared coordination state for one evaluation.
pub struct Coordination {
    /// The message-buffer matrix.
    pub buffers: BufferMatrix,
    /// The discriminating function `H`.
    pub part: Partitioner,
    /// Per-stratum coordination.
    pub strata: Vec<StratumCoord>,
    /// Per-worker recorders (indexed by worker id). When
    /// `EngineConfig::trace` is set they also keep event timelines, all
    /// on one epoch `Instant`, so the exported tracks align.
    pub recorders: Vec<Recorder>,
    /// Error/timeout flag.
    pub abort: AtomicBool,
    /// Wall-clock deadline.
    pub deadline: Option<Instant>,
}

impl Coordination {
    /// Builds coordination state for `plan` under `cfg`.
    pub fn new(plan: &PhysicalPlan, cfg: &EngineConfig) -> Self {
        let n = cfg.workers;
        let ssp_s = match cfg.strategy {
            Strategy::Ssp { s } => s,
            _ => 0,
        };
        let strata = plan
            .strata
            .iter()
            .map(|_| StratumCoord {
                entry: Barrier::new(n),
                post_init: Barrier::new(n),
                termination: Termination::new(n, cfg.idle_poll),
                round: RoundBarrier::new(n),
                ssp: SspClock::new(n, ssp_s),
            })
            .collect();
        let epoch = Instant::now();
        Coordination {
            buffers: BufferMatrix::new(n, cfg.queue_capacity),
            part: Partitioner::new(n),
            strata,
            recorders: (0..n)
                .map(|_| {
                    let rec = Recorder::default();
                    if cfg.trace {
                        rec.with_trace(cfg.trace_capacity, epoch)
                    } else {
                        rec
                    }
                })
                .collect(),
            abort: AtomicBool::new(false),
            deadline: cfg.timeout.map(|t| Instant::now() + t),
        }
    }

    /// Sum of `(produced, consumed)` termination counters over all strata.
    /// After a completed evaluation the two totals are equal (that is the
    /// fixpoint condition); the observability layer reconciles the
    /// per-worker recorders against them.
    pub fn termination_totals(&self) -> (u64, u64) {
        self.strata
            .iter()
            .map(|s| s.termination.counters())
            .fold((0, 0), |(p, c), (sp, sc)| (p + sp, c + sc))
    }

    /// Flags an abort and releases everything blocked.
    pub fn cancel(&self) {
        self.abort.store(true, Ordering::SeqCst);
        for s in &self.strata {
            s.termination.cancel();
            s.round.cancel();
        }
    }

    fn check_deadline(&self) -> Result<()> {
        if self.abort.load(Ordering::SeqCst) {
            return Err(DcdError::Execution("evaluation aborted".into()));
        }
        if let Some(d) = self.deadline {
            if Instant::now() > d {
                self.cancel();
                return Err(DcdError::Execution("evaluation timed out".into()));
            }
        }
        Ok(())
    }
}

/// Set-relation head rows the batched kernel buffers before Distribute
/// merges and routes them: about 2 MB of binary rows, so the buffer is
/// still cached when Distribute reads it back.
const FLUSH_ROWS: usize = 1 << 15;
/// Delta rows per batched-kernel call in a stratum with a set-relation
/// head, so one call cannot overshoot [`FLUSH_ROWS`] by much (TC derives
/// about a dozen head rows per delta row).
const KERNEL_ROWS: usize = 1 << 10;

/// Pre-Distribute partial aggregation (§5.2.3): merge-layout rows derived
/// within one local iteration collapse per key before routing — min/max
/// keep the best row per group, sum/count keep the latest row per
/// (group, contributor). Each aggregate relation collapses its rows in a
/// [`RowTable`] keyed on that prefix. Set-relation rows skip the table
/// entirely: their only collapse is exact-duplicate elimination, which
/// the batched local merge and, for rows bound to peers, the sent-filter
/// already perform. They are split by destination as they arrive
/// instead. The worker keeps one accumulator and reuses its buffers
/// across iterations.
struct PartialAgg {
    me: WorkerId,
    part: Partitioner,
    /// `set[rel]`: set relation `rel`'s head rows, in derivation order.
    set: Vec<SetRows>,
    /// `agg[rel]`: aggregate relation `rel`'s collapsed head rows.
    agg: Vec<Option<AggRows>>,
}

/// One set relation's head rows, by destination. A row bound both here
/// and to a peer is in both lists.
#[derive(Default)]
struct SetRows {
    /// Rows this worker merges.
    local: Vec<Tuple>,
    /// Rows for peers.
    remote: Vec<Tuple>,
}

/// One aggregate relation's head rows, one per key, in order of each
/// key's first derivation.
struct AggRows {
    func: AggFunc,
    rows: Vec<Tuple>,
    /// Key → index into `rows`. Min/max key on the group columns;
    /// sum/count also on the contributor after them.
    keys: RowTable,
}

impl AggRows {
    fn new(func: AggFunc, group_cols: usize) -> Self {
        let key_len = match func {
            AggFunc::Min | AggFunc::Max => group_cols,
            AggFunc::Sum | AggFunc::Count => group_cols + 1,
        };
        AggRows {
            func,
            rows: Vec::new(),
            keys: RowTable::new(key_len),
        }
    }

    fn push(&mut self, row: Tuple) {
        self.keys.reserve(1);
        let h = self.keys.hash(row.values());
        let rows = &self.rows;
        match self
            .keys
            .find(h, row.values(), |id| rows[id as usize].values())
        {
            Err(slot) => {
                self.keys.insert(slot, h, next_row_id(rows.len()));
                self.rows.push(row);
            }
            Ok(slot) => {
                let kept = &mut self.rows[self.keys.id(slot) as usize];
                // Min/max rows hold their value right after the key.
                let v = |t: &Tuple| t.values()[self.keys.key(t.values()).len()];
                let replace = match self.func {
                    AggFunc::Min => v(&row) < v(kept),
                    AggFunc::Max => v(&row) > v(kept),
                    AggFunc::Sum | AggFunc::Count => true, // the latest contribution wins
                };
                if replace {
                    *kept = row;
                }
            }
        }
    }
}

impl PartialAgg {
    fn new(me: WorkerId, part: Partitioner) -> Self {
        PartialAgg {
            me,
            part,
            set: Vec::new(),
            agg: Vec::new(),
        }
    }

    /// Set-relation head rows buffered.
    fn set_rows(&self) -> usize {
        self.set
            .iter()
            .map(|s| s.local.len() + s.remote.len())
            .sum()
    }

    fn push(&mut self, plan: &PhysicalPlan, rel: RelId, row: Tuple) {
        let decl = plan.idb[rel].as_ref().expect("IDB head");
        match &decl.kind {
            StorageKind::Set => {
                let (here, peer) = if decl.broadcast {
                    (true, self.part.partitions() > 1)
                } else {
                    decl.partition_cols
                        .iter()
                        .fold((false, false), |(h, p), &c| {
                            let mine = self.part.of_key(row.key(c)) == self.me;
                            (h || mine, p || !mine)
                        })
                };
                if self.set.len() <= rel {
                    self.set.resize_with(rel + 1, SetRows::default);
                }
                let out = &mut self.set[rel];
                match (here, peer) {
                    (true, true) => {
                        out.remote.push(row.clone());
                        out.local.push(row);
                    }
                    (true, false) => out.local.push(row),
                    _ => out.remote.push(row),
                }
            }
            StorageKind::Agg {
                func, group_cols, ..
            } => {
                if self.agg.len() <= rel {
                    self.agg.resize_with(rel + 1, || None);
                }
                self.agg[rel]
                    .get_or_insert_with(|| AggRows::new(*func, *group_cols))
                    .push(row);
            }
        }
    }
}

/// Pending delta rows: `(relation, route, logical row)`.
struct DeltaSet {
    rows: Vec<DeltaRow>,
    /// The previous iteration's buffer, emptied, ready to be the next.
    spare: Vec<DeltaRow>,
}

impl DeltaSet {
    fn new() -> Self {
        DeltaSet {
            rows: Vec::new(),
            spare: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.rows.len()
    }

    fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Takes the pending rows, leaving the spare buffer to collect the
    /// next delta.
    fn take(&mut self) -> Vec<DeltaRow> {
        std::mem::replace(&mut self.rows, std::mem::take(&mut self.spare))
    }

    /// Returns a buffer [`DeltaSet::take`] handed out, keeping its
    /// capacity for a later iteration.
    fn recycle(&mut self, mut rows: Vec<DeltaRow>) {
        rows.clear();
        self.spare = rows;
    }
}

/// Coalesces pending delta rows in place (the Gather semantics of
/// §5.2.2): an aggregate group that updated several times since the last
/// local iteration keeps only its newest logical row. Without this, `sum`
/// relations fragment convergence into O(total-change/ε) micro-deltas.
/// The tables are kept across iterations so their memory is reused.
#[derive(Default)]
struct Coalescer {
    /// One table per `(rel, route)` seen: group columns → index of the
    /// group's newest pending row.
    tables: Vec<(RelId, u8, RowTable)>,
    keep: Vec<bool>,
}

impl Coalescer {
    /// Drops every aggregate row that a later row of the same
    /// `(rel, route, group)` supersedes; set-relation rows and the order
    /// of the rows kept are left alone.
    fn coalesce(&mut self, plan: &PhysicalPlan, rows: &mut Vec<DeltaRow>) {
        self.keep.clear();
        self.keep.resize(rows.len(), true);
        let mut dropped = false;
        for (i, (rel, route, row)) in rows.iter().enumerate() {
            let decl = plan.idb[*rel].as_ref().expect("IDB");
            let StorageKind::Agg { group_cols, .. } = &decl.kind else {
                continue; // set relations never duplicate
            };
            let at = match self
                .tables
                .iter()
                .position(|(r, ro, _)| r == rel && ro == route)
            {
                Some(at) => at,
                None => {
                    let table = RowTable::new(*group_cols);
                    self.tables.push((*rel, *route, table));
                    self.tables.len() - 1
                }
            };
            let table = &mut self.tables[at].2;
            table.reserve(1);
            let h = table.hash(row.values());
            match table.find(h, row.values(), |id| rows[id as usize].2.values()) {
                Ok(slot) => {
                    self.keep[table.id(slot) as usize] = false;
                    table.set_id(slot, next_row_id(i));
                    dropped = true;
                }
                Err(slot) => table.insert(slot, h, next_row_id(i)),
            }
        }
        for (_, _, table) in &mut self.tables {
            table.clear();
        }
        if dropped {
            let mut keep = self.keep.iter();
            rows.retain(|_| *keep.next().expect("one flag per row"));
        }
    }
}

/// The worker context bundling everything one thread needs.
pub struct Worker<'a> {
    plan: &'a PhysicalPlan,
    cfg: &'a EngineConfig,
    coord: &'a Coordination,
    endpoints: WorkerEndpoints<'a>,
    me: WorkerId,
    evaluator: Evaluator<'a>,
    /// Persistent register file + probe counters for the batched kernel.
    scratch: EvalScratch,
    /// Head rows of the current local iteration, drained by Distribute.
    acc: PartialAgg,
    /// Collapses superseded aggregate rows of each pending delta.
    coalescer: Coalescer,
    /// Rows of one received set-relation frame, merged as one batch.
    gathered: Vec<Tuple>,
    /// Per-relation exact-duplicate filter for Distribute — the §6.2
    /// existence-check cache applied to the *exchange*: a head row
    /// identical to one this worker already sent to peers is not sent
    /// again. Merging an identical row is a no-op, so suppression can
    /// never change the fixpoint; it only saves the serialize → queue →
    /// deserialize → reject round-trip duplicates otherwise pay. Only
    /// rows bound for a peer consult it: the local merge dedups exactly.
    /// `None` for aggregate relations (their rows evolve, so exact
    /// repeats are rare) and for single-worker or unoptimized runs.
    sent_filter: Vec<Option<TupleCache>>,
    rec: &'a Recorder,
}

impl<'a> Worker<'a> {
    /// Claims worker `me`'s endpoints and builds its context.
    pub fn new(
        plan: &'a PhysicalPlan,
        cfg: &'a EngineConfig,
        coord: &'a Coordination,
        me: WorkerId,
    ) -> Self {
        let sent_filter: Vec<Option<TupleCache>> = plan
            .idb
            .iter()
            .map(|decl| match decl {
                Some(d)
                    if cfg.optimized && cfg.workers > 1 && matches!(d.kind, StorageKind::Set) =>
                {
                    // As large as an aggregate relation's cache: 1 MB of
                    // binary rows, which stays in L2. Four and sixteen
                    // times larger caught more repeats but ran no faster.
                    Some(TupleCache::new(cfg.cache_slots))
                }
                _ => None,
            })
            .collect();
        Worker {
            plan,
            cfg,
            coord,
            endpoints: coord.buffers.claim(me),
            me,
            evaluator: Evaluator {
                plan,
                me,
                workers: cfg.workers,
            },
            scratch: EvalScratch::new(),
            acc: PartialAgg::new(me, coord.part),
            coalescer: Coalescer::default(),
            gathered: Vec::new(),
            sent_filter,
            rec: &coord.recorders[me],
        }
    }

    /// Runs the full evaluation for this worker; returns the final local
    /// store. Statistics are in the worker's [`Recorder`].
    pub fn run(mut self, mut store: WorkerStore) -> Result<WorkerStore> {
        for si in 0..self.plan.strata.len() {
            self.run_stratum(si, &mut store)?;
        }
        // Fold the sent-filter's cache counters and the kernel's probe
        // counters into the recorder so the engine-level snapshot carries
        // them.
        for f in self.sent_filter.iter().flatten() {
            let (h, m) = f.stats();
            self.rec.record_cache(h, m);
        }
        self.rec
            .record_probes(self.scratch.probe_hits, self.scratch.probe_reuse);
        Ok(store)
    }

    fn run_stratum(&mut self, si: usize, store: &mut WorkerStore) -> Result<()> {
        let sc = &self.coord.strata[si];
        let idle = self.rec.phase(Phase::Idle);
        sc.entry.wait();
        idle.end();
        self.coord.check_deadline()?;

        // ---- Init phase: base rules + inline facts ----
        let eval = self.rec.phase(Phase::EvalDelta);
        let stratum = &self.plan.strata[si];
        {
            let mut rows = Vec::new();
            for rule in &stratum.init_rules {
                rows.clear();
                self.evaluator.eval_init(rule, store, &mut rows);
                for t in rows.drain(..) {
                    self.acc.push(self.plan, rule.head_rel, t);
                }
            }
        }
        if self.me == 0 {
            for (rel, t) in &self.plan.facts {
                if stratum.rels.contains(rel) {
                    self.acc.push(self.plan, *rel, t.clone());
                }
            }
        }
        eval.end();
        let mut delta = DeltaSet::new();
        self.distribute(si, store, &mut delta, &mut None)?;
        let idle = self.rec.phase(Phase::Idle);
        sc.post_init.wait();
        idle.end();

        // ---- Fixpoint phase ----
        match &self.cfg.strategy {
            Strategy::Global => self.global_loop(si, store, delta),
            Strategy::Ssp { .. } => self.async_loop(si, store, delta, None),
            Strategy::Dws | Strategy::DwsWith(_) => {
                let dws_cfg = self.cfg.strategy.dws_config().expect("dws strategy");
                let controller = DwsController::new(self.cfg.workers, dws_cfg);
                self.async_loop(si, store, delta, Some(controller))
            }
        }
    }

    /// Algorithm 1: a global barrier after every iteration.
    fn global_loop(
        &mut self,
        si: usize,
        store: &mut WorkerStore,
        mut delta: DeltaSet,
    ) -> Result<()> {
        // Initial new-tuple count: what init distributed locally + remotely
        // is already in `delta`/queues; the first round drains and counts.
        loop {
            self.coord.check_deadline()?;
            let gather = self.rec.phase(Phase::Gather);
            self.drain(si, store, &mut delta, None);
            gather.end();
            let processed = delta.len() as u64;
            let (local_new, remote_sent) = self.iterate(si, store, &mut delta, &mut None)?;
            let produced = remote_sent + local_new;
            let queued = self.coord.buffers.inbound_len(self.me) as u64;
            self.rec.mark(Mark::Iteration, processed, produced, queued);
            let idle = self.rec.phase(Phase::Idle);
            let cont = self.coord.strata[si].round.arrive(produced);
            idle.end();
            self.rec.mark(Mark::TerminationRound, cont as u64, 0, 0);
            if !cont {
                if self.coord.abort.load(Ordering::SeqCst) {
                    return Err(DcdError::Execution("evaluation aborted".into()));
                }
                return Ok(());
            }
        }
    }

    /// Algorithm 2 (DWS) and the SSP relaxation: no global barrier.
    fn async_loop(
        &mut self,
        si: usize,
        store: &mut WorkerStore,
        mut delta: DeltaSet,
        mut dws: Option<DwsController>,
    ) -> Result<()> {
        let sc = &self.coord.strata[si];
        let is_ssp = matches!(self.cfg.strategy, Strategy::Ssp { .. });
        loop {
            self.coord.check_deadline()?;
            let gather = self.rec.phase(Phase::Gather);
            self.drain(si, store, &mut delta, dws.as_mut());
            gather.end();

            if delta.is_empty() {
                // Local fixpoint: park until new work or global fixpoint.
                if is_ssp {
                    sc.ssp.finish(self.me);
                }
                let idle = self.rec.phase(Phase::Idle);
                let outcome = sc.termination.idle_wait(|| self.endpoints.has_inbound());
                idle.end();
                let more = outcome == IdleOutcome::Work;
                self.rec.mark(Mark::TerminationRound, more as u64, 0, 0);
                match outcome {
                    IdleOutcome::Done => {
                        if self.coord.abort.load(Ordering::SeqCst) {
                            return Err(DcdError::Execution("evaluation aborted".into()));
                        }
                        return Ok(());
                    }
                    IdleOutcome::Work => {
                        if is_ssp {
                            sc.ssp.rejoin(self.me);
                        }
                        continue;
                    }
                }
            }

            // DWS: wait up to τ while the delta is smaller than ω
            // (Algorithm 2 lines 5–8), collecting more tuples meanwhile.
            if let Some(ctrl) = dws.as_mut() {
                let omega = ctrl.omega();
                if delta.len() < omega {
                    let wait = self.rec.phase(Phase::OmegaWait);
                    let tau = ctrl.tau();
                    while delta.len() < omega && wait.elapsed() < tau && !sc.termination.is_done() {
                        if self.endpoints.has_inbound() {
                            // The controller must see these batches too:
                            // dropping them here systematically
                            // underestimated λ (arrival-stat loss).
                            let mut ctrl_opt = Some(&mut *ctrl);
                            self.drain_into(si, store, &mut delta, &mut ctrl_opt);
                        } else {
                            std::thread::sleep(Duration::from_micros(5));
                        }
                    }
                    wait.end();
                }
                ctrl.update_params();
                self.rec.dws_decision(
                    ctrl.omega() as u64,
                    ctrl.tau().as_nanos() as u64,
                    delta.len() as u64,
                );
            }

            // SSP: stay within `s` iterations of the frontier.
            if is_ssp {
                let abort = || self.coord.abort.load(Ordering::SeqCst) || sc.termination.is_done();
                sc.ssp.wait_if_ahead(self.me, abort);
            }

            let t0 = Instant::now();
            let processed = delta.len();
            let (local_new, remote_sent) =
                self.iterate(si, store, &mut delta, &mut dws.as_mut())?;
            if let Some(ctrl) = dws.as_mut() {
                ctrl.on_iteration(processed, t0.elapsed());
            }
            let queued = self.coord.buffers.inbound_len(self.me) as u64;
            let produced = local_new + remote_sent;
            self.rec
                .mark(Mark::Iteration, processed as u64, produced, queued);
            if is_ssp {
                sc.ssp.advance(self.me);
            }
        }
    }

    /// One local semi-naive iteration: runs every matching delta variant
    /// over the pending delta rows, then distributes what they derived.
    /// Outputs pass through the partial aggregation of §5.2.3 ("the
    /// Distribute operators also perform some partial aggregation") in
    /// `self.acc`, so aggregate output is bounded by the number of
    /// distinct output groups, not raw join results. Set-relation output
    /// is not collapsed there, so the batched kernel distributes it
    /// whenever [`FLUSH_ROWS`] head rows have accumulated: the buffer
    /// stays cache-sized however much one iteration derives. Merging
    /// part of an iteration's output before the rest is derived is sound
    /// because merges are monotone: a rule that probes a relation then
    /// sees some rows early, and every merged row still enters the next
    /// delta. Returns `(new local merges, tuples sent to peers)`.
    fn iterate(
        &mut self,
        si: usize,
        store: &mut WorkerStore,
        delta: &mut DeltaSet,
        dws: &mut Option<&mut DwsController>,
    ) -> Result<(u64, u64)> {
        let mut eval = self.rec.phase(Phase::EvalDelta);
        let plan = self.plan;
        let stratum = &plan.strata[si];
        let mut rows = delta.take();
        self.coalescer.coalesce(plan, &mut rows);
        let nrows = rows.len() as u64;
        self.rec.note_iteration(nrows);
        let (mut local_new, mut remote_sent) = (0, 0);
        if self.cfg.batch_kernel {
            // Cluster the delta by (rel, route): each cluster runs as
            // batches of at most `KERNEL_ROWS` rows per matching rule. The
            // sort is stable, so rows keep their arrival order within a
            // cluster. Only set-relation heads fill the flush buffer, so
            // a stratum without one runs each cluster whole, and the
            // kernel's first-probe memoization sees all of it.
            let set_head = stratum.delta_rules.iter().any(|r| {
                let decl = plan.idb[r.head_rel].as_ref().expect("IDB head");
                matches!(decl.kind, StorageKind::Set)
            });
            let kernel_rows = if set_head { KERNEL_ROWS } else { usize::MAX };
            rows.sort_by_key(|r| (r.0, r.1));
            let mut start = 0;
            while start < rows.len() {
                let (rel, route) = (rows[start].0, rows[start].1);
                let mut end = start + 1;
                while end < rows.len() && rows[end].0 == rel && rows[end].1 == route {
                    end += 1;
                }
                for group in rows[start..end].chunks(kernel_rows) {
                    for rule in &stratum.delta_rules {
                        let spec = rule.delta.as_ref().expect("delta rule");
                        if spec.rel != rel || spec.route != route as usize {
                            continue;
                        }
                        let head = rule.head_rel;
                        let acc = &mut self.acc;
                        self.evaluator.eval_delta_batch(
                            rule,
                            store,
                            group,
                            &mut self.scratch,
                            &mut |t| acc.push(plan, head, t),
                        );
                        self.rec.note_kernel_batch(group.len() as u64);
                    }
                    if self.acc.set_rows() >= FLUSH_ROWS {
                        eval.end_args(nrows, 0, 0);
                        let (l, r) = self.distribute(si, store, delta, dws)?;
                        local_new += l;
                        remote_sent += r;
                        eval = self.rec.phase(Phase::EvalDelta);
                    }
                }
                start = end;
            }
        } else {
            // Tuple-at-a-time reference path, kept reachable end to end so
            // the differential tests can pin the kernel against it.
            let mut buf = Vec::new();
            for (rel, route, row) in &rows {
                for rule in &stratum.delta_rules {
                    let spec = rule.delta.as_ref().expect("delta rule");
                    if spec.rel != *rel || spec.route != *route as usize {
                        continue;
                    }
                    self.evaluator.eval_delta(rule, store, row, &mut buf);
                    for t in buf.drain(..) {
                        self.acc.push(plan, rule.head_rel, t);
                    }
                }
            }
        }
        eval.end_args(nrows, 0, 0);
        delta.recycle(rows);
        let (l, r) = self.distribute(si, store, delta, dws)?;
        Ok((local_new + l, remote_sent + r))
    }

    /// Routes derived tuples (Distribute): local merges feed the next
    /// delta immediately, remote rows are batched into the SPSC buffers.
    /// Returns `(new local merges, tuples sent to peers)`. The DWS
    /// controller (when present) must observe any batches consumed during
    /// backpressure retries, or λ is underestimated.
    fn distribute(
        &mut self,
        si: usize,
        store: &mut WorkerStore,
        delta: &mut DeltaSet,
        dws: &mut Option<&mut DwsController>,
    ) -> Result<(u64, u64)> {
        let rec = self.rec;
        let phase = rec.phase(Phase::Distribute);
        let termination = &self.coord.strata[si].termination;
        let mut local_new = 0u64;
        let mut remote_sent = 0u64;
        // Staging area: one flat frame builder per (dest, rel), at
        // `dest * nrels + rel`. Head rows flow from the accumulator
        // straight into the frames; no per-row Tuple clone on the remote
        // path.
        let nrels = self.plan.idb.len();
        let mut staged: Vec<Frame> = (0..self.cfg.workers * nrels)
            .map(|_| Frame::for_rel())
            .collect();
        let mut stage =
            |d: WorkerId, rel: RelId, row: &Tuple| staged[d * nrels + rel].push_row(row.values());
        let mut dests: Vec<WorkerId> = Vec::with_capacity(2);
        // Taken (not borrowed) so they can be used while the merges borrow
        // `self`; restored, buffers kept, right after.
        let mut acc = std::mem::replace(&mut self.acc, PartialAgg::new(self.me, self.coord.part));
        let mut filters = std::mem::take(&mut self.sent_filter);
        for (rel, out) in acc.set.iter_mut().enumerate() {
            if !out.local.is_empty() {
                local_new += self.merge_set(store, rel, &out.local, delta);
                out.local.clear();
            }
            // A row this worker already sent went to the same
            // (deterministic) peers then; re-merging it there is a no-op.
            let unseen = match &mut filters[rel] {
                Some(filter) => filter.retain_unseen(&mut out.remote),
                None => out.remote.len(),
            };
            for row in &out.remote[..unseen] {
                self.dests(rel, row, &mut dests);
                for &d in dests.iter().filter(|&&d| d != self.me) {
                    stage(d, rel, row);
                }
            }
            out.remote.clear();
        }
        for (rel, out) in acc.agg.iter_mut().enumerate() {
            let Some(out) = out else { continue };
            for row in out.rows.drain(..) {
                self.dests(rel, &row, &mut dests);
                for &d in &dests {
                    if d == self.me {
                        local_new += self.merge_local(store, rel, &row, delta);
                    } else {
                        stage(d, rel, &row);
                    }
                }
            }
            out.keys.clear();
        }
        self.acc = acc;
        self.sent_filter = filters;
        // Flush batches. When a queue is full we drain our own inbox while
        // retrying, which breaks producer/consumer cycles (two workers
        // flooding each other would otherwise deadlock).
        for (i, frame) in staged.into_iter().enumerate() {
            if frame.is_empty() {
                continue;
            }
            let (dest, rel) = (i / nrels, i % nrels);
            for piece in frame.into_batches(self.cfg.batch_size) {
                let k = piece.len() as u64;
                termination.note_produced(k);
                remote_sent += k;
                rec.note_batch_out(k, piece.payload_bytes());
                let mut batch = Batch {
                    rel: rel as u32,
                    route: 0, // receivers re-derive applicable routes
                    frame: piece,
                    sent_at: Instant::now(),
                    from: self.me,
                };
                // One Backpressure phase per batch that hit a full queue,
                // covering the whole retry window.
                let mut backpressure = None;
                loop {
                    match self.endpoints.send(dest, batch) {
                        Ok(()) => break,
                        Err(back) => {
                            batch = back;
                            if self.coord.abort.load(Ordering::SeqCst) {
                                return Err(DcdError::Execution("evaluation aborted".into()));
                            }
                            backpressure.get_or_insert_with(|| rec.nested(Phase::Backpressure));
                            rec.note_backpressure_retry();
                            self.drain_into(si, store, delta, dws);
                            std::thread::yield_now();
                        }
                    }
                }
                if let Some(backpressure) = backpressure {
                    backpressure.end();
                }
            }
        }
        rec.note_local_new(local_new);
        phase.end_args(local_new, remote_sent, 0);
        Ok((local_new, remote_sent))
    }

    /// The workers row `row` of `rel` is routed to, without repeats.
    fn dests(&self, rel: RelId, row: &Tuple, out: &mut Vec<WorkerId>) {
        let decl = self.plan.idb[rel].as_ref().expect("IDB head");
        out.clear();
        if decl.broadcast {
            out.extend(0..self.cfg.workers);
        } else {
            for &c in &decl.partition_cols {
                let d = self.coord.part.of_key(row.key(c));
                if !out.contains(&d) {
                    out.push(d);
                }
            }
        }
    }

    /// Merges one merge-layout row into the local store; on success, adds
    /// its delta entries.
    fn merge_local(
        &self,
        store: &mut WorkerStore,
        rel: RelId,
        row: &Tuple,
        delta: &mut DeltaSet,
    ) -> u64 {
        match store.rec_mut(rel).merge(row) {
            Merged::New(logical) => {
                self.push_delta(rel, &logical, delta);
                1
            }
            Merged::Old => 0,
        }
    }

    /// Merges a group of set-relation rows into the local store as one
    /// batch; adds the delta entries of every new row.
    fn merge_set<T: Borrow<Tuple>>(
        &self,
        store: &mut WorkerStore,
        rel: RelId,
        rows: &[T],
        delta: &mut DeltaSet,
    ) -> u64 {
        let RecStore::Set(set) = store.rec_mut(rel) else {
            panic!("batched merge into an aggregate relation");
        };
        let n = set.insert_batch(rows);
        for row in &set.rows()[set.len() - n..] {
            self.push_delta(rel, row, delta);
        }
        n as u64
    }

    /// Adds a delta entry for new logical row `row` for every route of
    /// `rel` that maps here.
    fn push_delta(&self, rel: RelId, row: &Tuple, delta: &mut DeltaSet) {
        let decl = self.plan.idb[rel].as_ref().expect("IDB");
        if decl.broadcast {
            // Broadcast relations run every variant everywhere.
            for r in 0..decl.partition_cols.len().max(1) {
                delta.rows.push((rel, r as u8, row.clone()));
            }
        } else {
            for (ri, &c) in decl.partition_cols.iter().enumerate() {
                if self.coord.part.of_key(row.key(c)) == self.me {
                    delta.rows.push((rel, ri as u8, row.clone()));
                }
            }
        }
    }

    /// Drains every inbound queue into the store/delta (Gather).
    fn drain(
        &mut self,
        si: usize,
        store: &mut WorkerStore,
        delta: &mut DeltaSet,
        mut dws: Option<&mut DwsController>,
    ) {
        self.drain_into(si, store, delta, &mut dws);
    }

    fn drain_into(
        &mut self,
        si: usize,
        store: &mut WorkerStore,
        delta: &mut DeltaSet,
        dws: &mut Option<&mut DwsController>,
    ) {
        let termination = &self.coord.strata[si].termination;
        let merge = self.rec.nested(Phase::Merge);
        let mut batches = 0u64;
        let mut new = 0u64;
        for j in 0..self.cfg.workers {
            while let Some(batch) = self.endpoints.recv(j) {
                let k = batch.len() as u64;
                self.rec.note_batch_in(k, batch.payload_bytes());
                if let Some(ctrl) = dws.as_deref_mut() {
                    ctrl.on_batch(batch.from, batch.len(), batch.sent_at);
                }
                batches += 1;
                let rel = batch.rel as usize;
                if let RecStore::Set(_) = store.rec(rel) {
                    let mut rows = std::mem::take(&mut self.gathered);
                    rows.clear();
                    rows.extend(batch.frame.iter().map(Tuple::new));
                    new += self.merge_set(store, rel, &rows, delta);
                    self.gathered = rows;
                } else {
                    for i in 0..batch.frame.len() {
                        new += self.merge_local(store, rel, &batch.frame.tuple(i), delta);
                    }
                }
                termination.note_consumed(k);
            }
        }
        self.rec.note_local_new(new);
        if batches > 0 {
            // Nested inside whichever phase drained: Gather, ω-wait or a
            // backpressure retry.
            merge.end_args(batches, new, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcd_common::Value;
    use dcd_frontend::physical::{plan, PlannerConfig};
    use dcd_frontend::{analyze, parse_program};

    fn cc_plan() -> PhysicalPlan {
        let a = analyze(
            parse_program(
                "cc2(Y, min<Y>) <- arc(Y, _).
                 cc2(Y, min<Z>) <- cc2(X, Z), arc(X, Y).",
            )
            .unwrap(),
        )
        .unwrap();
        plan(&a, &PlannerConfig::default()).unwrap()
    }

    fn tc_plan() -> PhysicalPlan {
        let a = analyze(
            parse_program("tc(X, Y) <- arc(X, Y). tc(X, Y) <- tc(X, Z), arc(Z, Y).").unwrap(),
        )
        .unwrap();
        plan(&a, &PlannerConfig::default()).unwrap()
    }

    fn pagerank_plan() -> PhysicalPlan {
        let a = analyze(
            parse_program(
                "rank(X, sum<(X, I)>) <- matrix(X, _, _), I = 0.15.
                 rank(X, sum<(Y, K)>) <- rank(Y, C), matrix(Y, X, D), K = 0.85 * (C / D).",
            )
            .unwrap(),
        )
        .unwrap();
        plan(&a, &PlannerConfig::default()).unwrap()
    }

    /// The collapsed rows of aggregate relation `rel`, sorted.
    fn collapsed(acc: &PartialAgg, rel: RelId) -> Vec<Tuple> {
        let mut rows = acc.agg[rel].as_ref().unwrap().rows.clone();
        rows.sort();
        rows
    }

    #[test]
    fn partial_agg_collapses_min_groups() {
        let p = cc_plan();
        let cc2 = p.rel_by_name("cc2").unwrap();
        let mut acc = PartialAgg::new(0, Partitioner::new(1));
        acc.push(&p, cc2, Tuple::from_ints(&[1, 9]));
        acc.push(&p, cc2, Tuple::from_ints(&[1, 3]));
        acc.push(&p, cc2, Tuple::from_ints(&[1, 7]));
        acc.push(&p, cc2, Tuple::from_ints(&[2, 5]));
        // `1.0` is the same group as `1`.
        acc.push(&p, cc2, Tuple::new(&[Value::Float(1.0), Value::Int(4)]));
        assert_eq!(
            collapsed(&acc, cc2),
            vec![Tuple::from_ints(&[1, 3]), Tuple::from_ints(&[2, 5])]
        );
    }

    #[test]
    fn partial_agg_keeps_latest_sum_contribution() {
        // rank(X, sum<(Y, K)>): the key is (X, Y); a later row from the
        // same contributor replaces the earlier one, whatever its value.
        let p = pagerank_plan();
        let rank = p.rel_by_name("rank").unwrap();
        let mut acc = PartialAgg::new(0, Partitioner::new(1));
        let row =
            |x: i64, y: i64, k: f64| Tuple::new(&[Value::Int(x), Value::Int(y), Value::Float(k)]);
        acc.push(&p, rank, row(1, 7, 0.5));
        acc.push(&p, rank, row(1, 8, 0.25));
        acc.push(&p, rank, row(1, 7, 0.1));
        acc.push(&p, rank, row(2, 7, 0.3));
        acc.push(&p, rank, row(1, 7, 0.2));
        assert_eq!(
            collapsed(&acc, rank),
            vec![row(1, 7, 0.2), row(1, 8, 0.25), row(2, 7, 0.3)]
        );
    }

    #[test]
    fn partial_agg_passes_set_rows_through() {
        // Set rows are NOT collapsed here: exact-duplicate elimination is
        // Distribute's job (batched merge + sent-filter), so the
        // accumulator must forward every row without hashing it.
        let p = tc_plan();
        let tc = p.rel_by_name("tc").unwrap();
        let mut acc = PartialAgg::new(0, Partitioner::new(1));
        for _ in 0..5 {
            acc.push(&p, tc, Tuple::from_ints(&[1, 2]));
        }
        acc.push(&p, tc, Tuple::from_ints(&[1, 3]));
        assert_eq!(acc.set[tc].local.len(), 6);
        assert!(acc.agg.iter().all(Option::is_none));
    }

    #[test]
    fn coalesce_keeps_the_newest_row_per_route_and_group() {
        // Attend: `attend` is a set relation, `cnt` a count aggregate.
        let a = analyze(parse_program(crate::queries::ATTEND).unwrap()).unwrap();
        let mut cfg = PlannerConfig::default();
        cfg.params.insert("threshold".into(), Value::Int(3));
        let p = plan(&a, &cfg).unwrap();
        let attend = p.rel_by_name("attend").unwrap();
        let cnt = p.rel_by_name("cnt").unwrap();
        let t = |a: i64, b: i64| Tuple::from_ints(&[a, b]);
        let mut rows: Vec<DeltaRow> = vec![
            (cnt, 0, t(1, 1)),
            (attend, 0, Tuple::from_ints(&[4])),
            (cnt, 0, t(2, 1)),
            (cnt, 1, t(1, 1)),
            (cnt, 0, t(1, 2)),
            (attend, 0, Tuple::from_ints(&[4])),
            (cnt, 0, Tuple::new(&[Value::Float(1.0), Value::Int(3)])),
            (attend, 0, Tuple::from_ints(&[2])),
            (cnt, 1, t(2, 1)),
        ];
        let mut c = Coalescer::default();
        c.coalesce(&p, &mut rows);
        assert_eq!(
            rows,
            vec![
                (attend, 0, Tuple::from_ints(&[4])),
                (cnt, 0, t(2, 1)),
                (cnt, 1, t(1, 1)),
                (attend, 0, Tuple::from_ints(&[4])),
                (cnt, 0, Tuple::new(&[Value::Float(1.0), Value::Int(3)])),
                (attend, 0, Tuple::from_ints(&[2])),
                (cnt, 1, t(2, 1)),
            ]
        );
        // The tables are cleared between calls: a second call on the
        // result keeps every row.
        let again = rows.clone();
        c.coalesce(&p, &mut rows);
        assert_eq!(rows, again);
    }

    #[test]
    fn delta_set_take_empties() {
        let mut d = DeltaSet::new();
        assert!(d.is_empty());
        d.rows.push((0, 0, Tuple::from_ints(&[1])));
        d.rows.push((0, 1, Tuple::from_ints(&[2])));
        assert_eq!(d.len(), 2);
        assert_eq!(d.take().len(), 2);
        assert!(d.is_empty());
    }

    #[test]
    fn coordination_cancel_is_idempotent_and_reports_deadline() {
        let p = tc_plan();
        let mut cfg = crate::config::EngineConfig::with_workers(2);
        cfg.timeout = Some(std::time::Duration::from_secs(0));
        let coord = Coordination::new(&p, &cfg);
        // Deadline in the past must trip the check.
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert!(coord.check_deadline().is_err());
        coord.cancel();
        coord.cancel();
        assert!(coord.check_deadline().is_err());
    }
}
