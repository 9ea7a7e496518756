//! The public DCDatalog API: [`Program`] → [`Engine`] → [`EvalResult`].

use crate::catalog::EdbCatalog;
use crate::config::EngineConfig;
use crate::report::EvalReport;
use crate::store::WorkerStore;
use crate::worker::{Coordination, Worker};
use dcd_common::hash::FastMap;
use dcd_common::{DcdError, Result, Tuple, Value};
use dcd_frontend::ast::AggFunc;
use dcd_frontend::physical::{plan, PhysicalPlan, PlannerConfig, StorageKind};
use dcd_frontend::{analyze, parse_program, AnalyzedProgram};
use dcd_storage::SetRelation;
use std::time::{Duration, Instant};

/// A parsed and analyzed Datalog program plus its parameters.
#[derive(Clone, Debug)]
pub struct Program {
    analyzed: AnalyzedProgram,
    params: FastMap<String, Value>,
}

impl Program {
    /// Parses and analyzes Datalog source text.
    pub fn parse(src: &str) -> Result<Program> {
        Ok(Program {
            analyzed: analyze(parse_program(src)?)?,
            params: FastMap::default(),
        })
    }

    /// Binds a named parameter (`start`, `alpha`, …).
    pub fn with_param(mut self, name: &str, value: impl Into<Value>) -> Program {
        self.params.insert(name.to_string(), value.into());
        self
    }

    /// The analyzed form (for inspection).
    pub fn analyzed(&self) -> &AnalyzedProgram {
        &self.analyzed
    }
}

/// Evaluation statistics.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Wall-clock evaluation time (excludes loading, includes planning-free
    /// execution only).
    pub elapsed: Duration,
    /// The full observability report (per-worker counters, time splits,
    /// DWS ω/τ samples, termination totals).
    pub report: EvalReport,
}

impl RunStats {
    /// Total local iterations across workers.
    pub fn total_iterations(&self) -> u64 {
        self.report.total(|w| w.iterations)
    }

    /// Total tuples exchanged between workers.
    pub fn total_sent(&self) -> u64 {
        self.report.total(|w| w.tuples_sent)
    }
}

/// The result of an evaluation: every derived relation, fully merged.
#[derive(Clone, Debug)]
pub struct EvalResult {
    relations: FastMap<String, Vec<Tuple>>,
    /// Statistics of the run.
    pub stats: RunStats,
}

impl EvalResult {
    /// Rows of derived relation `name` (empty slice when absent).
    pub fn relation(&self, name: &str) -> &[Tuple] {
        self.relations
            .get(name)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Sorted rows of `name` (convenience for tests/doctests).
    pub fn sorted(&self, name: &str) -> Vec<Tuple> {
        let mut rows = self.relation(name).to_vec();
        rows.sort();
        rows
    }

    /// Names of all derived relations.
    pub fn relation_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.relations.keys().map(|s| s.as_str()).collect();
        names.sort_unstable();
        names
    }
}

/// The DCDatalog engine: a planned program plus loaded base data.
pub struct Engine {
    plan: PhysicalPlan,
    cfg: EngineConfig,
    edb_data: Vec<Option<Vec<Tuple>>>,
}

impl Engine {
    /// Plans `program` for execution under `cfg`.
    pub fn new(program: Program, cfg: EngineConfig) -> Result<Engine> {
        let planner_cfg = PlannerConfig {
            params: program.params.clone(),
            sum_epsilon: cfg.sum_epsilon,
        };
        let mut plan = plan(&program.analyzed, &planner_cfg)?;
        if cfg.broadcast_routing {
            for decl in plan.idb.iter_mut().flatten() {
                decl.broadcast = true;
            }
        }
        // Inline facts for sum/count relations would need contributor
        // columns; reject them early with a clear message.
        for (rel, _) in &plan.facts {
            if let Some(decl) = plan.idb[*rel].as_ref() {
                if let StorageKind::Agg {
                    func: AggFunc::Sum | AggFunc::Count,
                    ..
                } = decl.kind
                {
                    return Err(DcdError::Planning(format!(
                        "inline facts for sum/count relation '{}' are not supported",
                        decl.name
                    )));
                }
            }
        }
        let edb_data = vec![None; plan.edb.len()];
        Ok(Engine {
            plan,
            cfg,
            edb_data,
        })
    }

    /// The physical plan (EXPLAIN).
    pub fn explain(&self) -> String {
        self.plan.explain()
    }

    /// Loads rows for base relation `name`, replacing any previous load.
    pub fn load_edb(&mut self, name: &str, rows: Vec<Tuple>) -> Result<()> {
        let rel = self
            .plan
            .rel_by_name(name)
            .ok_or_else(|| DcdError::MissingRelation(name.to_string()))?;
        let decl = self.plan.edb[rel]
            .as_ref()
            .ok_or_else(|| DcdError::Planning(format!("'{name}' is a derived relation")))?;
        for t in &rows {
            if t.arity() != decl.arity {
                return Err(DcdError::Execution(format!(
                    "row {t:?} has arity {} but '{name}' expects {}",
                    t.arity(),
                    decl.arity
                )));
            }
        }
        self.edb_data[rel] = Some(rows);
        Ok(())
    }

    /// Convenience: loads `(src, dst)` integer edges.
    pub fn load_edges(&mut self, name: &str, edges: &[(i64, i64)]) -> Result<()> {
        self.load_edb(
            name,
            edges
                .iter()
                .map(|&(a, b)| Tuple::from_ints(&[a, b]))
                .collect(),
        )
    }

    /// Convenience: loads `(src, dst, weight)` integer edges.
    pub fn load_weighted_edges(&mut self, name: &str, edges: &[(i64, i64, i64)]) -> Result<()> {
        self.load_edb(
            name,
            edges
                .iter()
                .map(|&(a, b, w)| Tuple::from_ints(&[a, b, w]))
                .collect(),
        )
    }

    /// Runs the parallel evaluation to the global fixpoint.
    pub fn run(&self) -> Result<EvalResult> {
        // Every EDB referenced by a rule must be loaded (empty is legal but
        // must be explicit, guarding against typos in relation names).
        for decl in self.plan.edb.iter().flatten() {
            if self.edb_data[decl.id].is_none() {
                return Err(DcdError::MissingRelation(decl.name.clone()));
            }
        }
        let coord = Coordination::new(&self.plan, &self.cfg);
        // Seal the EDB once, before any worker spawns: replicated relations
        // become a single Arc-shared copy (rows + indexes), partitioned
        // relations one sealed slice per worker. Catalog construction is
        // off the evaluation clock, like the paper's load phase.
        let catalog = EdbCatalog::build(&self.plan, &self.edb_data, &coord.part);
        for (me, rec) in coord.recorders.iter().enumerate() {
            rec.record_edb_resident(catalog.partitioned_bytes(me));
        }
        let start = Instant::now();
        let n = self.cfg.workers;

        let results: Vec<Result<WorkerStore>> = std::thread::scope(|s| {
            let mut handles = Vec::with_capacity(n);
            for me in 0..n {
                let coord = &coord;
                let plan = &self.plan;
                let cfg = &self.cfg;
                let catalog = &catalog;
                handles.push(s.spawn(move || {
                    let store = WorkerStore::build(plan, catalog, me, cfg.optimized);
                    let worker = Worker::new(plan, cfg, coord, me);
                    let out = worker.run(store);
                    if out.is_err() {
                        coord.cancel();
                    }
                    out
                }));
            }
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(r) => r,
                    Err(_) => {
                        coord.cancel();
                        Err(DcdError::Execution("worker panicked".into()))
                    }
                })
                .collect()
        });
        let elapsed = start.elapsed();

        // On failure, prefer the root-cause error: one worker trips the
        // deadline ("timed out") and cancels the rest, which then report
        // the generic "aborted" — the timeout is the answer.
        if results.iter().any(|r| r.is_err()) {
            let mut first_err = None;
            for r in results {
                if let Err(e) = r {
                    if e.to_string().contains("timed out") {
                        return Err(e);
                    }
                    first_err.get_or_insert(e);
                }
            }
            return Err(first_err.expect("at least one error"));
        }
        let stores = results.into_iter().collect::<Result<Vec<_>>>()?;
        let (produced, consumed) = coord.termination_totals();
        let report = EvalReport {
            strategy: self.cfg.strategy.name().to_string(),
            workers: n,
            elapsed_ns: elapsed.as_nanos() as u64,
            produced,
            consumed,
            edb_replicated_bytes: catalog.replicated_bytes(),
            per_worker: coord.recorders.iter().map(|r| r.snapshot()).collect(),
            traces: coord
                .recorders
                .iter()
                .enumerate()
                .map(|(i, r)| r.take_trace(i))
                .collect(),
        };
        let relations = self.collect(stores);
        Ok(EvalResult {
            relations,
            stats: RunStats { elapsed, report },
        })
    }

    /// Merges per-worker stores into global relations. A set relation
    /// routed by one column, not broadcast, holds each row on exactly one
    /// worker, so its per-worker arenas are moved out and concatenated.
    /// Multi-route and broadcast relations hold replicas that have
    /// converged to identical values, so grouping dedup is safe.
    fn collect(&self, mut stores: Vec<WorkerStore>) -> FastMap<String, Vec<Tuple>> {
        let mut out: FastMap<String, Vec<Tuple>> = FastMap::default();
        for decl in self.plan.idb.iter().flatten() {
            let mut parts = stores.iter_mut().map(|st| {
                st.idb[decl.id]
                    .take()
                    .expect("IDB relation present")
                    .into_rows()
            });
            let rows = match &decl.kind {
                StorageKind::Set if !decl.broadcast && decl.partition_cols.len() == 1 => {
                    let mut rows = parts.next().unwrap_or_default();
                    parts.for_each(|p| rows.extend(p));
                    rows
                }
                StorageKind::Set => {
                    let mut all = SetRelation::with_index_cols(&[]);
                    parts.for_each(|p| {
                        all.insert_batch(&p);
                    });
                    all.into_rows()
                }
                StorageKind::Agg {
                    func, group_cols, ..
                } => {
                    let mut best: FastMap<Vec<Value>, Value> = FastMap::default();
                    for part in parts {
                        for row in part {
                            let group = row.values()[..*group_cols].to_vec();
                            let val = row.values()[*group_cols];
                            best.entry(group)
                                .and_modify(|cur| {
                                    let replace = match func {
                                        AggFunc::Min => val < *cur,
                                        AggFunc::Max => val > *cur,
                                        // Converged replicas are equal;
                                        // keep the first.
                                        AggFunc::Sum | AggFunc::Count => false,
                                    };
                                    if replace {
                                        *cur = val;
                                    }
                                })
                                .or_insert(val);
                        }
                    }
                    best.into_iter()
                        .map(|(mut g, v)| {
                            g.push(v);
                            Tuple::new(&g)
                        })
                        .collect()
                }
            };
            out.insert(decl.name.clone(), rows);
        }
        out
    }
}
