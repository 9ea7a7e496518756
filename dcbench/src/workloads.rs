//! The three workloads: seeded input generators and native oracles.
//!
//! Inputs are generated here, not by the repository's `dcd-datagen`, so a
//! change to the engine's crates cannot change what the benchmark feeds
//! it. The engine receives only the generated rows.

use dcd_common::{Tuple, Value};
use dcdatalog::queries;
use std::collections::{HashSet, VecDeque};

/// PageRank damping factor.
pub const PAGERANK_ALPHA: f64 = 0.85;

/// Largest accepted `|engine − oracle|` per PageRank rank, relative to the
/// oracle's rank. The engine suppresses `sum` changes below ε = 1e-9, so
/// its fixpoint is approximate: the largest deviation seen was 6e-6.
pub const RANK_TOLERANCE: f64 = 1e-4;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Transitive closure on an RMAT graph: set-semantics merge and dedup.
    TcRmat,
    /// All-pairs shortest path on a weighted RMAT graph: non-linear
    /// recursion with `min` aggregates.
    ApspRmat,
    /// PageRank on a LiveJournal-shaped power-law graph: `sum` in
    /// recursion, exchange-heavy.
    PagerankWeb,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::TcRmat, Workload::ApspRmat, Workload::PagerankWeb];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TcRmat => "tc-rmat",
            Workload::ApspRmat => "apsp-rmat",
            Workload::PagerankWeb => "pagerank-web",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Vertices of the generated graph at benchmark size.
    pub fn vertices(self) -> usize {
        match self {
            Workload::TcRmat => 512,
            Workload::ApspRmat => 128,
            Workload::PagerankWeb => 1600,
        }
    }
}

/// One generated workload instance.
pub struct Input {
    /// Datalog source of the query.
    pub source: &'static str,
    /// Named parameters the query needs.
    pub params: Vec<(&'static str, Value)>,
    /// The base relation the rows load into.
    pub edb: &'static str,
    /// The generated base rows.
    pub rows: Vec<Tuple>,
    /// The derived relation that is checked.
    pub result: &'static str,
    /// The oracle's answer for `result`.
    pub expected: Expected,
}

/// A checked result, in a canonical sorted form.
#[derive(Clone, Debug, PartialEq)]
pub enum Expected {
    /// `(x, y)` pairs (TC).
    Pairs(Vec<(i64, i64)>),
    /// `(a, b, distance)` triples (APSP).
    Distances(Vec<(i64, i64, i64)>),
    /// `(vertex, rank)` pairs (PageRank), compared within
    /// [`RANK_TOLERANCE`].
    Ranks(Vec<(i64, f64)>),
}

/// Graphs generated per seed. Run times are pooled over them, so that
/// how one graph's hubs happen to fall across partitions moves the
/// medians less.
pub const INSTANCES: u64 = 8;

/// The [`INSTANCES`] inputs of `w` for `seed`, at benchmark size.
pub fn instances(w: Workload, seed: u64) -> Vec<Input> {
    (0..INSTANCES)
        .map(|k| generate(w, seed, k, w.vertices()))
        .collect()
}

/// Generates instance `k` of `w` from `seed`, with `vertices` vertices,
/// and its oracle answer.
pub fn generate(w: Workload, seed: u64, k: u64, vertices: usize) -> Input {
    // Distinct streams per workload and instance.
    let stream = (w as u64) << 32 | k;
    let mut rng = SplitMix64(SplitMix64(seed).next() ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    match w {
        Workload::TcRmat => {
            let arcs = rmat(vertices, 10 * vertices, &mut rng);
            Input {
                source: queries::TC,
                params: Vec::new(),
                edb: "arc",
                rows: arcs
                    .iter()
                    .map(|&(a, b)| Tuple::from_ints(&[a, b]))
                    .collect(),
                result: "tc",
                expected: Expected::Pairs(closure(vertices, &arcs)),
            }
        }
        Workload::ApspRmat => {
            let warcs: Vec<(i64, i64, i64)> = rmat(vertices, 10 * vertices, &mut rng)
                .into_iter()
                .map(|(a, b)| (a, b, 1 + rng.below(100) as i64))
                .collect();
            Input {
                source: queries::APSP,
                params: Vec::new(),
                edb: "warc",
                rows: warcs
                    .iter()
                    .map(|&(a, b, d)| Tuple::from_ints(&[a, b, d]))
                    .collect(),
                result: "apsp",
                expected: Expected::Distances(floyd_warshall(vertices, &warcs)),
            }
        }
        Workload::PagerankWeb => {
            // LiveJournal's 68,993,773 arcs over 4,847,572 vertices.
            let arcs = rmat(vertices, vertices * 68_993_773 / 4_847_572, &mut rng);
            let mut outdeg = vec![0i64; vertices];
            for &(y, _) in &arcs {
                outdeg[y as usize] += 1;
            }
            let ranks = power_iteration(vertices, &arcs, &outdeg);
            Input {
                source: queries::PAGERANK,
                params: vec![
                    ("alpha", Value::Float(PAGERANK_ALPHA)),
                    ("vnum", Value::Float(ranks.len() as f64)),
                ],
                edb: "matrix",
                rows: arcs
                    .iter()
                    .map(|&(y, x)| Tuple::from_ints(&[y, x, outdeg[y as usize]]))
                    .collect(),
                result: "results",
                expected: Expected::Ranks(ranks),
            }
        }
    }
}

/// SplitMix64: a small, fixed PRNG so inputs depend on the seed alone.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49EB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        ((self.next() as u128 * n as u128) >> 64) as u64
    }
}

/// RMAT graph with quadrant probabilities (0.57, 0.19, 0.19, 0.05): up to
/// `edges` distinct arcs over `0..n`, no self-loops.
fn rmat(n: usize, edges: usize, rng: &mut SplitMix64) -> Vec<(i64, i64)> {
    let side = n.next_power_of_two();
    let mut seen = HashSet::with_capacity(edges);
    let mut out = Vec::with_capacity(edges);
    for _ in 0..edges.saturating_mul(20) {
        if out.len() == edges {
            break;
        }
        let (mut x, mut y, mut half) = (0, 0, side / 2);
        while half > 0 {
            let r = rng.unit();
            if r >= 0.57 + 0.19 + 0.19 {
                x += half;
                y += half;
            } else if r >= 0.57 + 0.19 {
                x += half;
            } else if r >= 0.57 {
                y += half;
            }
            half /= 2;
        }
        let (u, v) = ((x % n) as i64, (y % n) as i64);
        if u != v && seen.insert((u, v)) {
            out.push((u, v));
        }
    }
    out
}

/// Transitive closure by breadth-first search from every vertex: `(s, t)`
/// for each `t` reachable from `s` by a path of one or more arcs.
fn closure(n: usize, arcs: &[(i64, i64)]) -> Vec<(i64, i64)> {
    let mut adj = vec![Vec::new(); n];
    for &(a, b) in arcs {
        adj[a as usize].push(b as usize);
    }
    let mut out = Vec::new();
    let mut seen = vec![false; n];
    let mut queue = VecDeque::new();
    for s in 0..n {
        seen.fill(false);
        queue.extend(adj[s].iter().copied());
        while let Some(v) = queue.pop_front() {
            if !seen[v] {
                seen[v] = true;
                queue.extend(adj[v].iter().copied());
            }
        }
        out.extend((0..n).filter(|&t| seen[t]).map(|t| (s as i64, t as i64)));
    }
    out
}

/// Shortest paths by Floyd–Warshall over positive weights. With an
/// infinite diagonal to start from, `d[a][a]` ends as the shortest cycle
/// through `a`, which is what the Datalog `path` derives.
fn floyd_warshall(n: usize, warcs: &[(i64, i64, i64)]) -> Vec<(i64, i64, i64)> {
    let mut d = vec![i64::MAX; n * n];
    for &(a, b, w) in warcs {
        let cell = &mut d[a as usize * n + b as usize];
        *cell = (*cell).min(w);
    }
    for k in 0..n {
        for i in 0..n {
            let dik = d[i * n + k];
            if dik == i64::MAX {
                continue;
            }
            for j in 0..n {
                let dkj = d[k * n + j];
                if dkj != i64::MAX && dik + dkj < d[i * n + j] {
                    d[i * n + j] = dik + dkj;
                }
            }
        }
    }
    let mut out = Vec::new();
    for i in 0..n {
        for j in 0..n {
            if d[i * n + j] != i64::MAX {
                out.push((i as i64, j as i64, d[i * n + j]));
            }
        }
    }
    out
}

/// PageRank by power iteration of the query's own recurrence: a vertex
/// with out-arcs gets `(1 − α) / vnum`, and every arc `y → x` adds
/// `α · rank(y) / outdeg(y)`. Ranked vertices are those on some arc.
fn power_iteration(n: usize, arcs: &[(i64, i64)], outdeg: &[i64]) -> Vec<(i64, f64)> {
    let mut present = vec![false; n];
    for &(y, x) in arcs {
        present[y as usize] = true;
        present[x as usize] = true;
    }
    let vnum = present.iter().filter(|&&p| p).count() as f64;
    let base: Vec<f64> = outdeg
        .iter()
        .map(|&d| {
            if d > 0 {
                (1.0 - PAGERANK_ALPHA) / vnum
            } else {
                0.0
            }
        })
        .collect();
    let mut rank = base.clone();
    for _ in 0..10_000 {
        let mut next = base.clone();
        for &(y, x) in arcs {
            next[x as usize] += PAGERANK_ALPHA * rank[y as usize] / outdeg[y as usize] as f64;
        }
        let moved = next
            .iter()
            .zip(&rank)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        rank = next;
        if moved < 1e-16 {
            break;
        }
    }
    (0..n)
        .filter(|&v| present[v])
        .map(|v| (v as i64, rank[v]))
        .collect()
}

impl Expected {
    /// Number of rows in the answer.
    pub fn len(&self) -> usize {
        match self {
            Expected::Pairs(v) => v.len(),
            Expected::Distances(v) => v.len(),
            Expected::Ranks(v) => v.len(),
        }
    }

    /// The rows of one engine result, in this answer's canonical form.
    pub fn like(&self, rows: &[Tuple]) -> Result<Expected, String> {
        let int = |v: Value| v.as_int().ok_or_else(|| format!("non-integer value {v:?}"));
        fn arity(t: &Tuple, k: usize) -> Result<&[Value], String> {
            if t.arity() == k {
                Ok(t.values())
            } else {
                Err(format!("row {t:?} has arity {}, expected {k}", t.arity()))
            }
        }
        Ok(match self {
            Expected::Pairs(_) => {
                let mut out = rows
                    .iter()
                    .map(|t| arity(t, 2).and_then(|v| Ok((int(v[0])?, int(v[1])?))))
                    .collect::<Result<Vec<_>, _>>()?;
                out.sort_unstable();
                Expected::Pairs(out)
            }
            Expected::Distances(_) => {
                let mut out = rows
                    .iter()
                    .map(|t| arity(t, 3).and_then(|v| Ok((int(v[0])?, int(v[1])?, int(v[2])?))))
                    .collect::<Result<Vec<_>, _>>()?;
                out.sort_unstable();
                Expected::Distances(out)
            }
            Expected::Ranks(_) => {
                let mut out = rows
                    .iter()
                    .map(|t| arity(t, 2).and_then(|v| Ok((int(v[0])?, v[1].as_f64()))))
                    .collect::<Result<Vec<_>, _>>()?;
                out.sort_unstable_by_key(|&(v, _)| v);
                Expected::Ranks(out)
            }
        })
    }

    /// Checks engine rows against this answer; the error names the first
    /// difference.
    pub fn check(&self, rows: &[Tuple]) -> Result<(), String> {
        let got = self.like(rows)?;
        match (self, &got) {
            (Expected::Pairs(want), Expected::Pairs(got)) => same(want, got),
            (Expected::Distances(want), Expected::Distances(got)) => same(want, got),
            (Expected::Ranks(want), Expected::Ranks(got)) => {
                if want.len() != got.len() {
                    return Err(format!("{} ranks, expected {}", got.len(), want.len()));
                }
                for (&(wv, wr), &(gv, gr)) in want.iter().zip(got) {
                    if wv != gv {
                        return Err(format!("vertex {gv} ranked where {wv} was expected"));
                    }
                    // Written so that a NaN rank fails.
                    let close = (gr - wr).abs() <= RANK_TOLERANCE * wr;
                    if !close {
                        return Err(format!("rank of {gv} is {gr}, expected {wr}"));
                    }
                }
                Ok(())
            }
            _ => unreachable!("`like` keeps the variant"),
        }
    }
}

fn same<T: PartialEq + std::fmt::Debug>(want: &[T], got: &[T]) -> Result<(), String> {
    if let Some((w, g)) = want.iter().zip(got).find(|(w, g)| w != g) {
        return Err(format!("row {g:?} where {w:?} was expected"));
    }
    if want.len() != got.len() {
        return Err(format!("{} rows, expected {}", got.len(), want.len()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows_of(e: &Expected) -> Vec<Tuple> {
        match e {
            Expected::Pairs(v) => v.iter().map(|&(a, b)| Tuple::from_ints(&[a, b])).collect(),
            Expected::Distances(v) => v
                .iter()
                .map(|&(a, b, d)| Tuple::from_ints(&[a, b, d]))
                .collect(),
            Expected::Ranks(v) => v
                .iter()
                .map(|&(x, r)| Tuple::new(&[Value::Int(x), Value::Float(r)]))
                .collect(),
        }
    }

    #[test]
    fn inputs_depend_only_on_the_seed() {
        for w in Workload::ALL {
            let (a, b) = (generate(w, 7, 0, 48), generate(w, 7, 0, 48));
            assert_eq!(a.rows, b.rows);
            assert_eq!(a.expected, b.expected);
            assert_ne!(a.rows, generate(w, 8, 0, 48).rows, "{}", w.name());
            assert_ne!(a.rows, generate(w, 7, 1, 48).rows, "{}", w.name());
        }
    }

    #[test]
    fn oracles_accept_their_own_rows() {
        for w in Workload::ALL {
            let input = generate(w, 3, 0, 48);
            input.expected.check(&rows_of(&input.expected)).unwrap();
        }
    }

    #[test]
    fn a_dropped_tc_row_is_rejected() {
        let input = generate(Workload::TcRmat, 3, 0, 48);
        let mut rows = rows_of(&input.expected);
        rows.remove(rows.len() / 2);
        assert!(input.expected.check(&rows).is_err());
    }

    #[test]
    fn an_apsp_distance_off_by_one_is_rejected() {
        let input = generate(Workload::ApspRmat, 3, 0, 48);
        let mut rows = rows_of(&input.expected);
        let i = rows.len() / 2;
        let v = rows[i].values();
        rows[i] = Tuple::new(&[v[0], v[1], Value::Int(v[2].expect_int() + 1)]);
        assert!(input.expected.check(&rows).is_err());
    }

    #[test]
    fn a_rank_past_tolerance_is_rejected() {
        let input = generate(Workload::PagerankWeb, 3, 0, 48);
        let mut rows = rows_of(&input.expected);
        let i = rows.len() / 2;
        let (x, r) = (rows[i].values()[0], rows[i].values()[1].as_f64());
        rows[i] = Tuple::new(&[x, Value::Float(r * (1.0 + 1.01 * RANK_TOLERANCE))]);
        assert!(input.expected.check(&rows).is_err());
        rows[i] = Tuple::new(&[x, Value::Float(r * (1.0 + 0.99 * RANK_TOLERANCE))]);
        input.expected.check(&rows).unwrap();
    }

    #[test]
    fn closure_and_shortest_paths_on_a_cycle() {
        let arcs = [(0, 1), (1, 2), (2, 0)];
        assert_eq!(closure(4, &arcs).len(), 9);
        let d = floyd_warshall(3, &[(0, 1, 2), (1, 2, 3), (2, 0, 4), (0, 2, 9)]);
        assert!(d.contains(&(0, 0, 9)), "diagonal is the shortest cycle");
        assert!(d.contains(&(0, 2, 5)));
    }
}
