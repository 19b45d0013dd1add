//! Spans, and the traced replica of the engine loop.
//!
//! The traced run never times the front door itself: it replays a mine
//! through the public layer pieces — `initial_pool_slab`,
//! `BallIndex::build_with_threads`, `BallQuery::scan` on `run_tasks`,
//! `fuse_ball`, the closure operator, `PoolStore::intern`, `rank_rows` and
//! `materialize` — and records a span around each call. The replica must
//! reproduce `Engine::mine` bit for bit, and the caller checks that it
//! does; an internal refactor of the engine can break the replica, never
//! the untraced measurement.

use cfp_core::ball::{BallIndex, BallQueryStats, PoolDelta};
use cfp_core::fusion::{fuse_ball, FusionParams};
use cfp_core::parallel::run_tasks;
use cfp_core::pool::{materialize, rank_rows, PoolStore};
use cfp_core::{ball_radius, FusionConfig, Pattern};
use cfp_itemset::{ClosureOperator, Itemset, TransactionDb, VerticalIndex};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span: a named interval with the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, `<module>.<operation>`.
    pub name: &'static str,
    /// Seconds since the tracer's origin.
    pub start: f64,
    /// Seconds since the tracer's origin.
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// The span's duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// An in-memory span recorder for one thread. Spans nest strictly.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Self::with_origin(Instant::now())
    }

    /// A tracer sharing another tracer's clock origin.
    pub fn with_origin(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The clock origin.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed().as_secs_f64(),
            end: 0.0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Records a span that already happened (a timed request).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        self.spans.push(Span {
            name,
            start: start.saturating_duration_since(self.origin).as_secs_f64(),
            end: end.saturating_duration_since(self.origin).as_secs_f64(),
            parent: self.open.last().copied(),
        });
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: its duration minus its children's durations.
    fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::duration).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.duration();
            }
        }
        own
    }

    /// Total self time per span name, over the spans under root `root`
    /// (the root included under its own name).
    pub fn self_time_by_name(&self, root: usize) -> BTreeMap<&'static str, f64> {
        let own = self.self_times();
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if self.is_under(i, root) {
                *out.entry(s.name).or_insert(0.0) += own[i];
            }
        }
        out
    }

    /// Total duration of the spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .sum()
    }

    /// Index of the last top-level span named `name`.
    pub fn root(&self, name: &str) -> Option<usize> {
        self.spans
            .iter()
            .rposition(|s| s.name == name && s.parent.is_none())
    }

    fn is_under(&self, mut i: usize, root: usize) -> bool {
        loop {
            if i == root {
                return true;
            }
            match self.spans[i].parent {
                Some(p) => i = p,
                None => return false,
            }
        }
    }

    /// Reconciles root span `root`: `(total, unattributed)`, where
    /// `unattributed` is the root's own self time — wall clock no layer
    /// span accounts for — as a share of the total. The layers' self times
    /// sum to `total × (1 − unattributed)`.
    pub fn reconcile(&self, root: usize) -> (f64, f64) {
        let total = self.spans[root].duration();
        let own = self.self_times()[root];
        (total, if total > 0.0 { own / total } else { 0.0 })
    }

    /// The spans as JSON lines: `{"id", "name", "start", "end", "parent"}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start\": {}, \"end\": {}, \"parent\": {parent}}}",
                s.name, s.start, s.end
            );
        }
        out
    }
}

/// What the replica's fusion loop did, counted where the work happens.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoopCounts {
    /// Fusion iterations.
    pub iterations: u64,
    /// Ball-query pruning counters, summed over iterations.
    pub ball: BallCounts,
    /// Ball members handed to the fusion operator (after the ball cap).
    pub members_in: u64,
    /// Distinct patterns the iterations generated.
    pub generated: u64,
    /// Index rows tombstoned by incremental maintenance.
    pub tombstoned: u64,
    /// Index rows inserted into the side buffer.
    pub inserted: u64,
    /// Compaction rebuilds of the index.
    pub compactions: u64,
    /// Rows the loop returned.
    pub patterns: u64,
}

/// The ball-query counters the benchmark reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BallCounts {
    /// Candidate pairs considered.
    pub pairs: u64,
    /// Pairs the exact kernel evaluated.
    pub exact: u64,
    /// Pairs inside the ball.
    pub members: u64,
}

impl BallCounts {
    /// Adds the counters of one query batch.
    pub fn add(&mut self, s: &BallQueryStats) {
        self.pairs += s.pairs_total;
        self.exact += s.exact_checked;
        self.members += s.ball_members;
    }
}

/// Live candidates per ball-scan task. The engine uses the same segment
/// size; any size gives the same balls, because segments merge in task
/// order and every ball is sorted.
const SCAN_TASK_CANDIDATES: usize = 2048;

/// SplitMix64 finalizer — the engine's per-seed RNG derivation.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The unsharded fusion loop over row-id pool `rows`, replayed from public
/// pieces with a span around each layer call. Returns the final ranked
/// rows (archive merged) and the loop's counters.
pub fn fusion_loop(
    t: &mut Tracer,
    store: &mut PoolStore,
    mut rows: Vec<u32>,
    cfg: &FusionConfig,
    vindex: &VerticalIndex,
) -> (Vec<u32>, LoopCounts) {
    let mut counts = LoopCounts::default();
    if rows.is_empty() {
        return (rows, counts);
    }
    let threads = if cfg.parallel {
        cfg.threads.unwrap_or(1)
    } else {
        1
    };
    let params = FusionParams {
        tau: cfg.tau,
        min_count: cfg.min_count,
        attempts: cfg.attempts_per_seed,
        max_results: cfg.max_results_per_seed,
    };
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut archive: Vec<u32> = Vec::new();
    let mut index = t.span("ball.build", |_| {
        BallIndex::build_with_threads(store, &rows, ball_radius(cfg.tau), cfg.ball_pivots, threads)
    });

    for iteration in 0..cfg.max_iterations {
        counts.iterations += 1;
        let n_seeds = cfg.k.min(rows.len()).max(1);
        let seeds: Vec<usize> = rand::seq::index::sample(&mut rng, rows.len(), n_seeds).into_vec();

        let (balls, ball_stats) = t.span("ball.scan", |_| {
            let queries: Vec<_> = seeds.iter().map(|&q| index.query(q)).collect();
            let mut tasks: Vec<(usize, std::ops::Range<usize>)> = Vec::new();
            for (order, query) in queries.iter().enumerate() {
                for seg in query.segments(SCAN_TASK_CANDIDATES) {
                    tasks.push((order, seg));
                }
            }
            let st: &PoolStore = store;
            let scanned = run_tasks(tasks.len(), threads, |i| {
                let (order, ref seg) = tasks[i];
                let mut members = Vec::new();
                let mut stats = BallQueryStats::default();
                queries[order].scan(st, seg.clone(), &mut members, &mut stats);
                (members, stats)
            });
            let mut balls: Vec<Vec<usize>> = vec![Vec::new(); seeds.len()];
            let mut ball_stats = BallQueryStats::default();
            for query in &queries {
                query.account(&mut ball_stats);
            }
            for ((order, _), (members, stats)) in tasks.iter().zip(scanned) {
                balls[*order].extend(members);
                ball_stats.merge(&stats);
            }
            for ball in &mut balls {
                ball.sort_unstable();
            }
            (balls, ball_stats)
        });
        counts.ball.add(&ball_stats);

        let mut per_seed: Vec<Vec<Pattern>> = t.span("fusion.fuse", |_| {
            let st: &PoolStore = store;
            run_tasks(seeds.len(), threads, |order| {
                let ball = &balls[order];
                let mut seed_rng = StdRng::seed_from_u64(splitmix64(
                    cfg.seed
                        .wrapping_add((iteration as u64) << 32)
                        .wrapping_add(order as u64),
                ));
                let sampled: Vec<usize>;
                let ball: &[usize] = if ball.len() > cfg.max_ball_size {
                    sampled =
                        rand::seq::index::sample(&mut seed_rng, ball.len(), cfg.max_ball_size)
                            .into_iter()
                            .map(|i| ball[i])
                            .collect();
                    &sampled
                } else {
                    ball
                };
                fuse_ball(st, &rows, seeds[order], ball, &params, &mut seed_rng)
            })
        });
        counts.members_in += balls
            .iter()
            .map(|b| b.len().min(cfg.max_ball_size) as u64)
            .sum::<u64>();

        if cfg.closure_step {
            t.span("closure.close", |_| {
                let cl = ClosureOperator::new(vindex);
                let closed: Vec<Vec<Itemset>> = run_tasks(per_seed.len(), threads, |order| {
                    per_seed[order]
                        .iter()
                        .map(|p| cl.closure_of_tidset(&p.tids))
                        .collect()
                });
                for (out, items) in per_seed.iter_mut().zip(closed) {
                    for (p, items) in out.iter_mut().zip(items) {
                        p.items = items;
                    }
                }
            });
        }

        let next: Vec<u32> = t.span("pool.intern", |_| {
            let mut next = Vec::new();
            let mut seen: HashSet<u32> = HashSet::new();
            for p in per_seed.into_iter().flatten() {
                let row = store.intern(&p);
                if seen.insert(row) {
                    next.push(row);
                }
            }
            if cfg.archive {
                archive.extend(next.iter().copied());
                rank_rows(store, &mut archive);
                archive.truncate(cfg.archive_cap.unwrap_or(cfg.k));
            }
            next
        });
        counts.generated += next.len() as u64;

        let stagnated = next.len() == rows.len() && {
            let mut a = rows.clone();
            let mut b = next.clone();
            a.sort_unstable();
            b.sort_unstable();
            a == b
        };
        let continuing = next.len() > cfg.k && !stagnated && iteration + 1 < cfg.max_iterations;
        if continuing {
            let m = t.span("ball.maintain", |_| {
                index.adapt_pivot_target(&ball_stats);
                let delta = PoolDelta::compute(&rows, &next, store.len_rows());
                index.apply_delta(store, &next, &delta, threads)
            });
            counts.tombstoned += m.tombstoned;
            counts.inserted += m.inserted;
        }
        rows = next;
        if rows.len() <= cfg.k || stagnated {
            break;
        }
    }
    counts.compactions = index.compactions();

    t.span("pool.materialize", |_| {
        if cfg.archive {
            let cap = rows.len().max(cfg.archive_cap.unwrap_or(cfg.k));
            rows.extend(archive);
            rank_rows(store, &mut rows);
            rows.truncate(cap);
        } else {
            rank_rows(store, &mut rows);
        }
    });
    counts.patterns = rows.len() as u64;
    (rows, counts)
}

/// What one traced replica mine produced.
pub struct ReplicaMine {
    /// The parsed database.
    pub db: TransactionDb,
    /// The materialized result.
    pub patterns: Vec<Pattern>,
    /// Loop counters.
    pub counts: LoopCounts,
    /// Initial-pool rows.
    pub pool_rows: usize,
    /// Initial-pool tid region in bytes.
    pub tid_bytes: usize,
    /// Bytes of one padded tid row.
    pub row_bytes: usize,
}

/// Replays `Engine::mine(Source::Transactions)` for an unsharded config:
/// FIMI bytes → parse → vertical index → initial pool → fusion loop →
/// materialized patterns, one span per layer under a `mine` root.
pub fn replica_mine(
    t: &mut Tracer,
    fimi: &[u8],
    cfg: &FusionConfig,
) -> Result<ReplicaMine, String> {
    t.span("mine", |t| {
        let db = t.span("io.parse", |_| crate::parse(fimi))?;
        let vindex = t.span("vertical.build", |_| VerticalIndex::new(&db));
        let threads = cfg.threads.unwrap_or(1);
        let (slab, _) = t.span("initial_pool.mine", |_| {
            cfp_miners::initial_pool_slab(&db, cfg.min_count, cfg.pool_max_len, threads)
        });
        let mut store = PoolStore::new(slab);
        let pool_rows = store.base_len();
        let tid_bytes = store.tid_bytes();
        let row_bytes = store.words_per_row() * 8;
        let rows: Vec<u32> = (0..pool_rows as u32).collect();
        let (rows, counts) = fusion_loop(t, &mut store, rows, cfg, &vindex);
        let patterns = t.span("pool.materialize", |_| materialize(&store, &rows));
        Ok(ReplicaMine {
            db,
            patterns,
            counts,
            pool_rows,
            tid_bytes,
            row_bytes,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfp_core::Source;

    #[test]
    fn self_times_reconcile() {
        let mut t = Tracer::new();
        t.span("root", |t| {
            t.span("a", |t| {
                t.span("b", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                })
            });
            t.span("c", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let root = t.root("root").expect("root span");
        let (total, unattributed) = t.reconcile(root);
        let by_name = t.self_time_by_name(root);
        let sum: f64 = by_name.values().sum();
        assert!((sum - total).abs() < 1e-9);
        assert!(unattributed < 0.5, "{unattributed}");
        assert_eq!(t.to_jsonl().lines().count(), 4);
    }

    #[test]
    fn replica_reproduces_the_engine() {
        let db = cfp_datagen::diag_plus(12, 6, 9);
        let mut fimi = Vec::new();
        cfp_itemset::write_fimi(&db, &mut fimi).expect("in-memory write");
        for closure in [false, true] {
            let cfg = FusionConfig::new(8, 6)
                .with_pool_max_len(2)
                .with_closure_step(closure)
                .with_threads(2)
                .with_shards(1)
                .with_seed(7);
            let parsed = crate::parse(&fimi).expect("parse");
            let want = cfg
                .engine(&parsed)
                .mine(Source::Transactions)
                .expect("mine");
            let got = replica_mine(&mut Tracer::new(), &fimi, &cfg).expect("replica");
            assert_eq!(got.patterns, want.patterns);
        }
    }
}
