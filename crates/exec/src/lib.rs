//! A scoped worker pool for parallel query evaluation.
//!
//! The paper's expressions are side-effect-free and evaluate to a single
//! state ("evaluation of an expression on a specific database does not
//! change that database", §3.4), which makes the algebra embarrassingly
//! parallel: any operator may split its input, evaluate the pieces
//! concurrently, and merge — as long as the merged result is *identical*
//! to the sequential answer. [`ExecPool`] provides exactly that
//! discipline:
//!
//! * **Partition/merge** ([`ExecPool::map_chunks`]): the input is split
//!   into contiguous chunks, each chunk is evaluated on its own scoped
//!   thread, and the per-chunk results are returned **in chunk order**.
//!   Because the inputs come from `BTreeSet`/`BTreeMap`-backed states,
//!   chunks are disjoint ascending ranges of the canonical order, so an
//!   in-order merge reproduces the sequential result bit for bit.
//! * **Independent subtrees** ([`ExecPool::join`]): the two children of a
//!   binary operator are evaluated concurrently; the left side's error
//!   always wins, so error selection matches the sequential
//!   left-to-right evaluation order.
//!
//! The pool is hermetic — `std::thread::scope` only, no work-stealing
//! runtime — and a pool of **one** thread never spawns: every entry point
//! runs inline on the caller's thread, giving the exact sequential code
//! path. Thread count comes from `ExecPool::new`, or from the
//! `TXTIME_THREADS` environment variable / `available_parallelism` via
//! [`ExecPool::from_env`].
//!
//! Every entry point is attributed to an [`OpKind`] and feeds per-operator
//! call/chunk/wall-time counters, surfaced by [`ExecPool::stats`] (and, in
//! the CLI, `txtime stats`).

use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

pub mod memo;

pub use memo::{MemoCounters, MemoStats};

/// The operators whose work the pool schedules and accounts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Snapshot selection σ.
    Select,
    /// Snapshot projection π.
    Project,
    /// Snapshot cartesian product ×.
    Product,
    /// Snapshot union ∪.
    Union,
    /// Snapshot difference −.
    Difference,
    /// Historical selection σ̂.
    HSelect,
    /// Historical projection π̂.
    HProject,
    /// Historical product ×̂.
    HProduct,
    /// Historical union ∪̂.
    HUnion,
    /// Historical difference −̂.
    HDifference,
    /// Concurrent evaluation of a binary operator's two subtrees.
    Subtree,
    /// Batched rollback resolution (`Engine::resolve_many`).
    Resolve,
    /// Delta propagation through memoized views (`modify_state`).
    Propagate,
    /// Per-shard fan-out of a sharded store's rollback resolution.
    Shard,
    /// Delta-chain compaction (folding deltas into checkpoints).
    Compact,
    /// Cost-based plan search (`Engine::eval` at optimize level 2);
    /// recorded externally, chunks count the plans enumerated.
    Optimize,
    /// Snapshot physical equi-join (hash or merge); chunks count probe
    /// partitions.
    Join,
    /// Historical physical equi-join.
    HJoin,
    /// One served client request (parse→check→plan→execute); recorded
    /// externally by `txtime serve`, chunks count requests.
    Serve,
}

impl OpKind {
    /// Every operator kind, in display order.
    pub const ALL: [OpKind; 19] = [
        OpKind::Select,
        OpKind::Project,
        OpKind::Product,
        OpKind::Join,
        OpKind::Union,
        OpKind::Difference,
        OpKind::HSelect,
        OpKind::HProject,
        OpKind::HProduct,
        OpKind::HJoin,
        OpKind::HUnion,
        OpKind::HDifference,
        OpKind::Subtree,
        OpKind::Resolve,
        OpKind::Propagate,
        OpKind::Shard,
        OpKind::Compact,
        OpKind::Optimize,
        OpKind::Serve,
    ];

    /// The operator's display name.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Select => "select",
            OpKind::Project => "project",
            OpKind::Product => "product",
            OpKind::Union => "union",
            OpKind::Difference => "difference",
            OpKind::HSelect => "hselect",
            OpKind::HProject => "hproject",
            OpKind::HProduct => "hproduct",
            OpKind::HUnion => "hunion",
            OpKind::HDifference => "hdifference",
            OpKind::Subtree => "subtree",
            OpKind::Resolve => "resolve",
            OpKind::Propagate => "propagate",
            OpKind::Shard => "shard",
            OpKind::Compact => "compact",
            OpKind::Optimize => "optimize",
            OpKind::Join => "join",
            OpKind::HJoin => "hjoin",
            OpKind::Serve => "serve",
        }
    }

    /// The minimum number of work units a chunk of this operator should
    /// carry before splitting pays for a thread spawn. The partitioned
    /// kernels derive their grains from this table (for the set
    /// operators the unit is an input tuple/entry; for the products it
    /// is an output pair), so tiny inputs stay inline on the calling
    /// thread instead of paying spawn overhead.
    pub const fn min_chunk(self) -> usize {
        match self {
            // Per-item work is a cheap comparison/copy: demand big chunks.
            OpKind::Select
            | OpKind::Project
            | OpKind::Union
            | OpKind::Difference
            | OpKind::HSelect
            | OpKind::HProject
            | OpKind::HUnion
            | OpKind::HDifference => 512,
            // One left item fans out over the whole right operand: the
            // grain is sized in output pairs, not input items.
            OpKind::Product | OpKind::HProduct => 4096,
            // Per probe tuple: one hash lookup plus its matches.
            OpKind::Join | OpKind::HJoin => 512,
            // Units are whole subtrees / rollback targets / memoized
            // views / shards / chains.
            OpKind::Subtree
            | OpKind::Resolve
            | OpKind::Propagate
            | OpKind::Shard
            | OpKind::Compact
            | OpKind::Optimize
            | OpKind::Serve => 1,
        }
    }

    fn index(self) -> usize {
        OpKind::ALL.iter().position(|&k| k == self).expect("listed")
    }
}

#[derive(Default)]
struct OpCounters {
    calls: AtomicU64,
    chunks: AtomicU64,
    nanos: AtomicU64,
}

/// One operator's accumulated counters (a row of [`ExecStats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpStat {
    /// Operator display name.
    pub name: &'static str,
    /// Scheduled invocations.
    pub calls: u64,
    /// Chunks (units of parallel work) across all invocations; a call
    /// that ran as a single inline chunk counts 1.
    pub chunks: u64,
    /// Wall-clock nanoseconds across all invocations, measured on the
    /// scheduling thread (spawn to last join).
    pub nanos: u64,
}

/// A snapshot of the pool's per-operator counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecStats {
    /// The pool's thread count.
    pub threads: usize,
    /// Per-operator rows, in [`OpKind::ALL`] order.
    pub ops: Vec<OpStat>,
}

impl ExecStats {
    /// Total scheduled invocations across all operators.
    pub fn total_calls(&self) -> u64 {
        self.ops.iter().map(|o| o.calls).sum()
    }

    /// Total chunks across all operators.
    pub fn total_chunks(&self) -> u64 {
        self.ops.iter().map(|o| o.chunks).sum()
    }
}

impl std::fmt::Display for ExecStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "exec: {} thread(s) (host parallelism {})",
            self.threads,
            ExecPool::host_parallelism()
        )?;
        for op in self.ops.iter().filter(|o| o.calls > 0) {
            writeln!(
                f,
                "      {:<12} {:>8} calls {:>8} chunks {:>10.3} ms",
                op.name,
                op.calls,
                op.chunks,
                op.nanos as f64 / 1e6
            )?;
        }
        Ok(())
    }
}

/// Accumulated physical-join gauges, beyond the generic per-operator
/// call/chunk/time counters: how much was built, probed, and partitioned.
/// Surfaced by `txtime stats` so join regressions are observable without
/// a profiler.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinStats {
    /// Join kernel invocations (snapshot and historical).
    pub joins: u64,
    /// Total build-side rows across all joins.
    pub build_rows: u64,
    /// Total probe-side rows across all joins.
    pub probe_rows: u64,
    /// Total probe partitions (chunks) scheduled.
    pub partitions: u64,
}

impl std::fmt::Display for JoinStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "joins: {} ({} build rows, {} probe rows, {} partitions)",
            self.joins, self.build_rows, self.probe_rows, self.partitions
        )
    }
}

/// A scoped worker pool with a fixed thread budget.
///
/// The pool holds no threads while idle: each partition/merge call opens a
/// `std::thread::scope`, spawns at most `threads − 1` workers (the
/// caller's thread always takes the first chunk), and joins them before
/// returning. A one-thread pool is the exact sequential path — no scope,
/// no spawn, no chunk boundary.
pub struct ExecPool {
    threads: usize,
    /// Extra threads currently spawned by [`ExecPool::join`]; bounds
    /// nested subtree parallelism to the thread budget.
    in_flight: AtomicUsize,
    counters: [OpCounters; OpKind::ALL.len()],
    join_counters: [AtomicU64; 4],
}

impl std::fmt::Debug for ExecPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecPool")
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl ExecPool {
    /// A pool with the given thread budget (0 is clamped to 1).
    ///
    /// The budget is taken verbatim — oversubscription included — for
    /// callers that deliberately test scheduling. User-facing entry
    /// points should prefer [`ExecPool::clamped`].
    pub fn new(threads: usize) -> ExecPool {
        ExecPool {
            threads: threads.max(1),
            in_flight: AtomicUsize::new(0),
            counters: std::array::from_fn(|_| OpCounters::default()),
            join_counters: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// The host's available parallelism (1 when it cannot be queried).
    pub fn host_parallelism() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// A pool with the requested budget clamped to the host's available
    /// parallelism: asking for 8 threads on a 1-core host yields a
    /// sequential pool instead of 8 threads contending for one core
    /// (where spawn/join overhead makes partitioned kernels *slower*
    /// than sequential).
    pub fn clamped(threads: usize) -> ExecPool {
        ExecPool::new(threads.max(1).min(ExecPool::host_parallelism()))
    }

    /// A pool sized from the environment: `TXTIME_THREADS` if set to a
    /// positive integer, otherwise `std::thread::available_parallelism`.
    pub fn from_env() -> ExecPool {
        let threads = std::env::var("TXTIME_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        ExecPool::new(threads)
    }

    /// The shared one-thread pool: the exact sequential path.
    pub fn sequential() -> &'static ExecPool {
        static SEQ: OnceLock<ExecPool> = OnceLock::new();
        SEQ.get_or_init(|| ExecPool::new(1))
    }

    /// The pool's thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// How many chunks `items` units of work split into: at most one per
    /// thread, and each of at least `grain` units, so tiny inputs stay on
    /// the calling thread instead of paying spawn overhead.
    pub fn chunks_for(&self, items: usize, grain: usize) -> usize {
        (items / grain.max(1)).clamp(1, self.threads)
    }

    /// Partition/merge: splits `items` into at most `threads` contiguous
    /// chunks of at least `grain` items, maps each chunk with `f` (the
    /// first chunk on the calling thread, the rest on scoped workers),
    /// and returns the results **in chunk order**.
    ///
    /// Because chunks are contiguous, results at index `i` cover items
    /// strictly before those at index `i + 1` — a caller that merges the
    /// results in order reproduces what a single sequential pass over
    /// `items` would have produced.
    pub fn map_chunks<T, R, F>(&self, op: OpKind, items: &[T], grain: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&[T]) -> R + Sync,
    {
        let started = Instant::now();
        let want = self.chunks_for(items.len(), grain);
        let results = if want <= 1 {
            vec![f(items)]
        } else {
            let chunk_len = items.len().div_ceil(want);
            let chunks: Vec<&[T]> = items.chunks(chunk_len).collect();
            std::thread::scope(|s| {
                let workers: Vec<_> = chunks[1..].iter().map(|&c| s.spawn(|| f(c))).collect();
                let mut out = Vec::with_capacity(chunks.len());
                out.push(f(chunks[0]));
                for w in workers {
                    out.push(w.join().expect("exec worker panicked"));
                }
                out
            })
        };
        self.record(
            op,
            results.len() as u64,
            started.elapsed().as_nanos() as u64,
        );
        results
    }

    /// Evaluates two independent fallible computations, concurrently
    /// when a thread is available, and returns both results.
    ///
    /// The left side's error wins, whichever side finished first, so
    /// error selection matches sequential left-to-right evaluation. Run
    /// inline, the right side never starts once the left has failed —
    /// the sequential short-circuit.
    pub fn join<A, B, E, FA, FB>(&self, op: OpKind, fa: FA, fb: FB) -> Result<(A, B), E>
    where
        A: Send,
        B: Send,
        E: Send,
        FA: FnOnce() -> Result<A, E> + Send,
        FB: FnOnce() -> Result<B, E> + Send,
    {
        // Spawning is bounded by the thread budget: deeply nested binary
        // nodes degrade to inline evaluation instead of a thread explosion.
        if self.threads <= 1 || self.in_flight.load(Ordering::Relaxed) + 1 >= self.threads {
            let a = fa()?;
            return Ok((a, fb()?));
        }
        let started = Instant::now();
        self.in_flight.fetch_add(1, Ordering::Relaxed);
        let (a, b) = std::thread::scope(|s| {
            let left = s.spawn(fa);
            let b = fb();
            (left.join().expect("exec worker panicked"), b)
        });
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
        self.record(op, 2, started.elapsed().as_nanos() as u64);
        Ok((a?, b?))
    }

    fn record(&self, op: OpKind, chunks: u64, nanos: u64) {
        let c = &self.counters[op.index()];
        c.calls.fetch_add(1, Ordering::Relaxed);
        c.chunks.fetch_add(chunks, Ordering::Relaxed);
        c.nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Accounts work measured outside the pool under `op`, so phases
    /// the pool does not itself schedule (the engine's plan search)
    /// appear in the same [`ExecStats`] table.
    pub fn record_external(&self, op: OpKind, chunks: u64, elapsed: std::time::Duration) {
        self.record(op, chunks, elapsed.as_nanos() as u64);
    }

    /// Accounts one physical-join invocation's build/probe/partition
    /// volumes (the join kernels call this once per join).
    pub fn note_join(&self, build_rows: u64, probe_rows: u64, partitions: u64) {
        self.join_counters[0].fetch_add(1, Ordering::Relaxed);
        self.join_counters[1].fetch_add(build_rows, Ordering::Relaxed);
        self.join_counters[2].fetch_add(probe_rows, Ordering::Relaxed);
        self.join_counters[3].fetch_add(partitions, Ordering::Relaxed);
    }

    /// A snapshot of the physical-join gauges.
    pub fn join_stats(&self) -> JoinStats {
        JoinStats {
            joins: self.join_counters[0].load(Ordering::Relaxed),
            build_rows: self.join_counters[1].load(Ordering::Relaxed),
            probe_rows: self.join_counters[2].load(Ordering::Relaxed),
            partitions: self.join_counters[3].load(Ordering::Relaxed),
        }
    }

    /// A snapshot of the per-operator counters.
    pub fn stats(&self) -> ExecStats {
        ExecStats {
            threads: self.threads,
            ops: OpKind::ALL
                .iter()
                .map(|&k| {
                    let c = &self.counters[k.index()];
                    OpStat {
                        name: k.name(),
                        calls: c.calls.load(Ordering::Relaxed),
                        chunks: c.chunks.load(Ordering::Relaxed),
                        nanos: c.nanos.load(Ordering::Relaxed),
                    }
                })
                .collect(),
        }
    }

    /// Zeroes every counter.
    pub fn reset_stats(&self) {
        for c in &self.counters {
            c.calls.store(0, Ordering::Relaxed);
            c.chunks.store(0, Ordering::Relaxed);
            c.nanos.store(0, Ordering::Relaxed);
        }
        for c in &self.join_counters {
            c.store(0, Ordering::Relaxed);
        }
    }
}

/// Concatenates per-chunk results in chunk order — the merge step of
/// every partitioned kernel. A single chunk, which is all a one-thread
/// pool ever yields, is handed back as is, without a copy.
pub fn concat<T>(mut runs: Vec<Vec<T>>) -> Vec<T> {
    if runs.len() == 1 {
        return runs.pop().expect("one run");
    }
    let mut out = Vec::with_capacity(runs.iter().map(Vec::len).sum());
    for run in runs {
        out.extend(run);
    }
    out
}

/// Splits two runs, each sorted by `key`, into at most `want` aligned
/// part ranges: the left run is cut at (roughly) even indices, and the
/// right run at the `partition_point` of each left pivot's key, so part
/// *i* of both runs covers the same disjoint key interval and the
/// per-part merges concatenate, in order, to the whole merge.
/// O(want · log |right|).
pub fn aligned_parts<T, K: Ord + ?Sized>(
    left: &[T],
    right: &[T],
    want: usize,
    key: impl Fn(&T) -> &K,
) -> Vec<(Range<usize>, Range<usize>)> {
    let want = want.max(1);
    let mut cuts: Vec<(usize, usize)> = vec![(0, 0)];
    for i in 1..want {
        let l = (left.len() * i) / want;
        let (prev_l, prev_r) = *cuts.last().expect("cuts is non-empty");
        if l <= prev_l || l >= left.len() {
            continue; // degenerate cut: fold into the neighbouring part
        }
        let pivot = key(&left[l]);
        let r = prev_r + right[prev_r..].partition_point(|t| key(t) < pivot);
        cuts.push((l, r));
    }
    cuts.push((left.len(), right.len()));
    cuts.windows(2)
        .map(|w| (w[0].0..w[1].0, w[0].1..w[1].1))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_threads_clamp_to_one() {
        assert_eq!(ExecPool::new(0).threads(), 1);
        assert_eq!(ExecPool::sequential().threads(), 1);
    }

    #[test]
    fn map_chunks_preserves_item_order() {
        let items: Vec<u64> = (0..10_000).collect();
        for threads in [1, 2, 3, 8] {
            let pool = ExecPool::new(threads);
            let sums = pool.map_chunks(OpKind::Select, &items, 16, |chunk| chunk.to_vec());
            let flat: Vec<u64> = sums.into_iter().flatten().collect();
            assert_eq!(flat, items, "{threads} threads");
        }
    }

    #[test]
    fn map_chunks_respects_grain_and_budget() {
        let items: Vec<u64> = (0..100).collect();
        let pool = ExecPool::new(8);
        // 100 items at grain 60 → one chunk, inline.
        assert_eq!(
            pool.map_chunks(OpKind::Union, &items, 60, <[u64]>::len)
                .len(),
            1
        );
        // grain 10 → 8 chunks (thread budget).
        assert_eq!(
            pool.map_chunks(OpKind::Union, &items, 10, <[u64]>::len)
                .len(),
            8
        );
        // grain 1 on a 2-thread pool → 2 chunks.
        let two = ExecPool::new(2);
        assert_eq!(
            two.map_chunks(OpKind::Union, &items, 1, <[u64]>::len).len(),
            2
        );
    }

    #[test]
    fn single_thread_pool_never_splits() {
        let items: Vec<u64> = (0..10_000).collect();
        let pool = ExecPool::new(1);
        let out = pool.map_chunks(OpKind::Product, &items, 1, <[u64]>::len);
        assert_eq!(out, vec![10_000]);
    }

    #[test]
    fn join_returns_both_sides_in_order() {
        for threads in [1, 4] {
            let pool = ExecPool::new(threads);
            let (a, b) = pool
                .join(OpKind::Subtree, || Ok::<_, ()>(1 + 1), || Ok("two"))
                .unwrap();
            assert_eq!((a, b), (2, "two"));
        }
    }

    #[test]
    fn join_reports_the_left_error_first() {
        for threads in [1, 4] {
            let pool = ExecPool::new(threads);
            let right_ran = AtomicUsize::new(0);
            let out: Result<((), ()), &str> = pool.join(
                OpKind::Subtree,
                || Err("left"),
                || {
                    right_ran.fetch_add(1, Ordering::Relaxed);
                    Err("right")
                },
            );
            assert_eq!(out, Err("left"), "{threads} threads");
            if threads == 1 {
                // Inline evaluation short-circuits like a sequential walk.
                assert_eq!(right_ran.load(Ordering::Relaxed), 0);
            }
        }
    }

    #[test]
    fn join_nests_without_exceeding_budget() {
        let pool = ExecPool::new(2);
        let (a, (b, c)) = pool
            .join(
                OpKind::Subtree,
                || Ok::<_, ()>(1),
                || pool.join(OpKind::Subtree, || Ok(2), || Ok(3)),
            )
            .unwrap();
        assert_eq!((a, b, c), (1, 2, 3));
    }

    #[test]
    fn concat_keeps_chunk_order_and_moves_a_single_run() {
        assert_eq!(concat(vec![vec![1, 2], vec![], vec![3]]), vec![1, 2, 3]);
        assert!(concat::<u8>(Vec::new()).is_empty());
        let run = vec![4, 5, 6];
        let ptr = run.as_ptr();
        let out = concat(vec![run]);
        assert_eq!(out.as_ptr(), ptr, "a single run is moved, not copied");
    }

    #[test]
    fn aligned_parts_cover_both_runs_in_order() {
        // Entries sorted by their key component, as historical runs are.
        let left: Vec<(u64, char)> = (0..500).map(|k| (k * 3, 'l')).collect();
        let right: Vec<(u64, char)> = (0..700).map(|k| (k * 2 + 1, 'r')).collect();
        for want in [1, 2, 3, 7, 16] {
            let parts = aligned_parts(&left, &right, want, |(k, _)| k);
            assert!(parts.len() <= want);
            assert_eq!(parts.first().unwrap().0.start, 0);
            assert_eq!(parts.first().unwrap().1.start, 0);
            assert_eq!(parts.last().unwrap().0.end, left.len());
            assert_eq!(parts.last().unwrap().1.end, right.len());
            for w in parts.windows(2) {
                assert_eq!(w[0].0.end, w[1].0.start);
                assert_eq!(w[0].1.end, w[1].1.start);
                // Every key of a part lies below every key of the next.
                let pivot = left[w[1].0.start].0;
                assert!(right[w[0].1.clone()].iter().all(|(k, _)| *k < pivot));
                assert!(right[w[1].1.clone()].iter().all(|(k, _)| *k >= pivot));
            }
        }
    }

    #[test]
    fn stats_account_calls_chunks_and_reset() {
        let pool = ExecPool::new(4);
        let items: Vec<u64> = (0..64).collect();
        pool.map_chunks(OpKind::Select, &items, 8, <[u64]>::len);
        pool.map_chunks(OpKind::Select, &items, 64, <[u64]>::len);
        pool.join(OpKind::Subtree, || Ok::<_, ()>(()), || Ok(()))
            .unwrap();
        let stats = pool.stats();
        assert_eq!(stats.threads, 4);
        let select = stats.ops.iter().find(|o| o.name == "select").unwrap();
        assert_eq!(select.calls, 2);
        assert_eq!(select.chunks, 4 + 1);
        let subtree = stats.ops.iter().find(|o| o.name == "subtree").unwrap();
        assert_eq!(subtree.calls, 1);
        assert!(stats.total_calls() >= 3);
        assert!(stats.to_string().contains("select"));
        pool.reset_stats();
        assert_eq!(pool.stats().total_calls(), 0);
    }

    #[test]
    fn clamped_never_exceeds_host_parallelism() {
        let host = ExecPool::host_parallelism();
        assert!(host >= 1);
        assert_eq!(ExecPool::clamped(0).threads(), 1);
        assert_eq!(ExecPool::clamped(1).threads(), 1);
        assert!(ExecPool::clamped(usize::MAX).threads() <= host);
        // Explicit `new` keeps the verbatim budget for scheduling tests.
        assert_eq!(ExecPool::new(8).threads(), 8);
    }

    #[test]
    fn min_chunk_floors_are_positive() {
        for kind in OpKind::ALL {
            assert!(kind.min_chunk() >= 1, "{}", kind.name());
        }
        // The set kernels demand larger chunks than subtree scheduling.
        assert!(OpKind::Union.min_chunk() > OpKind::Subtree.min_chunk());
    }

    #[test]
    fn from_env_reads_txtime_threads() {
        // Serialized within this test: no other exec test reads the env.
        std::env::set_var("TXTIME_THREADS", "3");
        assert_eq!(ExecPool::from_env().threads(), 3);
        std::env::set_var("TXTIME_THREADS", "not a number");
        assert!(ExecPool::from_env().threads() >= 1);
        std::env::remove_var("TXTIME_THREADS");
        assert!(ExecPool::from_env().threads() >= 1);
    }
}
