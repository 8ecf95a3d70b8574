//! Deterministic multi-threaded execution of row-chunked kernels.
//!
//! Every parallel kernel in this workspace is built from two primitives
//! here, and both obey one rule: **the execution plan is a pure function of
//! the operand shapes**. Rows are cut into fixed [`CHUNK_ROWS`]-row chunks,
//! the sequential/parallel decision ([`should_par`]) looks only at the work
//! size, and reductions combine per-chunk partials in ascending chunk
//! order. The configured thread count decides *which OS thread executes
//! which chunk* — never what is computed or in what order values are
//! combined — so results are bit-identical at `RETIA_NUM_THREADS=1`, `=2`,
//! `=8`, or any other setting.
//!
//! Workers are `std::thread::scope` threads spawned per call (the only
//! primitive available without external crates). On a 2-vCPU x86-64 host a
//! scoped spawn plus join costs a median of ≈45 µs with an empty body and
//! ≈55 µs inside a kernel, where the second core starts with cold caches.
//! [`should_par`]'s break-even follows from that: `W` flops at a per-core
//! rate `R` take `W / R` on one thread and `W / (p·R) + S` on two, where
//! `S` is the spawn cost and `p` the two-thread speedup of the kernel body.
//! Threads pay once `W > S·R·p / (p − 1)`. The register-blocked matmul
//! family runs at `R` ≈ 12–16 GFLOP/s per core and reaches only `p` ≈
//! 1.1–1.3 on those two vCPUs, giving `W` ≈ 2.5–4 MFLOP;
//! `MIN_PAR_WORK` is the next power of two, 2^22 ≈ 4.2 MFLOP.

use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Rows per chunk. Fixed — never derived from the thread count — so chunk
/// boundaries (and therefore reduction order) depend only on shape.
pub const CHUNK_ROWS: usize = 16;

/// Minimum estimated flops before scoped threads are worth spawning: the
/// `S·R·p / (p − 1)` break-even derived in the module docs, rounded up.
const MIN_PAR_WORK: usize = 1 << 22;

/// Hard cap on worker threads.
const MAX_THREADS: usize = 256;

static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Programmatic thread-count override; `0` returns control to the
/// `RETIA_NUM_THREADS` environment variable / auto detection. Typically
/// driven by `RetiaConfig::num_threads`.
pub fn set_num_threads(n: usize) {
    OVERRIDE.store(n, Ordering::Relaxed);
}

/// Worker threads used by parallel kernels: the [`set_num_threads`]
/// override if set, else `RETIA_NUM_THREADS`, else the machine's available
/// parallelism. Always at least 1. Changing this never changes results.
pub fn num_threads() -> usize {
    let forced = OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced.min(MAX_THREADS);
    }
    if let Ok(v) = std::env::var("RETIA_NUM_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            if n > 0 {
                return n.min(MAX_THREADS);
            }
        }
    }
    std::thread::available_parallelism().map(|n| n.get().min(MAX_THREADS)).unwrap_or(1)
}

/// Whether a kernel of `rows` rows costing `cost_per_row` estimated flops
/// each should use worker threads. A function of shape only: thread count
/// does not enter, so the chunked code path (and thus the result) is the
/// same whether or not threads end up being spawned.
pub fn should_par(rows: usize, cost_per_row: usize) -> bool {
    rows > CHUNK_ROWS && rows.saturating_mul(cost_per_row) >= MIN_PAR_WORK
}

/// The fixed chunk decomposition of `rows`: `[0,16), [16,32), …` with a
/// short tail. Shared by every kernel and by the partial-reduction merge
/// order.
pub fn row_chunks(rows: usize) -> impl Iterator<Item = Range<usize>> {
    (0..rows.div_ceil(CHUNK_ROWS)).map(move |c| {
        let start = c * CHUNK_ROWS;
        start..((start + CHUNK_ROWS).min(rows))
    })
}

/// Why a chunk plan (or an observed write-set) fails verification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanError {
    /// A chunk's end precedes its start.
    Inverted {
        /// The inverted row range.
        chunk: Range<usize>,
    },
    /// A chunk reaches past the output rows.
    OutOfBounds {
        /// The offending row range.
        chunk: Range<usize>,
        /// Total rows in the output.
        rows: usize,
    },
    /// Two chunks claim the same rows — a write-write race under threads.
    Overlap {
        /// The first (lower-starting) of the colliding chunks.
        a: Range<usize>,
        /// The chunk that re-claims rows already covered by `a`.
        b: Range<usize>,
    },
    /// Rows `from..to` are claimed by no chunk — output left unwritten.
    Gap {
        /// First uncovered row.
        from: usize,
        /// One past the last uncovered row.
        to: usize,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Inverted { chunk } => {
                write!(f, "inverted chunk {}..{}", chunk.start, chunk.end)
            }
            PlanError::OutOfBounds { chunk, rows } => {
                write!(f, "chunk {}..{} exceeds {rows} rows", chunk.start, chunk.end)
            }
            PlanError::Overlap { a, b } => write!(
                f,
                "chunks {}..{} and {}..{} overlap (write-write race)",
                a.start, a.end, b.start, b.end
            ),
            PlanError::Gap { from, to } => write!(f, "rows {from}..{to} covered by no chunk"),
        }
    }
}

/// Proves a chunk plan safe: every chunk in bounds, pairwise disjoint, and
/// together covering `0..rows` exactly. Interval arithmetic over row ranges
/// — the disjointness half is exactly the no-data-race argument for handing
/// the chunks to different threads, the coverage half guarantees no row of
/// the output is left unwritten. Chunk order does not matter; zero-length
/// chunks contribute nothing and are tolerated.
pub fn verify_row_plan(rows: usize, chunks: &[Range<usize>]) -> Result<(), PlanError> {
    verify_extent_plan(rows, chunks)
}

/// Column-range twin of [`verify_row_plan`], for plans that shard the
/// *columns* of an output — the sharded decode splits `matmul_nt` over
/// candidate-column ranges (one disjoint `lo..hi` slice of the logit matrix
/// per thread), and this is the interval-overlap proof that those writes
/// cannot race and no candidate column is left unscored. The `matmul_nt`
/// output-lane loop is order-invariant (see `transfer::REDUCTION_SITES`),
/// so a verified column plan also preserves bit-identity.
pub fn verify_col_plan(cols: usize, chunks: &[Range<usize>]) -> Result<(), PlanError> {
    verify_extent_plan(cols, chunks)
}

/// Shared interval sweep behind [`verify_row_plan`] / [`verify_col_plan`]:
/// the lane axis (rows or columns) is abstract here.
fn verify_extent_plan(extent: usize, chunks: &[Range<usize>]) -> Result<(), PlanError> {
    let mut sorted: Vec<Range<usize>> = Vec::with_capacity(chunks.len());
    for c in chunks {
        if c.end < c.start {
            return Err(PlanError::Inverted { chunk: c.clone() });
        }
        if c.end > extent {
            return Err(PlanError::OutOfBounds { chunk: c.clone(), rows: extent });
        }
        if !c.is_empty() {
            sorted.push(c.clone());
        }
    }
    sorted.sort_by_key(|c| c.start);
    let mut covered = 0usize;
    let mut prev: Range<usize> = 0..0;
    for c in sorted {
        if c.start < covered {
            return Err(PlanError::Overlap { a: prev, b: c });
        }
        if c.start > covered {
            return Err(PlanError::Gap { from: covered, to: c.start });
        }
        covered = c.end;
        prev = c;
    }
    if covered < extent {
        return Err(PlanError::Gap { from: covered, to: extent });
    }
    Ok(())
}

/// Debug-assertions write-set tracker: a deterministic race detector.
///
/// When tracking is on (debug builds with [`writeset::set_tracking`] or
/// `RETIA_WRITE_TRACK=1`), [`for_each_row_chunk`] records the row range each
/// chunk closure actually receives and, after the kernel completes, asserts
/// the observed write-set is pairwise disjoint and covers the output exactly
/// (via [`verify_row_plan`]). This checks the *executed* writes, not just
/// the plan, so a future refactor that hands two threads overlapping slices
/// fails loudly in the debug test pass instead of corrupting floats.
pub mod writeset {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::OnceLock;

    static ENABLED: AtomicBool = AtomicBool::new(false);
    static VERIFIED: AtomicUsize = AtomicUsize::new(0);

    fn env_enabled() -> bool {
        static ENV: OnceLock<bool> = OnceLock::new();
        *ENV.get_or_init(|| std::env::var("RETIA_WRITE_TRACK").is_ok_and(|v| v == "1"))
    }

    /// Turns tracking on/off programmatically (tests). Debug builds only:
    /// release builds never track, whatever this says.
    pub fn set_tracking(on: bool) {
        ENABLED.store(on, Ordering::Relaxed);
    }

    /// Whether kernels should record and verify their write-sets.
    pub fn tracking() -> bool {
        cfg!(debug_assertions) && (ENABLED.load(Ordering::Relaxed) || env_enabled())
    }

    /// Number of kernel invocations whose write-set has been verified since
    /// process start. Tests assert this moves to prove the detector ran.
    pub fn verified_count() -> usize {
        VERIFIED.load(Ordering::Relaxed)
    }

    pub(super) fn record_verified() {
        VERIFIED.fetch_add(1, Ordering::Relaxed);
    }
}

/// Runs `f(first_row, chunk)` over `out` split into [`CHUNK_ROWS`]·`row_width`
/// element chunks, in parallel when [`should_par`] says the work justifies
/// it. Chunks are disjoint `&mut` slices, so any assignment of chunks to
/// threads writes the identical output; assignment is static round-robin.
///
/// Debug builds verify the chunk plan with [`verify_row_plan`]; with
/// [`writeset`] tracking on, the rows each closure actually received are
/// re-verified after the kernel completes.
pub fn for_each_row_chunk<F>(out: &mut [f32], row_width: usize, cost_per_row: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    let rows = out.len().checked_div(row_width).unwrap_or(0);
    debug_assert_eq!(rows * row_width, out.len(), "out is not a whole number of rows");
    debug_assert!(
        verify_row_plan(rows, &row_chunks(rows).collect::<Vec<_>>()).is_ok(),
        "row_chunks produced an unsafe plan for {rows} rows"
    );
    let track = writeset::tracking();
    let written: Mutex<Vec<Range<usize>>> = Mutex::new(Vec::new());
    let g = |first_row: usize, chunk: &mut [f32]| {
        if track {
            let chunk_rows = chunk.len().checked_div(row_width).unwrap_or(0);
            written
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(first_row..first_row + chunk_rows);
        }
        f(first_row, chunk);
    };
    let chunk_elems = (CHUNK_ROWS * row_width).max(1);
    let threads = effective_threads(rows, cost_per_row);
    if threads <= 1 {
        for (c, chunk) in out.chunks_mut(chunk_elems).enumerate() {
            g(c * CHUNK_ROWS, chunk);
        }
    } else {
        let mut groups: Vec<Vec<(usize, &mut [f32])>> = (0..threads).map(|_| Vec::new()).collect();
        for (c, chunk) in out.chunks_mut(chunk_elems).enumerate() {
            groups[c % threads].push((c * CHUNK_ROWS, chunk));
        }
        run_groups(groups, &|(first_row, chunk)| g(first_row, chunk));
    }
    if track && row_width > 0 {
        let writes = written.into_inner().unwrap_or_else(|e| e.into_inner());
        verify_row_plan(rows, &writes)
            .expect("write-set tracker: chunk writes must be disjoint and cover the output");
        writeset::record_verified();
    }
}

/// Maps the fixed chunk decomposition of `rows` to per-chunk values,
/// returned **in chunk order** regardless of which thread produced which
/// value. Reductions stay deterministic by folding this vector left to
/// right.
pub fn map_row_chunks<T, F>(rows: usize, cost_per_row: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let ranges: Vec<Range<usize>> = row_chunks(rows).collect();
    debug_assert!(
        verify_row_plan(rows, &ranges).is_ok(),
        "row_chunks produced an unsafe plan for {rows} rows"
    );
    let mut slots: Vec<Option<T>> = ranges.iter().map(|_| None).collect();
    let threads = effective_threads(rows, cost_per_row);
    if threads <= 1 {
        for (slot, range) in slots.iter_mut().zip(ranges) {
            *slot = Some(f(range));
        }
    } else {
        let mut groups: Vec<Vec<(&mut Option<T>, Range<usize>)>> =
            (0..threads).map(|_| Vec::new()).collect();
        for (c, (slot, range)) in slots.iter_mut().zip(ranges).enumerate() {
            groups[c % threads].push((slot, range));
        }
        run_groups(groups, &|(slot, range)| *slot = Some(f(range)));
    }
    slots.into_iter().map(|s| s.expect("every chunk visited")).collect()
}

fn effective_threads(rows: usize, cost_per_row: usize) -> usize {
    if !should_par(rows, cost_per_row) {
        if retia_obs::kernel_timing_enabled() {
            retia_obs::metrics::inc("parallel.dispatch.seq");
        }
        return 1;
    }
    // No point spawning more workers than there are chunks.
    let threads = num_threads().min(rows.div_ceil(CHUNK_ROWS)).max(1);
    if retia_obs::kernel_timing_enabled() {
        retia_obs::metrics::inc(if threads > 1 {
            "parallel.dispatch.par"
        } else {
            "parallel.dispatch.seq"
        });
    }
    threads
}

/// Executes each group of work items on its own scoped thread; the calling
/// thread takes group 0 instead of idling in `scope`'s join.
fn run_groups<I: Send, F: Fn(I) + Sync>(groups: Vec<Vec<I>>, f: &F) {
    std::thread::scope(|s| {
        let mut iter = groups.into_iter();
        let own = iter.next();
        for group in iter {
            if !group.is_empty() {
                s.spawn(move || {
                    for item in group {
                        f(item);
                    }
                });
            }
        }
        if let Some(group) = own {
            for item in group {
                f(item);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// The thread-count override and `RETIA_NUM_THREADS` are process
    /// globals; tests mutating them serialize on this lock and restore the
    /// override on drop (even across a panic).
    struct ThreadGuard(#[allow(dead_code)] MutexGuard<'static, ()>);
    impl ThreadGuard {
        fn lock() -> Self {
            static LOCK: Mutex<()> = Mutex::new(());
            Self(LOCK.lock().unwrap_or_else(|e| e.into_inner()))
        }
    }
    impl Drop for ThreadGuard {
        fn drop(&mut self) {
            set_num_threads(0);
        }
    }

    #[test]
    fn row_chunks_partition_rows() {
        for rows in [0usize, 1, 15, 16, 17, 160, 161] {
            let ranges: Vec<_> = row_chunks(rows).collect();
            let total: usize = ranges.iter().map(|r| r.len()).sum();
            assert_eq!(total, rows, "rows {rows}");
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
            if let Some(last) = ranges.last() {
                assert_eq!(last.end, rows);
            }
        }
    }

    #[test]
    fn chunk_plan_ignores_thread_count() {
        let _guard = ThreadGuard::lock();
        // The partials vector must be identical (values *and* order) at any
        // thread count — this is the determinism contract itself.
        let run = |threads: usize| -> Vec<f64> {
            set_num_threads(threads);
            map_row_chunks(1000, 1 << 12, |r| r.map(|i| (i as f64).sqrt()).sum())
        };
        let one = run(1);
        for threads in [2usize, 3, 8, 64] {
            let many = run(threads);
            assert_eq!(one.len(), many.len());
            for (a, b) in one.iter().zip(many.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn for_each_row_chunk_writes_every_row() {
        let _guard = ThreadGuard::lock();
        for threads in [1usize, 4] {
            set_num_threads(threads);
            let (rows, width) = (100usize, 7usize);
            let mut out = vec![0.0f32; rows * width];
            for_each_row_chunk(&mut out, width, 1 << 12, |first_row, chunk| {
                for (d, row) in chunk.chunks_mut(width).enumerate() {
                    for (j, x) in row.iter_mut().enumerate() {
                        *x = ((first_row + d) * width + j) as f32;
                    }
                }
            });
            for (i, &x) in out.iter().enumerate() {
                assert_eq!(x, i as f32);
            }
        }
    }

    #[test]
    fn prover_accepts_generated_plans() {
        for rows in [0usize, 1, 15, 16, 17, 160, 161, 1000] {
            let plan: Vec<_> = row_chunks(rows).collect();
            assert_eq!(verify_row_plan(rows, &plan), Ok(()), "rows {rows}");
        }
        // Order must not matter: a shuffled plan is still safe.
        let mut plan: Vec<_> = row_chunks(100).collect();
        plan.reverse();
        assert_eq!(verify_row_plan(100, &plan), Ok(()));
    }

    #[test]
    fn prover_rejects_crafted_overlapping_plan() {
        // Two chunks both claim rows 8..16 — a write-write race.
        let racy = vec![0..16, 8..32];
        match verify_row_plan(32, &racy) {
            Err(PlanError::Overlap { a, b }) => {
                assert_eq!((a, b), (0..16, 8..32));
            }
            other => panic!("expected Overlap, got {other:?}"),
        }
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init, clippy::reversed_empty_ranges)]
    fn prover_rejects_gaps_and_out_of_bounds() {
        assert_eq!(verify_row_plan(32, &[0..16]), Err(PlanError::Gap { from: 16, to: 32 }));
        assert_eq!(verify_row_plan(32, &[0..8, 16..32]), Err(PlanError::Gap { from: 8, to: 16 }));
        assert_eq!(
            verify_row_plan(16, &[0..16, 16..24]),
            Err(PlanError::OutOfBounds { chunk: 16..24, rows: 16 })
        );
        let inverted = vec![8..4];
        assert_eq!(verify_row_plan(16, &inverted), Err(PlanError::Inverted { chunk: 8..4 }));
        // Empty plans only cover empty outputs.
        assert_eq!(verify_row_plan(0, &[]), Ok(()));
        assert_eq!(verify_row_plan(4, &[]), Err(PlanError::Gap { from: 0, to: 4 }));
    }

    #[test]
    fn col_plan_mirrors_row_plan_semantics() {
        // The decode sharding shape: near-equal contiguous column ranges.
        for (cols, shards) in [(1usize, 1usize), (7, 3), (64, 4), (100, 7), (23_033, 8)] {
            let base = cols / shards;
            let extra = cols % shards;
            let mut plan = Vec::new();
            let mut start = 0;
            for s in 0..shards {
                let len = base + usize::from(s < extra);
                plan.push(start..start + len);
                start += len;
            }
            assert_eq!(verify_col_plan(cols, &plan), Ok(()), "cols {cols} shards {shards}");
        }
        // Out-of-order shards still verify; racy/partial plans do not.
        assert_eq!(verify_col_plan(10, &[5..10, 0..5]), Ok(()));
        assert_eq!(
            verify_col_plan(10, &[0..6, 4..10]),
            Err(PlanError::Overlap { a: 0..6, b: 4..10 })
        );
        assert_eq!(verify_col_plan(10, &[0..4, 6..10]), Err(PlanError::Gap { from: 4, to: 6 }));
        assert_eq!(
            verify_col_plan(8, std::slice::from_ref(&(0..9))),
            Err(PlanError::OutOfBounds { chunk: 0..9, rows: 8 })
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    fn write_set_tracker_verifies_kernel_writes() {
        let _guard = ThreadGuard::lock();
        writeset::set_tracking(true);
        let before = writeset::verified_count();
        for threads in [1usize, 4] {
            set_num_threads(threads);
            let (rows, width) = (200usize, 8usize);
            let mut out = vec![0.0f32; rows * width];
            for_each_row_chunk(&mut out, width, 1 << 12, |first_row, chunk| {
                for (d, row) in chunk.chunks_mut(width).enumerate() {
                    row.iter_mut().for_each(|x| *x = (first_row + d) as f32);
                }
            });
        }
        writeset::set_tracking(false);
        assert!(
            writeset::verified_count() >= before + 2,
            "tracker did not verify the kernel invocations"
        );
    }

    #[test]
    fn small_work_stays_sequential() {
        assert!(!should_par(8, 1_000_000), "few rows: not worth chunk-parallelism");
        assert!(!should_par(1_000_000, 0), "zero-cost rows: not worth spawning");
        // The threshold sits exactly at MIN_PAR_WORK (2^22 flops): the
        // [200,32]x[32,32] R-GCN matmul (0.41 MFLOP) and the [166,32] x
        // [200,32]^T decode scoring (2.1 MFLOP) stay on one thread, the
        // decoder's [166,512]x[512,32] layer (5.4 MFLOP) spreads.
        assert_eq!(MIN_PAR_WORK, 1 << 22);
        assert!(!should_par(200, 2 * 32 * 32));
        assert!(!should_par(166, 2 * 32 * 200));
        assert!(!should_par(1 << 10, (1 << 12) - 1), "one flop below the threshold");
        assert!(should_par(1 << 10, 1 << 12), "exactly at the threshold");
        assert!(should_par(166, 2 * 512 * 32));
    }

    #[test]
    fn env_and_override_resolution() {
        let _guard = ThreadGuard::lock();
        set_num_threads(3);
        assert_eq!(num_threads(), 3);
        set_num_threads(0);
        std::env::set_var("RETIA_NUM_THREADS", "5");
        assert_eq!(num_threads(), 5);
        std::env::set_var("RETIA_NUM_THREADS", "not-a-number");
        assert!(num_threads() >= 1);
        std::env::remove_var("RETIA_NUM_THREADS");
        assert!(num_threads() >= 1);
    }
}
