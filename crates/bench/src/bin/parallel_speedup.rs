//! Measures the deterministic parallel compute layer: wall-clock for the
//! R-GCN forward/backward and the Conv-TransE candidate-scoring workloads at
//! 1 thread versus several thread counts, verifying along the way that every
//! configuration produces bit-identical numbers.
//!
//! Writes `BENCH_parallel.json` in the working directory. Speedups are only
//! meaningful on multi-core hosts; the file records the detected core count
//! so a ~1.0x result on a single-core machine reads as what it is.

use std::time::Instant;

use rand::{rngs::StdRng, Rng, SeedableRng};
use retia_graph::{Quad, Snapshot};
use retia_json::Value;
use retia_nn::{ConvTransE, EntityRgcn, WeightMode};
use retia_tensor::{parallel, Graph, ParamStore, Tensor};
use std::hint::black_box;

fn random_snapshot(n: usize, m: usize, facts: usize, seed: u64) -> Snapshot {
    let mut rng = StdRng::seed_from_u64(seed);
    let quads: Vec<Quad> = (0..facts)
        .map(|_| {
            Quad::new(
                rng.gen_range(0..n as u32),
                rng.gen_range(0..m as u32),
                rng.gen_range(0..n as u32),
                0,
            )
        })
        .collect();
    Snapshot::from_quads(&quads, n, m)
}

/// Mean seconds per iteration after one warm-up run; also returns a checksum
/// of the workload's output for the bit-identity check across thread counts.
fn time_it(reps: usize, mut f: impl FnMut() -> f64) -> (f64, f64) {
    let checksum = f(); // warm-up
    let t0 = Instant::now();
    for _ in 0..reps {
        black_box(f());
    }
    (t0.elapsed().as_secs_f64() / reps as f64, checksum)
}

fn main() {
    // Sized so every matmul clears the parallel layer's work threshold
    // (`parallel::MIN_PAR_WORK`): [4000,32]x[32,32] is 8.2 MFLOP.
    let (n, m, d) = (4000usize, 24usize, 32usize);
    let queries = 256usize;
    let snap = random_snapshot(n, m, 12_000, 1);

    let mut store = ParamStore::new(0);
    store.register_xavier("ent", n, d);
    store.register_xavier("rel", 2 * m, d);
    let rgcn = EntityRgcn::new(&mut store, "g", d, 2 * m, WeightMode::Basis(4), 2, 0.0);
    let dec = ConvTransE::new(&mut store, "dec", d, 16, 3, 0.0);
    let qa = Tensor::from_fn(queries, d, |i, j| ((i + j) % 11) as f32 * 0.1 - 0.5);
    let qb = Tensor::from_fn(queries, d, |i, j| ((i * 3 + j) % 7) as f32 * 0.1 - 0.3);

    let rgcn_workload = |store: &mut ParamStore| {
        let mut g = Graph::new(false, 0);
        let e = g.param(store, "ent");
        let r = g.param(store, "rel");
        let out = rgcn.forward(&mut g, store, e, r, &snap);
        let sq = g.mul(out, out);
        let loss = g.mean_all(sq);
        let v = g.value(loss).item() as f64;
        g.backward(loss, store);
        store.zero_grad();
        v
    };
    let decoder_workload = |store: &ParamStore| {
        let mut g = Graph::new(false, 0);
        let an = g.constant(qa.clone());
        let bn = g.constant(qb.clone());
        let cand = g.param(store, "ent");
        let scores = dec.forward(&mut g, store, an, bn, cand);
        g.value(scores).sum() as f64
    };

    let cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
    let mut thread_counts = vec![1usize, 2, 4];
    if cores > 4 {
        thread_counts.push(cores);
    }

    let mut root = Value::object();
    root.insert("cores_detected", Value::from(cores));
    root.insert(
        "note",
        Value::from(
            "results are bit-identical at every thread count by construction; \
         speedup over 1 thread is bounded by cores_detected",
        ),
    );

    let mut baselines: (f64, f64) = (0.0, 0.0);
    let mut checks: (f64, f64) = (0.0, 0.0);
    let mut runs = Vec::new();
    for (i, &threads) in thread_counts.iter().enumerate() {
        parallel::set_num_threads(threads);
        let (rgcn_s, rgcn_sum) = time_it(10, || rgcn_workload(&mut store));
        let (dec_s, dec_sum) = time_it(20, || decoder_workload(&store));
        parallel::set_num_threads(0);
        if i == 0 {
            baselines = (rgcn_s, dec_s);
            checks = (rgcn_sum, dec_sum);
        } else {
            assert_eq!(
                checks.0.to_bits(),
                rgcn_sum.to_bits(),
                "rgcn output drifted at {threads} threads"
            );
            assert_eq!(
                checks.1.to_bits(),
                dec_sum.to_bits(),
                "decoder output drifted at {threads} threads"
            );
        }
        let mut run = Value::object();
        run.insert("threads", Value::from(threads));
        run.insert("rgcn_fwd_bwd_secs", Value::from(rgcn_s));
        run.insert("rgcn_speedup_vs_1", Value::from(baselines.0 / rgcn_s));
        run.insert("decoder_score_secs", Value::from(dec_s));
        run.insert("decoder_speedup_vs_1", Value::from(baselines.1 / dec_s));
        run.insert("bit_identical_to_1_thread", Value::from(true));
        println!(
            "threads={threads:>2}  rgcn {rgcn_s:.6}s ({:.2}x)  decoder {dec_s:.6}s ({:.2}x)",
            baselines.0 / rgcn_s,
            baselines.1 / dec_s
        );
        runs.push(run);
    }
    root.insert("runs", Value::Array(runs));

    let path = "BENCH_parallel.json";
    std::fs::write(path, root.to_string_pretty()).expect("write BENCH_parallel.json");
    eprintln!("[retia-bench] saved {path} (cores={cores})");
}
