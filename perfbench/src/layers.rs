//! Per-layer probes shared by the workloads: direct timed calls into one
//! layer's public functions, and readers of the aggregates the program
//! already emits (`retia_obs` kernel timers and module spans).

use std::time::Instant;

use retia::{FrozenModel, Retia};
use retia_data::TkgDataset;
use retia_graph::{group_by_timestamp, HyperSnapshot, Quad, Snapshot};
use retia_json::Value;
use retia_obs::ModuleTime;

use crate::gen::TOP_K;
use crate::kernels::{self, Dims};
use crate::outcome::Outcome;
use crate::stats;

/// The seven kernels the cost model covers.
pub const KERNELS: [&str; 7] = [
    "matmul",
    "matmul_nt",
    "matmul_tn",
    "conv1d",
    "gather_rows",
    "scatter_add_rows",
    "softmax_rows",
];

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Median of `xs`, or 0 when empty (only for per-layer figures whose
/// samples always exist on the workloads that emit them).
pub fn med(xs: &[f64]) -> f64 {
    stats::median(xs).unwrap_or(0.0)
}

/// Times `f` `reps` times and returns every duration in ms.
pub fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            ms_since(t)
        })
        .collect()
}

/// Median per-snapshot build time of Algorithm 1's two graphs — the entity
/// snapshot and the twin hyperrelation subgraph — over the whole timeline.
pub fn graph_builds(ds: &TkgDataset, out: &mut Outcome) {
    let all: Vec<Quad> = ds.all_quads().copied().collect();
    let (mut snap_ms, mut hyper_ms) = (Vec::new(), Vec::new());
    for (t, facts) in group_by_timestamp(&all) {
        let t0 = Instant::now();
        let mut snap = Snapshot::from_quads(&facts, ds.num_entities, ds.num_relations);
        snap.t = t;
        snap_ms.push(ms_since(t0));
        let t1 = Instant::now();
        std::hint::black_box(HyperSnapshot::from_snapshot(&snap));
        hyper_ms.push(ms_since(t1));
    }
    out.metric("graph.snapshot_build_ms", med(&snap_ms), "ms");
    out.metric("graph.hyper_build_ms", med(&hyper_ms), "ms");
    out.raw("graph.snapshot_build_ms", &snap_ms);
    out.raw("graph.hyper_build_ms", &hyper_ms);
}

/// Emits `tensor.<k>.calls` and `.busy_ms` per operation from the
/// program's kernel timers. A kernel the timers never saw ran zero times.
pub fn kernel_counters(snapshot: &[ModuleTime], ops: usize, out: &mut Outcome) {
    let ops = ops.max(1) as f64;
    for k in KERNELS {
        let name = format!("kernel.{k}");
        let (count, ns) =
            snapshot.iter().find(|m| m.name == name).map_or((0, 0), |m| (m.count, m.total_ns));
        out.metric(&format!("tensor.{k}.calls"), count as f64 / ops, "count/op");
        out.metric(&format!("tensor.{k}.busy_ms"), ns as f64 / 1e6 / ops, "ms/op");
    }
}

/// Direct calls into the core and eval layers on a workload's model and
/// window: the boot audit, the shape dry run, one evolve over the window,
/// one single-query entity decode and one top-k.
pub fn model_probes(
    model: &FrozenModel,
    retia: &Retia,
    window: &[Snapshot],
    hypers: &[HyperSnapshot],
    out: &mut Outcome,
) {
    let audit = time_ms(5, || model.audit());
    let validate = time_ms(5, || retia.validate());
    let evolve = time_ms(20, || model.evolve_window(window, hypers));
    let states = model.evolve_window(window, hypers);
    let decode = time_ms(200, || model.decode_entity(&states, vec![1], vec![2]));
    let scores = model.decode_entity(&states, vec![1], vec![2]);
    let top_k = time_ms(2000, || retia_eval::top_k(scores.row(0), TOP_K));
    for (name, xs) in [
        ("core.audit_ms", &audit),
        ("core.validate_ms", &validate),
        ("core.evolve_window_ms", &evolve),
        ("core.decode_entity_ms", &decode),
        ("eval.top_k_ms", &top_k),
    ] {
        out.metric(name, med(xs), "ms");
        out.raw(name, xs);
    }
}

/// Runs the outside-in cost model and emits `tensor.<k>.gflops` (kernels
/// that do arithmetic) and `tensor.<k>.gbps` (computed bytes).
pub fn kernel_costs(dims: Dims, which: &[&'static str], out: &mut Outcome) {
    let costs = kernels::measure(dims, which);
    for c in &costs {
        if c.flops > 0.0 {
            out.metric(&format!("tensor.{}.gflops", c.kernel), c.gflops(), "GFLOP/s");
        }
        out.metric(&format!("tensor.{}.gbps", c.kernel), c.gbps(), "GB/s");
    }
    out.info("kernel_cost_model", Value::Array(costs.iter().map(|c| c.to_json()).collect()));
}

/// Sum of exclusive span time over span names starting with `prefix`.
pub fn exclusive_ns(modules: &[ModuleTime], prefix: &str) -> u64 {
    modules.iter().filter(|m| m.name.starts_with(prefix)).map(|m| m.exclusive_ns).sum()
}
