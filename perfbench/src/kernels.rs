//! Outside-in kernel cost model: direct, timed calls to the seven tensor
//! kernels on the shapes a workload runs, with FLOPs and bytes computed
//! from those shapes.
//!
//! Bytes are *computed* (every operand read once, the output written once),
//! not measured traffic: on a CPU run that is the only honest figure.

use std::hint::black_box;
use std::time::Instant;

use retia_json::Value;
use retia_tensor::{Graph, Tensor};

use crate::gen::Rng;
use crate::stats;

/// Shape parameters a workload feeds its kernels.
#[derive(Clone, Copy, Debug)]
pub struct Dims {
    /// Entities `N`.
    pub n: usize,
    /// Embedding width `d`.
    pub d: usize,
    /// Queries decoded per call `Q`.
    pub q: usize,
    /// Message-passing edges per snapshot `E` (inverses included).
    pub e: usize,
    /// Conv-TransE output channels.
    pub channels: usize,
    /// Conv-TransE kernel width.
    pub ksize: usize,
    /// `matmul` operand shape `[rows, inner] x [inner, d]`: the EAM/RAM
    /// weights (`[N, d]`) in the recurrence, the decoder's fully connected
    /// layer (`[Q, channels * d]`) when only decode runs.
    pub mm: (usize, usize),
}

/// One timed kernel on one shape.
pub struct KernelCost {
    /// Kernel name as `retia_obs::kernel_span` labels it.
    pub kernel: &'static str,
    /// Human-readable shape.
    pub shape: String,
    /// Median wall time per call, in nanoseconds.
    pub ns_per_call: f64,
    /// FLOPs per call, from the shape.
    pub flops: f64,
    /// Bytes per call, from the shape (computed, not measured).
    pub bytes: f64,
}

impl KernelCost {
    /// Achieved GFLOP/s.
    pub fn gflops(&self) -> f64 {
        self.flops / self.ns_per_call
    }

    /// Achieved GB/s over the computed bytes.
    pub fn gbps(&self) -> f64 {
        self.bytes / self.ns_per_call
    }

    /// JSON record for the report.
    pub fn to_json(&self) -> Value {
        let mut o = Value::object();
        o.insert("kernel", Value::from(self.kernel));
        o.insert("shape", Value::from(self.shape.as_str()));
        o.insert("ns_per_call", Value::from(self.ns_per_call));
        o.insert("flops", Value::from(self.flops));
        o.insert("bytes_computed", Value::from(self.bytes));
        o
    }
}

fn random(rng: &mut Rng, rows: usize, cols: usize) -> Tensor {
    let data = (0..rows * cols).map(|_| (rng.below(2001) as f32 - 1000.0) / 1000.0).collect();
    Tensor::from_vec(rows, cols, data)
}

/// Times `f` in batches of at least ~2 ms and returns the median time per
/// call over 11 batches.
fn time_per_call(mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let once = t.elapsed().as_nanos().max(1) as f64;
    let reps = ((2e6 / once).ceil() as usize).clamp(1, 100_000);
    let per_call: Vec<f64> = (0..11)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                f();
            }
            t.elapsed().as_nanos() as f64 / reps as f64
        })
        .collect();
    stats::median(&per_call).expect("eleven batches")
}

const F32: f64 = 4.0;

/// Times each named kernel (any of the seven) on the shapes `dims` implies.
pub fn measure(dims: Dims, kernels: &[&'static str]) -> Vec<KernelCost> {
    let Dims { n, d, q, e, channels, ksize, mm: (mm_rows, mm_inner) } = dims;
    let mut rng = Rng::new(0xC057, 0);
    let ent = random(&mut rng, n, d);
    let mm_a = random(&mut rng, mm_rows, mm_inner);
    let weight = random(&mut rng, mm_inner, d);
    let queries = random(&mut rng, q, d);
    let logits = random(&mut rng, q, n);
    let messages = random(&mut rng, e, d);
    let index: Vec<u32> = (0..e).map(|_| rng.below(n as u64) as u32).collect();
    let conv_x = random(&mut rng, q, 2 * d);
    let conv_w = random(&mut rng, channels, 2 * ksize);
    let conv_b = random(&mut rng, 1, channels);
    let (nf, df, qf, ef, cf, kf) =
        (n as f64, d as f64, q as f64, e as f64, channels as f64, ksize as f64);

    let mut out = Vec::new();
    for &kernel in kernels {
        let (shape, flops, bytes, ns) = match kernel {
            "matmul" => {
                let (rf, inf) = (mm_rows as f64, mm_inner as f64);
                (
                    format!("[{mm_rows},{mm_inner}]x[{mm_inner},{d}]"),
                    2.0 * rf * inf * df,
                    F32 * (rf * inf + inf * df + rf * df),
                    time_per_call(|| {
                        black_box(black_box(&mm_a).matmul(black_box(&weight)));
                    }),
                )
            }
            "matmul_nt" => (
                format!("[{q},{d}]x[{n},{d}]^T (decode scoring)"),
                2.0 * qf * nf * df,
                F32 * (qf * df + nf * df + qf * nf),
                time_per_call(|| {
                    black_box(black_box(&queries).matmul_nt(black_box(&ent)));
                }),
            ),
            "matmul_tn" => (
                format!("[{n},{d}]^Tx[{n},{d}] (weight gradient)"),
                2.0 * nf * df * df,
                F32 * (2.0 * nf * df + df * df),
                time_per_call(|| {
                    black_box(black_box(&ent).matmul_tn(black_box(&ent)));
                }),
            ),
            "gather_rows" => (
                format!("{e} rows of [{n},{d}]"),
                0.0,
                F32 * (2.0 * ef * df + ef),
                time_per_call(|| {
                    black_box(black_box(&ent).gather_rows(black_box(&index)));
                }),
            ),
            "scatter_add_rows" => (
                format!("[{e},{d}] into {n} rows (aggregation)"),
                ef * df,
                F32 * (ef * df + ef + nf * df),
                time_per_call(|| {
                    black_box(black_box(&messages).scatter_add_rows(black_box(&index), n));
                }),
            ),
            "softmax_rows" => (
                format!("[{q},{n}] (entity probabilities)"),
                5.0 * qf * nf,
                F32 * 2.0 * qf * nf,
                time_per_call(|| {
                    black_box(black_box(&logits).softmax_rows());
                }),
            ),
            "conv1d" => (
                format!("[{q},2x{d}] -> {channels} ch, k={ksize} (Conv-TransE)"),
                2.0 * qf * cf * df * 2.0 * kf,
                F32 * (qf * 2.0 * df + cf * 2.0 * kf + cf + qf * cf * df),
                time_per_call(|| {
                    let mut g = Graph::inference();
                    let x = g.constant(conv_x.clone());
                    let w = g.constant(conv_w.clone());
                    let b = g.constant(conv_b.clone());
                    let y = g.conv1d(x, w, b, 2, channels, ksize);
                    black_box(g.value(y));
                }),
            ),
            other => panic!("unknown kernel {other}"),
        };
        out.push(KernelCost { kernel, shape, ns_per_call: ns, flops, bytes });
    }
    out
}
