//! `train`: one training epoch plus the Table VIII test pass (online, one
//! update step per test timestamp) on ICEWS14-mini with the experiment
//! harness's headline RETIA configuration.
//!
//! The untraced run drives `Trainer` exactly as `Trainer::fit` does for one
//! epoch, then `Trainer::evaluate` on the test split [`TEST_PASSES`] times
//! in a row. The traced run replays the epoch and the first test pass call
//! by call (`Retia::evolve` →
//! `Retia::loss` → `Graph::backward` → `clip_grad_norm` + `Adam::step`)
//! with timers around each call and must reproduce every loss and the MRR
//! bit for bit.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use retia::{
    entity_queries, relation_queries, EpochLoss, EvalReport, FrozenModel, Retia, RetiaConfig,
    Split, TkgContext, Trainer,
};
use retia_bench::{retia_config_for, Settings};
use retia_data::{DatasetProfile, SyntheticConfig, TkgDataset};
use retia_eval::{collect_paired_metrics, rank_of, rank_of_filtered, FilterSet, Metrics};
use retia_graph::Snapshot;
use retia_json::Value;
use retia_tensor::optim::{clip_grad_norm, Adam};
use retia_tensor::Graph;

use crate::kernels::Dims;
use crate::layers::{self, med, ms_since};
use crate::outcome::Outcome;
use crate::stats;

/// The dataset profile this workload trains on.
pub const PROFILE: DatasetProfile = DatasetProfile::Icews14;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPEATS: usize = 15;

/// `op_ms` is this percentile of the epoch's step times. A neighbour on a
/// shared host only ever adds time to a step. Over four sets of ten seeds
/// on a 2-vCPU host, the widest spread between the quartiles was 0.40 of
/// the median for the epoch's wall time, 0.36 for the median step, 0.23
/// for the 10th percentile and 0.22 for this one.
const STEP_PERCENTILE: f64 = 25.0;

/// Online test passes per run; `read_ms` comes from their lower quartile,
/// for the same reason as [`STEP_PERCENTILE`]. Every pass does the same
/// work (the same snapshots, queries and online steps); only the first
/// pass's MRRs are reported and gated.
const TEST_PASSES: usize = 5;

/// `Trainer::new` starts its per-step graph seed here and increments it
/// before every step; the replay follows the same sequence.
const FIRST_STEP_SEED: u64 = 0x5EED;

/// Where the cross-run determinism digests live, inside the checkout, one
/// per seed and build.
const DIGEST_DIR: &str = ".bench_out";

struct Inputs {
    ds: TkgDataset,
    ctx: TkgContext,
    cfg: RetiaConfig,
}

/// Generate → `TkgContext::new` → model init. Returns the generate time.
fn set_up(seed: u64) -> (Inputs, Retia, f64) {
    let t = Instant::now();
    let ds = SyntheticConfig { seed, ..SyntheticConfig::profile(PROFILE) }.generate();
    let generate_ms = ms_since(t);
    let ctx = TkgContext::new(&ds);
    let cfg = retia_config_for(PROFILE, &Settings::default());
    let model = Retia::new(&cfg, &ds);
    (Inputs { ds, ctx, cfg }, model, generate_ms)
}

fn train_indices(ctx: &TkgContext) -> impl Iterator<Item = usize> + '_ {
    // `Trainer::fit` skips index 0: there is no history to forecast it from.
    ctx.train_idx.iter().copied().filter(|&i| i != 0)
}

fn loss_bits(l: &EpochLoss) -> [u64; 3] {
    [l.entity.to_bits(), l.relation.to_bits(), l.joint.to_bits()]
}

/// FNV-1a over every loss and the test MRRs.
fn digest(losses: &[EpochLoss], report: &EvalReport) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let words = losses.iter().flat_map(loss_bits).chain([
        report.entity_raw.mrr().to_bits(),
        report.entity_filtered.mrr().to_bits(),
        report.relation_raw.mrr().to_bits(),
    ]);
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x} steps={} entity_mrr={:?}", losses.len(), report.entity_raw.mrr())
}

/// FNV-1a of the running benchmark binary: one value per build, so a
/// digest recorded by one build of the code is never compared with another.
fn build_id() -> std::io::Result<String> {
    let bytes = std::fs::read(std::env::current_exe()?)?;
    let h = bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3));
    Ok(format!("{h:016x}"))
}

/// Compares this run's digest with the one the first run of this build
/// recorded for the same seed (and records it when there is none). A
/// rebuilt program, for instance after a change that reorders a reduction,
/// starts a fresh record: only runs of one build must agree bit for bit.
fn check_digest(seed: u64, digest: &str) -> (bool, String) {
    let build = match build_id() {
        Ok(b) => b,
        Err(e) => return (false, format!("cannot hash the running binary: {e}")),
    };
    let path = Path::new(DIGEST_DIR).join(format!("train-seed{seed}-build{build}.digest"));
    match std::fs::read_to_string(&path) {
        Ok(prev) if prev.trim() == digest => (true, format!("matches {}", path.display())),
        Ok(prev) => (false, format!("{digest} differs from {}: {}", path.display(), prev.trim())),
        Err(_) => {
            let tmp = path.with_extension("tmp");
            let written = std::fs::create_dir_all(DIGEST_DIR)
                .and_then(|()| std::fs::write(&tmp, digest))
                .and_then(|()| std::fs::rename(&tmp, &path));
            match written {
                Ok(()) => (true, format!("first run of this build; recorded {digest}")),
                Err(e) => (false, format!("cannot record {}: {e}", path.display())),
            }
        }
    }
}

/// Runs the workload and fills `out`.
pub fn run(seed: u64, trace: bool, out: &mut Outcome) {
    let mut setup_s = Vec::new();
    let mut generate_ms = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let (inputs, model, gen) = set_up(seed);
        setup_s.push(t.elapsed().as_secs_f64());
        generate_ms.push(gen);
        last = Some((inputs, model));
    }
    let (inputs, model) = last.expect("at least one set-up");
    let ctx = &inputs.ctx;

    let mut trainer = Trainer::new(model, inputs.cfg.clone());
    let mut step_ms = Vec::new();
    let t = Instant::now();
    let losses: Vec<EpochLoss> = train_indices(ctx)
        .map(|i| {
            let ts = Instant::now();
            let loss = trainer.train_step(ctx, i);
            step_ms.push(ms_since(ts));
            loss
        })
        .collect();
    let epoch_wall_s = t.elapsed().as_secs_f64();
    out.raw("train.step_ms", &step_ms);
    let step_pct_ms = stats::percentile(&stats::sorted(&step_ms), STEP_PERCENTILE)
        .expect("an epoch has well over ten steps");
    let mut test_s = Vec::new();
    let mut reports = Vec::new();
    for _ in 0..TEST_PASSES {
        let t = Instant::now();
        reports.push(trainer.evaluate(ctx, Split::Test));
        test_s.push(t.elapsed().as_secs_f64());
    }
    let report = reports.swap_remove(0);
    out.raw("eval.test_s", &test_s);
    out.info("train.epoch_wall_s", Value::from(epoch_wall_s));
    out.ops((losses.len() + TEST_PASSES * ctx.test_idx.len()) as u64, 0);

    let non_finite = losses
        .iter()
        .filter(|l| !(l.entity.is_finite() && l.relation.is_finite() && l.joint.is_finite()))
        .count();
    out.gate(
        "train.losses_finite",
        non_finite == 0,
        format!("{non_finite} non-finite step losses"),
    );
    let d = digest(&losses, &report);
    let (same, detail) = check_digest(seed, &d);
    out.gate("train.bit_identical_across_runs", same, detail);
    out.info("losses.joint", Value::from(losses.iter().map(|l| l.joint).collect::<Vec<f64>>()));
    out.info("test.entity_raw_mrr", Value::from(report.entity_raw.mrr()));
    out.info("test.entity_filtered_mrr", Value::from(report.entity_filtered.mrr()));
    out.info("test.relation_raw_mrr", Value::from(report.relation_raw.mrr()));
    out.raw("setup_s", &setup_s);

    if !trace {
        out.metric("setup_s", med(&setup_s), "s");
        out.metric("op_ms", step_pct_ms, "ms");
        let [pass_s, _, _] = stats::quartiles(&test_s).expect("several test passes");
        out.metric("read_ms", pass_s * 1e3 / ctx.test_idx.len() as f64, "ms");
        out.info("train.epoch_s", Value::from(step_pct_ms * step_ms.len() as f64 / 1e3));
        out.info("eval.test_s", Value::from(med(&test_s)));
        return;
    }

    out.metric("data.generate_ms", med(&generate_ms), "ms");
    out.raw("data.generate_ms", &generate_ms);
    let traced_s = replay(&inputs, &losses, &report, out);
    let overhead = (traced_s / (epoch_wall_s + test_s[0]) - 1.0) * 100.0;
    out.metric("obs.trace_overhead_pct", overhead, "%");
    layers::graph_builds(&inputs.ds, out);
    let snaps = &ctx.snapshots;
    let mean = |f: &dyn Fn(&Snapshot) -> usize| {
        snaps.iter().map(f).sum::<usize>().div_ceil(snaps.len().max(1))
    };
    let dims = Dims {
        n: ctx.num_entities,
        d: inputs.cfg.dim,
        q: mean(&|s| 2 * s.facts.len()),
        e: mean(&|s| s.num_edges()),
        channels: inputs.cfg.channels,
        ksize: inputs.cfg.ksize,
        mm: (ctx.num_entities, inputs.cfg.dim),
    };
    layers::kernel_costs(dims, &layers::KERNELS, out);
    let last = *ctx.test_idx.last().expect("a test split");
    let (window, hypers) = ctx.history(last, inputs.cfg.k);
    let retia = Retia::new(&inputs.cfg, &inputs.ds);
    let frozen = FrozenModel::new(Retia::new(&inputs.cfg, &inputs.ds));
    layers::model_probes(&frozen, &retia, window, hypers, out);
}

/// Per-step wall times of the replayed calls, in ms.
#[derive(Default)]
struct StepTimes {
    evolve: Vec<f64>,
    loss: Vec<f64>,
    backward: Vec<f64>,
    optim: Vec<f64>,
}

impl StepTimes {
    fn total_ms(&self) -> f64 {
        [&self.evolve, &self.loss, &self.backward, &self.optim].iter().flat_map(|v| v.iter()).sum()
    }
}

/// One gradient step, replayed from the public calls `Trainer::train_step`
/// makes (its watchdog and metric calls observe values and change none).
fn replay_step(
    model: &mut Retia,
    opt: &mut Adam,
    step_seed: &mut u64,
    inputs: &Inputs,
    idx: usize,
    times: &mut StepTimes,
) -> EpochLoss {
    let cfg = &inputs.cfg;
    let (history, hypers) = inputs.ctx.history(idx, cfg.k);
    *step_seed = step_seed.wrapping_add(1);
    let mut g = Graph::new(true, *step_seed);
    let t = Instant::now();
    let states = model.evolve(&mut g, history, hypers);
    times.evolve.push(ms_since(t));
    let t = Instant::now();
    let decode = &states[states.len().saturating_sub(cfg.k)..];
    let (loss, le, lr) = model.loss(&mut g, decode, &inputs.ctx.snapshots[idx]);
    let joint = g.value(loss).item() as f64;
    times.loss.push(ms_since(t));
    let t = Instant::now();
    g.backward(loss, model.store_mut());
    times.backward.push(ms_since(t));
    let t = Instant::now();
    clip_grad_norm(model.store_mut(), cfg.grad_clip);
    opt.step(model.store_mut());
    model.store_mut().zero_grad();
    times.optim.push(ms_since(t));
    EpochLoss { entity: le as f64, relation: lr as f64, joint }
}

/// Time-aware filter sets, built as the trainer builds them: every true
/// answer of a query at the target timestamp.
fn entity_filters(snap: &Snapshot, num_relations: usize) -> Vec<FilterSet> {
    let m = num_relations as u32;
    let mut truths: HashMap<(u32, u32), FilterSet> = HashMap::new();
    for q in &snap.facts {
        truths.entry((q.s, q.r)).or_default().insert(q.o);
        truths.entry((q.o, q.r + m)).or_default().insert(q.s);
    }
    snap.facts
        .iter()
        .flat_map(|q| [truths[&(q.s, q.r)].clone(), truths[&(q.o, q.r + m)].clone()])
        .collect()
}

fn relation_filters(snap: &Snapshot) -> Vec<FilterSet> {
    let mut truths: HashMap<(u32, u32), FilterSet> = HashMap::new();
    for q in &snap.facts {
        truths.entry((q.s, q.o)).or_default().insert(q.r);
    }
    snap.facts.iter().map(|q| truths[&(q.s, q.o)].clone()).collect()
}

/// Traced replay of the epoch and the online test pass from a fresh model.
/// Returns the traced wall time (epoch + test) in seconds.
fn replay(inputs: &Inputs, losses: &[EpochLoss], report: &EvalReport, out: &mut Outcome) -> f64 {
    let ctx = &inputs.ctx;
    retia_obs::reset_timing();
    retia_obs::set_timing(true);
    retia_obs::set_kernel_timing(true);

    let mut model = Retia::new(&inputs.cfg, &inputs.ds);
    let mut opt = Adam::new(inputs.cfg.lr);
    let mut step_seed = FIRST_STEP_SEED;
    let mut times = StepTimes::default();
    let t = Instant::now();
    let replayed: Vec<EpochLoss> = train_indices(ctx)
        .map(|i| replay_step(&mut model, &mut opt, &mut step_seed, inputs, i, &mut times))
        .collect();
    let epoch_s = t.elapsed().as_secs_f64();
    let kernels = retia_obs::kernel_timing_snapshot();
    let modules = retia_obs::timing_snapshot();

    let t = Instant::now();
    let (mut predict_ms, mut rank_ms) = (Vec::new(), Vec::new());
    let (mut ent_raw, mut ent_filt, mut rel_raw) = (Metrics::new(), Metrics::new(), Metrics::new());
    let mut online = StepTimes::default();
    for &idx in &ctx.test_idx {
        let (history, hypers) = ctx.history(idx, inputs.cfg.k);
        let target = &ctx.snapshots[idx];
        let tp = Instant::now();
        let (subjects, rels, targets) = entity_queries(target, ctx.num_relations);
        let probs = model.predict_entity(history, hypers, subjects, rels);
        let (rs, ro, rt) = relation_queries(target);
        let rprobs = model.predict_relation(history, hypers, rs, ro);
        predict_ms.push(ms_since(tp));
        let tr = Instant::now();
        let filters = entity_filters(target, ctx.num_relations);
        let (raw, filtered) = collect_paired_metrics(targets.len(), probs.cols(), |i| {
            let (scores, t) = (probs.row(i), targets[i] as usize);
            (rank_of(scores, t), rank_of_filtered(scores, t, &filters[i]))
        });
        ent_raw.merge(&raw);
        ent_filt.merge(&filtered);
        let rfilters = relation_filters(target);
        let (raw, _) = collect_paired_metrics(rt.len(), rprobs.cols(), |i| {
            let (scores, t) = (rprobs.row(i), rt[i] as usize);
            (rank_of(scores, t), rank_of_filtered(scores, t, &rfilters[i]))
        });
        rel_raw.merge(&raw);
        rank_ms.push(ms_since(tr));
        for _ in 0..inputs.cfg.online_steps {
            replay_step(&mut model, &mut opt, &mut step_seed, inputs, idx, &mut online);
        }
    }
    let test_s = t.elapsed().as_secs_f64();
    retia_obs::set_kernel_timing(false);
    retia_obs::set_timing(false);

    let same_losses = replayed.len() == losses.len()
        && replayed.iter().zip(losses).all(|(a, b)| loss_bits(a) == loss_bits(b));
    out.gate(
        "train.replay_losses_bit_identical",
        same_losses,
        format!("{} replayed steps against {} untraced", replayed.len(), losses.len()),
    );
    let same_mrr = ent_raw.mrr().to_bits() == report.entity_raw.mrr().to_bits()
        && ent_filt.mrr().to_bits() == report.entity_filtered.mrr().to_bits()
        && rel_raw.mrr().to_bits() == report.relation_raw.mrr().to_bits();
    out.gate(
        "train.replay_test_mrr_bit_identical",
        same_mrr,
        format!("replayed entity MRR {:?} vs {:?}", ent_raw.mrr(), report.entity_raw.mrr()),
    );

    let steps = replayed.len();
    layers::kernel_counters(&kernels, steps, out);
    out.metric("tensor.backward_ms", med(&times.backward), "ms");
    out.metric("tensor.optim_ms", med(&times.optim), "ms");
    out.metric("core.evolve_ms", med(&times.evolve), "ms");
    out.metric("core.loss_ms", med(&times.loss), "ms");
    let total_ns = times.total_ms() * 1e6;
    let share = |ns: f64| ns / total_ns;
    out.metric("core.eam_share", share(layers::exclusive_ns(&modules, "eam.") as f64), "ratio");
    out.metric("core.ram_share", share(layers::exclusive_ns(&modules, "ram.") as f64), "ratio");
    out.metric("core.tim_share", share(layers::exclusive_ns(&modules, "tim.") as f64), "ratio");
    out.metric(
        "core.decode_share",
        share(layers::exclusive_ns(&modules, "decode.") as f64),
        "ratio",
    );
    out.metric("core.backward_share", times.backward.iter().sum::<f64>() * 1e6 / total_ns, "ratio");
    out.metric("eval.predict_ms", med(&predict_ms), "ms");
    out.metric("eval.rank_ms", med(&rank_ms), "ms");
    for (name, xs) in [
        ("core.evolve_ms", &times.evolve),
        ("core.loss_ms", &times.loss),
        ("tensor.backward_ms", &times.backward),
        ("tensor.optim_ms", &times.optim),
        ("eval.predict_ms", &predict_ms),
        ("eval.rank_ms", &rank_ms),
    ] {
        out.raw(name, xs);
    }
    out.info("traced.epoch_s", Value::from(epoch_s));
    out.info("traced.test_s", Value::from(test_s));
    epoch_s + test_s
}
