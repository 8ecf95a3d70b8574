//! Model-level value audit: one full training step (evolve → decode → loss
//! → backward) run on the interval + finiteness interpreter, plus
//! gradient-flow reachability from the loss and reduction-order
//! declarations. The complement of [`Retia::validate`]: where the shape dry
//! run proves the tensors *wire together*, the audit proves the wired model
//! cannot produce NaN/inf under the [`retia_analyze::value::PARAM_BOUND`]
//! parameter envelope and that every trainable parameter either receives
//! gradient or is declared frozen (with the ablation flag that freezes it).
//!
//! The audited step is the model's own generic code ([`Retia::evolve`] and
//! the joint loss) run on an [`AuditCtx`] over the same synthetic window the
//! shape dry run uses. `retia audit` surfaces it; the trainer pre-flight and
//! the serve boot check run it before any real work.

use retia_analyze::value::AbsId;
use retia_analyze::{AuditCtx, AuditIssue, AuditKind, AuditReport, FrozenParam};
use retia_graph::{HyperSnapshot, NUM_HYPERRELS_WITH_INV};
use retia_tensor::Ops;

use crate::config::{HyperrelMode, RelationMode, RetiaConfig};
use crate::model::Retia;
use crate::validate::synthetic_window;

impl Retia {
    /// Audits one full training step on abstract values alone: finiteness
    /// under the parameter envelope, gradient-flow reachability reconciled
    /// against the configuration's frozen set, and reduction-order
    /// declarations. A clean report means no kernel in the step can
    /// introduce NaN/inf and every parameter's gradient disposition matches
    /// the configuration. Costs no floating-point tensor work.
    pub fn audit(&self) -> AuditReport {
        let (ctx, loss) = self.audit_step(AuditCtx::new());
        self.audit_report(ctx, loss)
    }

    /// Runs the model's training step over the synthetic audit window on
    /// `ops`, returning the interpreter and the loss node.
    pub(crate) fn audit_step<O: Ops>(&self, mut ops: O) -> (O, O::Node) {
        let (snaps, hypers, target) = synthetic_window(self.num_entities(), self.num_relations());
        let loss = self.step_loss(&mut ops, &snaps, &hypers, &target);
        (ops, loss)
    }

    /// Reconciles the audited step's gradient flow with the configuration's
    /// frozen set, then cross-checks the parameter store.
    pub(crate) fn audit_report(&self, mut ctx: AuditCtx, loss: AbsId) -> AuditReport {
        let (_, hypers, _) = synthetic_window(self.num_entities(), self.num_relations());
        let frozen = self.frozen_params(&hypers);
        ctx.check_gradient_flow(loss, &frozen);

        // ---- store cross-check: every registered parameter must be on the
        // abstract tape or in the frozen table — a name in neither means the
        // model forgot a module ----
        let declared = ctx.declared_param_names();
        let mut report = ctx.finish();
        for (name, _) in self.store().iter() {
            report.ops_checked += 1;
            let in_tape = declared.iter().any(|d| d == name);
            let in_frozen = frozen.iter().any(|f| f.name == name);
            if !in_tape && !in_frozen {
                report.issues.push(AuditIssue {
                    path: String::new(),
                    op: format!("param `{name}`"),
                    kind: AuditKind::GradFlow,
                    detail: "registered in the parameter store but neither declared on \
                             the abstract tape nor frozen for this configuration"
                        .to_string(),
                });
            }
        }
        report
    }

    /// The parameters expected to receive *no* gradient under this
    /// configuration, each with the ablation flag (or data condition) that
    /// freezes it. [`AuditCtx::check_gradient_flow`] reconciles this table
    /// both ways: an undeclared unreached parameter is a finding, and so is
    /// a declared-frozen parameter the backward walk reaches.
    fn frozen_params(&self, hypers: &[HyperSnapshot]) -> Vec<FrozenParam> {
        let cfg = &self.cfg;
        let m2 = 2 * self.num_relations();
        let mut frozen = Vec::new();
        let cell =
            |prefix: &str| [format!("{prefix}.w"), format!("{prefix}.u"), format!("{prefix}.b")];

        if !cfg.use_eam {
            frozen.push(FrozenParam::new(
                "ent0",
                "EAM ablated (--no-eam): entity embeddings stay at initialization",
            ));
            for l in 0..cfg.rgcn_layers {
                frozen.push(FrozenParam::new(format!("eam.l{l}.wself"), "EAM ablated (--no-eam)"));
                for i in 0..cfg.num_bases.min(m2) {
                    frozen.push(FrozenParam::new(
                        format!("eam.l{l}.basis{i}"),
                        "EAM ablated (--no-eam)",
                    ));
                }
                frozen.push(FrozenParam::new(format!("eam.l{l}.coef"), "EAM ablated (--no-eam)"));
            }
            for name in cell("rgru_ent") {
                frozen.push(FrozenParam::new(name, "EAM ablated (--no-eam)"));
            }
        }

        if cfg.relation_mode == RelationMode::None {
            frozen.push(FrozenParam::new(
                "rel0",
                "relation evolution disabled (relation_mode = none)",
            ));
        }

        let ram_active = cfg.relation_mode == RelationMode::MpLstmAgg;
        if !ram_active {
            let why = "RAM aggregation disabled (relation_mode != mp-lstm-agg)";
            frozen.push(FrozenParam::new("hyper0", why));
            for l in 0..cfg.rgcn_layers {
                frozen.push(FrozenParam::new(format!("ram.l{l}.wself"), why));
                for r in 0..NUM_HYPERRELS_WITH_INV {
                    frozen.push(FrozenParam::new(format!("ram.l{l}.w{r}"), why));
                }
            }
            for name in cell("rgru_rel") {
                frozen.push(FrozenParam::new(name, why));
            }
        } else {
            // Per-type RAM weights for hyperrelation types with no edges
            // anywhere in the audit window never enter the graph.
            for r in 0..NUM_HYPERRELS_WITH_INV {
                let absent =
                    hypers.iter().all(|h| h.hrel_ranges.get(r).is_none_or(|&(a, b)| a == b));
                if absent {
                    for l in 0..cfg.rgcn_layers {
                        frozen.push(FrozenParam::new(
                            format!("ram.l{l}.w{r}"),
                            "hyperrelation type absent from the audit window",
                        ));
                    }
                }
            }
        }

        let tim_active = cfg.use_tim
            && matches!(cfg.relation_mode, RelationMode::MpLstm | RelationMode::MpLstmAgg);
        if !tim_active {
            let why = if cfg.use_tim {
                "relation mode does not run the TIM LSTM"
            } else {
                "TIM severed (--no-tim)"
            };
            for name in cell("tim_lstm") {
                frozen.push(FrozenParam::new(name, why));
            }
        }

        if !(ram_active && cfg.hyperrel_mode == HyperrelMode::HmpHlstm) {
            for name in cell("hyper_lstm") {
                frozen.push(FrozenParam::new(
                    name,
                    "hyperrelation LSTM disabled (hyperrel_mode != hmp-hlstm, or RAM off)",
                ));
            }
        }

        // eam_rel0 only flows when the EAM is on and the TIM channel is off.
        if !cfg.use_eam || cfg.use_tim {
            frozen.push(FrozenParam::new(
                "eam_rel0",
                if cfg.use_eam {
                    "EAM reads the evolved relations while the TIM channel is on"
                } else {
                    "EAM ablated (--no-eam)"
                },
            ));
        }

        frozen
    }
}

/// Builds a model for the given configuration and shape and audits it — the
/// implementation behind `retia audit`. Returns the resulting
/// [`AuditReport`] (clean or listing every finding).
pub fn audit_config(cfg: &RetiaConfig, num_entities: usize, num_relations: usize) -> AuditReport {
    let model = Retia::with_shape(cfg, num_entities, num_relations);
    model.audit()
}

#[cfg(test)]
mod tests {
    use std::rc::Rc;

    use retia_tensor::{Graph, ParamStore};

    use super::*;

    fn tiny_cfg() -> RetiaConfig {
        RetiaConfig { dim: 8, channels: 4, k: 2, ..Default::default() }
    }

    /// Every relation/hyperrelation mode with each TIM/EAM pairing: the 45
    /// configurations `retia audit --all-configs` sweeps.
    fn all_configs() -> Vec<RetiaConfig> {
        let mut out = Vec::new();
        for rm in [
            RelationMode::None,
            RelationMode::Static,
            RelationMode::Mp,
            RelationMode::MpLstm,
            RelationMode::MpLstmAgg,
        ] {
            for hm in [HyperrelMode::Init, HyperrelMode::Hmp, HyperrelMode::HmpHlstm] {
                for (tim, eam) in [(true, true), (false, true), (true, false)] {
                    out.push(RetiaConfig {
                        relation_mode: rm,
                        hyperrel_mode: hm,
                        use_tim: tim,
                        use_eam: eam,
                        static_weight: 1.0,
                        ..tiny_cfg()
                    });
                }
            }
        }
        out
    }

    fn label(cfg: &RetiaConfig) -> String {
        format!(
            "{:?}/{:?}/tim={}/eam={}",
            cfg.relation_mode, cfg.hyperrel_mode, cfg.use_tim, cfg.use_eam
        )
    }

    /// One seeded bug, injected from outside the model.
    #[derive(Clone, Copy, PartialEq)]
    enum Fault {
        /// The TIM LSTM reads undeclared detached copies of its weights, so
        /// the declared weights never reach the loss.
        DetachTimWeights,
        /// An unguarded `exp` over the entity decoder's logits.
        ExpLogits,
        /// A declared reorder of the softmax row-sum accumulation.
        ReorderSoftmaxSum,
    }

    /// An [`AuditCtx`] that forwards every op except at its fault's
    /// injection point.
    struct Seeded {
        inner: AuditCtx,
        fault: Fault,
        modules: Vec<String>,
    }

    macro_rules! forward {
        ($($name:ident($($arg:ident: $ty:ty),*);)*) => {
            $(fn $name(&mut self, $($arg: $ty),*) -> AbsId {
                self.inner.$name($($arg),*)
            })*
        };
    }

    impl Ops for Seeded {
        type Node = AbsId;

        fn param(&mut self, store: &ParamStore, name: &str) -> AbsId {
            let p = self.inner.param(store, name);
            if self.fault != Fault::DetachTimWeights || !name.starts_with("tim_lstm.") {
                return p;
            }
            let (rows, cols) = self.inner.shape(p);
            let iv = self.inner.interval(p);
            self.inner.source(rows, cols, iv)
        }

        fn shape(&self, x: AbsId) -> (usize, usize) {
            self.inner.shape(x)
        }

        fn check(&mut self, op: &'static str, cond: bool, detail: impl FnOnce() -> String) {
            self.inner.check(op, cond, detail)
        }

        fn scoped<R>(
            &mut self,
            module: &str,
            equation: Option<&str>,
            f: impl FnOnce(&mut Self) -> R,
        ) -> R {
            // Run `f` on `self` while the inner context has the frame pushed.
            let mut inner = std::mem::take(&mut self.inner);
            let out = inner.scoped(module, equation, |scoped| {
                std::mem::swap(scoped, &mut self.inner);
                self.modules.push(module.to_string());
                if self.fault == Fault::ReorderSoftmaxSum && module == "decode.entity" {
                    self.inner.reorder("softmax_rows", "row-sum");
                }
                let out = f(self);
                self.modules.pop();
                std::mem::swap(scoped, &mut self.inner);
                out
            });
            self.inner = inner;
            out
        }

        fn softmax_rows(&mut self, x: AbsId) -> AbsId {
            let in_entity_decode = self.modules.iter().any(|m| m == "decode.entity");
            let x = if self.fault == Fault::ExpLogits && in_entity_decode {
                self.inner.exp(x)
            } else {
                x
            };
            self.inner.softmax_rows(x)
        }

        fn add_n(&mut self, xs: &[AbsId]) -> AbsId {
            self.inner.add_n(xs)
        }

        forward! {
            param_value(store: &ParamStore, name: &str);
            zeros(rows: usize, cols: usize);
            add(a: AbsId, b: AbsId);
            sub(a: AbsId, b: AbsId);
            mul(a: AbsId, b: AbsId);
            add_bias(x: AbsId, b: AbsId);
            mul_bias(x: AbsId, w: AbsId);
            mul_col(x: AbsId, c: AbsId);
            scale(x: AbsId, s: f32);
            add_scalar(x: AbsId, s: f32);
            matmul(a: AbsId, b: AbsId);
            matmul_nt(a: AbsId, b: AbsId);
            conv1d(x: AbsId, w: AbsId, b: AbsId, in_ch: usize, out_ch: usize, ksize: usize);
            sigmoid(x: AbsId);
            tanh(x: AbsId);
            relu(x: AbsId);
            rrelu(x: AbsId);
            dropout(x: AbsId, p: f32);
            gather_rows(x: AbsId, indices: Rc<Vec<u32>>);
            scatter_add_rows(x: AbsId, indices: Rc<Vec<u32>>, out_rows: usize);
            row_scale(x: AbsId, weights: Rc<Vec<f32>>);
            gather_cols(x: AbsId, cols: Rc<Vec<u32>>);
            concat_cols(a: AbsId, b: AbsId);
            slice_cols(x: AbsId, start: usize, end: usize);
            ln(x: AbsId, eps: f32);
            mean_all(x: AbsId);
            sum_all(x: AbsId);
            sum_rows(x: AbsId);
            normalize_rows(x: AbsId);
            layer_norm_rows(x: AbsId);
        }
    }

    /// The audit of `model` with `fault` injected into its training step.
    fn seeded_audit(model: &Retia, fault: Fault) -> AuditReport {
        let seeded = Seeded { inner: AuditCtx::new(), fault, modules: Vec::new() };
        let (seeded, loss) = model.audit_step(seeded);
        model.audit_report(seeded.inner, loss)
    }

    #[test]
    fn default_configuration_is_clean() {
        let report = audit_config(&tiny_cfg(), 12, 3);
        assert!(report.is_clean(), "unexpected findings:\n{report}");
        assert!(report.ops_checked > 50, "audit checked only {} ops", report.ops_checked);
        assert!(report.params_declared > 10);
        assert_eq!(report.params_declared, report.params_reached);
    }

    #[test]
    fn every_ablation_mode_is_clean() {
        for cfg in all_configs() {
            let report = audit_config(&cfg, 9, 2);
            assert!(report.is_clean(), "findings for {}:\n{report}", label(&cfg));
        }
    }

    #[test]
    fn audit_runs_the_training_tape_op_for_op() {
        // The audit runs the model's own step, so its abstract tape must
        // record exactly the ops a real training step records on the same
        // window, in the same order, in every configuration.
        for cfg in all_configs() {
            let model = Retia::with_shape(&cfg, 9, 2);
            let (audited, _) = model.audit_step(AuditCtx::new());
            let (snaps, hypers, target) = synthetic_window(9, 2);
            let mut g = Graph::new(true, 7);
            let states = model.evolve(&mut g, &snaps, &hypers);
            let _ = model.loss(&mut g, &states, &target);
            let real = g.tape_transfer_keys();
            assert!(real.len() > 50, "{}: only {} tape ops", label(&cfg), real.len());
            assert_eq!(audited.transfer_keys(), real, "{}: tapes diverge", label(&cfg));
        }
    }

    #[test]
    fn seeded_undeclared_detach_is_caught_in_the_tim() {
        let model = Retia::with_shape(&tiny_cfg(), 12, 3);
        let report = seeded_audit(&model, Fault::DetachTimWeights);
        assert!(!report.is_clean(), "undeclared detach passed the audit");
        let flagged: Vec<_> =
            report.issues.iter().filter(|i| i.kind == retia_analyze::AuditKind::GradFlow).collect();
        assert!(
            flagged
                .iter()
                .any(|i| i.op.contains("tim_lstm") && i.path.contains("tim.lstm [Eq. 7-8]")),
            "no finding blames the TIM LSTM weights:\n{report}"
        );
    }

    #[test]
    fn seeded_unguarded_exp_is_caught_in_the_decoder() {
        // Needs dims where the logit envelope exceeds ln(f32::MAX); the
        // tiny 8-dim config keeps |logits| < 89 and a bare exp is (soundly)
        // not flagged there.
        let cfg = RetiaConfig { dim: 32, channels: 8, k: 2, ..Default::default() };
        let model = Retia::with_shape(&cfg, 12, 3);
        let report = seeded_audit(&model, Fault::ExpLogits);
        assert!(!report.is_clean(), "unguarded exp passed the audit");
        assert!(
            report.issues.iter().any(|i| {
                i.kind == retia_analyze::AuditKind::NonFinite
                    && i.op == "exp"
                    && i.path.contains("decode.entity [Eq. 11/13]")
            }),
            "no finding blames exp in the entity decoder:\n{report}"
        );
    }

    #[test]
    fn seeded_reduction_reorder_is_caught() {
        let model = Retia::with_shape(&tiny_cfg(), 12, 3);
        let report = seeded_audit(&model, Fault::ReorderSoftmaxSum);
        assert!(!report.is_clean(), "order-sensitive reorder passed the audit");
        assert!(
            report.issues.iter().any(|i| {
                i.kind == retia_analyze::AuditKind::Reorder
                    && i.op.contains("softmax_rows/row-sum")
                    && i.path.contains("decode.entity")
            }),
            "no finding vetoes the softmax row-sum reorder:\n{report}"
        );
    }

    #[test]
    fn audit_scales_to_paper_dims_fast() {
        let start = std::time::Instant::now();
        let report = audit_config(&RetiaConfig::paper_scale(), 23_033, 256);
        assert!(report.is_clean(), "{report}");
        assert!(
            start.elapsed() < std::time::Duration::from_secs(1),
            "audit took {:?}",
            start.elapsed()
        );
    }
}
