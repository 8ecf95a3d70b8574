//! Model-level dry run: one full training step (evolve → decode → loss →
//! backward) over a synthetic snapshot window, run on the shape interpreter
//! and reporting every shape/broadcast/index-space mismatch with the module
//! and paper-equation name it occurred in.
//!
//! There is no replay to keep in sync: [`Retia::validate`] runs the model's
//! own generic step ([`Retia::evolve`], the decoders, the joint loss) on a
//! [`ShapeCtx`]. Because that interpreter works on [`ShapeTensor`]s, a dry
//! run of even paper-scale configurations finishes in well under a second
//! and touches no floating-point data.
//!
//! `retia check` in the CLI surfaces this, and the trainer entry points run
//! it before the first gradient step so a mis-wired configuration fails in
//! milliseconds instead of mid-epoch.
//!
//! [`ShapeTensor`]: retia_analyze::ShapeTensor

use retia_analyze::{ShapeCtx, ShapeReport};
use retia_graph::{HyperSnapshot, Quad, Snapshot};

use crate::config::RetiaConfig;
use crate::model::Retia;

/// A two-snapshot history plus a target snapshot exercising the extreme
/// index spaces: entity ids `0` and `N-1`, relation ids `0` and `M-1`, so
/// any gather/scatter whose index space is off-by-one or mis-sized is
/// caught without running on real data.
pub(crate) fn synthetic_window(
    num_entities: usize,
    num_relations: usize,
) -> (Vec<Snapshot>, Vec<HyperSnapshot>, Snapshot) {
    let n = num_entities.max(2) as u32;
    let m = num_relations.max(1) as u32;
    let facts_at = |t: u32| {
        vec![
            Quad::new(0, 0, n - 1, t),
            Quad::new(n - 1, m - 1, 0, t),
            Quad::new(0, m - 1, 1 % n, t),
            Quad::new(1 % n, 0, n - 1, t),
        ]
    };
    let snaps: Vec<Snapshot> =
        (0..2).map(|t| Snapshot::from_quads(&facts_at(t), num_entities, num_relations)).collect();
    let hypers = snaps.iter().map(HyperSnapshot::from_snapshot).collect();
    let target = Snapshot::from_quads(&facts_at(2), num_entities, num_relations);
    (snaps, hypers, target)
}

impl Retia {
    /// Dry-runs one full training step (evolve over a synthetic snapshot
    /// window, entity + relation decoding, the joint loss, backward) on
    /// shapes alone, returning every mismatch found. A clean report
    /// ([`ShapeReport::is_clean`]) means the configuration's tensors wire
    /// together; it costs no floating-point work and finishes in
    /// milliseconds at any scale.
    pub fn validate(&self) -> ShapeReport {
        let (snaps, hypers, target) = synthetic_window(self.num_entities(), self.num_relations());
        let mut ctx = ShapeCtx::new();
        let loss = self.step_loss(&mut ctx, &snaps, &hypers, &target);
        ctx.backward(loss);
        ctx.finish()
    }
}

/// Builds a model for the given configuration and shape and dry-runs it —
/// the implementation behind `retia check`. Returns the resulting
/// [`ShapeReport`] (clean or listing every mismatch).
pub fn validate_config(
    cfg: &RetiaConfig,
    num_entities: usize,
    num_relations: usize,
) -> ShapeReport {
    let model = Retia::with_shape(cfg, num_entities, num_relations);
    model.validate()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{HyperrelMode, RelationMode};
    use retia_nn::{ConvTransE, LstmCell};

    fn tiny_cfg() -> RetiaConfig {
        RetiaConfig { dim: 8, channels: 4, k: 2, ..Default::default() }
    }

    #[test]
    fn default_wiring_is_clean() {
        let report = validate_config(&tiny_cfg(), 12, 3);
        assert!(report.is_clean(), "unexpected issues:\n{report}");
        assert!(report.ops_checked > 50, "dry run checked only {} ops", report.ops_checked);
    }

    #[test]
    fn every_ablation_mode_is_clean() {
        for rm in [
            RelationMode::None,
            RelationMode::Static,
            RelationMode::Mp,
            RelationMode::MpLstm,
            RelationMode::MpLstmAgg,
        ] {
            for hm in [HyperrelMode::Init, HyperrelMode::Hmp, HyperrelMode::HmpHlstm] {
                for (tim, eam) in [(true, true), (false, true), (true, false)] {
                    let cfg = RetiaConfig {
                        relation_mode: rm,
                        hyperrel_mode: hm,
                        use_tim: tim,
                        use_eam: eam,
                        static_weight: 1.0,
                        ..tiny_cfg()
                    };
                    let report = validate_config(&cfg, 9, 2);
                    assert!(
                        report.is_clean(),
                        "issues for {rm:?}/{hm:?}/tim={tim}/eam={eam}:\n{report}"
                    );
                }
            }
        }
    }

    #[test]
    fn injected_tim_wiring_bug_is_caught_and_named() {
        // Sever the Eq. 8 concatenation: build the TIM LSTM for a plain
        // d-wide input. The dry run must flag it inside the TIM LSTM, not
        // somewhere downstream, and keep running to the end.
        let cfg = tiny_cfg();
        let mut model = Retia::with_shape(&cfg, 12, 3);
        model.tim_lstm = LstmCell::new(model.store_mut(), "tim_lstm_d", cfg.dim, cfg.dim);
        let report = model.validate();
        assert!(!report.is_clean(), "corrupted wiring passed validation");
        assert!(
            report.issues.iter().any(|i| i.path.contains("tim.lstm")),
            "no issue names the TIM LSTM:\n{report}"
        );
    }

    #[test]
    fn injected_decoder_wiring_bug_is_caught() {
        // An entity decoder built for a (d+1)-wide embedding.
        let cfg = tiny_cfg();
        let mut model = Retia::with_shape(&cfg, 12, 3);
        model.dec_entity = ConvTransE::new(
            model.store_mut(),
            "dec_e_wide",
            cfg.dim + 1,
            cfg.channels,
            cfg.ksize,
            cfg.dropout,
        );
        let report = model.validate();
        assert!(!report.is_clean());
        assert!(
            report.issues.iter().any(|i| i.path.contains("decode")),
            "no issue names a decoder:\n{report}"
        );
    }

    #[test]
    fn dry_run_scales_to_paper_dims_instantly() {
        // Paper-scale ICEWS18: ~23k entities, 256 relations, d=200. The
        // interpreter must stay well under the CLI's 1-second budget.
        let start = std::time::Instant::now();
        let report = validate_config(&RetiaConfig::paper_scale(), 23_033, 256);
        assert!(report.is_clean(), "{report}");
        assert!(
            start.elapsed() < std::time::Duration::from_secs(1),
            "dry run took {:?}",
            start.elapsed()
        );
    }
}
