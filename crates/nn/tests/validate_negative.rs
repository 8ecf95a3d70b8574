//! Negative validation tests: every public NN layer, its own `forward` run
//! on a shape interpreter with deliberately mismatched dimensions, must
//! record at least one issue whose path names the layer — the guarantee
//! `retia check` builds on.

use retia_analyze::{ShapeCtx, ShapeTensor};
use retia_graph::{HyperSnapshot, Quad, Snapshot};
use retia_nn::{
    mean_pool_segments, ConvTransE, EntityRgcn, GruCell, Linear, LstmCell, RelationRgcn, WeightMode,
};
use retia_tensor::ParamStore;

/// Runs `f` in a fresh context and asserts it produced at least one issue
/// naming `layer` in its path.
fn expect_issue_naming(layer: &str, f: impl FnOnce(&mut ShapeCtx)) {
    let mut ctx = ShapeCtx::new();
    f(&mut ctx);
    let report = ctx.finish();
    assert!(!report.is_clean(), "{layer}: mismatched dims passed validation");
    assert!(
        report.issues.iter().any(|i| i.path.contains(layer)),
        "{layer}: no issue names the layer:\n{report}"
    );
}

fn snapshot() -> Snapshot {
    Snapshot::from_quads(&[Quad::new(0, 0, 2, 0), Quad::new(2, 1, 1, 0)], 4, 2)
}

#[test]
fn linear_rejects_wrong_input_width() {
    let mut store = ParamStore::new(0);
    let lin = Linear::new(&mut store, "l", 3, 5);
    expect_issue_naming("Linear", |ctx| {
        lin.forward(ctx, &store, ShapeTensor::new(2, 4));
    });
}

#[test]
fn gru_rejects_wrong_input_width() {
    let mut store = ParamStore::new(0);
    let gru = GruCell::new(&mut store, "g", 8, 8);
    expect_issue_naming("GruCell", |ctx| {
        gru.forward(ctx, &store, ShapeTensor::new(4, 7), ShapeTensor::new(4, 8));
    });
}

#[test]
fn gru_rejects_mismatched_hidden_rows() {
    let mut store = ParamStore::new(0);
    let gru = GruCell::new(&mut store, "g", 8, 8);
    expect_issue_naming("GruCell", |ctx| {
        gru.forward(ctx, &store, ShapeTensor::new(4, 8), ShapeTensor::new(5, 8));
    });
}

#[test]
fn lstm_rejects_wrong_input_width() {
    let mut store = ParamStore::new(0);
    let lstm = LstmCell::new(&mut store, "l", 16, 8);
    expect_issue_naming("LstmCell", |ctx| {
        lstm.forward(
            ctx,
            &store,
            ShapeTensor::new(4, 8),
            ShapeTensor::new(4, 8),
            ShapeTensor::new(4, 8),
        );
    });
}

#[test]
fn lstm_rejects_mismatched_cell_state() {
    let mut store = ParamStore::new(0);
    let lstm = LstmCell::new(&mut store, "l", 16, 8);
    expect_issue_naming("LstmCell", |ctx| {
        lstm.forward(
            ctx,
            &store,
            ShapeTensor::new(4, 16),
            ShapeTensor::new(4, 8),
            ShapeTensor::new(4, 9),
        );
    });
}

#[test]
fn entity_rgcn_rejects_wrong_entity_count() {
    let snap = snapshot();
    let mut store = ParamStore::new(0);
    let rgcn = EntityRgcn::new(&mut store, "eam", 8, 4, WeightMode::Basis(2), 1, 0.0);
    expect_issue_naming("EntityRgcn", |ctx| {
        // 5 entity rows vs the snapshot's 4 entities.
        rgcn.forward(ctx, &store, ShapeTensor::new(5, 8), ShapeTensor::new(4, 8), &snap);
    });
}

#[test]
fn entity_rgcn_rejects_wrong_relation_width() {
    let snap = snapshot();
    let mut store = ParamStore::new(0);
    let rgcn = EntityRgcn::new(&mut store, "eam", 8, 4, WeightMode::Basis(2), 1, 0.0);
    expect_issue_naming("EntityRgcn", |ctx| {
        // Relation embeddings narrower than d: the edge-message add breaks.
        rgcn.forward(ctx, &store, ShapeTensor::new(4, 8), ShapeTensor::new(4, 6), &snap);
    });
}

#[test]
fn relation_rgcn_rejects_wrong_hyperrel_count() {
    let snap = snapshot();
    let hyper = HyperSnapshot::from_snapshot(&snap);
    let mut store = ParamStore::new(0);
    let rgcn = RelationRgcn::new(&mut store, "ram", 8, WeightMode::PerRelation, 1, 0.0);
    expect_issue_naming("RelationRgcn", |ctx| {
        // 3 hyperrelation rows instead of NUM_HYPERRELS_WITH_INV (8).
        rgcn.forward(
            ctx,
            &store,
            ShapeTensor::new(hyper.num_rel_nodes, 8),
            ShapeTensor::new(3, 8),
            &hyper,
        );
    });
}

#[test]
fn conv_transe_rejects_wrong_query_width() {
    let mut store = ParamStore::new(0);
    let dec = ConvTransE::new(&mut store, "dec", 8, 4, 3, 0.0);
    expect_issue_naming("ConvTransE", |ctx| {
        dec.forward(
            ctx,
            &store,
            ShapeTensor::new(2, 9),
            ShapeTensor::new(2, 9),
            ShapeTensor::new(5, 8),
        );
    });
}

#[test]
fn conv_transe_rejects_mismatched_query_parts() {
    let mut store = ParamStore::new(0);
    let dec = ConvTransE::new(&mut store, "dec", 8, 4, 3, 0.0);
    expect_issue_naming("ConvTransE", |ctx| {
        dec.forward(
            ctx,
            &store,
            ShapeTensor::new(2, 8),
            ShapeTensor::new(3, 8),
            ShapeTensor::new(5, 8),
        );
    });
}

#[test]
fn mean_pool_rejects_out_of_range_member() {
    expect_issue_naming("mean_pool_segments", |ctx| {
        // Segment member 5 in a 3-row input.
        mean_pool_segments(ctx, ShapeTensor::new(3, 4), &[vec![0, 5], vec![1]]);
    });
}

#[test]
fn valid_layers_pass() {
    let snap = snapshot();
    let hyper = HyperSnapshot::from_snapshot(&snap);
    let mut store = ParamStore::new(0);
    let mut ctx = ShapeCtx::new();
    let lin = Linear::new(&mut store, "l", 3, 5);
    lin.forward(&mut ctx, &store, ShapeTensor::new(2, 3));
    let gru = GruCell::new(&mut store, "g", 8, 8);
    gru.forward(&mut ctx, &store, ShapeTensor::new(4, 8), ShapeTensor::new(4, 8));
    let lstm = LstmCell::new(&mut store, "ls", 16, 8);
    lstm.forward(
        &mut ctx,
        &store,
        ShapeTensor::new(4, 16),
        ShapeTensor::new(4, 8),
        ShapeTensor::new(4, 8),
    );
    let eam = EntityRgcn::new(&mut store, "eam", 8, 4, WeightMode::Basis(2), 2, 0.0);
    eam.forward(&mut ctx, &store, ShapeTensor::new(4, 8), ShapeTensor::new(4, 8), &snap);
    let ram = RelationRgcn::new(&mut store, "ram", 8, WeightMode::PerRelation, 2, 0.0);
    ram.forward(
        &mut ctx,
        &store,
        ShapeTensor::new(hyper.num_rel_nodes, 8),
        ShapeTensor::new(retia_graph::NUM_HYPERRELS_WITH_INV, 8),
        &hyper,
    );
    let dec = ConvTransE::new(&mut store, "dec", 8, 4, 3, 0.0);
    dec.forward(
        &mut ctx,
        &store,
        ShapeTensor::new(2, 8),
        ShapeTensor::new(2, 8),
        ShapeTensor::new(5, 8),
    );
    mean_pool_segments(&mut ctx, ShapeTensor::new(4, 8), &[vec![0, 1], vec![], vec![3]]);
    let report = ctx.finish();
    assert!(report.is_clean(), "valid layers produced issues:\n{report}");
    assert!(report.ops_checked > 30);
}
