//! Relational graph convolution layers.
//!
//! [`EntityRgcn`] implements Eq. 4 (the entity-aggregating R-GCN of the EAM):
//! each object entity aggregates `W_r (e_s + r)` from its in-edges (inverse
//! edges included), normalized by `1/c_{o,r}`, plus a self-loop `W_0 e_o`,
//! through an RReLU.
//!
//! [`RelationRgcn`] implements Eq. 1 (the relation-aggregating R-GCN of the
//! RAM) on a hyperrelation subgraph: each relation node aggregates
//! `W_hr (r_s + hr)` from its hyperrelation in-edges plus a self-loop.
//!
//! Per-edge-type weights come in two flavors (the [`WeightMode`] ablation of
//! `benches/rgcn.rs`): independent matrices per type, or the basis
//! decomposition of Schlichtkrull et al. (`W_r = Σ_b a_{rb} V_b`), which is
//! what large relation vocabularies need.

use std::rc::Rc;

use retia_graph::{HyperSnapshot, Snapshot, NUM_HYPERRELS_WITH_INV};
use retia_tensor::{Ops, ParamStore};

/// How per-edge-type transforms are parameterized.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WeightMode {
    /// One independent `[d, d]` matrix per edge type.
    PerRelation,
    /// Basis decomposition with the given number of bases.
    Basis(usize),
}

/// The edge arrays one R-GCN pass aggregates over, sorted by edge type.
#[derive(Clone, Copy)]
struct Edges<'a> {
    src: &'a [u32],
    etype: &'a [u32],
    dst: &'a [u32],
    norm: &'a [f32],
    type_ranges: &'a [(usize, usize)],
    num_nodes: usize,
}

/// Shared implementation over (src, etype, dst, norm) edge arrays.
#[derive(Clone, Debug)]
struct RgcnCore {
    prefix: String,
    dim: usize,
    num_edge_types: usize,
    mode: WeightMode,
    num_layers: usize,
    dropout: f32,
}

impl RgcnCore {
    fn new(
        store: &mut ParamStore,
        prefix: &str,
        dim: usize,
        num_edge_types: usize,
        mode: WeightMode,
        num_layers: usize,
        dropout: f32,
    ) -> Self {
        for l in 0..num_layers {
            store.register_xavier(&format!("{prefix}.l{l}.wself"), dim, dim);
            match mode {
                WeightMode::PerRelation => {
                    for r in 0..num_edge_types {
                        store.register_xavier(&format!("{prefix}.l{l}.w{r}"), dim, dim);
                    }
                }
                WeightMode::Basis(b) => {
                    assert!(b > 0, "basis count must be positive");
                    for i in 0..b {
                        store.register_xavier(&format!("{prefix}.l{l}.basis{i}"), dim, dim);
                    }
                    store.register_xavier(&format!("{prefix}.l{l}.coef"), num_edge_types, b);
                }
            }
        }
        RgcnCore { prefix: prefix.to_string(), dim, num_edge_types, mode, num_layers, dropout }
    }

    /// Every layer over `edges`: `h` `[num_nodes, d]`, `edge_emb`
    /// `[num_edge_types, d]` (relation or hyperrelation embeddings added
    /// into messages).
    fn forward<O: Ops>(
        &self,
        g: &mut O,
        store: &ParamStore,
        h: O::Node,
        edge_emb: O::Node,
        edges: &Edges,
    ) -> O::Node {
        (0..self.num_layers).fold(h, |h, l| self.layer(g, store, l, h, edge_emb, edges))
    }

    /// One layer. In `PerRelation` mode the weight of an edge type with no
    /// edges in this snapshot never enters the graph; the model-level audit
    /// declares such weights frozen for its window.
    fn layer<O: Ops>(
        &self,
        g: &mut O,
        store: &ParamStore,
        layer: usize,
        h_nodes: O::Node,
        edge_emb: O::Node,
        edges: &Edges,
    ) -> O::Node {
        let Edges { src, etype, dst, norm, type_ranges, num_nodes } = *edges;
        g.scoped(&format!("layer {layer}"), None, |g| {
            let w0 = g.param(store, &format!("{}.l{layer}.wself", self.prefix));
            let self_part = g.matmul(h_nodes, w0);

            let mut out = self_part;
            if !src.is_empty() {
                g.check("edge_types", type_ranges.len() == self.num_edge_types, || {
                    format!(
                        "{} type ranges for {} registered edge-type weights",
                        type_ranges.len(),
                        self.num_edge_types
                    )
                });
                // Message pre-transform: (h_src + edge_emb), degree-normalized.
                // Normalizing before the linear transform is equivalent (the
                // transform is linear) and lets both weight modes share it.
                let src_idx = Rc::new(src.to_vec());
                let type_idx = Rc::new(etype.to_vec());
                let h_src = g.gather_rows(h_nodes, src_idx);
                let e_edge = g.gather_rows(edge_emb, type_idx.clone());
                let raw = g.add(h_src, e_edge);
                let msg = g.row_scale(raw, Rc::new(norm.to_vec()));

                let transformed = match self.mode {
                    WeightMode::Basis(nb) => {
                        let coef = g.param(store, &format!("{}.l{layer}.coef", self.prefix));
                        let coef_per_edge = g.gather_rows(coef, type_idx);
                        let mut acc: Option<O::Node> = None;
                        for b in 0..nb {
                            let vb = g.param(store, &format!("{}.l{layer}.basis{b}", self.prefix));
                            let xb = g.matmul(msg, vb);
                            let cb = g.slice_cols(coef_per_edge, b, b + 1);
                            let scaled = g.mul_col(xb, cb);
                            acc = Some(match acc {
                                Some(a) => g.add(a, scaled),
                                None => scaled,
                            });
                        }
                        g.check("basis_count", acc.is_some(), || {
                            "basis decomposition with zero bases".to_string()
                        });
                        let t = acc.unwrap_or(msg);
                        g.scatter_add_rows(t, Rc::new(dst.to_vec()), num_nodes)
                    }
                    WeightMode::PerRelation => {
                        let mut acc: Option<O::Node> = None;
                        for (r, &(a, b)) in type_ranges.iter().enumerate() {
                            if b == a {
                                continue;
                            }
                            g.check("edge_type_id", r < self.num_edge_types, || {
                                format!(
                                    "edge type {r} has no registered weight (only {} types)",
                                    self.num_edge_types
                                )
                            });
                            let rows: Rc<Vec<u32>> = Rc::new((a as u32..b as u32).collect());
                            let mr = g.gather_rows(msg, rows);
                            let wr = g.param(store, &format!("{}.l{layer}.w{r}", self.prefix));
                            let t = g.matmul(mr, wr);
                            let part =
                                g.scatter_add_rows(t, Rc::new(dst[a..b].to_vec()), num_nodes);
                            acc = Some(match acc {
                                Some(x) => g.add(x, part),
                                None => part,
                            });
                        }
                        match acc {
                            Some(x) => x,
                            None => g.zeros(num_nodes, self.dim),
                        }
                    }
                };
                out = g.add(out, transformed);
            }
            let activated = g.rrelu(out);
            g.dropout(activated, self.dropout)
        })
    }
}

/// The entity-aggregating R-GCN (Eq. 4).
#[derive(Clone, Debug)]
pub struct EntityRgcn {
    core: RgcnCore,
}

impl EntityRgcn {
    /// Registers an `num_layers`-layer entity R-GCN under `prefix`.
    /// `num_rel_total` is `2M` (inverse relations included).
    pub fn new(
        store: &mut ParamStore,
        prefix: &str,
        dim: usize,
        num_rel_total: usize,
        mode: WeightMode,
        num_layers: usize,
        dropout: f32,
    ) -> Self {
        EntityRgcn {
            core: RgcnCore::new(store, prefix, dim, num_rel_total, mode, num_layers, dropout),
        }
    }

    /// Aggregates over `snap`: `entities [N, d]`, `relations [2M, d]` →
    /// `[N, d]`.
    pub fn forward<O: Ops>(
        &self,
        g: &mut O,
        store: &ParamStore,
        entities: O::Node,
        relations: O::Node,
        snap: &Snapshot,
    ) -> O::Node {
        let _m = retia_obs::module_scope("EntityRgcn");
        g.scoped("EntityRgcn", None, |g| {
            let (ent_rows, rel_rows) = (g.shape(entities).0, g.shape(relations).0);
            g.check("entity_count", ent_rows == snap.num_entities, || {
                format!(
                    "entity count mismatch: {ent_rows} embedding rows, snapshot has {} entities",
                    snap.num_entities
                )
            });
            g.check("relation_count", rel_rows == 2 * snap.num_relations, || {
                format!(
                    "relation count mismatch: {rel_rows} embedding rows, expected {} (2M with \
                     inverses)",
                    2 * snap.num_relations
                )
            });
            let edges = Edges {
                src: &snap.src,
                etype: &snap.rel,
                dst: &snap.dst,
                norm: &snap.edge_norm,
                type_ranges: &snap.rel_ranges,
                num_nodes: snap.num_entities,
            };
            self.core.forward(g, store, entities, relations, &edges)
        })
    }
}

/// The relation-aggregating R-GCN over a hyperrelation subgraph (Eq. 1).
#[derive(Clone, Debug)]
pub struct RelationRgcn {
    core: RgcnCore,
}

impl RelationRgcn {
    /// Registers an `num_layers`-layer relation R-GCN under `prefix`. There
    /// are always `2H = 8` hyperrelation edge types.
    pub fn new(
        store: &mut ParamStore,
        prefix: &str,
        dim: usize,
        mode: WeightMode,
        num_layers: usize,
        dropout: f32,
    ) -> Self {
        RelationRgcn {
            core: RgcnCore::new(
                store,
                prefix,
                dim,
                NUM_HYPERRELS_WITH_INV,
                mode,
                num_layers,
                dropout,
            ),
        }
    }

    /// Aggregates over `hyper`: `relations [2M, d]`,
    /// `hyperrelations [2H, d]` → `[2M, d]`.
    pub fn forward<O: Ops>(
        &self,
        g: &mut O,
        store: &ParamStore,
        relations: O::Node,
        hyperrelations: O::Node,
        hyper: &HyperSnapshot,
    ) -> O::Node {
        let _m = retia_obs::module_scope("RelationRgcn");
        g.scoped("RelationRgcn", None, |g| {
            let (rel_rows, hyper_rows) = (g.shape(relations).0, g.shape(hyperrelations).0);
            g.check("relation_node_count", rel_rows == hyper.num_rel_nodes, || {
                format!(
                    "relation node count mismatch: {rel_rows} embedding rows, hypergraph has {} \
                     relation nodes",
                    hyper.num_rel_nodes
                )
            });
            g.check("hyperrelation_count", hyper_rows == NUM_HYPERRELS_WITH_INV, || {
                format!(
                    "hyperrelation embedding count mismatch: {hyper_rows} rows, expected \
                     {NUM_HYPERRELS_WITH_INV}"
                )
            });
            let edges = Edges {
                src: &hyper.src,
                etype: &hyper.hrel,
                dst: &hyper.dst,
                norm: &hyper.edge_norm,
                type_ranges: &hyper.hrel_ranges,
                num_nodes: hyper.num_rel_nodes,
            };
            self.core.forward(g, store, relations, hyperrelations, &edges)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retia_graph::Quad;
    use retia_tensor::{Graph, Tensor, RRELU_EVAL_SLOPE};

    fn toy_snapshot() -> Snapshot {
        let quads = vec![Quad::new(0, 0, 1, 0), Quad::new(2, 1, 1, 0), Quad::new(1, 0, 3, 0)];
        Snapshot::from_quads(&quads, 4, 2)
    }

    fn rrelu_eval(x: f32) -> f32 {
        if x >= 0.0 {
            x
        } else {
            x * RRELU_EVAL_SLOPE
        }
    }

    #[test]
    fn entity_rgcn_shapes_both_modes() {
        for mode in [WeightMode::PerRelation, WeightMode::Basis(2)] {
            let mut store = ParamStore::new(0);
            let rgcn = EntityRgcn::new(&mut store, "e", 8, 4, mode, 2, 0.0);
            let snap = toy_snapshot();
            let mut g = Graph::new(false, 0);
            let e = g.constant(Tensor::ones(4, 8));
            let r = g.constant(Tensor::ones(4, 8));
            let out = rgcn.forward(&mut g, &store, e, r, &snap);
            assert_eq!(g.value(out).shape(), (4, 8));
            assert!(g.value(out).all_finite());
        }
    }

    #[test]
    fn per_relation_matches_naive_dense() {
        // Single layer, per-relation weights, eval mode: compare against a
        // direct implementation of Eq. 4.
        let d = 3;
        let snap = toy_snapshot();
        let mut store = ParamStore::new(7);
        let rgcn = EntityRgcn::new(&mut store, "e", d, 4, WeightMode::PerRelation, 1, 0.0);
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let ent = Tensor::from_fn(4, d, |_, _| rng.gen_range(-1.0f32..1.0));
        let rel = Tensor::from_fn(4, d, |_, _| rng.gen_range(-1.0f32..1.0));

        let mut g = Graph::new(false, 0);
        let e = g.constant(ent.clone());
        let r = g.constant(rel.clone());
        let out = rgcn.forward(&mut g, &store, e, r, &snap);
        let got = g.value(out).clone();

        // Naive: for each node o, W0 e_o + sum over in-edges (1/c)(e_s + r)W_r.
        let w0 = store.value("e.l0.wself");
        let mut expected = ent.matmul(w0);
        for i in 0..snap.num_edges() {
            let (s, rr, o) = (snap.src[i] as usize, snap.rel[i] as usize, snap.dst[i] as usize);
            let wr = store.value(&format!("e.l0.w{rr}"));
            let mut msg = Tensor::from_vec(
                1,
                d,
                ent.row(s).iter().zip(rel.row(rr).iter()).map(|(&a, &b)| a + b).collect(),
            );
            msg = msg.scale(snap.edge_norm[i]).matmul(wr);
            for j in 0..d {
                let v = expected.get(o, j) + msg.get(0, j);
                expected.set(o, j, v);
            }
        }
        expected.map_inplace(rrelu_eval);
        assert!(got.max_abs_diff(&expected) < 1e-5, "diff {}", got.max_abs_diff(&expected));
    }

    #[test]
    fn relation_rgcn_over_hypergraph() {
        let snap = toy_snapshot();
        let hyper = HyperSnapshot::from_snapshot(&snap);
        assert!(hyper.num_edges() > 0);
        let mut store = ParamStore::new(0);
        let rgcn = RelationRgcn::new(&mut store, "r", 6, WeightMode::PerRelation, 2, 0.0);
        let mut g = Graph::new(false, 0);
        let r = g.constant(Tensor::ones(4, 6));
        let hr = g.constant(Tensor::ones(8, 6));
        let out = rgcn.forward(&mut g, &store, r, hr, &hyper);
        assert_eq!(g.value(out).shape(), (4, 6));
        assert!(g.value(out).all_finite());
    }

    #[test]
    fn gradients_reach_all_layer_params() {
        let snap = toy_snapshot();
        let mut store = ParamStore::new(0);
        store.register_xavier("ent", 4, 5);
        store.register_xavier("rel", 4, 5);
        let rgcn = EntityRgcn::new(&mut store, "e", 5, 4, WeightMode::Basis(2), 2, 0.0);
        let mut g = Graph::new(false, 0);
        let e = g.param(&store, "ent");
        let r = g.param(&store, "rel");
        let out = rgcn.forward(&mut g, &store, e, r, &snap);
        let sq = g.mul(out, out);
        let loss = g.sum_all(sq);
        g.backward(loss, &mut store);
        for name in
            ["ent", "rel", "e.l0.wself", "e.l0.basis0", "e.l0.basis1", "e.l0.coef", "e.l1.wself"]
        {
            assert!(store.grad(name).norm() > 0.0, "no gradient reached `{name}`");
        }
        let _ = rgcn; // silence unused in non-test builds
    }

    #[test]
    fn basis_with_identity_coefficients_matches_per_relation() {
        // With B = num_edge_types and one-hot coefficients, the basis
        // decomposition degenerates to independent per-relation weights:
        // W_r = basis_r. Copy the basis matrices into a per-relation model
        // and the two layers must agree exactly.
        let d = 4;
        let m = 2; // 2M = 4 edge types
        let snap = toy_snapshot();
        let mut store = ParamStore::new(3);
        let basis = EntityRgcn::new(&mut store, "b", d, 2 * m, WeightMode::Basis(2 * m), 1, 0.0);
        let per = EntityRgcn::new(&mut store, "p", d, 2 * m, WeightMode::PerRelation, 1, 0.0);

        // One-hot coefficients.
        *store.value_mut("b.l0.coef") = Tensor::eye(2 * m);
        // Mirror weights.
        let wself = store.value("b.l0.wself").clone();
        *store.value_mut("p.l0.wself") = wself;
        for r in 0..2 * m {
            let w = store.value(&format!("b.l0.basis{r}")).clone();
            *store.value_mut(&format!("p.l0.w{r}")) = w;
        }

        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let ent = Tensor::from_fn(4, d, |_, _| rng.gen_range(-1.0f32..1.0));
        let rel = Tensor::from_fn(4, d, |_, _| rng.gen_range(-1.0f32..1.0));

        let mut g = Graph::new(false, 0);
        let e = g.constant(ent.clone());
        let r = g.constant(rel.clone());
        let out_b = basis.forward(&mut g, &store, e, r, &snap);
        let out_p = per.forward(&mut g, &store, e, r, &snap);
        let diff = g.value(out_b).max_abs_diff(g.value(out_p));
        assert!(diff < 1e-5, "basis/per-relation mismatch: {diff}");
    }

    #[test]
    fn dropout_active_only_in_training_mode() {
        let snap = toy_snapshot();
        let mut store = ParamStore::new(0);
        let rgcn = EntityRgcn::new(&mut store, "e", 6, 4, WeightMode::Basis(2), 1, 0.5);
        let run = |training: bool, seed: u64| {
            let mut g = Graph::new(training, seed);
            let e = g.constant(Tensor::ones(4, 6));
            let r = g.constant(Tensor::ones(4, 6));
            let out = rgcn.forward(&mut g, &store, e, r, &snap);
            g.value(out).clone()
        };
        // Eval is deterministic across seeds; train is not (dropout masks).
        assert_eq!(run(false, 1), run(false, 2));
        assert_ne!(run(true, 1), run(true, 2));
    }

    #[test]
    fn empty_snapshot_keeps_self_loop_only() {
        let snap = Snapshot::empty(0, 3, 2);
        let mut store = ParamStore::new(0);
        let rgcn = EntityRgcn::new(&mut store, "e", 4, 4, WeightMode::PerRelation, 1, 0.0);
        let mut g = Graph::new(false, 0);
        let e = g.constant(Tensor::ones(3, 4));
        let r = g.constant(Tensor::ones(4, 4));
        let out = rgcn.forward(&mut g, &store, e, r, &snap);
        // Self-loop only: rrelu(e @ W0).
        let expected = {
            let mut t = Tensor::ones(3, 4).matmul(store.value("e.l0.wself"));
            t.map_inplace(rrelu_eval);
            t
        };
        assert!(g.value(out).max_abs_diff(&expected) < 1e-6);
    }
}
