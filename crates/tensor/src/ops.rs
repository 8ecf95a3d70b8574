//! One op vocabulary, three interpreters.
//!
//! [`Ops`] is the set of tensor operations the NN layers and the RETIA step
//! are written against. The autodiff [`Graph`] implements it by computing
//! values and recording the tape; `retia_analyze` implements it twice more
//! over abstract values — `ShapeCtx` over shapes alone (`retia check`) and
//! `AuditCtx` over intervals plus gradient-flow edges (`retia audit`). A
//! layer written once, generic over `Ops`, is the code all three run, so
//! the dry run and the audit cannot drift from the forward pass they check.
//!
//! `Graph` keeps its inherent methods of the same names, so code holding a
//! concrete `&mut Graph` calls them directly; the `Graph` impl below only
//! forwards.

use std::rc::Rc;

use retia_obs::SpanGuard;

use crate::autodiff::{Graph, NodeId};
use crate::param::ParamStore;
use crate::tensor::Tensor;

/// The op vocabulary shared by the autodiff graph and the abstract
/// interpreters. Shapes follow the `Graph` ops of the same name.
pub trait Ops {
    /// Handle to a value inside this interpreter.
    type Node: Copy;

    // ---- inputs and structure ----------------------------------------------

    /// A trainable parameter, by its `store` name.
    fn param(&mut self, store: &ParamStore, name: &str) -> Self::Node;
    /// A parameter's current value as a constant input: no gradient flows
    /// back into the store (how the ablations freeze an embedding table).
    fn param_value(&mut self, store: &ParamStore, name: &str) -> Self::Node;
    /// A constant all-zero `[rows, cols]` input.
    fn zeros(&mut self, rows: usize, cols: usize) -> Self::Node;
    /// `(rows, cols)` of a value.
    fn shape(&self, x: Self::Node) -> (usize, usize);
    /// A precondition that is not a single op (for example "the LSTM input
    /// width equals `input_dim`"). `Graph` panics with `detail` when it
    /// fails; the abstract interpreters record it and carry on.
    fn check(&mut self, op: &'static str, cond: bool, detail: impl FnOnce() -> String);
    /// Runs `f` with `module` (and optionally a paper-equation tag) on the
    /// scope path; the abstract interpreters attribute findings to it.
    fn scoped<R>(
        &mut self,
        module: &str,
        equation: Option<&str>,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R;
    /// Opens an observability span on interpreters that do real work. The
    /// abstract interpreters keep the default (no span), so a pre-flight
    /// check never shows up in a training trace.
    fn span(&self, _name: &'static str, _fields: &[(&str, f64)]) -> Option<SpanGuard> {
        None
    }

    // ---- elementwise and broadcasts ----------------------------------------

    /// Elementwise `a + b`.
    fn add(&mut self, a: Self::Node, b: Self::Node) -> Self::Node;
    /// Elementwise `a - b`.
    fn sub(&mut self, a: Self::Node, b: Self::Node) -> Self::Node;
    /// Elementwise `a * b`.
    fn mul(&mut self, a: Self::Node, b: Self::Node) -> Self::Node;
    /// `x + bias`, `bias` a `[1, d]` row broadcast over the rows of `x`.
    fn add_bias(&mut self, x: Self::Node, bias: Self::Node) -> Self::Node;
    /// `x * w`, `w` a `[1, d]` row broadcast over the rows of `x`.
    fn mul_bias(&mut self, x: Self::Node, w: Self::Node) -> Self::Node;
    /// `x * c`, `c` a `[n, 1]` column broadcast over the columns of `x`.
    fn mul_col(&mut self, x: Self::Node, c: Self::Node) -> Self::Node;
    /// `x * s` for a constant scalar.
    fn scale(&mut self, x: Self::Node, s: f32) -> Self::Node;
    /// `x + s` for a constant scalar.
    fn add_scalar(&mut self, x: Self::Node, s: f32) -> Self::Node;

    // ---- matmul and convolution --------------------------------------------

    /// `a @ b`.
    fn matmul(&mut self, a: Self::Node, b: Self::Node) -> Self::Node;
    /// `a @ b^T`.
    fn matmul_nt(&mut self, a: Self::Node, b: Self::Node) -> Self::Node;
    /// 1-D 'same' convolution: `x [batch, in_ch * width]`, kernel
    /// `w [out_ch, in_ch * ksize]`, bias `b [1, out_ch]`.
    fn conv1d(
        &mut self,
        x: Self::Node,
        w: Self::Node,
        b: Self::Node,
        in_ch: usize,
        out_ch: usize,
        ksize: usize,
    ) -> Self::Node;

    // ---- nonlinearities ----------------------------------------------------

    /// Logistic sigmoid.
    fn sigmoid(&mut self, x: Self::Node) -> Self::Node;
    /// Hyperbolic tangent.
    fn tanh(&mut self, x: Self::Node) -> Self::Node;
    /// Rectified linear unit.
    fn relu(&mut self, x: Self::Node) -> Self::Node;
    /// Randomized leaky ReLU (fixed mean slope outside training).
    fn rrelu(&mut self, x: Self::Node) -> Self::Node;
    /// Inverted dropout at rate `p`; identity outside training or at `p = 0`.
    fn dropout(&mut self, x: Self::Node, p: f32) -> Self::Node;

    // ---- gathers, scatters, layout -----------------------------------------

    /// Rows of `x` by index.
    fn gather_rows(&mut self, x: Self::Node, indices: Rc<Vec<u32>>) -> Self::Node;
    /// Scatter-adds row `i` of `x` into row `indices[i]` of a zero
    /// `[out_rows, d]` output.
    fn scatter_add_rows(
        &mut self,
        x: Self::Node,
        indices: Rc<Vec<u32>>,
        out_rows: usize,
    ) -> Self::Node;
    /// Multiplies row `i` of `x` by `weights[i]`.
    fn row_scale(&mut self, x: Self::Node, weights: Rc<Vec<f32>>) -> Self::Node;
    /// `out[i, 0] = x[i, cols[i]]`.
    fn gather_cols(&mut self, x: Self::Node, cols: Rc<Vec<u32>>) -> Self::Node;
    /// Horizontal concatenation `[a | b]`.
    fn concat_cols(&mut self, a: Self::Node, b: Self::Node) -> Self::Node;
    /// Columns `start..end` of `x`.
    fn slice_cols(&mut self, x: Self::Node, start: usize, end: usize) -> Self::Node;

    // ---- normalizers and reductions ----------------------------------------

    /// Row-wise softmax.
    fn softmax_rows(&mut self, x: Self::Node) -> Self::Node;
    /// `ln(x + eps)` elementwise.
    fn ln(&mut self, x: Self::Node, eps: f32) -> Self::Node;
    /// Mean over all elements, `[1, 1]`.
    fn mean_all(&mut self, x: Self::Node) -> Self::Node;
    /// Sum over all elements, `[1, 1]`.
    fn sum_all(&mut self, x: Self::Node) -> Self::Node;
    /// Row sums, `[n, d] -> [n, 1]`.
    fn sum_rows(&mut self, x: Self::Node) -> Self::Node;
    /// Sum of several same-shape values.
    fn add_n(&mut self, xs: &[Self::Node]) -> Self::Node;
    /// Row-wise L2 normalization.
    fn normalize_rows(&mut self, x: Self::Node) -> Self::Node;
    /// Row-wise layer normalization without affine parameters.
    fn layer_norm_rows(&mut self, x: Self::Node) -> Self::Node;
}

/// Forwards trait methods to the inherent `Graph` methods of the same name.
macro_rules! forward_to_graph {
    ($($name:ident($($arg:ident: $ty:ty),*);)*) => {
        $(fn $name(&mut self, $($arg: $ty),*) -> NodeId {
            Graph::$name(self, $($arg),*)
        })*
    };
}

impl Ops for Graph {
    type Node = NodeId;

    fn param_value(&mut self, store: &ParamStore, name: &str) -> NodeId {
        self.constant(store.value(name).clone())
    }

    fn zeros(&mut self, rows: usize, cols: usize) -> NodeId {
        self.constant(Tensor::zeros(rows, cols))
    }

    fn shape(&self, x: NodeId) -> (usize, usize) {
        self.value(x).shape()
    }

    fn check(&mut self, op: &'static str, cond: bool, detail: impl FnOnce() -> String) {
        assert!(cond, "{op}: {}", detail());
    }

    fn scoped<R>(&mut self, _: &str, _: Option<&str>, f: impl FnOnce(&mut Self) -> R) -> R {
        f(self)
    }

    fn span(&self, name: &'static str, fields: &[(&str, f64)]) -> Option<SpanGuard> {
        Some(SpanGuard::enter(name, fields))
    }

    fn add_n(&mut self, xs: &[NodeId]) -> NodeId {
        Graph::add_n(self, xs)
    }

    forward_to_graph! {
        param(store: &ParamStore, name: &str);
        add(a: NodeId, b: NodeId);
        sub(a: NodeId, b: NodeId);
        mul(a: NodeId, b: NodeId);
        add_bias(x: NodeId, bias: NodeId);
        mul_bias(x: NodeId, w: NodeId);
        mul_col(x: NodeId, c: NodeId);
        scale(x: NodeId, s: f32);
        add_scalar(x: NodeId, s: f32);
        matmul(a: NodeId, b: NodeId);
        matmul_nt(a: NodeId, b: NodeId);
        conv1d(x: NodeId, w: NodeId, b: NodeId, in_ch: usize, out_ch: usize, ksize: usize);
        sigmoid(x: NodeId);
        tanh(x: NodeId);
        relu(x: NodeId);
        rrelu(x: NodeId);
        dropout(x: NodeId, p: f32);
        gather_rows(x: NodeId, indices: Rc<Vec<u32>>);
        scatter_add_rows(x: NodeId, indices: Rc<Vec<u32>>, out_rows: usize);
        row_scale(x: NodeId, weights: Rc<Vec<f32>>);
        gather_cols(x: NodeId, cols: Rc<Vec<u32>>);
        concat_cols(a: NodeId, b: NodeId);
        slice_cols(x: NodeId, start: usize, end: usize);
        softmax_rows(x: NodeId);
        ln(x: NodeId, eps: f32);
        mean_all(x: NodeId);
        sum_all(x: NodeId);
        sum_rows(x: NodeId);
        normalize_rows(x: NodeId);
        layer_norm_rows(x: NodeId);
    }
}
