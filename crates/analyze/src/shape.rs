//! Abstract shape interpreter.
//!
//! A [`ShapeTensor`] is a tensor with its data erased: two dimensions and
//! nothing else. [`ShapeCtx`] implements the [`Ops`] vocabulary the layers
//! are written against over shapes only — no allocation, no floating point
//! — checking every dimension and index-space precondition the real kernels
//! would assert at runtime. Running a layer's own generic `forward` on a
//! `ShapeCtx` is its shape dry run.
//!
//! Mismatches do not abort the run. Each failed check records a
//! [`ShapeIssue`] tagged with the enclosing module/equation scope (see
//! [`Ops::scoped`]) and the op returns the shape it *would* have produced,
//! so one pass over a model collects every inconsistency rather than the
//! first. Callers drain the result with [`ShapeCtx::finish`].

use std::fmt;
use std::rc::Rc;

use retia_tensor::{Ops, ParamStore};

/// A tensor reduced to its shape: `rows x cols`. Copy, 16 bytes, no data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShapeTensor {
    pub rows: usize,
    pub cols: usize,
}

impl ShapeTensor {
    /// Shape-only stand-in for a `rows x cols` tensor.
    pub fn new(rows: usize, cols: usize) -> Self {
        ShapeTensor { rows, cols }
    }

    /// `(rows, cols)`, mirroring `Tensor::shape`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }
}

impl fmt::Display for ShapeTensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.rows, self.cols)
    }
}

/// One failed shape/index-space check, tagged with where in the model it
/// happened (module scope path, e.g. `eam.rgcn [Eq. 4] / layer 0`).
#[derive(Clone, Debug)]
pub struct ShapeIssue {
    /// Module/equation scope path active when the check failed.
    pub path: String,
    /// The op whose precondition failed (`matmul`, `gather_rows`, ...).
    pub op: &'static str,
    /// Human-readable description with the concrete offending dimensions.
    pub detail: String,
}

impl fmt::Display for ShapeIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.path.is_empty() {
            write!(f, "{}: {}", self.op, self.detail)
        } else {
            write!(f, "[{}] {}: {}", self.path, self.op, self.detail)
        }
    }
}

/// Outcome of a completed shape replay: every issue found plus the number of
/// op checks performed (so "0 issues" can be distinguished from "0 checks").
#[derive(Clone, Debug, Default)]
pub struct ShapeReport {
    pub issues: Vec<ShapeIssue>,
    pub ops_checked: usize,
}

impl ShapeReport {
    /// True when the replay found no inconsistencies.
    pub fn is_clean(&self) -> bool {
        self.issues.is_empty()
    }
}

impl fmt::Display for ShapeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} shape issue(s) in {} checked op(s):", self.issues.len(), self.ops_checked)?;
        for issue in &self.issues {
            writeln!(f, "  - {issue}")?;
        }
        Ok(())
    }
}

impl std::error::Error for ShapeReport {}

/// The abstract interpreter: runs the [`Ops`] vocabulary over
/// [`ShapeTensor`]s, collecting [`ShapeIssue`]s instead of panicking.
#[derive(Debug, Default)]
pub struct ShapeCtx {
    scope: Vec<String>,
    issues: Vec<ShapeIssue>,
    ops_checked: usize,
}

impl ShapeCtx {
    pub fn new() -> Self {
        Self::default()
    }

    /// Issues recorded so far (drained by [`ShapeCtx::finish`]).
    pub fn issues(&self) -> &[ShapeIssue] {
        &self.issues
    }

    /// Consumes the context into a [`ShapeReport`].
    pub fn finish(self) -> ShapeReport {
        ShapeReport { issues: self.issues, ops_checked: self.ops_checked }
    }

    fn record(&mut self, op: &'static str, detail: String) {
        self.issues.push(ShapeIssue { path: self.scope.join(" / "), op, detail });
    }

    fn op(
        &mut self,
        op: &'static str,
        cond: bool,
        detail: impl FnOnce() -> String,
        out: ShapeTensor,
    ) -> ShapeTensor {
        self.check(op, cond, detail);
        out
    }

    fn same_shape(&mut self, op: &'static str, a: ShapeTensor, b: ShapeTensor) -> ShapeTensor {
        self.op(op, a == b, || format!("operand shapes differ: {a} vs {b}"), a)
    }

    /// A shape-preserving op with no precondition.
    fn unary(&mut self, op: &'static str, x: ShapeTensor) -> ShapeTensor {
        self.op(op, true, String::new, x)
    }

    /// Fused softmax + cross-entropy: one target class per logit row ->
    /// scalar loss `[1, 1]`.
    pub fn softmax_xent(&mut self, logits: ShapeTensor, num_targets: usize) -> ShapeTensor {
        self.op(
            "softmax_xent",
            num_targets == logits.rows,
            || format!("{num_targets} targets for {} logit rows", logits.rows),
            ShapeTensor::new(1, 1),
        )
    }

    /// Backprop entry point: the loss must be a scalar.
    pub fn backward(&mut self, loss: ShapeTensor) {
        self.check("backward", loss.shape() == (1, 1), || {
            format!("loss is {loss}, expected the scalar [1, 1]")
        });
    }
}

/// First index in `indices` that does not address one of `bound` rows or
/// columns.
fn out_of_range(indices: &[u32], bound: usize) -> Option<u32> {
    indices.iter().copied().find(|&i| (i as usize) >= bound)
}

/// Ops that keep their input's shape. Binary ones require equal operand
/// shapes; the scalar arguments of unary ones do not affect the shape.
macro_rules! shape_preserving {
    ($($bin:ident(a, b);)* $(| $un:ident($($extra:ty),*);)*) => {
        $(fn $bin(&mut self, a: ShapeTensor, b: ShapeTensor) -> ShapeTensor {
            self.same_shape(stringify!($bin), a, b)
        })*
        $(fn $un(&mut self, x: ShapeTensor $(, _: $extra)*) -> ShapeTensor {
            self.unary(stringify!($un), x)
        })*
    };
}

impl Ops for ShapeCtx {
    type Node = ShapeTensor;

    /// The parameter's shape as registered in `store`; an unknown name is
    /// an issue (the real graph would panic on it).
    fn param(&mut self, store: &ParamStore, name: &str) -> ShapeTensor {
        let known = store.contains(name);
        self.check("param", known, || format!("unknown parameter `{name}`"));
        let (rows, cols) = if known { store.value(name).shape() } else { (0, 0) };
        ShapeTensor::new(rows, cols)
    }

    fn param_value(&mut self, store: &ParamStore, name: &str) -> ShapeTensor {
        self.param(store, name)
    }

    fn zeros(&mut self, rows: usize, cols: usize) -> ShapeTensor {
        ShapeTensor::new(rows, cols)
    }

    fn shape(&self, x: ShapeTensor) -> (usize, usize) {
        x.shape()
    }

    fn check(&mut self, op: &'static str, cond: bool, detail: impl FnOnce() -> String) {
        self.ops_checked += 1;
        if !cond {
            self.record(op, detail());
        }
    }

    fn scoped<R>(
        &mut self,
        module: &str,
        equation: Option<&str>,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        self.scope.push(scope_frame(module, equation));
        let out = f(self);
        self.scope.pop();
        out
    }

    /// `bias` must be `[1, x.cols]`.
    fn add_bias(&mut self, x: ShapeTensor, bias: ShapeTensor) -> ShapeTensor {
        self.op(
            "add_bias",
            bias.rows == 1 && bias.cols == x.cols,
            || format!("bias {bias} does not broadcast over {x}"),
            x,
        )
    }

    /// `w` must be `[1, x.cols]`.
    fn mul_bias(&mut self, x: ShapeTensor, w: ShapeTensor) -> ShapeTensor {
        self.op(
            "mul_bias",
            w.rows == 1 && w.cols == x.cols,
            || format!("weight {w} does not broadcast over {x}"),
            x,
        )
    }

    /// `c` must be `[x.rows, 1]`.
    fn mul_col(&mut self, x: ShapeTensor, c: ShapeTensor) -> ShapeTensor {
        self.op(
            "mul_col",
            c.cols == 1 && c.rows == x.rows,
            || format!("column {c} does not broadcast over {x}"),
            x,
        )
    }

    /// Inner dimensions must agree.
    fn matmul(&mut self, a: ShapeTensor, b: ShapeTensor) -> ShapeTensor {
        self.op(
            "matmul",
            a.cols == b.rows,
            || format!("inner dims differ: {a} x {b}"),
            ShapeTensor::new(a.rows, b.cols),
        )
    }

    /// Column counts must agree.
    fn matmul_nt(&mut self, a: ShapeTensor, b: ShapeTensor) -> ShapeTensor {
        self.op(
            "matmul_nt",
            a.cols == b.cols,
            || format!("column counts differ: {a} x {b}^T"),
            ShapeTensor::new(a.rows, b.rows),
        )
    }

    /// Input width a multiple of `in_ch`, kernel `[out_ch, in_ch * ksize]`,
    /// bias `[1, out_ch]` -> `[batch, out_ch * width]`.
    fn conv1d(
        &mut self,
        x: ShapeTensor,
        w: ShapeTensor,
        b: ShapeTensor,
        in_ch: usize,
        out_ch: usize,
        ksize: usize,
    ) -> ShapeTensor {
        let width_ok = in_ch > 0 && x.cols.is_multiple_of(in_ch);
        let w_ok = w.shape() == (out_ch, in_ch * ksize);
        let b_ok = b.shape() == (1, out_ch);
        let width = x.cols.checked_div(in_ch).unwrap_or(0);
        self.op(
            "conv1d",
            width_ok && w_ok && b_ok,
            || {
                if !width_ok {
                    format!("input width {} is not a multiple of in_ch={in_ch}", x.cols)
                } else if !w_ok {
                    format!(
                        "kernel is {w}, expected [{out_ch}, {}] for in_ch={in_ch}, ksize={ksize}",
                        in_ch * ksize
                    )
                } else {
                    format!("bias is {b}, expected [1, {out_ch}]")
                }
            },
            ShapeTensor::new(x.rows, out_ch * width),
        )
    }

    /// Every index must address a row of `x`.
    fn gather_rows(&mut self, x: ShapeTensor, indices: Rc<Vec<u32>>) -> ShapeTensor {
        let bad = out_of_range(&indices, x.rows);
        self.op(
            "gather_rows",
            bad.is_none(),
            || format!("index {} out of range for {} rows", bad.unwrap_or(0), x.rows),
            ShapeTensor::new(indices.len(), x.cols),
        )
    }

    /// One destination index per row of `x`, each addressing an output row.
    fn scatter_add_rows(
        &mut self,
        x: ShapeTensor,
        indices: Rc<Vec<u32>>,
        out_rows: usize,
    ) -> ShapeTensor {
        let bad = out_of_range(&indices, out_rows);
        let count_ok = indices.len() == x.rows;
        self.op(
            "scatter_add_rows",
            count_ok && bad.is_none(),
            || {
                if !count_ok {
                    format!("{} destination indices for {} input rows", indices.len(), x.rows)
                } else {
                    format!(
                        "destination index {} out of range for {out_rows} output rows",
                        bad.unwrap_or(0)
                    )
                }
            },
            ShapeTensor::new(out_rows, x.cols),
        )
    }

    /// One weight per row of `x`.
    fn row_scale(&mut self, x: ShapeTensor, weights: Rc<Vec<f32>>) -> ShapeTensor {
        let n = weights.len();
        self.op("row_scale", n == x.rows, || format!("{n} weights for {} rows", x.rows), x)
    }

    /// One column index per row, in range.
    fn gather_cols(&mut self, x: ShapeTensor, cols: Rc<Vec<u32>>) -> ShapeTensor {
        let bad = out_of_range(&cols, x.cols);
        let count_ok = cols.len() == x.rows;
        self.op(
            "gather_cols",
            count_ok && bad.is_none(),
            || {
                if !count_ok {
                    format!("{} column indices for {} rows", cols.len(), x.rows)
                } else {
                    format!("column index {} out of range for {} columns", bad.unwrap_or(0), x.cols)
                }
            },
            ShapeTensor::new(x.rows, 1),
        )
    }

    fn concat_cols(&mut self, a: ShapeTensor, b: ShapeTensor) -> ShapeTensor {
        self.op(
            "concat_cols",
            a.rows == b.rows,
            || format!("row counts differ: {a} vs {b}"),
            ShapeTensor::new(a.rows, a.cols + b.cols),
        )
    }

    fn slice_cols(&mut self, x: ShapeTensor, start: usize, end: usize) -> ShapeTensor {
        self.op(
            "slice_cols",
            start <= end && end <= x.cols,
            || format!("slice {start}..{end} out of range for {} columns", x.cols),
            ShapeTensor::new(x.rows, end.saturating_sub(start)),
        )
    }

    fn mean_all(&mut self, x: ShapeTensor) -> ShapeTensor {
        self.op(
            "mean_all",
            x.rows > 0 && x.cols > 0,
            || format!("mean of empty tensor {x}"),
            ShapeTensor::new(1, 1),
        )
    }

    fn sum_all(&mut self, _: ShapeTensor) -> ShapeTensor {
        self.op("sum_all", true, String::new, ShapeTensor::new(1, 1))
    }

    fn sum_rows(&mut self, x: ShapeTensor) -> ShapeTensor {
        self.op("sum_rows", true, String::new, ShapeTensor::new(x.rows, 1))
    }

    fn add_n(&mut self, xs: &[ShapeTensor]) -> ShapeTensor {
        let first = xs.first().copied().unwrap_or(ShapeTensor::new(0, 0));
        let bad = xs.iter().find(|&&x| x != first);
        self.op(
            "add_n",
            !xs.is_empty() && bad.is_none(),
            || match bad {
                Some(b) => format!("input shapes differ: {first} vs {b}"),
                None => "needs at least one input".to_string(),
            },
            first,
        )
    }

    shape_preserving! {
        add(a, b);
        sub(a, b);
        mul(a, b);
        | scale(f32);
        | add_scalar(f32);
        | sigmoid();
        | tanh();
        | relu();
        | rrelu();
        | dropout(f32);
        | softmax_rows();
        | ln(f32);
        | normalize_rows();
        | layer_norm_rows();
    }
}

/// One scope-path frame: `module`, or `module [equation]`.
pub(crate) fn scope_frame(module: &str, equation: Option<&str>) -> String {
    match equation {
        Some(eq) => format!("{module} [{eq}]"),
        None => module.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn st(r: usize, c: usize) -> ShapeTensor {
        ShapeTensor::new(r, c)
    }

    #[test]
    fn matmul_family_shapes() {
        let mut ctx = ShapeCtx::new();
        assert_eq!(ctx.matmul(st(2, 3), st(3, 5)), st(2, 5));
        assert_eq!(ctx.matmul_nt(st(2, 3), st(5, 3)), st(2, 5));
        assert!(ctx.issues().is_empty());
        assert_eq!(ctx.finish().ops_checked, 2);
    }

    #[test]
    fn mismatches_are_recorded_not_fatal() {
        let mut ctx = ShapeCtx::new();
        // Inner-dim mismatch: issue recorded, poison shape keeps the replay
        // alive so later mismatches are found too.
        let y = ctx.matmul(st(2, 3), st(4, 5));
        assert_eq!(y, st(2, 5));
        let z = ctx.add(y, st(9, 9));
        assert_eq!(z, st(2, 5));
        let report = ctx.finish();
        assert_eq!(report.issues.len(), 2);
        assert!(report.issues[0].detail.contains("[2, 3]"));
    }

    #[test]
    fn scope_path_is_attached_to_issues() {
        let mut ctx = ShapeCtx::new();
        ctx.scoped("eam.rgcn", Some("Eq. 4"), |ctx| {
            ctx.scoped("layer 0", None, |ctx| {
                ctx.matmul(st(2, 3), st(4, 5));
            });
        });
        let report = ctx.finish();
        assert_eq!(report.issues[0].path, "eam.rgcn [Eq. 4] / layer 0");
        let text = report.to_string();
        assert!(text.contains("eam.rgcn"), "{text}");
    }

    #[test]
    fn index_space_checks() {
        let mut ctx = ShapeCtx::new();
        assert_eq!(ctx.gather_rows(st(10, 4), Rc::new(vec![0, 9])), st(2, 4));
        assert!(ctx.issues().is_empty());
        ctx.gather_rows(st(10, 4), Rc::new(vec![10]));
        ctx.scatter_add_rows(st(2, 4), Rc::new(vec![0, 7]), 7);
        ctx.gather_cols(st(3, 5), Rc::new(vec![0, 5, 1]));
        assert_eq!(ctx.issues().len(), 3);
        assert!(ctx.issues()[0].detail.contains("index 10"));
        assert!(ctx.issues()[1].detail.contains("index 7"));
    }

    #[test]
    fn conv1d_rules() {
        let mut ctx = ShapeCtx::new();
        // Conv-TransE shape: 2 channels over width 8, 16 output channels.
        let y = ctx.conv1d(st(5, 16), st(16, 6), st(1, 16), 2, 16, 3);
        assert_eq!(y, st(5, 128));
        assert!(ctx.issues().is_empty());
        ctx.conv1d(st(5, 15), st(16, 6), st(1, 16), 2, 16, 3);
        ctx.conv1d(st(5, 16), st(16, 7), st(1, 16), 2, 16, 3);
        ctx.conv1d(st(5, 16), st(16, 6), st(1, 15), 2, 16, 3);
        assert_eq!(ctx.issues().len(), 3);
    }

    #[test]
    fn broadcast_and_reduction_rules() {
        let mut ctx = ShapeCtx::new();
        assert_eq!(ctx.add_bias(st(4, 3), st(1, 3)), st(4, 3));
        assert_eq!(ctx.mul_col(st(4, 3), st(4, 1)), st(4, 3));
        assert_eq!(ctx.concat_cols(st(4, 3), st(4, 2)), st(4, 5));
        assert_eq!(ctx.slice_cols(st(4, 5), 1, 3), st(4, 2));
        assert_eq!(ctx.sum_rows(st(4, 5)), st(4, 1));
        assert_eq!(ctx.mean_all(st(4, 5)), st(1, 1));
        assert_eq!(ctx.softmax_xent(st(4, 9), 4), st(1, 1));
        assert_eq!(ctx.add_n(&[st(2, 2), st(2, 2)]), st(2, 2));
        assert!(ctx.issues().is_empty());
        ctx.add_bias(st(4, 3), st(1, 4));
        ctx.backward(st(2, 2));
        assert_eq!(ctx.issues().len(), 2);
    }
}
