//! Static analysis and fault injection for the RETIA stack.
//!
//! The two abstract interpreters implement `retia_tensor::Ops`, the op
//! vocabulary every NN layer and the RETIA step are written against, so the
//! checks run the model's own generic code — there is no replay to keep in
//! step with `forward`:
//!
//! - [`shape`] — [`ShapeCtx`] runs the step over [`ShapeTensor`]s (shapes
//!   only, no allocation), so a full EAM→RAM→TIM→decode→loss→backward pass
//!   can be dry-run at startup and every dimension/index-space mismatch
//!   reported with the module and paper-equation name attached. `retia
//!   check` and the pre-`train`/`eval` guard in the CLI surface it.
//! - [`value`] + [`gradflow`] — [`AuditCtx`] runs the same step over an
//!   interval + finiteness domain driven by the per-op transfer functions in
//!   `retia_tensor::transfer`, with gradient-flow reachability from the loss
//!   (declared-frozen parameters and detach boundaries included) and
//!   reduction-order sensitivity declarations. The `retia audit`
//!   subcommand, the trainer pre-flight, and the serve boot check surface
//!   it.
//! - [`lint`] — the repo-specific source lint behind the `retia-lint` binary
//!   (`cargo run -p retia-analyze --bin retia-lint`), with an exact-count
//!   allowlist ratchet in `scripts/lint-allowlist.txt` and a drift check of
//!   the reduction-order map in `scripts/reduction-order.txt`.
//! - [`chaos`] — deterministic fault injection ([`ChaosPlan`]): NaN/inf
//!   gradient storms at scheduled steps, checkpoint bit-flips and
//!   truncation, crash-mid-write writers, and dataset-row corruption. The
//!   trainer consumes plans (via `RETIA_CHAOS` or the test API); the
//!   fault-tolerance integration suite uses the byte-level helpers.
//!
//! The parallel-plan race prover lives next to the kernels it checks, in
//! `retia_tensor::parallel`, because the plan type is private to that crate;
//! likewise the transfer functions and reduction-order map live in
//! `retia_tensor::transfer`, next to the op enum they describe.

pub mod chaos;
pub mod gradflow;
pub mod lint;
pub mod shape;
pub mod value;

pub use chaos::{ChaosPlan, GradFault};
pub use shape::{ShapeCtx, ShapeIssue, ShapeReport, ShapeTensor};
pub use value::{AuditCtx, AuditIssue, AuditKind, AuditReport, FrozenParam};
