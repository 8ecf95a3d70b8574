#![warn(missing_docs)]

//! # retia-nn
//!
//! Neural building blocks of the RETIA reproduction, layered on
//! [`retia_tensor`]'s autodiff graph:
//!
//! * [`Linear`] — affine projection;
//! * [`GruCell`], [`LstmCell`] — the recurrent cells driving RETIA's
//!   residual GRUs (Eq. 3/6) and twin-interact LSTMs (Eq. 8/10);
//! * [`EntityRgcn`] — the entity-aggregating R-GCN of Eq. 4;
//! * [`RelationRgcn`] — the relation-aggregating R-GCN over hyperrelation
//!   subgraphs of Eq. 1;
//! * [`ConvTransE`] — the convolutional decoder of Eq. 11/12;
//! * [`mean_pool_segments`] — the (hyper) mean pooling of Eq. 7/9.
//!
//! Modules register their parameters under a prefix in a shared
//! [`retia_tensor::ParamStore`] at construction and are pure at forward time:
//! `forward(&self, &mut O, &ParamStore, ...)`.
//!
//! Every forward is written once, generic over the [`retia_tensor::Ops`]
//! vocabulary, and run by three interpreters: the autodiff
//! [`retia_tensor::Graph`] for training and serving, `retia_analyze`'s
//! `ShapeCtx` for the shape dry run (`retia check`), and its `AuditCtx` for
//! the interval and gradient-flow audit (`retia audit`). A layer states its
//! preconditions with `Ops::check` (a panic on the graph, a recorded issue
//! in the dry run) and names its scope with `Ops::scoped`, so a mismatch is
//! reported with the layer and paper equation it happened in.

mod decoder;
mod linear;
mod pooling;
mod rgcn;
mod rnn;

pub use decoder::ConvTransE;
pub use linear::Linear;
pub use pooling::mean_pool_segments;
pub use rgcn::{EntityRgcn, RelationRgcn, WeightMode};
pub use rnn::{GruCell, LstmCell};
