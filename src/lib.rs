//! # semi-oblivious-routing
//!
//! Umbrella crate for the reproduction of *"Sparse Semi-Oblivious Routing:
//! Few Random Paths Suffice"*: re-exports the workspace crates under one
//! roof so the examples and integration tests read naturally.
//!
//! * [`graph`] — multigraphs, flows, generators ([`sor_graph`]),
//! * [`flow`] — demands and multicommodity-flow solvers ([`sor_flow`]),
//! * [`oblivious`] — oblivious routing schemes ([`sor_oblivious`]),
//! * [`hop`] — hop-constrained oblivious routing ([`sor_hop`]),
//! * [`obs`] — spans, metrics, and leveled logging ([`sor_obs`]),
//! * [`core`] — the paper's contribution: sparse semi-oblivious routing
//!   ([`sor_core`]),
//! * [`compact`] — o(n)-state compact routing tables and their verified
//!   lossless codec ([`sor_compact`]),
//! * [`sched`] — packet scheduling / completion time ([`sor_sched`]),
//! * [`te`] — SMORE-style traffic engineering harness ([`sor_te`]),
//! * [`serve`] — the online epoch-serving engine ([`sor_serve`]),
//! * [`cli`] — graph/demand spec parsing for the `sor` binary.

pub mod cli;

pub use sor_compact as compact;
pub use sor_core as core;
pub use sor_flow as flow;
pub use sor_graph as graph;
pub use sor_hop as hop;
pub use sor_oblivious as oblivious;
pub use sor_obs as obs;
pub use sor_sched as sched;
pub use sor_serve as serve;
pub use sor_te as te;
