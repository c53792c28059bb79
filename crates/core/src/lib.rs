//! # clio-core — the assembled Clio system
//!
//! Everything above the individual components: this crate builds whole
//! deployments (compute nodes + CBoards + ToR switch + global controller)
//! and runs client programs on them as **async tasks** ([`exec`]): a
//! deterministic cooperative executor where the paper's Figure 1 API
//! (`ralloc`/`rread`/`rwrite`/`rlock`/...) returns futures
//! (`h.rread(va, len).await`), completions wake tasks through per-op
//! wakers, and submission is backpressure-aware. Every client — examples,
//! figure benches, tests — is a [`Cluster::spawn`] task; the
//! [`exec::openloop`] generator drives open-loop offered load.
//!
//! The [`Controller`] implements the paper's two-level distributed virtual
//! memory management (§4.7): it places allocations across MNs (each MN owns
//! a disjoint slice of the 48-bit RAS), tracks where every allocated range
//! lives, relocates regions away from memory-pressured nodes, and answers
//! CN routing queries after migrations.

pub mod cluster;
pub mod controller;
pub mod exec;
pub mod metrics;
pub mod node;

pub use cluster::{Cluster, ClusterConfig};
pub use controller::Controller;
pub use exec::{ExecDriver, OpFuture, ProcHandle};
pub use node::{AppCompletion, AppResult, AppToken, ComputeNode, RuntimeGauges};
