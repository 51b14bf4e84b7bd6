//! End-to-end RCA benchmark for the ExplainIt! reproduction.
//!
//! One run sets up a seeded workload, then repeatedly ingests it into a
//! store, persists and reopens the store, and runs the workload's RCA
//! script through the public `Session` API, checking every result. A
//! traced run also calls the same pipeline's public functions one at a
//! time and reports where the script's time went, layer by layer. See
//! `README.md` beside this crate for the workloads and metrics.

pub mod check;
pub mod report;
pub mod run;
pub mod trace;
pub mod workload;
