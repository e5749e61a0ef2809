//! End-to-end and per-layer benchmark of the HyRec serving stack.
//!
//! One generator thread drives a HyRec server in the same process over
//! loopback keep-alive connections with fixed-depth pipelined bursts,
//! planned from a seed before timing starts. See `README.md` for the
//! workloads, the metrics and how to run it.

pub mod adapter;
pub mod cpu;
pub mod load;
pub mod plan;
pub mod report;
pub mod run;
pub mod speed;
pub mod trace;
