//! End-to-end benchmark of `hxq`: seeded inputs, a closed loop over the
//! release binary with every answer checked, and a traced in-process
//! replay that splits a request into layers. The `perfbench` binary runs
//! it; see README.md for the workloads and what each metric means.

#![forbid(unsafe_code)]

pub mod client;
pub mod inputs;
pub mod replay;
pub mod stats;
pub mod trace;
