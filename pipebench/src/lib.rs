//! `pipebench`: the BoolE pipeline benchmark, end to end and layer by
//! layer. See `README.md` in this directory for the workloads, the
//! metrics and how to run it.

pub mod batch;
pub mod certify;
pub mod circuit;
pub mod metrics;
pub mod pipeline;
pub mod report;
pub mod trace;
pub mod workload;
