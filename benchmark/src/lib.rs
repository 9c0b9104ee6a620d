//! End-to-end benchmark of the durable-subscription brokers on the
//! threaded runtime. See `README.md` for metrics, workloads and method.

pub mod analyze;
pub mod cli;
pub mod gen;
pub mod json;
pub mod metrics;
pub mod pool;
pub mod procstat;
pub mod replay;
pub mod run;
pub mod sched;
pub mod stats;
pub mod store;
pub mod trace;
