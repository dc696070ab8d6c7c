//! End-to-end benchmark of the field type clustering pipeline.
//!
//! Each workload generates a capture from the seed, hands the program
//! only the pcap bytes, and times whole operations through the public
//! API: a cold `standard_report` run, a streaming `follow` batch, or a
//! warm report served from an artifact store. A traced run wraps every
//! public call of an op in a span recorded from outside the program.
//! See `perfbench/README.md` for the workloads and metrics.

pub mod host;
pub mod metrics;
pub mod rss;
pub mod run;
pub mod sha256;
pub mod tracer;
pub mod workload;

pub use metrics::{Metric, END_TO_END, PER_LAYER};
pub use run::{run, Outcome, Settings};
pub use workload::{Kind, Workload, WORKLOADS};
