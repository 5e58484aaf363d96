//! Shared parts of the Mendel benchmark: seeded input generation,
//! estimators, process handling, and readers for the program's output.
//! Everything here uses std only; see `README.md` for the design.

pub mod http;
pub mod json;
pub mod parse;
pub mod procs;
pub mod rng;
pub mod spans;
pub mod stats;
pub mod workload;
