//! # madclock — the repository's benchmark
//!
//! Six workloads, both clocks, and a per-layer cost table along the
//! paper's Figure 1 (collect → optimize → transfer). Virtual time says
//! what the modelled engine achieves; host time says what a user of this
//! library pays to run it. See `README.md` for the metric glossary.
//!
//! The benchmark drives the system through its public API only, and
//! every repository symbol it uses passes through [`surface`].

#![forbid(unsafe_code)]

pub mod app;
pub mod bench;
pub mod catalog;
pub mod cli;
pub mod compare;
pub mod gen;
pub mod host;
pub mod kernels;
pub mod layers;
pub mod run;
pub mod spans;
pub mod stats;
pub mod surface;
pub mod workload;
