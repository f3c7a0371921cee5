//! # hero-bench
//!
//! Benchmarks and the `hero` command-line front end for the HERO (DAC
//! 2022) reproduction, whose strict flag layer is [`cli`]. `hero repro
//! <target>` regenerates every table and figure of the paper's evaluation
//! section (see DESIGN.md §3 for the index). The two plain-`fn main()` harnesses under `benches/` time what
//! the repository benchmark (`benchmark/`) does not: `overhead`, the cost
//! of the disabled instrumentation, and `gemm_shapes`, the GEMM and direct
//! conv kernels on every real layer shape. Both use the in-tree [`timing`]
//! module — no external bench framework, so everything builds offline.
//!
//! Run a reproduction with:
//!
//! ```text
//! cargo run --release -p hero-bench --bin hero -- repro table1 [--fast]
//! ```
//!
//! and a bench with:
//!
//! ```text
//! cargo bench -p hero-bench --bench gemm_shapes [-- --quick]
//! ```

#![warn(missing_docs)]

pub mod cli;
pub mod timing;
