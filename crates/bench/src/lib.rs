//! # hero-bench
//!
//! Benchmarks and the `hero` command-line front end for the HERO (DAC
//! 2022) reproduction. `hero repro <target>` regenerates every table and
//! figure of the paper's evaluation section (see DESIGN.md §3 for the
//! index); the plain-`fn main()` harnesses under `benches/` measure
//! component costs (the per-step overhead of each training method,
//! quantization throughput, curvature-probe cost) with the in-tree
//! [`timing`] module — no external bench framework, so everything builds
//! offline.
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
//! cargo bench -p hero-bench --bench step_cost [-- --quick]
//! ```

#![warn(missing_docs)]

pub mod timing;
