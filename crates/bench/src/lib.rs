#![warn(missing_docs)]
//! Compile-phase benchmarks (see `benches/phases.rs`). End-to-end
//! pipeline timing lives in the `pipebench` benchmark at the repository
//! root.
