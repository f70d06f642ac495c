//! # sig-harness — experiment harness
//!
//! Regenerates the paper's evaluation (Section 4) from the Rust
//! reproduction:
//!
//! | Module | Paper artefact |
//! |---|---|
//! | [`fig1`] | Figure 1 — Sobel under Mild/Medium/Aggressive approximation |
//! | [`fig2`] | Figure 2 — quality per kernel, degree and GTB flavour, beside loop perforation; its Medium slice is Table 2 (significance inversions, ratio deviation) |
//! | [`fig3`] | Figure 3 — Sobel under loop perforation |
//!
//! Table 1 is each kernel's `BenchmarkInfo`. `replay paper` (crate
//! `sig-bench`) renders all of them as `tests/golden/paper.json`, beside the
//! paper's claims; `examples/sobel_pipeline.rs` writes the Figure 1 and
//! Figure 3 images. Figure 4 (policy overhead in time), LQH and every time or
//! energy column are wall-clock or scheduling-dependent and are measured by
//! sigbench (`benchmark/`) instead.

#![warn(missing_docs)]

pub mod fig1;
pub mod fig2;
pub mod fig3;

/// Worker threads of every task-parallel run: more than one, so tasks really
/// run concurrently. GTB decides the same at any count.
pub const WORKERS: usize = 2;
/// Buffer size of the bounded GTB flavour (the paper sets one per benchmark
/// at compile time; one moderate value is used here).
pub const GTB_BUFFER: usize = 32;
