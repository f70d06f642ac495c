//! # sig-harness — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (Section 4)
//! from the Rust reproduction:
//!
//! | Module | Paper artefact |
//! |---|---|
//! | [`table1`] | Table 1 — benchmark configuration |
//! | [`fig1`] | Figure 1 — Sobel under None/Mild/Medium/Aggressive approximation |
//! | [`fig2`] | Figure 2 — execution time, energy and quality per benchmark, degree and policy |
//! | [`fig3`] | Figure 3 — Sobel under loop perforation |
//! | [`fig4`] | Figure 4 — runtime overhead of the policies at 100% accuracy |
//! | [`table2`] | Table 2 — policy accuracy (significance inversions, ratio deviation) |
//!
//! The `sig-experiments` binary exposes all of them on the command line.
//!
//! Energy is modelled (not measured): see the `sig-energy` crate docs for the
//! substitution rationale.

#![warn(missing_docs)]

pub mod experiment;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod report;
pub mod table1;
pub mod table2;

pub use experiment::{ExperimentDefaults, ExperimentPoint, PolicyChoice};
