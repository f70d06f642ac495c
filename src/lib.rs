//! Workspace-level façade crate.
//!
//! This crate exists so that the repository root can host `examples/` and
//! `tests/` that span every crate in the workspace. It re-exports the public
//! crates so examples can simply `use significance_repro::prelude::*`.

pub use sig_core as core;
pub use sig_energy as energy;
pub use sig_harness as harness;
pub use sig_kernels as kernels;
pub use sig_perforation as perforation;
pub use sig_quality as quality;

/// Convenience re-exports for examples and integration tests.
pub mod prelude {
    pub use sig_core::prelude::*;
    pub use sig_energy::PowerModel;
    pub use sig_quality::{psnr, relative_error};
}

/// The README's Rust blocks, compiled and run as doctests so they cannot
/// drift from the API.
#[doc = include_str!("../README.md")]
#[cfg(doctest)]
pub struct ReadmeDoctests;
