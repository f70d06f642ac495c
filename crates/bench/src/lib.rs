//! # sig-bench — the golden replays
//!
//! The four deterministic [`replay`]s (energy strategies, serving sweep,
//! cluster matrix, closed-loop budget) whose reports, rendered by the one
//! [`json`] writer, are pinned byte for byte under `tests/golden/`. Timing
//! lives elsewhere: `benchmark/` (sigbench) is the one place a wall-clock
//! number is taken.

#![warn(missing_docs)]

pub mod json;
pub mod replay;
