//! The four deterministic replays whose rendered reports are the golden
//! files under `tests/golden/`.
//!
//! Each is a pure function of constants in its module — no wall clock, no
//! threads, no arguments — so its report is byte-identical on every host and
//! in every build profile. `tests/golden_replays.rs` asserts that equality in
//! tier-1; the `replay` binary prints a report to regenerate its golden after
//! an intended behaviour change.

pub mod budget;
pub mod cluster;
pub mod energy;
pub mod serving;
pub mod workload;

use crate::json::Json;

/// The replays, by the name of their golden file.
pub const NAMES: [&str; 4] = ["energy", "serving", "cluster", "budget"];

/// One replay's rendered report and the invariants it broke (none, when the
/// system behaves).
pub struct Outcome {
    /// The report, as its golden file spells it.
    pub json: String,
    /// One line per violated invariant.
    pub errors: Vec<String>,
}

fn outcome<R>(report: R, to_json: fn(&R) -> Json, errors: fn(&R) -> Vec<String>) -> Outcome {
    Outcome {
        json: to_json(&report).render(),
        errors: errors(&report),
    }
}

/// Run the replay called `name`; `None` if there is no such replay.
pub fn run(name: &str) -> Option<Outcome> {
    Some(match name {
        "energy" => outcome(energy::run(), energy::to_json, energy::invariant_errors),
        "serving" => outcome(serving::run(), serving::to_json, serving::invariant_errors),
        "cluster" => outcome(cluster::run(), cluster::to_json, cluster::invariant_errors),
        "budget" => outcome(budget::run(), budget::to_json, budget::invariant_errors),
        _ => return None,
    })
}
