//! The deterministic replays are the behaviour contract of the layers under
//! `crates/{core,energy,serving,cluster}`: each report must hold its
//! invariants and equal `tests/golden/<name>.json` byte for byte. After an
//! intended behaviour change, regenerate and review the diff:
//!
//! ```text
//! cargo run -p sig-bench --bin replay -- cluster > tests/golden/cluster.json
//! ```

use sig_bench::replay;

fn assert_matches_golden(name: &str) {
    let outcome = replay::run(name).expect("a replay of that name");
    assert!(
        outcome.errors.is_empty(),
        "{name} replay violates its invariants: {:#?}",
        outcome.errors
    );
    let path = format!("{}/tests/golden/{name}.json", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    for (line, (got, want)) in outcome.json.lines().zip(golden.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "{name} replay differs from {path} at line {}",
            line + 1
        );
    }
    assert_eq!(
        outcome.json.len(),
        golden.len(),
        "{name} replay and {path} differ in length"
    );
}

#[test]
fn energy_replay_matches_golden() {
    assert_matches_golden("energy");
}

#[test]
fn serving_replay_matches_golden() {
    assert_matches_golden("serving");
}

#[test]
fn cluster_replay_matches_golden() {
    assert_matches_golden("cluster");
}

#[test]
fn budget_replay_matches_golden_and_repeats_bit_for_bit() {
    assert_matches_golden("budget");
    let (a, b) = (replay::budget::run(), replay::budget::run());
    for (a, b) in a.scenarios.iter().zip(&b.scenarios) {
        assert!(
            a.budgeted.reading.joules.to_bits() == b.budgeted.reading.joules.to_bits()
                && a.budgeted.quality.to_bits() == b.budgeted.quality.to_bits()
                && a.budgeted.final_austerity.to_bits() == b.budgeted.final_austerity.to_bits(),
            "{}: budgeted replay is not bit-deterministic",
            a.scenario.package.name
        );
    }
}
