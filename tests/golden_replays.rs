//! The deterministic replays are the behaviour contract of the layers under
//! `crates/{core,energy,serving,cluster}` and of the paper's kernels and
//! policies: each report must hold its invariants and equal
//! `tests/golden/<name>.json` byte for byte. The paper replay runs the
//! kernels on worker threads; its GTB rows must also come out the same at
//! other worker counts. After an intended behaviour change, regenerate and
//! review the diff:
//!
//! ```text
//! cargo run -p sig-bench --bin replay -- cluster > tests/golden/cluster.json
//! ```

use sig_bench::replay;

fn golden(name: &str) -> (String, String) {
    let path = format!("{}/tests/golden/{name}.json", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    (path, golden)
}

fn assert_matches_golden(name: &str) {
    let outcome = replay::run(name).expect("a replay of that name");
    assert!(
        outcome.errors.is_empty(),
        "{name} replay violates its invariants: {:#?}",
        outcome.errors
    );
    let (path, golden) = golden(name);
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

#[test]
fn paper_replay_matches_golden() {
    assert_matches_golden("paper");
}

/// With one spawner GTB decides from the significance annotations and the
/// spawn order alone, so the sweep the golden pins at two workers must come
/// out the same at one and at four.
#[test]
fn paper_gtb_rows_do_not_depend_on_the_worker_count() {
    let (path, golden) = golden("paper");
    let key = "\"kernels\": ";
    let pinned = &golden[golden.find(key).expect("the golden's sweep")..];
    for workers in [1, 4] {
        let sweep = replay::paper::sweep_json(&replay::paper::sweep(workers)).render();
        // The golden nests the sweep two levels deep.
        let rendered = format!("{key}{}", sweep.trim_end().replace('\n', "\n    "));
        for (line, (got, want)) in rendered.lines().zip(pinned.lines()).enumerate() {
            assert_eq!(
                got,
                want,
                "the sweep at {workers} workers differs from {path}'s at its line {}",
                line + 1
            );
        }
    }
}
