//! Every `pub fn` and `pub const` of the six library crates names its
//! caller: another non-test file of the workspace (a library, the facade, an
//! example or the benchmark) names it, or `ALLOWED` says which guarantee or
//! user keeps it. A text walk, like sig-core's
//! `sync::tests::only_the_sync_module_names_std_concurrency`:
//! - comments, `pub use` lines, `mod tests` and `#[cfg(test)]` items do not
//!   count, and no `tests/` directory is read;
//! - an indented item (a method or associated const) is named by `.name(`
//!   or `::name`, an item at column 0 by the whole word;
//! - `pub(crate)` items and types are not collected: a type in a public
//!   signature must stay `pub`.

use std::path::{Path, PathBuf};

const SWEPT: [&str; 6] = ["core", "serving", "cluster", "energy", "kernels", "quality"];

/// `(file, items, reason)`: items nothing else names, kept for the guarantee
/// or user the reason names. An entry that gains a caller or goes fails too.
#[rustfmt::skip]
const ALLOWED: &[(&str, &[&str], &str)] = &[
    ("cluster/src/node.rs", &["env_totals", "recorded_busy_nanos"], "cluster conformance kit: a node's env ledger equals what the kernel recorded"),
    ("cluster/src/node.rs", &["freq_cap", "book"], "cluster chaos: the cap splits the fleet, restarted nodes serve again"),
    ("cluster/src/sim.rs", &["with_governors", "nodes"], "cluster conformance kit: every governor inside a node"),
    ("cluster/src/sim.rs", &["fleet_reading", "budget", "cap_controller"], "budget identity: spend equals the summed node ledgers, the cap follows the setpoint"),
    ("core/src/env.rs", &["busy_seconds", "modelled_busy_seconds", "dynamic_joules", "sleep_entries"], "energy_env, governor_conformance: the ledger equals busy time, dynamic energy never tops nominal"),
    ("core/src/faults.rs", &["panics", "stalls", "dilation"], "the chaos matrix: seeded fault injection"),
    ("core/src/runtime/builders.rs", &["fault_plan"], "the chaos matrix: seeded fault injection"),
    ("core/src/runtime/builders.rs", &["energy_model", "sleep_state", "transition_cost"], "README's energy example, governor_conformance"),
    ("core/src/runtime/builders.rs", &["governor_arc"], "governor_conformance"),
    ("core/src/runtime/budget.rs", &["energy_budget_sample"], "governor_conformance"),
    ("core/src/governor.rs", &["stretch", "race_reference", "is_race"], "governor_conformance: a user-written governor; accurate work never races"),
    ("core/src/runtime.rs", &["outstanding_tasks"], "recycle, gtb_allocations: quiescence without a barrier"),
    ("core/src/stats.rs", &["highest_level"], "handles: brownout never sheds a critical task"),
    ("energy/src/budget.rs", &["estimator"], "budget_props: the fitted split recovers the model"),
    ("energy/src/budget.rs", &["last_observation"], "budget identity: the observation anchors the re-read"),
    ("energy/src/idle.rs", &["deep"], "README's energy example, governor_conformance"),
    ("energy/src/idle.rs", &["break_even_seconds"], "ROADMAP 12(c): the adaptive governor's sleep input"),
    ("serving/src/report.rs", &["shed_fraction"], "storm, cluster_props: critical classes are never shed"),
    ("serving/src/server.rs", &["now_nanos", "offer", "cancel_request", "poll"], "the live front end (ROADMAP 5(a))"),
    ("serving/src/sim.rs", &["budget"], "budget identity: the controller's spend lags the bill"),
];

fn sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.is_dir() && !path.ends_with("tests") {
            sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The file's code lines, without comments, `mod tests` and `#[cfg(test)]`
/// items (skipped up to their `;` or closing brace).
fn code(source: &str) -> Vec<&str> {
    let (mut lines, mut out) = (source.lines(), Vec::new());
    while let Some(line) = lines.next() {
        let trimmed = line.trim();
        let skip =
            trimmed.is_empty() || trimmed.starts_with("//") || trimmed.starts_with("pub use ");
        if trimmed.starts_with("mod tests") {
            break;
        } else if trimmed == "#[cfg(test)]" {
            let mut depth = 0;
            for gated in lines.by_ref() {
                if gated.trim_start().starts_with("mod tests") {
                    return out;
                }
                depth += gated.matches('{').count() as i64 - gated.matches('}').count() as i64;
                if depth == 0 && (gated.ends_with(';') || gated.ends_with('}')) {
                    break;
                }
            }
        } else if !skip {
            out.push(line);
        }
    }
    out
}

fn ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Whether `line` names `item` (not declares it): the whole word, and for a
/// method `.item(` or `::item`.
fn names(line: &str, item: &str, method: bool) -> bool {
    line.match_indices(item).any(|(at, _)| {
        let (head, tail) = (&line[..at], &line[at + item.len()..]);
        let (before, after) = (head.chars().next_back(), tail.chars().next());
        let word = !before.is_some_and(ident) && !after.is_some_and(ident);
        let declares = head.ends_with("fn ") || head.ends_with("const ");
        word && !declares
            && (!method || head.ends_with("::") || (before == Some('.') && after == Some('(')))
    })
}

/// `(item, method)` for a `pub fn` / `pub const` declared on `line`.
fn declared(line: &str) -> Option<(&str, bool)> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    let kinds = ["const fn ", "unsafe fn ", "fn ", "const "];
    let rest = kinds.iter().find_map(|k| rest.strip_prefix(k))?;
    let end = rest.find(|c| !ident(c)).unwrap_or(rest.len());
    Some((&rest[..end], line.starts_with(char::is_whitespace)))
}

#[test]
fn every_public_item_names_its_caller() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["crates", "src", "examples", "benchmark/src"] {
        sources(&root.join(dir), &mut files);
    }
    let name = |f: &PathBuf| f.strip_prefix(root).unwrap().display().to_string();
    let read = |f: &PathBuf| std::fs::read_to_string(f).unwrap();
    let texts: Vec<_> = files.iter().map(|f| (name(f), read(f))).collect();
    let code: Vec<(&str, Vec<&str>)> = texts.iter().map(|(n, s)| (n.as_str(), code(s))).collect();
    let (mut errors, mut seen) = (Vec::new(), Vec::new());
    for (file, lines) in &code {
        let short = file.strip_prefix("crates/").unwrap_or(file);
        let swept = |c: &&str| short.starts_with(&format!("{c}/src/"));
        if !SWEPT.iter().any(swept) {
            continue;
        }
        for (item, method) in lines.iter().filter_map(|l| declared(l)) {
            let called = code.iter().any(|(other, lines)| {
                other != file && lines.iter().any(|l| names(l, item, method))
            });
            let allowed = ALLOWED
                .iter()
                .any(|(f, items, _)| *f == short && items.contains(&item));
            seen.push((short, item));
            if called == allowed {
                let fix = match called {
                    true => "has a caller now: take it out of ALLOWED",
                    false => "has no caller: delete it, make it private or allow it",
                };
                errors.push(format!("{file}::{item} {fix}"));
            }
        }
    }
    for (file, items, _) in ALLOWED {
        for item in items.iter().filter(|&&i| !seen.contains(&(*file, i))) {
            errors.push(format!("crates/{file}::{item} is allowed but not declared"));
        }
    }
    assert!(errors.is_empty(), "public surface:\n{}", errors.join("\n"));
}
