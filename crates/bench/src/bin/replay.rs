//! Print one deterministic replay's report, as its golden file spells it:
//!
//! ```text
//! cargo run -p sig-bench --bin replay -- cluster > tests/golden/cluster.json
//! ```

use sig_bench::replay;

fn main() {
    let mut args = std::env::args().skip(1);
    let outcome = match (args.next(), args.next()) {
        (Some(name), None) => replay::run(&name),
        _ => None,
    };
    let Some(outcome) = outcome else {
        eprintln!("usage: replay <{}>", replay::NAMES.join("|"));
        std::process::exit(2);
    };
    print!("{}", outcome.json);
    if !outcome.errors.is_empty() {
        for error in &outcome.errors {
            eprintln!("invariant violated: {error}");
        }
        std::process::exit(1);
    }
}
