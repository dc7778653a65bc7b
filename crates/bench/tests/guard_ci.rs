//! The CI workflow and the guard table name the same guards: a guard
//! added to one and not the other would never run, or would fail the
//! build with a usage error.

use plab_bench::guard::GUARDS;

#[test]
fn ci_runs_exactly_the_guards_in_the_table() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../.github/workflows/ci.yml");
    let ci = std::fs::read_to_string(path).expect("read ci.yml");
    // Matrix rows (`- guard: <name>`) plus invocations that name a guard
    // outright (`--bin repro_guard -- <name>`); the matrix step's own
    // `${{ matrix.guard }}` is a reference to the rows, not a name.
    let mut in_ci: Vec<&str> = ci
        .lines()
        .filter_map(|l| {
            let invoked = || l.split_once("--bin repro_guard -- ")?.1.split(' ').next();
            l.trim().strip_prefix("- guard: ").or_else(invoked)
        })
        .filter(|name| !name.starts_with("${{"))
        .collect();
    in_ci.sort_unstable();
    let mut in_table: Vec<&str> = GUARDS.iter().map(|g| g.name).collect();
    in_table.sort_unstable();
    assert_eq!(in_ci, in_table, "ci.yml and plab_bench::guard::GUARDS name different guards");
}
