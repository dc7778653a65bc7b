//! Every documented command runs as written. The CI workflow and the
//! guard table name the same guards (a guard added to one and not the
//! other would never run, or would fail the build with a usage error);
//! every `repro` command line in the workflow and the committed documents
//! parses with the real parser against the real table; and no document
//! still spells a command as one of the sixteen binaries `repro` replaced
//! or sets an environment variable that became a flag or a constant.

use plab_bench::guard::{parse, COMMANDS, GUARDS};

const CI: &str = ".github/workflows/ci.yml";

/// What must stay runnable. CHANGES.md is history and `benchmark/` is
/// frozen (ROADMAP lists its two stale mentions among the benchmark's debts).
const DOCS: [&str; 7] = [
    CI,
    "README.md",
    "RUNNER.md",
    "DESIGN.md",
    "OBSERVABILITY.md",
    "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
];

fn read(doc: &str) -> String {
    let path = format!("{}/../../{doc}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// What is wrong with `repro <command>` as `doc` shows it, if anything.
fn dry_parse(doc: &str, command: &str) -> Option<String> {
    let args: Vec<String> = command.split_whitespace().map(String::from).collect();
    let usage = parse(&args).err()?;
    Some(format!("{doc}: `repro {command}`: {}", usage.lines().next().unwrap_or_default()))
}

#[test]
fn ci_runs_exactly_the_guards_in_the_table() {
    let ci = read(CI);
    // Matrix rows (`- guard: <name>`, then its `flags:`) plus invocations
    // that name a guard outright (`-- guard <name> …`); the matrix step's
    // own `${{ matrix.guard }}` is a reference to the rows, not a name.
    let row = |l: &str| l.trim().strip_prefix("- guard: ").map(str::to_string);
    let invoked = |l: &str| {
        Some(l.split_once("-p plab-bench -- guard ")?.1.split(' ').next()?.to_string())
    };
    let mut in_ci: Vec<String> = ci
        .lines()
        .filter_map(|l| row(l).or_else(|| invoked(l)))
        .filter(|name| !name.starts_with("${{"))
        .collect();
    in_ci.sort_unstable();
    let mut in_table: Vec<&str> = GUARDS.iter().map(|g| g.name).collect();
    in_table.sort_unstable();
    assert_eq!(in_ci, in_table, "ci.yml and plab_bench::guard::GUARDS name different guards");

    for (at, line) in ci.lines().enumerate() {
        let Some(guard) = row(line) else { continue };
        let flags = ci.lines().skip(at).find_map(|l| l.trim().strip_prefix("flags: "));
        let flags = flags.expect("every matrix row has flags").trim_matches('"');
        assert_eq!(dry_parse(CI, &format!("guard {guard} {flags} --json")), None);
    }
}

/// The `repro` command lines `text` shows, without the program: what
/// follows `cargo run … -p plab-bench -- `, a path to the built binary or
/// a prompt, up to the end of the shell command; and what a code span
/// that opens with `repro` holds.
fn commands(text: &str) -> Vec<String> {
    let text = text.replace("\\\n", " ");
    let shell = ['\n', '#', '|', ';', '`'];
    let mut found = Vec::new();
    for (opener, closers) in [
        ("-p plab-bench -- ", &shell[..]),
        ("/repro ", &shell[..]),
        ("$ repro ", &shell[..]),
        ("`repro ", &['`', '|'][..]),
    ] {
        for (at, _) in text.match_indices(opener) {
            let rest = &text[at + opener.len()..];
            found.push(rest[..rest.find(closers).unwrap_or(rest.len())].to_string());
        }
    }
    found
}

#[test]
fn every_documented_command_parses_and_no_replaced_spelling_remains() {
    let (mut seen, mut wrong) = (0, Vec::new());
    for doc in DOCS {
        let text = read(doc);
        for command in commands(&text) {
            // `repro <name> [flags]` describes commands; the matrix step
            // is expanded row by row above.
            if command.split_whitespace().any(|w| w.starts_with(['<', '[', '…']) || w == "${{") {
                continue;
            }
            // A shell variable stands where CI computes a seed.
            let word = |w| if str::starts_with(w, '$') { "1" } else { w };
            let words: Vec<&str> = command.split_whitespace().map(word).collect();
            wrong.extend(dry_parse(doc, &words.join(" ")));
            seen += 1;
        }

        // `results/repro_<name>.txt` is where a command's output is
        // committed, not a way to run it.
        let mut rest = text.as_str();
        while let Some((before, after)) = rest.split_once("repro_") {
            let word = |c: char| c.is_ascii_alphanumeric() || c == '_';
            let name = &after[..after.find(|c| !word(c)).unwrap_or(after.len())];
            let is_result = before.ends_with("results/")
                && after[name.len()..].starts_with(".txt")
                && COMMANDS.iter().any(|c| c.name == name);
            if !is_result {
                wrong.push(format!("{doc}: `repro_{name}` names a binary `repro` replaced"));
            }
            rest = after;
        }
        for knob in [
            "REPRO_THROUGHPUT_SECS",
            "FLEET_SWEEP",
            "FLEET_THREADS",
            "CTRL_SWEEP",
            "CTRL_OPS",
            "NETSIM_SCALE_ROUNDS",
            "NETSIM_SHARD_SIZES",
        ] {
            if text.contains(knob) {
                wrong.push(format!("{doc}: `{knob}` is no longer read"));
            }
        }
    }
    assert!(wrong.is_empty(), "does not run as written:\n{}", wrong.join("\n"));
    assert!(seen > 100, "the scan found only {seen} commands: it has stopped seeing them");
}

#[test]
fn a_bad_command_line_exits_2_with_usage_on_stderr() {
    let repro = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output();
        let out = out.expect("run repro");
        (out.status.code(), out.stdout, String::from_utf8(out.stderr).expect("utf-8"))
    };
    let (code, stdout, stderr) = repro(&[]);
    assert_eq!((code, stdout.is_empty()), (Some(2), true), "{stderr}");
    for command in &COMMANDS {
        assert!(stderr.contains(&format!("repro {}", command.name)), "{stderr}");
    }
    for args in [&["chaos", "--seed"][..], &["fuzz", "--iters"], &["fuzz", "--target", "nope"]] {
        let (code, stdout, stderr) = repro(args);
        assert_eq!((code, stdout.is_empty()), (Some(2), true), "{args:?}: {stderr}");
        assert!(stderr.contains(&format!("usage: repro {}", args[0])), "{args:?}: {stderr}");
    }
}
