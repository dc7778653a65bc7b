//! The committed `results/` files are what the code prints now. Each
//! command below runs concurrently, in an empty directory of its own, and
//! its stdout must equal `results/repro_<name>.txt` byte for byte; a
//! command's stdout carries no host-clock reading (those go to stderr), so
//! it is a function of the code alone. `rendezvous` (seconds in a debug
//! build) and `fleet` (a minute in release) have committed files too and
//! are regenerated by hand.

use std::process::{Command, Stdio};

const PINNED: [&str; 8] = [
    "table1",
    "fig1",
    "fig2",
    "bandwidth",
    "traceroute",
    "rtt_limitation",
    "contention",
    "chaos",
];

#[test]
fn every_committed_result_is_what_its_command_prints() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let runs: Vec<_> = PINNED
        .iter()
        .map(|name| {
            let dir = std::env::temp_dir()
                .join(format!("plab-results-golden-{}-{name}", std::process::id()));
            std::fs::create_dir_all(&dir).expect("make a scratch directory");
            let child = Command::new(env!("CARGO_BIN_EXE_repro"))
                .arg(name)
                .current_dir(&dir)
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("run repro");
            (name, dir, child)
        })
        .collect();
    let mut wrong = Vec::new();
    for (name, dir, child) in runs {
        let out = child.wait_with_output().expect("repro ran");
        std::fs::remove_dir_all(&dir).expect("remove the scratch directory");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            out.status.success(),
            "repro {name}: {}\n{stderr}",
            out.status
        );
        let path = format!("{root}/results/repro_{name}.txt");
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
        let got = String::from_utf8(out.stdout).expect("utf-8");
        if got == want {
            continue;
        }
        let (got, want): (Vec<_>, Vec<_>) = (got.lines().collect(), want.lines().collect());
        // Past both ends (`None` against `None`) only the final newline differs.
        let at = (0..got.len().max(want.len()))
            .find(|&i| got.get(i) != want.get(i))
            .unwrap_or(got.len());
        wrong.push(format!(
            "`repro {name}` no longer prints results/repro_{name}.txt: line {} is now\n  \
             {:?}, committed\n  {:?}\nregenerate it from the repository root with \
             `cargo run --release -p plab-bench -- {name} > results/repro_{name}.txt`",
            at + 1,
            got.get(at),
            want.get(at)
        ));
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
