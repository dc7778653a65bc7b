//! Two things about the tree that no compiler checks. Manifests name what
//! sources use: every `[dependencies]` and `[dev-dependencies]` entry of
//! every workspace package appears as `name::` (hyphens as underscores)
//! somewhere in that package's sources — a dependency nothing names still
//! costs a build edge, a lock-file line and a reader's attention. And no
//! source file of `packetlab` is longer than one sitting reads (ROADMAP
//! item 1: `endpoint.rs` reached 2,364 lines before it was split).

use std::fs;
use std::path::{Path, PathBuf};

/// Every `.rs` file under `dir`, with its text.
fn sources(dir: &Path, out: &mut Vec<(PathBuf, String)>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("read dir entry").path();
        if path.is_dir() {
            sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = fs::read_to_string(&path).expect("read source");
            out.push((path, text));
        }
    }
}

/// Names declared under `[dependencies]` and `[dev-dependencies]`.
fn declared(manifest: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut in_deps = false;
    for line in manifest.lines() {
        if line.starts_with('[') {
            in_deps = matches!(line.trim(), "[dependencies]" | "[dev-dependencies]");
        } else if in_deps && !line.trim_start().starts_with('#') {
            if let Some((key, _)) = line.split_once('=') {
                names.push(key.trim().trim_end_matches(".workspace").to_string());
            }
        }
    }
    names
}

#[test]
fn every_declared_dependency_is_named_by_its_package() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut packages: Vec<PathBuf> = vec![root.clone()];
    for group in ["crates", "crates/shims"] {
        for entry in fs::read_dir(root.join(group)).expect("read crates dir") {
            let dir = entry.expect("read dir entry").path();
            if dir.join("Cargo.toml").is_file() {
                packages.push(dir);
            }
        }
    }
    let mut unused = Vec::new();
    for dir in &packages {
        let manifest = fs::read_to_string(dir.join("Cargo.toml")).expect("read manifest");
        // A package's own targets only: the root package's directory also
        // holds `crates/`, `benchmark/` and `target/`.
        let mut files = Vec::new();
        for targets in ["src", "tests", "examples", "benches"] {
            sources(&dir.join(targets), &mut files);
        }
        let text: String = files.into_iter().map(|(_, text)| text).collect();
        for name in declared(&manifest) {
            if !text.contains(&format!("{}::", name.replace('-', "_"))) {
                unused.push(format!("{}: {name}", dir.join("Cargo.toml").display()));
            }
        }
    }
    assert!(
        unused.is_empty(),
        "declared but never named:\n{}",
        unused.join("\n")
    );
}

#[test]
fn no_core_source_file_is_over_1500_lines() {
    let mut files = Vec::new();
    sources(
        &Path::new(env!("CARGO_MANIFEST_DIR")).join("../core/src"),
        &mut files,
    );
    assert!(
        files.len() > 10,
        "walked the wrong directory: {} files",
        files.len()
    );
    let long: Vec<String> = files
        .iter()
        .map(|(path, text)| (path, text.lines().count()))
        .filter(|(_, lines)| *lines > 1_500)
        .map(|(path, lines)| format!("{}: {lines} lines", path.display()))
        .collect();
    assert!(long.is_empty(), "over 1,500 lines:\n{}", long.join("\n"));
}
