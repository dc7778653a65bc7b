//! Manifests name what sources use: every `[dependencies]` and
//! `[dev-dependencies]` entry of every workspace package appears as
//! `name::` (hyphens as underscores) somewhere in that package's sources.
//! A dependency nothing names still costs a build edge, a lock-file line
//! and a reader's attention.

use std::fs;
use std::path::{Path, PathBuf};

/// Every `.rs` file under `dir`, concatenated.
fn sources(dir: &Path, out: &mut String) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for entry in entries {
        let path = entry.expect("read dir entry").path();
        if path.is_dir() {
            sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push_str(&fs::read_to_string(&path).expect("read source"));
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
        let mut text = String::new();
        for targets in ["src", "tests", "examples", "benches"] {
            sources(&dir.join(targets), &mut text);
        }
        for name in declared(&manifest) {
            if !text.contains(&format!("{}::", name.replace('-', "_"))) {
                unused.push(format!("{}: {name}", dir.join("Cargo.toml").display()));
            }
        }
    }
    assert!(unused.is_empty(), "declared but never named:\n{}", unused.join("\n"));
}
