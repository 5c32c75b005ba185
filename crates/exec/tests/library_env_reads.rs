//! Libraries do not read the environment: configuration is built at an
//! entry point and passed down. This test scans every crate's `src/`
//! for `env::var` (which also catches `std::env::var_os` and
//! `std::env::vars`) and fails on any hit outside the places allowed to
//! read a variable:
//!
//! * `crates/cli` — the entry point;
//! * `exec/src/calibrate.rs` — `ESRAM_COST_CALIB`, kept until the
//!   benchmark stops printing `CalibrationMode::from_env`;
//! * `exec/src/failpoint.rs` — `ESRAM_FAILPOINTS`, the chaos harness.
//!
//! Bench harnesses (`crates/bench/benches`) and tests are entry points
//! too, and are not scanned.

use std::path::{Path, PathBuf};

const ALLOWED: [&str; 3] = ["cli/", "exec/src/calibrate.rs", "exec/src/failpoint.rs"];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn no_library_source_reads_the_environment() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    for entry in std::fs::read_dir(&crates).expect("readable crates directory") {
        let src = entry.expect("readable crate entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    assert!(
        files.iter().any(|path| path.ends_with("exec/src/plan.rs")),
        "the scan must reach the library sources"
    );
    let mut offenders = Vec::new();
    for path in &files {
        let relative = path.strip_prefix(&crates).expect("path under crates/");
        let relative = relative.to_string_lossy().replace('\\', "/");
        if ALLOWED.iter().any(|allowed| relative.starts_with(allowed)) {
            continue;
        }
        let source = std::fs::read_to_string(path).expect("readable source file");
        for (number, line) in source.lines().enumerate() {
            if line.contains("env::var") {
                offenders.push(format!("crates/{relative}:{}: {}", number + 1, line.trim()));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "library code reads the environment; read it at the entry point and pass the value down:\n{}",
        offenders.join("\n")
    );
}
