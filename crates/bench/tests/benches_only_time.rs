//! Bench targets only time: the paper's results are asserted by
//! `crates/core/tests/paper_results.rs` and committed as
//! `examples/goldens/paper_results.md`, so no bench prints a table that
//! nothing reads. This test scans `benches/` and the library sources
//! for the print macros and fails on any hit. The `perf_gate` binary
//! (`src/bin/`) is not scanned: printing its verdict is its job.

use std::path::Path;

const PRINT_MACROS: [&str; 5] = ["print!(", "println!(", "eprint!(", "eprintln!(", "dbg!("];

#[test]
fn no_bench_target_or_helper_prints() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut offenders = Vec::new();
    let mut scanned = 0;
    for dir in ["benches", "src"] {
        for entry in std::fs::read_dir(root.join(dir)).expect("readable source directory") {
            let path = entry.expect("readable directory entry").path();
            if path.extension().is_none_or(|ext| ext != "rs") {
                continue;
            }
            scanned += 1;
            let source = std::fs::read_to_string(&path).expect("readable source file");
            for (number, line) in source.lines().enumerate() {
                if PRINT_MACROS.iter().any(|name| line.contains(name)) {
                    offenders.push(format!("{}:{}: {}", path.display(), number + 1, line.trim()));
                }
            }
        }
    }
    assert!(
        scanned >= 13,
        "the scan must reach the bench targets and the library"
    );
    assert!(
        offenders.is_empty(),
        "bench code prints; add the result as a row of crates/core/tests/paper_results.rs instead:\n{}",
        offenders.join("\n")
    );
}
