//! At the default seed the `table1` workload must reproduce what the
//! `table1` binary of the same tree prints: E.N.C., #states, best and
//! worst cycles of all ten (design, mode) rows, each speedup, and the
//! geometric-mean speedup. This keeps the benchmark on the paper
//! pipeline.

use perfbench::{run_job, setup, workload, MODES};
use std::path::Path;
use std::process::Command;

/// Builds and runs the repository's `table1` binary, in a target
/// directory of this test's own.
fn table1_binary_output() -> String {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits in the repository");
    let out = Command::new(env!("CARGO"))
        .args(["run", "--release", "--offline", "--quiet"])
        .args(["-p", "spec-bench", "--bin", "table1", "--manifest-path"])
        .arg(repo.join("Cargo.toml"))
        .env(
            "CARGO_TARGET_DIR",
            Path::new(env!("CARGO_TARGET_TMPDIR")).join("table1"),
        )
        .env_remove("SPEC_MEASURE_THREADS")
        .output()
        .expect("cargo runs");
    assert!(
        out.status.success(),
        "table1 failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("table1 prints UTF-8")
}

#[test]
fn table1_workload_matches_table1_binary() {
    let printed = table1_binary_output();
    let lines: Vec<&str> = printed.lines().collect();
    let dashes = lines
        .iter()
        .position(|l| l.starts_with("---"))
        .expect("table1 prints a table");
    let rows: Vec<Vec<&str>> = lines[dashes + 1..]
        .iter()
        .take_while(|l| !l.trim().is_empty())
        .map(|l| l.split_whitespace().collect())
        .collect();

    let spec = workload("table1").unwrap();
    let designs = setup(spec, 0).unwrap();
    assert_eq!(rows.len(), designs.len());
    let mut speedups = Vec::new();
    for (row, d) in rows.iter().zip(&designs) {
        let [ws, sp] = MODES.map(|m| run_job(d, m, None).unwrap());
        let speedup = ws.meas.mean_cycles / sp.meas.mean_cycles;
        speedups.push(speedup);
        let expected = [
            d.w.name.to_string(),
            format!("{:.1}", ws.meas.mean_cycles),
            format!("{:.1}", sp.meas.mean_cycles),
            ws.stg.working_state_count().to_string(),
            sp.stg.working_state_count().to_string(),
            ws.meas.best_cycles.to_string(),
            sp.meas.best_cycles.to_string(),
            ws.meas.worst_cycles.to_string(),
            sp.meas.worst_cycles.to_string(),
            format!("{speedup:.2}x"),
        ];
        assert_eq!(row.as_slice(), expected.as_slice(), "row of {}", d.w.name);
    }
    let geo = format!("{:.2}x geometric", spec_bench::geomean(&speedups));
    assert!(
        printed.contains(&geo),
        "table1 prints no `{geo}`:\n{printed}"
    );
}
