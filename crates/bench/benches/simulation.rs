//! Measurement-substrate benches: cycle-accurate STG simulation, the
//! behavioral golden model, and the analytic Markov solver — the pieces
//! every Table-1 number flows through.
//!
//! Run with `cargo bench --bench simulation`; results land in
//! `target/spec-bench/BENCH_simulation.json`.

use spec_support::bench::{black_box, Harness};
use std::collections::HashMap;
use wavesched::{schedule, Mode, SchedConfig};

fn bench_stg_simulation(h: &mut Harness) {
    let w = workloads::gcd().unwrap();
    let r = schedule(
        &w.cdfg,
        &w.library,
        &w.allocation,
        &Default::default(),
        &SchedConfig::new(Mode::Speculative),
    )
    .expect("schedules");
    let sim = hls_sim::StgSimulator::new(&w.cdfg, &r.stg);
    let mem: HashMap<String, Vec<i64>> = HashMap::new();
    h.bench("sim/gcd_spec_run", || {
        sim.run(black_box(&[("x", 48), ("y", 36)]), &mem, 100_000)
            .expect("simulates")
            .cycles
    });
}

fn bench_golden_models(h: &mut Harness) {
    let w = workloads::gcd().unwrap();
    let mem: HashMap<String, Vec<i64>> = HashMap::new();
    // Resolved once, outside the timed closure, as `measure_with` does:
    // the entry times one golden run per trace.
    let golden = hls_lang::Resolved::new(&w.program).expect("resolves");
    h.bench("sim/gcd_interp_run", || {
        black_box(&golden)
            .run(&[("x", 48), ("y", 36)], &Default::default(), 1_000_000)
            .expect("runs")
            .steps
    });
    h.bench("sim/gcd_cdfg_exec", || {
        hls_sim::execute_cdfg(black_box(&w.cdfg), &[("x", 48), ("y", 36)], &mem, 1_000_000)
            .expect("runs")
            .steps
    });
}

/// Serial vs parallel trace fan-out over one fixed trace set — the
/// `measure_with` worker sweep. Entries differ only in worker count, so
/// the JSON directly shows the parallel-measure speedup.
fn bench_parallel_measure(h: &mut Harness) {
    let w = workloads::gcd().unwrap();
    let r = schedule(
        &w.cdfg,
        &w.library,
        &w.allocation,
        &Default::default(),
        &SchedConfig::new(Mode::Speculative),
    )
    .expect("schedules");
    let vectors = hls_sim::trace::positive_vectors(7, &["x", "y"], 24.0, 63, 64);
    let mem: HashMap<String, Vec<i64>> = HashMap::new();
    for workers in [1usize, 2, 4] {
        let name = format!("sim/gcd_measure_{workers}w");
        h.bench(&name, || {
            hls_sim::measure_with(
                black_box(&w.cdfg),
                &r.stg,
                &vectors,
                &mem,
                None,
                100_000,
                workers,
            )
            .unwrap()
            .mean_cycles
        });
    }
}

fn bench_markov(h: &mut Harness) {
    let w = workloads::test1().unwrap();
    let mut cfg = SchedConfig::new(Mode::Speculative);
    cfg.max_spec_depth = w.spec_depth;
    let r = schedule(
        &w.cdfg,
        &w.library,
        &w.allocation,
        &Default::default(),
        &cfg,
    )
    .expect("schedules");
    h.bench("sim/test1_markov_enc", || {
        hls_sim::markov::expected_cycles(black_box(&r.stg), &Default::default())
    });
}

fn main() {
    let mut h = Harness::new("simulation");
    bench_stg_simulation(&mut h);
    bench_golden_models(&mut h);
    bench_parallel_measure(&mut h);
    bench_markov(&mut h);
    h.finish().expect("bench JSON written");
}
