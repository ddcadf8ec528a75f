//! Runs one benchmark workload for a fixed time and prints its metrics.
//!
//! ```text
//! perfbench --workload <table1|stress|traces> --seed <n> --seconds <s> --trace <0|1>
//!           [--spans-dir <dir>]
//! ```
//!
//! The workload runs as a closed loop of passes on one thread. After the
//! set-up one reference pass fixes each job's result; every later pass
//! must reproduce it exactly. The set-up is repeated after every measured
//! pass, and `setup_s` is the median of all its repetitions. With
//! `--trace 0` every pass is untraced and the end-to-end metrics are
//! printed. With `--trace 1` untraced and traced passes alternate, and
//! the per-layer metrics are printed; the spans go to
//! `<spans-dir>/spans-<workload>.jsonl`. The last line of standard output
//! is one JSON object; the exit code is non-zero if any job failed.

use perfbench::{median, run_job, setup, tail, Design, JobError, JobOutput, Tracer, MODES};
use spec_bench::{geomean, render_table};
use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Instant;
use wavesched::Mode;

/// Set-up repetitions after each measured pass. Spread over the run,
/// they sample the same host conditions as the passes do.
const SETUP_REPS_PER_PASS: usize = 5;
/// Repetitions of the traced parse and lower spans.
const PARSE_REPS: usize = 101;
/// Passes that must lie beyond the reported tail percentile.
const TAIL_BEYOND: usize = 10;
/// Fewest measured passes of an untraced run, so that the tail is at
/// least the median.
const MIN_PASSES: usize = 2 * TAIL_BEYOND;
/// Fewest measured passes of each kind in a traced run.
const MIN_TRACED_PASSES: usize = 5;
/// Layer spans of a traced job, in pipeline order.
const LAYERS: [&str; 6] = [
    "hls-sim.profile",
    "wavesched",
    "hls-sim.sim",
    "hls-lang.interp",
    "hls-sim.markov",
    "rtl-synth",
];

const USAGE: &str = "usage: perfbench --workload <table1|stress|traces> --seed <n> \
                     --seconds <s> --trace <0|1> [--spans-dir <dir>]";

struct Args {
    workload: &'static perfbench::WorkloadSpec,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_dir: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kv: HashMap<&str, &str> = HashMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                kv.insert(&k[2..], v);
            }
            _ => return Err(format!("malformed arguments {pair:?}")),
        }
    }
    let get = |k: &str| kv.get(k).copied().ok_or(format!("missing --{k}"));
    let name = get("workload")?;
    let workload = perfbench::workload(name).ok_or(format!("unknown workload `{name}`"))?;
    // A negative seed is taken as its two's-complement bit pattern.
    let seed = get("seed")?;
    let seed = seed
        .parse::<u64>()
        .or_else(|_| seed.parse::<i64>().map(|s| s as u64))
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not `{t}`")),
    };
    for k in kv.keys() {
        if !["workload", "seed", "seconds", "trace", "spans-dir"].contains(k) {
            return Err(format!("unknown option --{k}"));
        }
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        spans_dir: kv.get("spans-dir").map(|s| s.to_string()),
    })
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The workload's jobs and the correctness gate over them.
struct Bench<'a> {
    designs: &'a [Design],
    jobs: Vec<(usize, Mode)>,
    /// Each job's first successful result, which later passes must equal.
    reference: Vec<Option<JobOutput>>,
    attempted: u64,
    failed: u64,
}

impl Bench<'_> {
    fn job_name(&self, j: usize) -> String {
        let (d, mode) = self.jobs[j];
        format!("{}/{mode}", self.designs[d].w.name)
    }

    fn record(&mut self, j: usize, r: Result<JobOutput, JobError>) {
        self.attempted += 1;
        let r = r.and_then(|o| match &self.reference[j] {
            Some(first) if !first.same_result(&o) => Err(JobError::Drift),
            _ => Ok(o),
        });
        match r {
            Ok(o) => {
                if self.reference[j].is_none() {
                    self.reference[j] = Some(o);
                }
            }
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: job {} failed: {e}", self.job_name(j));
            }
        }
    }

    /// One untraced pass; returns its wall time and pushes each job's.
    fn pass(&mut self, job_ms: &mut [Vec<f64>]) -> f64 {
        let t0 = Instant::now();
        for (j, times) in job_ms.iter_mut().enumerate() {
            let (d, mode) = self.jobs[j];
            let t = Instant::now();
            let r = run_job(&self.designs[d], mode, None);
            times.push(ms_since(t));
            self.record(j, r);
        }
        ms_since(t0)
    }

    /// One traced pass: a `pass` span holding a `job` span per job, each
    /// holding that job's layer spans. Returns the pass span's duration
    /// and pushes the scheduler statistics of the jobs that succeeded.
    fn traced_pass(&mut self, tr: &mut Tracer, stats: &mut Vec<wavesched::SchedStats>) -> f64 {
        let pass = tr.open("pass", None, None);
        for j in 0..self.jobs.len() {
            let (d, mode) = self.jobs[j];
            let span = tr.open("job", Some(j), Some(pass));
            let r = run_job(&self.designs[d], mode, Some((tr, span)));
            tr.close(span);
            if let Ok(o) = &r {
                stats.push(o.stats.clone());
            }
            self.record(j, r);
        }
        tr.close(pass);
        let s = tr.spans[pass];
        (s.end_ns - s.start_ns) as f64 / 1e6
    }

    /// The index of the job running design `d` in `mode`.
    fn job_of(&self, d: usize, mode: Mode) -> usize {
        self.jobs
            .iter()
            .position(|&job| job == (d, mode))
            .expect("every design runs in every mode")
    }

    /// The reference result of every job that has one.
    fn outputs(&self) -> Vec<&JobOutput> {
        self.reference.iter().flatten().collect()
    }
}

/// Peak resident set size of this process in MB, from `/proc`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// `num / den`, or 0 when `den` is 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

fn end_to_end(bench: &Bench<'_>, pass_ms: &[f64], job_ms: &[Vec<f64>], setup_s: f64) -> Metrics {
    let outs = bench.outputs();
    let enc: Vec<f64> = outs.iter().map(|o| o.meas.mean_cycles).collect();
    let speedups: Vec<f64> = (0..bench.designs.len())
        .filter_map(|d| {
            let enc_of = |mode| {
                let o = bench.reference[bench.job_of(d, mode)].as_ref();
                o.map(|o| o.meas.mean_cycles)
            };
            Some(enc_of(Mode::NonSpeculative)? / enc_of(Mode::Speculative)?)
        })
        .collect();
    let job_medians: Vec<f64> = job_ms.iter().map(|t| median(t)).collect();
    vec![
        ("pass_ms.p50", median(pass_ms), "ms"),
        (
            "pass_ms.tail",
            tail(pass_ms, TAIL_BEYOND).map_or(0.0, |t| t.0),
            "ms",
        ),
        ("job_ms.geomean", geomean(&job_medians), "ms"),
        ("setup_s", setup_s, "s"),
        ("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MB"),
        ("enc.geomean", geomean(&enc), "cycles"),
        ("spec_speedup.geomean", geomean(&speedups), "x"),
        (
            "states.total",
            outs.iter()
                .map(|o| o.stg.working_state_count() as f64)
                .sum(),
            "states",
        ),
        (
            "area_ge.total",
            outs.iter().map(|o| o.area.total()).sum(),
            "GE",
        ),
    ]
}

/// Per-layer metrics of a traced run. Times are means per traced pass,
/// so the layer times and `pass.other_ms` add up to `pass.traced_ms`.
fn per_layer(
    bench: &Bench<'_>,
    tr: &Tracer,
    stats: &[wavesched::SchedStats],
    traced_ms: &[f64],
    untraced_ms: &[f64],
) -> Metrics {
    let n = traced_ms.len() as f64;
    let own = tr.self_ns();
    let col = |name: &str| LAYERS.iter().position(|&l| l == name).expect("known layer");
    // Self time per (job, layer) and of the pass and job spans, over all
    // traced passes, in ms.
    let mut by_job = vec![[0.0f64; LAYERS.len()]; bench.jobs.len()];
    let mut other = 0.0;
    let mut setup_layer: HashMap<&str, f64> = HashMap::new();
    for (s, &ns) in tr.spans.iter().zip(&own) {
        let ms = ns as f64 / 1e6;
        match (s.name, s.job) {
            ("pass" | "job", _) => other += ms,
            (name, Some(j)) => by_job[j][col(name)] += ms,
            (name, None) => *setup_layer.entry(name).or_default() += ms,
        }
    }
    let layer_ms = |name: &str| by_job.iter().map(|r| r[col(name)]).sum::<f64>() / n;
    let sched_ms = |j: usize| by_job[j][col("wavesched")];
    let mode_ms = |mode: Mode| {
        (0..bench.jobs.len())
            .filter(|&j| bench.jobs[j].1 == mode)
            .map(sched_ms)
            .sum::<f64>()
            / n
    };
    let spec_over_ws = (0..bench.designs.len())
        .map(|d| {
            ratio(
                sched_ms(bench.job_of(d, Mode::Speculative)),
                sched_ms(bench.job_of(d, Mode::NonSpeculative)),
            )
        })
        .fold(0.0, f64::max);
    print_job_rows(bench, &by_job, n);

    let outs = bench.outputs();
    let refs = || outs.iter().map(|o| &o.stats);
    let sum_refs = |f: &dyn Fn(&wavesched::SchedStats) -> f64| refs().map(f).sum::<f64>();
    let phase_ms = |f: &dyn Fn(&wavesched::PhaseTimers) -> u64| {
        stats.iter().map(|s| f(&s.phases) as f64).sum::<f64>() / 1e6 / n
    };
    let pass_ms = traced_ms.iter().sum::<f64>() / n;
    let wavesched_ms = layer_ms("wavesched");
    let states = sum_refs(&|s| s.states as f64);
    let issues = sum_refs(&|s| s.issues as f64);
    let folds = sum_refs(&|s| s.folds as f64);
    let cache = |f: &dyn Fn(&guards::CacheStats) -> u64| sum_refs(&|s| f(&s.bdd_cache) as f64);
    let sim_cycles: f64 = outs.iter().map(|o| o.sim_cycles() as f64).sum();
    let rel_err: Vec<f64> = outs
        .iter()
        .filter_map(|o| {
            o.analytic
                .map(|a| (a - o.meas.mean_cycles).abs() / o.meas.mean_cycles)
        })
        .collect();
    let reps = PARSE_REPS as f64;
    vec![
        ("wavesched.ms", wavesched_ms, "ms"),
        ("wavesched.share", wavesched_ms / pass_ms, "fraction"),
        ("wavesched.ws_ms", mode_ms(Mode::NonSpeculative), "ms"),
        ("wavesched.spec_ms", mode_ms(Mode::Speculative), "ms"),
        ("wavesched.spec_over_ws", spec_over_ws, "x"),
        ("wavesched.states", states, "states"),
        ("wavesched.issues", issues, "count"),
        ("wavesched.folds", folds, "count"),
        (
            "wavesched.fold_ratio",
            ratio(folds, folds + states),
            "fraction",
        ),
        (
            "wavesched.peak_ctx",
            refs().map(|s| s.peak_ctx as f64).fold(0.0, f64::max),
            "versions",
        ),
        (
            "wavesched.us_per_issue",
            ratio(wavesched_ms * 1e3, issues),
            "us",
        ),
        ("wavesched.grow_ms", phase_ms(&|p| p.grow.ns), "ms"),
        ("wavesched.sweep_ms", phase_ms(&|p| p.sweep.ns), "ms"),
        ("wavesched.gc_ms", phase_ms(&|p| p.gc.ns), "ms"),
        (
            "wavesched.partition_ms",
            phase_ms(&|p| p.partition.ns),
            "ms",
        ),
        (
            "wavesched.signature_ms",
            phase_ms(&|p| p.signature.ns),
            "ms",
        ),
        ("wavesched.fold_ms", phase_ms(&|p| p.fold.ns), "ms"),
        ("wavesched.book_ms", phase_ms(&|p| p.book.ns), "ms"),
        (
            "wavesched.unaccounted_ms",
            stats
                .iter()
                .map(|s| s.wall_ns.saturating_sub(s.phases.accounted_ns()) as f64)
                .sum::<f64>()
                / 1e6
                / n,
            "ms",
        ),
        ("guards.bdd_ms", phase_ms(&|p| p.bdd.ns), "ms"),
        (
            "guards.ite_hit_ratio",
            ratio(
                cache(&|c| c.ite_hits),
                cache(&|c| c.ite_hits + c.ite_misses),
            ),
            "fraction",
        ),
        (
            "guards.cofactor_hit_ratio",
            ratio(
                cache(&|c| c.cofactor_hits),
                cache(&|c| c.cofactor_hits + c.cofactor_misses),
            ),
            "fraction",
        ),
        ("guards.evictions", cache(&|c| c.evictions()), "count"),
        (
            "guards.bdd_nodes",
            sum_refs(&|s| s.bdd_nodes as f64),
            "nodes",
        ),
        ("hls-sim.profile_ms", layer_ms("hls-sim.profile"), "ms"),
        ("hls-sim.profile_calls", bench.jobs.len() as f64, "count"),
        ("hls-sim.sim_ms", layer_ms("hls-sim.sim"), "ms"),
        ("hls-sim.sim_cycles", sim_cycles, "cycles"),
        (
            "hls-sim.sim_ns_per_cycle",
            ratio(layer_ms("hls-sim.sim") * 1e6, sim_cycles),
            "ns",
        ),
        (
            "hls-sim.traces",
            outs.iter().map(|o| o.meas.runs as f64).sum(),
            "count",
        ),
        ("hls-sim.markov_ms", layer_ms("hls-sim.markov"), "ms"),
        (
            "hls-sim.markov_rel_err",
            ratio(rel_err.iter().sum(), rel_err.len() as f64),
            "fraction",
        ),
        (
            "hls-sim.share",
            (layer_ms("hls-sim.profile") + layer_ms("hls-sim.sim") + layer_ms("hls-sim.markov"))
                / pass_ms,
            "fraction",
        ),
        ("hls-lang.interp_ms", layer_ms("hls-lang.interp"), "ms"),
        (
            "hls-lang.share",
            layer_ms("hls-lang.interp") / pass_ms,
            "fraction",
        ),
        (
            "hls-lang.parse_ms",
            setup_layer.get("hls-lang.parse").copied().unwrap_or(0.0) / reps,
            "ms",
        ),
        (
            "hls-lang.lower_ms",
            setup_layer.get("hls-lang.lower").copied().unwrap_or(0.0) / reps,
            "ms",
        ),
        (
            "cdfg.ops",
            bench
                .designs
                .iter()
                .map(|d| d.w.cdfg.ops().len() as f64)
                .sum(),
            "ops",
        ),
        ("rtl-synth.ms", layer_ms("rtl-synth"), "ms"),
        (
            "rtl-synth.share",
            layer_ms("rtl-synth") / pass_ms,
            "fraction",
        ),
        (
            "rtl-synth.registers",
            outs.iter().map(|o| o.registers as f64).sum(),
            "count",
        ),
        (
            "rtl-synth.mux_inputs",
            outs.iter().map(|o| o.mux_inputs as f64).sum(),
            "count",
        ),
        ("pass.other_ms", other / n, "ms"),
        ("pass.traced_ms", pass_ms, "ms"),
        (
            "trace.overhead_ratio",
            median(traced_ms) / median(untraced_ms),
            "x",
        ),
    ]
}

fn print_job_rows(bench: &Bench<'_>, by_job: &[[f64; LAYERS.len()]], n: f64) {
    let row = |name: String, ms: &[f64; LAYERS.len()]| {
        let mut cells = vec![name];
        cells.extend(ms.iter().map(|v| format!("{:.3}", v / n)));
        cells.push(format!("{:.3}", ms.iter().sum::<f64>() / n));
        cells
    };
    let mut rows: Vec<Vec<String>> = by_job
        .iter()
        .enumerate()
        .map(|(j, ms)| row(bench.job_name(j), ms))
        .collect();
    let mut total = [0.0; LAYERS.len()];
    for ms in by_job {
        for (t, v) in total.iter_mut().zip(ms) {
            *t += v;
        }
    }
    rows.push(row("total".into(), &total));
    let mut headers = vec!["job"];
    headers.extend(LAYERS);
    headers.push("all layers");
    println!("layer self time per job, ms per traced pass:");
    print!("{}", render_table(&headers, &rows));
}

/// Times `hls-lang` parse and lower of each design, as set-up spans.
fn trace_setup(tr: &mut Tracer, designs: &[Design]) {
    for _ in 0..PARSE_REPS {
        let root = tr.open("setup", None, None);
        for d in designs {
            let s = tr.open("hls-lang.parse", None, Some(root));
            let p = hls_lang::Program::parse(d.w.source).expect("the design parsed during set-up");
            tr.close(s);
            let s = tr.open("hls-lang.lower", None, Some(root));
            let g = hls_lang::lower::compile(&p).expect("the design lowered during set-up");
            tr.close(s);
            std::hint::black_box(g);
        }
        tr.close(root);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spec = args.workload;
    let mut setup_s = Vec::new();
    let mut timed_setup = || {
        let t = Instant::now();
        let designs = setup(spec, args.seed);
        setup_s.push(t.elapsed().as_secs_f64());
        designs
    };
    let designs = match timed_setup() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Stamped after the set-up, so its subprocesses do not disturb it.
    let designs_json: Vec<String> = spec.designs.iter().map(|d| json_str(d)).collect();
    println!(
        "# perfbench {{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"designs\":[{}],\
         \"traces_per_design\":{},\"jobs\":{},\"nproc\":{},\"cpu\":{},\"git_rev\":{},\"rustc\":{},\
         \"profile\":\"{}\"}}",
        json_str(spec.name),
        args.seed,
        args.seconds,
        args.trace,
        designs_json.join(","),
        spec.traces,
        spec.designs.len() * MODES.len(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json_str(&cpu_model()),
        json_str(&command_line("git", &["rev-parse", "HEAD"])),
        json_str(&command_line("rustc", &["-V"])),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );

    let mut tracer = Tracer::default();
    if args.trace {
        trace_setup(&mut tracer, &designs);
    }

    let jobs: Vec<(usize, Mode)> = (0..designs.len())
        .flat_map(|d| MODES.map(|m| (d, m)))
        .collect();
    let mut bench = Bench {
        designs: &designs,
        reference: vec![None; jobs.len()],
        jobs,
        attempted: 0,
        failed: 0,
    };
    // The reference pass fixes every job's result and warms caches; it
    // is not measured.
    bench.pass(&mut vec![Vec::new(); bench.jobs.len()]);

    let mut job_ms = vec![Vec::new(); bench.jobs.len()];
    let mut pass_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut stats = Vec::new();
    let start = Instant::now();
    while bench.failed == 0 {
        let enough = if args.trace {
            traced_ms.len() >= MIN_TRACED_PASSES && pass_ms.len() >= MIN_TRACED_PASSES
        } else {
            pass_ms.len() >= MIN_PASSES
        };
        if enough && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        pass_ms.push(bench.pass(&mut job_ms));
        for _ in 0..SETUP_REPS_PER_PASS {
            std::hint::black_box(timed_setup().expect("the set-up succeeded once"));
        }
        if args.trace {
            traced_ms.push(bench.traced_pass(&mut tracer, &mut stats));
        }
    }

    let metrics = if args.trace {
        per_layer(&bench, &tracer, &stats, &traced_ms, &pass_ms)
    } else {
        end_to_end(&bench, &pass_ms, &job_ms, median(&setup_s))
    };
    for (name, value, unit) in &metrics {
        println!("{name} = {value} {unit}");
    }
    if let (false, Some((_, pct))) = (args.trace, tail(&pass_ms, TAIL_BEYOND)) {
        println!("pass_ms.tail is the p{pct:.1} of {} passes", pass_ms.len());
    }
    println!(
        "fail_ratio = {} failed/attempted jobs (jobs.attempted = {}, jobs.failed = {})",
        ratio(bench.failed as f64, bench.attempted as f64),
        bench.attempted,
        bench.failed
    );
    println!(
        "# passes: 1 reference, {} untraced, {} traced; set-up repeated {} times",
        pass_ms.len(),
        traced_ms.len(),
        setup_s.len()
    );
    if let (true, Some(dir)) = (args.trace, &args.spans_dir) {
        let path = std::path::Path::new(dir).join(format!("spans-{}.jsonl", spec.name));
        let written =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.to_jsonl()));
        if let Err(e) = written {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("# spans: {}", path.display());
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        bench.failed == 0,
        bench.attempted,
        bench.failed,
        body.join(",")
    );
    if bench.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
