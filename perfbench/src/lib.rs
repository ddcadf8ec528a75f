//! Paper-pipeline benchmark for the Wavesched-spec reproduction.
//!
//! A *job* is one (design, scheduling mode) pair. It calls the layers'
//! public functions in the order the `table1` and `area` binaries use
//! them: `hls_sim::profile` → `wavesched::schedule` (with the design's
//! speculation depth) → `hls_sim::measure_with` (one thread, checked
//! against the golden program) → `hls_sim::markov::expected_cycles` →
//! `rtl_synth::synthesize` + `rtl_synth::area`. A *pass* runs every job
//! of a workload once, in order, on one thread.
//!
//! A traced job ([`run_job`] given a [`Tracer`]) records one span per
//! layer call. It makes the two calls `measure_with` makes per trace —
//! `StgSimulator::run` and the golden `interp::run` — itself, each layer
//! as one batch over the trace set, so that `hls-sim` and `hls-lang` get
//! separate self times. Its results must equal the untraced job's.

use hls_sim::{measure_with, MeasureError, Measurement, StgSimulator};
use rtl_synth::AreaReport;
use spec_support::rng::{RngCore, SplitMix64};
use std::fmt::Write as _;
use std::time::Instant;
use stg::Stg;
use wavesched::{Mode, SchedConfig, SchedError, SchedStats};
use workloads::{Workload, WorkloadError};

/// One benchmark workload: the designs it runs, each in both modes, and
/// the number of trace vectors per design.
#[derive(Debug)]
pub struct WorkloadSpec {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Design names, resolved by `workloads::by_name`.
    pub designs: &'static [&'static str],
    /// Trace vectors per design (profiled and simulated).
    pub traces: usize,
}

/// The benchmark's workloads. Triangle is left out: it fails to
/// schedule by design, and a later fix would read as a regression.
pub const WORKLOADS: &[WorkloadSpec] = &[
    // The paper's Table 1, exactly as the `table1` binary computes it;
    // every layer shows.
    WorkloadSpec {
        name: "table1",
        designs: &["Barcode", "GCD", "Test1", "TLC", "Findmin"],
        traces: spec_bench::TRACE_RUNS,
    },
    // The state-heavy designs: scheduler cost dominates.
    WorkloadSpec {
        name: "stress",
        designs: &["FindminTwoPass", "FindminSharedMem", "DspClip"],
        traces: spec_bench::TRACE_RUNS,
    },
    // Long trace sets: simulation and golden checking dominate and the
    // scheduler is a small share.
    WorkloadSpec {
        name: "traces",
        designs: &["GCD", "Test1", "Findmin64"],
        traces: 1000,
    },
];

/// Both scheduling modes, baseline first (the `table1` column order).
pub const MODES: [Mode; 2] = [Mode::NonSpeculative, Mode::Speculative];

/// Step limit of the golden interpreter, the one `hls_sim::measure_with`
/// uses.
const GOLDEN_STEP_LIMIT: u64 = 10_000_000;

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

/// A design ready to run: the built workload and its trace vectors.
#[derive(Debug)]
pub struct Design {
    /// Program, CDFG, allocation, library and memory image.
    pub w: Workload,
    /// Input vectors, profiled and simulated by every job of the design.
    pub vectors: Vec<Vec<(String, i64)>>,
}

/// Seed of a design's trace vectors. Seed 0 keeps the design's built-in
/// seed, which reproduces `table1`; any other seed is mixed with it so
/// that the designs draw independent vectors.
fn design_seed(builtin: u64, seed: u64) -> u64 {
    if seed == 0 {
        builtin
    } else {
        SplitMix64::new(seed ^ builtin).next_u64()
    }
}

/// Builds a workload's inputs: parses and lowers each design and
/// generates its trace vectors with the design's `sigma` and `cap`.
///
/// # Errors
///
/// Fails if a design name is unknown or its source does not build.
pub fn setup(spec: &WorkloadSpec, seed: u64) -> Result<Vec<Design>, WorkloadError> {
    spec.designs
        .iter()
        .map(|name| {
            let w = workloads::by_name(name)?;
            let inputs: Vec<&str> = w.program.inputs.iter().map(String::as_str).collect();
            let vectors = hls_sim::trace::positive_vectors(
                design_seed(w.seed, seed),
                &inputs,
                w.sigma,
                w.cap,
                spec.traces,
            );
            Ok(Design { w, vectors })
        })
        .collect()
}

/// Everything one job produces.
#[derive(Debug, Clone)]
pub struct JobOutput {
    /// The schedule.
    pub stg: Stg,
    /// Scheduler statistics (counts and phase times).
    pub stats: SchedStats,
    /// E.N.C., best and worst cycles over the trace set.
    pub meas: Measurement,
    /// Analytic E.N.C. from the STG's Markov chain, when defined.
    pub analytic: Option<f64>,
    /// RTL area of the schedule.
    pub area: AreaReport,
    /// Registers of the synthesized datapath.
    pub registers: usize,
    /// Multiplexer inputs of the synthesized datapath.
    pub mux_inputs: usize,
}

impl JobOutput {
    /// Whether `other` is the same result: the same STG, E.N.C. and cycle
    /// counts, Markov figure and RTL. Timings are not compared.
    pub fn same_result(&self, other: &JobOutput) -> bool {
        let (a, b) = (&self.stg, &other.stg);
        let same_stg = a.start() == b.start()
            && a.stop() == b.stop()
            && a.states().len() == b.states().len()
            && a.states().iter().zip(b.states()).all(|(x, y)| {
                x.ops == y.ops && x.resolves == y.resolves && x.transitions == y.transitions
            });
        same_stg
            && self.meas == other.meas
            && self.analytic.map(f64::to_bits) == other.analytic.map(f64::to_bits)
            && self.area == other.area
            && self.registers == other.registers
            && self.mux_inputs == other.mux_inputs
    }

    /// Total simulated cycles over the trace set.
    pub fn sim_cycles(&self) -> u64 {
        (self.meas.mean_cycles * self.meas.runs as f64).round() as u64
    }
}

/// Why a job failed.
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// The scheduler rejected the design.
    Sched(SchedError),
    /// A simulation or golden-model run failed.
    Measure(MeasureError),
    /// The schedule disagreed with the golden model on this many traces.
    Mismatch(usize),
    /// The STG failed `Stg::check`.
    Check(String),
    /// The job's result differs from its result on an earlier pass.
    Drift,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Sched(e) => write!(f, "scheduling failed: {e}"),
            JobError::Measure(e) => write!(f, "measurement failed: {e}"),
            JobError::Mismatch(n) => write!(f, "golden model disagrees on {n} trace(s)"),
            JobError::Check(e) => write!(f, "STG check failed: {e}"),
            JobError::Drift => write!(f, "result differs from an earlier pass"),
        }
    }
}

impl std::error::Error for JobError {}

/// Index of a span in [`Tracer::spans`].
pub type SpanId = usize;

/// One timed interval: a layer call, a job, a pass, or a set-up step.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer or phase name.
    pub name: &'static str,
    /// The job the span belongs to, if any.
    pub job: Option<usize>,
    /// The enclosing span.
    pub parent: Option<SpanId>,
    /// Start, in nanoseconds since the tracer was made.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was made.
    pub end_ns: u64,
}

/// In-memory span recorder, written out when the benchmark ends.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    /// Every span recorded, in opening order.
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        job: Option<usize>,
        parent: Option<SpanId>,
    ) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            job,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Self time of every span: its duration minus the part of it that
    /// its child spans cover. Children of one span run one after another,
    /// so the part they cover is the sum of their durations.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let opt = |x: Option<usize>| x.map_or("null".to_string(), |v| v.to_string());
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"job\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                opt(s.job),
                opt(s.parent),
                s.start_ns,
                s.end_ns
            );
        }
        out
    }
}

/// A tracer and the job span that layer spans nest under.
pub type Trace<'t> = Option<(&'t mut Tracer, SpanId)>;

/// Runs `f` as one layer call, inside a span when tracing.
fn layer<T>(tr: &mut Trace<'_>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tr {
        None => f(),
        Some((t, parent)) => {
            let job = t.spans[*parent].job;
            let id = t.open(name, job, Some(*parent));
            let r = f();
            t.close(id);
            r
        }
    }
}

/// Runs one job: profile → schedule → measure (golden-checked) → Markov
/// → RTL synthesis and area. With a tracer, every layer call is a span
/// under the given job span.
///
/// # Errors
///
/// Fails on a scheduler error, an `Stg::check` error, a failed
/// simulation or golden run, or any golden mismatch.
pub fn run_job(d: &Design, mode: Mode, mut tr: Trace<'_>) -> Result<JobOutput, JobError> {
    let w = &d.w;
    let probs = layer(&mut tr, "hls-sim.profile", || {
        hls_sim::profile(&w.cdfg, &d.vectors, &w.mem_init)
    });
    let mut cfg = SchedConfig::new(mode);
    cfg.max_spec_depth = w.spec_depth;
    let sched = layer(&mut tr, "wavesched", || {
        wavesched::schedule(&w.cdfg, &w.library, &w.allocation, &probs, &cfg)
    })
    .map_err(JobError::Sched)?;
    sched.stg.check().map_err(JobError::Check)?;
    let meas = if tr.is_some() {
        measure_split(d, &sched.stg, &mut tr)
    } else {
        measure_with(
            &w.cdfg,
            &sched.stg,
            &d.vectors,
            &w.mem_init,
            Some(&w.program),
            w.cycle_limit,
            1,
        )
    }
    .map_err(JobError::Measure)?;
    if meas.mismatches != 0 {
        return Err(JobError::Mismatch(meas.mismatches));
    }
    let analytic = layer(&mut tr, "hls-sim.markov", || {
        hls_sim::markov::expected_cycles(&sched.stg, &probs)
    });
    let (rtl, area) = layer(&mut tr, "rtl-synth", || {
        let rtl = rtl_synth::synthesize(&w.cdfg, &sched.stg);
        let area = rtl_synth::area(&rtl, &w.library);
        (rtl, area)
    });
    Ok(JobOutput {
        stg: sched.stg,
        stats: sched.stats,
        meas,
        analytic,
        area,
        registers: rtl.registers,
        mux_inputs: rtl.mux_inputs,
    })
}

/// The per-trace work of `measure_with`, one layer at a time: every STG
/// simulation in one `hls-sim.sim` span, then every golden run (with its
/// own copy of the memory image, as `measure_with` makes) in one
/// `hls-lang.interp` span, then the same comparison and aggregation.
fn measure_split(d: &Design, stg: &Stg, tr: &mut Trace<'_>) -> Result<Measurement, MeasureError> {
    let w = &d.w;
    let inputs: Vec<Vec<(&str, i64)>> = d
        .vectors
        .iter()
        .map(|v| v.iter().map(|(n, x)| (n.as_str(), *x)).collect())
        .collect();
    if inputs.is_empty() {
        return Err(MeasureError::NoVectors);
    }
    let sim = StgSimulator::new(&w.cdfg, stg);
    let got = layer(tr, "hls-sim.sim", || {
        inputs
            .iter()
            .zip(&d.vectors)
            .map(|(i, v)| {
                sim.run(i, &w.mem_init, w.cycle_limit)
                    .map_err(|e| MeasureError::Sim {
                        vector: format!("{v:?}"),
                        detail: e.to_string(),
                    })
            })
            .collect::<Result<Vec<_>, _>>()
    })?;
    let want = layer(tr, "hls-lang.interp", || {
        inputs
            .iter()
            .zip(&d.vectors)
            .map(|(i, v)| {
                let image = hls_lang::MemImage {
                    contents: w.mem_init.clone(),
                };
                hls_lang::interp::run(&w.program, i, &image, GOLDEN_STEP_LIMIT).map_err(|e| {
                    MeasureError::Golden {
                        vector: format!("{v:?}"),
                        detail: e.to_string(),
                    }
                })
            })
            .collect::<Result<Vec<_>, _>>()
    })?;
    let total: u64 = got.iter().map(|o| o.cycles).sum();
    Ok(Measurement {
        mean_cycles: total as f64 / got.len() as f64,
        best_cycles: got.iter().map(|o| o.cycles).min().unwrap_or(0),
        worst_cycles: got.iter().map(|o| o.cycles).max().unwrap_or(0),
        runs: got.len(),
        mismatches: got
            .iter()
            .zip(&want)
            .filter(|(g, w)| g.outputs != w.outputs || g.mems != w.mems)
            .count(),
    })
}

/// Median of `xs` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The highest percentile of `xs` that has at least `beyond` samples
/// above it, as `(value, percentile)`; `None` with too few samples.
pub fn tail(xs: &[f64], beyond: usize) -> Option<(f64, f64)> {
    let n = xs.len();
    if n <= beyond {
        return None;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    Some((s[n - 1 - beyond], 100.0 * (n - beyond) as f64 / n as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer {
            spans: vec![
                Span {
                    name: "pass",
                    job: None,
                    parent: None,
                    start_ns: 0,
                    end_ns: 100,
                },
                Span {
                    name: "job",
                    job: Some(0),
                    parent: Some(0),
                    start_ns: 10,
                    end_ns: 90,
                },
                Span {
                    name: "wavesched",
                    job: Some(0),
                    parent: Some(1),
                    start_ns: 20,
                    end_ns: 50,
                },
                Span {
                    name: "rtl-synth",
                    job: Some(0),
                    parent: Some(1),
                    start_ns: 50,
                    end_ns: 85,
                },
            ],
            ..Tracer::default()
        };
        assert_eq!(t.self_ns(), vec![20, 15, 30, 35]);
        assert_eq!(t.self_ns().iter().sum::<u64>(), 100);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&xs, 10), Some((30.0, 75.0)));
        assert_eq!(tail(&xs[..10], 10), None);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn default_seed_is_the_designs_own() {
        let spec = workload("table1").unwrap();
        let designs = setup(spec, 0).unwrap();
        for d in &designs {
            assert_eq!(d.vectors, d.w.vectors(spec.traces), "{}", d.w.name);
        }
        let other = setup(spec, 7).unwrap();
        assert!(designs
            .iter()
            .zip(&other)
            .any(|(a, b)| a.vectors != b.vectors));
    }

    #[test]
    fn traced_job_equals_untraced_job() {
        let spec = workload("table1").unwrap();
        let d = &setup(spec, 3).unwrap()[1];
        let plain = run_job(d, Mode::Speculative, None).unwrap();
        let mut t = Tracer::default();
        let job = t.open("job", Some(0), None);
        let traced = run_job(d, Mode::Speculative, Some((&mut t, job))).unwrap();
        t.close(job);
        assert!(plain.same_result(&traced));
        let names: Vec<&str> = t.spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "job",
                "hls-sim.profile",
                "wavesched",
                "hls-sim.sim",
                "hls-lang.interp",
                "hls-sim.markov",
                "rtl-synth"
            ]
        );
    }
}
