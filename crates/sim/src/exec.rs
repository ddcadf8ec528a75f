//! Direct CDFG execution and branch profiling.
//!
//! Executes a CDFG with conventional sequential semantics — loops
//! iterate, branches select — without any scheduling. This serves two
//! purposes:
//!
//! * a **second golden model**, structurally independent of both the
//!   `hls-lang` interpreter (which walks the AST) and the STG simulator
//!   (which executes schedules), so three-way agreement is strong
//!   evidence of functional correctness;
//! * the **profiler**: it tallies how often every conditional operation
//!   evaluates true over a trace set, producing the branch probabilities
//!   the paper's scheduler consumes (Sec. 2: "profiling information that
//!   indicates the branch probabilities").

use cdfg::analysis::{intra_topo_order, BranchProbs};
use cdfg::{Cdfg, CtrlKind, LoopId, OpId, OpKind, PortKind, Value};
use std::collections::{BTreeMap, HashMap};

/// Result of one CDFG execution.
#[derive(Debug, Clone)]
pub struct CdfgOutcome {
    /// Final outputs by name.
    pub outputs: BTreeMap<String, Value>,
    /// Final memory contents by name.
    pub mems: HashMap<String, Vec<Value>>,
    /// Per conditional op: (times true, times evaluated meaningfully).
    pub cond_stats: HashMap<OpId, (u64, u64)>,
    /// Operation evaluations performed (a step-limit proxy).
    pub steps: u64,
}

/// Errors raised by direct execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecCdfgError {
    /// The step limit was exhausted (runaway loop).
    StepLimit,
    /// A required input was not supplied.
    MissingInput(String),
}

impl std::fmt::Display for ExecCdfgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecCdfgError::StepLimit => write!(f, "step limit exhausted"),
            ExecCdfgError::MissingInput(n) => write!(f, "no value supplied for input `{n}`"),
        }
    }
}

impl std::error::Error for ExecCdfgError {}

/// Executes `g` on one input vector.
///
/// # Errors
///
/// See [`ExecCdfgError`].
pub fn execute_cdfg(
    g: &Cdfg,
    inputs: &[(&str, Value)],
    mem_init: &HashMap<String, Vec<Value>>,
    step_limit: u64,
) -> Result<CdfgOutcome, ExecCdfgError> {
    let plan = Plan::new(g);
    let ex = Exec::run(g, &plan, inputs, mem_init, step_limit)?;
    Ok(CdfgOutcome {
        outputs: g
            .outputs()
            .iter()
            .map(|(id, name)| (name.clone(), ex.outputs[id.index()]))
            .collect(),
        mems: g
            .mems()
            .iter()
            .map(|m| (m.name().to_string(), ex.mems[m.id().index()].clone()))
            .collect(),
        cond_stats: ex
            .cond_stats
            .iter()
            .enumerate()
            .filter(|(_, &(_, n))| n > 0)
            .map(|(i, &tally)| (OpId::new(i as u32), tally))
            .collect(),
        steps: ex.steps,
    })
}

/// Profiles `g` over a set of input vectors, producing the branch
/// probabilities the scheduler consumes. Runs that exceed `step_limit`
/// are skipped, and their tallies with them.
pub fn profile_cdfg(
    g: &Cdfg,
    runs: &[Vec<(&str, Value)>],
    mem_init: &HashMap<String, Vec<Value>>,
    step_limit: u64,
) -> BranchProbs {
    let plan = Plan::new(g);
    let mut tally = vec![(0u64, 0u64); g.ops().len()];
    for inputs in runs {
        if let Ok(ex) = Exec::run(g, &plan, inputs, mem_init, step_limit) {
            for (e, &(t, n)) in tally.iter_mut().zip(&ex.cond_stats) {
                e.0 += t;
                e.1 += n;
            }
        }
    }
    let mut probs = BranchProbs::new();
    for (i, &(t, n)) in tally.iter().enumerate() {
        if n > 0 {
            probs.set(OpId::new(i as u32), t as f64 / n as f64);
        }
    }
    probs
}

/// One step of a region walk: evaluate an op, or run a directly nested
/// loop to its exit.
#[derive(Clone, Copy)]
enum Item {
    Op(OpId),
    Loop(LoopId),
}

/// What one loop iteration walks.
struct LoopPlan {
    cond: OpId,
    /// The condition cone, in topological order.
    cone: Vec<OpId>,
    /// The body without the cone, in topological first-encounter order.
    body: Vec<Item>,
    /// Every member, nested loops' included: the snapshot for carried
    /// reads.
    members: Vec<OpId>,
}

/// The static walk of a CDFG, computed once per call: the top-level
/// region and every loop's cone and body as item lists, in the order a
/// topological walk of the whole graph first reaches them. Loops are
/// nested regions entered at fixed points, so the walk is the same for
/// every input vector.
struct Plan {
    top: Vec<Item>,
    /// `LoopId`-indexed.
    loops: Vec<LoopPlan>,
}

impl Plan {
    fn new(g: &Cdfg) -> Plan {
        let order = intra_topo_order(g).expect("validated CDFG");
        let mask = |ids: &[OpId]| {
            let mut m = vec![false; g.ops().len()];
            for id in ids {
                m[id.index()] = true;
            }
            m
        };
        let loops = g
            .loops()
            .iter()
            .map(|info| {
                let in_cone = mask(info.cond_cone());
                let member = mask(info.members());
                let path = g.op(info.cond()).loop_path();
                LoopPlan {
                    cond: info.cond(),
                    cone: order
                        .iter()
                        .copied()
                        .filter(|id| in_cone[id.index()])
                        .collect(),
                    body: region_items(g, &order, path, |id| {
                        member[id.index()] && !in_cone[id.index()]
                    }),
                    members: info.members().to_vec(),
                }
            })
            .collect();
        Plan {
            top: region_items(g, &order, &[], |_| true),
            loops,
        }
    }
}

/// The ops of `order` kept by `keep` whose loop path is `path`, and each
/// loop directly nested in `path` at its first op, in `order`.
fn region_items(
    g: &Cdfg,
    order: &[OpId],
    path: &[LoopId],
    keep: impl Fn(OpId) -> bool,
) -> Vec<Item> {
    let mut items = Vec::new();
    let mut entered: Vec<LoopId> = Vec::new();
    for &id in order.iter().filter(|&&id| keep(id)) {
        let op_path = g.op(id).loop_path();
        if op_path == path {
            items.push(Item::Op(id));
        } else if op_path.len() > path.len() && op_path.starts_with(path) {
            let nested = op_path[path.len()];
            if !entered.contains(&nested) {
                entered.push(nested);
                items.push(Item::Loop(nested));
            }
        }
    }
    items
}

struct Exec<'a> {
    g: &'a Cdfg,
    plan: &'a Plan,
    input_vals: Vec<Value>,
    mems: Vec<Vec<Value>>,
    outputs: Vec<Value>,
    /// `OpId`-indexed: current value of every op (latest wave).
    env: Vec<Option<Value>>,
    /// `LoopId`- then `OpId`-indexed: the previous iteration's values of
    /// the loop's members.
    prev: Vec<Vec<Option<Value>>>,
    /// `LoopId`-indexed: executing its first iteration (carried ports
    /// read inits).
    first_iter: Vec<bool>,
    /// `LoopId`-indexed: the body ran at least once (exit views read
    /// body values; else the init).
    ran_body: Vec<bool>,
    /// `OpId`-indexed: (times true, times evaluated meaningfully).
    cond_stats: Vec<(u64, u64)>,
    /// Operand buffer, reused by every evaluation.
    vals: Vec<Value>,
    steps: u64,
    step_limit: u64,
}

impl<'a> Exec<'a> {
    /// Executes `plan` (built from `g`) on one input vector.
    fn run(
        g: &'a Cdfg,
        plan: &'a Plan,
        inputs: &[(&str, Value)],
        mem_init: &HashMap<String, Vec<Value>>,
        step_limit: u64,
    ) -> Result<Exec<'a>, ExecCdfgError> {
        let by_name: HashMap<&str, Value> = inputs.iter().copied().collect();
        let mut input_vals = Vec::new();
        for (_, name) in g.inputs() {
            input_vals.push(
                by_name
                    .get(name.as_str())
                    .copied()
                    .ok_or_else(|| ExecCdfgError::MissingInput(name.clone()))?,
            );
        }
        let n = g.ops().len();
        let mut ex = Exec {
            g,
            plan,
            input_vals,
            mems: g
                .mems()
                .iter()
                .map(|m| {
                    let mut cells = mem_init.get(m.name()).cloned().unwrap_or_default();
                    cells.resize(m.size(), 0);
                    cells.truncate(m.size());
                    cells
                })
                .collect(),
            outputs: vec![0; g.outputs().len()],
            env: vec![None; n],
            prev: vec![vec![None; n]; g.loops().len()],
            first_iter: vec![true; g.loops().len()],
            ran_body: vec![false; g.loops().len()],
            cond_stats: vec![(0, 0); n],
            vals: Vec::new(),
            steps: 0,
            step_limit,
        };
        ex.items(&plan.top)?;
        Ok(ex)
    }

    fn tick(&mut self) -> Result<(), ExecCdfgError> {
        self.steps += 1;
        if self.steps > self.step_limit {
            Err(ExecCdfgError::StepLimit)
        } else {
            Ok(())
        }
    }

    fn items(&mut self, items: &[Item]) -> Result<(), ExecCdfgError> {
        for &item in items {
            match item {
                Item::Op(id) => self.eval_op(id)?,
                Item::Loop(l) => self.exec_loop(l)?,
            }
        }
        Ok(())
    }

    fn exec_loop(&mut self, l: LoopId) -> Result<(), ExecCdfgError> {
        let lp = &self.plan.loops[l.index()];
        self.first_iter[l.index()] = true;
        self.ran_body[l.index()] = false;
        loop {
            self.tick()?;
            for &id in &lp.cone {
                self.eval_op(id)?;
            }
            if self.value(lp.cond) == 0 {
                break;
            }
            self.items(&lp.body)?;
            // Snapshot this iteration's values for next iteration's
            // carried reads.
            let prev = &mut self.prev[l.index()];
            for &m in &lp.members {
                prev[m.index()] = self.env[m.index()];
            }
            self.first_iter[l.index()] = false;
            self.ran_body[l.index()] = true;
        }
        Ok(())
    }

    fn value(&self, id: OpId) -> Value {
        self.env[id.index()].expect("producer evaluated before its consumer")
    }

    fn read_port(&self, p: &PortKind) -> Value {
        match *p {
            PortKind::Wire(s) => self.value(s),
            PortKind::Carried { lp, src, init } => {
                if self.first_iter[lp.index()] {
                    self.value(init)
                } else {
                    self.prev[lp.index()][src.index()].expect("carried source snapshotted")
                }
            }
            PortKind::Exit { lp, src, init } => {
                if self.ran_body[lp.index()] {
                    // Body values of the last completed iteration remain
                    // in env (the final cone evaluation only overwrote
                    // cone ops).
                    self.value(src)
                } else {
                    self.value(init)
                }
            }
        }
    }

    fn eval_op(&mut self, id: OpId) -> Result<(), ExecCdfgError> {
        self.tick()?;
        let op = self.g.op(id);
        let kind = op.kind();
        let mut vals = std::mem::take(&mut self.vals);
        vals.clear();
        vals.extend(op.ports().iter().map(|p| self.read_port(p)));
        // Side effects commit only when the realized branch conditions
        // hold (loop gating is implied by reaching this point).
        let branches_hold = op
            .ctrl_deps()
            .iter()
            .filter(|d| d.kind == CtrlKind::Branch)
            .all(|d| (self.value(d.cond) != 0) == d.polarity);
        let result = match kind {
            OpKind::Const(v) => v,
            OpKind::Input(i) => self.input_vals[i.index()],
            OpKind::MemRead(m) => {
                let mem = &self.mems[m.index()];
                let idx = vals[0].rem_euclid(mem.len() as Value) as usize;
                mem[idx]
            }
            OpKind::MemWrite(m) => {
                if branches_hold {
                    let mem = &mut self.mems[m.index()];
                    let idx = vals[0].rem_euclid(mem.len() as Value) as usize;
                    mem[idx] = vals[1];
                }
                vals[1]
            }
            OpKind::Output(o) => {
                if branches_hold {
                    self.outputs[o.index()] = vals[0];
                }
                vals[0]
            }
            k => k.eval(&vals, None),
        };
        self.vals = vals;
        self.env[id.index()] = Some(result);
        // Profile: tally meaningful evaluations of conditionals.
        if op.is_conditional() && branches_hold {
            let e = &mut self.cond_stats[id.index()];
            if result != 0 {
                e.0 += 1;
            }
            e.1 += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_lang::Program;

    fn exec(src: &str, inputs: &[(&str, i64)]) -> CdfgOutcome {
        let g = hls_lang::lower::compile(&Program::parse(src).unwrap()).unwrap();
        execute_cdfg(&g, inputs, &HashMap::new(), 1_000_000).unwrap()
    }

    #[test]
    fn agrees_with_interpreter_on_gcd() {
        let src = "design gcd { input x, y; output g; var a = x; var b = y;
            while (a != b) { if (a > b) { a = a - b; } else { b = b - a; } } g = a; }";
        for (x, y) in [(54, 24), (7, 13), (9, 9), (100, 1)] {
            let cd = exec(src, &[("x", x), ("y", y)]);
            let p = Program::parse(src).unwrap();
            let it =
                hls_lang::interp::run(&p, &[("x", x), ("y", y)], &Default::default(), 1_000_000)
                    .unwrap();
            assert_eq!(cd.outputs["g"], it.outputs["g"], "gcd({x},{y})");
        }
    }

    #[test]
    fn profiles_loop_condition() {
        let src = "design d { input n; output o; var i = 0;
            while (i < n) { i = i + 1; } o = i; }";
        let g = hls_lang::lower::compile(&Program::parse(src).unwrap()).unwrap();
        let out = execute_cdfg(&g, &[("n", 9)], &HashMap::new(), 100_000).unwrap();
        let cond = g.loops()[0].cond();
        let (t, n) = out.cond_stats[&cond];
        assert_eq!((t, n), (9, 10), "9 continues, 1 exit check");
        let probs = profile_cdfg(&g, &[vec![("n", 9)]], &HashMap::new(), 100_000);
        assert!((probs.get(cond) - 0.9).abs() < 1e-9);
    }

    #[test]
    fn branch_profile_counts_only_taken_paths() {
        // The inner condition is evaluated every iteration; its profile
        // reflects actual outcomes.
        let src = "design d { input n; output acc; var i = 0; var s = 0;
            while (i < n) { if (i > 2) { s = s + i; } i = i + 1; } acc = s; }";
        let g = hls_lang::lower::compile(&Program::parse(src).unwrap()).unwrap();
        let out = execute_cdfg(&g, &[("n", 6)], &HashMap::new(), 100_000).unwrap();
        assert_eq!(out.outputs["acc"], 3 + 4 + 5);
        // i > 2 true for i = 3, 4, 5 out of 6 evaluations.
        let gt = g
            .ops()
            .iter()
            .find(|o| o.kind() == OpKind::Gt)
            .unwrap()
            .id();
        assert_eq!(out.cond_stats[&gt], (3, 6));
    }

    #[test]
    fn memory_and_branch_effects() {
        let src = "design d { input a; output o; mem M[4];
            if (a > 0) { M[0] = a; } else { M[1] = a; } o = M[0] + M[1]; }";
        let cd = exec(src, &[("a", 5)]);
        assert_eq!(cd.mems["M"], vec![5, 0, 0, 0]);
        assert_eq!(cd.outputs["o"], 5);
        let cd = exec(src, &[("a", -3)]);
        assert_eq!(cd.mems["M"], vec![0, -3, 0, 0]);
        assert_eq!(cd.outputs["o"], -3);
    }

    #[test]
    fn nested_loops_execute() {
        let src = "design d { input n; output acc; var i = 0; var s = 0;
            while (i < n) { var j = 0; while (j < i) { s = s + 1; j = j + 1; } i = i + 1; }
            acc = s; }";
        let cd = exec(src, &[("n", 5)]);
        assert_eq!(cd.outputs["acc"], 10);
        // Outer condition: 5 continues + 1 exit; inner: sum of i over
        // 0..5 continues + one exit per outer iteration.
        assert_eq!(tallies(&cd), vec![(2, (5, 6)), (5, (10, 15))]);
        assert_eq!(cd.steps, 107);
    }

    /// `cond_stats` in op order, for exact comparison.
    fn tallies(out: &CdfgOutcome) -> Vec<(usize, (u64, u64))> {
        let mut v: Vec<_> = out
            .cond_stats
            .iter()
            .map(|(op, &t)| (op.index(), t))
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn carried_and_exit_ports_profile() {
        // `s` and `i` are carried around the loop and read after it
        // through exit views; n = 0 never runs the body, so the exit
        // views read the inits.
        let src = "design d { input n; output acc, last; var i = 0; var s = 0;
            while (i < n) { if (i > 2) { s = s + i; } i = i + 1; }
            acc = s; last = i; }";
        let cd = exec(src, &[("n", 6)]);
        assert_eq!((cd.outputs["acc"], cd.outputs["last"]), (12, 6));
        assert_eq!(tallies(&cd), vec![(2, (6, 7)), (4, (3, 6))]);
        assert_eq!(cd.steps, 56);
        let cd = exec(src, &[("n", 0)]);
        assert_eq!((cd.outputs["acc"], cd.outputs["last"]), (0, 0));
        assert_eq!(tallies(&cd), vec![(2, (0, 1))]);
        assert_eq!(cd.steps, 8);
    }

    #[test]
    fn step_limit_reported() {
        let src = "design d { output o; var i = 0; while (i < 1) { i = i * 1; } o = i; }";
        let g = hls_lang::lower::compile(&Program::parse(src).unwrap()).unwrap();
        let err = execute_cdfg(&g, &[], &HashMap::new(), 100).unwrap_err();
        assert_eq!(err, ExecCdfgError::StepLimit);
    }
}
