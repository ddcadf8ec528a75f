//! Cycle-accurate STG simulation.

use cdfg::{Cdfg, OpKind, Value};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use stg::{OpInst, StateId, Stg, ValRef};

/// Errors raised by STG simulation. Any of these indicates a scheduler
/// bug (the STG is self-contained by construction) or a runaway design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// An operand referenced an instance the registry does not hold.
    MissingValue(String),
    /// No outgoing transition matched the resolved condition values.
    NoTransition(String),
    /// The cycle limit was reached before STOP.
    CycleLimit(u64),
    /// An input value was not supplied.
    MissingInput(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::MissingValue(w) => write!(f, "registry miss: {w}"),
            SimError::NoTransition(w) => write!(f, "no matching transition from {w}"),
            SimError::CycleLimit(n) => write!(f, "cycle limit {n} reached before STOP"),
            SimError::MissingInput(n) => write!(f, "no value supplied for input `{n}`"),
        }
    }
}

impl std::error::Error for SimError {}

/// The result of simulating one input vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimOutcome {
    /// Final output values by name.
    pub outputs: BTreeMap<String, Value>,
    /// Final memory contents by name.
    pub mems: HashMap<String, Vec<Value>>,
    /// Clock cycles from start to STOP (STOP itself takes no cycle).
    pub cycles: u64,
}

/// Where a compiled operand comes from.
#[derive(Debug, Clone, Copy)]
enum Operand {
    Const(Value),
    /// Index into the run's input values.
    Input(usize),
    /// Register-file slot of an operation instance.
    Slot(usize),
}

/// One issued operation: its kind, the slot it commits to, and its
/// operands as a range of `StgSimulator::operands`.
#[derive(Debug)]
struct SimOp {
    kind: OpKind,
    dest: usize,
    operands: std::ops::Range<usize>,
}

/// One outgoing edge: the `(slot, want)` conditions, the target state
/// index and the `(from_slot, to_slot)` register transfers.
#[derive(Debug)]
struct SimTransition {
    when: Vec<(usize, bool)>,
    target: StateId,
    renames: Vec<(usize, usize)>,
}

#[derive(Debug)]
struct SimState {
    ops: Vec<SimOp>,
    transitions: Vec<SimTransition>,
}

/// Cycle-accurate simulator for a scheduled STG.
///
/// [`StgSimulator::new`] compiles the STG once: every operation instance
/// it references gets a dense register-file slot, and every state
/// becomes a flat op list plus slot-addressed transitions. A run then
/// does no hashing and allocates nothing per operation, so one compiled
/// simulator serves any number of runs (it is `Sync`).
///
/// # Example
///
/// ```
/// use hls_lang::Program;
/// use hls_resources::{Allocation, FuClass, Library};
/// use wavesched::{schedule, Mode, SchedConfig};
/// use hls_sim::StgSimulator;
///
/// let p = Program::parse("design d { input a; output o; o = a + 1; }")?;
/// let g = hls_lang::lower::compile(&p)?;
/// let r = schedule(
///     &g,
///     &Library::dac98(),
///     &Allocation::new().with(FuClass::Incrementer, 1),
///     &Default::default(),
///     &SchedConfig::new(Mode::Speculative),
/// )?;
/// let sim = StgSimulator::new(&g, &r.stg);
/// let out = sim.run(&[("a", 41)], &Default::default(), 1_000)?;
/// assert_eq!(out.outputs["o"], 42);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct StgSimulator<'a> {
    g: &'a Cdfg,
    states: Vec<SimState>,
    operands: Vec<Operand>,
    /// Slot → instance, for error messages.
    insts: Vec<OpInst>,
    start: StateId,
    stop: StateId,
}

impl<'a> StgSimulator<'a> {
    /// Compiles `stg`, which must have been scheduled from `g`, into a
    /// simulator.
    pub fn new<'s>(g: &'a Cdfg, stg: &'s Stg) -> Self {
        let mut slots: HashMap<&'s OpInst, usize> = HashMap::new();
        let mut insts: Vec<OpInst> = Vec::new();
        let mut slot = |inst: &'s OpInst| -> usize {
            *slots.entry(inst).or_insert_with(|| {
                insts.push(inst.clone());
                insts.len() - 1
            })
        };
        let mut operands = Vec::new();
        let states = stg
            .states()
            .iter()
            .map(|st| SimState {
                ops: st
                    .ops
                    .iter()
                    .map(|op| {
                        let first = operands.len();
                        operands.extend(op.operands.iter().map(|o| match o {
                            ValRef::Const(v) => Operand::Const(*v),
                            ValRef::Input(i) => Operand::Input(i.index()),
                            ValRef::Inst(inst) => Operand::Slot(slot(inst)),
                        }));
                        SimOp {
                            kind: g.op(op.inst.op).kind(),
                            dest: slot(&op.inst),
                            operands: first..operands.len(),
                        }
                    })
                    .collect(),
                transitions: st
                    .transitions
                    .iter()
                    .map(|t| SimTransition {
                        when: t.when.iter().map(|(i, w)| (slot(i), *w)).collect(),
                        target: t.target,
                        renames: t
                            .renames
                            .iter()
                            .map(|(from, to)| (slot(from), slot(to)))
                            .collect(),
                    })
                    .collect(),
            })
            .collect();
        StgSimulator {
            g,
            states,
            operands,
            insts,
            start: stg.start(),
            stop: stg.stop(),
        }
    }

    /// Runs one input vector to STOP.
    ///
    /// `mem_init` maps memory names to initial contents (zero-extended to
    /// the declared size; missing memories start zeroed).
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn run(
        &self,
        inputs: &[(&str, Value)],
        mem_init: &HashMap<String, Vec<Value>>,
        cycle_limit: u64,
    ) -> Result<SimOutcome, SimError> {
        let input_by_name: HashMap<&str, Value> = inputs.iter().copied().collect();
        let mut input_vals: Vec<Value> = Vec::new();
        for (_, name) in self.g.inputs() {
            let v = input_by_name
                .get(name.as_str())
                .copied()
                .ok_or_else(|| SimError::MissingInput(name.clone()))?;
            input_vals.push(v);
        }
        let mut mems: Vec<Vec<Value>> = self
            .g
            .mems()
            .iter()
            .map(|m| {
                let mut cells = mem_init.get(m.name()).cloned().unwrap_or_default();
                cells.resize(m.size(), 0);
                cells.truncate(m.size());
                cells
            })
            .collect();
        let mut outputs: Vec<Value> = vec![0; self.g.outputs().len()];
        let mut regs: Vec<Option<Value>> = vec![None; self.insts.len()];
        let mut vals: Vec<Value> = Vec::new();
        let mut moved: Vec<Option<Value>> = Vec::new();
        let missing = |slot: usize, state: StateId| format!("{} in {state}", self.insts[slot]);

        let mut state = self.start;
        let mut cycles: u64 = 0;
        while state != self.stop {
            if cycles >= cycle_limit {
                return Err(SimError::CycleLimit(cycle_limit));
            }
            cycles += 1;
            let st = &self.states[state.index()];
            for op in &st.ops {
                vals.clear();
                for o in &self.operands[op.operands.clone()] {
                    vals.push(match *o {
                        Operand::Const(v) => v,
                        Operand::Input(i) => input_vals[i],
                        Operand::Slot(s) => {
                            regs[s].ok_or_else(|| SimError::MissingValue(missing(s, state)))?
                        }
                    });
                }
                let result = match op.kind {
                    // Scheduled pass-throughs are register transfers of
                    // their single resolved source.
                    OpKind::Pass | OpKind::Select => vals[0],
                    OpKind::MemRead(m) => {
                        let mem = &mems[m.index()];
                        let idx = vals[0].rem_euclid(mem.len() as Value) as usize;
                        mem[idx]
                    }
                    OpKind::MemWrite(m) => {
                        let mem = &mut mems[m.index()];
                        let idx = vals[0].rem_euclid(mem.len() as Value) as usize;
                        mem[idx] = vals[1];
                        vals[1]
                    }
                    OpKind::Output(o) => {
                        outputs[o.index()] = vals[0];
                        vals[0]
                    }
                    k => k.eval(&vals, None),
                };
                regs[op.dest] = Some(result);
            }
            // Select the first transition whose condition combination
            // matches.
            let mut chosen = None;
            'outer: for t in &st.transitions {
                for &(s, want) in &t.when {
                    let v = regs[s].ok_or_else(|| {
                        SimError::MissingValue(format!("condition {}", missing(s, state)))
                    })?;
                    if (v != 0) != want {
                        continue 'outer;
                    }
                }
                chosen = Some(t);
                break;
            }
            let t = chosen.ok_or_else(|| SimError::NoTransition(state.to_string()))?;
            // Register transfers on the edge, applied atomically: read
            // every source, clear every source, then write each target
            // whose source held a value.
            moved.clear();
            moved.extend(t.renames.iter().map(|&(from, _)| regs[from]));
            for &(from, _) in &t.renames {
                regs[from] = None;
            }
            for (&(_, to), v) in t.renames.iter().zip(&moved) {
                if v.is_some() {
                    regs[to] = *v;
                }
            }
            state = t.target;
        }

        Ok(SimOutcome {
            outputs: self
                .g
                .outputs()
                .iter()
                .map(|(id, name)| (name.clone(), outputs[id.index()]))
                .collect(),
            mems: self
                .g
                .mems()
                .iter()
                .map(|m| (m.name().to_string(), mems[m.id().index()].clone()))
                .collect(),
            cycles,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdfg::analysis::BranchProbs;
    use hls_lang::Program;
    use hls_resources::{Allocation, FuClass, Library};
    use stg::{StateId, Transition};
    use wavesched::{schedule, Mode, SchedConfig};

    fn run_design(src: &str, mode: Mode, alloc: Allocation, inputs: &[(&str, i64)]) -> SimOutcome {
        let p = Program::parse(src).unwrap();
        let g = hls_lang::lower::compile(&p).unwrap();
        let r = schedule(
            &g,
            &Library::dac98(),
            &alloc,
            &BranchProbs::new(),
            &SchedConfig::new(mode),
        )
        .unwrap();
        StgSimulator::new(&g, &r.stg)
            .run(inputs, &HashMap::new(), 100_000)
            .unwrap()
    }

    #[test]
    fn straight_line_computes() {
        let out = run_design(
            "design d { input a, b; output s, p; s = a + b; p = (a - b) * 2; }",
            Mode::Speculative,
            Allocation::new()
                .with(FuClass::Adder, 1)
                .with(FuClass::Subtracter, 1)
                .with(FuClass::Multiplier, 1),
            &[("a", 9), ("b", 5)],
        );
        assert_eq!(out.outputs["s"], 14);
        assert_eq!(out.outputs["p"], 8);
        assert!(out.cycles >= 2, "multiply takes two cycles");
    }

    #[test]
    fn gcd_all_modes_agree_with_interpreter() {
        let src = "design gcd { input x, y; output g; var a = x; var b = y;
            while (a != b) { if (a > b) { a = a - b; } else { b = b - a; } } g = a; }";
        let alloc = || {
            Allocation::new()
                .with(FuClass::Subtracter, 2)
                .with(FuClass::Comparator, 1)
                .with(FuClass::EqComparator, 2)
        };
        for mode in [Mode::NonSpeculative, Mode::SinglePath, Mode::Speculative] {
            for (x, y, want) in [(54, 24, 6), (7, 13, 1), (9, 9, 9), (1, 8, 1)] {
                let out = run_design(src, mode, alloc(), &[("x", x), ("y", y)]);
                assert_eq!(out.outputs["g"], want, "{mode}: gcd({x},{y})");
            }
        }
    }

    #[test]
    fn speculative_is_faster_on_loops() {
        let src = "design d { input n; output o; var i = 0;
            while (i < n) { i = i + 1; } o = i; }";
        let alloc = || {
            Allocation::new()
                .with(FuClass::Incrementer, 1)
                .with(FuClass::Comparator, 1)
        };
        let ns = run_design(src, Mode::NonSpeculative, alloc(), &[("n", 20)]);
        let sp = run_design(src, Mode::Speculative, alloc(), &[("n", 20)]);
        assert_eq!(ns.outputs["o"], 20);
        assert_eq!(sp.outputs["o"], 20);
        assert!(
            sp.cycles < ns.cycles,
            "speculation pipelines the loop: {} vs {}",
            sp.cycles,
            ns.cycles
        );
        // Steady state reaches one iteration per cycle (plus constant
        // fill/drain), versus ≥ 2 for the serial schedule.
        assert!(
            sp.cycles <= 20 + 4,
            "~1 cycle per iteration, got {}",
            sp.cycles
        );
        assert!(ns.cycles >= 2 * 20, "serial schedule pays the dependence");
    }

    #[test]
    fn memory_designs_simulate() {
        let src = "design d { input n; output sum; mem A[8];
            var i = 0; var s = 0;
            while (i < n) { s = s + A[i]; i = i + 1; } sum = s; }";
        let p = Program::parse(src).unwrap();
        let g = hls_lang::lower::compile(&p).unwrap();
        let r = schedule(
            &g,
            &Library::dac98(),
            &Allocation::new()
                .with(FuClass::Adder, 1)
                .with(FuClass::Incrementer, 1)
                .with(FuClass::Comparator, 1),
            &BranchProbs::new(),
            &SchedConfig::new(Mode::Speculative),
        )
        .unwrap();
        let mut init = HashMap::new();
        init.insert("A".to_string(), vec![1, 2, 3, 4, 5, 6, 7, 8]);
        let out = StgSimulator::new(&g, &r.stg)
            .run(&[("n", 5)], &init, 100_000)
            .unwrap();
        assert_eq!(out.outputs["sum"], 15);
    }

    #[test]
    fn store_then_load_roundtrip() {
        let out = run_design(
            "design d { input a; output o; mem M[4]; M[1] = a * 2; o = M[1] + 1; }",
            Mode::Speculative,
            Allocation::new()
                .with(FuClass::Multiplier, 1)
                .with(FuClass::Adder, 1)
                .with(FuClass::Incrementer, 1),
            &[("a", 21)],
        );
        assert_eq!(out.outputs["o"], 43);
        assert_eq!(out.mems["M"], vec![0, 42, 0, 0]);
    }

    const GCD: &str = "design gcd { input x, y; output g; var a = x; var b = y;
        while (a != b) { if (a > b) { a = a - b; } else { b = b - a; } } g = a; }";

    /// GCD scheduled speculatively: a loop, a branch inside it, and
    /// fold-edge renames, so every error path has something to corrupt.
    fn gcd_stg() -> (Cdfg, Stg) {
        let g = hls_lang::lower::compile(&Program::parse(GCD).unwrap()).unwrap();
        let r = schedule(
            &g,
            &Library::dac98(),
            &Allocation::new()
                .with(FuClass::Subtracter, 2)
                .with(FuClass::Comparator, 1)
                .with(FuClass::EqComparator, 2),
            &BranchProbs::new(),
            &SchedConfig::new(Mode::Speculative),
        )
        .unwrap();
        (g, r.stg)
    }

    fn run_gcd(g: &Cdfg, stg: &Stg, cycle_limit: u64) -> Result<SimOutcome, SimError> {
        StgSimulator::new(g, stg).run(&[("x", 54), ("y", 24)], &HashMap::new(), cycle_limit)
    }

    /// Removes every scheduled op that produces `inst`.
    fn drop_producers(stg: &mut Stg, inst: &OpInst) {
        for i in 0..stg.states().len() {
            let st = stg.state_mut(StateId(i as u32));
            st.ops.retain(|o| o.inst != *inst);
        }
    }

    /// Working states other than the start state, in index order: the
    /// corruptions below land there so the messages name a later state.
    fn later_states(stg: &Stg) -> impl Iterator<Item = StateId> + '_ {
        (0..stg.states().len())
            .map(|i| StateId(i as u32))
            .filter(move |&s| s != stg.start() && s != stg.stop())
    }

    #[test]
    fn dropped_operand_producer_is_a_missing_value() {
        let (g, mut stg) = gcd_stg();
        // The first instance a later state both produces and reads.
        let read = later_states(&stg)
            .find_map(|s| {
                let st = stg.state(s);
                st.ops
                    .iter()
                    .flat_map(|o| &o.operands)
                    .find_map(|v| match v {
                        ValRef::Inst(i) if st.ops.iter().any(|o| o.inst == *i) => Some(i.clone()),
                        _ => None,
                    })
            })
            .unwrap();
        drop_producers(&mut stg, &read);
        let err = run_gcd(&g, &stg, 1_000).unwrap_err();
        assert_eq!(err, SimError::MissingValue("op5_1 in S2".into()), "{read}");
    }

    #[test]
    fn dropped_condition_producer_is_a_missing_value() {
        let (g, mut stg) = gcd_stg();
        // The first condition of a later state that no op reads and no
        // rename moves.
        let used = |i: &OpInst| {
            stg.states().iter().any(|s| {
                s.ops
                    .iter()
                    .any(|o| o.operands.contains(&ValRef::Inst(i.clone())))
                    || s.transitions
                        .iter()
                        .any(|t| t.renames.iter().any(|(a, b)| a == i || b == i))
            })
        };
        let cond = later_states(&stg)
            .flat_map(|s| &stg.state(s).transitions)
            .flat_map(|t| &t.when)
            .map(|(i, _)| i.clone())
            .find(|i| !used(i))
            .unwrap();
        drop_producers(&mut stg, &cond);
        let err = run_gcd(&g, &stg, 1_000).unwrap_err();
        assert_eq!(
            err,
            SimError::MissingValue("condition op3_1 in S2".into()),
            "{cond}"
        );
    }

    #[test]
    fn removed_matching_transition_is_no_transition() {
        let (g, mut stg) = gcd_stg();
        // The first later state with a choice loses its first transition,
        // the one gcd(54, 24) takes there (54 > 24, then 30 > 24).
        let s = later_states(&stg)
            .find(|&s| stg.state(s).transitions.len() > 1)
            .unwrap();
        stg.state_mut(s).transitions.remove(0);
        let err = run_gcd(&g, &stg, 1_000).unwrap_err();
        assert_eq!(err, SimError::NoTransition("S2".into()));
    }

    #[test]
    fn renames_are_atomic() {
        // S0 computes x's and y's sums; its edge swaps their registers
        // and moves an instance nothing produced onto x's; S2 outputs
        // both. Renames applied one by one would lose a value.
        let src = "design d { input a, b; output x, y; x = a + 1; y = b + 1; }";
        let g = hls_lang::lower::compile(&Program::parse(src).unwrap()).unwrap();
        let output = |name: &str| {
            g.ops()
                .iter()
                .find(|o| matches!(o.kind(), OpKind::Output(i) if g.outputs()[i.index()].1 == name))
                .unwrap()
        };
        let inst = |op: &cdfg::Op| OpInst::new(op.id(), vec![]);
        let issue = |op: &cdfg::Op, operands: Vec<ValRef>| stg::ScheduledOp {
            inst: inst(op),
            operands,
            latency: 1,
            guard_str: "1".into(),
        };
        // An op reading only inputs and constants, issued with them.
        let issue_leaf = |op: &cdfg::Op| {
            let operands = op.ports().iter().map(|p| match g.op(p.src()).kind() {
                OpKind::Input(i) => ValRef::Input(i),
                OpKind::Const(v) => ValRef::Const(v),
                k => panic!("unexpected source {k}"),
            });
            issue(op, operands.collect())
        };
        let (out_x, out_y) = (output("x"), output("y"));
        let sum_x = g.op(out_x.ports()[0].src());
        let sum_y = g.op(out_y.ports()[0].src());
        let ghost = OpInst::new(sum_x.id(), vec![7]);

        let mut stg = Stg::new("swap");
        let (start, stop) = (stg.start(), stg.stop());
        let s2 = stg.add_state();
        let s0 = stg.state_mut(start);
        s0.ops = vec![issue_leaf(sum_x), issue_leaf(sum_y)];
        s0.transitions = vec![Transition {
            when: vec![],
            target: s2,
            renames: vec![
                (inst(sum_x), inst(sum_y)),
                (inst(sum_y), inst(sum_x)),
                (ghost, inst(sum_x)),
            ],
        }];
        let s2 = stg.state_mut(s2);
        s2.ops = vec![
            issue(out_x, vec![ValRef::Inst(inst(sum_x))]),
            issue(out_y, vec![ValRef::Inst(inst(sum_y))]),
        ];
        s2.transitions = vec![Transition {
            when: vec![],
            target: stop,
            renames: vec![],
        }];

        let out = StgSimulator::new(&g, &stg)
            .run(&[("a", 10), ("b", 20)], &HashMap::new(), 10)
            .unwrap();
        assert_eq!(
            (out.outputs["x"], out.outputs["y"], out.cycles),
            (21, 11, 2)
        );
    }

    #[test]
    fn cycle_limit_is_reported() {
        let (g, stg) = gcd_stg();
        let err = run_gcd(&g, &stg, 3).unwrap_err();
        assert_eq!(err, SimError::CycleLimit(3));
    }

    #[test]
    fn missing_input_is_reported() {
        let p = Program::parse("design d { input a; output o; o = a + 1; }").unwrap();
        let g = hls_lang::lower::compile(&p).unwrap();
        let r = schedule(
            &g,
            &Library::dac98(),
            &Allocation::new().with(FuClass::Incrementer, 1),
            &BranchProbs::new(),
            &SchedConfig::new(Mode::Speculative),
        )
        .unwrap();
        let err = StgSimulator::new(&g, &r.stg)
            .run(&[], &HashMap::new(), 100)
            .unwrap_err();
        assert_eq!(err, SimError::MissingInput("a".into()));
    }
}
