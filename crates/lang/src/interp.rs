//! Reference interpreter for behavioral descriptions — the functional
//! golden model.
//!
//! Every schedule produced by the schedulers is ultimately validated by
//! comparing STG simulation results against this interpreter (see the
//! `hls-sim` crate). The interpreter walks the AST with conventional
//! imperative semantics and is deliberately independent of the CDFG
//! lowering, so agreement between the two is meaningful evidence of
//! correctness.
//!
//! Names are resolved once per program: [`Resolved::new`] turns the AST
//! into a mirror tree whose identifiers are slots — a dense index per
//! `var` declaration, input, output and memory — and [`Resolved::run`]
//! walks that tree over flat `Vec`s, once per input vector. A name that
//! does not resolve becomes a node that raises its [`ExecError`] when,
//! and only when, execution reaches it. [`run`] resolves and runs in
//! one call.

use crate::ast::{BinOp, Expr, Program, Stmt, UnOp};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

/// Initial memory contents by memory name. Memories absent from the image
/// start zero-filled.
#[derive(Debug, Clone, Default)]
pub struct MemImage {
    /// Map from memory name to initial cell values (shorter vectors are
    /// zero-extended to the declared size).
    pub contents: HashMap<String, Vec<i64>>,
}

impl MemImage {
    /// Creates an empty image (all memories zero-filled).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the initial contents of one memory (builder style).
    pub fn with(mut self, name: impl Into<String>, cells: Vec<i64>) -> Self {
        self.contents.insert(name.into(), cells);
        self
    }
}

/// The result of executing a behavioral description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecOutcome {
    /// Final output values. Unassigned outputs read 0 (the hardware reset
    /// convention shared with the CDFG lowering).
    pub outputs: BTreeMap<String, i64>,
    /// Final memory contents by name.
    pub mems: HashMap<String, Vec<i64>>,
    /// Statements (plus loop-condition checks) executed.
    pub steps: u64,
}

/// Errors raised during execution (or by pre-execution checks).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A name was declared more than once.
    Duplicate(String),
    /// A variable (or input) is referenced but not in scope.
    Unbound(String),
    /// A memory name was used where a value was expected, or vice versa.
    NotAMem(String),
    /// Assignment to a primary input.
    AssignToInput(String),
    /// A required input value was not supplied to [`run`].
    MissingInput(String),
    /// The step limit was exhausted (runaway loop).
    StepLimit,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Duplicate(n) => write!(f, "duplicate declaration of `{n}`"),
            ExecError::Unbound(n) => write!(f, "`{n}` is not in scope"),
            ExecError::NotAMem(n) => write!(f, "`{n}` is not a memory"),
            ExecError::AssignToInput(n) => write!(f, "cannot assign to input `{n}`"),
            ExecError::MissingInput(n) => write!(f, "no value supplied for input `{n}`"),
            ExecError::StepLimit => write!(f, "step limit exhausted"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Checks the program's name discipline: inputs, outputs, memories, and
/// top-level declarations must not collide.
///
/// # Errors
///
/// Returns [`ExecError::Duplicate`] on the first collision.
pub fn check_names(p: &Program) -> Result<(), ExecError> {
    let mut seen = HashSet::new();
    for n in p
        .inputs
        .iter()
        .chain(&p.outputs)
        .chain(p.mems.iter().map(|(n, _)| n))
    {
        if !seen.insert(n.clone()) {
            return Err(ExecError::Duplicate(n.clone()));
        }
    }
    Ok(())
}

/// Executes a program with the given input values and memory image.
///
/// `step_limit` bounds the number of executed statements and loop checks;
/// exceeding it returns [`ExecError::StepLimit`] (behavioral descriptions
/// with data-dependent loops may diverge for some inputs). Equivalent to
/// [`Resolved::new`] followed by [`Resolved::run`]; resolve once instead
/// when running many input vectors.
///
/// # Errors
///
/// See [`ExecError`].
pub fn run(
    p: &Program,
    inputs: &[(&str, i64)],
    image: &MemImage,
    step_limit: u64,
) -> Result<ExecOutcome, ExecError> {
    Resolved::new(p)?.run(inputs, image, step_limit)
}

/// A program with every name resolved to a slot, ready to run on any
/// number of input vectors. Immutable, so concurrent runs may share it.
///
/// Resolution is exact because `var` may not redeclare a name already
/// visible (an input, output, memory or enclosing local) and every block
/// runs in a fresh scope: the binding a name has at run time is the one
/// visible at its position in the source.
#[derive(Debug)]
pub struct Resolved<'p> {
    program: &'p Program,
    body: Vec<RStmt>,
    /// Number of `var` declarations, one local slot each.
    locals: usize,
}

/// [`Stmt`] with resolved names. An `Err` is a name that did not
/// resolve; it is raised where the original walker raised it.
#[derive(Debug)]
enum RStmt {
    /// Local slot, or `Duplicate` (raised before the initializer runs).
    Var(Result<usize, ExecError>, RExpr),
    /// Target, or `AssignToInput`/`Unbound` (raised after the value).
    Assign(Result<Place, ExecError>, RExpr),
    /// Memory index, or `NotAMem` (raised after address and value).
    Store(Result<usize, ExecError>, RExpr, RExpr),
    If(RExpr, Vec<RStmt>, Vec<RStmt>),
    While(RExpr, Vec<RStmt>),
}

/// A writable variable.
#[derive(Debug, Clone, Copy)]
enum Place {
    Local(usize),
    Output(usize),
}

/// [`Expr`] with resolved names.
#[derive(Debug)]
enum RExpr {
    Int(i64),
    Local(usize),
    Input(usize),
    Output(usize),
    /// An identifier naming no value: `NotAMem` or `Unbound`.
    Fail(ExecError),
    /// Memory index, or `NotAMem` (raised after the address).
    Load(Result<usize, ExecError>, Box<RExpr>),
    Unary(UnOp, Box<RExpr>),
    Binary(BinOp, Box<RExpr>, Box<RExpr>),
}

impl<'p> Resolved<'p> {
    /// Checks the program's names ([`check_names`]) and resolves every
    /// identifier.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Duplicate`] if inputs, outputs and memories
    /// collide. Every other name error is deferred to [`Resolved::run`].
    pub fn new(p: &'p Program) -> Result<Self, ExecError> {
        check_names(p)?;
        let mut r = Resolver {
            p,
            scope: Vec::new(),
            locals: 0,
        };
        let body = r.block(&p.body);
        Ok(Self {
            program: p,
            body,
            locals: r.locals,
        })
    }

    /// Executes the program on one input vector and memory image; the
    /// last pair for a repeated input name wins.
    ///
    /// `step_limit` bounds the number of executed statements and loop
    /// checks; exceeding it returns [`ExecError::StepLimit`].
    ///
    /// # Errors
    ///
    /// See [`ExecError`].
    pub fn run(
        &self,
        inputs: &[(&str, i64)],
        image: &MemImage,
        step_limit: u64,
    ) -> Result<ExecOutcome, ExecError> {
        let p = self.program;
        let inputs = p
            .inputs
            .iter()
            .map(|n| {
                inputs
                    .iter()
                    .rev()
                    .find(|(m, _)| m == n)
                    .map(|&(_, v)| v)
                    .ok_or_else(|| ExecError::MissingInput(n.clone()))
            })
            .collect::<Result<_, _>>()?;
        let mems = p
            .mems
            .iter()
            .map(|(n, size)| {
                let init = image.contents.get(n).map_or(&[][..], Vec::as_slice);
                let mut cells = init[..init.len().min(*size)].to_vec();
                cells.resize(*size, 0);
                cells
            })
            .collect();
        let mut st = State {
            locals: vec![0; self.locals],
            inputs,
            outputs: vec![0; p.outputs.len()],
            mems,
            steps: 0,
            step_limit,
        };
        st.stmts(&self.body)?;
        Ok(ExecOutcome {
            outputs: p.outputs.iter().cloned().zip(st.outputs).collect(),
            mems: p.mems.iter().map(|(n, _)| n.clone()).zip(st.mems).collect(),
            steps: st.steps,
        })
    }
}

struct Resolver<'p> {
    p: &'p Program,
    /// Locals visible at the current position, innermost last.
    scope: Vec<(&'p str, usize)>,
    locals: usize,
}

impl<'p> Resolver<'p> {
    fn block(&mut self, stmts: &'p [Stmt]) -> Vec<RStmt> {
        let mark = self.scope.len();
        let out = stmts.iter().map(|s| self.stmt(s)).collect();
        self.scope.truncate(mark);
        out
    }

    fn stmt(&mut self, s: &'p Stmt) -> RStmt {
        match s {
            Stmt::Var(n, e) => {
                // The initializer cannot see the name it initializes.
                let init = self.expr(e);
                let taken = self.p.inputs.contains(n)
                    || self.p.outputs.contains(n)
                    || self.mem(n).is_ok()
                    || self.local(n).is_some();
                let slot = if taken {
                    Err(ExecError::Duplicate(n.clone()))
                } else {
                    self.scope.push((n, self.locals));
                    self.locals += 1;
                    Ok(self.locals - 1)
                };
                RStmt::Var(slot, init)
            }
            Stmt::Assign(n, e) => {
                let place = if self.p.inputs.contains(n) {
                    Err(ExecError::AssignToInput(n.clone()))
                } else if let Some(k) = self.local(n) {
                    Ok(Place::Local(k))
                } else if let Some(j) = self.p.outputs.iter().position(|o| o == n) {
                    Ok(Place::Output(j))
                } else {
                    Err(ExecError::Unbound(n.clone()))
                };
                RStmt::Assign(place, self.expr(e))
            }
            Stmt::Store(m, a, v) => RStmt::Store(self.mem(m), self.expr(a), self.expr(v)),
            Stmt::If(c, t, e) => RStmt::If(self.expr(c), self.block(t), self.block(e)),
            Stmt::While(c, b) => RStmt::While(self.expr(c), self.block(b)),
        }
    }

    fn expr(&self, e: &Expr) -> RExpr {
        let sub = |e: &Expr| Box::new(self.expr(e));
        match e {
            Expr::Int(v) => RExpr::Int(*v),
            Expr::Ident(n) => {
                if let Some(k) = self.local(n) {
                    RExpr::Local(k)
                } else if let Some(i) = self.p.inputs.iter().position(|x| x == n) {
                    RExpr::Input(i)
                } else if let Some(j) = self.p.outputs.iter().position(|o| o == n) {
                    RExpr::Output(j)
                } else if self.mem(n).is_ok() {
                    RExpr::Fail(ExecError::NotAMem(n.clone()))
                } else {
                    RExpr::Fail(ExecError::Unbound(n.clone()))
                }
            }
            Expr::Load(m, a) => RExpr::Load(self.mem(m), sub(a)),
            Expr::Unary(op, x) => RExpr::Unary(*op, sub(x)),
            Expr::Binary(op, l, r) => RExpr::Binary(*op, sub(l), sub(r)),
        }
    }

    fn local(&self, n: &str) -> Option<usize> {
        self.scope
            .iter()
            .rev()
            .find(|(m, _)| *m == n)
            .map(|&(_, k)| k)
    }

    fn mem(&self, n: &str) -> Result<usize, ExecError> {
        self.p
            .mems
            .iter()
            .position(|(m, _)| m == n)
            .ok_or_else(|| ExecError::NotAMem(n.to_string()))
    }
}

struct State {
    locals: Vec<i64>,
    inputs: Vec<i64>,
    outputs: Vec<i64>,
    mems: Vec<Vec<i64>>,
    steps: u64,
    step_limit: u64,
}

impl State {
    fn tick(&mut self) -> Result<(), ExecError> {
        self.steps += 1;
        if self.steps > self.step_limit {
            Err(ExecError::StepLimit)
        } else {
            Ok(())
        }
    }

    fn stmts(&mut self, stmts: &[RStmt]) -> Result<(), ExecError> {
        for s in stmts {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &RStmt) -> Result<(), ExecError> {
        self.tick()?;
        match s {
            RStmt::Var(slot, e) => {
                let k = slot.clone()?;
                self.locals[k] = self.eval(e)?;
            }
            RStmt::Assign(place, e) => {
                let v = self.eval(e)?;
                match place.clone()? {
                    Place::Local(k) => self.locals[k] = v,
                    Place::Output(j) => self.outputs[j] = v,
                }
            }
            RStmt::Store(m, addr, val) => {
                let a = self.eval(addr)?;
                let v = self.eval(val)?;
                let mem = &mut self.mems[m.clone()?];
                let idx = a.rem_euclid(mem.len() as i64) as usize;
                mem[idx] = v;
            }
            RStmt::If(c, t, e) => {
                let taken = if self.eval(c)? != 0 { t } else { e };
                self.stmts(taken)?;
            }
            RStmt::While(c, b) => loop {
                self.tick()?;
                if self.eval(c)? == 0 {
                    break;
                }
                self.stmts(b)?;
            },
        }
        Ok(())
    }

    fn eval(&self, e: &RExpr) -> Result<i64, ExecError> {
        Ok(match e {
            RExpr::Int(v) => *v,
            RExpr::Local(k) => self.locals[*k],
            RExpr::Input(i) => self.inputs[*i],
            RExpr::Output(j) => self.outputs[*j],
            RExpr::Fail(err) => return Err(err.clone()),
            RExpr::Load(m, addr) => {
                let a = self.eval(addr)?;
                let mem = &self.mems[m.clone()?];
                mem[a.rem_euclid(mem.len() as i64) as usize]
            }
            RExpr::Unary(UnOp::Not, x) => i64::from(self.eval(x)? == 0),
            RExpr::Unary(UnOp::Neg, x) => self.eval(x)?.wrapping_neg(),
            RExpr::Binary(op, l, r) => {
                let a = self.eval(l)?;
                let b = self.eval(r)?;
                match op {
                    BinOp::Or => i64::from(a != 0 || b != 0),
                    BinOp::And => i64::from(a != 0 && b != 0),
                    BinOp::Eq => i64::from(a == b),
                    BinOp::Ne => i64::from(a != b),
                    BinOp::Lt => i64::from(a < b),
                    BinOp::Le => i64::from(a <= b),
                    BinOp::Gt => i64::from(a > b),
                    BinOp::Ge => i64::from(a >= b),
                    BinOp::Shl => a.wrapping_shl((b.rem_euclid(64)) as u32),
                    BinOp::Shr => a.wrapping_shr((b.rem_euclid(64)) as u32),
                    BinOp::Xor => a ^ b,
                    BinOp::Add => a.wrapping_add(b),
                    BinOp::Sub => a.wrapping_sub(b),
                    BinOp::Mul => a.wrapping_mul(b),
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Program;

    fn run_src(src: &str, inputs: &[(&str, i64)]) -> ExecOutcome {
        let p = Program::parse(src).unwrap();
        run(&p, inputs, &MemImage::new(), 100_000).unwrap()
    }

    #[test]
    fn straight_line() {
        let o = run_src(
            "design d { input a, b; output s, p; s = a + b; p = a * b; }",
            &[("a", 3), ("b", 4)],
        );
        assert_eq!(o.outputs["s"], 7);
        assert_eq!(o.outputs["p"], 12);
    }

    #[test]
    fn gcd_computes() {
        let src = "design gcd { input x, y; output g; var a = x; var b = y; \
                   while (a != b) { if (a > b) { a = a - b; } else { b = b - a; } } g = a; }";
        assert_eq!(run_src(src, &[("x", 54), ("y", 24)]).outputs["g"], 6);
        assert_eq!(run_src(src, &[("x", 7), ("y", 13)]).outputs["g"], 1);
        assert_eq!(run_src(src, &[("x", 9), ("y", 9)]).outputs["g"], 9);
    }

    #[test]
    fn while_with_memory() {
        let p = Program::parse(
            "design d { input n; output sum; mem A[8]; var i = 0; var s = 0; \
             while (i < n) { s = s + A[i]; i = i + 1; } sum = s; }",
        )
        .unwrap();
        let img = MemImage::new().with("A", vec![1, 2, 3, 4, 5, 6, 7, 8]);
        let o = run(&p, &[("n", 5)], &img, 100_000).unwrap();
        assert_eq!(o.outputs["sum"], 15);
    }

    #[test]
    fn store_then_load() {
        let o = run_src(
            "design d { input a; output o; mem M[4]; M[1] = a * 2; o = M[1] + M[0]; }",
            &[("a", 21)],
        );
        assert_eq!(o.outputs["o"], 42);
        assert_eq!(o.mems["M"], vec![0, 42, 0, 0]);
    }

    #[test]
    fn address_wraps_modulo_size() {
        let o = run_src(
            "design d { input a; output o; mem M[4]; M[5] = 9; o = M[1]; }",
            &[("a", 0)],
        );
        assert_eq!(o.outputs["o"], 9);
        // Negative addresses wrap too (Euclidean remainder).
        let o = run_src(
            "design d { output o; mem M[4]; M[0 - 1] = 7; o = M[3]; }",
            &[],
        );
        assert_eq!(o.outputs["o"], 7);
    }

    #[test]
    fn unassigned_output_reads_zero() {
        let o = run_src("design d { input a; output x, y; x = a; }", &[("a", 5)]);
        assert_eq!(o.outputs["y"], 0);
    }

    #[test]
    fn branch_scoping_drops_locals() {
        let p = Program::parse(
            "design d { input a; output o; if (a > 0) { var t = a * 2; o = t; } o = o + t; }",
        )
        .unwrap();
        let e = run(&p, &[("a", 1)], &MemImage::new(), 1000).unwrap_err();
        assert_eq!(e, ExecError::Unbound("t".into()));
    }

    #[test]
    fn step_limit_catches_divergence() {
        let p = Program::parse("design d { output o; while (1) { o = o + 1; } }").unwrap();
        let e = run(&p, &[], &MemImage::new(), 500).unwrap_err();
        assert_eq!(e, ExecError::StepLimit);
    }

    #[test]
    fn input_errors() {
        let p = Program::parse("design d { input a; output o; o = a; }").unwrap();
        assert_eq!(
            run(&p, &[], &MemImage::new(), 100).unwrap_err(),
            ExecError::MissingInput("a".into())
        );
        let p = Program::parse("design d { input a; output o; a = 1; }").unwrap();
        assert_eq!(
            run(&p, &[("a", 0)], &MemImage::new(), 100).unwrap_err(),
            ExecError::AssignToInput("a".into())
        );
    }

    #[test]
    fn duplicate_names_rejected() {
        let p = Program::parse("design d { input a; output a; }").unwrap();
        assert_eq!(
            run(&p, &[("a", 0)], &MemImage::new(), 100).unwrap_err(),
            ExecError::Duplicate("a".into())
        );
        let p = Program::parse("design d { input a; var a = 1; }").unwrap();
        assert_eq!(
            run(&p, &[("a", 0)], &MemImage::new(), 100).unwrap_err(),
            ExecError::Duplicate("a".into())
        );
    }

    #[test]
    fn logic_and_shift_semantics() {
        let o = run_src(
            "design d { input a; output w, x, y, z; w = !a; x = a && 0; y = a || 0; z = a >> 1; }",
            &[("a", 6)],
        );
        assert_eq!(o.outputs["w"], 0);
        assert_eq!(o.outputs["x"], 0);
        assert_eq!(o.outputs["y"], 1);
        assert_eq!(o.outputs["z"], 3);
    }

    #[test]
    fn nested_loops() {
        let o = run_src(
            "design d { input n; output acc; var i = 0; var s = 0; \
             while (i < n) { var j = 0; while (j < i) { s = s + 1; j = j + 1; } i = i + 1; } \
             acc = s; }",
            &[("n", 5)],
        );
        assert_eq!(o.outputs["acc"], 10, "0+1+2+3+4");
    }

    // The cases below pin the referee's observable semantics: results,
    // step counts, and which error is raised at which point.

    const GCD: &str = "design gcd { input x, y; output g; var a = x; var b = y; \
                       while (a != b) { if (a > b) { a = a - b; } else { b = b - a; } } g = a; }";

    fn run_err(src: &str, inputs: &[(&str, i64)]) -> ExecError {
        let p = Program::parse(src).unwrap();
        run(&p, inputs, &MemImage::new(), 1000).unwrap_err()
    }

    #[test]
    fn gcd_step_count_is_exact() {
        let p = Program::parse(GCD).unwrap();
        let ins = [("x", 54), ("y", 24)];
        let o = run(&p, &ins, &MemImage::new(), 20).unwrap();
        assert_eq!((o.outputs["g"], o.steps), (6, 20));
        assert_eq!(
            run(&p, &ins, &MemImage::new(), 19).unwrap_err(),
            ExecError::StepLimit
        );
    }

    #[test]
    fn duplicate_input_pairs_last_wins() {
        let o = run_src(GCD, &[("x", 1), ("y", 24), ("x", 54)]);
        assert_eq!(o.outputs["g"], 6);
    }

    #[test]
    fn assignment_evaluates_rhs_before_target() {
        let src = "design d { input a; output o; a = zz; }";
        assert_eq!(run_err(src, &[("a", 0)]), ExecError::Unbound("zz".into()));
        let src = "design d { input a; output o; mem M[2]; M = 3; }";
        assert_eq!(run_err(src, &[("a", 0)]), ExecError::Unbound("M".into()));
    }

    #[test]
    fn memory_errors_follow_operand_evaluation() {
        let src = "design d { output o; X[u] = 1; }";
        assert_eq!(run_err(src, &[]), ExecError::Unbound("u".into()));
        let src = "design d { output o; X[0] = 1; }";
        assert_eq!(run_err(src, &[]), ExecError::NotAMem("X".into()));
        let src = "design d { output o; o = X[u]; }";
        assert_eq!(run_err(src, &[]), ExecError::Unbound("u".into()));
        let src = "design d { output o; o = X[0]; }";
        assert_eq!(run_err(src, &[]), ExecError::NotAMem("X".into()));
        let src = "design d { output o; mem M[2]; o = M; }";
        assert_eq!(run_err(src, &[]), ExecError::NotAMem("M".into()));
    }

    #[test]
    fn redeclaration_fails_only_when_executed() {
        let src = "design d { input a; output o; var t = 1; if (a > 0) { var t = 2; } }";
        assert_eq!(run_err(src, &[("a", 1)]), ExecError::Duplicate("t".into()));
        let p = Program::parse(src).unwrap();
        let o = run(&p, &[("a", 0)], &MemImage::new(), 1000).unwrap();
        assert_eq!(o.steps, 2);
        // The duplicate is raised before its initializer is evaluated.
        let src = "design d { output o; var t = 1; var t = zz; }";
        assert_eq!(run_err(src, &[]), ExecError::Duplicate("t".into()));
    }

    #[test]
    fn loop_body_locals_are_fresh_each_iteration() {
        let o = run_src(
            "design d { output o; var i = 0; \
             while (i < 3) { var t = i * 2; o = o + t; i = i + 1; } }",
            &[],
        );
        assert_eq!((o.outputs["o"], o.steps), (6, 15));
    }

    #[test]
    fn initializer_cannot_see_its_own_name() {
        let src = "design d { output o; var q = q + 1; }";
        assert_eq!(run_err(src, &[]), ExecError::Unbound("q".into()));
    }

    #[test]
    fn image_is_truncated_to_declared_size() {
        let p = Program::parse("design d { output o; mem M[4]; o = M[5] + M[3]; }").unwrap();
        let img = MemImage::new().with("M", vec![1, 2, 3, 4, 5, 6]);
        let o = run(&p, &[], &img, 100).unwrap();
        assert_eq!(o.outputs["o"], 6);
        assert_eq!(o.mems["M"], vec![1, 2, 3, 4]);
    }
}
