//! Property-based tests for the frontend: pretty-print/reparse is a
//! fixpoint on random programs, and the interpreter and CDFG lowering
//! agree wherever both are defined. The programs declare block locals
//! inside `if` and `while` bodies (fresh per loop iteration) and load
//! from and store to one memory. Runs on
//! `spec_support::proptest_lite`, so the whole suite is deterministic
//! and offline.

use hls_lang::{BinOp, Expr, Program, Stmt, UnOp};
use spec_support::props;
use spec_support::proptest_lite as pl;

/// Placeholder for a block local: [`freshen`] gives each `var` of it a
/// fresh name and binds every other use to the innermost one in scope.
const LOCAL: &str = "t";

fn arb_expr() -> pl::Gen<Expr> {
    let leaf = pl::one_of(vec![
        // Non-negative literals only: `-45` lexes as unary minus
        // applied to 45, so a negative Int literal cannot round-trip
        // *structurally* (it does semantically, which the second
        // property covers).
        pl::range(0i64..50).map(Expr::Int),
        pl::one_of(vec![
            pl::just("x"),
            pl::just("y"),
            pl::just("a"),
            pl::just("b"),
            pl::just(LOCAL),
        ])
        .map(|s| Expr::Ident(s.to_string())),
    ]);
    pl::recursive(3, leaf, |inner| {
        let bin = pl::one_of(vec![
            pl::just(BinOp::Add),
            pl::just(BinOp::Sub),
            pl::just(BinOp::Mul),
            pl::just(BinOp::Xor),
            pl::just(BinOp::Shl),
            pl::just(BinOp::Shr),
            pl::just(BinOp::Lt),
            pl::just(BinOp::Le),
            pl::just(BinOp::Gt),
            pl::just(BinOp::Ge),
            pl::just(BinOp::Eq),
            pl::just(BinOp::Ne),
            pl::just(BinOp::And),
            pl::just(BinOp::Or),
        ]);
        pl::one_of(vec![
            pl::tuple3(inner.clone(), bin, inner.clone())
                .map(|(l, op, r)| Expr::Binary(op, Box::new(l), Box::new(r))),
            inner.clone().map(|e| Expr::Unary(UnOp::Not, Box::new(e))),
            inner.clone().map(|e| Expr::Unary(UnOp::Neg, Box::new(e))),
            inner.map(|e| Expr::Load("M".into(), Box::new(e))),
        ])
    })
}

/// A block that sometimes opens with a block-local `var`.
fn arb_block(stmt: pl::Gen<Stmt>, len: std::ops::Range<usize>) -> pl::Gen<Vec<Stmt>> {
    pl::tuple3(pl::boolean(), arb_expr(), pl::vec_of(stmt, len)).map(|(local, init, body)| {
        let decl = local.then(|| Stmt::Var(LOCAL.into(), init));
        decl.into_iter().chain(body).collect()
    })
}

fn arb_stmt() -> pl::Gen<Stmt> {
    let assign = pl::one_of(vec![
        pl::just("a"),
        pl::just("b"),
        pl::just("o"),
        pl::just(LOCAL),
    ]);
    let leaf = pl::one_of(vec![
        pl::tuple2(assign, arb_expr()).map(|(n, e)| Stmt::Assign(n.to_string(), e)),
        pl::tuple2(arb_expr(), arb_expr()).map(|(a, v)| Stmt::Store("M".into(), a, v)),
    ]);
    pl::recursive(2, leaf, |inner| {
        pl::one_of(vec![
            pl::tuple3(
                arb_expr(),
                arb_block(inner.clone(), 1..3),
                arb_block(inner.clone(), 0..3),
            )
            .map(|(c, t, e)| Stmt::If(c, t, e)),
            arb_block(inner, 1..3).map(|body| {
                // A loop bounded by a fresh counter so execution
                // always terminates.
                Stmt::While(
                    Expr::Binary(
                        BinOp::Lt,
                        Box::new(Expr::Ident("i".into())),
                        Box::new(Expr::Int(4)),
                    ),
                    body.into_iter()
                        .chain([Stmt::Assign(
                            "i".into(),
                            Expr::Binary(
                                BinOp::Add,
                                Box::new(Expr::Ident("i".into())),
                                Box::new(Expr::Int(1)),
                            ),
                        )])
                        .collect(),
                )
            }),
        ])
    })
}

/// Renames the [`LOCAL`] placeholders of `block`: each `var` gets a
/// fresh name, and every other use names the innermost local visible
/// there, or `a` where none is.
fn freshen(block: &mut [Stmt], visible: Option<&str>, next: &mut usize) {
    let mut current = visible.map(str::to_string);
    for s in block {
        let cur = current.as_deref();
        match s {
            Stmt::Var(n, e) => {
                rename(e, cur);
                if n == LOCAL {
                    *n = format!("{LOCAL}{next}");
                    *next += 1;
                    current = Some(n.clone());
                }
            }
            Stmt::Assign(n, e) => {
                rename(e, cur);
                if n == LOCAL {
                    *n = cur.unwrap_or("a").to_string();
                }
            }
            Stmt::Store(_, a, v) => {
                rename(a, cur);
                rename(v, cur);
            }
            Stmt::If(c, t, e) => {
                rename(c, cur);
                freshen(t, cur, next);
                freshen(e, cur, next);
            }
            Stmt::While(c, b) => {
                rename(c, cur);
                freshen(b, cur, next);
            }
        }
    }
}

fn rename(e: &mut Expr, local: Option<&str>) {
    match e {
        Expr::Ident(n) if n == LOCAL => *n = local.unwrap_or("a").to_string(),
        Expr::Int(_) | Expr::Ident(_) => {}
        Expr::Load(_, a) | Expr::Unary(_, a) => rename(a, local),
        Expr::Binary(_, l, r) => {
            rename(l, local);
            rename(r, local);
        }
    }
}

fn arb_program() -> pl::Gen<Program> {
    pl::vec_of(arb_stmt(), 1..5).map(|stmts| {
        let mut body: Vec<Stmt> = [
            Stmt::Var("a".into(), Expr::Ident("x".into())),
            Stmt::Var("b".into(), Expr::Ident("y".into())),
            Stmt::Var("i".into(), Expr::Int(0)),
        ]
        .into_iter()
        .chain(stmts)
        .collect();
        freshen(&mut body, None, &mut 0);
        Program {
            name: "rnd".into(),
            inputs: vec!["x".into(), "y".into()],
            outputs: vec!["o".into()],
            mems: vec![("M".into(), 5)],
            body,
        }
    })
}

props! {
    /// Pretty-print followed by reparse reproduces the AST exactly.
    fn display_parse_roundtrip(p in arb_program()) {
        let printed = p.to_string();
        let reparsed = Program::parse(&printed)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
        assert_eq!(p, reparsed);
    }

    /// The AST interpreter and the direct CDFG executor agree on random
    /// programs, inputs and memory images — two independent semantics,
    /// one answer, on outputs and final memories alike.
    fn interp_and_lowering_agree(
        p in arb_program(),
        xy in pl::tuple2(pl::range(-20i64..20), pl::range(-20i64..20)),
        cells in pl::vec_of(pl::range(-9i64..9), 0..7),
    ) {
        let inputs = [("x", xy.0), ("y", xy.1)];
        let image = hls_lang::MemImage::new().with("M", cells.clone());
        let ast = hls_lang::interp::run(&p, &inputs, &image, 1_000_000)
            .expect("bounded programs terminate");
        let g = hls_lang::lower::compile(&p).expect("random programs lower");
        let cdfg = hls_sim::execute_cdfg(&g, &inputs, &image.contents, 1_000_000)
            .expect("bounded programs terminate");
        assert_eq!(&ast.outputs, &cdfg.outputs);
        assert_eq!(&ast.mems, &cdfg.mems);
    }
}
