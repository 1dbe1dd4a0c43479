//! An oracle for Ace-C's local variables that does not go through the VM:
//! random programs over int locals are evaluated here, in Rust, and every
//! optimisation level must return what the oracle computes. The statements
//! are the shapes where a local's frame word could be read or written at
//! the wrong moment: `x = x + k`, a swap through a temporary, a local read,
//! written and read again in one block, `&&` / `||` (whose temporary slot
//! crosses blocks), a loop-carried local, and a recursive call whose
//! callers' locals must survive it.

use ace::core::{run_ace, CostModel};
use ace::lang::vm::Value;
use ace::lang::{compile, run_program, OptLevel, SystemConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The locals are `x0..x4`; `t` and `i` are scratch.
const N: usize = 5;

/// One generated statement. Local indices are below [`N`], constants small
/// and positive; arithmetic wraps, in the VM and in the oracle alike.
#[derive(Debug)]
enum Stmt {
    /// `x{v} = x{v} + k;`
    Bump(usize, i64),
    /// `t = x{a}; x{a} = x{b}; x{b} = t;`
    Swap(usize, usize),
    /// `x{b} = x{a} * k + x{b}; x{a} = x{a} - x{b}; x{b} = x{b} + x{a};`
    ReadWriteRead(usize, usize, i64),
    /// `x{c} = x{c} + (x{a} && x{b} < k);` or
    /// `if (x{a} || x{b} > k) { x{c} = x{c} + 1; }`: the branch reads a bare
    /// local.
    Logic(bool, usize, usize, usize, i64),
    /// `x{c} = x{c} + (x{a} && x{b});` or `x{c} = x{c} + (x{a} || x{b});`:
    /// the value of a logical operator on bare locals, which C makes 0 or 1.
    Truth(bool, usize, usize, usize),
    /// `for (i = 0; i < n; i = i + 1) { x{v} = x{v} * 3 + i - x{w}; }`
    Loop(usize, usize, i64),
    /// `x{v} = f(x{a}, d) + x{v};`
    Call(usize, usize, i64),
    /// `if (x{a} > x{b}) { x{a} = x{a} - k; } else { x{b} = x{b} + k; }`
    Branch(usize, usize, i64),
}

impl Stmt {
    fn source(&self) -> String {
        match *self {
            Stmt::Bump(v, k) => format!("x{v} = x{v} + {k};"),
            Stmt::Swap(a, b) => format!("t = x{a}; x{a} = x{b}; x{b} = t;"),
            Stmt::ReadWriteRead(a, b, k) => {
                format!("x{b} = x{a} * {k} + x{b}; x{a} = x{a} - x{b}; x{b} = x{b} + x{a};")
            }
            Stmt::Logic(true, a, b, c, k) => {
                format!("x{c} = x{c} + (x{a} && x{b} < {k});")
            }
            Stmt::Logic(false, a, b, c, k) => {
                format!("if (x{a} || x{b} > {k}) {{ x{c} = x{c} + 1; }}")
            }
            Stmt::Truth(and, a, b, c) => {
                format!("x{c} = x{c} + (x{a} {} x{b});", if and { "&&" } else { "||" })
            }
            Stmt::Loop(v, w, n) => {
                format!("for (i = 0; i < {n}; i = i + 1) {{ x{v} = x{v} * 3 + i - x{w}; }}")
            }
            Stmt::Call(v, a, d) => format!("x{v} = f(x{a}, {d}) + x{v};"),
            Stmt::Branch(a, b, k) => {
                format!("if (x{a} > x{b}) {{ x{a} = x{a} - {k}; }} else {{ x{b} = x{b} + {k}; }}")
            }
        }
    }

    fn eval(&self, x: &mut [i64; N]) {
        match *self {
            Stmt::Bump(v, k) => x[v] = x[v].wrapping_add(k),
            Stmt::Swap(a, b) => x.swap(a, b),
            Stmt::ReadWriteRead(a, b, k) => {
                x[b] = x[a].wrapping_mul(k).wrapping_add(x[b]);
                x[a] = x[a].wrapping_sub(x[b]);
                x[b] = x[b].wrapping_add(x[a]);
            }
            Stmt::Logic(and, a, b, c, k) => {
                let hit = if and { x[a] != 0 && x[b] < k } else { x[a] != 0 || x[b] > k };
                x[c] = x[c].wrapping_add(hit as i64);
            }
            Stmt::Truth(and, a, b, c) => {
                let hit = if and { x[a] != 0 && x[b] != 0 } else { x[a] != 0 || x[b] != 0 };
                x[c] = x[c].wrapping_add(hit as i64);
            }
            Stmt::Loop(v, w, n) => {
                for i in 0..n {
                    x[v] = x[v].wrapping_mul(3).wrapping_add(i).wrapping_sub(x[w]);
                }
            }
            Stmt::Call(v, a, d) => x[v] = f(x[a], d).wrapping_add(x[v]),
            Stmt::Branch(a, b, k) if x[a] > x[b] => x[a] = x[a].wrapping_sub(k),
            Stmt::Branch(_, b, k) => x[b] = x[b].wrapping_add(k),
        }
    }
}

/// The Ace-C `f` of every program: `keep` is read after the recursive call.
const F: &str = "int f(int n, int d) {
    int keep = n * 2 + d;
    int rest = 0;
    if (d > 0) { rest = f(n + 1, d - 1); }
    return keep + rest;
}";

fn f(n: i64, d: i64) -> i64 {
    let keep = n.wrapping_mul(2).wrapping_add(d);
    keep.wrapping_add(if d > 0 { f(n.wrapping_add(1), d - 1) } else { 0 })
}

fn stmt(rng: &mut StdRng) -> Stmt {
    let (a, b, c) = (rng.gen_range(0..N), rng.gen_range(0..N), rng.gen_range(0..N));
    match rng.gen_range(0..8) {
        0 => Stmt::Bump(a, rng.gen_range(1..50)),
        1 => Stmt::Swap(a, b),
        2 => Stmt::ReadWriteRead(a, b, rng.gen_range(1..9)),
        3 => Stmt::Logic(rng.gen_bool(0.5), a, b, c, rng.gen_range(0..20)),
        4 => Stmt::Truth(rng.gen_bool(0.5), a, b, c),
        5 => Stmt::Loop(a, b, rng.gen_range(0..5)),
        6 => Stmt::Call(a, b, rng.gen_range(0..4)),
        _ => Stmt::Branch(a, b, rng.gen_range(1..20)),
    }
}

/// The program's source and what the oracle says `main` returns.
fn program(init: [i64; N], stmts: &[Stmt]) -> (String, i64) {
    let decls: Vec<String> =
        init.iter().enumerate().map(|(v, c)| format!("int x{v} = {c};")).collect();
    let body: Vec<String> = stmts.iter().map(Stmt::source).collect();
    let src = format!(
        "{F}
int main() {{
    {}
    int t;
    int i;
    {}
    return (((x0 * 31 + x1) * 31 + x2) * 31 + x3) * 31 + x4;
}}",
        decls.join(" "),
        body.join("\n    ")
    );
    let mut x = init;
    stmts.iter().for_each(|s| s.eval(&mut x));
    let want = x.iter().fold(0i64, |h, &v| h.wrapping_mul(31).wrapping_add(v));
    (src, want)
}

#[test]
fn every_level_returns_what_the_oracle_computes() {
    for seed in 0..64 {
        let rng = &mut StdRng::seed_from_u64(seed);
        let init: [i64; N] = std::array::from_fn(|_| rng.gen_range(0..10));
        let stmts: Vec<Stmt> = (0..rng.gen_range(1..14)).map(|_| stmt(rng)).collect();
        eprintln!("seed {seed}: {init:?} {stmts:?}");
        let (src, want) = program(init, &stmts);
        let cfg = SystemConfig::builtin();
        for level in OptLevel::ALL {
            let prog = compile(&src, &cfg, level).expect("generated programs compile");
            let got = run_ace(1, CostModel::free(), |rt| run_program(rt, &prog)).results[0];
            assert_eq!(got, Some(Value::I(want)), "at {level:?}:\n{src}");
        }
    }
}
