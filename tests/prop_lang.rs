//! Property tests for the Ace-C compiler: random programs must evaluate
//! to the same result at every optimization level (the passes are
//! semantics-preserving), and the parser must reject what it should.

use ace::core::{run_ace, CostModel};
use ace::lang::{compile, run_program, OptLevel, SystemConfig};
use proptest::prelude::*;

/// A random straight-line arithmetic body over int locals a..e, wrapped
/// in a loop that accumulates into a shared region under an optimizable
/// protocol — so every pass has something to chew on.
fn random_program() -> impl Strategy<Value = String> {
    let stmt = prop_oneof![
        (0usize..5, 1i64..50).prop_map(|(v, k)| format!("x{v} = x{v} + {k};")),
        (0usize..5, 0usize..5).prop_map(|(a, b)| format!("x{a} = x{a} * 2 + x{b};")),
        (0usize..5, 1i64..9).prop_map(|(v, k)| format!("x{v} = x{v} % {k} + 1;")),
        (0usize..5, 0usize..5, 1i64..20).prop_map(|(a, b, k)| format!(
            "if (x{a} > x{b}) {{ x{a} = x{a} - {k}; }} else {{ x{b} = x{b} + {k}; }}"
        )),
    ];
    (proptest::collection::vec(stmt, 1..12), 1usize..8, 1i64..6).prop_map(
        |(stmts, words, iters)| {
            let body = stmts.join("\n                ");
            format!(
                r#"
            double main() {{
                space s = new_space("Update");
                shared int *acc = (shared int*) gmalloc(s, {words});
                int x0 = 1; int x1 = 2; int x2 = 3; int x3 = 4; int x4 = 5;
                int t;
                for (t = 0; t < {iters}; t = t + 1) {{
                    {body}
                    acc[t % {words}] = acc[t % {words}] + x0 + x1 + x2 + x3 + x4;
                }}
                int out = 0;
                int i;
                for (i = 0; i < {words}; i = i + 1) {{ out = out + acc[i]; }}
                return out + 0.0;
            }}
            "#
            )
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn optimization_levels_preserve_semantics(src in random_program()) {
        let cfg = SystemConfig::builtin();
        let mut results = Vec::new();
        for level in OptLevel::ALL {
            let prog = compile(&src, &cfg, level).expect("generated programs compile");
            prog.assert_single_assignment();
            let r = run_ace(1, CostModel::free(), |rt| {
                run_program(rt, &prog).unwrap().as_f()
            });
            results.push(r.results[0]);
        }
        for w in results.windows(2) {
            prop_assert_eq!(w[0], w[1], "levels disagree on:\n{}", src);
        }
    }

    #[test]
    fn annotation_counts_never_increase(src in random_program()) {
        // Each pass may only remove or keep protocol calls dynamically.
        let cfg = SystemConfig::builtin();
        let mut counts = Vec::new();
        for level in OptLevel::ALL {
            let prog = compile(&src, &cfg, level).expect("compiles");
            let r = run_ace(1, CostModel::free(), |rt| {
                run_program(rt, &prog);
                let c = rt.counters();
                c.dispatched + c.direct
            });
            counts.push(r.results[0]);
        }
        for w in counts.windows(2) {
            prop_assert!(w[1] <= w[0], "protocol calls increased: {:?}\n{}", counts, src);
        }
    }

    #[test]
    fn lexer_never_panics(s in "\\PC*") {
        let _ = ace::lang::lex::lex(&s);
    }

    #[test]
    fn parser_never_panics(s in "\\PC*") {
        if let Ok(toks) = ace::lang::lex::lex(&s) {
            let _ = ace::lang::parse::parse(&toks);
        }
    }

    #[test]
    fn int_expressions_evaluate_like_rust(a in 1i64..100, b in 1i64..100, c in 1i64..100) {
        let src = format!(
            "int main() {{ int a = {a}; int b = {b}; int c = {c};
               return (a + b) * c - a % b + (a - c) / b; }}"
        );
        let cfg = SystemConfig::builtin();
        let prog = compile(&src, &cfg, OptLevel::Direct).unwrap();
        let r = run_ace(1, CostModel::free(), |rt| {
            run_program(rt, &prog).unwrap().as_i()
        });
        prop_assert_eq!(r.results[0], (a + b) * c - a % b + (a - c) / b);
    }
}
