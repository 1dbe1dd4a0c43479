//! Property tests for the Ace-C compiler: random programs must evaluate
//! to the same result at every optimization level (the passes are
//! semantics-preserving), the parser must reject what it should, and no
//! source text makes `compile` panic.

use ace::core::{run_ace, CostModel};
use ace::lang::{compile, run_program, OptLevel, SystemConfig};
use proptest::prelude::*;

/// The registry protocols a generated space may be under. The first
/// space is always SC, which is not optimizable.
const PROTOCOLS: [&str; 5] = ["SC", "Update", "StaticUpdate", "Null", "Migratory"];

/// A random straight-line arithmetic body over int locals x0..x4, wrapped
/// in a loop that accumulates into a shared region, then a loop that sums
/// the region. The region is chosen in an `if`/`else` among 1-3 spaces
/// under different protocols, and a `change_protocol` may sit between the
/// loops: the dataflow's joins and strong updates decide what each pass
/// may touch.
fn random_program() -> impl Strategy<Value = String> {
    let stmt = prop_oneof![
        (0usize..5, 1i64..50).prop_map(|(v, k)| format!("x{v} = x{v} + {k};")),
        (0usize..5, 0usize..5).prop_map(|(a, b)| format!("x{a} = x{a} * 2 + x{b};")),
        (0usize..5, 1i64..9).prop_map(|(v, k)| format!("x{v} = x{v} % {k} + 1;")),
        (0usize..5, 0usize..5, 1i64..20).prop_map(|(a, b, k)| format!(
            "if (x{a} > x{b}) {{ x{a} = x{a} - {k}; }} else {{ x{b} = x{b} + {k}; }}"
        )),
    ];
    let spaces = (1usize..4, 0usize..4, (0usize..5, 0usize..3, 0usize..3));
    let change = proptest::option::of((0usize..3, 0usize..5));
    (proptest::collection::vec(stmt, 1..12), 1usize..8, 1i64..6, spaces, change).prop_map(
        |(stmts, words, iters, (n, first, (cond, then, els)), change)| {
            let body = stmts.join("\n                ");
            let mut spaces = String::new();
            for i in 0..n {
                // s1 and s2 take the protocols after `first` among the others.
                let proto = PROTOCOLS[if i == 0 { 0 } else { 1 + (first + i) % 4 }];
                spaces += &format!(
                    "space s{i} = new_space(\"{proto}\");
                shared int *r{i} = (shared int*) gmalloc(s{i}, {words});
                "
                );
            }
            let change = change.map_or(String::new(), |(space, proto)| {
                format!("change_protocol(s{}, \"{}\");", space % n, PROTOCOLS[proto])
            });
            format!(
                r#"
            double main() {{
                {spaces}int x0 = 1; int x1 = 2; int x2 = 3; int x3 = 4; int x4 = 5;
                shared int *acc;
                if (x{cond} > 2) {{ acc = r{then}; }} else {{ acc = r{els}; }}
                int t;
                for (t = 0; t < {iters}; t = t + 1) {{
                    {body}
                    acc[t % {words}] = acc[t % {words}] + x0 + x1 + x2 + x3 + x4;
                }}
                {change}
                int out = 0;
                int i;
                for (i = 0; i < {words}; i = i + 1) {{ out = out + acc[i]; }}
                return out + 0.0;
            }}
            "#,
                then = then % n,
                els = els % n,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn compile_never_panics_on_a_one_token_edit(
        src in random_program(),
        at in any::<usize>(),
        duplicate in any::<bool>(),
    ) {
        // Delete or duplicate one whitespace-separated token: most edits
        // break the syntax, the rest the types, a few neither. Whichever,
        // `compile` answers `Ok` or `Err` at every level.
        let mut toks: Vec<&str> = src.split_whitespace().collect();
        let at = at % toks.len();
        if duplicate {
            toks.insert(at, toks[at]);
        } else {
            toks.remove(at);
        }
        let edited = toks.join(" ");
        let cfg = SystemConfig::builtin();
        for level in OptLevel::ALL {
            let _ = compile(&edited, &cfg, level);
        }
    }
}
