//! Property tests for the Ace-C compiler: random programs must evaluate
//! to the same result at every optimization level (the passes are
//! semantics-preserving), the parser must reject what it should, and no
//! source text makes `compile` panic.

use ace::core::{run_ace, CostModel};
use ace::lang::{compile, run_program, OptLevel, SystemConfig};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// The registry protocols a generated space may be under. The first
/// space is always SC, which is not optimizable.
const PROTOCOLS: [&str; 5] = ["SC", "Update", "StaticUpdate", "Null", "Migratory"];

/// A random straight-line arithmetic body over int locals x0..x4, wrapped
/// in a loop that accumulates into a shared region, then a loop that sums
/// the region. The region is chosen in an `if`/`else` among 1-3 spaces
/// under different protocols, and a `change_protocol` may sit between the
/// loops: the dataflow's joins and strong updates decide what each pass
/// may touch. The three properties that draw programs sweep disjoint
/// seeds: 0..32, 32..64 and 64..320.
fn random_program(rng: &mut StdRng) -> String {
    let stmts: Vec<String> = (0..rng.gen_range(1..12))
        .map(|_| {
            let (a, b) = (rng.gen_range(0..5), rng.gen_range(0..5));
            match rng.gen_range(0..4) {
                0 => format!("x{a} = x{a} + {};", rng.gen_range(1..50)),
                1 => format!("x{a} = x{a} * 2 + x{b};"),
                2 => format!("x{a} = x{a} % {} + 1;", rng.gen_range(1..9)),
                _ => {
                    let k = rng.gen_range(1..20);
                    format!(
                        "if (x{a} > x{b}) {{ x{a} = x{a} - {k}; }} else {{ x{b} = x{b} + {k}; }}"
                    )
                }
            }
        })
        .collect();
    let (words, iters) = (rng.gen_range(1..8), rng.gen_range(1..6));
    let (n, first): (usize, usize) = (rng.gen_range(1..4), rng.gen_range(0..4));
    let (cond, then, els): (usize, usize, usize) =
        (rng.gen_range(0..5), rng.gen_range(0..3), rng.gen_range(0..3));
    let change: Option<(usize, usize)> =
        rng.gen_bool(0.5).then(|| (rng.gen_range(0..3), rng.gen_range(0..5)));
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
}

/// Text of up to 47 characters, drawn from printable ASCII, any character
/// below U+D7FF, the characters Ace-C's lexer treats specially, and `_`.
/// The lexer and parser properties sweep disjoint seeds: 0..32 and 32..64.
fn text(rng: &mut StdRng) -> String {
    (0..rng.gen_range(0..48))
        .map(|_| match rng.gen_range(0..100) {
            0..=59 => rng.gen_range(b' '..0x7F) as char,
            60..=74 => char::from_u32(rng.gen_range(0..0xD7FF)).unwrap(),
            75..=89 => {
                ['\t', '\n', '(', ')', '{', '}', '"', '\\', ';', '*'][rng.gen_range(0..10usize)]
            }
            _ => '_',
        })
        .collect()
}

#[test]
fn optimization_levels_preserve_semantics() {
    for seed in 0..32 {
        let src = random_program(&mut StdRng::seed_from_u64(seed));
        eprintln!("seed {seed}: {src}");
        let cfg = SystemConfig::builtin();
        let mut results = Vec::new();
        for level in OptLevel::ALL {
            let prog = compile(&src, &cfg, level).expect("generated programs compile");
            prog.assert_single_assignment();
            let r = run_ace(1, CostModel::free(), |rt| run_program(rt, &prog).unwrap().as_f());
            results.push(r.results[0]);
        }
        for w in results.windows(2) {
            assert_eq!(w[0], w[1], "levels disagree on:\n{src}");
        }
    }
}

#[test]
fn annotation_counts_never_increase() {
    for seed in 32..64 {
        let src = random_program(&mut StdRng::seed_from_u64(seed));
        eprintln!("seed {seed}: {src}");
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
            assert!(w[1] <= w[0], "protocol calls increased: {counts:?}\n{src}");
        }
    }
}

#[test]
fn lexer_never_panics() {
    for seed in 0..32 {
        let s = text(&mut StdRng::seed_from_u64(seed));
        eprintln!("seed {seed}: {s:?}");
        let _ = ace::lang::lex::lex(&s);
    }
}

#[test]
fn parser_never_panics() {
    for seed in 32..64 {
        let s = text(&mut StdRng::seed_from_u64(seed));
        eprintln!("seed {seed}: {s:?}");
        if let Ok(toks) = ace::lang::lex::lex(&s) {
            let _ = ace::lang::parse::parse(&toks);
        }
    }
}

#[test]
fn int_expressions_evaluate_like_rust() {
    for seed in 0..32 {
        let rng = &mut StdRng::seed_from_u64(seed);
        let (a, b, c): (i64, i64, i64) =
            (rng.gen_range(1..100), rng.gen_range(1..100), rng.gen_range(1..100));
        eprintln!("seed {seed}: a {a}, b {b}, c {c}");
        let src = format!(
            "int main() {{ int a = {a}; int b = {b}; int c = {c};
               return (a + b) * c - a % b + (a - c) / b; }}"
        );
        let cfg = SystemConfig::builtin();
        let prog = compile(&src, &cfg, OptLevel::Direct).unwrap();
        let r = run_ace(1, CostModel::free(), |rt| run_program(rt, &prog).unwrap().as_i());
        assert_eq!(r.results[0], (a + b) * c - a % b + (a - c) / b);
    }
}

#[test]
fn compile_never_panics_on_a_one_token_edit() {
    for seed in 64..320 {
        let rng = &mut StdRng::seed_from_u64(seed);
        let (src, at, duplicate) =
            (random_program(rng), rng.next_u64() as usize, rng.gen_bool(0.5));
        eprintln!("seed {seed}: at {at}, duplicate {duplicate}: {src}");
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
