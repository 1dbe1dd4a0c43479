//! The compiler evaluation (Table 4): Ace-C kernels and their
//! hand-written runtime-system counterparts.
//!
//! Each kernel exists twice, computing *identical* results:
//!
//! * an Ace-C source (`programs/*.ace`), compiled at the four optimization
//!   levels of Table 4 and executed by the VM, and
//! * a hand-written version coded directly against the Ace runtime — "code
//!   that an experienced programmer would write" (§5.3): region ids
//!   exchanged once, maps hoisted out of the computation loops, and
//!   protocol calls placed with full knowledge of the registered protocol
//!   (null actions skipped, the rest called directly).
//!
//! The Table 4 shape this regenerates: each optimization level reduces
//! simulated time; the hand version remains fastest because the compiler
//! cannot hoist `ACE_MAP`s out of the computation loop the way a
//! programmer does (§5.3 calls this out explicitly: "the major component
//! of the slowdown was a result of the extra ACE_MAP calls within the
//! computation loop").

use ace_apps::runner::{launch_ace_with, RunOutcome};
use ace_core::{AceRt, MachineBuilder, RegionId, Resolve};
use ace_lang::{compile, run_program, OptLevel, SystemConfig};
use ace_protocols::{make, ProtoSpec};

use crate::cell::{grid, Cell, Input, Tweak, What};

/// One Table 4 benchmark kernel.
pub struct Kernel {
    /// Row label.
    pub name: &'static str,
    /// Ace-C source.
    pub source: &'static str,
    /// Hand-written runtime-system version (returns the verification
    /// value; must equal the compiled program's).
    pub hand: fn(&AceRt) -> f64,
    /// How the source's fixed-size arrays divide its work over the ranks,
    /// which decides the machines it runs on.
    pub split: Split,
}

/// How a kernel divides its work over `np` ranks. Ace-C arrays are sized
/// in the source, so each kernel runs only on the machines its arrays
/// hold; a machine it cannot split would index past an array or name a
/// `bcast_p` root outside the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Split {
    /// `items` dealt in equal runs (`per = items / np`, item `g` on rank
    /// `g / per`) of at most `per_rank`: `np` must divide `items`.
    Even { items: usize, what: &'static str, per_rank: usize },
    /// One array slot per rank, at most `max` ranks.
    AtMost(usize),
    /// Any machine: the work is claimed from a shared counter.
    Any,
}

impl Split {
    /// Whether the kernel runs on `np` ranks.
    pub fn takes(self, np: usize) -> bool {
        match self {
            Split::Even { items, per_rank, .. } => {
                np > 0 && items % np == 0 && items / np <= per_rank
            }
            Split::AtMost(max) => (1..=max).contains(&np),
            Split::Any => np > 0,
        }
    }

    /// The largest machine the kernel runs on, if it has one.
    pub fn largest(self) -> Option<usize> {
        match self {
            Split::Even { items, .. } => Some(items),
            Split::AtMost(max) => Some(max),
            Split::Any => None,
        }
    }
}

/// A `--procs` some Table 4 kernel cannot split its work over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcsError {
    /// The first kernel (in column order) that rejects it.
    pub kernel: &'static str,
    /// The rejected machine size.
    pub procs: usize,
    /// That kernel's split.
    pub split: Split,
}

impl std::fmt::Display for ProcsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (kernel, procs) = (self.kernel, self.procs);
        write!(f, "table4 --procs {procs}: the {kernel} kernel cannot split its work over {procs} ranks: ")?;
        match self.split {
            Split::Even { items, what, per_rank } => write!(
                f,
                "it deals {items} {what} in equal runs of at most {per_rank}, so it takes --procs {}",
                or_list(&(1..=items).filter(|&n| self.split.takes(n)).collect::<Vec<_>>())
            )?,
            Split::AtMost(_) => write!(f, "it keeps one array slot per rank")?,
            Split::Any => write!(f, "a machine has at least one rank")?,
        }
        if let Some(largest) = self.split.largest() {
            write!(f, "; the largest --procs it takes is {largest}")?;
        }
        write!(f, ", and the whole table takes --procs {}", or_list(&table4_procs()))
    }
}

impl std::error::Error for ProcsError {}

/// `[3, 4, 6]` as "3, 4 or 6".
fn or_list(ns: &[usize]) -> String {
    let words: Vec<String> = ns.iter().map(usize::to_string).collect();
    match words.split_last() {
        None => "none".into(),
        Some((last, [])) => last.clone(),
        Some((last, rest)) => format!("{} or {last}", rest.join(", ")),
    }
}

/// All five kernels, in the paper's column order.
pub fn kernels() -> Vec<Kernel> {
    vec![
        Kernel {
            name: "Barnes-Hut",
            source: include_str!("../programs/barnes.ace"),
            hand: hand_barnes,
            split: Split::Even { items: 48, what: "bodies", per_rank: 16 },
        },
        Kernel {
            name: "BSC",
            source: include_str!("../programs/bsc.ace"),
            hand: hand_bsc,
            split: Split::AtMost(8),
        },
        Kernel {
            name: "EM3D",
            source: include_str!("../programs/em3d.ace"),
            hand: hand_em3d,
            split: Split::Even { items: 128, what: "nodes of each kind", per_rank: 64 },
        },
        Kernel {
            name: "TSP",
            source: include_str!("../programs/tsp.ace"),
            hand: hand_tsp,
            split: Split::Any,
        },
        Kernel {
            name: "WATER",
            source: include_str!("../programs/water.ace"),
            hand: hand_water,
            split: Split::Even { items: 32, what: "molecules", per_rank: 16 },
        },
    ]
}

/// The kernel whose row label is `name`.
pub fn kernel(name: &str) -> Kernel {
    let found = kernels().into_iter().find(|k| k.name == name);
    found.unwrap_or_else(|| panic!("no Table 4 kernel named {name}"))
}

impl Kernel {
    /// Run the kernel's Ace-C source compiled at `level`; the outcome's
    /// verification value is the program's result on node 0.
    pub fn run_compiled(&self, level: OptLevel, machine: MachineBuilder) -> RunOutcome {
        let prog = compile(self.source, &SystemConfig::builtin(), level)
            .unwrap_or_else(|e| panic!("{} does not compile: {e}", self.name));
        launch_ace_with(machine, |d| run_program(d.rt(), &prog).map(|v| v.as_f()).unwrap_or(0.0))
    }

    /// Run the kernel's hand-written form.
    pub fn run_hand(&self, machine: MachineBuilder) -> RunOutcome {
        launch_ace_with(machine, |d| (self.hand)(d.rt()))
    }
}

/// Table 4 as cells, kernel-major: the four optimization levels, then the
/// hand-written version ("hand"), at `procs` simulated processors.
///
/// # Errors
///
/// When some kernel cannot split its work over `procs` ranks (see
/// [`Split`]); the error names the first such kernel.
pub fn table4_cells(procs: usize) -> Result<Vec<Cell>, ProcsError> {
    let ks = kernels();
    if let Some(k) = ks.iter().find(|k| !k.split.takes(procs)) {
        return Err(ProcsError { kernel: k.name, procs, split: k.split });
    }
    let mut configs: Vec<_> =
        OptLevel::ALL.iter().map(|&l| (l.label(), What::Compiled(l), Tweak::None)).collect();
    configs.push(("hand", What::Hand, Tweak::None));
    let names: Vec<&'static str> = ks.iter().map(|k| k.name).collect();
    Ok(grid(&names, &configs, Input::Default, procs))
}

/// The machine sizes every Table 4 kernel runs on.
pub fn table4_procs() -> Vec<usize> {
    let ks = kernels();
    let largest = ks.iter().filter_map(|k| k.split.largest()).min().unwrap_or(0);
    (1..=largest).filter(|&n| ks.iter().all(|k| k.split.takes(n))).collect()
}

// ---------------------------------------------------------------------
// Hand-written runtime versions. Each mirrors its Ace-C kernel's
// arithmetic exactly; only the placement of runtime calls differs. Every
// section is one `read` / `write` resolved to the protocol the programmer
// knows is registered, which leaves out the hooks it declares null and
// calls the rest directly (§5.3).
// ---------------------------------------------------------------------

fn dist(a: usize, b: usize) -> u64 {
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    ((lo as u64 * 73 + hi as u64 * 31) % 90) + 5
}

/// Broadcast-based handle table exchange, mirroring the kernels' bcast_p
/// loops (one broadcast per global element).
fn exchange_handles(rt: &AceRt, total: usize, per: usize, mine: &[RegionId]) -> Vec<RegionId> {
    (0..total)
        .map(|g| {
            let owner = g / per;
            let h = if owner == rt.rank() { mine[g - owner * per] } else { RegionId::NULL };
            RegionId(rt.bcast(owner, &[h.0])[0])
        })
        .collect()
}

fn hand_em3d(rt: &AceRt) -> f64 {
    const NE: usize = 128;
    const NH: usize = 128;
    const DEG: usize = 5;
    const STEPS: usize = 8;
    let np = rt.nprocs();
    let me = rt.rank();
    let (per_e, per_h) = (NE / np, NH / np);

    let eval = rt.new_space(make(ProtoSpec::Sc));
    let hval = rt.new_space(make(ProtoSpec::Sc));
    let my_e: Vec<RegionId> = (0..per_e).map(|_| rt.gmalloc::<f64>(eval, 1)).collect();
    let my_h: Vec<RegionId> = (0..per_h).map(|_| rt.gmalloc::<f64>(hval, 1)).collect();
    let all_e = exchange_handles(rt, NE, per_e, &my_e);
    let all_h = exchange_handles(rt, NH, per_h, &my_h);

    let sc = make(ProtoSpec::Sc);
    for (i, &rid) in my_e.iter().enumerate() {
        rt.map(rid);
        rt.write::<f64, _>(rid, Resolve::Static(&*sc), |v| {
            v[0] = ((me * per_e + i) % 7) as f64 + 1.0
        });
    }
    for (i, &rid) in my_h.iter().enumerate() {
        rt.map(rid);
        rt.write::<f64, _>(rid, Resolve::Static(&*sc), |v| {
            v[0] = ((me * per_h + i) % 5) as f64 + 1.0
        });
    }
    rt.barrier(eval);
    rt.barrier(hval);

    rt.change_protocol(eval, make(ProtoSpec::StaticUpdate));
    rt.change_protocol(hval, make(ProtoSpec::StaticUpdate));
    let stat = make(ProtoSpec::StaticUpdate);

    // Hand optimization (§5.3): map exactly the regions this node reads,
    // once, BEFORE the time loop. (Mapping everything would subscribe the
    // node to updates it never consumes.)
    for i in 0..per_e {
        let base = me * per_e + i;
        for j in 0..DEG {
            rt.map(all_h[(base * 7 + j * 13 + 3) % NH]);
        }
    }
    for i in 0..per_h {
        let base = me * per_h + i;
        for j in 0..DEG {
            rt.map(all_e[(base * 11 + j * 17 + 5) % NE]);
        }
    }

    for _ in 0..STEPS {
        for i in 0..per_e {
            let base = me * per_e + i;
            let mut acc = 0.0;
            for j in 0..DEG {
                let nb = (base * 7 + j * 13 + 3) % NH;
                let w = 0.01 * ((base + j) % 5 + 1) as f64;
                // StaticUpdate reads are registered null: the section
                // calls neither hook.
                acc += w * rt.read::<f64, _>(all_h[nb], Resolve::Static(&*stat), |v| v[0]);
            }
            // Of a write, only the end is non-null: it marks the region dirty.
            rt.write::<f64, _>(my_e[i], Resolve::Static(&*stat), |v| v[0] = v[0] * 0.5 + acc);
            rt.charge_flops((2 * DEG + 2) as u64);
        }
        rt.barrier(eval);
        for i in 0..per_h {
            let base = me * per_h + i;
            let mut acc = 0.0;
            for j in 0..DEG {
                let nb = (base * 11 + j * 17 + 5) % NE;
                let w = 0.01 * ((base + 2 * j) % 5 + 1) as f64;
                acc += w * rt.read::<f64, _>(all_e[nb], Resolve::Static(&*stat), |v| v[0]);
            }
            rt.write::<f64, _>(my_h[i], Resolve::Static(&*stat), |v| v[0] = v[0] * 0.5 + acc);
            rt.charge_flops((2 * DEG + 2) as u64);
        }
        rt.barrier(hval);
    }

    let mut local = 0.0;
    for &rid in my_e.iter().chain(my_h.iter()) {
        local += rt.read::<f64, _>(rid, Resolve::Static(&*stat), |v| v[0]);
    }
    rt.allreduce_f64(local, |a, b| a + b)
}

fn hand_tsp(rt: &AceRt) -> f64 {
    const N: usize = 9;
    let cspace = rt.new_space(make(ProtoSpec::Sc));
    let bspace = rt.new_space(make(ProtoSpec::Sc));
    let sc = make(ProtoSpec::Sc);

    let (counter, best) = if rt.rank() == 0 {
        let c = rt.gmalloc::<u64>(cspace, 1);
        let b = rt.gmalloc::<u64>(bspace, 1);
        rt.map(b);
        rt.write::<u64, _>(b, Resolve::Static(&*sc), |x| x[0] = 1_000_000);
        let ids = rt.bcast(0, &[c.0, b.0]);
        (RegionId(ids[0]), RegionId(ids[1]))
    } else {
        let ids = rt.bcast(0, &[]);
        (RegionId(ids[0]), RegionId(ids[1]))
    };
    rt.map(counter);
    rt.map(best);
    rt.barrier(bspace);

    rt.change_protocol(cspace, make(ProtoSpec::FetchAdd));
    let fa = make(ProtoSpec::FetchAdd);

    // Greedy nearest-neighbour bound (identical to the kernel's).
    let mut used = [false; N];
    used[0] = true;
    let mut at = 0usize;
    let mut bound = 0u64;
    for _ in 1..N {
        let mut bc = usize::MAX;
        let mut bd = u64::MAX;
        for c in 1..N {
            if !used[c] && dist(at, c) < bd {
                bd = dist(at, c);
                bc = c;
            }
        }
        bound += bd;
        used[bc] = true;
        at = bc;
    }
    bound += dist(at, 0);

    let total = ((N - 1) * (N - 2)) as u64;
    let mut found = bound + 1;

    loop {
        // One-round-trip claim: lock is the fetch-and-add; the section on
        // the installed ticket and the unlock are null.
        rt.lock_direct(counter, &*fa);
        let ticket = rt.write::<u64, _>(counter, Resolve::Static(&*fa), |c| {
            c[0] += 1;
            c[0] - 1
        });
        if ticket >= total {
            break;
        }
        let a = (ticket / (N as u64 - 2)) as usize + 1;
        let boff = (ticket % (N as u64 - 2)) as usize;
        let mut b = boff + 1;
        if b >= a {
            b += 1;
        }
        let plen = dist(0, a) + dist(a, b);

        let _observed = rt.read::<u64, _>(best, Resolve::Static(&*sc), |x| x[0]);
        rt.charge_flops(1);

        let mut jbest = found;
        if plen < jbest {
            // Iterative DFS, mirroring the kernel's structure and flop
            // charges exactly.
            let mut path = [0usize; 16];
            let mut lens = [0u64; 16];
            let mut next = [0usize; 16];
            let mut used = [false; N];
            used[0] = true;
            used[a] = true;
            used[b] = true;
            path[0] = 0;
            path[1] = a;
            path[2] = b;
            lens[2] = plen;
            next[2] = 1;
            let mut depth = 2usize;
            while depth >= 2 {
                if depth == N - 1 {
                    let last = path[depth];
                    let totald = lens[depth] + dist(last, 0);
                    if totald < jbest {
                        jbest = totald;
                    }
                    rt.charge_flops(2);
                    used[path[depth]] = false;
                    depth -= 1;
                    continue;
                }
                let mut cand = next[depth];
                let mut moved = false;
                while cand < N {
                    if !used[cand] {
                        let nl = lens[depth] + dist(path[depth], cand);
                        rt.charge_flops(3);
                        if nl < jbest {
                            next[depth] = cand + 1;
                            depth += 1;
                            path[depth] = cand;
                            lens[depth] = nl;
                            next[depth] = 1;
                            used[cand] = true;
                            moved = true;
                            break;
                        }
                    }
                    cand += 1;
                }
                if !moved {
                    used[path[depth]] = false;
                    next[depth] = N;
                    depth -= 1;
                }
            }
        }
        if jbest < found {
            found = jbest;
        }
        rt.lock_direct(best, &*sc);
        let cur = rt.read::<u64, _>(best, Resolve::Static(&*sc), |x| x[0]);
        if found < cur {
            rt.write::<u64, _>(best, Resolve::Static(&*sc), |x| x[0] = found);
        }
        rt.unlock_direct(best, &*sc);
    }

    rt.barrier(bspace);
    let answer = rt.read::<u64, _>(best, Resolve::Static(&*sc), |x| x[0]);
    rt.barrier(bspace);
    rt.allreduce_u64(answer, u64::min) as f64
}

fn hand_water(rt: &AceRt) -> f64 {
    const N: usize = 32;
    const STEPS: usize = 2;
    const LANES: usize = 9;
    let np = rt.nprocs();
    let me = rt.rank();
    let per = N / np;

    let mols = rt.new_space(make(ProtoSpec::Sc));
    let sc = make(ProtoSpec::Sc);
    let mine: Vec<RegionId> = (0..per).map(|_| rt.gmalloc::<f64>(mols, LANES)).collect();
    let all = exchange_handles(rt, N, per, &mine);

    for (i, &rid) in mine.iter().enumerate() {
        let gid = me * per + i;
        rt.map(rid);
        rt.write::<f64, _>(rid, Resolve::Static(&*sc), |m| {
            m[0] = (gid % 7) as f64 * 0.3 - 1.0;
            m[1] = (gid % 5) as f64 * 0.4 - 1.0;
            m[2] = (gid % 3) as f64 * 0.5 - 0.7;
            m[3] = 0.01 * (gid % 4) as f64;
            m[4] = 0.0;
            m[5] = 0.0;
        });
    }
    rt.barrier(mols);

    rt.change_protocol(mols, make(ProtoSpec::Null));
    let null = make(ProtoSpec::Null);
    let pip = make(ProtoSpec::Pipelined);

    // Hand optimization: map everything once.
    for g in 0..N {
        rt.map(all[g]);
    }

    for _ in 0..STEPS {
        // Intra phase under the null protocol: every access hook is null.
        for &rid in &mine {
            rt.write::<f64, _>(rid, Resolve::Static(&*null), |m| {
                for a in 0..3 {
                    m[3 + a] += 0.001 * m[6 + a];
                    m[a] += 0.002 * m[3 + a];
                    m[6 + a] = 0.0;
                }
            });
            rt.charge_flops(12);
        }
        rt.barrier(mols);

        rt.change_protocol(mols, make(ProtoSpec::Pipelined));
        let half = N / 2;
        for i in 0..per {
            let gi = me * per + i;
            for k in 1..=half {
                let gj = (gi + k) % N;
                if N.is_multiple_of(2) && k == half && gi > gj {
                    continue;
                }
                let (ri, rj) = (all[gi], all[gj]);
                // A pipelined read's end is null.
                let pi = rt.read::<f64, _>(ri, Resolve::Static(&*pip), |m| [m[0], m[1], m[2]]);
                let pj = rt.read::<f64, _>(rj, Resolve::Static(&*pip), |m| [m[0], m[1], m[2]]);
                let dx = pj[0] - pi[0];
                let dy = pj[1] - pi[1];
                let dz = pj[2] - pi[2];
                let d2 = dx * dx + dy * dy + dz * dz + 0.05;
                let inv = 1.0 / (d2 * d2.sqrt());
                rt.charge_flops(14 + 2);
                rt.write::<f64, _>(ri, Resolve::Static(&*pip), |m| {
                    m[6] += dx * inv;
                    m[7] += dy * inv;
                    m[8] += dz * inv;
                });
                rt.write::<f64, _>(rj, Resolve::Static(&*pip), |m| {
                    m[6] -= dx * inv;
                    m[7] -= dy * inv;
                    m[8] -= dz * inv;
                });
                rt.charge_flops(6);
            }
        }
        rt.barrier(mols);
        rt.change_protocol(mols, make(ProtoSpec::Null));

        for &rid in &mine {
            rt.write::<f64, _>(rid, Resolve::Static(&*null), |m| {
                for a in 0..3 {
                    m[3 + a] += 0.001 * m[6 + a];
                }
            });
            rt.charge_flops(6);
        }
        rt.barrier(mols);
    }

    let mut local = 0.0;
    for &rid in &mine {
        local += rt
            .read::<f64, _>(rid, Resolve::Static(&*null), |m| m[0].abs() + m[1].abs() + m[2].abs());
    }
    rt.allreduce_f64(local, |a, b| a + b)
}

fn hand_bsc(rt: &AceRt) -> f64 {
    const B: usize = 5;
    const BW: usize = 8;
    let np = rt.nprocs();
    let me = rt.rank();

    let blocks = rt.new_space(make(ProtoSpec::Sc));
    let sc = make(ProtoSpec::Sc);
    let owner = |i: usize, j: usize| (i + j) % np;

    let mut blk = Vec::new();
    for j in 0..B {
        for i in j..B {
            if owner(i, j) == me {
                blk.push(rt.gmalloc::<f64>(blocks, BW * BW));
            }
        }
    }
    // Exchange the full table, mirroring the kernel's broadcast loop.
    let mut tab = [RegionId::NULL; B * B];
    let mut mycur = 0usize;
    for j in 0..B {
        for i in j..B {
            let o = owner(i, j);
            let h = if o == me {
                let r = blk[mycur];
                mycur += 1;
                r
            } else {
                RegionId::NULL
            };
            tab[j * B + i] = RegionId(rt.bcast(o, &[h.0])[0]);
        }
    }

    let mut own = 0usize;
    for j in 0..B {
        for i in j..B {
            if owner(i, j) == me {
                let rid = blk[own];
                own += 1;
                rt.map(rid);
                rt.write::<f64, _>(rid, Resolve::Static(&*sc), |m| {
                    for rr in 0..BW {
                        for cc in 0..BW {
                            let gr = (i * BW + rr) as f64;
                            let gc = (j * BW + cc) as f64;
                            let mut v = 1.0 / (1.0 + (gr - gc).abs());
                            if gr == gc {
                                v += (B * BW) as f64;
                            }
                            m[rr * BW + cc] = v;
                        }
                    }
                });
                rt.charge_flops((BW * BW) as u64);
            }
        }
    }
    rt.barrier(blocks);

    rt.change_protocol(blocks, make(ProtoSpec::HomeOwned));
    let ho = make(ProtoSpec::HomeOwned);

    // Hand optimization: map every block once.
    for j in 0..B {
        for i in j..B {
            rt.map(tab[j * B + i]);
        }
    }

    for k in 0..B {
        if owner(k, k) == me {
            // HomeOwned's write hooks are null: home factors in place.
            rt.write::<f64, _>(tab[k * B + k], Resolve::Static(&*ho), |d| {
                for kk in 0..BW {
                    let piv = d[kk * BW + kk].sqrt();
                    d[kk * BW + kk] = piv;
                    for rr in (kk + 1)..BW {
                        d[rr * BW + kk] /= piv;
                    }
                    for cc in (kk + 1)..BW {
                        for rr in cc..BW {
                            d[rr * BW + cc] -= d[rr * BW + kk] * d[cc * BW + kk];
                        }
                        d[kk * BW + cc] = 0.0;
                    }
                }
            });
            rt.charge_flops((BW * BW * BW) as u64 / 3);
        }
        rt.barrier(blocks);

        for i in (k + 1)..B {
            if owner(i, k) == me {
                // A HomeOwned read's end is null.
                let l = rt.read::<f64, _>(tab[k * B + k], Resolve::Static(&*ho), |m| m.to_vec());
                rt.write::<f64, _>(tab[k * B + i], Resolve::Static(&*ho), |xm| {
                    for rr in 0..BW {
                        for cc in 0..BW {
                            let mut s = xm[rr * BW + cc];
                            for tt in 0..cc {
                                s -= xm[rr * BW + tt] * l[cc * BW + tt];
                            }
                            xm[rr * BW + cc] = s / l[cc * BW + cc];
                        }
                    }
                });
                rt.charge_flops((BW * BW * BW) as u64 / 2);
            }
        }
        rt.barrier(blocks);

        for j in (k + 1)..B {
            for i in j..B {
                if owner(i, j) == me {
                    let a =
                        rt.read::<f64, _>(tab[k * B + i], Resolve::Static(&*ho), |m| m.to_vec());
                    let bb =
                        rt.read::<f64, _>(tab[k * B + j], Resolve::Static(&*ho), |m| m.to_vec());
                    rt.write::<f64, _>(tab[j * B + i], Resolve::Static(&*ho), |c| {
                        for rr in 0..BW {
                            for cc in 0..BW {
                                let mut s = 0.0;
                                for tt in 0..BW {
                                    s += a[rr * BW + tt] * bb[cc * BW + tt];
                                }
                                c[rr * BW + cc] -= s;
                            }
                        }
                    });
                    rt.charge_flops(2 * (BW * BW * BW) as u64);
                }
            }
        }
        rt.barrier(blocks);
    }

    let mut local = 0.0;
    let mut own = 0usize;
    for j in 0..B {
        for i in j..B {
            if owner(i, j) == me {
                let rid = blk[own];
                own += 1;
                // A read at home would run HomeOwned's start_read; the
                // write section's hooks are both null, so home reads its
                // own block through one.
                local += rt.write::<f64, _>(rid, Resolve::Static(&*ho), |m| {
                    m.iter().map(|x| x.abs()).sum::<f64>()
                });
            }
        }
    }
    rt.allreduce_f64(local, |a, b| a + b)
}

fn hand_barnes(rt: &AceRt) -> f64 {
    const N: usize = 48;
    const G: usize = 8;
    const STEPS: usize = 2;
    let np = rt.nprocs();
    let me = rt.rank();
    let per = N / np;
    let per_g = N / G;

    let bodies = rt.new_space(make(ProtoSpec::Sc));
    let cells = rt.new_space(make(ProtoSpec::Sc));
    let sc = make(ProtoSpec::Sc);

    let mine: Vec<RegionId> = (0..per).map(|_| rt.gmalloc::<f64>(bodies, 7)).collect();
    let all = exchange_handles(rt, N, per, &mine);
    let cent: Vec<RegionId> = (0..G)
        .map(|_| {
            let h = if me == 0 { rt.gmalloc::<f64>(cells, 4) } else { RegionId::NULL };
            RegionId(rt.bcast(0, &[h.0])[0])
        })
        .collect();

    for (i, &rid) in mine.iter().enumerate() {
        let gid = me * per + i;
        rt.map(rid);
        rt.write::<f64, _>(rid, Resolve::Static(&*sc), |b| {
            b[0] = (gid % 9) as f64 * 0.25 - 1.0;
            b[1] = (gid % 7) as f64 * 0.3 - 0.9;
            b[2] = (gid % 5) as f64 * 0.35 - 0.6;
            b[3] = 0.0;
            b[4] = 0.0;
            b[5] = 0.0;
            b[6] = 1.0 / N as f64;
        });
    }
    rt.barrier(bodies);

    rt.change_protocol(bodies, make(ProtoSpec::DynUpdate));
    let upd = make(ProtoSpec::DynUpdate);

    // Hand optimization: map once (this is also where dynamic-update
    // joins happen).
    for g in 0..N {
        rt.map(all[g]);
    }
    for g in 0..G {
        rt.map(cent[g]);
    }

    for _ in 0..STEPS {
        if me == 0 {
            for g in 0..G {
                let (mut cx, mut cy, mut cz, mut m) = (0.0, 0.0, 0.0, 0.0);
                for k in 0..per_g {
                    // A dynamic-update read's end is null.
                    rt.read::<f64, _>(all[g * per_g + k], Resolve::Static(&*upd), |b| {
                        let bm = b[6];
                        cx += b[0] * bm;
                        cy += b[1] * bm;
                        cz += b[2] * bm;
                        m += bm;
                    });
                    rt.charge_flops(7);
                }
                rt.write::<f64, _>(cent[g], Resolve::Static(&*sc), |v| {
                    v[0] = cx / m;
                    v[1] = cy / m;
                    v[2] = cz / m;
                    v[3] = m;
                });
            }
        }
        rt.barrier(cells);
        rt.barrier(bodies);

        for i in 0..per {
            let gi = me * per + i;
            let myg = gi / per_g;
            let bi = mine[i];
            let (px, py, pz) =
                rt.read::<f64, _>(bi, Resolve::Static(&*upd), |b| (b[0], b[1], b[2]));
            let (mut ax, mut ay, mut az) = (0.0, 0.0, 0.0);
            for g in 0..G {
                if g == myg {
                    for k in 0..per_g {
                        let gj = g * per_g + k;
                        if gj != gi {
                            let (bx, by, bz, bm) =
                                rt.read::<f64, _>(all[gj], Resolve::Static(&*upd), |b| {
                                    (b[0], b[1], b[2], b[6])
                                });
                            let dx = bx - px;
                            let dy = by - py;
                            let dz = bz - pz;
                            let d2 = dx * dx + dy * dy + dz * dz + 0.01;
                            let w = bm / (d2 * d2.sqrt());
                            ax += dx * w;
                            ay += dy * w;
                            az += dz * w;
                            rt.charge_flops(13);
                        }
                    }
                } else {
                    let (cx, cy, cz, cm) = rt.read::<f64, _>(cent[g], Resolve::Static(&*sc), |v| {
                        (v[0], v[1], v[2], v[3])
                    });
                    let dx = cx - px;
                    let dy = cy - py;
                    let dz = cz - pz;
                    let d2 = dx * dx + dy * dy + dz * dz + 0.01;
                    let w = cm / (d2 * d2.sqrt());
                    ax += dx * w;
                    ay += dy * w;
                    az += dz * w;
                    rt.charge_flops(13);
                }
            }
            rt.write::<f64, _>(bi, Resolve::Static(&*upd), |b| {
                b[3] = ax;
                b[4] = ay;
                b[5] = az;
            });
        }
        rt.barrier(bodies);

        for &rid in &mine {
            rt.write::<f64, _>(rid, Resolve::Static(&*upd), |b| {
                for a in 0..3 {
                    b[a] += 0.01 * b[3 + a];
                }
            });
            rt.charge_flops(6);
        }
        rt.barrier(bodies);
    }

    let mut local = 0.0;
    for &rid in &mine {
        local += rt
            .read::<f64, _>(rid, Resolve::Static(&*upd), |b| b[0].abs() + b[1].abs() + b[2].abs());
    }
    rt.allreduce_f64(local, |a, b| a + b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{measure, Row};
    use ace_core::CheckMode;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
    }

    /// Verification value of one Table 4 cell at 4 processors.
    fn verification(k: &Kernel, what: What, tweak: Tweak) -> f64 {
        let cell =
            Cell { app: k.name, config: "test", what, input: Input::Default, procs: 4, tweak };
        measure(&cell).out.verification
    }

    #[test]
    fn all_kernels_compile_at_every_level() {
        let cfg = SystemConfig::builtin();
        for k in kernels() {
            for level in OptLevel::ALL {
                compile(k.source, &cfg, level)
                    .unwrap_or_else(|e| panic!("{} at {level:?}: {e}", k.name));
            }
        }
    }

    #[test]
    fn verification_survives_every_level_and_matches_hand() {
        for k in kernels() {
            let v0 = verification(&k, What::Compiled(OptLevel::O0), Tweak::None);
            for level in [OptLevel::Licm, OptLevel::Merge, OptLevel::Direct] {
                let v = verification(&k, What::Compiled(level), Tweak::None);
                assert!(close(v0, v), "{}: {level:?} changed the result ({v0} vs {v})", k.name);
            }
            let hv = verification(&k, What::Hand, Tweak::None);
            assert!(close(v0, hv), "{}: hand version disagrees ({v0} vs {hv})", k.name);
        }
    }

    #[test]
    fn fully_optimized_kernels_run_violation_free_under_fail() {
        // At LI+MC+DC the compiler deletes null hooks, so a section can
        // lose one end (Barnes/BSC/Water keep `start_read`, lose the null
        // `end_read`). The runtime must treat such a section as invisible:
        // under `CheckMode::Fail` a spurious `SectionLeftOpen` panics.
        for k in kernels() {
            let v0 = verification(&k, What::Compiled(OptLevel::O0), Tweak::None);
            let checked =
                verification(&k, What::Compiled(OptLevel::Direct), Tweak::Check(CheckMode::Fail));
            assert!(close(v0, checked), "{}: checked run diverged", k.name);
        }
    }

    #[test]
    fn table4_shape_holds() {
        // At 4 ranks, held to the repository's own bars on Table 4 (the
        // claims with no paper words); `report` holds the committed 8-rank
        // file to every claim.
        let fig = crate::figures::figure("table4").unwrap();
        let rows: Vec<Row> = table4_cells(4).unwrap().iter().map(measure).collect();
        let verdicts = crate::claims::evaluate(fig, &rows);
        let bars: Vec<_> = verdicts.iter().filter(|v| v.claim.paper.is_empty()).collect();
        assert_eq!(bars.len(), 3 * 5, "level-step, full-vs-base and hand-vs-compiled per kernel");
        for v in bars {
            let (c, line, value) = (v.claim, v.line, v.value);
            assert!(v.holds(), "[{}] {line}: {} {value:.3}, not {}", c.name, c.what, c.bound);
        }
        // TSP's levels sit within 3 % of each other, so the claims' bounds
        // say little about it: also hold its answer and the
        // compiler's static output — each level leaves no more annotation
        // calls in the program, and no more dispatched ones, than the
        // level before.
        let tsp_row =
            |config| rows.iter().find(|r| r.cell.app == "TSP" && r.cell.config == config).unwrap();
        let compiled = tsp_row(OptLevel::Direct.label()).out.verification;
        let hand = tsp_row("hand").out.verification;
        assert!(close(compiled, hand), "TSP: compiled {compiled} vs hand {hand}");
        let cfg = SystemConfig::builtin();
        let tsp = kernel("TSP");
        let counts = OptLevel::ALL.map(|level| {
            let (dispatched, direct) = compile(tsp.source, &cfg, level).unwrap().annotation_stats();
            (dispatched + direct, dispatched)
        });
        for w in counts.windows(2) {
            assert!(w[1].0 <= w[0].0 && w[1].1 <= w[0].1, "TSP: annotations grew: {counts:?}");
        }
        assert!(counts[3] < counts[0], "TSP: optimization removed nothing: {counts:?}");
    }

    #[test]
    fn table4_rejects_32_procs_before_any_machine_starts() {
        let err = table4_cells(32).unwrap_err();
        assert_eq!(err.kernel, "Barnes-Hut");
        assert_eq!(err.split.largest(), Some(48));
        let text = err.to_string();
        assert!(text.contains("the largest --procs it takes is 48"), "{text}");
        assert!(text.ends_with("the whole table takes --procs 4 or 8"), "{text}");
        // Past Barnes' bodies, BSC's per-rank cursor array is the limit.
        let err = table4_cells(48).unwrap_err();
        assert_eq!((err.kernel, err.split.largest()), ("BSC", Some(8)));
        assert!(table4_cells(0).is_err() && table4_cells(7).is_err());
        let argv = ["table4", "--procs", "32"].map(String::from);
        let args = crate::args::Args::parse(&argv).unwrap();
        let err = crate::figures::table4(&args).unwrap_err();
        assert!(err.starts_with("table4 --procs 32: the Barnes-Hut kernel"), "{err}");
    }

    #[test]
    fn every_kernel_runs_at_both_ends_of_its_split() {
        for k in kernels() {
            let sizes: Vec<usize> = (1..=128).filter(|&n| k.split.takes(n)).collect();
            for procs in [sizes[0], sizes[sizes.len() - 1]] {
                let run = |what| {
                    let cell = Cell {
                        app: k.name,
                        config: "test",
                        what,
                        input: Input::Default,
                        procs,
                        tweak: Tweak::None,
                    };
                    measure(&cell).out.verification
                };
                let (hand, compiled) = (run(What::Hand), run(What::Compiled(OptLevel::Direct)));
                assert!(close(hand, compiled), "{} at {procs}: {hand} vs {compiled}", k.name);
            }
        }
    }

    #[test]
    fn table4_accepts_8_procs() {
        let cells = table4_cells(8).unwrap();
        assert_eq!(cells.len(), 25);
        assert!(cells.iter().all(|c| c.procs == 8));
        assert_eq!(table4_procs(), [4, 8]);
        assert!(kernels().iter().all(|k| k.split.takes(8) && k.split.takes(4)));
    }
}
