//! EM3D across real OS processes: the multi-process quickstart.
//!
//! With no arguments this parent process launches one child OS process
//! per rank (`--rank R --procs N --rendezvous PATH`), each of which runs
//! one rank of the same Ace machine over the Unix-socket transport —
//! rank R listens at `PATH.mR` and dials every lower rank, so the
//! children may start in any order. The parent then runs
//! the identical workload on the in-process transport and checks that
//! both machines produced bit-identical verification values: the
//! transport is a substrate choice, not a semantic one.
//!
//! Run with: `cargo run --release --example em3d_multiproc`

use std::process::{Command, Stdio};

use ace::apps::em3d;
use ace::apps::{AceDsm, Variant};
use ace::core::{run_ace_rank, run_ace_with, CostModel, SocketCfg, Spmd, TransportKind};

const NPROCS: usize = 2;

fn params() -> em3d::Params {
    em3d::Params {
        e_nodes: 64,
        h_nodes: 64,
        degree: 3,
        pct_remote: 25,
        steps: 2,
        seed: 11,
        hoist_maps: false,
    }
}

fn arg_after(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
}

/// Child mode: run exactly one rank of the socket machine, print the
/// verification value's bit pattern, exit.
fn child(rank: usize, nprocs: usize, rendezvous: &str) {
    let p = params();
    let builder = Spmd::builder()
        .nprocs(nprocs)
        .cost(CostModel::cm5())
        .transport(TransportKind::Socket(SocketCfg::unix(rendezvous)));
    let out = run_ace_rank(builder, rank, |rt| {
        let d = AceDsm::new(rt);
        em3d::run(&d, &p, Variant::Custom)
    })
    .unwrap_or_else(|e| panic!("rank {rank}: {e}"));
    println!("rank {} of {}: verification_bits {}", out.rank, out.nprocs, out.result.to_bits());
    println!(
        "rank {}: {} logical messages, {:.1} wall ms",
        out.rank,
        out.stats.logical_msgs,
        out.wall.as_secs_f64() * 1e3
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(rank) = arg_after(&args, "--rank") {
        let rank: usize = rank.parse().expect("--rank takes a number");
        let nprocs: usize =
            arg_after(&args, "--procs").expect("--procs required").parse().expect("number");
        let rdv = arg_after(&args, "--rendezvous").expect("--rendezvous required");
        child(rank, nprocs, &rdv);
        return;
    }

    // Parent mode: one child process per rank, all given the same fresh
    // Unix-socket path.
    let exe = std::env::current_exe().expect("own executable path");
    let rdv = std::env::temp_dir().join(format!("ace-em3d-rdv-{}.sock", std::process::id()));
    let rdv = rdv.to_str().expect("utf-8 temp path").to_string();
    println!("launching {NPROCS} OS processes, rendezvous at {rdv}");

    let children: Vec<_> = (0..NPROCS)
        .map(|rank| {
            Command::new(&exe)
                .args(["--rank", &rank.to_string()])
                .args(["--procs", &NPROCS.to_string()])
                .args(["--rendezvous", &rdv])
                .stdout(Stdio::piped())
                .spawn()
                .expect("spawn child rank")
        })
        .collect();

    let mut socket_bits: Option<u64> = None;
    for (rank, child) in children.into_iter().enumerate() {
        let out = child.wait_with_output().expect("wait for child rank");
        let text = String::from_utf8_lossy(&out.stdout);
        print!("{text}");
        assert!(out.status.success(), "child rank {rank} failed");
        if let Some(bits) = text
            .lines()
            .find_map(|l| l.split("verification_bits ").nth(1).map(|b| b.trim().to_string()))
        {
            let bits: u64 = bits.parse().expect("verification bits");
            if let Some(prev) = socket_bits {
                assert_eq!(prev, bits, "ranks disagree on the verification value");
            }
            socket_bits = Some(bits);
        }
    }
    let socket_bits = socket_bits.expect("no child printed a verification value");

    // The reference run: same workload, same machine size, in-process.
    let p = params();
    let r = run_ace_with(Spmd::builder().nprocs(NPROCS).cost(CostModel::cm5()), |rt| {
        let d = AceDsm::new(rt);
        em3d::run(&d, &p, Variant::Custom)
    });
    let inproc_bits = r.results[0].to_bits();
    assert_eq!(inproc_bits, socket_bits, "socket machine and in-process machine disagree on EM3D");
    println!(
        "in-process machine agrees: verification {} on both transports",
        f64::from_bits(inproc_bits)
    );
}
