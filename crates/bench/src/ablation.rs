//! `ace-bench ablation`: the design decisions DESIGN.md calls out, swept:
//!   1. network-latency sweep (sensitivity of the Fig 7b speedups),
//!   2. region-granularity sweep (the bulk-transfer story of §2.3),
//!   3. CRL URC-capacity sweep (mapping-design sensitivity, §5.1).

use ace_apps::{AceDsm, CrlDsm, Dsm, Variant};
use ace_core::{run_ace, CostModel, Spmd};
use ace_crl::CrlRt;
use ace_protocols::ProtoSpec;

use crate::args::Args;
use crate::cell::{measure, Cell, Input, Tweak, What};

/// Rank 0 allocates `n` regions of `words` words under SC; rank 1 then
/// maps, reads and unmaps each of them, `passes` times over.
fn read_sweep<D: Dsm>(d: &D, n: usize, words: usize, passes: usize) {
    let s = d.new_space(ProtoSpec::Sc);
    let mut mine = Vec::new();
    if d.rank() == 0 {
        mine.extend((0..n).map(|_| d.gmalloc_words(s, words)));
    }
    let ids = d.bcast(0, &mine);
    d.barrier(s);
    if d.rank() == 1 {
        for &r in ids.iter().cycle().take(passes * n) {
            d.map(r);
            d.start_read(r);
            d.end_read(r);
            d.unmap(r);
        }
    }
    d.barrier(s);
}

/// `ace-bench ablation`.
pub fn ablation(_: &Args) -> Result<(), String> {
    println!("== Ablation 1: EM3D custom-protocol speedup vs network latency scale ==");
    for scale in [1u64, 2, 4, 8] {
        let (input, tweak) = (Input::Default, Tweak::Net(scale));
        let ms = |config, v| {
            let what = What::Ace(v);
            measure(&Cell { app: "em3d", config, what, input, procs: 8, tweak }).ms()
        };
        let speedup = ms("sc", Variant::Sc) / ms("custom", Variant::Custom);
        println!("  net x{scale:<2}  static-update speedup = {speedup:.2}");
    }

    println!("\n== Ablation 2: bulk transfer — total time vs region granularity ==");
    // Move a fixed 64 KiB of data as R regions of varying size.
    for nregions in [1usize, 8, 64, 512] {
        let words = 8192 / nregions;
        let r = run_ace(2, CostModel::cm5(), |rt| read_sweep(&AceDsm::new(rt), nregions, words, 1));
        println!("  {nregions:>4} regions x {words:>5} words: {:>8.2} ms", r.sim_ns as f64 / 1e6);
    }

    println!("\n== Ablation 3: CRL unmapped-region-cache capacity (4096-region sweep) ==");
    for cap in [64usize, 256, 1024, 4096] {
        let r = Spmd::builder().nprocs(2).cost(CostModel::cm5()).run(|node| {
            let crl = CrlRt::with_urc_capacity(node, cap);
            read_sweep(&CrlDsm::new(&crl), 2048, 4, 2);
            let c = crl.inner().counters();
            crl.inner().shutdown();
            (c.map_misses, c.read_misses)
        });
        let (mm, rm) = r.results[1];
        println!(
            "  URC {cap:>5}: {:>8.2} ms  (map re-misses {mm}, read misses {rm})",
            r.sim_ns as f64 / 1e6
        );
    }
    Ok(())
}
