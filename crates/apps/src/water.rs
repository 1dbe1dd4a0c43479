//! Water: molecular dynamics with phase-alternating protocols (§2.2, §5.2).
//!
//! The program alternates between an *intra-molecular* phase, where each
//! processor integrates only the molecules it owns, and an
//! *inter-molecular* phase, where every processor accumulates pairwise
//! force contributions into molecules owned by others. The paper reports
//! a 2× speedup from "shifting between a null protocol for the
//! intra-processor phase, and an update protocol tailored to the
//! communication pattern of the inter-processor phase" — and notes that
//! neither protocol alone would be correct for the whole program, which is
//! precisely what `Ace_ChangeProtocol` (the space indirection) buys.
//!
//! Each molecule is one region: position, velocity, and a force
//! accumulator. The custom variant runs intra phases under
//! [`ace_protocols::NullProtocol`] and the force phase under
//! [`ace_protocols::PipelinedWrite`] (delta accumulation, completion
//! checked at the barrier). The SC variant relies on exclusive write
//! sections for the read-modify-write force updates. Both apply the force
//! buffers as a wavefront: in round `k` processor `r` writes owner
//! `k − r`'s molecules, so owners take their writers in rank order, all
//! owners at once.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dsm::{exchange_ids, Dsm};
use crate::Variant;
use ace_protocols::{AdaptiveSpec, ProtoSpec};

/// Fields of a molecule region, as f64 lanes.
const POS: usize = 0; // [0..3)
const VEL: usize = 3; // [3..6)
const FRC: usize = 6; // [6..9)
/// f64 lanes per molecule.
pub const MOL_LANES: usize = 9;

const DT: f64 = 0.002;

/// Water workload parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Number of molecules.
    pub molecules: usize,
    /// Time steps.
    pub steps: usize,
    /// Workload seed.
    pub seed: u64,
}

impl Params {
    /// The paper's input (Table 3): 512 molecules, 3 steps.
    pub fn paper() -> Self {
        Params { molecules: 512, steps: 3, seed: 23 }
    }

    /// A scaled-down input for unit tests.
    pub fn small() -> Self {
        Params { molecules: 24, steps: 2, seed: 23 }
    }
}

fn block(total: usize, nprocs: usize, rank: usize) -> std::ops::Range<usize> {
    let per = total.div_ceil(nprocs);
    (per * rank).min(total)..(per * (rank + 1)).min(total)
}

/// The force wavefront's schedule for `rank`: one entry per round, naming
/// the owner whose molecules `rank` writes in it. With `owners` ranks
/// owning a molecule there are `2·owners − 1` rounds, and in round `k`
/// rank `r` writes owner `k − r` when `0 ≤ k − r < owners`.
fn wavefront(n: usize, nprocs: usize, rank: usize) -> Vec<Option<usize>> {
    let owners = (0..nprocs).filter(|&r| !block(n, nprocs, r).is_empty()).count();
    (0..(2 * owners).saturating_sub(1))
        .map(|k| k.checked_sub(rank).filter(|&o| o < owners && rank < owners))
        .collect()
}

/// Bounded inverse-cube pair force (gravity-like with softening), cheap
/// and stable — the sharing pattern, not the chemistry, is what the
/// benchmark reproduces.
fn pair_force(pi: &[f64], pj: &[f64]) -> [f64; 3] {
    let dx = pj[0] - pi[0];
    let dy = pj[1] - pi[1];
    let dz = pj[2] - pi[2];
    let d2 = dx * dx + dy * dy + dz * dz + 0.05;
    let inv = 1.0 / (d2 * d2.sqrt());
    [dx * inv, dy * inv, dz * inv]
}

/// Run Water; returns the verification value (global Σ|pos| after the
/// last step). Every node first accumulates its pair contributions into a
/// private buffer, then applies it in the rounds of a wavefront (see
/// `wavefront`), so every molecule sums in a fixed (node, molecule-index)
/// order — f64 addition does not commute in rounding, so this fixed
/// reduction order is what makes the checksum reproducible run-to-run and
/// digest-comparable across configurations.
pub fn run<D: Dsm>(d: &D, p: &Params, v: Variant) -> f64 {
    let mols_space = d.new_space(ProtoSpec::Sc);
    let n = p.molecules;
    let mine = block(n, d.nprocs(), d.rank());

    // Allocate and initialize owned molecules.
    let my_ids: Vec<u64> = mine.clone().map(|_| d.gmalloc::<f64>(mols_space, MOL_LANES)).collect();
    let all_ids = exchange_ids(d, &my_ids);
    // Flattened global id table.
    let mut mol_id = vec![0u64; n];
    for (owner, ids) in all_ids.iter().enumerate() {
        for (k, &rid) in ids.iter().enumerate() {
            mol_id[block(n, d.nprocs(), owner).start + k] = rid;
        }
    }

    let mut rng = StdRng::seed_from_u64(p.seed.wrapping_add(d.rank() as u64));
    for &rid in &my_ids {
        d.map(rid);
        d.write::<f64, _>(rid, |m| {
            for x in m.iter_mut().take(3) {
                *x = rng.gen_range(-1.0..1.0);
            }
            for x in &mut m[VEL..VEL + 3] {
                *x = rng.gen_range(-0.1..0.1);
            }
        });
        d.unmap(rid);
    }
    d.barrier(mols_space);

    // My share of the pairs: the SPLASH half-shell decomposition — the
    // owner of molecule i computes interactions (i, i+1), ..., (i, i+n/2)
    // modulo n, so half of every pair's force writes hit locally-owned
    // molecules.
    let my_pairs: Vec<(usize, usize)> = {
        let mut v = Vec::new();
        let half = n / 2;
        for i in mine.clone() {
            for k in 1..=half {
                let j = (i + k) % n;
                // For even n the diameter pair would be computed twice
                // (once from each end); keep it only on the lower index.
                if n.is_multiple_of(2) && k == half && i > j {
                    continue;
                }
                v.push((i, j));
            }
        }
        v
    };

    if v == Variant::Custom {
        // Intra phases run under the null protocol from here on.
        d.change_protocol(mols_space, ProtoSpec::Null);
    } else if v == Variant::Adaptive {
        // The programmer knows molecules see relaxed phase-alternating
        // sharing (that is why Pipelined is a candidate at all), so the
        // engine starts there and keeps it for the whole run unless the
        // profiles disagree: zero flushes at steady state, against the
        // custom variant's two change_protocol flushes per step.
        let spec = AdaptiveSpec::new(AdaptiveSpec::SC | AdaptiveSpec::PIPELINED)
            .starting_at(AdaptiveSpec::PIPELINED);
        d.change_protocol(mols_space, ProtoSpec::Adaptive(spec));
    }

    for _ in 0..p.steps {
        // ---- intra-molecular phase: half-kick + drift on owned data ----
        for &rid in &my_ids {
            d.map(rid);
            d.write::<f64, _>(rid, |m| {
                for a in 0..3 {
                    let acc = m[FRC + a];
                    m[VEL + a] += 0.5 * DT * acc;
                    m[POS + a] += DT * m[VEL + a];
                    m[FRC + a] = 0.0; // zero the accumulator for this step
                }
            });
            d.unmap(rid);
            d.charge_flops(18);
        }
        d.barrier(mols_space);

        // ---- inter-molecular phase ----
        if v == Variant::Custom {
            d.change_protocol(mols_space, ProtoSpec::Pipelined);
        }
        // Accumulate this node's contributions into a private buffer: the
        // pair loop only reads shared data.
        let mut frc = vec![[0.0f64; 3]; n];
        let mut touched = vec![false; n];
        for &(i, j) in &my_pairs {
            let (ri, rj) = (mol_id[i], mol_id[j]);
            d.map(ri);
            d.map(rj);
            let pi = d.read::<f64, _>(ri, |m| [m[0], m[1], m[2]]);
            let pj = d.read::<f64, _>(rj, |m| [m[0], m[1], m[2]]);
            let f = pair_force(&pi, &pj);
            d.charge_flops(14);
            for a in 0..3 {
                frc[i][a] += f[a];
                frc[j][a] -= f[a];
            }
            touched[i] = true;
            touched[j] = true;
            d.unmap(ri);
            d.unmap(rj);
            d.charge_flops(6);
        }
        // Let every node finish reading before anyone writes: without
        // this rendezvous the sharer sets the first writer invalidates
        // (and with them the message counts) depend on read/write timing.
        d.barrier(mols_space);
        // Apply the buffers as a wavefront: in round k this node writes
        // owner k − rank's molecules in index order, then every node enters
        // the barrier. Each owner takes one writer a round, in rank order,
        // so every accumulator sums the same values in the same order on
        // every run regardless of how messages interleave.
        for owner in wavefront(n, d.nprocs(), d.rank()) {
            for i in owner.map_or(0..0, |o| block(n, d.nprocs(), o)) {
                if !touched[i] {
                    continue;
                }
                let rid = mol_id[i];
                d.map(rid);
                d.write::<f64, _>(rid, |m| {
                    for a in 0..3 {
                        m[FRC + a] += frc[i][a];
                    }
                });
                d.unmap(rid);
                d.charge_flops(3);
            }
            d.barrier(mols_space);
        }
        if v == Variant::Custom {
            d.change_protocol(mols_space, ProtoSpec::Null);
        }

        // ---- update phase: second half-kick on owned data ----
        for &rid in &my_ids {
            d.map(rid);
            d.write::<f64, _>(rid, |m| {
                for a in 0..3 {
                    m[VEL + a] += 0.5 * DT * m[FRC + a];
                }
            });
            d.unmap(rid);
            d.charge_flops(6);
        }
        d.barrier(mols_space);
    }

    // Verification checksum. Under the custom variant the space is on the
    // null protocol here, and owners read their own (master) data.
    let mut local = 0.0;
    for &rid in &my_ids {
        d.map(rid);
        local += d.read::<f64, _>(rid, |m| m[0].abs() + m[1].abs() + m[2].abs());
        d.unmap(rid);
    }
    d.allreduce_f64(local, |a, b| a + b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{launch_ace, launch_crl, observe};
    use ace_core::{CostModel, Spmd};

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
    }

    #[test]
    fn variants_agree_within_fp_tolerance() {
        let p = Params::small();
        let sc = launch_ace(3, CostModel::free(), |d| run(d, &p, Variant::Sc));
        let cu = launch_ace(3, CostModel::free(), |d| run(d, &p, Variant::Custom));
        assert!(
            close(sc.verification, cu.verification),
            "sc={} custom={}",
            sc.verification,
            cu.verification
        );
    }

    #[test]
    fn ace_and_crl_agree() {
        let p = Params::small();
        let a = launch_ace(2, CostModel::free(), |d| run(d, &p, Variant::Sc));
        let c = launch_crl(2, CostModel::free(), |d| run(d, &p, Variant::Sc));
        assert!(close(a.verification, c.verification));
    }

    #[test]
    fn custom_protocols_cut_messages() {
        let p = Params::small();
        let sc = launch_ace(4, CostModel::free(), |d| run(d, &p, Variant::Sc));
        let cu = launch_ace(4, CostModel::free(), |d| run(d, &p, Variant::Custom));
        assert!(
            cu.msgs < sc.msgs,
            "null+pipelined should cut traffic: custom={} sc={}",
            cu.msgs,
            sc.msgs
        );
    }

    #[test]
    fn wavefront_gives_each_owner_one_writer_per_round_in_rank_order() {
        for n in [1, 7, 24, 96, 512] {
            for nprocs in [1, 2, 3, 5, 8, 32, 1024] {
                let owning: Vec<usize> =
                    (0..nprocs).filter(|&r| !block(n, nprocs, r).is_empty()).collect();
                let rounds = 2 * owning.len() - 1;
                let plans: Vec<_> = (0..nprocs).map(|r| wavefront(n, nprocs, r)).collect();
                // writers[o]: the ranks that write owner o, in round order.
                let mut writers = vec![Vec::new(); nprocs];
                for k in 0..rounds {
                    let mut taken = vec![false; nprocs];
                    for (r, plan) in plans.iter().enumerate() {
                        assert_eq!(plan.len(), rounds, "n={n} P={nprocs}: rank {r}'s rounds");
                        if let Some(o) = plan[k] {
                            assert!(
                                !std::mem::replace(&mut taken[o], true),
                                "n={n} P={nprocs}: round {k} gives owner {o} two writers"
                            );
                            writers[o].push(r);
                        }
                    }
                }
                // Every (rank, owner) pair of owning ranks in exactly one
                // round, each owner's writers in increasing rank order.
                for (o, w) in writers.iter().enumerate() {
                    let want = if owning.contains(&o) { &owning[..] } else { &[][..] };
                    assert_eq!(w, want, "n={n} P={nprocs}: owner {o}'s writers");
                }
            }
        }
    }

    #[test]
    fn wavefront_sums_bit_for_bit_as_the_rank_turns_did() {
        // The verification value and the fold of every rank's home-region
        // digest (final forces included), recorded from the barrier-
        // separated rank turns the wavefront replaced. Every variant sums
        // in the same order, so all three share one pair per input.
        let bench = Params { molecules: 96, steps: 2, seed: 8 };
        let cases = [
            (Params::small(), 1, 0x4041af8e420e712d_u64, 0xd5a30331036edcba_u64),
            (Params::small(), 3, 0x4042a0153d14c3e5, 0x885db076ef26bdee),
            (Params::small(), 5, 0x404195963ca51174, 0xd6d2fc548d54b10a),
            (Params::small(), 8, 0x4042001b9806940b, 0xb40ac10490817375),
            (bench, 8, 0x406251e5acb2fbea, 0x8123f3f739770e7d),
        ];
        for (p, procs, bits, digest) in &cases {
            for v in [Variant::Sc, Variant::Custom, Variant::Adaptive] {
                let machine = Spmd::builder().nprocs(*procs).cost(CostModel::free());
                let got = observe(machine, |_| {}, |d| run(d, p, v));
                let fold = got.digests.iter().fold(0, |h: u64, &d| h.rotate_left(5) ^ d);
                let case = format!("{} molecules, {procs} ranks, {v:?}", p.molecules);
                assert_eq!(got.outcome.verification.to_bits(), *bits, "{case}");
                assert_eq!(fold, *digest, "{case}");
            }
        }
        for (p, procs, bits, _) in [&cases[1], &cases[3]] {
            let got = launch_crl(*procs, CostModel::free(), |d| run(d, p, Variant::Sc));
            assert_eq!(got.verification.to_bits(), *bits, "CRL, {procs} ranks");
        }
        let paper =
            launch_ace(32, CostModel::free(), |d| run(d, &Params::paper(), Variant::Custom));
        assert_eq!(paper.verification.to_bits(), 0x40881def93d01f5f, "paper input, 32 ranks");
    }

    #[test]
    fn energy_is_bounded() {
        // Sanity: the integrator does not blow up on the small input.
        let p = Params::small();
        let out = launch_ace(2, CostModel::free(), |d| run(d, &p, Variant::Sc));
        assert!(out.verification.is_finite());
        assert!(out.verification < 1e4);
    }
}
