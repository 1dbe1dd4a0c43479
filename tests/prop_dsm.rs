//! Property tests: protocol correctness against a serial oracle.
//!
//! A random schedule of region writes (each slot written by exactly one
//! node per phase, phases separated by barriers) must read back exactly
//! the oracle's values under the default protocol, under the update
//! protocols, and on CRL. This is the linearizability-flavoured check the
//! paper's §6 asks for ("a theoretical framework of correctness would be
//! useful") reduced to executable form.

use ace::core::{run_ace, CostModel, RegionId};
use ace::crl::run_crl;
use ace::protocols::{make, ProtoSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One phase: for each region, which node writes which value (or none).
#[derive(Debug)]
struct Schedule {
    nprocs: usize,
    nregions: usize,
    /// phases[p][r] = Some((writer, value))
    phases: Vec<Vec<Option<(usize, u64)>>>,
}

fn schedule(rng: &mut StdRng) -> Schedule {
    let (nprocs, nregions) = (rng.gen_range(2..5), rng.gen_range(1..5));
    let phases = (0..rng.gen_range(1..4))
        .map(|_| {
            (0..nregions)
                .map(|_| {
                    rng.gen_bool(0.5).then(|| (rng.gen_range(0..nprocs), rng.gen_range(1..1000)))
                })
                .collect()
        })
        .collect();
    Schedule { nprocs, nregions, phases }
}

/// The schedules of the `k`th oracle property, each printed before it
/// runs. Each property sweeps its own 24 seeds, `24k..24k + 24`, so no
/// two of them run the same schedule.
fn schedules(k: u64) -> impl Iterator<Item = Schedule> {
    (24 * k..24 * (k + 1)).map(|seed| {
        let s = schedule(&mut StdRng::seed_from_u64(seed));
        eprintln!("seed {seed}: {s:?}");
        s
    })
}

/// What every node must observe after the last phase.
fn oracle(s: &Schedule) -> Vec<u64> {
    let mut vals = vec![0u64; s.nregions];
    for phase in &s.phases {
        for (r, w) in phase.iter().enumerate() {
            if let Some((_, v)) = w {
                vals[r] = *v;
            }
        }
    }
    vals
}

fn run_schedule_ace(s: &Schedule, proto: ProtoSpec) -> Vec<Vec<u64>> {
    let r = run_ace(s.nprocs, CostModel::free(), |rt| {
        let space = rt.new_space(make(ProtoSpec::Sc));
        let regions: Vec<RegionId> = if rt.rank() == 0 {
            let ids: Vec<u64> = (0..s.nregions).map(|_| rt.gmalloc::<u64>(space, 1).0).collect();
            rt.bcast(0, &ids).iter().map(|&x| RegionId(x)).collect()
        } else {
            rt.bcast(0, &[]).iter().map(|&x| RegionId(x)).collect()
        };
        for &r in &regions {
            rt.map(r);
        }
        rt.barrier(space);
        rt.change_protocol(space, make(proto));
        for phase in &s.phases {
            for (r, w) in phase.iter().enumerate() {
                if let Some((writer, v)) = w {
                    if *writer == rt.rank() {
                        rt.start_write(regions[r]);
                        rt.with_mut::<u64, _>(regions[r], |d| d[0] = *v);
                        rt.end_write(regions[r]);
                    }
                }
            }
            rt.barrier(space);
        }
        let mut out = Vec::new();
        for &r in &regions {
            rt.start_read(r);
            out.push(rt.with::<u64, _>(r, |d| d[0]));
            rt.end_read(r);
        }
        rt.barrier(space);
        out
    });
    r.results
}

#[test]
fn sc_matches_oracle() {
    for s in schedules(0) {
        let want = oracle(&s);
        for node in run_schedule_ace(&s, ProtoSpec::Sc) {
            assert_eq!(node, want);
        }
    }
}

#[test]
fn dynamic_update_matches_oracle() {
    for s in schedules(1) {
        let want = oracle(&s);
        for node in run_schedule_ace(&s, ProtoSpec::DynUpdate) {
            assert_eq!(node, want);
        }
    }
}

#[test]
fn migratory_matches_oracle() {
    for s in schedules(2) {
        let want = oracle(&s);
        for node in run_schedule_ace(&s, ProtoSpec::Migratory) {
            assert_eq!(node, want);
        }
    }
}

#[test]
fn crl_matches_oracle() {
    for s in schedules(3) {
        let want = oracle(&s);
        let r = run_crl(s.nprocs, CostModel::free(), |crl| {
            let regions: Vec<RegionId> = if crl.rank() == 0 {
                let ids: Vec<u64> = (0..s.nregions).map(|_| crl.create_words(1).0).collect();
                crl.bcast(0, &ids).iter().map(|&x| RegionId(x)).collect()
            } else {
                crl.bcast(0, &[]).iter().map(|&x| RegionId(x)).collect()
            };
            for &r in &regions {
                crl.map(r);
            }
            crl.barrier();
            for phase in &s.phases {
                for (r, w) in phase.iter().enumerate() {
                    if let Some((writer, v)) = w {
                        if *writer == crl.rank() {
                            crl.start_write(regions[r]);
                            crl.with_mut::<u64, _>(regions[r], |d| d[0] = *v);
                            crl.end_write(regions[r]);
                        }
                    }
                }
                crl.barrier();
            }
            let mut out = Vec::new();
            for &r in &regions {
                crl.start_read(r);
                out.push(crl.with::<u64, _>(r, |d| d[0]));
                crl.end_read(r);
            }
            crl.barrier();
            out
        });
        for node in r.results {
            assert_eq!(node, want);
        }
    }
}

#[test]
fn protocol_chain_preserves_data() {
    for seed in 0..24 {
        let rng = &mut StdRng::seed_from_u64(seed);
        let vals: Vec<u64> = (0..rng.gen_range(1..6)).map(|_| rng.gen_range(1..10_000)).collect();
        let protos: Vec<usize> = (0..rng.gen_range(1..5)).map(|_| rng.gen_range(0..4)).collect();
        eprintln!("seed {seed}: vals {vals:?}, protos {protos:?}");
        // Writing under SC, then threading the space through a random
        // chain of protocol changes, must preserve region contents.
        let chain: Vec<ProtoSpec> = protos
            .iter()
            .map(|i| {
                [ProtoSpec::Sc, ProtoSpec::DynUpdate, ProtoSpec::StaticUpdate, ProtoSpec::HomeOwned]
                    [*i]
            })
            .collect();
        let r = run_ace(3, CostModel::free(), |rt| {
            let space = rt.new_space(make(ProtoSpec::Sc));
            let regions: Vec<RegionId> = if rt.rank() == 0 {
                let ids: Vec<u64> = vals.iter().map(|_| rt.gmalloc::<u64>(space, 1).0).collect();
                rt.bcast(0, &ids).iter().map(|&x| RegionId(x)).collect()
            } else {
                rt.bcast(0, &[]).iter().map(|&x| RegionId(x)).collect()
            };
            for (&r, &v) in regions.iter().zip(&vals) {
                rt.map(r);
                if rt.rank() == 0 {
                    rt.start_write(r);
                    rt.with_mut::<u64, _>(r, |d| d[0] = v);
                    rt.end_write(r);
                }
            }
            rt.barrier(space);
            // Everyone reads once (populating caches/subscriptions).
            for &r in &regions {
                rt.start_read(r);
                rt.with::<u64, _>(r, |d| d[0]);
                rt.end_read(r);
            }
            rt.barrier(space);
            for p in &chain {
                rt.change_protocol(space, make(*p));
            }
            let mut out = Vec::new();
            for &r in &regions {
                rt.start_read(r);
                out.push(rt.with::<u64, _>(r, |d| d[0]));
                rt.end_read(r);
            }
            rt.barrier(space);
            out
        });
        for node in r.results {
            assert_eq!(node, vals);
        }
    }
}
