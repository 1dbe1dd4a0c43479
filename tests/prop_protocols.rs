//! Protocol-specific property tests: each protocol's *relaxed* semantics
//! still guarantee its documented invariants under random workloads.

use ace::core::{run_ace, CostModel, RegionId};
use ace::protocols::{make, ProtoSpec};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Pipelined delta writes: concurrent additive contributions from
/// random writers sum exactly (commutative accumulation, no lost
/// updates), even though no writer ever holds exclusive access.
#[test]
fn pipelined_accumulation_is_exact() {
    for seed in 0..24 {
        let rng = &mut StdRng::seed_from_u64(seed);
        let contributions: Vec<(usize, i32)> = (0..rng.gen_range(1..40))
            .map(|_| (rng.gen_range(0..4), rng.gen_range(1..100)))
            .collect();
        eprintln!("seed {seed}: {contributions:?}");
        let expected: f64 = contributions.iter().map(|(_, v)| *v as f64).sum();
        let r = run_ace(4, CostModel::free(), |rt| {
            let s = rt.new_space(make(ProtoSpec::Pipelined));
            let rid = if rt.rank() == 0 {
                RegionId(rt.bcast(0, &[rt.gmalloc::<f64>(s, 1).0])[0])
            } else {
                RegionId(rt.bcast(0, &[])[0])
            };
            rt.map(rid);
            rt.barrier(s);
            for (writer, v) in &contributions {
                if *writer == rt.rank() {
                    rt.start_write(rid);
                    rt.with_mut::<f64, _>(rid, |d| d[0] += *v as f64);
                    rt.end_write(rid);
                }
            }
            rt.barrier(s);
            rt.start_read(rid);
            let v = rt.with::<f64, _>(rid, |d| d[0]);
            rt.end_read(rid);
            rt.barrier(s);
            v
        });
        for v in r.results {
            assert_eq!(v, expected);
        }
    }
}

/// Static update: after each barrier, every prior subscriber observes
/// exactly the home's latest value, for random write sequences.
#[test]
fn static_update_publishes_exactly_at_barriers() {
    for seed in 0..24 {
        let rng = &mut StdRng::seed_from_u64(seed);
        let writes: Vec<u64> = (0..rng.gen_range(1..8)).map(|_| rng.gen_range(1..1000)).collect();
        eprintln!("seed {seed}: {writes:?}");
        let r = run_ace(3, CostModel::free(), |rt| {
            let s = rt.new_space(make(ProtoSpec::StaticUpdate));
            let rid = if rt.rank() == 0 {
                RegionId(rt.bcast(0, &[rt.gmalloc::<u64>(s, 1).0])[0])
            } else {
                RegionId(rt.bcast(0, &[])[0])
            };
            rt.map(rid); // subscribes
            rt.barrier(s);
            let mut seen = Vec::new();
            for w in &writes {
                if rt.rank() == 0 {
                    rt.start_write(rid);
                    rt.with_mut::<u64, _>(rid, |d| d[0] = *w);
                    rt.end_write(rid);
                }
                rt.barrier(s);
                rt.start_read(rid);
                seen.push(rt.with::<u64, _>(rid, |d| d[0]));
                rt.end_read(rid);
                rt.barrier(s);
            }
            seen
        });
        for seen in r.results {
            assert_eq!(seen, writes);
        }
    }
}

/// Fetch-and-add: random interleavings of acquisitions from random
/// nodes issue every ticket exactly once.
#[test]
fn fetch_add_tickets_unique() {
    for seed in 0..24 {
        let rng = &mut StdRng::seed_from_u64(seed);
        let (per_node, nprocs) = (rng.gen_range(1..20), rng.gen_range(2..6));
        eprintln!("seed {seed}: per_node {per_node}, nprocs {nprocs}");
        let r = run_ace(nprocs, CostModel::free(), |rt| {
            let s = rt.new_space(make(ProtoSpec::FetchAdd));
            let rid = if rt.rank() == 0 {
                RegionId(rt.bcast(0, &[rt.gmalloc::<u64>(s, 1).0])[0])
            } else {
                RegionId(rt.bcast(0, &[])[0])
            };
            rt.map(rid);
            rt.machine_barrier();
            let mut got = Vec::new();
            for _ in 0..per_node {
                rt.lock(rid);
                rt.start_read(rid);
                let t = rt.with::<u64, _>(rid, |d| d[0]);
                rt.end_read(rid);
                rt.start_write(rid);
                rt.with_mut::<u64, _>(rid, |d| d[0] = t + 1);
                rt.end_write(rid);
                rt.unlock(rid);
                got.push(t);
            }
            rt.machine_barrier();
            got
        });
        let mut all: Vec<u64> = r.results.into_iter().flatten().collect();
        all.sort_unstable();
        let want: Vec<u64> = (0..(per_node * nprocs) as u64).collect();
        assert_eq!(all, want);
    }
}

/// Migratory: random ownership-hopping read-modify-write chains never
/// lose an increment.
#[test]
fn migratory_rmw_chain_is_lossless() {
    for seed in 0..24 {
        let rng = &mut StdRng::seed_from_u64(seed);
        let ops: Vec<usize> = (0..rng.gen_range(1..30)).map(|_| rng.gen_range(0..4)).collect();
        eprintln!("seed {seed}: {ops:?}");
        let r = run_ace(4, CostModel::free(), |rt| {
            let s = rt.new_space(make(ProtoSpec::Migratory));
            let rid = if rt.rank() == 0 {
                RegionId(rt.bcast(0, &[rt.gmalloc::<u64>(s, 1).0])[0])
            } else {
                RegionId(rt.bcast(0, &[])[0])
            };
            rt.map(rid);
            rt.machine_barrier();
            for w in &ops {
                if *w == rt.rank() {
                    rt.start_write(rid);
                    rt.with_mut::<u64, _>(rid, |d| d[0] += 1);
                    rt.end_write(rid);
                }
            }
            rt.machine_barrier();
            rt.start_read(rid);
            let v = rt.with::<u64, _>(rid, |d| d[0]);
            rt.end_read(rid);
            rt.machine_barrier();
            v
        });
        for v in r.results {
            assert_eq!(v, ops.len() as u64);
        }
    }
}

/// Pod views: arbitrary f64 data, every bit pattern (subnormals,
/// infinities and NaNs too), round-trips bit-exactly through region
/// storage and bulk transfer.
#[test]
fn region_data_round_trips() {
    for seed in 0..24 {
        let rng = &mut StdRng::seed_from_u64(seed);
        let vals: Vec<f64> =
            (0..rng.gen_range(1..64)).map(|_| f64::from_bits(rng.next_u64())).collect();
        eprintln!("seed {seed}: {vals:?}");
        let r = run_ace(2, CostModel::free(), |rt| {
            let s = rt.new_space(make(ProtoSpec::Sc));
            let rid = if rt.rank() == 0 {
                RegionId(rt.bcast(0, &[rt.gmalloc::<f64>(s, vals.len()).0])[0])
            } else {
                RegionId(rt.bcast(0, &[])[0])
            };
            rt.map(rid);
            if rt.rank() == 0 {
                rt.start_write(rid);
                rt.with_mut::<f64, _>(rid, |d| d[..vals.len()].copy_from_slice(&vals));
                rt.end_write(rid);
            }
            rt.machine_barrier();
            rt.start_read(rid);
            let got = rt.with::<f64, _>(rid, |d| d[..vals.len()].to_vec());
            rt.end_read(rid);
            rt.machine_barrier();
            got
        });
        for got in r.results {
            for (g, w) in got.iter().zip(&vals) {
                assert_eq!(g.to_bits(), w.to_bits());
            }
        }
    }
}
