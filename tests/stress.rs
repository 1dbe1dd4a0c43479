//! Stress and failure-injection tests: contention storms, protocol
//! changes under live sharing, URC-eviction churn, and the runtime's
//! misuse diagnostics.

use ace::core::{run_ace, CostModel, RegionId};
use ace::crl::CrlRt;
use ace::machine::Spmd;
use ace::protocols::{make, ProtoSpec};

#[test]
fn sc_contention_storm_converges() {
    // 8 nodes hammer 4 regions with locked increments and unlocked reads,
    // no barriers mid-storm: the MSI state machine must neither wedge nor
    // lose an update.
    const INCS: u64 = 30;
    let r = run_ace(8, CostModel::free(), |rt| {
        let s = rt.new_space(make(ProtoSpec::Sc));
        let regions: Vec<RegionId> = if rt.rank() == 0 {
            let ids: Vec<u64> = (0..4).map(|_| rt.gmalloc::<u64>(s, 1).0).collect();
            rt.bcast(0, &ids).iter().map(|&x| RegionId(x)).collect()
        } else {
            rt.bcast(0, &[]).iter().map(|&x| RegionId(x)).collect()
        };
        for &r in &regions {
            rt.map(r);
        }
        for i in 0..INCS {
            let r = regions[(i as usize + rt.rank()) % regions.len()];
            rt.lock(r);
            rt.start_write(r);
            rt.with_mut::<u64, _>(r, |d| d[0] += 1);
            rt.end_write(r);
            rt.unlock(r);
            // Interleave unsynchronized reads on another region.
            let q = regions[(i as usize + rt.rank() + 1) % regions.len()];
            rt.start_read(q);
            rt.with::<u64, _>(q, |d| d[0]);
            rt.end_read(q);
        }
        rt.machine_barrier();
        let mut total = 0;
        for &r in &regions {
            rt.start_read(r);
            total += rt.with::<u64, _>(r, |d| d[0]);
            rt.end_read(r);
        }
        total
    });
    assert!(r.results.iter().all(|&t| t == INCS * 8));
}

#[test]
fn change_protocol_between_every_phase() {
    // Cycle a live, shared data structure through five protocols; every
    // transition must preserve contents and subsequent semantics.
    let chain = [
        ProtoSpec::DynUpdate,
        ProtoSpec::StaticUpdate,
        ProtoSpec::Sc,
        ProtoSpec::HomeOwned,
        ProtoSpec::Sc,
    ];
    let r = run_ace(4, CostModel::free(), move |rt| {
        let s = rt.new_space(make(ProtoSpec::Sc));
        let rid = if rt.rank() == 0 {
            RegionId(rt.bcast(0, &[rt.gmalloc::<u64>(s, 2).0])[0])
        } else {
            RegionId(rt.bcast(0, &[])[0])
        };
        rt.map(rid);
        rt.barrier(s);
        let mut expected = 0;
        for (round, proto) in chain.iter().enumerate() {
            rt.change_protocol(s, make(*proto));
            if rt.rank() == 0 {
                rt.start_write(rid);
                rt.with_mut::<u64, _>(rid, |d| d[0] = round as u64 + 10);
                rt.end_write(rid);
            }
            rt.barrier(s);
            rt.start_read(rid);
            let v = rt.with::<u64, _>(rid, |d| d[0]);
            rt.end_read(rid);
            assert_eq!(v, round as u64 + 10, "stale read under {proto:?}");
            expected = v;
            rt.barrier(s);
        }
        expected
    });
    assert!(r.results.iter().all(|&v| v == 14));
}

#[test]
fn crl_urc_churn_with_tiny_cache() {
    // A 2-entry URC forces an eviction (with a coherence flush) on almost
    // every unmap; data must survive the churn.
    let r = Spmd::builder().nprocs(3).cost(CostModel::free()).run(|node| {
        let crl = CrlRt::with_urc_capacity(node, 2);
        let ids: Vec<RegionId> = if crl.inner().rank() == 0 {
            let ids: Vec<u64> = (0..12)
                .map(|i| {
                    let r = crl.create_words(1);
                    crl.map(r);
                    crl.write::<u64, _>(r, |d| d[0] = i * 3 + 1);
                    crl.unmap(r);
                    r.0
                })
                .collect();
            crl.inner().bcast(0, &ids).iter().map(|&x| RegionId(x)).collect()
        } else {
            crl.inner().bcast(0, &[]).iter().map(|&x| RegionId(x)).collect()
        };
        crl.barrier();
        let mut sum = 0;
        for _ in 0..3 {
            for &rid in &ids {
                crl.map(rid);
                sum += crl.read::<u64, _>(rid, |d| d[0]);
                crl.unmap(rid);
            }
        }
        crl.barrier();
        crl.inner().shutdown();
        sum
    });
    let want: u64 = 3 * (0..12).map(|i| i * 3 + 1).sum::<u64>();
    assert!(r.results.iter().all(|&s| s == want));
}

#[test]
fn many_spaces_and_protocols_coexist() {
    // One space per protocol, all live at once, all coherent.
    let specs = [
        ProtoSpec::Sc,
        ProtoSpec::DynUpdate,
        ProtoSpec::StaticUpdate,
        ProtoSpec::HomeOwned,
        ProtoSpec::Pipelined,
        ProtoSpec::Migratory,
    ];
    let r = run_ace(4, CostModel::free(), move |rt| {
        let spaces: Vec<_> = specs.iter().map(|p| rt.new_space(make(*p))).collect();
        let mut region_of = Vec::new();
        for &sp in &spaces {
            let rid = if rt.rank() == 0 {
                RegionId(rt.bcast(0, &[rt.gmalloc::<f64>(sp, 1).0])[0])
            } else {
                RegionId(rt.bcast(0, &[])[0])
            };
            rt.map(rid);
            region_of.push(rid);
        }
        for &sp in &spaces {
            rt.barrier(sp);
        }
        if rt.rank() == 0 {
            for (k, &rid) in region_of.iter().enumerate() {
                rt.start_write(rid);
                rt.with_mut::<f64, _>(rid, |d| d[0] = (k + 1) as f64 * 2.5);
                rt.end_write(rid);
            }
        }
        for &sp in &spaces {
            rt.barrier(sp);
        }
        let mut sum = 0.0;
        for &rid in &region_of {
            rt.start_read(rid);
            sum += rt.with::<f64, _>(rid, |d| d[0]);
            rt.end_read(rid);
        }
        for &sp in &spaces {
            rt.barrier(sp);
        }
        sum
    });
    let want: f64 = (1..=6).map(|k| k as f64 * 2.5).sum();
    assert!(r.results.iter().all(|&s| s == want));
}

#[test]
#[should_panic(expected = "not known on node")]
fn unmapped_access_is_diagnosed() {
    run_ace(1, CostModel::free(), |rt| {
        rt.start_read(RegionId::new(0, 1234));
    });
}

#[test]
#[should_panic(expected = "at most")]
fn oversized_machine_is_rejected() {
    run_ace(ace::machine::MAX_NODES + 1, CostModel::free(), |_| ());
}
