//! EM3D: electromagnetic-wave propagation on a bipartite graph (§3.3).
//!
//! The data structure is a bipartite graph of E and H nodes with directed
//! edges between the sets; each iteration recomputes every E value as a
//! weighted sum of its H neighbours, then every H value from its E
//! neighbours. The paper allocates the E values and H values from two
//! separate spaces (Figure 2) and gets ≈3.5× from a dynamic update
//! protocol and ≈5× from a static update protocol over the default
//! invalidation protocol.
//!
//! Each graph value is its own one-word region — producer/consumer sharing
//! at the natural granularity. Remote neighbours are mapped once before
//! the time loop (the hand-optimized structure the paper describes for the
//! runtime version in §5.3).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dsm::{exchange_ids, Dsm, IdMap};
use crate::Variant;
use ace_protocols::{AdaptiveSpec, ProtoSpec};

/// Which protocol the custom variant plugs in (the §3.3 experiment tries
/// both update libraries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Em3dProto {
    /// Default invalidation protocol.
    Sc,
    /// Dynamic update: writes pushed to sharers immediately (≈3.5×).
    Dynamic,
    /// Static update: sharer lists built once, pushes at barriers (≈5×).
    Static,
    /// Adaptive engine choosing among SC and the two update protocols
    /// from the observed producer/consumer signals, starting at the given
    /// candidate bit — from SC it is the harness for proving the engine
    /// *discovers* the update-protocol win.
    AdaptiveFrom(u8),
    /// Adaptive engine pinned to a single candidate bit
    /// ([`AdaptiveSpec::SC`] and friends) — the equivalence harnesses
    /// assert this is indistinguishable from the static protocol it names.
    Pinned(u8),
}

/// EM3D workload parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Number of E nodes.
    pub e_nodes: usize,
    /// Number of H nodes.
    pub h_nodes: usize,
    /// Out-degree of every node.
    pub degree: usize,
    /// Percentage of edges that point to a remote processor.
    pub pct_remote: u32,
    /// Time steps.
    pub steps: usize,
    /// Workload seed.
    pub seed: u64,
    /// Map every neighbour once before the time loop instead of around
    /// each access. `false` is the CRL-1.0 idiom the ported sources use
    /// (§5.1); `true` is the hand-optimized runtime structure of §5.3
    /// ("the runtime system version performs ACE_MAP calls on each
    /// processor's data before entering the main computation loop").
    pub hoist_maps: bool,
}

impl Params {
    /// The paper's input (Table 3): 1000 E and 1000 H vertices, 20%
    /// remote edges, degree 10, 100 steps.
    pub fn paper() -> Self {
        Params {
            e_nodes: 1000,
            h_nodes: 1000,
            degree: 10,
            pct_remote: 20,
            steps: 100,
            seed: 7,
            hoist_maps: false,
        }
    }

    /// A scaled-down input for unit tests.
    pub fn small() -> Self {
        Params {
            e_nodes: 48,
            h_nodes: 48,
            degree: 4,
            pct_remote: 25,
            steps: 4,
            seed: 7,
            hoist_maps: false,
        }
    }
}

struct Side {
    /// Region id of each locally-owned value.
    my_vals: Vec<u64>,
    /// Per owned node: neighbour region ids (opposite side).
    nbr_ids: Vec<Vec<u64>>,
    /// Per owned node: neighbour weights.
    weights: Vec<Vec<f64>>,
}

fn block(total: usize, nprocs: usize, rank: usize) -> std::ops::Range<usize> {
    let per = total.div_ceil(nprocs);
    let lo = (per * rank).min(total);
    let hi = (per * (rank + 1)).min(total);
    lo..hi
}

fn compute_phase<D: Dsm>(d: &D, side: &Side, hoist: bool) {
    for ((own, nbrs), ws) in side.my_vals.iter().zip(&side.nbr_ids).zip(&side.weights) {
        let mut acc = 0.0f64;
        for (&nbr, &w) in nbrs.iter().zip(ws) {
            if !hoist {
                d.map(nbr);
            }
            acc += w * d.read::<f64, _>(nbr, |v| v[0]);
            if !hoist {
                d.unmap(nbr);
            }
        }
        d.charge_flops(2 * nbrs.len() as u64);
        if !hoist {
            d.map(*own);
        }
        d.write::<f64, _>(*own, |v| v[0] = v[0] * 0.5 + acc);
        if !hoist {
            d.unmap(*own);
        }
        d.charge_flops(2);
    }
}

/// Run EM3D with an explicit protocol choice; returns the verification
/// checksum (global sum of all values after the last step).
pub fn run_with<D: Dsm>(d: &D, p: &Params, proto: Em3dProto) -> f64 {
    // Figure 2: two spaces, built under the default protocol.
    let eval = d.new_space(ProtoSpec::Sc);
    let hval = d.new_space(ProtoSpec::Sc);

    let my_e = block(p.e_nodes, d.nprocs(), d.rank()).len();
    let my_h = block(p.h_nodes, d.nprocs(), d.rank()).len();

    // MakeGraph(): allocate values, exchange ids, wire the edges.
    let mut rng = StdRng::seed_from_u64(p.seed.wrapping_add(d.rank() as u64 * 1009));
    let my_e_ids: Vec<u64> = (0..my_e).map(|_| d.gmalloc::<f64>(eval, 1)).collect();
    let all_e_ids = exchange_ids(d, &my_e_ids);
    let my_h_ids: Vec<u64> = (0..my_h).map(|_| d.gmalloc::<f64>(hval, 1)).collect();
    let all_h_ids = exchange_ids(d, &my_h_ids);

    let (e_nbrs, e_ws) = build_adjacency(d, p, p.h_nodes, &mut rng, &all_h_ids, my_e);
    let e_side = Side { my_vals: my_e_ids.clone(), nbr_ids: e_nbrs, weights: e_ws };
    let (h_nbrs, h_ws) = build_adjacency(d, p, p.e_nodes, &mut rng, &all_e_ids, my_h);
    let h_side = Side { my_vals: my_h_ids.clone(), nbr_ids: h_nbrs, weights: h_ws };

    // Initialize owned values (inside write sections, under SC).
    for (k, &rid) in my_e_ids.iter().chain(my_h_ids.iter()).enumerate() {
        d.map(rid);
        d.write::<f64, _>(rid, |v| v[0] = (k % 17) as f64 * 0.25 + 1.0);
        d.unmap(rid);
    }
    d.barrier(eval);
    d.barrier(hval);

    // Lines 8-9 of Figure 2: plug in the update library.
    match proto {
        Em3dProto::Sc => {}
        Em3dProto::Dynamic => {
            d.change_protocol(eval, ProtoSpec::DynUpdate);
            d.change_protocol(hval, ProtoSpec::DynUpdate);
        }
        Em3dProto::Static => {
            d.change_protocol(eval, ProtoSpec::StaticUpdate);
            d.change_protocol(hval, ProtoSpec::StaticUpdate);
        }
        Em3dProto::AdaptiveFrom(bit) => {
            let spec = AdaptiveSpec::new(
                AdaptiveSpec::SC | AdaptiveSpec::DYN_UPDATE | AdaptiveSpec::STATIC_UPDATE,
            )
            .starting_at(bit);
            d.change_protocol(eval, ProtoSpec::Adaptive(spec));
            d.change_protocol(hval, ProtoSpec::Adaptive(spec));
        }
        Em3dProto::Pinned(bit) => {
            let spec = ProtoSpec::Adaptive(AdaptiveSpec::pinned(bit));
            // Pinning to SC still replaces the protocol object, so the
            // flush/adopt handover runs exactly as for any other target.
            d.change_protocol(eval, spec);
            d.change_protocol(hval, spec);
        }
    }

    // Hand-optimized structure (§5.3): map every neighbour and own value
    // once, before the time loop. The CRL-idiom version maps around each
    // access instead. Under the update protocols the first map is also
    // where subscriptions happen, so both styles warm up here or on first
    // touch.
    if p.hoist_maps {
        for ids in e_side.nbr_ids.iter().chain(h_side.nbr_ids.iter()) {
            for &r in ids {
                d.map(r);
            }
        }
        for &r in my_e_ids.iter().chain(my_h_ids.iter()) {
            d.map(r);
        }
    }
    d.barrier(eval);
    d.barrier(hval);

    // The computation of Figure 2, lines 12-17.
    for _ in 0..p.steps {
        compute_phase(d, &e_side, p.hoist_maps); // new E from H
        d.barrier(eval);
        compute_phase(d, &h_side, p.hoist_maps); // new H from E
        d.barrier(hval);
    }

    // Verification: global checksum of every value.
    let mut local = 0.0;
    for &rid in e_side.my_vals.iter().chain(h_side.my_vals.iter()) {
        d.map(rid);
        local += d.read::<f64, _>(rid, |v| v[0]);
        d.unmap(rid);
    }
    d.allreduce_f64(local, |a, b| a + b)
}

fn build_adjacency<D: Dsm>(
    d: &D,
    p: &Params,
    other_total: usize,
    rng: &mut StdRng,
    other_ids: &IdMap,
    my_count: usize,
) -> (Vec<Vec<u64>>, Vec<Vec<f64>>) {
    let mut nbr_ids = Vec::with_capacity(my_count);
    let mut weights = Vec::with_capacity(my_count);
    for _ in 0..my_count {
        let mut ids = Vec::with_capacity(p.degree);
        let mut ws = Vec::with_capacity(p.degree);
        for _ in 0..p.degree {
            let owner = if d.nprocs() > 1 && rng.gen_range(0u32..100) < p.pct_remote {
                let r = rng.gen_range(0..d.nprocs() - 1);
                if r >= d.rank() {
                    r + 1
                } else {
                    r
                }
            } else {
                d.rank()
            };
            let owned = block(other_total, d.nprocs(), owner).len();
            if owned == 0 {
                continue;
            }
            let idx = rng.gen_range(0..owned);
            ids.push(other_ids.rank(owner)[idx]);
            ws.push(rng.gen_range(0.01..0.2));
        }
        nbr_ids.push(ids);
        weights.push(ws);
    }
    (nbr_ids, weights)
}

/// Run EM3D under a [`Variant`] (the custom variant uses the static
/// update protocol, the paper's best).
pub fn run<D: Dsm>(d: &D, p: &Params, v: Variant) -> f64 {
    run_with(
        d,
        p,
        match v {
            Variant::Sc => Em3dProto::Sc,
            Variant::Custom => Em3dProto::Static,
            // The programmer knows this is a producer→consumer pattern
            // (that is why the update candidates are listed at all) but
            // not which update flavor wins, so the engine starts at the
            // conservative family member — dynamic update — and is left
            // to discover the static-schedule refinement from the
            // profiles. Starting at SC instead would be safe but pays
            // invalidation-priced warmup intervals on the one app where
            // SC is 5x off.
            Variant::Adaptive => Em3dProto::AdaptiveFrom(AdaptiveSpec::DYN_UPDATE),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{launch_ace, launch_crl};
    use ace_core::CostModel;

    #[test]
    fn all_protocols_agree_on_ace() {
        let p = Params::small();
        let sc = launch_ace(4, CostModel::free(), |d| run_with(d, &p, Em3dProto::Sc));
        let dy = launch_ace(4, CostModel::free(), |d| run_with(d, &p, Em3dProto::Dynamic));
        let st = launch_ace(4, CostModel::free(), |d| run_with(d, &p, Em3dProto::Static));
        assert!(sc.verification.is_finite());
        assert_eq!(sc.verification, dy.verification, "dynamic update changed results");
        assert_eq!(sc.verification, st.verification, "static update changed results");
    }

    #[test]
    fn ace_and_crl_agree() {
        let p = Params::small();
        let a = launch_ace(3, CostModel::free(), |d| run(d, &p, Variant::Sc));
        let c = launch_crl(3, CostModel::free(), |d| run(d, &p, Variant::Sc));
        assert_eq!(a.verification, c.verification);
    }

    #[test]
    fn update_protocols_cut_messages() {
        let p = Params::small();
        let sc = launch_ace(4, CostModel::free(), |d| run_with(d, &p, Em3dProto::Sc));
        let st = launch_ace(4, CostModel::free(), |d| run_with(d, &p, Em3dProto::Static));
        assert!(
            st.msgs < sc.msgs,
            "static update should send fewer messages: st={} sc={}",
            st.msgs,
            sc.msgs
        );
    }

    #[test]
    fn single_node_runs() {
        let p = Params::small();
        let out = launch_ace(1, CostModel::free(), |d| run(d, &p, Variant::Sc));
        assert!(out.verification.is_finite());
    }
}
