//! Barnes-Hut: hierarchical O(N log N) N-body (Table 3: 16,384 bodies).
//!
//! Bodies and octree cells are regions. Each step, node 0 reads every
//! body, builds the octree, and publishes it through a preallocated pool
//! of cell regions; then every node computes forces on its owned bodies by
//! traversing the shared tree (opening criterion θ), and owners integrate.
//!
//! Sharing pattern: bodies are *written by their owner and read by
//! everyone* (node 0 for tree building, any node whose traversal opens a
//! leaf containing the body). §5.2: "Barnes-Hut uses a dynamic update
//! protocol for bodies" — the custom variant plugs
//! [`ace_protocols::DynamicUpdate`] into the bodies space, turning each
//! per-step re-fetch (a round trip per body per reader under
//! invalidation) into a single one-way push at update time. The tree
//! cells stay under the default protocol: they are rewritten wholesale by
//! node 0 each step, so readers miss once per cell per step either way.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dsm::{exchange_ids, Dsm};
use crate::Variant;
use ace_protocols::{AdaptiveSpec, ProtoSpec};

/// Bodies per leaf cell before it splits.
pub const LEAF_CAP: usize = 8;
/// Gravitational softening.
const EPS2: f64 = 1e-4;
const DT: f64 = 0.01;

ace_machine::pod_struct! {
    /// One octree cell as stored in its region.
    #[derive(Debug, Clone, Copy)]
    pub struct Cell {
        /// Center of mass.
        pub cm: [f64; 3],
        /// Total mass.
        pub mass: f64,
        /// Geometric cell size (cube edge).
        pub size: f64,
        /// 1 if leaf.
        pub leaf: u64,
        /// Children: cell-pool indices (`u64::MAX` = empty). Valid internal.
        pub child: [u64; 8],
        /// Member body region ids. Valid when leaf.
        pub bodies: [u64; LEAF_CAP],
        /// Number of member bodies when leaf.
        pub nbodies: u64,
    }
}

impl Cell {
    fn empty() -> Self {
        Cell {
            cm: [0.0; 3],
            mass: 0.0,
            size: 0.0,
            leaf: 1,
            child: [u64::MAX; 8],
            bodies: [u64::MAX; LEAF_CAP],
            nbodies: 0,
        }
    }
}

ace_machine::pod_struct! {
    /// One body as stored in its region.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Body {
        /// Position.
        pub pos: [f64; 3],
        /// Velocity.
        pub vel: [f64; 3],
        /// Acceleration (recomputed each step).
        pub acc: [f64; 3],
        /// Mass.
        pub mass: f64,
    }
}

/// Barnes-Hut workload parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Number of bodies.
    pub bodies: usize,
    /// Time steps.
    pub steps: usize,
    /// Opening criterion θ (the paper uses tolerance 1.0).
    pub theta: f64,
    /// Workload seed.
    pub seed: u64,
}

impl Params {
    /// The paper's input (Table 3): 16,384 bodies, 4 steps, tol 1.0.
    pub fn paper() -> Self {
        Params { bodies: 16_384, steps: 4, theta: 1.0, seed: 3 }
    }

    /// A scaled-down input for unit tests.
    pub fn small() -> Self {
        Params { bodies: 64, steps: 2, theta: 0.8, seed: 3 }
    }
}

fn block(total: usize, nprocs: usize, rank: usize) -> std::ops::Range<usize> {
    let per = total.div_ceil(nprocs);
    (per * rank).min(total)..(per * (rank + 1)).min(total)
}

/// Node-0-local octree builder.
struct BuildTree {
    cells: Vec<Cell>,
    center: Vec<[f64; 3]>,
    info: HashMap<u64, ([f64; 3], f64)>,
}

impl BuildTree {
    fn new(size: f64, center: [f64; 3]) -> Self {
        let mut root = Cell::empty();
        root.size = size;
        BuildTree { cells: vec![root], center: vec![center], info: HashMap::new() }
    }

    fn insert(&mut self, cell: usize, body: u64) {
        let (pos, mass) = self.info[&body];
        self.bump_cm(cell, pos, mass);
        if self.cells[cell].leaf == 1 {
            let n = self.cells[cell].nbodies as usize;
            if n < LEAF_CAP {
                self.cells[cell].bodies[n] = body;
                self.cells[cell].nbodies += 1;
                return;
            }
            // Split: demote to internal and redistribute members.
            self.cells[cell].leaf = 0;
            let members: Vec<u64> = self.cells[cell].bodies[..n].to_vec();
            self.cells[cell].bodies = [u64::MAX; LEAF_CAP];
            self.cells[cell].nbodies = 0;
            for m in members {
                self.insert_into_child(cell, m);
            }
        }
        self.insert_into_child(cell, body);
    }

    fn insert_into_child(&mut self, cell: usize, body: u64) {
        let (pos, _) = self.info[&body];
        let c = self.center[cell];
        let quarter = self.cells[cell].size / 4.0;
        let mut oct = 0usize;
        let mut cc = c;
        for a in 0..3 {
            if pos[a] >= c[a] {
                oct |= 1 << a;
                cc[a] += quarter;
            } else {
                cc[a] -= quarter;
            }
        }
        let child = if self.cells[cell].child[oct] == u64::MAX {
            let idx = self.cells.len();
            let mut fresh = Cell::empty();
            fresh.size = self.cells[cell].size / 2.0;
            self.cells.push(fresh);
            self.center.push(cc);
            self.cells[cell].child[oct] = idx as u64;
            idx
        } else {
            self.cells[cell].child[oct] as usize
        };
        self.insert(child, body);
    }

    fn bump_cm(&mut self, cell: usize, pos: [f64; 3], mass: f64) {
        let c = &mut self.cells[cell];
        let total = c.mass + mass;
        for a in 0..3 {
            c.cm[a] = (c.cm[a] * c.mass + pos[a] * mass) / total;
        }
        c.mass = total;
    }
}

/// Accumulate the acceleration on `pos` from the tree rooted at pool cell
/// `idx`, reading cells and (in opened leaves) bodies through the DSM.
/// Regions are mapped around each access — the CRL-1.0 idiom the paper's
/// ported sources use (§5.1).
#[allow(clippy::too_many_arguments)]
fn accel_from<D: Dsm>(
    d: &D,
    pool: &[u64],
    idx: usize,
    pos: [f64; 3],
    self_id: u64,
    theta: f64,
    acc: &mut [f64; 3],
    flops: &mut u64,
) {
    let cid = pool[idx];
    d.map(cid);
    let cell = d.read::<Cell, _>(cid, |c| c[0]);
    d.unmap(cid);

    let dx = cell.cm[0] - pos[0];
    let dy = cell.cm[1] - pos[1];
    let dz = cell.cm[2] - pos[2];
    let d2 = dx * dx + dy * dy + dz * dz;

    if cell.leaf == 1 {
        for k in 0..cell.nbodies as usize {
            let bid = cell.bodies[k];
            if bid == self_id {
                continue;
            }
            d.map(bid);
            let (bp, bm) = d.read::<Body, _>(bid, |b| (b[0].pos, b[0].mass));
            d.unmap(bid);
            let rx = bp[0] - pos[0];
            let ry = bp[1] - pos[1];
            let rz = bp[2] - pos[2];
            let r2 = rx * rx + ry * ry + rz * rz + EPS2;
            let w = bm / (r2 * r2.sqrt());
            acc[0] += rx * w;
            acc[1] += ry * w;
            acc[2] += rz * w;
            *flops += 12;
        }
        return;
    }

    if cell.size * cell.size < theta * theta * d2 {
        // Far enough: use the monopole approximation.
        let r2 = d2 + EPS2;
        let w = cell.mass / (r2 * r2.sqrt());
        acc[0] += dx * w;
        acc[1] += dy * w;
        acc[2] += dz * w;
        *flops += 12;
        return;
    }

    for oct in 0..8 {
        let ch = cell.child[oct];
        if ch != u64::MAX {
            accel_from(d, pool, ch as usize, pos, self_id, theta, acc, flops);
        }
    }
}

/// Run Barnes-Hut; returns the verification value (global Σ|pos| after
/// the last step — exact across protocols and runtimes, because every
/// phase is barrier-separated and traversal order is deterministic).
pub fn run<D: Dsm>(d: &D, p: &Params, v: Variant) -> f64 {
    let bodies_space = d.new_space(ProtoSpec::Sc);
    let cells_space = d.new_space(ProtoSpec::Sc);

    let mine = block(p.bodies, d.nprocs(), d.rank());
    let my_ids: Vec<u64> = mine.clone().map(|_| d.gmalloc::<Body>(bodies_space, 1)).collect();
    let all_ids = exchange_ids(d, &my_ids);
    let body_ids: Vec<u64> = all_ids.iter().flat_map(|v| v.iter().copied()).collect();

    // Cell pool, homed at node 0, sized for the worst case.
    let max_cells = 4 * p.bodies + 64;
    let pool: Vec<u64> = if d.rank() == 0 {
        let ids: Vec<u64> = (0..max_cells).map(|_| d.gmalloc::<Cell>(cells_space, 1)).collect();
        d.bcast(0, &ids).to_vec()
    } else {
        d.bcast(0, &[]).to_vec()
    };

    // Initialize owned bodies (Plummer-ish ball of uniform masses).
    let mut rng = StdRng::seed_from_u64(p.seed.wrapping_add(d.rank() as u64 * 77));
    for &rid in &my_ids {
        d.map(rid);
        d.write::<Body, _>(rid, |b| {
            b[0] = Body {
                pos: [rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)],
                vel: [
                    rng.gen_range(-0.05..0.05),
                    rng.gen_range(-0.05..0.05),
                    rng.gen_range(-0.05..0.05),
                ],
                acc: [0.0; 3],
                mass: 1.0 / p.bodies as f64,
            };
        });
        d.unmap(rid);
    }
    d.barrier(bodies_space);

    if v == Variant::Custom {
        d.change_protocol(bodies_space, ProtoSpec::DynUpdate);
    } else if v == Variant::Adaptive {
        // Bodies are read by all and written by their owner every step —
        // the update-family pattern — so the engine starts at dynamic
        // update rather than paying the serial node-0 tree build of step
        // one under invalidation (bodies profiles only aggregate at the
        // three per-step barriers, and the build is the first and
        // heaviest phase). The engine may still fall back to SC if the
        // profiles say the pushes are wasted.
        let spec = AdaptiveSpec::new(AdaptiveSpec::SC | AdaptiveSpec::DYN_UPDATE)
            .starting_at(AdaptiveSpec::DYN_UPDATE);
        d.change_protocol(bodies_space, ProtoSpec::Adaptive(spec));
    }

    for _ in 0..p.steps {
        // ---- tree build (node 0) ----
        if d.rank() == 0 {
            let mut info = HashMap::new();
            let mut lo = [f64::MAX; 3];
            let mut hi = [f64::MIN; 3];
            for &bid in &body_ids {
                d.map(bid);
                let (bp, bm) = d.read::<Body, _>(bid, |b| (b[0].pos, b[0].mass));
                d.unmap(bid);
                for a in 0..3 {
                    lo[a] = lo[a].min(bp[a]);
                    hi[a] = hi[a].max(bp[a]);
                }
                info.insert(bid, (bp, bm));
            }
            let size = (0..3).map(|a| hi[a] - lo[a]).fold(0.0f64, f64::max) * 1.01 + 1e-9;
            let center = [(lo[0] + hi[0]) / 2.0, (lo[1] + hi[1]) / 2.0, (lo[2] + hi[2]) / 2.0];
            let mut tree = BuildTree::new(size, center);
            tree.info = info;
            for &bid in &body_ids {
                tree.insert(0, bid);
            }
            assert!(tree.cells.len() <= pool.len(), "cell pool exhausted");
            let ncells_used = tree.cells.len() as u64;
            for (k, cell) in tree.cells.iter().enumerate() {
                let rid = pool[k];
                d.map(rid);
                d.write::<Cell, _>(rid, |c| c[0] = *cell);
                d.unmap(rid);
            }
            d.charge_mem(10 * body_ids.len() as u64);
            d.bcast(0, &[ncells_used]);
        } else {
            // Learn how many cells are live this step (tree size varies).
            let _ncells_used = d.bcast(0, &[])[0];
        }
        d.barrier(cells_space);
        d.barrier(bodies_space);

        // ---- force phase: traverse for each owned body ----
        let mut new_acc = Vec::with_capacity(my_ids.len());
        for &rid in &my_ids {
            d.map(rid);
            let me = d.read::<Body, _>(rid, |b| b[0]);
            d.unmap(rid);
            let mut acc = [0.0; 3];
            let mut flops = 0;
            accel_from(d, &pool, 0, me.pos, rid, p.theta, &mut acc, &mut flops);
            d.charge_flops(flops);
            new_acc.push(acc);
        }
        // Write accelerations after the full traversal pass.
        for (&rid, acc) in my_ids.iter().zip(&new_acc) {
            d.map(rid);
            d.write::<Body, _>(rid, |b| b[0].acc = *acc);
            d.unmap(rid);
        }
        d.barrier(bodies_space);

        // ---- update phase: leapfrog on owned bodies ----
        for &rid in &my_ids {
            d.map(rid);
            d.write::<Body, _>(rid, |b| {
                for a in 0..3 {
                    b[0].vel[a] += DT * b[0].acc[a];
                    b[0].pos[a] += DT * b[0].vel[a];
                }
            });
            d.unmap(rid);
            d.charge_flops(12);
        }
        d.barrier(bodies_space);
    }

    let mut local = 0.0;
    for &rid in &my_ids {
        d.map(rid);
        local +=
            d.read::<Body, _>(rid, |b| b[0].pos[0].abs() + b[0].pos[1].abs() + b[0].pos[2].abs());
        d.unmap(rid);
    }
    d.allreduce_f64(local, |a, b| a + b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{launch_ace, launch_crl};
    use ace_core::CostModel;

    #[test]
    fn variants_and_runtimes_agree_exactly() {
        let p = Params::small();
        let sc = launch_ace(3, CostModel::free(), |d| run(d, &p, Variant::Sc));
        let cu = launch_ace(3, CostModel::free(), |d| run(d, &p, Variant::Custom));
        let cr = launch_crl(3, CostModel::free(), |d| run(d, &p, Variant::Sc));
        assert_eq!(sc.verification, cu.verification);
        assert_eq!(sc.verification, cr.verification);
        assert!(sc.verification.is_finite() && sc.verification > 0.0);
    }

    #[test]
    fn dynamic_update_cuts_body_misses() {
        let p = Params { bodies: 96, steps: 3, ..Params::small() };
        let sc = launch_ace(4, CostModel::free(), |d| run(d, &p, Variant::Sc));
        let cu = launch_ace(4, CostModel::free(), |d| run(d, &p, Variant::Custom));
        assert!(
            cu.counters.read_misses < sc.counters.read_misses,
            "dynamic update should cut read misses: custom={} sc={}",
            cu.counters.read_misses,
            sc.counters.read_misses
        );
    }

    #[test]
    fn tree_respects_leaf_capacity() {
        let mut t = BuildTree::new(2.0, [0.0; 3]);
        let mut rng = StdRng::seed_from_u64(1);
        for i in 0..100u64 {
            t.info.insert(
                i,
                (
                    [rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)],
                    1.0,
                ),
            );
            t.insert(0, i);
        }
        let mut total = 0;
        for c in &t.cells {
            if c.leaf == 1 {
                assert!(c.nbodies as usize <= LEAF_CAP);
                total += c.nbodies;
            }
        }
        assert_eq!(total, 100, "every body lands in exactly one leaf");
        // Root mass equals the sum of all masses.
        assert!((t.cells[0].mass - 100.0).abs() < 1e-9);
    }

    #[test]
    fn single_node_runs() {
        let p = Params::small();
        let out = launch_ace(1, CostModel::free(), |d| run(d, &p, Variant::Sc));
        assert!(out.verification.is_finite());
    }
}
