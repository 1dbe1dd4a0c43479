//! BSC: blocked sparse Cholesky factorization (§5.2).
//!
//! The paper factors Tk15.O (a Boeing/Harwell matrix we cannot
//! redistribute); we substitute a synthetic **block-banded SPD matrix**
//! with the same blocked supernodal structure: the matrix is constructed
//! as `A = L₀·L₀ᵀ` from a random block-banded lower-triangular `L₀` with a
//! positive diagonal, so the factorization has a closed-form answer to
//! verify against (Cholesky factors are unique).
//!
//! Each block is one region — the paper's point about user-specified
//! granularity: "the most important optimization is the use of bulk
//! transfer for the transport of blocks between processors. Since the Ace
//! runtime system supports user-specified granularity, the default
//! protocol uses bulk transfer automatically", which is why the
//! custom-protocol win is *marginal* for BSC. The custom variant plugs in
//! the home-owned protocol ([`ace_protocols::ProtoSpec::HomeOwned`]),
//! exploiting "the fact that data are written only by the processors that
//! created them".
//!
//! The parallel algorithm is a bulk-synchronous right-looking fan-out:
//! factor the diagonal block, solve the sub-diagonal panel, apply the
//! trailing update, with a barrier between stages.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dsm::{exchange_ids, Dsm};
use crate::Variant;
use ace_protocols::{AdaptiveSpec, ProtoSpec};

/// BSC workload parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Number of block rows/columns.
    pub nblocks: usize,
    /// Block dimension (each block is `block × block` f64s).
    pub block: usize,
    /// Block half-bandwidth: block (i, j) is nonzero iff `i - j <= band`.
    pub band: usize,
    /// Workload seed.
    pub seed: u64,
}

impl Params {
    /// A Tk15.O-scale stand-in: 24 block-columns of 24×24 blocks,
    /// bandwidth 8.
    pub fn paper() -> Self {
        Params { nblocks: 24, block: 24, band: 8, seed: 5 }
    }

    /// A scaled-down input for unit tests.
    pub fn small() -> Self {
        Params { nblocks: 8, block: 8, band: 3, seed: 5 }
    }
}

/// Deterministic generator for block (i, j) of L₀ (identical on all
/// nodes). Blocks outside the band are zero; diagonal blocks are lower
/// triangular with a dominant positive diagonal.
fn l0_block(p: &Params, i: usize, j: usize) -> Vec<f64> {
    let b = p.block;
    let mut m = vec![0.0; b * b];
    if i < j || i - j > p.band {
        return m;
    }
    let mut rng =
        StdRng::seed_from_u64(p.seed ^ ((i as u64) << 32) ^ ((j as u64) << 8) ^ 0xB5C0_u64);
    if i == j {
        for r in 0..b {
            for c in 0..=r {
                m[r * b + c] = if r == c {
                    rng.gen_range(2.0..3.0) + p.band as f64
                } else {
                    rng.gen_range(-0.5..0.5)
                };
            }
        }
    } else {
        for x in m.iter_mut() {
            *x = rng.gen_range(-0.5..0.5);
        }
    }
    m
}

/// A[i][j] = Σ_k L₀[i][k] · L₀[j][k]ᵀ (only k within both bands).
fn a_block(p: &Params, i: usize, j: usize) -> Vec<f64> {
    let b = p.block;
    let mut acc = vec![0.0; b * b];
    let klo = i.saturating_sub(p.band).max(j.saturating_sub(p.band));
    for k in klo..=j.min(i) {
        let li = l0_block(p, i, k);
        let lj = l0_block(p, j, k);
        for r in 0..b {
            for c in 0..b {
                let mut s = 0.0;
                for t in 0..b {
                    s += li[r * b + t] * lj[c * b + t];
                }
                acc[r * b + c] += s;
            }
        }
    }
    acc
}

/// Block owner: round-robin over anti-diagonals for load balance.
fn owner(i: usize, j: usize, nprocs: usize) -> usize {
    (i + j * 3) % nprocs
}

/// In-place Cholesky of a dense `b × b` block.
fn potrf(m: &mut [f64], b: usize) {
    for k in 0..b {
        let d = m[k * b + k].sqrt();
        m[k * b + k] = d;
        for r in (k + 1)..b {
            m[r * b + k] /= d;
        }
        for c in (k + 1)..b {
            for r in c..b {
                m[r * b + c] -= m[r * b + k] * m[c * b + k];
            }
        }
        // zero the strict upper triangle for cleanliness
        for c in (k + 1)..b {
            m[k * b + c] = 0.0;
        }
    }
}

/// Solve X · Lᵀ = B for X (triangular solve against a factored diagonal
/// block), in place in `x`.
fn trsm(x: &mut [f64], l: &[f64], b: usize) {
    for r in 0..b {
        for c in 0..b {
            let mut s = x[r * b + c];
            for t in 0..c {
                s -= x[r * b + t] * l[c * b + t];
            }
            x[r * b + c] = s / l[c * b + c];
        }
    }
}

/// C -= A · Bᵀ.
fn gemm_sub(cm: &mut [f64], am: &[f64], bm: &[f64], b: usize) {
    for r in 0..b {
        for c in 0..b {
            let mut s = 0.0;
            for t in 0..b {
                s += am[r * b + t] * bm[c * b + t];
            }
            cm[r * b + c] -= s;
        }
    }
}

fn in_band(p: &Params, i: usize, j: usize) -> bool {
    i >= j && i - j <= p.band && i < p.nblocks
}

/// Run BSC; returns the verification value: the max absolute deviation of
/// the computed factor from the closed-form `L₀` (should be ≈ 0) folded
/// into a checksum of Σ|L| (so harnesses can also compare run-to-run).
pub fn run<D: Dsm>(d: &D, p: &Params, v: Variant) -> f64 {
    let b = p.block;
    let blocks_space = d.new_space(ProtoSpec::Sc);

    // Allocate owned blocks and build the global id table.
    let mut my_blocks = Vec::new();
    for j in 0..p.nblocks {
        for i in j..p.nblocks {
            if in_band(p, i, j) && owner(i, j, d.nprocs()) == d.rank() {
                my_blocks.push((i, j));
            }
        }
    }
    let my_ids: Vec<u64> =
        my_blocks.iter().map(|_| d.gmalloc::<f64>(blocks_space, b * b)).collect();
    let all = exchange_ids(d, &my_ids);
    // Rebuild everyone's (i, j) lists deterministically to index their ids.
    let mut id_of = std::collections::HashMap::new();
    for rank in 0..d.nprocs() {
        let mut k = 0;
        for j in 0..p.nblocks {
            for i in j..p.nblocks {
                if in_band(p, i, j) && owner(i, j, d.nprocs()) == rank {
                    id_of.insert((i, j), all.rank(rank)[k]);
                    k += 1;
                }
            }
        }
    }

    // Fill owned blocks with A's entries.
    for (&(i, j), &rid) in my_blocks.iter().zip(&my_ids) {
        d.map(rid);
        let a = a_block(p, i, j);
        d.start_write(rid);
        d.with_mut::<f64, _>(rid, |m| m.copy_from_slice(&a));
        d.end_write(rid);
        d.unmap(rid);
        d.charge_flops((b * b * b) as u64 / 2);
    }
    d.barrier(blocks_space);

    if v == Variant::Custom {
        d.change_protocol(blocks_space, ProtoSpec::HomeOwned);
    } else if v == Variant::Adaptive {
        // Blocks are written only by their owner, so the home-owned
        // discipline is a legal candidate; the engine picks it when the
        // read fan-out makes SC's invalidation upkeep the dearer option.
        let spec = AdaptiveSpec::new(AdaptiveSpec::SC | AdaptiveSpec::HOME_OWNED);
        d.change_protocol(blocks_space, ProtoSpec::Adaptive(spec));
    }

    // Right-looking fan-out factorization. Blocks are mapped around each
    // access (the CRL idiom; block transfers are bulk either way).
    let read_block = |d: &D, rid: u64| -> Vec<f64> {
        d.map(rid);
        d.start_read(rid);
        let m = d.with::<f64, _>(rid, |x| x.to_vec());
        d.end_read(rid);
        d.unmap(rid);
        m
    };

    for k in 0..p.nblocks {
        // 1. Factor the diagonal block.
        let dk = id_of[&(k, k)];
        if owner(k, k, d.nprocs()) == d.rank() {
            d.map(dk);
            d.start_write(dk);
            d.with_mut::<f64, _>(dk, |m| potrf(m, b));
            d.end_write(dk);
            d.unmap(dk);
            d.charge_flops((b * b * b) as u64 / 3);
        }
        d.barrier(blocks_space);

        // 2. Panel solve: L[i][k] = A[i][k] · L[k][k]⁻ᵀ.
        for i in (k + 1)..p.nblocks {
            if in_band(p, i, k) && owner(i, k, d.nprocs()) == d.rank() {
                let l = read_block(d, dk);
                let rik = id_of[&(i, k)];
                d.map(rik);
                d.start_write(rik);
                d.with_mut::<f64, _>(rik, |m| trsm(m, &l, b));
                d.end_write(rik);
                d.unmap(rik);
                d.charge_flops((b * b * b) as u64 / 2);
            }
        }
        d.barrier(blocks_space);

        // 3. Trailing update: A[i][j] -= L[i][k] · L[j][k]ᵀ.
        for j in (k + 1)..p.nblocks {
            if !in_band(p, j, k) {
                continue;
            }
            for i in j..p.nblocks {
                if !in_band(p, i, k) || !in_band(p, i, j) {
                    continue;
                }
                if owner(i, j, d.nprocs()) != d.rank() {
                    continue;
                }
                let (rik, rjk) = (id_of[&(i, k)], id_of[&(j, k)]);
                let li = read_block(d, rik);
                let lj = read_block(d, rjk);
                let rij = id_of[&(i, j)];
                d.map(rij);
                d.start_write(rij);
                d.with_mut::<f64, _>(rij, |m| gemm_sub(m, &li, &lj, b));
                d.end_write(rij);
                d.unmap(rij);
                d.charge_flops(2 * (b * b * b) as u64);
            }
        }
        d.barrier(blocks_space);
    }

    // Verify owned blocks against the closed form and compute Σ|L|.
    let mut max_dev: f64 = 0.0;
    let mut checksum = 0.0;
    for (&(i, j), &rid) in my_blocks.iter().zip(&my_ids) {
        let want = l0_block(p, i, j);
        d.map(rid);
        d.start_read(rid);
        d.with::<f64, _>(rid, |m| {
            for (got, want) in m.iter().zip(&want) {
                max_dev = max_dev.max((got - want).abs());
                checksum += got.abs();
            }
        });
        d.end_read(rid);
        d.unmap(rid);
    }
    let dev = d.allreduce_f64(max_dev, |a, b| a.max(b));
    let sum = d.allreduce_f64(checksum, |a, b| a + b);
    assert!(dev < 1e-6, "factor deviates from closed form by {dev}");
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{launch_ace, launch_crl};
    use ace_core::CostModel;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-8 * a.abs().max(b.abs()).max(1.0)
    }

    #[test]
    fn sequential_blocks_factor_exactly() {
        // potrf of A[0][0] must reproduce L₀[0][0].
        let p = Params::small();
        let mut a = a_block(&p, 0, 0);
        potrf(&mut a, p.block);
        let want = l0_block(&p, 0, 0);
        for (g, w) in a.iter().zip(&want) {
            assert!((g - w).abs() < 1e-9, "potrf mismatch: {g} vs {w}");
        }
    }

    #[test]
    fn distributed_factorization_verifies() {
        let p = Params::small();
        let sc = launch_ace(4, CostModel::free(), |d| run(d, &p, Variant::Sc));
        let cu = launch_ace(4, CostModel::free(), |d| run(d, &p, Variant::Custom));
        let cr = launch_crl(4, CostModel::free(), |d| run(d, &p, Variant::Sc));
        assert!(close(sc.verification, cu.verification));
        assert!(close(sc.verification, cr.verification));
    }

    #[test]
    fn custom_protocol_saves_little_on_bsc() {
        // The paper: BSC's custom protocol win is marginal because bulk
        // transfer dominates. Check custom does not *increase* traffic by
        // much and the verification still holds.
        let p = Params::small();
        let sc = launch_ace(3, CostModel::free(), |d| run(d, &p, Variant::Sc));
        let cu = launch_ace(3, CostModel::free(), |d| run(d, &p, Variant::Custom));
        assert!(close(sc.verification, cu.verification));
        assert!(cu.bytes < sc.bytes * 2, "custom should stay in the same traffic class");
    }

    #[test]
    fn single_node_factorizes() {
        let p = Params::small();
        let out = launch_ace(1, CostModel::free(), |d| run(d, &p, Variant::Sc));
        assert!(out.verification > 0.0);
    }
}
