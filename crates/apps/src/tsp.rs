//! TSP: branch-and-bound traveling salesman (Table 3: 12 cities).
//!
//! Work is distributed through a **central job counter**: each job is a
//! fixed 3-city tour prefix, and a processor claims the next job by
//! locking the counter region, reading the ticket, writing ticket+1, and
//! unlocking — the exact idiom §5.2 credits for TSP's improvement: "the
//! improved performance is due to better management of accesses to a
//! counter that is used to assign jobs to processors". Under the default
//! protocol that idiom costs a lock round trip plus read and write misses;
//! the custom variant plugs the fetch-and-add protocol into the counter's
//! space, collapsing it to one round trip, *without changing this file's
//! claim loop*.
//!
//! A second shared region holds the best tour bound, protected by its
//! region lock. To keep the *amount of search work* identical across
//! protocols and runs (branch-and-bound is otherwise timing-sensitive),
//! every job prunes against a deterministic initial bound (the
//! nearest-neighbour tour) plus improvements found within the job itself;
//! the shared bound region is still read once and conditionally updated
//! per job — the access pattern §5.2 optimizes — but it never changes
//! which tree nodes get explored. The final answer is the exact optimum
//! under every protocol.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dsm::Dsm;
use crate::Variant;
use ace_protocols::{AdaptiveSpec, ProtoSpec};

/// TSP workload parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Number of cities (tours start and end at city 0).
    pub cities: usize,
    /// Workload seed for the distance matrix.
    pub seed: u64,
}

impl Params {
    /// The paper's input: 12 cities.
    pub fn paper() -> Self {
        Params { cities: 12, seed: 11 }
    }

    /// A scaled-down input for unit tests.
    pub fn small() -> Self {
        Params { cities: 8, seed: 11 }
    }
}

/// Symmetric random distance matrix (identical on every node).
fn distances(p: &Params) -> Vec<Vec<u64>> {
    let n = p.cities;
    let mut rng = StdRng::seed_from_u64(p.seed);
    let mut d = vec![vec![0u64; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let w = rng.gen_range(5..100);
            d[i][j] = w;
            d[j][i] = w;
        }
    }
    d
}

/// Decode job `t` into the 3 distinct cities (from 1..n) that follow
/// city 0 in the tour prefix.
fn decode_job(t: u64, n: usize) -> (usize, usize, usize) {
    let m = (n - 1) as u64;
    let a = t / ((m - 1) * (m - 2));
    let rest = t % ((m - 1) * (m - 2));
    let b = rest / (m - 2);
    let c = rest % (m - 2);
    // a, b, c index into the remaining-city lists.
    let mut pool: Vec<usize> = (1..n).collect();
    let ca = pool.remove(a as usize);
    let cb = pool.remove(b as usize);
    let cc = pool.remove(c as usize);
    (ca, cb, cc)
}

/// Number of 3-city prefixes.
fn njobs(n: usize) -> u64 {
    let m = (n - 1) as u64;
    m * (m - 1) * (m - 2)
}

/// Depth-first search completing the tour; returns nodes explored.
#[allow(clippy::too_many_arguments)]
fn dfs(
    d: &[Vec<u64>],
    path: &mut Vec<usize>,
    used: &mut [bool],
    len: u64,
    best: &mut u64,
    best_path_len: &mut u64,
    explored: &mut u64,
) {
    *explored += 1;
    let n = d.len();
    let last = *path.last().unwrap();
    if path.len() == n {
        let total = len + d[last][0];
        if total < *best {
            *best = total;
            *best_path_len = total;
        }
        return;
    }
    for next in 1..n {
        if !used[next] {
            let nl = len + d[last][next];
            if nl < *best {
                used[next] = true;
                path.push(next);
                dfs(d, path, used, nl, best, best_path_len, explored);
                path.pop();
                used[next] = false;
            }
        }
    }
}

/// Deterministic starting bound: the nearest-neighbour tour from city 0.
pub fn greedy_bound(dist: &[Vec<u64>]) -> u64 {
    let n = dist.len();
    let mut used = vec![false; n];
    used[0] = true;
    let mut at = 0usize;
    let mut total = 0u64;
    for _ in 1..n {
        let next = (0..n).filter(|&c| !used[c]).min_by_key(|&c| dist[at][c]).unwrap();
        total += dist[at][next];
        used[next] = true;
        at = next;
    }
    total + dist[at][0]
}

/// Sequential reference: exact optimum by exhaustive B&B.
pub fn reference(p: &Params) -> u64 {
    let d = distances(p);
    let mut best = u64::MAX;
    let mut bp = 0;
    let mut explored = 0;
    let mut path = vec![0usize];
    let mut used = vec![false; p.cities];
    used[0] = true;
    dfs(&d, &mut path, &mut used, 0, &mut best, &mut bp, &mut explored);
    best
}

/// Run distributed TSP; returns the optimal tour length.
pub fn run<D: Dsm>(d: &D, p: &Params, v: Variant) -> f64 {
    let dist = distances(p);
    let n = p.cities;
    assert!(n >= 5, "need at least 5 cities for 3-city prefixes");

    // The counter gets its own space (so the custom variant can change
    // just the counter's protocol); the bound lives in a default space.
    let counter_space = d.new_space(ProtoSpec::Sc);
    let shared_space = d.new_space(ProtoSpec::Sc);

    let (counter, best) = if d.rank() == 0 {
        let counter = d.gmalloc::<u64>(counter_space, 1);
        let best = d.gmalloc::<u64>(shared_space, 1);
        d.map(best);
        d.start_write(best);
        d.with_mut::<u64, _>(best, |b| b[0] = u64::MAX);
        d.end_write(best);
        let ids = d.bcast(0, &[counter, best]);
        (ids[0], ids[1])
    } else {
        let ids = d.bcast(0, &[]);
        (ids[0], ids[1])
    };
    d.map(counter);
    d.map(best);
    d.barrier(shared_space);

    if v == Variant::Custom {
        d.change_protocol(counter_space, ProtoSpec::FetchAdd);
    } else if v == Variant::Adaptive {
        // FetchAdd redefines `lock` itself, so the engine may not cross
        // into or out of it freely: the counter space pins it instead.
        let spec = AdaptiveSpec::pinned(AdaptiveSpec::FETCH_ADD);
        d.change_protocol(counter_space, ProtoSpec::Adaptive(spec));
    }

    let total = njobs(n);
    loop {
        // Claim the next job: lock, read, increment, unlock. Under the
        // fetch-and-add protocol this whole block is one round trip.
        d.lock(counter);
        d.start_read(counter);
        let ticket = d.with::<u64, _>(counter, |c| c[0]);
        d.end_read(counter);
        d.start_write(counter);
        d.with_mut::<u64, _>(counter, |c| c[0] = ticket + 1);
        d.end_write(counter);
        d.unlock(counter);
        if ticket >= total {
            break;
        }

        let (a, b, c) = decode_job(ticket, n);
        let prefix_len = dist[0][a] + dist[a][b] + dist[b][c];

        // Read the shared bound once per job — the access the custom
        // protocol optimizes. The value is *observed* but pruning uses the
        // deterministic greedy bound so total work is protocol-invariant.
        d.start_read(best);
        let _observed = d.with::<u64, _>(best, |x| x[0]);
        d.end_read(best);

        let before = greedy_bound(&dist) + 1;
        let mut local_best = before;
        if prefix_len >= local_best {
            continue;
        }

        let mut path = vec![0, a, b, c];
        let mut used = vec![false; n];
        for &x in &path {
            used[x] = true;
        }
        let mut explored = 0;
        let mut bp = 0;
        dfs(&dist, &mut path, &mut used, prefix_len, &mut local_best, &mut bp, &mut explored);
        d.charge_flops(explored * 2);

        if local_best < before {
            // Publish the improvement under the bound's lock.
            d.lock(best);
            d.start_read(best);
            let cur = d.with::<u64, _>(best, |x| x[0]);
            d.end_read(best);
            if local_best < cur {
                d.start_write(best);
                d.with_mut::<u64, _>(best, |x| x[0] = local_best);
                d.end_write(best);
            }
            d.unlock(best);
        }
    }

    d.barrier(shared_space);
    d.start_read(best);
    let answer = d.with::<u64, _>(best, |x| x[0]);
    d.end_read(best);
    d.barrier(shared_space);
    answer as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{launch_ace, launch_crl};
    use ace_core::CostModel;

    #[test]
    fn decode_covers_all_jobs_uniquely() {
        let n = 7;
        let mut seen = std::collections::HashSet::new();
        for t in 0..njobs(n) {
            let (a, b, c) = decode_job(t, n);
            assert!(a != b && b != c && a != c);
            assert!(a >= 1 && a < n && b >= 1 && b < n && c >= 1 && c < n);
            assert!(seen.insert((a, b, c)), "duplicate prefix for ticket {t}");
        }
        assert_eq!(seen.len() as u64, njobs(n));
    }

    #[test]
    fn distributed_matches_reference() {
        let p = Params::small();
        let want = reference(&p) as f64;
        let sc = launch_ace(4, CostModel::free(), |d| run(d, &p, Variant::Sc));
        let cu = launch_ace(4, CostModel::free(), |d| run(d, &p, Variant::Custom));
        let cr = launch_crl(4, CostModel::free(), |d| run(d, &p, Variant::Sc));
        assert_eq!(sc.verification, want);
        assert_eq!(cu.verification, want);
        assert_eq!(cr.verification, want);
    }

    #[test]
    fn custom_counter_cuts_messages() {
        let p = Params::small();
        let sc = launch_ace(4, CostModel::free(), |d| run(d, &p, Variant::Sc));
        let cu = launch_ace(4, CostModel::free(), |d| run(d, &p, Variant::Custom));
        assert!(
            cu.msgs < sc.msgs,
            "fetch-and-add should cut counter traffic: custom={} sc={}",
            cu.msgs,
            sc.msgs
        );
    }

    #[test]
    fn single_node_solves() {
        let p = Params::small();
        let out = launch_ace(1, CostModel::free(), |d| run(d, &p, Variant::Sc));
        assert_eq!(out.verification, reference(&p) as f64);
    }
}
