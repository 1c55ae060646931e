//! Approximate compaction (paper Lemma 2.1, Ragde 1990).
//!
//! *Given an array of size m containing at most k non-zero elements, one can
//! determine whether k < m^{1/4} and if so compress these k elements into an
//! area of size k⁴, in constant time on a CRCW PRAM with m processors.*
//!
//! Two implementations:
//!
//! * [`ragde_compact_det`] — deterministic, by modulus hashing: find a
//!   prime `p` near k⁴ (k the occupied count) such that `x ↦ x mod p` is
//!   injective on the set of occupied positions, then scatter in one step.
//!   Such a prime exists near k⁴ because each of the ≤ C(k,2) position
//!   differences has few prime divisors that large. Ragde's paper
//!   performs the prime search with the m processors in O(1) time; we
//!   perform it host-side and **charge** O(1) steps / O(m) work
//!   (recorded in the metrics' charged bucket — see DESIGN.md's
//!   substitution table). The scatter step that actually moves data is
//!   executed on the simulator. The modulus is returned so callers (the
//!   in-place compaction of Lemma 3.2) can let each element *compute* its
//!   own destination slot — the property the refinement scheme relies on.
//! * [`ragde_compact_rand`] — fully executed randomized alternative:
//!   occupied cells dart-throw into the bound⁴ area with CRCW collision
//!   detection, retrying a constant number of rounds. Succeeds w.h.p.
//!   since the area is quadratically larger than k².
//!
//! Occupancy convention: a cell is occupied iff it differs from
//! [`ipch_pram::EMPTY`]; its value is the payload that gets moved.

use ipch_pram::{
    ArrayId, Machine, ModelClass, ModelContract, RaceExpectation, Shm, WritePolicy, EMPTY,
};

/// Result of a compaction.
#[derive(Clone, Debug)]
pub struct Compaction {
    /// Destination array: `count` occupied cells, the rest `EMPTY`.
    pub dst: ArrayId,
    /// Number of occupied cells moved.
    pub count: usize,
    /// For the deterministic variant: the modulus `p` with
    /// `dst[x mod p] = payload(x)` for every occupied position `x`.
    pub modulus: Option<u64>,
}

/// Is `n` prime? (Host-side trial division; moduli stay small.)
fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    if n.is_multiple_of(2) {
        return n == 2;
    }
    let mut d = 3u64;
    while d * d <= n {
        if n.is_multiple_of(d) {
            return false;
        }
        d += 2;
    }
    true
}

/// Destination-area size for `k` occupied cells of an `m`-cell source:
/// Lemma 2.1's k⁴, capped for practicality.
///
/// The lemma sizes the area k⁴ because that guarantees an injective prime
/// can be *found in O(1) parallel time*; any injective prime is
/// functionally correct. Beyond small k, k⁴ is astronomically larger than
/// the array itself, so we start the (host-side, charged) search at
/// `min(k⁴, max(64, 4k²), m)` — still quadratically above the worst-case
/// collision count, and never above the source: every position is below
/// `m`, so the first prime `≥ m` is injective and the area stays within a
/// prime gap of the source length however many cells are occupied.
/// Documented in DESIGN.md's substitution table.
fn dst_area(k: usize, m: usize) -> u64 {
    let k = k as u128;
    k.pow(4).min((4 * k * k).max(64)).min(m as u128) as u64
}

/// Dart-throwing area of [`ragde_compact_rand`]: sized by `bound` (Lemma
/// 2.1's bound⁴, capped at `max(64, 4·bound², m)` for an `m`-cell source),
/// since the throwers do not use the occupied count.
fn rand_area(bound: usize, m: usize) -> u64 {
    let b = bound.max(2) as u128;
    b.pow(4).min((4 * b * b).max(64).max(m as u128)) as u64
}

/// Smallest prime `p ≥ lo` such that `x ↦ x mod p` is injective on `xs`.
fn injective_prime(xs: &[usize], lo: u64) -> u64 {
    let mut p = lo.max(2);
    loop {
        while !is_prime(p) {
            p += 1;
        }
        let mut seen = std::collections::HashSet::with_capacity(xs.len());
        if xs.iter().all(|&x| seen.insert(x as u64 % p)) {
            return p;
        }
        p += 1;
    }
}

/// Count occupied cells of `src` in one Combining-CRCW step.
pub fn count_occupied(m: &mut Machine, shm: &mut Shm, src: ArrayId) -> usize {
    let n = shm.len(src);
    let acc = shm.alloc("ragde.count", 1, 0);
    m.step_with_policy(shm, 0..n, WritePolicy::CombineSum, |ctx| {
        let i = ctx.pid;
        if ctx.read(src, i) != EMPTY {
            ctx.write(acc, 0, 1);
        }
    });
    shm.get(acc, 0) as usize
}

/// Concurrency contract: Common-CRCW — the injective scatter is
/// conflict-free; only agreeing occupancy marks race.
pub const RAGDE_DET_CONTRACT: ModelContract = ModelContract {
    algorithm: "inplace/ragde_det",
    class: ModelClass::Crcw,
    races: RaceExpectation::SameValue,
};

/// Concurrency contract: the dart throws contest slots under Priority
/// (any winner is valid; losers retry), so the committed memory is a
/// deterministic function of the coin flips.
pub const RAGDE_RAND_CONTRACT: ModelContract = ModelContract {
    algorithm: "inplace/ragde_rand",
    class: ModelClass::Crcw,
    races: RaceExpectation::Deterministic,
};

/// Deterministic approximate compaction (Lemma 2.1 interface).
///
/// Fails (returns `None`) iff more than `bound` cells are occupied — the
/// lemma's "determine whether k < m^{1/4}" detection, with `bound` playing
/// the role of m^{1/4}. On success the destination's size is the
/// least injective prime `p ≥ min(k⁴, max(64, 4k²), m)` for the executed
/// count k of occupied cells of the m-cell source: the area follows the
/// compacted set, not `bound`, and never exceeds the first prime `≥ m`.
/// Payloads land in slot order `x mod p`, not in position order; a
/// reader that needs position order sorts them.
pub fn ragde_compact_det(
    m: &mut Machine,
    shm: &mut Shm,
    src: ArrayId,
    bound: usize,
) -> Option<Compaction> {
    m.declare_contract(&RAGDE_DET_CONTRACT);
    let n = shm.len(src);
    let count = count_occupied(m, shm, src);
    if count > bound {
        return None;
    }
    // Host-side stand-in for Ragde's parallel prime search: charged O(1)
    // steps and O(m) work (the m processors it would occupy).
    m.charge(3, n as u64);
    let occupied: Vec<usize> = (0..n).filter(|&i| shm.get(src, i) != EMPTY).collect();
    let p = injective_prime(&occupied, dst_area(count, n));

    let dst = shm.alloc("ragde.dst", p as usize, EMPTY);
    // Executed scatter step: every processor of an occupied cell writes its
    // payload to its computed slot. Injectivity ⇒ no write conflicts.
    m.step(shm, 0..n, |ctx| {
        let i = ctx.pid;
        let v = ctx.read(src, i);
        if v != EMPTY {
            ctx.write(dst, i % p as usize, v);
        }
    });
    Some(Compaction {
        dst,
        count,
        modulus: Some(p),
    })
}

/// Randomized approximate compaction: fully executed dart-throwing.
///
/// Occupied cells throw into a `max(16, bound⁴)`-cell area; collisions are
/// detected by read-back and collided throwers retry, up to `rounds`
/// rounds. Returns `None` if more than `bound` cells are occupied or some
/// thrower is still unplaced after all rounds (probability ≤ (k²/area)^rounds
/// -ish; callers treat `None` as the "failure" their sweeping handles).
pub fn ragde_compact_rand(
    m: &mut Machine,
    shm: &mut Shm,
    src: ArrayId,
    bound: usize,
    rounds: usize,
) -> Option<Compaction> {
    m.declare_contract(&RAGDE_RAND_CONTRACT);
    let n = shm.len(src);
    let count = count_occupied(m, shm, src);
    if count > bound {
        return None;
    }
    let area = (rand_area(bound, n) as usize).max(16);
    let dst = shm.alloc("ragde.rdst", area, EMPTY);
    let placed = shm.alloc("ragde.placed", n, 0);
    let try_slot = shm.alloc("ragde.try", n, EMPTY);
    // A slot register outside the area (one a fault plan left unwritten or
    // corrupted) leaves its thrower idle: it stays unplaced.
    let slot_of = |v: i64| usize::try_from(v).ok().filter(|&s| s < area);

    for _ in 0..rounds {
        // Step A: each unplaced occupied cell picks a slot and records it.
        m.step(shm, 0..n, |ctx| {
            let i = ctx.pid;
            if ctx.read(src, i) != EMPTY && ctx.read(placed, i) == 0 {
                let s = ctx.rng().next_below(area as u64) as i64;
                ctx.write(try_slot, i, s);
            }
        });
        // Step B: throw the id at the chosen slot if the slot is free.
        // Colliding throwers are interchangeable (the loser just retries
        // next round), so Priority resolves the collision: the committed
        // id is the least thrower, a deterministic function of the coin
        // flips rather than of the simulator's tiebreak seed.
        m.step_with_policy(shm, 0..n, WritePolicy::PriorityMin, |ctx| {
            let i = ctx.pid;
            if ctx.read(src, i) != EMPTY && ctx.read(placed, i) == 0 {
                let Some(s) = slot_of(ctx.read(try_slot, i)) else {
                    return;
                };
                if ctx.read(dst, s) == EMPTY {
                    ctx.write(dst, s, i as i64);
                }
            }
        });
        // Step C: read back; the winner claims the slot with its payload and
        // marks itself placed. (Winner-only write ⇒ no conflict.)
        m.step(shm, 0..n, |ctx| {
            let i = ctx.pid;
            if ctx.read(src, i) != EMPTY && ctx.read(placed, i) == 0 {
                let Some(s) = slot_of(ctx.read(try_slot, i)) else {
                    return;
                };
                if ctx.read(dst, s) == i as i64 {
                    let v = ctx.read(src, i);
                    ctx.write(dst, s, v);
                    ctx.write(placed, i, 1);
                }
            }
        });
    }
    // Did everyone land? One OR step.
    let unplaced = shm.alloc("ragde.unplaced", 1, 0);
    m.step_with_policy(shm, 0..n, WritePolicy::CombineOr, |ctx| {
        let i = ctx.pid;
        if ctx.read(src, i) != EMPTY && ctx.read(placed, i) == 0 {
            ctx.write(unplaced, 0, 1);
        }
    });
    if shm.get(unplaced, 0) != 0 {
        return None;
    }
    Some(Compaction {
        dst,
        count,
        modulus: None,
    })
}

/// Test helper: collect the payloads of a compaction's destination.
pub fn payloads(shm: &Shm, c: &Compaction) -> Vec<i64> {
    let mut v: Vec<i64> = shm
        .slice(c.dst)
        .iter()
        .copied()
        .filter(|&x| x != EMPTY)
        .collect();
    v.sort_unstable();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipch_pram::primitives;

    fn setup(n: usize, occupied: &[(usize, i64)]) -> (Machine, Shm, ArrayId) {
        let mut shm = Shm::new();
        let a = shm.alloc("src", n, EMPTY);
        for &(i, v) in occupied {
            shm.host_set(a, i, v);
        }
        (Machine::new(77), shm, a)
    }

    /// Regression for the dart-throw fix: step B runs under Priority, so
    /// slot contests are Deterministic races (never SeedDependent). Two
    /// throwers into 16 slots collide in ~1/16 of rounds; across 100 seeds
    /// a contest is statistically certain.
    #[test]
    fn analyzer_pins_priority_darts() {
        use ipch_pram::AnalyzeConfig;
        let mut contested = 0;
        for seed in 0..100 {
            let mut m = Machine::new(seed);
            m.enable_analysis(AnalyzeConfig::default());
            let mut shm = Shm::new();
            shm.enable_shadow(true);
            let a = shm.alloc("src", 16, EMPTY);
            shm.host_set(a, 2, 20);
            shm.host_set(a, 9, 90);
            let c = ragde_compact_rand(&mut m, &mut shm, a, 2, 8).expect("placed");
            assert_eq!(c.count, 2);
            let r = m.analysis_report().unwrap();
            assert_eq!(r.contract.unwrap().algorithm, "inplace/ragde_rand");
            assert!(r.is_clean(), "seed {seed}:\n{}", r.render());
            assert_eq!(r.seed_dependent_races, 0, "seed {seed}");
            assert_eq!(r.unconfirmed_arbitrary_races, 0, "seed {seed}");
            contested += r.deterministic_races;
        }
        assert!(contested > 0, "no dart contest across any seed");
    }

    /// The area follows the executed occupied count k — the least
    /// injective prime ≥ min(k⁴, max(64, 4k²), m) — not the bound; payloads
    /// sit at `x mod p`, so a position-order reader sorts them.
    #[test]
    fn det_compacts_and_reports_modulus() {
        let occ = [(3usize, 30i64), (501, 40), (998, 50)];
        for (n, bound) in [(1000, 4), (1000, 64), (100_000, 4)] {
            let (mut m, mut shm, a) = setup(n, &occ);
            let c = ragde_compact_det(&mut m, &mut shm, a, bound).expect("within bound");
            assert_eq!(c.count, 3);
            let p = c.modulus.unwrap();
            // k = 3: min(81, max(64, 36)) = 64, and 67 is injective on the
            // positions — whatever the bound (4⁴ = 256) or the length
            assert_eq!(p, 67, "n={n} bound={bound}");
            assert_eq!(shm.len(c.dst), 67);
            assert_eq!(payloads(&shm, &c), vec![30, 40, 50]);
            // each payload at its computed slot
            for &(i, v) in &occ {
                assert_eq!(shm.get(c.dst, i % p as usize), v);
            }
            // executed cost: count step + scatter step only
            assert_eq!(m.metrics.steps, 2);
            assert_eq!(m.metrics.charged_steps, 3);
        }
        // slot order is `x mod p`, not position order: 70 lands in slot 3
        // and 260 in slot 59 before 66 in slot 66, once p = 67
        let (mut m, mut shm, a) = setup(1000, &[(66, 1), (70, 2), (260, 3)]);
        let c = ragde_compact_det(&mut m, &mut shm, a, 8).unwrap();
        assert_eq!(c.modulus, Some(67));
        let slot_order: Vec<i64> = shm
            .slice(c.dst)
            .iter()
            .copied()
            .filter(|&x| x != EMPTY)
            .collect();
        assert_eq!(slot_order, vec![2, 3, 1]);
        assert_eq!(payloads(&shm, &c), vec![1, 2, 3]);
    }

    #[test]
    fn det_detects_overflow() {
        let occ: Vec<(usize, i64)> = (0..20).map(|i| (i * 7, i as i64)).collect();
        let (mut m, mut shm, a) = setup(200, &occ);
        assert!(ragde_compact_det(&mut m, &mut shm, a, 10).is_none());
        assert!(ragde_compact_det(&mut m, &mut shm, a, 20).is_some());
    }

    /// Many occupied cells in a short source: 4k² passes the source
    /// length m, so the search starts at m and stops at the first prime
    /// `≥ m` (injective, as every position is below m). The area is never
    /// quadratic in a large occupied count.
    #[test]
    fn det_area_is_capped_at_the_first_prime_past_the_source() {
        for (n, k) in [(10usize, 3usize), (100, 20), (200, 200), (4096, 273)] {
            let occ: Vec<(usize, i64)> = (0..k).map(|j| (j * n / k, j as i64)).collect();
            let (mut m, mut shm, a) = setup(n, &occ);
            let c = ragde_compact_det(&mut m, &mut shm, a, k).expect("within bound");
            let first = (n as u64..).find(|&q| is_prime(q)).unwrap();
            assert_eq!(c.modulus, Some(first), "n={n} k={k}");
            assert_eq!(shm.len(c.dst), first as usize);
            assert_eq!(payloads(&shm, &c), (0..k as i64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn det_empty_and_single() {
        let (mut m, mut shm, a) = setup(64, &[]);
        let c = ragde_compact_det(&mut m, &mut shm, a, 2).unwrap();
        assert_eq!(c.count, 0);
        let (mut m, mut shm, a) = setup(64, &[(63, 9)]);
        let c = ragde_compact_det(&mut m, &mut shm, a, 2).unwrap();
        assert_eq!(payloads(&shm, &c), vec![9]);
    }

    #[test]
    fn det_adversarial_positions() {
        // arithmetic progressions are the classic bad case for modulus
        // hashing — the search must skip divisor-heavy moduli
        for stride in [1usize, 16, 252, 255] {
            let occ: Vec<(usize, i64)> = (0..8).map(|j| (j * stride, 100 + j as i64)).collect();
            let (mut m, mut shm, a) = setup(2048, &occ);
            let c = ragde_compact_det(&mut m, &mut shm, a, 8).unwrap();
            assert_eq!(
                payloads(&shm, &c),
                (0..8).map(|j| 100 + j as i64).collect::<Vec<_>>(),
                "stride={stride}"
            );
        }
    }

    #[test]
    fn rand_compacts_whp() {
        let occ: Vec<(usize, i64)> = (0..6).map(|i| (i * 31 + 5, i as i64 + 1)).collect();
        let (mut m, mut shm, a) = setup(500, &occ);
        let c = ragde_compact_rand(&mut m, &mut shm, a, 6, 4).expect("should place all");
        assert_eq!(c.count, 6);
        assert_eq!(payloads(&shm, &c), vec![1, 2, 3, 4, 5, 6]);
        assert!(c.modulus.is_none());
        // O(1) steps: count + 3 per round + final OR
        assert_eq!(m.metrics.steps, 1 + 3 * 4 + 1);
    }

    /// A slot register that step A never wrote (its thrower was dropped)
    /// holds `EMPTY`, outside the area: steps B and C leave that thrower
    /// idle instead of reading index 2⁶⁴ − 1, and it throws again next
    /// round.
    #[test]
    fn unwritten_slot_register_leaves_the_thrower_idle() {
        use ipch_pram::{DropWindow, FaultPlan};
        let occ: Vec<(usize, i64)> = (0..6).map(|i| (i * 31 + 5, i as i64 + 1)).collect();
        for rounds in [1, 4] {
            let (mut m, mut shm, a) = setup(500, &occ);
            // step 0 counts; step 1 is round 1's step A
            m.install_faults(FaultPlan {
                drop_window: Some(DropWindow {
                    from_step: 1,
                    until_step: 2,
                    rate: 1.0,
                }),
                ..FaultPlan::default()
            });
            let c = ragde_compact_rand(&mut m, &mut shm, a, 6, rounds);
            assert_eq!(m.metrics.faults.dropped_processors, 500);
            match rounds {
                1 => assert!(c.is_none(), "nobody threw, so nobody landed"),
                _ => assert_eq!(payloads(&shm, &c.expect("placed")), vec![1, 2, 3, 4, 5, 6]),
            }
        }
    }

    #[test]
    fn rand_detects_overflow() {
        let occ: Vec<(usize, i64)> = (0..9).map(|i| (i, 1)).collect();
        let (mut m, mut shm, a) = setup(50, &occ);
        assert!(ragde_compact_rand(&mut m, &mut shm, a, 4, 4).is_none());
    }

    #[test]
    fn rand_many_seeds_never_lose_payloads() {
        for seed in 0..20u64 {
            let mut shm = Shm::new();
            let a = shm.alloc("src", 300, EMPTY);
            let mut rng = ipch_pram::rng::SplitMix64::new(seed);
            let mut expect = Vec::new();
            for _ in 0..10 {
                let i = rng.next_below(300) as usize;
                if shm.get(a, i) == EMPTY {
                    shm.host_set(a, i, 1000 + i as i64);
                    expect.push(1000 + i as i64);
                }
            }
            expect.sort_unstable();
            let mut m = Machine::new(seed);
            match ragde_compact_rand(&mut m, &mut shm, a, 10, 5) {
                Some(c) => assert_eq!(payloads(&shm, &c), expect, "seed={seed}"),
                None => panic!("seed={seed}: placement failed with huge area"),
            }
        }
    }

    #[test]
    fn leftmost_on_compacted_area_is_constant_time() {
        // integration with the pram primitive used by random vote
        let (mut m, mut shm, a) = setup(100, &[(40, 7), (80, 8)]);
        let c = ragde_compact_det(&mut m, &mut shm, a, 2).unwrap();
        let bits = c.dst;
        let idx = primitives::leftmost_nonzero(&mut m, &mut shm, bits);
        // EMPTY = -1 is nonzero; ensure we found *some* occupied slot, using
        // a materialized 0/1 view instead
        let n = shm.len(bits);
        let view = shm.alloc("view", n, 0);
        m.step(&mut shm, 0..n, |ctx| {
            let i = ctx.pid;
            if ctx.read(bits, i) != EMPTY {
                ctx.write(view, i, 1);
            }
        });
        let idx2 = primitives::leftmost_nonzero(&mut m, &mut shm, view);
        assert!(idx.is_some() && idx2.is_some());
        let v = shm.get(bits, idx2.unwrap());
        assert!(v == 7 || v == 8);
    }
}
