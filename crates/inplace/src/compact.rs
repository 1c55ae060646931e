//! In-place approximate compaction (paper Lemma 3.2).
//!
//! *Given an array of size m containing at most k non-zero elements, one can
//! determine whether k < m^ε and if so perform an in-place approximate
//! compaction of these elements into an area of size k⁴, deterministically,
//! using max{k, m^{4ε+δ}} processors with workspace of size m^{4ε+δ}, where
//! δ < 1 and ε < (1−δ)/4.*
//!
//! The scheme (paper §3.2): split the array into groups; every non-zero
//! element marks its group's bit; Ragde-compact the *group marks* (there
//! are ≤ min{#groups, k} of them); subdivide each surviving group and
//! repeat, ignoring empty groups. After ≤ 1/δ rounds the groups have length
//! one and the marks are the elements themselves.
//!
//! Implementation notes:
//!
//! * Group lengths are powers of the branching factor `sub ≈ m^δ`, so each
//!   element computes its sub-group index arithmetically from its position.
//! * Renumbering across rounds uses the *modulus* of the deterministic
//!   Ragde compaction: an element's new group id is
//!   `(old_id mod p)·sub + subindex`, which every element computes locally
//!   — no pointer chasing, no reordering, exactly the in-place discipline.
//! * The per-element current group id lives in an m-cell array that models
//!   the virtual processors' *private registers* ("a virtual processor
//!   standing by each element", §1); the o(m) bound of the lemma concerns
//!   the shared workspace, which here is the mark/compaction tables of size
//!   O(bound⁴·sub) = O(m^{4ε+δ}).

use ipch_pram::{ArrayId, Machine, ModelClass, ModelContract, RaceExpectation, Shm, EMPTY};

use crate::ragde::ragde_compact_det;

/// Concurrency contract: Common-CRCW — the only races are occupancy marks
/// and duplicate stores of identical payloads.
pub const COMPACT_CONTRACT: ModelContract = ModelContract {
    algorithm: "inplace/compact",
    class: ModelClass::Crcw,
    races: RaceExpectation::SameValue,
};

/// Result of an in-place compaction.
#[derive(Clone, Debug)]
pub struct InplaceCompaction {
    /// Compacted payloads: `count` occupied cells in the final round's
    /// Ragde area (O(count⁴), capped as [`ragde_compact_det`] documents),
    /// rest `EMPTY`, in slot order (see [`InplaceCompaction::ids_ascending`]).
    pub slots: ArrayId,
    /// Parallel array: `positions[s]` = original index of the element whose
    /// payload sits in `slots[s]` (or `EMPTY`).
    pub positions: ArrayId,
    /// Number of elements compacted.
    pub count: usize,
    /// Refinement rounds executed (≤ ~1/δ).
    pub rounds: usize,
    /// Largest shared workspace table allocated, in cells (for table T8).
    pub workspace_cells: usize,
}

impl InplaceCompaction {
    /// The compacted payloads, read as element ids, in ascending order.
    /// Slots hold them in the order `g mod p` of the count-sized Ragde
    /// area ([`ragde_compact_det`]), not in position order; a base
    /// problem built from them lists its ids in input order.
    pub fn ids_ascending(&self, shm: &Shm) -> Vec<usize> {
        let mut ids: Vec<usize> = shm
            .slice(self.slots)
            .iter()
            .filter(|&&v| v != EMPTY)
            .map(|&v| v as usize)
            .collect();
        ids.sort_unstable();
        ids
    }
}

/// In-place approximate compaction of the occupied (non-`EMPTY`) cells of
/// `src`. `bound` plays the role of m^ε: if more than `bound` cells are
/// occupied this is detected and `None` is returned. `delta` sets the
/// branching factor `sub = max(2, ⌊m^δ⌋)` and hence the round count.
/// `None` also reports a step that did not commit as the model says (a
/// fault plan: an occupied element whose group register is unwritten or
/// outside the round's id space).
pub fn inplace_compact(
    m: &mut Machine,
    shm: &mut Shm,
    src: ArrayId,
    bound: usize,
    delta: f64,
) -> Option<InplaceCompaction> {
    m.declare_contract(&COMPACT_CONTRACT);
    let n = shm.len(src);
    if n == 0 {
        let slots = shm.alloc("ipc.slots", 1, EMPTY);
        let positions = shm.alloc("ipc.pos", 1, EMPTY);
        return Some(InplaceCompaction {
            slots,
            positions,
            count: 0,
            rounds: 0,
            workspace_cells: 0,
        });
    }
    assert!((0.0..1.0).contains(&delta), "need 0 <= delta < 1");
    let sub = ((n as f64).powf(delta).floor() as usize).max(2);

    // Target initial group count ≈ bound⁴·sub (the m^{4ε+δ} workspace);
    // group length = smallest power of `sub` that gets us under it.
    let g_target = (bound.max(2).pow(4).saturating_mul(sub)).min(n);
    let mut len = 1usize; // group length, a power of sub
    while n.div_ceil(len) > g_target {
        len = len.saturating_mul(sub);
    }
    let t_rounds = {
        let mut t = 0usize;
        let mut l = len;
        while l > 1 {
            l /= sub;
            t += 1;
        }
        t
    };

    // Per-element private register: current group id.
    let seg = shm.alloc("ipc.seg", n, EMPTY);
    m.step(shm, 0..n, |ctx| {
        let i = ctx.pid;
        if ctx.read(src, i) != EMPTY {
            ctx.write(seg, i, (i / len) as i64);
        }
    });

    let mut id_space = n.div_ceil(len);
    let mut cur_len = len;
    let mut workspace_cells = 0usize;
    let mut out = None;

    // Group length shrinks len → len/sub → … → 1 over the rounds; the
    // round with singleton groups (index `t_rounds`) is the final one.
    for round in 0..=t_rounds {
        let final_round = round == t_rounds;
        // Mark occupied groups; in the final round the payload is the
        // element's own position (groups are singletons). Each processor
        // reports in a private register whether its group id was in range.
        let marks = shm.alloc("ipc.marks", id_space, EMPTY);
        workspace_cells = workspace_cells.max(id_space);
        let in_range = m.step_map(shm, 0..n, |ctx| {
            let i = ctx.pid;
            if ctx.read(src, i) == EMPTY {
                return true;
            }
            let Some(g) = usize::try_from(ctx.read(seg, i))
                .ok()
                .filter(|&g| g < id_space)
            else {
                return false;
            };
            let payload = if final_round { i as i64 } else { g as i64 };
            ctx.write(marks, g, payload);
            true
        });
        if in_range.contains(&false) {
            return None;
        }

        let c = ragde_compact_det(m, shm, marks, bound)?;
        let p = c.modulus.expect("deterministic variant") as usize;
        workspace_cells = workspace_cells.max(p);

        if final_round {
            // `c.dst[g mod p]` = element position; scatter the payloads.
            let slots = shm.alloc("ipc.slots", p, EMPTY);
            m.step(shm, 0..n, |ctx| {
                let i = ctx.pid;
                if ctx.read(src, i) != EMPTY {
                    let g = ctx.read(seg, i) as usize;
                    let v = ctx.read(src, i);
                    ctx.write(slots, g % p, v);
                }
            });
            out = Some(InplaceCompaction {
                slots,
                positions: c.dst,
                count: c.count,
                rounds: round + 1,
                workspace_cells,
            });
            break;
        }

        // Renumber: new id = (old mod p)·sub + subindex, computed locally.
        let next_len = cur_len / sub;
        m.step(shm, 0..n, |ctx| {
            let i = ctx.pid;
            if ctx.read(src, i) != EMPTY {
                let g = ctx.read(seg, i) as usize;
                let slot = g % p;
                let subidx = (i / next_len) % sub;
                ctx.write(seg, i, (slot * sub + subidx) as i64);
            }
        });
        id_space = p * sub;
        cur_len = next_len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(n: usize, occupied: &[(usize, i64)]) -> (Machine, Shm, ArrayId) {
        let mut shm = Shm::new();
        let a = shm.alloc("src", n, EMPTY);
        for &(i, v) in occupied {
            shm.host_set(a, i, v);
        }
        (Machine::new(5), shm, a)
    }

    fn check(n: usize, occupied: &[(usize, i64)], bound: usize, delta: f64) {
        let (mut m, mut shm, a) = setup(n, occupied);
        let c = inplace_compact(&mut m, &mut shm, a, bound, delta)
            .unwrap_or_else(|| panic!("n={n} bound={bound} delta={delta}: unexpected failure"));
        assert_eq!(c.count, occupied.len());
        // payload/position pairing must be exact
        let mut got: Vec<(usize, i64)> = Vec::new();
        for s in 0..shm.len(c.slots) {
            let v = shm.get(c.slots, s);
            let pos = shm.get(c.positions, s);
            assert_eq!(v == EMPTY, pos == EMPTY, "slot {s} half-filled");
            if v != EMPTY {
                got.push((pos as usize, v));
            }
        }
        got.sort_unstable();
        let mut expect = occupied.to_vec();
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    /// The count-sized Ragde area keeps ids in slot order `g mod p`;
    /// `ids_ascending` reads them back in position order.
    #[test]
    fn ids_ascending_reads_a_wrapped_area_in_position_order() {
        let occ = [(66usize, 66i64), (70, 70), (260, 260)];
        let (mut m, mut shm, a) = setup(1000, &occ);
        let c = inplace_compact(&mut m, &mut shm, a, 8, 0.34).unwrap();
        assert_eq!(shm.len(c.slots), 67);
        let slot_order: Vec<i64> = shm
            .slice(c.slots)
            .iter()
            .copied()
            .filter(|&v| v != EMPTY)
            .collect();
        assert_eq!(slot_order, vec![70, 260, 66]);
        assert_eq!(c.ids_ascending(&shm), vec![66, 70, 260]);
    }

    /// An occupied element whose group register is out of range (a
    /// dropped write leaves it `EMPTY`, read as index 2⁶⁴ − 1; a flipped bit
    /// can push it past the id space) makes the compaction report `None`
    /// instead of indexing past `ipc.marks`.
    #[test]
    fn out_of_range_seg_register_is_no_compaction() {
        use ipch_pram::{DropWindow, FaultPlan};
        // step 0 writes `ipc.seg`: dropping it leaves every register EMPTY
        let (mut m, mut shm, a) = setup(64, &[(3, 30), (40, 44)]);
        m.install_faults(FaultPlan {
            drop_window: Some(DropWindow {
                from_step: 0,
                until_step: 1,
                rate: 1.0,
            }),
            ..FaultPlan::default()
        });
        assert!(inplace_compact(&mut m, &mut shm, a, 4, 0.3).is_none());
        assert_eq!(m.metrics.steps, 2, "stopped after the mark step");
        // one occupied cell: after step 0 only `src` and `ipc.seg` are
        // live, so a corruption that hits the register flips its group id
        // 0 to 1, past the one-group id space
        let mut none = 0;
        for seed in 0..16 {
            let (_, mut shm, a) = setup(1, &[(0, 7)]);
            let mut m = Machine::new(seed);
            m.install_faults(FaultPlan {
                corrupt_rate: 1.0,
                ..FaultPlan::default()
            });
            none += inplace_compact(&mut m, &mut shm, a, 2, 0.5).is_none() as usize;
        }
        assert!(none > 0, "no seed corrupted the group register");
    }

    #[test]
    fn basic_scattered() {
        check(1000, &[(3, 33), (400, 44), (999, 55)], 4, 0.3);
    }

    #[test]
    fn clustered_elements() {
        // all in one initial group — forces the refinement to actually split
        check(4096, &[(100, 1), (101, 2), (102, 3), (103, 4)], 5, 0.25);
    }

    #[test]
    fn empty_and_single() {
        check(256, &[], 3, 0.3);
        check(256, &[(255, 7)], 3, 0.3);
        check(1, &[(0, 9)], 2, 0.5);
    }

    #[test]
    fn detects_overflow() {
        let occ: Vec<(usize, i64)> = (0..12).map(|i| (i * 11, i as i64)).collect();
        let (mut m, mut shm, a) = setup(512, &occ);
        assert!(inplace_compact(&mut m, &mut shm, a, 8, 0.3).is_none());
        let (mut m2, mut shm2, a2) = setup(512, &occ);
        assert!(inplace_compact(&mut m2, &mut shm2, a2, 12, 0.3).is_some());
    }

    #[test]
    fn various_deltas_and_sizes() {
        let mut rng = ipch_pram::rng::SplitMix64::new(11);
        for &n in &[64usize, 300, 1024, 5000] {
            for &delta in &[0.2, 0.4, 0.6] {
                let mut occ: Vec<(usize, i64)> = Vec::new();
                let mut used = std::collections::HashSet::new();
                for _ in 0..6 {
                    let i = rng.next_below(n as u64) as usize;
                    if used.insert(i) {
                        occ.push((i, 100 + i as i64));
                    }
                }
                check(n, &occ, 6, delta);
            }
        }
    }

    #[test]
    fn constant_round_count() {
        // rounds ≈ 1/δ regardless of m
        for &n in &[1 << 10, 1 << 14, 1 << 16] {
            let (mut m, mut shm, a) = setup(n, &[(n / 2, 1), (n - 1, 2)]);
            let c = inplace_compact(&mut m, &mut shm, a, 3, 0.34).unwrap();
            assert!(c.rounds <= 5, "n={n}: rounds={}", c.rounds);
            assert!(
                m.metrics.steps <= 8 * c.rounds as u64 + 2,
                "n={n}: steps={}",
                m.metrics.steps
            );
        }
    }

    #[test]
    fn workspace_is_sublinear_for_small_bound() {
        let n = 1 << 16;
        let (mut m, mut shm, a) = setup(n, &[(7, 1), (n / 3, 2), (n - 2, 3)]);
        let c = inplace_compact(&mut m, &mut shm, a, 3, 0.25).unwrap();
        // bound⁴·sub = 81·16 cells-ish, far below n; allow prime slack
        assert!(
            c.workspace_cells < n / 4,
            "workspace {} not o(m)",
            c.workspace_cells
        );
    }
}
