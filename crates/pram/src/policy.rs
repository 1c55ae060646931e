//! CRCW concurrent-write conflict-resolution policies.
//!
//! A CRCW PRAM is a family of models distinguished by what happens when
//! several processors write the same cell in the same step:
//!
//! * **Arbitrary** — some one writer succeeds; the algorithm may not assume
//!   which. This is the variant the paper's randomized procedures are
//!   analysed on (e.g. the dart-throwing sample of §3.1 only needs "one of
//!   the colliders lands; the others detect the collision").
//! * **PriorityMin** — the lowest-numbered processor wins. Strictly stronger
//!   than Arbitrary; we use it where determinism makes tests crisper and the
//!   algorithm is insensitive to the choice.
//! * **Combine(Min|Max|Sum|Or)** — the cell receives a combination of all
//!   written values (Fetch&Op-style combining CRCW). The OR variant is what
//!   "this amounts to an OR" in §2.2 refers to; any-winner would also do
//!   since all writers write the same value, but naming it keeps intent
//!   clear.
//!
//! A simulated `Arbitrary` winner is chosen by a seeded hash of
//! (step, array, index) over the contending writers, so runs replay exactly
//! while algorithms cannot rely on a fixed rule.
//!
//! Every rule but `Arbitrary` is an associative, commutative fold over the
//! contenders (`PriorityMin` folds to the smallest `(pid, seq)`), so the
//! machine folds a write into the previous buffered write when both target
//! the same cell (`WritePolicy::fold`) and resolves the run's remaining
//! entries with the same rule. `Arbitrary` never folds: its winner is an
//! index into the whole run, which depends on the run's length, the seeded
//! tiebreak and, under the adversarial-write fault, on every contender.

/// Conflict-resolution rule for concurrent writes to one cell in one step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WritePolicy {
    /// An arbitrary (seeded-pseudorandom) contender wins.
    Arbitrary,
    /// The contender with the smallest processor id wins.
    PriorityMin,
    /// Cell receives the minimum of all written values.
    CombineMin,
    /// Cell receives the maximum of all written values.
    CombineMax,
    /// Cell receives the sum of all written values (wrapping).
    CombineSum,
    /// Cell receives the bitwise OR of all written values.
    CombineOr,
}

impl WritePolicy {
    /// Resolve one run of the machine's sorted write log: the contending
    /// writes to one cell, sorted by writer pid, then buffering order.
    /// `tiebreak` is a seeded hash supplied by the machine for the
    /// `Arbitrary` rule. The commit calls it only for runs of two or more
    /// entries (singleton runs commit directly), so `run` is never empty.
    #[inline]
    pub(crate) fn resolve_run(&self, run: &[crate::machine::WriteEntry], tiebreak: u64) -> i64 {
        match self {
            WritePolicy::Arbitrary => {
                let i = (tiebreak % run.len() as u64) as usize;
                run[i].val
            }
            WritePolicy::PriorityMin => run[0].val,
            WritePolicy::CombineMin => run.iter().fold(i64::MAX, |a, e| a.min(e.val)),
            WritePolicy::CombineMax => run.iter().fold(i64::MIN, |a, e| a.max(e.val)),
            WritePolicy::CombineSum => run.iter().fold(0i64, |a, e| a.wrapping_add(e.val)),
            WritePolicy::CombineOr => run.iter().fold(0i64, |a, e| a | e.val),
        }
    }

    /// Fold one more write `(pidseq, val)` to `last`'s cell into `last`,
    /// the buffered entry it follows, and mark `last` as
    /// [`crate::machine::FOLDED`]. Returns `false`, leaving `last`
    /// untouched, for `Arbitrary`, which never folds (see the module doc).
    #[inline]
    pub(crate) fn fold(
        &self,
        last: &mut crate::machine::WriteEntry,
        pidseq: u64,
        val: i64,
    ) -> bool {
        match self {
            WritePolicy::Arbitrary => return false,
            // The fold bit is below every `seq` bit, so it never changes
            // which of two writes has the smaller `(pid, seq)`.
            WritePolicy::PriorityMin => {
                if pidseq < last.pidseq {
                    last.pidseq = pidseq;
                    last.val = val;
                }
            }
            WritePolicy::CombineMin => last.val = last.val.min(val),
            WritePolicy::CombineMax => last.val = last.val.max(val),
            WritePolicy::CombineSum => last.val = last.val.wrapping_add(val),
            WritePolicy::CombineOr => last.val |= val,
        }
        last.pidseq |= crate::machine::FOLDED;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::WriteEntry;

    /// One cell's run of contending writes, as the commit hands it over.
    fn run(writes: &[(u64, i64)]) -> Vec<WriteEntry> {
        writes
            .iter()
            .map(|&(pid, val)| WriteEntry {
                key: 0,
                pidseq: pid << 32,
                val,
            })
            .collect()
    }

    const W: &[(u64, i64)] = &[(2, 10), (5, -3), (9, 7)];

    #[test]
    fn priority_min_takes_lowest_pid() {
        assert_eq!(WritePolicy::PriorityMin.resolve_run(&run(W), 0), 10);
    }

    #[test]
    fn combine_rules() {
        let w = run(W);
        assert_eq!(WritePolicy::CombineMin.resolve_run(&w, 0), -3);
        assert_eq!(WritePolicy::CombineMax.resolve_run(&w, 0), 10);
        assert_eq!(WritePolicy::CombineSum.resolve_run(&w, 0), 14);
        assert_eq!(
            WritePolicy::CombineOr.resolve_run(&run(&[(0, 1), (1, 4)]), 0),
            5
        );
    }

    #[test]
    fn arbitrary_picks_some_contender_and_is_seed_stable() {
        let w = run(W);
        let v0 = WritePolicy::Arbitrary.resolve_run(&w, 17);
        assert!(W.iter().any(|&(_, v)| v == v0));
        assert_eq!(v0, WritePolicy::Arbitrary.resolve_run(&w, 17));
        // different tiebreaks should be able to pick different winners
        let distinct: std::collections::HashSet<i64> = (0..30)
            .map(|t| WritePolicy::Arbitrary.resolve_run(&w, t))
            .collect();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn single_writer_always_wins() {
        for p in [
            WritePolicy::Arbitrary,
            WritePolicy::PriorityMin,
            WritePolicy::CombineMin,
            WritePolicy::CombineMax,
            WritePolicy::CombineSum,
            WritePolicy::CombineOr,
        ] {
            assert_eq!(p.resolve_run(&run(&[(3, 42)]), 99), 42);
        }
    }

    #[test]
    fn combine_sum_wraps_instead_of_panicking() {
        let w = run(&[(0, i64::MAX), (1, 1)]);
        assert_eq!(WritePolicy::CombineSum.resolve_run(&w, 0), i64::MIN);
    }
}
