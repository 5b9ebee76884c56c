//! User classification (§3.3) and the retention scan order (§3.4).
//!
//! ActiveDR places every user into one cell of a 2×2 matrix according to
//! whether their operation and outcome ranks clear the `Φ ≥ 1` activity
//! threshold, then visits the cells from least to most protected:
//! both-inactive first, then outcome-active-only, then operation-active-only
//! and finally both-active. Within the first two groups users are ordered by
//! ascending `(Φ_op, Φ_oc)`; within the last two by ascending
//! `(Φ_oc, Φ_op)` ("in an ascending order of the outcome activeness").

#![allow(
    clippy::indexing_slicing,
    reason = "index sites here are counted and ratcheted by `cargo xtask check` (crates/xtask/panic-baseline.txt)"
)]

use crate::activeness::{ActivenessTable, UserActiveness};
use crate::convert;
use crate::user::UserId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One cell of the Fig. 4 classification matrix. `G(1)`..`G(4)` in Fig. 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Quadrant {
    /// Active on both axes (G1) — most protected.
    BothActive,
    /// Operation-active but outcome-inactive (G2).
    OperationActiveOnly,
    /// Outcome-active but operation-inactive (G3).
    OutcomeActiveOnly,
    /// Inactive on both axes (G4) — purged first.
    BothInactive,
}

impl Quadrant {
    /// All quadrants in the paper's presentation order (G1..G4).
    pub const ALL: [Quadrant; 4] = [
        Quadrant::BothActive,
        Quadrant::OperationActiveOnly,
        Quadrant::OutcomeActiveOnly,
        Quadrant::BothInactive,
    ];

    /// The §3.4 purge scan order: ascending protection.
    pub const SCAN_ORDER: [Quadrant; 4] = [
        Quadrant::BothInactive,
        Quadrant::OutcomeActiveOnly,
        Quadrant::OperationActiveOnly,
        Quadrant::BothActive,
    ];

    /// The matrix cell a rank pair falls in, per the `Φ ≥ 1` threshold.
    pub fn of(a: UserActiveness) -> Quadrant {
        match (a.op.is_active(), a.oc.is_active()) {
            (true, true) => Quadrant::BothActive,
            (true, false) => Quadrant::OperationActiveOnly,
            (false, true) => Quadrant::OutcomeActiveOnly,
            (false, false) => Quadrant::BothInactive,
        }
    }

    /// Human-readable quadrant name.
    pub fn name(self) -> &'static str {
        match self {
            Quadrant::BothActive => "Both Active",
            Quadrant::OperationActiveOnly => "Operation Active Only",
            Quadrant::OutcomeActiveOnly => "Outcome Active Only",
            Quadrant::BothInactive => "Both Inactive",
        }
    }

    /// Dense index (presentation order) for per-quadrant accumulators.
    pub fn index(self) -> usize {
        match self {
            Quadrant::BothActive => 0,
            Quadrant::OperationActiveOnly => 1,
            Quadrant::OutcomeActiveOnly => 2,
            Quadrant::BothInactive => 3,
        }
    }
}

impl fmt::Display for Quadrant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A user together with their evaluated ranks and quadrant — the unit of
/// the retention scan.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClassifiedUser {
    /// The classified user.
    pub user: UserId,
    /// The user's evaluated rank pair.
    pub activeness: UserActiveness,
    /// The matrix cell the rank pair falls in.
    pub quadrant: Quadrant,
}

/// The full population partitioned for the retention scan.
#[derive(Debug, Clone, Default)]
pub struct Classification {
    groups: [Vec<ClassifiedUser>; 4],
}

impl Classification {
    /// Classify every user in the table and sort each group into its §3.4
    /// intra-group scan order.
    pub fn from_table(table: &ActivenessTable) -> Classification {
        let mut groups: [Vec<ClassifiedUser>; 4] = Default::default();
        for (user, activeness) in table.iter() {
            let quadrant = Quadrant::of(activeness);
            groups[quadrant.index()].push(ClassifiedUser {
                user,
                activeness,
                quadrant,
            });
        }
        for q in Quadrant::ALL {
            let key_op_first = matches!(q, Quadrant::BothInactive | Quadrant::OutcomeActiveOnly);
            groups[q.index()].sort_by(|a, b| {
                let (a1, a2, b1, b2) = if key_op_first {
                    (
                        a.activeness.op,
                        a.activeness.oc,
                        b.activeness.op,
                        b.activeness.oc,
                    )
                } else {
                    (
                        a.activeness.oc,
                        a.activeness.op,
                        b.activeness.oc,
                        b.activeness.op,
                    )
                };
                a1.total_cmp(b1)
                    .then(a2.total_cmp(b2))
                    .then(a.user.cmp(&b.user)) // deterministic tie-break
            });
        }
        Classification { groups }
    }

    /// Users in one quadrant, in intra-group scan order.
    pub fn group(&self, q: Quadrant) -> &[ClassifiedUser] {
        &self.groups[q.index()]
    }

    /// All users in full §3.4 scan order (group by group).
    pub fn scan_order(&self) -> impl Iterator<Item = &ClassifiedUser> {
        Quadrant::SCAN_ORDER
            .into_iter()
            .flat_map(|q| self.group(q).iter())
    }

    /// Population size across all quadrants.
    pub fn total_users(&self) -> usize {
        self.groups.iter().map(Vec::len).sum()
    }

    /// Population share of each quadrant, in presentation order
    /// (the G(1)..G(4) percentages of Fig. 5).
    pub fn shares(&self) -> [f64; 4] {
        let total = convert::approx_f64_usize(self.total_users().max(1));
        let mut out = [0.0; 4];
        for q in Quadrant::ALL {
            out[q.index()] = convert::approx_f64_usize(self.group(q).len()) / total;
        }
        out
    }

    /// The quadrant `user` was classified into, if present.
    pub fn quadrant_of(&self, user: UserId) -> Option<Quadrant> {
        Quadrant::ALL
            .into_iter()
            .find(|&q| self.group(q).iter().any(|c| c.user == user))
    }
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "tests assert exact values produced by exact arithmetic"
)]
mod tests {
    use super::*;
    use crate::rank::Rank;

    fn act(op: f64, oc: f64) -> UserActiveness {
        UserActiveness::new(Rank::from_value(op), Rank::from_value(oc))
    }

    #[test]
    fn quadrant_threshold_is_phi_ge_one() {
        assert_eq!(Quadrant::of(act(1.0, 1.0)), Quadrant::BothActive);
        assert_eq!(Quadrant::of(act(2.0, 0.5)), Quadrant::OperationActiveOnly);
        assert_eq!(Quadrant::of(act(0.99, 3.0)), Quadrant::OutcomeActiveOnly);
        assert_eq!(Quadrant::of(act(0.0, 0.0)), Quadrant::BothInactive);
    }

    #[test]
    fn scan_order_is_ascending_protection() {
        assert_eq!(
            Quadrant::SCAN_ORDER,
            [
                Quadrant::BothInactive,
                Quadrant::OutcomeActiveOnly,
                Quadrant::OperationActiveOnly,
                Quadrant::BothActive,
            ]
        );
    }

    fn table(entries: &[(u32, f64, f64)]) -> ActivenessTable {
        entries
            .iter()
            .map(|(u, op, oc)| (UserId(*u), act(*op, *oc)))
            .collect()
    }

    #[test]
    fn classification_groups_and_sorts() {
        let t = table(&[
            (1, 5.0, 2.0), // both active
            (2, 3.0, 9.0), // both active, lower oc -> scanned first in group
            (3, 0.1, 0.2), // both inactive
            (4, 0.5, 0.1), // both inactive, higher op
            (5, 2.0, 0.0), // op only
            (6, 0.0, 4.0), // oc only
        ]);
        let c = Classification::from_table(&t);
        assert_eq!(c.total_users(), 6);
        assert_eq!(c.group(Quadrant::BothActive).len(), 2);
        // Both-active sorted ascending by (oc, op): u1 (oc 2) before u2 (oc 9).
        let ba: Vec<u32> = c
            .group(Quadrant::BothActive)
            .iter()
            .map(|x| x.user.0)
            .collect();
        assert_eq!(ba, vec![1, 2]);
        // Both-inactive sorted ascending by (op, oc): u3 (op .1) before u4 (op .5).
        let bi: Vec<u32> = c
            .group(Quadrant::BothInactive)
            .iter()
            .map(|x| x.user.0)
            .collect();
        assert_eq!(bi, vec![3, 4]);
        // Global scan order starts with both-inactive and ends with both-active.
        let order: Vec<u32> = c.scan_order().map(|x| x.user.0).collect();
        assert_eq!(order, vec![3, 4, 6, 5, 1, 2]);
    }

    #[test]
    fn shares_sum_to_one() {
        let t = table(&[(1, 2.0, 2.0), (2, 0.0, 0.0), (3, 0.0, 0.0), (4, 0.0, 0.0)]);
        let c = Classification::from_table(&t);
        let s = c.shares();
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((s[Quadrant::BothActive.index()] - 0.25).abs() < 1e-12);
        assert!((s[Quadrant::BothInactive.index()] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn shares_of_empty_population_are_zero() {
        let c = Classification::from_table(&ActivenessTable::new());
        assert_eq!(c.shares(), [0.0; 4]);
        assert_eq!(c.total_users(), 0);
    }

    #[test]
    fn quadrant_lookup() {
        let t = table(&[(7, 2.0, 2.0)]);
        let c = Classification::from_table(&t);
        assert_eq!(c.quadrant_of(UserId(7)), Some(Quadrant::BothActive));
        assert_eq!(c.quadrant_of(UserId(8)), None);
    }

    #[test]
    fn ties_break_by_user_id() {
        let t = table(&[(9, 0.5, 0.5), (3, 0.5, 0.5)]);
        let c = Classification::from_table(&t);
        let bi: Vec<u32> = c
            .group(Quadrant::BothInactive)
            .iter()
            .map(|x| x.user.0)
            .collect();
        assert_eq!(bi, vec![3, 9]);
    }

    #[test]
    fn neutral_rank_counts_as_active() {
        // §3.4: new users start at Φ = 1.0, which the Φ ≥ 1 rule classifies
        // as active — exactly the protection the paper intends for them.
        assert_eq!(Quadrant::of(UserActiveness::NEUTRAL), Quadrant::BothActive);
    }
}
