//! The unified activity measurement model (§3.2 of the paper).
//!
//! ActiveDR deliberately reduces every kind of user activity — job
//! submissions, shell logins, file accesses, data transfers, publications,
//! completed workflow tasks — to just two essential measures: the **time**
//! the activity occurred and its **impact** (a non-negative activeness
//! score). Administrators register *activity types*, tag each as an
//! operation or an outcome, and feed streams of `(time, impact)` events per
//! user; everything downstream (Eqs. 1-6) is type-agnostic.

#![allow(
    clippy::indexing_slicing,
    reason = "index sites here are counted and ratcheted by `cargo xtask check` (crates/xtask/panic-baseline.txt)"
)]

use crate::convert;
use crate::time::Timestamp;
use crate::user::UserId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The paper's two activity dimensions (§3.1): what users *do* on the system
/// versus what they *produce* by using it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ActivityClass {
    /// Activities performed on the system: job submission, shell login, file
    /// access, data transfer, ...
    Operation,
    /// Accomplishments achieved by using the system: completed jobs,
    /// generated datasets, publications, ...
    Outcome,
}

impl fmt::Display for ActivityClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ActivityClass::Operation => write!(f, "operation"),
            ActivityClass::Outcome => write!(f, "outcome"),
        }
    }
}

/// Identifier of a registered activity type (`λ` in the paper). Indexes into
/// an [`ActivityTypeRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct ActivityTypeId(pub u16);

impl ActivityTypeId {
    /// Dense index of this type for flat per-type vectors.
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

/// Static description of one activity type — its name, class and a weight
/// multiplier the administrator can use to tune relative impact
/// ("configured by system administrators ... with weights to quantitatively
/// measure the impact", §3.2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActivityTypeSpec {
    /// Unique administrator-chosen name (the registry lookup key).
    pub name: String,
    /// Whether the type counts as an operation or an outcome.
    pub class: ActivityClass,
    /// Impact multiplier applied to every event of this type. Must be
    /// positive; defaults to 1.0.
    pub weight: f64,
}

impl ActivityTypeSpec {
    /// A spec with the given name and class, at weight 1.0.
    pub fn new(name: impl Into<String>, class: ActivityClass) -> Self {
        ActivityTypeSpec {
            name: name.into(),
            class,
            weight: 1.0,
        }
    }

    /// Set the impact weight used when aggregating this type's events.
    ///
    /// # Panics
    /// Panics unless `weight` is positive and finite.
    pub fn with_weight(mut self, weight: f64) -> Self {
        assert!(
            weight > 0.0 && weight.is_finite(),
            "weight must be positive and finite"
        );
        self.weight = weight;
        self
    }
}

/// The one-time administrator configuration of §3.2: which activity types
/// exist and how they are weighted. Type ids are dense indices in
/// registration order.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ActivityTypeRegistry {
    types: Vec<ActivityTypeSpec>,
}

impl ActivityTypeRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The registry used throughout the paper's evaluation: job submissions
    /// (impact = core-hours) as the operation type and publications
    /// (impact = (c+1)·(n−i+1), Eq. 8) as the outcome type.
    pub fn paper_default() -> Self {
        let mut r = Self::new();
        r.register(ActivityTypeSpec::new(
            "job_submission",
            ActivityClass::Operation,
        ));
        r.register(ActivityTypeSpec::new("publication", ActivityClass::Outcome));
        r
    }

    /// A richer registry exercising the full Table 2 spectrum.
    pub fn extended() -> Self {
        let mut r = Self::new();
        r.register(ActivityTypeSpec::new(
            "job_submission",
            ActivityClass::Operation,
        ));
        r.register(ActivityTypeSpec::new(
            "shell_login",
            ActivityClass::Operation,
        ));
        r.register(ActivityTypeSpec::new(
            "file_access",
            ActivityClass::Operation,
        ));
        r.register(ActivityTypeSpec::new(
            "data_transfer",
            ActivityClass::Operation,
        ));
        r.register(ActivityTypeSpec::new(
            "job_completion",
            ActivityClass::Outcome,
        ));
        r.register(ActivityTypeSpec::new(
            "dataset_generated",
            ActivityClass::Outcome,
        ));
        r.register(ActivityTypeSpec::new("publication", ActivityClass::Outcome));
        r
    }

    /// Register a new activity type, returning its id.
    ///
    /// # Panics
    /// Panics if the id space (`u16`) is exhausted or the name is already
    /// registered.
    pub fn register(&mut self, spec: ActivityTypeSpec) -> ActivityTypeId {
        assert!(
            self.types.len() < usize::from(u16::MAX),
            "too many activity types"
        );
        assert!(
            self.lookup(&spec.name).is_none(),
            "duplicate activity type name: {}",
            spec.name
        );
        let id = ActivityTypeId(convert::u16_from_usize(self.types.len()));
        self.types.push(spec);
        id
    }

    /// Number of registered types.
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// Whether no type is registered.
    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }

    /// The spec registered under `id`.
    pub fn spec(&self, id: ActivityTypeId) -> &ActivityTypeSpec {
        &self.types[id.index()]
    }

    /// Look up a type id by name.
    pub fn lookup(&self, name: &str) -> Option<ActivityTypeId> {
        self.types
            .iter()
            .position(|t| t.name == name)
            .map(|i| ActivityTypeId(convert::u16_from_usize(i)))
    }

    /// All registered types with their ids, in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (ActivityTypeId, &ActivityTypeSpec)> {
        self.types
            .iter()
            .enumerate()
            .map(|(i, s)| (ActivityTypeId(convert::u16_from_usize(i)), s))
    }

    /// Ids of all types of the given class.
    pub fn of_class(&self, class: ActivityClass) -> Vec<ActivityTypeId> {
        self.iter()
            .filter(|(_, s)| s.class == class)
            .map(|(id, _)| id)
            .collect()
    }
}

/// One activity occurrence `a_x`: the paper's essential pair (time, impact),
/// plus the performing user and the activity type.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ActivityEvent {
    /// The performing user.
    pub user: UserId,
    /// The registered activity type.
    pub kind: ActivityTypeId,
    /// When the activity occurred.
    pub ts: Timestamp,
    /// Raw impact `D_{a_x}` *before* the type weight is applied. Must be
    /// non-negative and finite.
    pub impact: f64,
}

impl ActivityEvent {
    /// An event carrying the raw (pre-weight) impact `D_{a_x}`.
    pub fn new(user: UserId, kind: ActivityTypeId, ts: Timestamp, impact: f64) -> Self {
        debug_assert!(
            impact >= 0.0 && impact.is_finite(),
            "impact must be non-negative"
        );
        ActivityEvent {
            user,
            kind,
            ts,
            impact,
        }
    }

    /// Impact after the registry weight for this event's type is applied.
    pub fn weighted_impact(&self, registry: &ActivityTypeRegistry) -> f64 {
        self.impact * registry.spec(self.kind).weight
    }
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "tests assert exact values produced by exact arithmetic"
)]
mod tests {
    use super::*;

    #[test]
    fn registry_registration_and_lookup() {
        let mut r = ActivityTypeRegistry::new();
        assert!(r.is_empty());
        let job = r.register(ActivityTypeSpec::new("job", ActivityClass::Operation));
        let pubs =
            r.register(ActivityTypeSpec::new("pub", ActivityClass::Outcome).with_weight(2.0));
        assert_eq!(r.len(), 2);
        assert_eq!(r.lookup("job"), Some(job));
        assert_eq!(r.lookup("pub"), Some(pubs));
        assert_eq!(r.lookup("nope"), None);
        assert_eq!(r.spec(pubs).weight, 2.0);
        assert_eq!(r.of_class(ActivityClass::Operation), vec![job]);
        assert_eq!(r.of_class(ActivityClass::Outcome), vec![pubs]);
    }

    #[test]
    #[should_panic(expected = "duplicate activity type name")]
    fn duplicate_names_rejected() {
        let mut r = ActivityTypeRegistry::new();
        r.register(ActivityTypeSpec::new("job", ActivityClass::Operation));
        r.register(ActivityTypeSpec::new("job", ActivityClass::Outcome));
    }

    #[test]
    #[should_panic(expected = "weight must be positive")]
    fn nonpositive_weight_rejected() {
        let _ = ActivityTypeSpec::new("x", ActivityClass::Operation).with_weight(0.0);
    }

    #[test]
    fn paper_default_has_job_and_publication() {
        let r = ActivityTypeRegistry::paper_default();
        assert_eq!(r.len(), 2);
        assert_eq!(
            r.spec(r.lookup("job_submission").unwrap()).class,
            ActivityClass::Operation
        );
        assert_eq!(
            r.spec(r.lookup("publication").unwrap()).class,
            ActivityClass::Outcome
        );
    }

    #[test]
    fn extended_registry_covers_both_classes() {
        let r = ActivityTypeRegistry::extended();
        assert_eq!(r.of_class(ActivityClass::Operation).len(), 4);
        assert_eq!(r.of_class(ActivityClass::Outcome).len(), 3);
    }

    #[test]
    fn weighted_impact_applies_registry_weight() {
        let mut r = ActivityTypeRegistry::new();
        let t = r.register(ActivityTypeSpec::new("x", ActivityClass::Operation).with_weight(3.0));
        let e = ActivityEvent::new(UserId(0), t, Timestamp::EPOCH, 2.0);
        assert_eq!(e.weighted_impact(&r), 6.0);
    }
}
