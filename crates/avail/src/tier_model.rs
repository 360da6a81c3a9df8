//! The tier availability model of the paper's §4.2.

use aved_units::{Duration, Rate};
use serde::{Deserialize, Serialize};

use crate::engine_ctmc::MAX_CLASSES;
use crate::AvailError;

/// One failure class: a (component, failure mode) pair of the tier's
/// resource type, with fully-derived timing attributes.
///
/// * `rate` — failures per unit time *per exposed resource* (`1/MTBF`);
/// * `mttr` — detection time + component repair time + sequential restart
///   of the failed component and its dependents;
/// * `failover_time` — detection time + resource reconfiguration time +
///   startup of the spare's inactive components;
/// * `uses_failover` — per the paper, failover is only considered when the
///   MTTR exceeds the failover time (and the design has spares).
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct FailureClass {
    label: String,
    rate: Rate,
    mttr: Duration,
    failover_time: Duration,
    uses_failover: bool,
}

/// `clone_from` reuses the label's buffer, so overwriting a stored
/// single-class model (`TierModel::assign_single_class`) allocates nothing
/// once the buffer fits.
impl Clone for FailureClass {
    fn clone(&self) -> FailureClass {
        FailureClass {
            label: self.label.clone(),
            ..*self
        }
    }

    fn clone_from(&mut self, source: &FailureClass) {
        self.label.clone_from(&source.label);
        self.rate = source.rate;
        self.mttr = source.mttr;
        self.failover_time = source.failover_time;
        self.uses_failover = source.uses_failover;
    }
}

impl FailureClass {
    /// Creates a failure class.
    ///
    /// # Panics
    ///
    /// Panics if the rate is zero/infinite or the label is empty.
    pub fn new<L: Into<String>>(
        label: L,
        rate: Rate,
        mttr: Duration,
        failover_time: Duration,
        uses_failover: bool,
    ) -> FailureClass {
        let label = label.into();
        assert!(!label.is_empty(), "failure class label must not be empty");
        assert!(
            !rate.is_zero() && rate.is_finite(),
            "failure rate must be positive and finite"
        );
        FailureClass {
            label,
            rate,
            mttr,
            failover_time,
            uses_failover,
        }
    }

    /// A human-readable label (`machineA/hard`).
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Per-resource failure rate.
    #[must_use]
    pub fn rate(&self) -> Rate {
        self.rate
    }

    /// Full mean time to repair.
    #[must_use]
    pub fn mttr(&self) -> Duration {
        self.mttr
    }

    /// Failover duration when a spare takes over.
    #[must_use]
    pub fn failover_time(&self) -> Duration {
        self.failover_time
    }

    /// Whether failover applies to this class.
    #[must_use]
    pub fn uses_failover(&self) -> bool {
        self.uses_failover
    }
}

/// The availability model of one tier (paper §4.2's parameter list).
///
/// # Examples
///
/// ```
/// use aved_avail::{TierModel, FailureClass};
/// use aved_units::{Duration, Rate};
///
/// let model = TierModel::new(2, 2, 1)
///     .with_class(FailureClass::new(
///         "machine/hard",
///         Duration::from_days(650.0).rate(),
///         Duration::from_hours(38.0),
///         Duration::from_mins(5.0),
///         true,
///     ));
/// model.check()?;
/// # Ok::<(), aved_avail::AvailError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TierModel {
    n: u32,
    m: u32,
    s: u32,
    spares_exposed: bool,
    classes: Vec<FailureClass>,
}

impl TierModel {
    /// Creates a tier model with `n` active resources, `m` minimum active
    /// for the tier to be up, and `s` spares. Classes start empty; add
    /// them with [`with_class`](Self::with_class).
    #[must_use]
    pub fn new(n: u32, m: u32, s: u32) -> TierModel {
        TierModel {
            n,
            m,
            s,
            spares_exposed: false,
            classes: Vec::new(),
        }
    }

    /// Adds a failure class.
    #[must_use]
    pub fn with_class(mut self, class: FailureClass) -> TierModel {
        self.classes.push(class);
        self
    }

    /// Marks spares as failure-exposed (hot spares running all components).
    ///
    /// Inactive spares are powered off and assumed not to fail; hot spares
    /// fail at the same per-resource rates as active resources.
    #[must_use]
    pub fn with_exposed_spares(mut self, exposed: bool) -> TierModel {
        self.spares_exposed = exposed;
        self
    }

    /// Number of active resources.
    #[must_use]
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Minimum active resources for the tier to be up.
    #[must_use]
    pub fn m(&self) -> u32 {
        self.m
    }

    /// Number of spares.
    #[must_use]
    pub fn s(&self) -> u32 {
        self.s
    }

    /// Total resources (`n + s`).
    #[must_use]
    pub fn n_total(&self) -> u32 {
        self.n + self.s
    }

    /// Whether spares are failure-exposed.
    #[must_use]
    pub fn spares_exposed(&self) -> bool {
        self.spares_exposed
    }

    /// The failure classes.
    #[must_use]
    pub fn classes(&self) -> &[FailureClass] {
        &self.classes
    }

    /// The aggregate failure rate of a single resource (sum over classes).
    #[must_use]
    pub fn per_resource_failure_rate(&self) -> Rate {
        self.classes.iter().map(FailureClass::rate).sum()
    }

    /// The aggregate failure rate across all `n` active resources — the
    /// rate at which *some* active resource fails. For `failurescope=tier`
    /// applications this is the rate of work-loss events the job-completion
    /// model needs.
    #[must_use]
    pub fn tier_failure_rate(&self) -> Rate {
        self.per_resource_failure_rate() * f64::from(self.n)
    }

    /// Turns `self` into the single-class model of `class` under `tier`'s
    /// resource counts and spare exposure, overwriting in place: once the
    /// label's buffer has grown to fit, this allocates nothing.
    pub(crate) fn assign_single_class(&mut self, tier: &TierModel, class: &FailureClass) {
        self.n = tier.n;
        self.m = tier.m;
        self.s = tier.s;
        self.spares_exposed = tier.spares_exposed;
        self.classes.truncate(1);
        match self.classes.first_mut() {
            Some(only) => only.clone_from(class),
            None => self.classes.push(class.clone()),
        }
    }

    /// Validates the model parameters.
    ///
    /// # Errors
    ///
    /// Returns [`AvailError::InvalidModel`] when `m == 0`, `m > n`, no
    /// failure classes are present, more than 256 are (the exact chain
    /// indexes classes with a byte), or a class that uses failover exists
    /// in a spare-less model.
    pub fn check(&self) -> Result<(), AvailError> {
        if self.m == 0 {
            return Err(AvailError::InvalidModel {
                detail: "m must be at least 1".into(),
            });
        }
        if self.m > self.n {
            return Err(AvailError::InvalidModel {
                detail: format!("m={} exceeds n={}", self.m, self.n),
            });
        }
        if self.classes.is_empty() {
            return Err(AvailError::InvalidModel {
                detail: "tier model has no failure classes".into(),
            });
        }
        if self.classes.len() > MAX_CLASSES {
            return Err(AvailError::InvalidModel {
                detail: format!(
                    "tier model has {} failure classes; at most {MAX_CLASSES} are supported",
                    self.classes.len()
                ),
            });
        }
        if self.s == 0 && self.classes.iter().any(FailureClass::uses_failover) {
            return Err(AvailError::InvalidModel {
                detail: "a failure class uses failover but the design has no spares".into(),
            });
        }
        for c in &self.classes {
            if c.uses_failover() && c.failover_time().is_zero() {
                return Err(AvailError::InvalidModel {
                    detail: format!("class {} uses failover with zero failover time", c.label()),
                });
            }
            if c.mttr().is_zero() {
                return Err(AvailError::InvalidModel {
                    detail: format!(
                        "class {} has zero MTTR; drop no-op classes before evaluation",
                        c.label()
                    ),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn class(label: &str, mtbf_days: f64, mttr_hours: f64) -> FailureClass {
        FailureClass::new(
            label,
            Duration::from_days(mtbf_days).rate(),
            Duration::from_hours(mttr_hours),
            Duration::from_mins(5.0),
            false,
        )
    }

    #[test]
    fn accessors_and_rates() {
        let model = TierModel::new(4, 2, 1)
            .with_class(class("a", 100.0, 1.0))
            .with_class(class("b", 50.0, 2.0));
        assert_eq!(model.n(), 4);
        assert_eq!(model.m(), 2);
        assert_eq!(model.s(), 1);
        assert_eq!(model.n_total(), 5);
        assert!(!model.spares_exposed());
        assert_eq!(model.classes().len(), 2);
        let per = model.per_resource_failure_rate();
        assert!((per.per_hour_value() - (1.0 / 2400.0 + 1.0 / 1200.0)).abs() < 1e-12);
        assert!(
            (model.tier_failure_rate().per_hour_value() - 4.0 * per.per_hour_value()).abs() < 1e-15
        );
        model.check().unwrap();
    }

    #[test]
    fn check_rejects_m_zero_and_m_above_n() {
        assert!(TierModel::new(2, 0, 0)
            .with_class(class("a", 1.0, 1.0))
            .check()
            .is_err());
        assert!(TierModel::new(2, 3, 0)
            .with_class(class("a", 1.0, 1.0))
            .check()
            .is_err());
    }

    #[test]
    fn check_rejects_empty_classes() {
        assert!(TierModel::new(2, 1, 0).check().is_err());
    }

    #[test]
    fn check_rejects_more_classes_than_a_byte_can_index() {
        let with_classes = |k: usize| {
            (0..k).fold(TierModel::new(2, 1, 1), |m, i| {
                m.with_class(class(&format!("c{i}"), 1.0, 1.0))
            })
        };
        assert!(with_classes(256).check().is_ok());
        let err = with_classes(257).check().unwrap_err();
        assert!(err.to_string().contains("257 failure classes"), "{err}");
    }

    #[test]
    fn check_rejects_failover_without_spares() {
        let m = TierModel::new(2, 2, 0).with_class(FailureClass::new(
            "hw/hard",
            Duration::from_days(650.0).rate(),
            Duration::from_hours(38.0),
            Duration::from_mins(5.0),
            true,
        ));
        assert!(m.check().is_err());
    }

    #[test]
    fn check_rejects_zero_mttr_class() {
        let m = TierModel::new(1, 1, 0).with_class(FailureClass::new(
            "x",
            Duration::from_days(1.0).rate(),
            Duration::ZERO,
            Duration::ZERO,
            false,
        ));
        assert!(m.check().is_err());
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn zero_rate_class_panics() {
        let _ = FailureClass::new(
            "x",
            Rate::ZERO,
            Duration::from_hours(1.0),
            Duration::ZERO,
            false,
        );
    }

    #[test]
    fn exposed_spares_flag() {
        let m = TierModel::new(1, 1, 1)
            .with_class(class("a", 1.0, 1.0))
            .with_exposed_spares(true);
        assert!(m.spares_exposed());
    }
}
