//! Configuration knobs shared by the wheel schemes.

use alloc::vec;
use alloc::vec::Vec;

use crate::observe::{NoopObserver, Observed, Observer};
use crate::time::TickDelta;
use crate::wheel::hierarchical::InsertRule;
use crate::TimerError;

/// What a bounded-range wheel does with an interval beyond its range.
///
/// §5 notes that memory is finite ("it is difficult to justify 2³² words of
/// memory to implement 32 bit timers") and sketches the options implemented
/// here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// Fail `start_timer` with [`TimerError::IntervalOutOfRange`].
    #[default]
    Reject,
    /// Park the timer on a single unsorted overflow list (the Figure 7 logic
    /// simulation approach); it is re-examined each time the wheel's cursor
    /// completes a revolution and admitted once in range.
    OverflowList,
    /// Clamp the interval to the wheel's maximum (the timer fires early; the
    /// client is expected to re-arm — a common kernel tactic).
    Cap,
}

impl OverflowPolicy {
    /// Applies the policy to an out-of-range interval.
    ///
    /// Returns `Ok(Some(clamped))` for `Cap`, `Ok(None)` for `OverflowList`
    /// (caller parks the timer) and `Err` for `Reject`.
    pub fn apply(self, max: TickDelta) -> Result<Option<TickDelta>, TimerError> {
        match self {
            OverflowPolicy::Reject => Err(TimerError::IntervalOutOfRange { max }),
            OverflowPolicy::OverflowList => Ok(None),
            OverflowPolicy::Cap => Ok(Some(max)),
        }
    }
}

/// How a hierarchical wheel (Scheme 7) moves timers between levels (§6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MigrationPolicy {
    /// Migrate a timer down one level each time its slot is reached, until it
    /// fires from the finest level at its exact deadline (the scheme as
    /// described in the body of §6.2).
    #[default]
    Full,
    /// Never migrate: fire the timer the first time its insertion-level slot
    /// is reached (Wick Nichols' variant). Trades precision — up to one slot
    /// of the insertion level, i.e. up to 50% of the interval rounded — for
    /// strictly less `PER_TICK_BOOKKEEPING` work.
    None,
    /// Migrate at most once, to the adjacent finer level, then fire (the
    /// "improve the precision by allowing just one migration" variant).
    Single,
}

/// Number of slots per level for a hierarchical wheel, finest level first.
///
/// The granularity of level `i` is the product of the sizes of all finer
/// levels (level 0 has granularity 1 tick). The paper's §6.2 example —
/// seconds/minutes/hours/days — is [`LevelSizes::clock`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelSizes(pub Vec<u64>);

impl LevelSizes {
    /// The paper's worked example: 60 seconds, 60 minutes, 24 hours,
    /// 100 days — 244 slots spanning 8.64 million ticks.
    #[must_use]
    pub fn clock() -> LevelSizes {
        LevelSizes(vec![60, 60, 24, 100])
    }

    /// Four levels of 256 slots — 1024 slots spanning 2³² ticks, the "32 bit
    /// timer" sizing of §6.2 with power-of-two radices (cheap AND indexing).
    #[must_use]
    pub fn pow2_32bit() -> LevelSizes {
        LevelSizes(vec![256, 256, 256, 256])
    }

    /// Total number of slots across all levels (the paper's "244 locations"
    /// comparison).
    #[must_use]
    pub fn total_slots(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Total range in ticks (product of level sizes), saturating at
    /// `u64::MAX`.
    #[must_use]
    pub fn range(&self) -> u64 {
        self.0
            .iter()
            .try_fold(1u64, |acc, &n| acc.checked_mul(n))
            .unwrap_or(u64::MAX)
    }

    /// Validates the configuration: at least one level, every size ≥ 2,
    /// at most 16 levels.
    ///
    /// # Errors
    ///
    /// [`TimerError::InvalidConfig`] naming the violated constraint. This
    /// is the [`WheelConfig`] validation path; the panicking
    /// [`validate`](LevelSizes::validate) wraps it for the legacy
    /// constructors.
    pub fn try_validate(&self) -> Result<(), TimerError> {
        if self.0.is_empty() {
            return Err(TimerError::InvalidConfig {
                reason: "hierarchy needs at least one level",
            });
        }
        if !self.0.iter().all(|&n| n >= 2) {
            return Err(TimerError::InvalidConfig {
                reason: "every level needs at least 2 slots",
            });
        }
        if self.0.len() > 16 {
            return Err(TimerError::InvalidConfig {
                reason: "more than 16 levels is never useful (2^16 range per 2-slot level)",
            });
        }
        Ok(())
    }

    /// Panicking form of [`try_validate`](LevelSizes::try_validate).
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration (construction-time misuse).
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }
}

/// One builder for every wheel scheme, replacing the per-wheel ad-hoc
/// constructors (and their panics) with validated construction.
///
/// Set the knobs that apply to the scheme you build — `slots` for the flat
/// wheels (Schemes 4–6 and the hybrid), `granularities` for the
/// hierarchies (Scheme 7 and the clockwork variant) — then call the
/// `build_*` method for the scheme, or `TryFrom` for an unobserved wheel.
/// Knobs a scheme has no use for are ignored (a hashed wheel has unbounded
/// range, so `max_interval`/`overflow` never trigger there); invalid knobs
/// return [`TimerError::InvalidConfig`] instead of panicking.
///
/// An [`Observer`] can be attached with [`observer`](WheelConfig::observer);
/// the `build_*` methods then return the wheel wrapped in
/// [`Observed`]. The default [`NoopObserver`] compiles the hooks away.
///
/// # Examples
///
/// ```
/// use tw_core::wheel::{HierarchicalWheel, LevelSizes, MigrationPolicy, WheelConfig};
/// use tw_core::{TickDelta, TimerError};
///
/// // Validated: an empty hierarchy is an error, not a panic.
/// let bad = WheelConfig::new().granularities(LevelSizes(vec![]));
/// assert!(matches!(
///     HierarchicalWheel::<u32>::try_from(bad),
///     Err(TimerError::InvalidConfig { .. })
/// ));
///
/// let mut wheel = WheelConfig::new()
///     .granularities(LevelSizes::clock())
///     .migration(MigrationPolicy::Full)
///     .build_hierarchical::<&str>()
///     .unwrap();
/// use tw_core::{TimerScheme, TimerSchemeExt};
/// wheel.start_timer(TickDelta(90), "level 1").unwrap();
/// assert_eq!(wheel.collect_ticks(90).len(), 1);
/// ```
#[derive(Clone)]
pub struct WheelConfig<O: Observer = NoopObserver> {
    slots: Option<usize>,
    granularities: Option<LevelSizes>,
    max_interval: Option<TickDelta>,
    overflow: OverflowPolicy,
    migration: MigrationPolicy,
    insert_rule: InsertRule,
    observer: O,
}

impl WheelConfig<NoopObserver> {
    /// An empty configuration with default policies and no observer.
    #[must_use]
    pub fn new() -> WheelConfig<NoopObserver> {
        WheelConfig {
            slots: None,
            granularities: None,
            max_interval: None,
            overflow: OverflowPolicy::default(),
            migration: MigrationPolicy::default(),
            insert_rule: InsertRule::default(),
            observer: NoopObserver,
        }
    }
}

impl Default for WheelConfig<NoopObserver> {
    fn default() -> Self {
        WheelConfig::new()
    }
}

impl<O: Observer> WheelConfig<O> {
    /// Slot count for the flat wheels: Scheme 4's `MaxInterval` array, the
    /// hashed wheels' table size, the hybrid's near window.
    #[must_use]
    pub fn slots(mut self, slots: usize) -> Self {
        self.slots = Some(slots);
        self
    }

    /// Level sizes (finest first) for the hierarchical schemes.
    #[must_use]
    pub fn granularities(mut self, sizes: LevelSizes) -> Self {
        self.granularities = Some(sizes);
        self
    }

    /// The largest interval the client will ever submit. For bounded-range
    /// schemes under [`OverflowPolicy::Reject`], building fails unless the
    /// wheel's range covers it; for a basic wheel with no explicit `slots`,
    /// it also sizes the slot array.
    #[must_use]
    pub fn max_interval(mut self, max: TickDelta) -> Self {
        self.max_interval = Some(max);
        self
    }

    /// Out-of-range handling for the bounded-range schemes.
    #[must_use]
    pub fn overflow(mut self, policy: OverflowPolicy) -> Self {
        self.overflow = policy;
        self
    }

    /// Level-migration policy for the hierarchical wheel (§6.2).
    #[must_use]
    pub fn migration(mut self, policy: MigrationPolicy) -> Self {
        self.migration = policy;
        self
    }

    /// Insertion-level rule for the hierarchical wheel.
    #[must_use]
    pub fn insert_rule(mut self, rule: InsertRule) -> Self {
        self.insert_rule = rule;
        self
    }

    /// Attaches an observer; the `build_*` methods will wrap the wheel in
    /// [`Observed`] reporting to it.
    #[must_use]
    pub fn observer<O2: Observer>(self, observer: O2) -> WheelConfig<O2> {
        WheelConfig {
            slots: self.slots,
            granularities: self.granularities,
            max_interval: self.max_interval,
            overflow: self.overflow,
            migration: self.migration,
            insert_rule: self.insert_rule,
            observer,
        }
    }

    /// Flat-wheel slot count: `slots`, or `max_interval` for the basic
    /// wheel (whose slot array *is* its range).
    fn flat_slots(&self, missing: &'static str) -> Result<usize, TimerError> {
        let n = match (self.slots, self.max_interval) {
            (Some(n), _) => n,
            (None, Some(max)) => {
                usize::try_from(max.as_u64()).map_err(|_| TimerError::InvalidConfig {
                    reason: "max_interval exceeds the address space",
                })?
            }
            (None, None) => return Err(TimerError::InvalidConfig { reason: missing }),
        };
        if n == 0 {
            return Err(TimerError::InvalidConfig {
                reason: "wheel needs at least one slot",
            });
        }
        Ok(n)
    }

    /// Checks a bounded range against the requested `max_interval` under
    /// the `Reject` policy (the other policies absorb out-of-range starts).
    fn check_range(&self, range: TickDelta) -> Result<(), TimerError> {
        if self.overflow == OverflowPolicy::Reject {
            if let Some(max) = self.max_interval {
                if max > range {
                    return Err(TimerError::InvalidConfig {
                        reason:
                            "max_interval exceeds the scheme's range under OverflowPolicy::Reject",
                    });
                }
            }
        }
        Ok(())
    }

    fn make_basic<T>(&self) -> Result<super::BasicWheel<T>, TimerError> {
        let n = self.flat_slots("a basic wheel needs `slots` or `max_interval`")?;
        let wheel = super::BasicWheel::build(n, self.overflow);
        self.check_range(wheel.max_interval())?;
        Ok(wheel)
    }

    fn make_hashed_sorted<T>(&self) -> Result<super::HashedWheelSorted<T>, TimerError> {
        let n = self.flat_slots("a hashed wheel needs `slots` (its table size)")?;
        Ok(super::HashedWheelSorted::new(n))
    }

    fn make_hashed_unsorted<T>(&self) -> Result<super::HashedWheelUnsorted<T>, TimerError> {
        let n = self.flat_slots("a hashed wheel needs `slots` (its table size)")?;
        Ok(super::HashedWheelUnsorted::new(n))
    }

    fn make_hybrid<T>(&self) -> Result<super::HybridWheel<T>, TimerError> {
        let n = self.flat_slots("a hybrid wheel needs `slots` (its near window)")?;
        Ok(super::HybridWheel::new(n))
    }

    fn make_hierarchical<T>(&self) -> Result<super::HierarchicalWheel<T>, TimerError> {
        let sizes = self
            .granularities
            .clone()
            .ok_or(TimerError::InvalidConfig {
                reason: "a hierarchical wheel needs `granularities`",
            })?;
        sizes.try_validate()?;
        let wheel =
            super::HierarchicalWheel::build(sizes, self.insert_rule, self.migration, self.overflow);
        self.check_range(wheel.max_interval())?;
        Ok(wheel)
    }

    fn make_lawn<T>(&self) -> Result<super::LawnWheel<T>, TimerError> {
        // One bucket per representable TTL: `max_interval` is the natural
        // knob (the lawn has no hash table, so `slots` means nothing here).
        let max = self.max_interval.ok_or(TimerError::InvalidConfig {
            reason: "a lawn needs `max_interval` (one bucket per distinct TTL)",
        })?;
        let n = usize::try_from(max.as_u64()).map_err(|_| TimerError::InvalidConfig {
            reason: "max_interval exceeds the address space",
        })?;
        if n == 0 {
            return Err(TimerError::InvalidConfig {
                reason: "wheel needs at least one slot",
            });
        }
        if self.overflow == OverflowPolicy::OverflowList {
            return Err(TimerError::InvalidConfig {
                reason: "the lawn has no overflow list; use Reject or Cap",
            });
        }
        Ok(super::LawnWheel::build(n, self.overflow))
    }

    fn make_clockwork<T>(&self) -> Result<super::ClockworkWheel<T>, TimerError> {
        let sizes = self
            .granularities
            .clone()
            .ok_or(TimerError::InvalidConfig {
                reason: "a clockwork wheel needs `granularities`",
            })?;
        sizes.try_validate()?;
        self.check_range(TickDelta(sizes.range().saturating_sub(1)))?;
        Ok(super::ClockworkWheel::new(sizes))
    }

    /// Builds Scheme 4 (basic wheel) under this configuration.
    ///
    /// # Errors
    ///
    /// [`TimerError::InvalidConfig`] when neither `slots` nor
    /// `max_interval` is set, the slot count is zero, or `max_interval`
    /// exceeds the one-revolution range under `Reject`.
    pub fn build_basic<T>(self) -> Result<Observed<super::BasicWheel<T>, O>, TimerError> {
        let wheel = self.make_basic()?;
        Ok(Observed::new(wheel, self.observer))
    }

    /// Builds Scheme 5 (hashed wheel, sorted buckets).
    ///
    /// # Errors
    ///
    /// [`TimerError::InvalidConfig`] when `slots` is missing or zero.
    pub fn build_hashed_sorted<T>(
        self,
    ) -> Result<Observed<super::HashedWheelSorted<T>, O>, TimerError> {
        let wheel = self.make_hashed_sorted()?;
        Ok(Observed::new(wheel, self.observer))
    }

    /// Builds Scheme 6 (hashed wheel, unsorted buckets).
    ///
    /// # Errors
    ///
    /// [`TimerError::InvalidConfig`] when `slots` is missing or zero.
    pub fn build_hashed_unsorted<T>(
        self,
    ) -> Result<Observed<super::HashedWheelUnsorted<T>, O>, TimerError> {
        let wheel = self.make_hashed_unsorted()?;
        Ok(Observed::new(wheel, self.observer))
    }

    /// Builds the §5 hybrid (bounded wheel + ordered overflow list).
    ///
    /// # Errors
    ///
    /// [`TimerError::InvalidConfig`] when `slots` is missing or zero.
    pub fn build_hybrid<T>(self) -> Result<Observed<super::HybridWheel<T>, O>, TimerError> {
        let wheel = self.make_hybrid()?;
        Ok(Observed::new(wheel, self.observer))
    }

    /// Builds Scheme 7 (hierarchical wheel) under this configuration.
    ///
    /// # Errors
    ///
    /// [`TimerError::InvalidConfig`] when `granularities` is missing or
    /// invalid, or `max_interval` exceeds the hierarchy's range under
    /// `Reject`.
    pub fn build_hierarchical<T>(
        self,
    ) -> Result<Observed<super::HierarchicalWheel<T>, O>, TimerError> {
        let wheel = self.make_hierarchical()?;
        Ok(Observed::new(wheel, self.observer))
    }

    /// Builds the clockwork (literal per-level update timers) variant of
    /// Scheme 7.
    ///
    /// # Errors
    ///
    /// Same conditions as [`build_hierarchical`](Self::build_hierarchical).
    pub fn build_clockwork<T>(self) -> Result<Observed<super::ClockworkWheel<T>, O>, TimerError> {
        let wheel = self.make_clockwork()?;
        Ok(Observed::new(wheel, self.observer))
    }

    /// Builds Scheme 8 (the Lawn: per-TTL append-ordered buckets).
    ///
    /// # Errors
    ///
    /// [`TimerError::InvalidConfig`] when `max_interval` is missing or
    /// zero, or the overflow policy is `OverflowList` (the lawn has no
    /// overflow list — use `Reject` or `Cap`).
    pub fn build_lawn<T>(self) -> Result<Observed<super::LawnWheel<T>, O>, TimerError> {
        let wheel = self.make_lawn()?;
        Ok(Observed::new(wheel, self.observer))
    }
}

impl<T> TryFrom<WheelConfig> for super::BasicWheel<T> {
    type Error = TimerError;
    fn try_from(cfg: WheelConfig) -> Result<Self, TimerError> {
        cfg.make_basic()
    }
}

impl<T> TryFrom<WheelConfig> for super::HashedWheelSorted<T> {
    type Error = TimerError;
    fn try_from(cfg: WheelConfig) -> Result<Self, TimerError> {
        cfg.make_hashed_sorted()
    }
}

impl<T> TryFrom<WheelConfig> for super::HashedWheelUnsorted<T> {
    type Error = TimerError;
    fn try_from(cfg: WheelConfig) -> Result<Self, TimerError> {
        cfg.make_hashed_unsorted()
    }
}

impl<T> TryFrom<WheelConfig> for super::HybridWheel<T> {
    type Error = TimerError;
    fn try_from(cfg: WheelConfig) -> Result<Self, TimerError> {
        cfg.make_hybrid()
    }
}

impl<T> TryFrom<WheelConfig> for super::HierarchicalWheel<T> {
    type Error = TimerError;
    fn try_from(cfg: WheelConfig) -> Result<Self, TimerError> {
        cfg.make_hierarchical()
    }
}

impl<T> TryFrom<WheelConfig> for super::ClockworkWheel<T> {
    type Error = TimerError;
    fn try_from(cfg: WheelConfig) -> Result<Self, TimerError> {
        cfg.make_clockwork()
    }
}

impl<T> TryFrom<WheelConfig> for super::LawnWheel<T> {
    type Error = TimerError;
    fn try_from(cfg: WheelConfig) -> Result<Self, TimerError> {
        cfg.make_lawn()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overflow_policy_apply() {
        let max = TickDelta(100);
        assert_eq!(
            OverflowPolicy::Reject.apply(max),
            Err(TimerError::IntervalOutOfRange { max })
        );
        assert_eq!(OverflowPolicy::OverflowList.apply(max), Ok(None));
        assert_eq!(OverflowPolicy::Cap.apply(max), Ok(Some(max)));
    }

    #[test]
    fn clock_sizes_match_paper() {
        let clock = LevelSizes::clock();
        // §6.2: "100 + 24 + 60 + 60 = 244 locations" spanning
        // "100 * 24 * 60 * 60 = 8.64 million" ticks.
        assert_eq!(clock.total_slots(), 244);
        assert_eq!(clock.range(), 8_640_000);
    }

    #[test]
    fn pow2_sizes_span_32_bits() {
        let p = LevelSizes::pow2_32bit();
        assert_eq!(p.range(), 1 << 32);
        assert_eq!(p.total_slots(), 1024);
    }

    #[test]
    fn range_saturates() {
        let huge = LevelSizes(vec![u32::MAX as u64 + 1; 3]);
        assert_eq!(huge.range(), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn empty_levels_invalid() {
        LevelSizes(vec![]).validate();
    }

    #[test]
    #[should_panic(expected = "at least 2 slots")]
    fn tiny_level_invalid() {
        LevelSizes(vec![60, 1]).validate();
    }

    #[test]
    fn try_validate_mirrors_validate_without_panicking() {
        assert!(LevelSizes::clock().try_validate().is_ok());
        assert!(matches!(
            LevelSizes(vec![]).try_validate(),
            Err(TimerError::InvalidConfig { reason }) if reason.contains("at least one level")
        ));
        assert!(matches!(
            LevelSizes(vec![60, 1]).try_validate(),
            Err(TimerError::InvalidConfig { reason }) if reason.contains("at least 2 slots")
        ));
        assert!(LevelSizes(vec![2; 17]).try_validate().is_err());
    }

    #[test]
    fn builder_constructs_every_scheme() {
        use crate::scheme::{TimerScheme, TimerSchemeExt};

        let cfg = WheelConfig::new().slots(64);
        let mut basic = cfg.clone().build_basic::<u64>().unwrap();
        let mut sorted = cfg.clone().build_hashed_sorted::<u64>().unwrap();
        let mut unsorted = cfg.clone().build_hashed_unsorted::<u64>().unwrap();
        let mut hybrid = cfg.build_hybrid::<u64>().unwrap();
        let hier_cfg = WheelConfig::new().granularities(LevelSizes(vec![16, 16]));
        let mut hier = hier_cfg.clone().build_hierarchical::<u64>().unwrap();
        let mut clock = hier_cfg.build_clockwork::<u64>().unwrap();
        for j in [1u64, 9, 33] {
            basic.start_timer(TickDelta(j), j).unwrap();
            sorted.start_timer(TickDelta(j), j).unwrap();
            unsorted.start_timer(TickDelta(j), j).unwrap();
            hybrid.start_timer(TickDelta(j), j).unwrap();
            hier.start_timer(TickDelta(j), j).unwrap();
            clock.start_timer(TickDelta(j), j).unwrap();
        }
        assert_eq!(basic.collect_ticks(64).len(), 3);
        assert_eq!(sorted.collect_ticks(64).len(), 3);
        assert_eq!(unsorted.collect_ticks(64).len(), 3);
        assert_eq!(hybrid.collect_ticks(64).len(), 3);
        assert_eq!(hier.collect_ticks(64).len(), 3);
        assert_eq!(clock.collect_ticks(64).len(), 3);
    }

    #[test]
    fn builder_rejects_invalid_knobs_instead_of_panicking() {
        assert!(matches!(
            WheelConfig::new().build_basic::<u64>(),
            Err(TimerError::InvalidConfig { .. })
        ));
        assert!(matches!(
            WheelConfig::new().slots(0).build_hashed_unsorted::<u64>(),
            Err(TimerError::InvalidConfig { .. })
        ));
        assert!(matches!(
            WheelConfig::new().slots(8).build_hierarchical::<u64>(),
            Err(TimerError::InvalidConfig { .. })
        ));
        assert!(matches!(
            WheelConfig::new()
                .granularities(LevelSizes(vec![4, 1]))
                .build_clockwork::<u64>(),
            Err(TimerError::InvalidConfig { .. })
        ));
        // Reject-policy range check: 64 slots cannot cover interval 100.
        assert!(matches!(
            WheelConfig::new()
                .slots(64)
                .max_interval(TickDelta(100))
                .build_basic::<u64>(),
            Err(TimerError::InvalidConfig { .. })
        ));
        // The same request under OverflowList is fine: far timers park.
        assert!(WheelConfig::new()
            .slots(64)
            .max_interval(TickDelta(100))
            .overflow(OverflowPolicy::OverflowList)
            .build_basic::<u64>()
            .is_ok());
        // A basic wheel sized by max_interval alone.
        let w = WheelConfig::new()
            .max_interval(TickDelta(128))
            .build_basic::<u64>()
            .unwrap();
        assert_eq!(w.get().max_interval(), TickDelta(128));
    }

    #[test]
    fn try_from_yields_bare_validated_wheels() {
        use crate::scheme::TimerScheme;
        use crate::wheel::{BasicWheel, ClockworkWheel, HierarchicalWheel};

        let mut w = BasicWheel::<u64>::try_from(WheelConfig::new().slots(8)).unwrap();
        w.start_timer(TickDelta(2), 7).unwrap();
        assert_eq!(w.outstanding(), 1);
        assert!(BasicWheel::<u64>::try_from(WheelConfig::new()).is_err());
        assert!(HierarchicalWheel::<u64>::try_from(
            WheelConfig::new().granularities(LevelSizes::clock())
        )
        .is_ok());
        assert!(ClockworkWheel::<u64>::try_from(WheelConfig::new()).is_err());
    }

    #[test]
    fn builder_observer_wraps_the_wheel() {
        use crate::observe::Observer;
        use crate::scheme::{TimerScheme, TimerSchemeExt};
        use core::cell::Cell;

        #[derive(Default)]
        struct Counts {
            fires: Cell<u64>,
        }
        impl Observer for Counts {
            fn on_fires(&self, _error: TickDelta, count: usize) {
                self.fires.set(self.fires.get() + count as u64);
            }
        }
        let counts = Counts::default();
        let mut w = WheelConfig::new()
            .slots(32)
            .observer(&counts)
            .build_basic::<u64>()
            .unwrap();
        w.start_timer(TickDelta(5), 5).unwrap();
        w.start_timer(TickDelta(9), 9).unwrap();
        assert_eq!(w.collect_ticks(10).len(), 2);
        assert_eq!(counts.fires.get(), 2);
    }
}
