//! Far-end differential campaign: every wheel with a jumping
//! `advance_to_with` is run against the [`OracleScheme`] from a clock jumped
//! to `2^63 − 1000` and to `u64::MAX − 5000`, so deadlines straddle bit 63
//! and `Tick::MAX` itself.
//!
//! Each case starts, stops, restarts, ticks and jumps; an interval that
//! would carry a deadline past `Tick::MAX` must get
//! [`TimerError::DeadlineOverflow`] from the scheme and the oracle alike,
//! and every other timer must fire exactly where the oracle fires it (or,
//! under the reduced-precision `MigrationPolicy::{None,Single}`, exactly
//! once within the policy's rounding bound).
//!
//! Two configurations are skipped, because neither can jump: reaching the
//! far end would take 2^63 single ticks.
//! * `ClockworkWheel` keeps the per-tick default `advance_to_with`; its
//!   literal update records must run every tick.
//! * Without the `bitmap-cursor` feature no wheel overrides
//!   `advance_to_with`, so this whole file compiles to nothing there.
#![cfg(feature = "bitmap-cursor")]

use proptest::prelude::*;
use tw_core::wheel::{
    BasicWheel, HashedWheelSorted, HashedWheelUnsorted, HierarchicalWheel, HybridWheel, InsertRule,
    LawnWheel, LevelSizes, MigrationPolicy, OverflowPolicy, WheelConfig,
};
use tw_core::{OracleScheme, Tick, TickDelta, TimerError, TimerHandle, TimerScheme};

/// The two clocks each campaign starts from.
const FAR_STARTS: [u64; 2] = [(1 << 63) - 1000, u64::MAX - 5000];

/// Longest interval a campaign draws: enough to cross `Tick::MAX` from the
/// second start, and within every wheel's accepted range below.
const MAX_INTERVAL: u64 = 6000;

/// A 64/64/64 hierarchy (range 262 144) with both policy knobs explicit.
fn hierarchy64(rule: InsertRule, migration: MigrationPolicy) -> HierarchicalWheel<u64> {
    HierarchicalWheel::try_from(
        WheelConfig::new()
            .granularities(LevelSizes(vec![64, 64, 64]))
            .insert_rule(rule)
            .migration(migration)
            .overflow(OverflowPolicy::Reject),
    )
    .expect("64/64/64 hierarchy config is statically valid")
}

/// With `--features checked` every scheme (and the oracle) revalidates its
/// invariant catalog after each operation.
#[cfg(feature = "checked")]
fn harness<S: TimerScheme<u64> + tw_core::InvariantCheck>(scheme: S) -> tw_core::Checked<S> {
    tw_core::Checked::new(scheme)
}

#[cfg(not(feature = "checked"))]
fn harness<S: TimerScheme<u64>>(scheme: S) -> S {
    scheme
}

#[derive(Debug, Clone)]
enum Op {
    Start(u64),
    Stop(usize),
    Restart(usize, u64),
    Tick,
    /// Jump `advance_to_with(now + gap)`, saturating at `Tick::MAX`.
    Advance(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (1..=MAX_INTERVAL).prop_map(Op::Start),
        1 => any::<usize>().prop_map(Op::Stop),
        2 => (any::<usize>(), 1..=MAX_INTERVAL).prop_map(|(k, j)| Op::Restart(k, j)),
        2 => Just(Op::Tick),
        2 => (1..=2000u64).prop_map(Op::Advance),
    ]
}

/// How a scheme's expiries are held against the oracle's.
#[derive(Clone, Copy)]
enum Expect {
    /// The same expiries at the same ticks as the oracle.
    Exact,
    /// Each timer fires exactly once, with `|fired_at − deadline| < bound`;
    /// the oracle only checks which starts and restarts are accepted.
    Within(u64),
}

/// `(payload, fired_at, deadline)` of one expiry.
type Fire = (u64, u64, u64);

/// `(scheme handle, oracle handle, id)` of a timer the scheme holds.
type Live = Vec<(TimerHandle, TimerHandle, u64)>;

fn advance(s: &mut dyn TimerScheme<u64>, to: Tick) -> Vec<Fire> {
    let mut out = Vec::new();
    s.advance_to_with(to, &mut |e| {
        out.push((e.payload, e.fired_at.as_u64(), e.deadline.as_u64()));
    });
    out.sort_unstable();
    out
}

/// Moves both clocks to `to` and holds the scheme's expiries against the
/// oracle's, removing the fired timers from `live`.
fn step(
    scheme: &mut dyn TimerScheme<u64>,
    oracle: &mut dyn TimerScheme<u64>,
    to: Tick,
    expect: Expect,
    live: &mut Live,
) -> Result<(), TestCaseError> {
    let (got, want) = (advance(scheme, to), advance(oracle, to));
    if let Expect::Exact = expect {
        prop_assert_eq!(&got, &want, "expiry divergence by t={}", to.as_u64());
    }
    for (id, fired_at, deadline) in got {
        if let Expect::Within(bound) = expect {
            prop_assert!(
                fired_at.abs_diff(deadline) < bound,
                "timer {} fired at {} for deadline {}",
                id,
                fired_at,
                deadline
            );
        }
        let pos = live.iter().position(|&(_, _, l)| l == id);
        prop_assert!(pos.is_some(), "timer {} fired twice or after a stop", id);
        live.swap_remove(pos.unwrap_or_default());
    }
    prop_assert_eq!(scheme.now(), oracle.now());
    Ok(())
}

/// Runs `ops` on `scheme` and the oracle from the far-end clock `start`,
/// then drains both to `Tick::MAX`.
fn campaign<S: TimerScheme<u64>>(
    mut scheme: S,
    expect: Expect,
    start: u64,
    ops: &[Op],
) -> Result<(), TestCaseError> {
    let mut oracle = harness(OracleScheme::<u64>::new());
    let mut live: Live = Vec::new();
    step(&mut scheme, &mut oracle, Tick(start), expect, &mut live)?;
    prop_assert_eq!(scheme.now(), Tick(start));
    let mut next_id = 0u64;
    for op in ops {
        match *op {
            Op::Start(j) => {
                let overflows = scheme.now().as_u64().checked_add(j).is_none();
                let a = scheme.start_timer(TickDelta(j), next_id);
                let b = oracle.start_timer(TickDelta(j), next_id);
                prop_assert_eq!(a.err(), b.err(), "start_timer({}) disagreement", j);
                prop_assert_eq!(a.err(), overflows.then_some(TimerError::DeadlineOverflow));
                if let (Ok(ha), Ok(hb)) = (a, b) {
                    live.push((ha, hb, next_id));
                }
                next_id += 1;
            }
            Op::Stop(k) => {
                if live.is_empty() {
                    continue;
                }
                let (ha, hb, id) = live.swap_remove(k % live.len());
                prop_assert_eq!(scheme.stop_timer(ha), Ok(id));
                if let Expect::Exact = expect {
                    prop_assert_eq!(oracle.stop_timer(hb), Ok(id));
                }
            }
            Op::Restart(k, j) => {
                if live.is_empty() {
                    continue;
                }
                let (ha, hb, id) = live[k % live.len()];
                let overflows = scheme.now().as_u64().checked_add(j).is_none();
                let ra = scheme.restart_timer(ha, TickDelta(j));
                // A rounded scheme's timer may outlive its oracle twin, so
                // there the oracle only probes the interval with a start.
                let rb = match expect {
                    Expect::Exact => oracle.restart_timer(hb, TickDelta(j)),
                    Expect::Within(_) => oracle.start_timer(TickDelta(j), id).map(|_| ()),
                };
                prop_assert_eq!(ra, rb, "restart_timer({}) disagreement", j);
                prop_assert_eq!(ra.err(), overflows.then_some(TimerError::DeadlineOverflow));
            }
            Op::Tick => {
                if let Some(to) = scheme.now().as_u64().checked_add(1) {
                    step(&mut scheme, &mut oracle, Tick(to), expect, &mut live)?;
                }
            }
            Op::Advance(gap) => {
                let to = Tick(scheme.now().as_u64().saturating_add(gap));
                step(&mut scheme, &mut oracle, to, expect, &mut live)?;
            }
        }
        if let Expect::Exact = expect {
            prop_assert_eq!(scheme.outstanding(), oracle.outstanding());
        }
    }
    // Every accepted deadline is at most `Tick::MAX`, so this fires them all.
    step(&mut scheme, &mut oracle, Tick(u64::MAX), expect, &mut live)?;
    prop_assert!(live.is_empty(), "{} timers never fired", live.len());
    prop_assert_eq!(scheme.outstanding(), 0);
    prop_assert_eq!(oracle.outstanding(), 0);
    Ok(())
}

/// Case-count override: `TW_PROPTEST_CASES` elevates the sweep in
/// scheduled CI; seeds are fixed per test name.
fn env_cases(default: u32) -> u32 {
    std::env::var("TW_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Runs one campaign per far-end start on a fresh scheme from `make`.
fn from_both_ends<S: TimerScheme<u64>>(
    make: impl Fn() -> S,
    expect: Expect,
    ops: &[Op],
) -> Result<(), TestCaseError> {
    for start in FAR_STARTS {
        campaign(make(), expect, start, ops)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(env_cases(32)))]

    #[test]
    fn basic_far_end_matches_oracle(ops in proptest::collection::vec(op_strategy(), 1..150)) {
        from_both_ends(|| harness(BasicWheel::<u64>::new(8192)), Expect::Exact, &ops)?;
    }

    #[test]
    fn hashed_sorted_far_end_matches_oracle(ops in proptest::collection::vec(op_strategy(), 1..150)) {
        from_both_ends(|| harness(HashedWheelSorted::<u64>::new(64)), Expect::Exact, &ops)?;
    }

    #[test]
    fn hashed_unsorted_far_end_matches_oracle(ops in proptest::collection::vec(op_strategy(), 1..150)) {
        from_both_ends(|| harness(HashedWheelUnsorted::<u64>::new(64)), Expect::Exact, &ops)?;
    }

    #[test]
    fn hierarchical_far_end_matches_oracle(ops in proptest::collection::vec(op_strategy(), 1..150)) {
        for rule in [InsertRule::Digit, InsertRule::Covering] {
            from_both_ends(|| harness(hierarchy64(rule, MigrationPolicy::Full)), Expect::Exact, &ops)?;
        }
    }

    /// The reduced-precision policies round the firing target: under `None`
    /// to the insertion level's granularity (at most 4096 here), under
    /// `Single` to the next finer level's (at most 64). Rounding is to the
    /// nearest multiple, or down where the multiple above would pass
    /// `Tick::MAX`, so the error stays under one granularity.
    #[test]
    fn hierarchical_rounded_far_end_fires_once_within_bound(
        ops in proptest::collection::vec(op_strategy(), 1..150),
    ) {
        for rule in [InsertRule::Digit, InsertRule::Covering] {
            from_both_ends(
                || harness(hierarchy64(rule, MigrationPolicy::None)),
                Expect::Within(4096),
                &ops,
            )?;
            from_both_ends(
                || harness(hierarchy64(rule, MigrationPolicy::Single)),
                Expect::Within(64),
                &ops,
            )?;
        }
    }

    #[test]
    fn hybrid_far_end_matches_oracle(ops in proptest::collection::vec(op_strategy(), 1..150)) {
        from_both_ends(|| harness(HybridWheel::<u64>::new(64)), Expect::Exact, &ops)?;
    }

    #[test]
    fn lawn_far_end_matches_oracle(ops in proptest::collection::vec(op_strategy(), 1..150)) {
        from_both_ends(|| harness(LawnWheel::<u64>::new(8192)), Expect::Exact, &ops)?;
    }
}

/// Deterministic far-end sweep: 715 timers (intervals 1, 8, 15, …, 4999)
/// started from each far-end clock on every jumping wheel all fire at their
/// deadlines, by one jump to `Tick::MAX` and by single steps alike. The
/// schemes run bare: the campaigns above already revalidate under
/// `--features checked`, and revalidating each of these ~14 000 steps too
/// would cost half a minute in a debug build.
#[test]
fn far_end_timers_fire_at_their_deadlines_on_every_jumping_wheel() {
    fn check<S: TimerScheme<u64>>(make: impl Fn() -> S, bound: u64) {
        for start in FAR_STARTS {
            for stepped in [false, true] {
                let mut s = make();
                let name = s.name();
                s.advance_to_with(Tick(start), &mut |e| panic!("{name}: fired {}", e.payload));
                for k in 0..715u64 {
                    s.start_timer(TickDelta(1 + 7 * k), k).unwrap();
                }
                let mut fired = vec![false; 715];
                let mut on_fire = |e: tw_core::Expired<u64>| {
                    let k = usize::try_from(e.payload).unwrap();
                    assert!(!fired[k], "{name}: timer {k} fired twice");
                    fired[k] = true;
                    assert!(
                        e.fired_at.as_u64().abs_diff(e.deadline.as_u64()) < bound,
                        "{name}: timer {k} for {} fired at {}",
                        e.deadline.as_u64(),
                        e.fired_at.as_u64()
                    );
                };
                if stepped {
                    while s.outstanding() > 0 {
                        s.tick(&mut on_fire);
                    }
                } else {
                    s.advance_to_with(Tick(u64::MAX), &mut on_fire);
                }
                let missing = fired.iter().filter(|f| !**f).count();
                assert_eq!(missing, 0, "{name} from {start} (stepped {stepped})");
                assert_eq!(s.outstanding(), 0, "{name}");
            }
        }
    }
    check(|| BasicWheel::<u64>::new(8192), 1);
    check(|| HashedWheelSorted::<u64>::new(64), 1);
    check(|| HashedWheelUnsorted::<u64>::new(64), 1);
    check(|| HybridWheel::<u64>::new(64), 1);
    check(|| LawnWheel::<u64>::new(8192), 1);
    check(OracleScheme::<u64>::new, 1);
    for rule in [InsertRule::Digit, InsertRule::Covering] {
        check(|| hierarchy64(rule, MigrationPolicy::Full), 1);
        check(|| hierarchy64(rule, MigrationPolicy::None), 4096);
        check(|| hierarchy64(rule, MigrationPolicy::Single), 64);
    }
}
