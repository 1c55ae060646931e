//! Per-algorithm circuit breaker with tiered graceful degradation.
//!
//! The PR 4 supervisor already turns individual failures into retries and
//! fallbacks — but each request pays for that resilience *after* launching
//! the expensive randomized attempt. When failures arrive in streaks (a
//! poisoned input distribution, an injected fault plan, a misbehaving
//! tenant), the service should stop paying up front. The breaker watches
//! each algorithm's supervised outcomes and degrades the *whole algorithm*
//! through four tiers:
//!
//! 1. [`Tier::Full`] — supervised parallel run with the configured retry
//!    budget. The normal state.
//! 2. [`Tier::ReducedRetry`] — supervised run with a single attempt
//!    (straight to the deterministic fallback on failure): under a failure
//!    streak, retries are wasted work with correlated causes.
//! 3. [`Tier::Frugal`] — the read-only bounded-workspace algorithms
//!    (`hull2d/frugal`), supervised with the configured retry budget under
//!    the service's per-request workspace budget; each retry halves the
//!    scratch. Under memory pressure the service spends *less memory per
//!    request* instead of shedding. 3-D has no bounded-workspace variant
//!    yet and runs supervised with a single attempt.
//! 4. [`Tier::Sequential`] — the direct sequential exact algorithm
//!    (monotone chain / gift wrapping), no randomized machinery at all.
//!    Slow in the simulated-cost model but deterministic and dependable.
//!
//! **Strain signal.** A request *strains* the breaker when its supervised
//! outcome was [`Outcome::Retried`]/[`Outcome::FellBack`], when it ended in
//! an algorithm error, or when its handler panicked. Results that say
//! nothing about the algorithm's health are *neutral*: cancellations,
//! deadline expiries, and invalid inputs neither strain nor repair the
//! streak. Clean first-try results reset it.
//!
//! **State machine.** `trip_after` consecutive strained results trip the
//! breaker one tier down (and reset the streak, so the next tier gets a
//! full streak of its own before tripping further). A degraded tier counts
//! the requests it serves; after `probe_after` of them the next planned
//! request becomes a **half-open probe**, dispatched at the tier above. At
//! most one probe is outstanding at a time — everyone else keeps the safe
//! degraded tier while a probe is in flight. A clean probe recovers one
//! tier (recovering into [`Tier::Full`] is counted as a breaker recovery);
//! a strained probe closes the half-open window and the degraded tier
//! starts counting toward the next probe from zero. Neutral probe results
//! simply release the window (the probe said nothing).
//!
//! [`Outcome::Retried`]: ipch_pram::Outcome::Retried
//! [`Outcome::FellBack`]: ipch_pram::Outcome::FellBack

use ipch_pram::ServiceStats;

/// Degradation tier a request is served at (ordered: lower is healthier).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Supervised parallel run with the full retry budget.
    Full,
    /// Supervised run with a single attempt (fallback-first posture).
    ReducedRetry,
    /// Read-only bounded-workspace run under the service's per-request
    /// workspace budget (memory-pressure posture).
    Frugal,
    /// Direct sequential exact algorithm; no randomized machinery.
    Sequential,
}

impl Tier {
    /// The next tier down (saturating at [`Tier::Sequential`]).
    fn worse(self) -> Tier {
        match self {
            Tier::Full => Tier::ReducedRetry,
            Tier::ReducedRetry => Tier::Frugal,
            _ => Tier::Sequential,
        }
    }

    /// The next tier up (saturating at [`Tier::Full`]).
    fn better(self) -> Tier {
        match self {
            Tier::Sequential => Tier::Frugal,
            Tier::Frugal => Tier::ReducedRetry,
            _ => Tier::Full,
        }
    }
}

/// What a finished request tells its breaker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Signal {
    /// Healthy result (first-try success, or a clean sequential run).
    Clean,
    /// The algorithm struggled: retried, fell back, errored, or panicked.
    Strained,
    /// Says nothing about algorithm health (cancelled, deadline expired,
    /// invalid input).
    Neutral,
}

/// Breaker thresholds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive strained results that trip one tier down.
    pub trip_after: u32,
    /// Requests served in a degraded tier before a half-open probe.
    pub probe_after: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            trip_after: 3,
            probe_after: 8,
        }
    }
}

/// Per-algorithm breaker state. Driven by the runtime under its lock:
/// [`Breaker::plan`] before dispatch, [`Breaker::report`] after the result.
#[derive(Clone, Copy, Debug)]
pub struct Breaker {
    cfg: BreakerConfig,
    tier: Tier,
    /// Consecutive strained results at the current tier.
    strain_streak: u32,
    /// Requests served since entering the current (degraded) tier or since
    /// the last failed probe.
    served_degraded: u32,
    /// A half-open probe is in flight.
    probing: bool,
}

/// The dispatch decision for one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Plan {
    /// Tier to serve the request at.
    pub tier: Tier,
    /// This request is the half-open probe (served one tier above the
    /// breaker's current tier).
    pub probe: bool,
}

impl Breaker {
    /// A closed (healthy) breaker.
    pub fn new(cfg: BreakerConfig) -> Self {
        Self {
            cfg,
            tier: Tier::Full,
            strain_streak: 0,
            served_degraded: 0,
            probing: false,
        }
    }

    /// Current tier (what the health snapshot reports).
    pub fn tier(&self) -> Tier {
        self.tier
    }

    /// Current consecutive-strain count.
    pub fn strain_streak(&self) -> u32 {
        self.strain_streak
    }

    /// True while a half-open probe is outstanding.
    pub fn probing(&self) -> bool {
        self.probing
    }

    /// Decide the tier for the next request, possibly opening the half-open
    /// window.
    pub fn plan(&mut self, stats: &mut ServiceStats) -> Plan {
        if self.tier != Tier::Full && !self.probing && self.served_degraded >= self.cfg.probe_after
        {
            self.probing = true;
            stats.breaker_probes += 1;
            return Plan {
                tier: self.tier.better(),
                probe: true,
            };
        }
        if self.tier != Tier::Full {
            self.served_degraded += 1;
        }
        Plan {
            tier: self.tier,
            probe: false,
        }
    }

    /// Feed back the result of a request planned by [`Breaker::plan`].
    pub fn report(&mut self, plan: Plan, signal: Signal, stats: &mut ServiceStats) {
        if plan.probe {
            self.probing = false;
            match signal {
                Signal::Clean => {
                    // Recover one tier; a fresh degraded count starts (or
                    // the breaker is fully closed again).
                    self.tier = self.tier.better();
                    self.strain_streak = 0;
                    self.served_degraded = 0;
                    if self.tier == Tier::Full {
                        stats.breaker_recoveries += 1;
                    }
                }
                Signal::Strained => {
                    // Stay degraded; restart the count toward the next probe.
                    self.served_degraded = 0;
                }
                Signal::Neutral => {
                    // The probe said nothing; leave the count so another
                    // probe opens soon.
                }
            }
            return;
        }
        match signal {
            Signal::Clean => self.strain_streak = 0,
            Signal::Neutral => {}
            Signal::Strained => {
                self.strain_streak += 1;
                if self.strain_streak >= self.cfg.trip_after && self.tier != Tier::Sequential {
                    self.tier = self.tier.worse();
                    self.strain_streak = 0;
                    self.served_degraded = 0;
                    self.probing = false;
                    stats.breaker_trips += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(b: &mut Breaker, stats: &mut ServiceStats, signal: Signal) -> Plan {
        let plan = b.plan(stats);
        b.report(plan, signal, stats);
        plan
    }

    #[test]
    fn stays_closed_on_clean_traffic() {
        let mut b = Breaker::new(BreakerConfig::default());
        let mut s = ServiceStats::default();
        for _ in 0..100 {
            let p = drive(&mut b, &mut s, Signal::Clean);
            assert_eq!(p.tier, Tier::Full);
            assert!(!p.probe);
        }
        assert_eq!(s.breaker_trips, 0);
    }

    #[test]
    fn strain_streak_trips_one_tier_then_the_next() {
        let cfg = BreakerConfig {
            trip_after: 3,
            probe_after: 100,
        };
        let mut b = Breaker::new(cfg);
        let mut s = ServiceStats::default();
        for _ in 0..3 {
            drive(&mut b, &mut s, Signal::Strained);
        }
        assert_eq!(b.tier(), Tier::ReducedRetry);
        assert_eq!(s.breaker_trips, 1);
        for _ in 0..3 {
            drive(&mut b, &mut s, Signal::Strained);
        }
        assert_eq!(b.tier(), Tier::Frugal);
        assert_eq!(s.breaker_trips, 2);
        for _ in 0..3 {
            drive(&mut b, &mut s, Signal::Strained);
        }
        assert_eq!(b.tier(), Tier::Sequential);
        assert_eq!(s.breaker_trips, 3);
        // Sequential is the floor
        for _ in 0..10 {
            drive(&mut b, &mut s, Signal::Strained);
        }
        assert_eq!(b.tier(), Tier::Sequential);
        assert_eq!(s.breaker_trips, 3);
    }

    #[test]
    fn clean_results_reset_the_streak() {
        let mut b = Breaker::new(BreakerConfig {
            trip_after: 3,
            probe_after: 100,
        });
        let mut s = ServiceStats::default();
        for _ in 0..10 {
            drive(&mut b, &mut s, Signal::Strained);
            drive(&mut b, &mut s, Signal::Strained);
            drive(&mut b, &mut s, Signal::Clean);
        }
        assert_eq!(b.tier(), Tier::Full);
        assert_eq!(s.breaker_trips, 0);
    }

    #[test]
    fn neutral_results_leave_the_streak_untouched() {
        let mut b = Breaker::new(BreakerConfig {
            trip_after: 3,
            probe_after: 100,
        });
        let mut s = ServiceStats::default();
        drive(&mut b, &mut s, Signal::Strained);
        drive(&mut b, &mut s, Signal::Strained);
        for _ in 0..5 {
            drive(&mut b, &mut s, Signal::Neutral);
        }
        assert_eq!(b.strain_streak(), 2);
        drive(&mut b, &mut s, Signal::Strained);
        assert_eq!(b.tier(), Tier::ReducedRetry);
    }

    #[test]
    fn half_open_probe_recovers_tier_by_tier() {
        let cfg = BreakerConfig {
            trip_after: 2,
            probe_after: 3,
        };
        let mut b = Breaker::new(cfg);
        let mut s = ServiceStats::default();
        // trip to Sequential: 2 strains per tier through the 4-tier ladder
        for _ in 0..6 {
            drive(&mut b, &mut s, Signal::Strained);
        }
        assert_eq!(b.tier(), Tier::Sequential);
        // serve probe_after requests at the degraded tier
        for _ in 0..3 {
            let p = drive(&mut b, &mut s, Signal::Clean);
            assert_eq!(p.tier, Tier::Sequential);
        }
        // next plan is the half-open probe at the tier above
        let p = b.plan(&mut s);
        assert!(p.probe);
        assert_eq!(p.tier, Tier::Frugal);
        b.report(p, Signal::Clean, &mut s);
        assert_eq!(b.tier(), Tier::Frugal);
        assert_eq!(s.breaker_probes, 1);
        assert_eq!(s.breaker_recoveries, 0, "not yet at Full");
        // again: serve, probe, recover to ReducedRetry, then to Full
        for _ in 0..3 {
            drive(&mut b, &mut s, Signal::Clean);
        }
        let p = b.plan(&mut s);
        assert!(p.probe);
        assert_eq!(p.tier, Tier::ReducedRetry);
        b.report(p, Signal::Clean, &mut s);
        assert_eq!(b.tier(), Tier::ReducedRetry);
        for _ in 0..3 {
            drive(&mut b, &mut s, Signal::Clean);
        }
        let p = b.plan(&mut s);
        assert!(p.probe);
        assert_eq!(p.tier, Tier::Full);
        b.report(p, Signal::Clean, &mut s);
        assert_eq!(b.tier(), Tier::Full);
        assert_eq!(s.breaker_recoveries, 1);
    }

    #[test]
    fn failed_probe_stays_degraded_and_reopens_later() {
        let cfg = BreakerConfig {
            trip_after: 2,
            probe_after: 2,
        };
        let mut b = Breaker::new(cfg);
        let mut s = ServiceStats::default();
        drive(&mut b, &mut s, Signal::Strained);
        drive(&mut b, &mut s, Signal::Strained);
        assert_eq!(b.tier(), Tier::ReducedRetry);
        drive(&mut b, &mut s, Signal::Clean);
        drive(&mut b, &mut s, Signal::Clean);
        let p = b.plan(&mut s);
        assert!(p.probe && p.tier == Tier::Full);
        b.report(p, Signal::Strained, &mut s);
        assert_eq!(b.tier(), Tier::ReducedRetry, "failed probe: no recovery");
        // window reopens after probe_after more requests
        drive(&mut b, &mut s, Signal::Clean);
        drive(&mut b, &mut s, Signal::Clean);
        let p = b.plan(&mut s);
        assert!(p.probe);
        assert_eq!(s.breaker_probes, 2);
    }

    #[test]
    fn only_one_probe_outstanding_at_a_time() {
        let cfg = BreakerConfig {
            trip_after: 1,
            probe_after: 1,
        };
        let mut b = Breaker::new(cfg);
        let mut s = ServiceStats::default();
        drive(&mut b, &mut s, Signal::Strained);
        drive(&mut b, &mut s, Signal::Clean); // served_degraded reaches 1
        let p1 = b.plan(&mut s);
        assert!(p1.probe);
        // while the probe is in flight, others stay at the degraded tier
        let p2 = b.plan(&mut s);
        assert!(!p2.probe);
        assert_eq!(p2.tier, Tier::ReducedRetry);
        b.report(p2, Signal::Clean, &mut s);
        b.report(p1, Signal::Clean, &mut s);
        assert_eq!(b.tier(), Tier::Full);
    }
}
