//! The manager's decision table as one pure function.
//!
//! Every manager decision is [`decide`] applied to a [`View`]: plain values
//! the shell (`manager/mod.rs`) has already read. The shell learns the
//! facts in the order a call does (resident? what does the negative cache
//! say? who leads the flight? what did the rewrite and the gate produce?
//! over budget?) and asks again after each; a row reads only facts known
//! by the time it can fire. [`Decision::record`] is the one place a
//! decision becomes a journal record, and [`fold`] is the tiering policy
//! over one tick's sampled heat.
//!
//! Nothing here locks, reads the image or the clock, or journals
//! (`scripts/check.sh hotpath` keeps it that way), so the table is tested
//! as a function: every class of view is pinned to one decision.

use super::negative::NegativePolicy;
use super::tiering::{HeatEntry, TieringConfig};
use super::{CacheKey, Variant};
use crate::request::SpecRequest;
use crate::telemetry::flight::{milli, FlightKind};
use std::collections::HashMap;

/// Heat entries below this score with no resident variant are pruned at
/// the end of a tick — after a few quiet ticks a dead key costs nothing.
const MIN_TRACKED_HEAT: f64 = 1e-3;

/// Who is asking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Origin {
    /// `request`: a miss under tiering is answered with the original.
    Request,
    /// `get_or_rewrite`: a denial returns the memoized error.
    Direct,
    /// A tick promoting a hot, absent key.
    Promote,
    /// A revalidation sweep rebuilding a stale key.
    Rebuild,
    /// A checkpoint entry being restored.
    Load,
}

impl Origin {
    /// Whether a denial counts against the key's backoff window: callers
    /// spend it; the policy's own probes do not.
    pub fn spends(self) -> bool {
        matches!(self, Origin::Request | Origin::Direct)
    }
}

/// The negative cache's word on a key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(super) enum Negative {
    /// No memoized failure.
    #[default]
    None,
    /// Inside the backoff window.
    Deny { attempts: u32 },
    /// The window elapsed: one attempt may go through.
    Retry,
    /// At the attempt cap: denied for good.
    Capped { attempts: u32 },
}

impl Negative {
    /// The backoff arithmetic over one entry: `base << (attempts - 1)`
    /// denials (saturating) before a retry, none past the cap.
    pub fn of(attempts: u32, denials: u64, policy: &NegativePolicy) -> Negative {
        let window = policy
            .base_backoff
            .saturating_mul(1u64 << attempts.saturating_sub(1).min(62));
        if attempts >= policy.attempt_cap {
            Negative::Capped { attempts }
        } else if denials >= window {
            Negative::Retry
        } else {
            Negative::Deny { attempts }
        }
    }
}

/// The publish gate's verdict on a finished rewrite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Gate {
    /// Passed (or no gate is configured).
    Pass,
    /// Rejected, or the gate panicked.
    Reject,
    /// Rejected by the equivalence tier, with this many findings.
    Equivalence { findings: u64 },
}

/// How far a call that missed has come.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Stage {
    /// Not in single flight yet.
    Arrived,
    /// Another call leads the rewrite.
    Following,
    /// This call leads it; nothing traced yet.
    Leading,
    /// The pipeline failed: a typed error or a contained panic.
    Failed,
    /// Finished and gated. `provable`: the passes carry a proof obligation
    /// (above `OptLevel::Regalloc`), the captured CFG came along, and no
    /// retreat was taken yet.
    Gated {
        gate: Gate,
        code_len: usize,
        provable: bool,
    },
    /// Published: the cache now holds `bytes` of code in `variants`.
    Published { bytes: usize, variants: usize },
}

/// A policy origin's input: the decayed score, ticks since the policy last
/// acted on the key, whether a request is kept to replay, and the config.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct Heat {
    pub score: f64,
    pub since: u64,
    pub replayable: bool,
    pub cfg: TieringConfig,
}

/// Everything [`decide`] reads. A fact the shell has not read yet keeps
/// its default, which no row that could fire before it is read looks at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct View {
    pub origin: Origin,
    pub resident: bool,
    pub negative: Negative,
    pub tiering: bool,
    /// Set for a policy origin that has not acted yet.
    pub heat: Option<Heat>,
    pub stage: Stage,
    pub budget: usize,
}

impl View {
    /// A call from `origin` that has read nothing yet.
    pub fn new(origin: Origin, tiering: bool, budget: usize) -> View {
        View {
            origin,
            resident: false,
            negative: Negative::None,
            tiering,
            heat: None,
            stage: Stage::Arrived,
            budget,
        }
    }
}

/// One row of the decision table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) enum Decision {
    /// Serve the resident variant (`HIT`).
    Hit,
    /// The key is known to fail: answer without tracing (`DENIED`).
    Deny { attempts: u32 },
    /// Answer with the original: under tiering a miss is heat, not an order.
    Original,
    /// Leave things as they are: the policy holds, or the budget does.
    Stay,
    /// Join the key's single flight.
    Join,
    /// Wait for the leader's result (`COALESCED`).
    Coalesce,
    /// Lead the rewrite (`MISS`).
    Rewrite,
    /// Re-emit at the conservative level and gate again (`REGALLOC_FB`).
    Retreat { findings: u64 },
    /// Memoize the failure; its cause was journaled where it happened.
    Fail,
    /// Refuse code larger than the whole budget (`OVER_BUDGET`).
    OverBudget { code_len: usize, budget: usize },
    /// Publish the fresh variant (`REWRITTEN`).
    Publish,
    /// Publish a restored checkpoint entry (`PUBLISHED`).
    Restore,
    /// Evict one victim (`EVICTED`).
    Evict,
    /// Rewrite a hot, absent key (`PROMOTED`).
    Promote { heat: f64, bar: f64 },
    /// Unpublish a cold resident variant (`DEMOTED`).
    Demote { heat: f64, bar: f64 },
    /// Rebuild a stale variant still hot enough (`RESPEC`).
    Respecialize { heat: f64 },
}

/// The decision table, top row first.
#[inline]
pub(super) fn decide(v: &View) -> Decision {
    use Decision::*;
    let denied = match v.negative {
        Negative::Deny { attempts } | Negative::Capped { attempts } => Some(attempts),
        Negative::None | Negative::Retry => None,
    };
    if let Some(h) = v.heat {
        let (c, heat, clear) = (&h.cfg, h.score, denied.is_none());
        return match v.origin {
            Origin::Rebuild if heat > c.demote_heat && clear => Respecialize { heat },
            Origin::Rebuild => Stay,
            _ if h.since < c.cooldown_ticks => Stay,
            _ if !v.resident && heat >= c.promote_heat && h.replayable && clear => {
                let bar = c.promote_heat;
                Promote { heat, bar }
            }
            _ if v.resident && heat <= c.demote_heat => {
                let bar = c.demote_heat;
                Demote { heat, bar }
            }
            _ => Stay,
        };
    }
    match denied {
        _ if v.resident => return Hit,
        Some(attempts) if v.origin.spends() => return Deny { attempts },
        Some(_) => return Stay,
        None if v.origin == Origin::Request && v.tiering => return Original,
        None => {}
    }
    let budget = v.budget;
    match v.stage {
        Stage::Arrived => Join,
        Stage::Following => Coalesce,
        Stage::Leading => Rewrite,
        Stage::Gated {
            gate,
            code_len,
            provable,
        } => match gate {
            Gate::Equivalence { findings } if provable => Retreat { findings },
            Gate::Pass if code_len > budget => OverBudget { code_len, budget },
            Gate::Pass if v.origin == Origin::Load => Restore,
            Gate::Pass => Publish,
            Gate::Reject | Gate::Equivalence { .. } => Fail,
        },
        Stage::Failed => Fail,
        Stage::Published { bytes, variants } if bytes > budget && variants > 1 => Evict,
        Stage::Published { .. } => Stay,
    }
}

impl Decision {
    /// The journal record of this decision about `key`; `v` is the
    /// variant a hit serves, a publish or restore installs, or an eviction
    /// drops. `None` for the rows that journal nothing.
    #[inline]
    pub fn record(self, key: CacheKey, v: Option<&Variant>) -> Option<(FlightKind, [u64; 4])> {
        use Decision as D;
        use FlightKind as K;
        let (func, fp) = (key.func, key.fingerprint);
        let (entry, len) = v.map_or((0, 0), |v| (v.entry, v.code_len as u64));
        Some(match self {
            D::Hit => (K::Hit, [func, entry, 0, 0]),
            D::Deny { attempts } => (K::Denied, [func, attempts as u64, 0, 0]),
            D::Coalesce => (K::Coalesced, [func, 0, 0, 0]),
            D::Rewrite => (K::Miss, [func, 0, 0, 0]),
            D::Retreat { findings } => (K::RegallocFallback, [func, findings, 0, 0]),
            D::OverBudget { code_len, budget } => {
                (K::OverBudget, [func, code_len as u64, budget as u64, 0])
            }
            D::Publish => {
                let ns = v.map_or(0, |v| v.stats.total_ns());
                (K::Rewritten, [func, entry, len, ns])
            }
            D::Restore => (K::Published, [func, entry, 0, 0]),
            D::Evict => (K::Evicted, [func, entry, len, 0]),
            D::Promote { heat, bar } => (K::Promoted, [func, fp, milli(heat), milli(bar)]),
            D::Demote { heat, bar } => (K::Demoted, [func, fp, milli(heat), milli(bar)]),
            D::Respecialize { heat } => (K::Respecialized, [func, fp, milli(heat), 0]),
            D::Original | D::Stay | D::Join | D::Fail => return None,
        })
    }
}

/// What one tick's [`fold`] produced: the inputs and cycles it consumed,
/// per-key `Promote` (with the request to replay) and `Demote` decisions
/// in heat-map order, and the keys tracked after pruning with their
/// hottest and summed heat.
pub(super) struct Fold {
    pub sampled: u64,
    pub cycles: u64,
    pub verdicts: Vec<(CacheKey, Decision, Option<SpecRequest>)>,
    pub tracked: usize,
    pub heat_max: f64,
    pub heat_sum: f64,
}

/// Fold one tick's inputs into heat, `heat ← heat · decay + input +
/// cycles · cycle_weight` (a resident key's input includes its hit delta),
/// decide each key, and prune dead keys. `resident` holds hit counts,
/// `negative` the probed verdict of each absent key a promotion could
/// replay. A promotion stamps the cooldown here; the shell stamps a
/// demotion once the variant is actually removed.
pub(super) fn fold(
    heat: &mut HashMap<CacheKey, HeatEntry>,
    resident: &HashMap<CacheKey, u64>,
    negative: &HashMap<CacheKey, Negative>,
    tick: u64,
    cfg: &TieringConfig,
) -> Fold {
    let (mut sampled, mut cycles) = (0u64, 0u64);
    let mut verdicts = Vec::new();
    for (key, e) in heat.iter_mut() {
        let hits = resident.get(key).copied();
        let hit_delta = hits.map_or(0, |h| h.saturating_sub(e.last_hits));
        // The baseline absorbs this tick's page credit, so the credit is
        // not counted again as a hit next tick.
        e.last_hits = hits.map_or(0, |h| h + e.credited);
        e.credited = 0;
        let input = e.pending + hit_delta;
        let cyc = e.pending_cycles;
        (e.pending, e.pending_cycles) = (0, 0);
        sampled += input;
        cycles += cyc;
        e.heat = e.heat * cfg.decay + input as f64 + cyc as f64 * cfg.cycle_weight;
        let view = View {
            resident: hits.is_some(),
            negative: negative.get(key).copied().unwrap_or_default(),
            heat: Some(Heat {
                score: e.heat,
                since: tick.saturating_sub(e.last_action_tick),
                replayable: e.req.is_some(),
                cfg: *cfg,
            }),
            ..View::new(Origin::Promote, true, 0)
        };
        match decide(&view) {
            d @ Decision::Promote { .. } => {
                e.last_action_tick = tick;
                verdicts.push((*key, d, e.req.clone()));
            }
            d @ Decision::Demote { .. } => verdicts.push((*key, d, None)),
            _ => {}
        }
    }
    heat.retain(|key, e| resident.contains_key(key) || e.heat >= MIN_TRACKED_HEAT);
    let (mut heat_max, mut heat_sum) = (0.0f64, 0.0f64);
    for e in heat.values() {
        heat_max = heat_max.max(e.heat);
        heat_sum += e.heat;
    }
    Fold {
        sampled,
        cycles,
        verdicts,
        tracked: heat.len(),
        heat_max,
        heat_sum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BUDGET: usize = 100;

    fn heat(score: f64, since: u64, cfg: TieringConfig) -> Option<Heat> {
        Some(Heat {
            score,
            since,
            replayable: true,
            cfg,
        })
    }

    /// The tick's verdict for a key with `score` heat, `since` ticks after
    /// the last action — `TieringConfig`'s band and cooldown, as `fold`
    /// asks it.
    fn tier(cfg: TieringConfig, score: f64, resident: bool, since: u64) -> Decision {
        decide(&View {
            resident,
            heat: heat(score, since, cfg),
            ..View::new(Origin::Promote, true, BUDGET)
        })
    }

    /// Every class of (origin × resident × negative entry × tiering ×
    /// leader/follower × fits/over budget × gate verdict) against the
    /// table, row by row, and the number of classes each row takes.
    #[test]
    fn the_policy_as_a_table() {
        use Decision::*;
        let origins = [
            Origin::Request,
            Origin::Direct,
            Origin::Promote,
            Origin::Rebuild,
            Origin::Load,
        ];
        let negatives = [
            Negative::None,
            Negative::Deny { attempts: 2 },
            Negative::Retry,
            Negative::Capped { attempts: 9 },
        ];
        let gates = [
            (Gate::Pass, true),
            (Gate::Reject, true),
            (Gate::Equivalence { findings: 3 }, true),
            (Gate::Equivalence { findings: 3 }, false),
        ];
        let mut rows: HashMap<String, usize> = HashMap::new();
        for origin in origins {
            for resident in [false, true] {
                for negative in negatives {
                    for tiering in [false, true] {
                        for leader in [false, true] {
                            for code_len in [BUDGET, BUDGET + 1] {
                                for (gate, provable) in gates {
                                    let view = View {
                                        origin,
                                        resident,
                                        negative,
                                        tiering,
                                        heat: None,
                                        stage: match leader {
                                            true => Stage::Gated {
                                                gate,
                                                code_len,
                                                provable,
                                            },
                                            false => Stage::Following,
                                        },
                                        budget: BUDGET,
                                    };
                                    let denied = match negative {
                                        Negative::Deny { attempts }
                                        | Negative::Capped { attempts } => Some(attempts),
                                        Negative::None | Negative::Retry => None,
                                    };
                                    let want = if resident {
                                        Hit
                                    } else if let (Some(attempts), true) = (denied, origin.spends())
                                    {
                                        Deny { attempts }
                                    } else if denied.is_some() {
                                        Stay
                                    } else if origin == Origin::Request && tiering {
                                        Original
                                    } else if !leader {
                                        Coalesce
                                    } else if gate == (Gate::Equivalence { findings: 3 })
                                        && provable
                                    {
                                        Retreat { findings: 3 }
                                    } else if gate != Gate::Pass {
                                        Fail
                                    } else if code_len > BUDGET {
                                        OverBudget {
                                            code_len,
                                            budget: BUDGET,
                                        }
                                    } else if origin == Origin::Load {
                                        Restore
                                    } else {
                                        Publish
                                    };
                                    let got = decide(&view);
                                    assert_eq!(got, want, "{view:?}");
                                    let row = format!("{got:?}");
                                    let row = row.split([' ', '{']).next().unwrap().to_string();
                                    *rows.entry(row).or_default() += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        let mut rows: Vec<(String, usize)> = rows.into_iter().collect();
        rows.sort();
        let rows: Vec<(&str, usize)> = rows.iter().map(|(r, n)| (r.as_str(), *n)).collect();
        assert_eq!(
            rows,
            [
                ("Coalesce", 144),
                ("Deny", 128),
                ("Fail", 72),
                ("Hit", 640),
                ("Original", 32),
                ("OverBudget", 18),
                ("Publish", 14),
                ("Restore", 4),
                ("Retreat", 36),
                ("Stay", 192),
            ]
        );
    }

    /// Before a fact is read its default fires no row that needs it: a
    /// fresh call joins single flight, a leader with nothing traced yet
    /// rewrites, and a failed pipeline is memoized.
    #[test]
    fn unread_facts_stop_at_the_row_that_reads_them() {
        let fresh = View::new(Origin::Direct, false, BUDGET);
        assert_eq!(decide(&fresh), Decision::Join);
        let leader = View {
            stage: Stage::Leading,
            ..fresh
        };
        assert_eq!(decide(&leader), Decision::Rewrite);
        let failed = View {
            stage: Stage::Failed,
            ..leader
        };
        assert_eq!(decide(&failed), Decision::Fail);
    }

    #[test]
    fn eviction_runs_until_the_budget_holds_or_one_variant_is_left() {
        let at = |bytes, variants| {
            decide(&View {
                stage: Stage::Published { bytes, variants },
                ..View::new(Origin::Direct, false, BUDGET)
            })
        };
        assert_eq!(at(BUDGET + 1, 2), Decision::Evict);
        assert_eq!(at(BUDGET, 2), Decision::Stay);
        assert_eq!(at(BUDGET + 1, 1), Decision::Stay);
    }

    #[test]
    fn decayed_threshold_hysteresis_band() {
        let p = TieringConfig {
            promote_heat: 8.0,
            demote_heat: 2.0,
            decay: 0.5,
            cooldown_ticks: 0,
            cycle_weight: 0.0,
        };
        let (promote, demote) = (
            Decision::Promote {
                heat: 9.0,
                bar: 8.0,
            },
            Decision::Demote {
                heat: 1.0,
                bar: 2.0,
            },
        );
        // Below the band, resident → demote; non-resident → stay.
        assert_eq!(tier(p, 1.0, true, 10), demote);
        assert_eq!(tier(p, 1.0, false, 10), Decision::Stay);
        // Inside the band nothing moves in either direction.
        assert_eq!(tier(p, 5.0, true, 10), Decision::Stay);
        assert_eq!(tier(p, 5.0, false, 10), Decision::Stay);
        // Above the band, non-resident → promote; resident → stay.
        assert_eq!(tier(p, 9.0, false, 10), promote);
        assert_eq!(tier(p, 9.0, true, 10), Decision::Stay);
    }

    #[test]
    fn cooldown_blocks_actions() {
        let p = TieringConfig {
            promote_heat: 8.0,
            demote_heat: 2.0,
            decay: 0.5,
            cooldown_ticks: 3,
            cycle_weight: 0.0,
        };
        assert_eq!(tier(p, 9.0, false, 2), Decision::Stay);
        assert_eq!(
            tier(p, 9.0, false, 3),
            Decision::Promote {
                heat: 9.0,
                bar: 8.0
            }
        );
        assert_eq!(tier(p, 0.0, true, 2), Decision::Stay);
        assert_eq!(
            tier(p, 0.0, true, 3),
            Decision::Demote {
                heat: 0.0,
                bar: 2.0
            }
        );
    }

    /// A promotion needs a request to replay and a key the negative cache
    /// does not deny; a rebuild needs heat strictly above the demote bar
    /// (the bar residency has to clear) and no denial either.
    #[test]
    fn policy_origins_respect_replay_denial_and_the_demote_bar() {
        let cfg = TieringConfig::default();
        let denied = Negative::Deny { attempts: 1 };
        let promote = |replayable, negative| {
            decide(&View {
                negative,
                heat: Some(Heat {
                    replayable,
                    ..heat(9.0, 10, cfg).unwrap()
                }),
                ..View::new(Origin::Promote, true, BUDGET)
            })
        };
        assert_eq!(promote(false, Negative::None), Decision::Stay);
        assert_eq!(promote(true, denied), Decision::Stay);
        assert_eq!(
            promote(true, Negative::Retry),
            Decision::Promote {
                heat: 9.0,
                bar: 8.0
            }
        );
        let rebuild = |score, negative| {
            decide(&View {
                negative,
                heat: heat(score, 0, cfg),
                ..View::new(Origin::Rebuild, true, BUDGET)
            })
        };
        assert_eq!(rebuild(0.0, Negative::None), Decision::Stay);
        assert_eq!(rebuild(1.0, Negative::None), Decision::Stay); // at the bar: dies
        assert_eq!(
            rebuild(1.5, Negative::None),
            Decision::Respecialize { heat: 1.5 }
        );
        assert_eq!(rebuild(1.5, denied), Decision::Stay);
    }
}
