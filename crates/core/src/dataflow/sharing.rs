//! Cross-query sharing: the server's one attach rule and the lints and
//! checks that read the schedule it produces.
//!
//! The mediator server admits many fusion queries concurrently, and
//! under skewed multi-tenant traffic co-running queries repeatedly fire
//! identical or subsumed `sq(c, R)` steps before the first harvest
//! commits. [`share_schedule`] is the rule that decides, inside the
//! server's admission critical section, which of an admitted plan's
//! uncached selections **fetch** (and become leaders later admissions
//! may ride) and which **attach** to an in-flight leader fetch:
//!
//! * a leader qualifies when it fetches (it does not itself ride
//!   another fetch), was admitted with an earlier ticket, contacts the
//!   same source under the same epoch, and the prover proves that its
//!   predicate contains the step's;
//! * the first qualifying leader proved **equivalent** (containment
//!   both ways) wins and serves the step exactly; otherwise the first
//!   qualifying container serves it through a **residual filter**.
//!
//! Because the prover is sound but incomplete, an attach always rests
//! on a direct proof against the leader that fetches; a chain of proofs
//! through a follower is never assumed.
//!
//! The rule's output — a list of [`ShareStep`]s in ticket order — is the
//! schedule the server executes, and the only one: `fusion-exec`'s
//! share table runs it on every admission, the CLI's `\share` runs it
//! over the co-admission front, and the three `*_findings` rules read
//! it. `unsound-merge-residual` (error) is checked on every attaching
//! admission; `duplicate-inflight-step` and `unshared-subsumed-step`
//! (warnings) report exchanges the ticket order left unshared. The
//! golden corpus makes each fire on a hand-built mutant schedule.

use crate::analyze::{Diagnostic, Severity};
use crate::plan::{Plan, Step};
use fusion_types::{CondId, Condition, Predicate, SourceId};

/// A containment prover: `prove(broad, narrow)` must return `true` only
/// when every tuple satisfying `narrow` provably satisfies `broad`.
/// Sound-but-incomplete provers are expected; the rule never chains
/// unproved implications.
pub type Prover<'p> = &'p dyn Fn(&Predicate, &Predicate) -> bool;

/// One uncached selection of an admitted query and what the share rule
/// made of it: a fetch (`leader` is `None`) or an attach to another
/// query's in-flight fetch.
#[derive(Debug, Clone, Copy)]
pub struct ShareStep<'a> {
    /// The admitted query's ticket.
    pub ticket: u64,
    /// 0-based step index inside its plan.
    pub step: usize,
    /// The contacted source.
    pub source: SourceId,
    /// The step's condition.
    pub cond: CondId,
    /// The condition's predicate.
    pub pred: &'a Predicate,
    /// Epoch of `source` at the query's admission.
    pub epoch: u64,
    /// `(ticket, step)` of the leader fetch this step rides, or `None`
    /// when the step fetches for itself.
    pub leader: Option<(u64, usize)>,
    /// True when the ride passes the leader's harvest through a
    /// residual filter (the step's condition is properly contained).
    pub residual: bool,
}

impl ShareStep<'_> {
    fn label(&self) -> String {
        label((self.ticket, self.step))
    }
}

/// Display label `q{ticket}#{step}` (1-based step, matching listings).
fn label((ticket, step): (u64, usize)) -> String {
    format!("q{ticket}#{}", step + 1)
}

fn sq_word(s: &ShareStep<'_>) -> String {
    format!("sq(c{}, R{})", s.cond.0 + 1, s.source.0 + 1)
}

/// The share rule: for every selection of `plan` that the cache does
/// not serve (`cache_served[step]` false), in step order, whether it
/// fetches or attaches to one of `leaders` (see the module docs).
/// `leaders` are the live in-flight steps in ticket order; entries that
/// ride another fetch are never attached to. `epochs` are the source
/// epochs at this admission.
pub fn share_schedule<'a>(
    leaders: &[ShareStep<'_>],
    ticket: u64,
    plan: &Plan,
    conditions: &'a [Condition],
    cache_served: &[bool],
    epochs: &[u64],
    prove: Prover<'_>,
) -> Vec<ShareStep<'a>> {
    let mut out = Vec::new();
    for (idx, step) in plan.steps.iter().enumerate() {
        let Step::Sq { cond, source, .. } = step else {
            continue;
        };
        if cache_served[idx] {
            continue;
        }
        let pred = &conditions[cond.0].pred;
        let epoch = epochs[source.0];
        // First proved exact leader wins; else the first proved
        // container (leader order is ticket order — deterministic).
        let mut chosen: Option<(&ShareStep<'_>, bool)> = None;
        for l in leaders {
            if l.leader.is_some()
                || l.ticket >= ticket
                || l.source != *source
                || l.epoch != epoch
                || !prove(l.pred, pred)
            {
                continue;
            }
            if prove(pred, l.pred) {
                chosen = Some((l, false));
                break;
            }
            if chosen.is_none() {
                chosen = Some((l, true));
            }
        }
        out.push(ShareStep {
            ticket,
            step: idx,
            source: *source,
            cond: *cond,
            pred,
            epoch,
            leader: chosen.map(|(l, _)| (l.ticket, l.step)),
            residual: chosen.is_some_and(|(_, residual)| residual),
        });
    }
    out
}

/// The schedule's fetches, in schedule order.
fn fetches<'s, 'a>(schedule: &'s [ShareStep<'a>]) -> Vec<&'s ShareStep<'a>> {
    schedule.iter().filter(|s| s.leader.is_none()).collect()
}

/// Whether two fetches of different queries contact one source under
/// one epoch — whether either could have served the other.
fn rivals(a: &ShareStep<'_>, b: &ShareStep<'_>) -> bool {
    a.ticket != b.ticket && a.source == b.source && a.epoch == b.epoch
}

/// `duplicate-inflight-step` findings: two in-flight queries both
/// exchange provably equivalent selections although the later could
/// ride the earlier's fetch.
pub fn duplicate_inflight_findings(
    schedule: &[ShareStep<'_>],
    prove: Prover<'_>,
) -> Vec<Diagnostic> {
    let fetches = fetches(schedule);
    let mut out = Vec::new();
    for (i, a) in fetches.iter().enumerate() {
        for b in &fetches[i + 1..] {
            if !rivals(a, b) || !prove(a.pred, b.pred) || !prove(b.pred, a.pred) {
                continue;
            }
            out.push(Diagnostic {
                rule: "duplicate-inflight-step",
                severity: Severity::Warning,
                step: b.step + 1,
                message: format!(
                    "{} and {} both exchange {} for provably equivalent \
                     conditions; witness: duplicate [{la}:fetch; {lb}:fetch] \
                     vs merged [{la}:fetch; {lb}:serve«{la}»]",
                    a.label(),
                    b.label(),
                    sq_word(a),
                    la = a.label(),
                    lb = b.label(),
                ),
            });
        }
    }
    out
}

/// `unshared-subsumed-step` findings: a query fetches a selection
/// although another query's in-flight fetch provably properly contains
/// it — the narrower harvest is a residual filter away from free.
pub fn unshared_subsumed_findings(
    schedule: &[ShareStep<'_>],
    prove: Prover<'_>,
) -> Vec<Diagnostic> {
    let fetches = fetches(schedule);
    let mut out = Vec::new();
    for narrow in &fetches {
        let Some(broad) = fetches.iter().find(|b| {
            rivals(b, narrow) && prove(b.pred, narrow.pred) && !prove(narrow.pred, b.pred)
        }) else {
            continue;
        };
        out.push(Diagnostic {
            rule: "unshared-subsumed-step",
            severity: Severity::Warning,
            step: narrow.step + 1,
            message: format!(
                "{} exchanges {} although {}'s {} provably contains it; \
                 witness: unshared [{lb}:fetch; {ln}:fetch] vs merged \
                 [{lb}:fetch; {ln}:serve«{lb}»+residual]",
                narrow.label(),
                sq_word(narrow),
                broad.label(),
                sq_word(broad),
                lb = broad.label(),
                ln = narrow.label(),
            ),
        });
    }
    out
}

/// `unsound-merge-residual` findings: an attach whose leader is not a
/// selection fetch on the same source, whose containment the prover
/// cannot discharge, or which serves a proper containment without its
/// residual filter — any of them lets merged execution diverge from
/// isolated execution. The server checks every attaching admission
/// against this rule.
pub fn unsound_merge_findings(schedule: &[ShareStep<'_>], prove: Prover<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for n in schedule {
        let Some(key) = n.leader else {
            continue;
        };
        let (ll, ln) = (label(key), n.label());
        let leader = schedule
            .iter()
            .find(|l| (l.ticket, l.step) == key && l.leader.is_none() && l.source == n.source);
        let message = match leader {
            None => format!(
                "serving {ln}'s {} from {ll}, which fetches no selection on R{}: \
                 merged execution can diverge from isolated; witness: merged \
                 [{ln}:serve«{ll}»] vs isolated [{ln}:fetch]",
                sq_word(n),
                n.source.0 + 1,
            ),
            Some(l) => {
                let (defect, fix) = if !prove(l.pred, n.pred) {
                    ("has no containment proof", format!("isolated [{ln}:fetch]"))
                } else if !n.residual && !prove(n.pred, l.pred) {
                    (
                        "drops the residual filter on a proper containment",
                        format!("sound [{ln}:serve«{ll}»+residual]"),
                    )
                } else {
                    continue;
                };
                format!(
                    "serving {ln}'s {} from {ll}'s {} {defect}: merged execution \
                     can diverge from isolated; witness: merged \
                     [{ll}:fetch; {ln}:serve«{ll}»] vs {fix}",
                    sq_word(n),
                    sq_word(l),
                )
            }
        };
        out.push(Diagnostic {
            rule: "unsound-merge-residual",
            severity: Severity::Error,
            step: n.step + 1,
            message,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::VarId;
    use fusion_types::CmpOp;

    fn ge(v: i64) -> Predicate {
        Predicate::cmp("D", CmpOp::Ge, v)
    }

    /// Hand prover: `D >= a` contains `D >= b` iff `b >= a`; everything
    /// else only by syntactic equality.
    fn hand_prover(broad: &Predicate, narrow: &Predicate) -> bool {
        match (broad, narrow) {
            (
                Predicate::Cmp {
                    attr: a,
                    op: CmpOp::Ge,
                    value: va,
                },
                Predicate::Cmp {
                    attr: b,
                    op: CmpOp::Ge,
                    value: vb,
                },
            ) if a == b => match (va.as_f64(), vb.as_f64()) {
                (Some(x), Some(y)) => y >= x,
                _ => va == vb,
            },
            _ => broad == narrow,
        }
    }

    /// A one-selection plan `sq(c1, R{src+1})`.
    fn sq_plan(src: usize) -> Plan {
        let mut p = Plan::new(vec![], VarId(0), 1, src + 1);
        let x = p.fresh_var("X");
        p.steps = vec![Step::Sq {
            out: x,
            cond: CondId(0),
            source: SourceId(src),
        }];
        p.result = x;
        p
    }

    /// The schedule the server runs when `sq_plan(src)` is admitted once
    /// per predicate, ticket `i + 1` for the `i`-th, nothing cached, every
    /// epoch 0.
    fn admit_in_order<'a>(
        src: usize,
        conds: &'a [Condition],
        prove: Prover<'_>,
    ) -> Vec<ShareStep<'a>> {
        let plan = sq_plan(src);
        let mut schedule = Vec::new();
        for (i, c) in conds.iter().enumerate() {
            let ticket = i as u64 + 1;
            let steps = share_schedule(
                &schedule,
                ticket,
                &plan,
                std::slice::from_ref(c),
                &[false],
                &[0; 2],
                prove,
            );
            schedule.extend(steps);
        }
        schedule
    }

    fn conds(preds: Vec<Predicate>) -> Vec<Condition> {
        preds.into_iter().map(Condition::from).collect()
    }

    fn leaders(schedule: &[ShareStep<'_>]) -> Vec<Option<(u64, usize)>> {
        schedule.iter().map(|s| s.leader).collect()
    }

    fn quiet(schedule: &[ShareStep<'_>], prove: Prover<'_>) {
        assert!(duplicate_inflight_findings(schedule, prove).is_empty());
        assert!(unshared_subsumed_findings(schedule, prove).is_empty());
        assert!(unsound_merge_findings(schedule, prove).is_empty());
    }

    #[test]
    fn equivalent_steps_attach_exactly() {
        let cs = conds(vec![ge(1990), ge(1990)]);
        let schedule = admit_in_order(1, &cs, &hand_prover);
        assert_eq!(leaders(&schedule), vec![None, Some((1, 0))]);
        assert!(!schedule[1].residual);
        assert_eq!(schedule[1].source, SourceId(1));
        quiet(&schedule, &hand_prover);
    }

    #[test]
    fn proper_containment_attaches_through_a_residual() {
        let cs = conds(vec![ge(1990), ge(1995)]);
        let schedule = admit_in_order(0, &cs, &hand_prover);
        assert_eq!(leaders(&schedule), vec![None, Some((1, 0))]);
        assert!(schedule[1].residual);
        quiet(&schedule, &hand_prover);
    }

    #[test]
    fn unrelated_conditions_fetch_separately() {
        let cs = conds(vec![ge(1990), Predicate::eq("V", "dui")]);
        let schedule = admit_in_order(0, &cs, &hand_prover);
        assert_eq!(leaders(&schedule), vec![None, None]);
        quiet(&schedule, &hand_prover);
    }

    #[test]
    fn narrow_then_broad_then_duplicate_runs_two_exchanges() {
        // The broad query cannot ride the narrower, earlier fetch, and
        // the duplicate rides the first fetch exactly.
        let cs = conds(vec![ge(1994), ge(1990), ge(1994)]);
        let schedule = admit_in_order(0, &cs, &hand_prover);
        assert_eq!(leaders(&schedule), vec![None, None, Some((1, 0))]);
        assert!(!schedule[2].residual);
        let findings = unshared_subsumed_findings(&schedule, &hand_prover);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(
            findings[0]
                .message
                .starts_with("q1#1 exchanges sq(c1, R1) although q2#1's"),
            "{}",
            findings[0]
        );
        assert!(duplicate_inflight_findings(&schedule, &hand_prover).is_empty());
        assert!(unsound_merge_findings(&schedule, &hand_prover).is_empty());
    }

    #[test]
    fn redirects_need_a_direct_proof_never_transitivity() {
        // A chain prover that proves A ⊇ B and B ⊇ C but *not* A ⊇ C:
        // an incomplete prover's world. B rides A; C's only proved
        // container rides too, so C fetches on its own.
        let chain = |broad: &Predicate, narrow: &Predicate| -> bool {
            let (a, b, c) = (ge(1990), ge(1995), ge(2000));
            (broad, narrow) == (&a, &b) || (broad, narrow) == (&b, &c) || broad == narrow
        };
        let cs = conds(vec![ge(1990), ge(1995), ge(2000)]);
        let schedule = admit_in_order(0, &cs, &chain);
        assert_eq!(leaders(&schedule), vec![None, Some((1, 0)), None]);
        assert!(schedule[1].residual);
        // No fetch provably contains C, so nothing is reported unshared.
        quiet(&schedule, &chain);
    }

    #[test]
    fn leaders_must_be_earlier_fetches_on_the_source_and_epoch() {
        let (a, narrow) = (conds(vec![ge(1990)]), conds(vec![ge(1995)]));
        let lead = |ticket, source, epoch| ShareStep {
            ticket,
            step: 0,
            source: SourceId(source),
            cond: CondId(0),
            pred: &a[0].pred,
            epoch,
            leader: None,
            residual: false,
        };
        let admit = |leaders: &[ShareStep<'_>], served: bool| {
            share_schedule(
                leaders,
                5,
                &sq_plan(0),
                &narrow,
                &[served],
                &[3, 0],
                &hand_prover,
            )
        };
        // A later ticket, another source, a stale epoch, a ride.
        let mut rider = lead(1, 0, 3);
        rider.leader = Some((0, 0));
        let never = [lead(6, 0, 3), lead(2, 1, 3), lead(3, 0, 2), rider];
        assert_eq!(admit(&never, false)[0].leader, None);
        // The first qualifying container serves through a residual.
        let ok = [lead(4, 0, 3), lead(2, 0, 3)];
        assert_eq!(admit(&ok, false)[0].leader, Some((4, 0)));
        assert!(admit(&ok, false)[0].residual);
        // A cache-served step is neither fetched nor attached.
        assert!(admit(&ok, true).is_empty());
    }

    fn fetch(ticket: u64, pred: &Predicate) -> ShareStep<'_> {
        ShareStep {
            ticket,
            step: 0,
            source: SourceId(0),
            cond: CondId(0),
            pred,
            epoch: 0,
            leader: None,
            residual: false,
        }
    }

    fn ride(ticket: u64, pred: &Predicate, leader: u64, residual: bool) -> ShareStep<'_> {
        ShareStep {
            leader: Some((leader, 0)),
            residual,
            ..fetch(ticket, pred)
        }
    }

    #[test]
    fn duplicate_inflight_mutant_fires() {
        let p = ge(1990);
        // Mutant: both queries exchange — the first-fetches/rest-hit
        // baseline's schedule.
        let split = [fetch(1, &p), fetch(2, &p)];
        let findings = duplicate_inflight_findings(&split, &hand_prover);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].severity, Severity::Warning);
        assert!(
            findings[0].message.contains("serve«q1#1»"),
            "{}",
            findings[0]
        );
        assert!(unsound_merge_findings(&split, &hand_prover).is_empty());
        // Another epoch is not a duplicate: the data changed.
        let bumped = [
            fetch(1, &p),
            ShareStep {
                epoch: 1,
                ..fetch(2, &p)
            },
        ];
        assert!(duplicate_inflight_findings(&bumped, &hand_prover).is_empty());
    }

    #[test]
    fn unshared_subsumed_mutant_fires_but_stays_sound() {
        let (broad, narrow) = (ge(1990), ge(1995));
        let split = [fetch(1, &broad), fetch(2, &narrow)];
        let findings = unshared_subsumed_findings(&split, &hand_prover);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].severity, Severity::Warning);
        assert!(
            findings[0].message.contains("serve«q1#1»+residual"),
            "{}",
            findings[0]
        );
        assert!(unsound_merge_findings(&split, &hand_prover).is_empty());
    }

    #[test]
    fn unsound_merge_mutants_fire() {
        let (broad, narrow) = (ge(1990), ge(1995));
        let check = |schedule: &[ShareStep<'_>], needle: &str| {
            let findings = unsound_merge_findings(schedule, &hand_prover);
            assert_eq!(findings.len(), 1, "{findings:?}");
            assert_eq!(findings[0].severity, Severity::Error);
            assert!(findings[0].message.contains(needle), "{}", findings[0]);
        };
        // A proper containment served without its residual filter.
        check(
            &[fetch(1, &broad), ride(2, &narrow, 1, false)],
            "drops the residual filter",
        );
        // The containment runs the wrong way: no proof exists.
        check(
            &[fetch(1, &narrow), ride(2, &broad, 1, true)],
            "no containment proof",
        );
        // The leader rides itself, fetches on another source, or is unknown.
        let chained = [fetch(1, &broad), ride(2, &broad, 1, false)];
        let mut through = chained.to_vec();
        through.push(ride(3, &broad, 2, false));
        check(&through, "fetches no selection on R1");
        let elsewhere = ShareStep {
            source: SourceId(1),
            ..fetch(1, &broad)
        };
        check(
            &[elsewhere, ride(2, &broad, 1, false)],
            "fetches no selection",
        );
        check(
            &[ride(2, &broad, 7, true)],
            "q7#1, which fetches no selection",
        );
        assert!(unsound_merge_findings(&chained, &hand_prover).is_empty());
    }
}
