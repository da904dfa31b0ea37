//! The server's operation log, certified as written.
//!
//! Every critical section of [`serve`] against the shared answer cache —
//! admission, commit, update bump — draws a global ticket while holding
//! its shard locks and logs the per-shard op counts it observed; the
//! ticket-sorted log is what [`replay_serial`] replays. A critical
//! section read-modify-writes every shard it locks, so two that share a
//! shard are ordered by its lock and two that don't commute. The three
//! certificates below read the log as `serve` writes it, once per call.
//!
//! [`serve`]: crate::serve
//! [`replay_serial`]: crate::replay_serial

use std::collections::{HashMap, HashSet};

use crate::share::ShareRef;
use fusion_types::error::{FusionError, Result};
use fusion_types::SourceId;

/// What one logged critical section did.
#[derive(Debug, Clone)]
pub enum OpKind {
    /// Query admission: snapshot, cache-aware plan, lookup resolution,
    /// and share-table attachment.
    Admit {
        /// The tenant whose query was admitted.
        tenant: usize,
        /// The event index within the tenant's stream.
        index: usize,
        /// Steps served from other in-flight queries' merged fetches.
        shares: Vec<ShareRef>,
    },
    /// Commit of an admitted query's pending cache inserts.
    Commit {
        /// The tenant whose query committed.
        tenant: usize,
        /// The event index within the tenant's stream.
        index: usize,
        /// Ticket of the matching admission.
        admit_ticket: u64,
    },
    /// An update event's epoch bump.
    Bump {
        /// The tenant whose stream carried the update.
        tenant: usize,
        /// The event index within the tenant's stream.
        index: usize,
        /// The updated source.
        source: SourceId,
    },
}

/// One entry of the server's replayable operation log.
#[derive(Debug, Clone)]
pub struct LoggedOp {
    /// Global ticket drawn inside the critical section.
    pub ticket: u64,
    /// What the critical section did.
    pub kind: OpKind,
    /// Per-shard operation counts observed while the locks were held.
    pub shard_seqs: Vec<(usize, u64)>,
}

impl LoggedOp {
    /// How the certificates name this op: `admit(q7)` by its own ticket,
    /// `commit(q7)` by its admission's, `bump[R2]` by its source.
    fn name(&self) -> String {
        match &self.kind {
            OpKind::Admit { .. } => format!("admit(q{})", self.ticket),
            OpKind::Commit { admit_ticket, .. } => format!("commit(q{admit_ticket})"),
            OpKind::Bump { source, .. } => format!("bump[R{}]", source.0 + 1),
        }
    }

    /// The shards this op held, ascending.
    fn held(&self) -> impl Iterator<Item = usize> + '_ {
        self.shard_seqs.iter().map(|&(k, _)| k)
    }
}

/// Verifies that a server operation log is a valid linearization: the
/// ticket order must agree with the order every shard actually applied
/// its critical sections. Concretely, after sorting by ticket:
///
/// * tickets are unique,
/// * an admission holds every shard, a bump exactly its source's owning
///   shard (`source % n_shards`), a commit at least one,
/// * per shard, the observed operation counts are non-decreasing — an
///   inversion (a later-ticket critical section whose mutations a shard
///   applied *before* an earlier-ticket one) shows up as a decrease.
///
/// Shard-disjoint operations may take tickets in either order; they
/// commute, so any serial replay in ticket order reproduces the shard
/// states bit for bit. This is the always-on guard behind the server's
/// replay-parity contract.
///
/// # Errors
/// Fails with the violated invariant.
pub(crate) fn verify_server_log(log: &[LoggedOp], n_shards: usize) -> Result<()> {
    let fail = |msg: String| {
        Err(FusionError::invalid_plan(format!(
            "server log certificate: {msg}"
        )))
    };
    let mut sorted: Vec<&LoggedOp> = log.iter().collect();
    sorted.sort_by_key(|op| op.ticket);
    for pair in sorted.windows(2) {
        if pair[0].ticket == pair[1].ticket {
            return fail(format!(
                "{} and {} share ticket {}",
                pair[0].name(),
                pair[1].name(),
                pair[0].ticket
            ));
        }
    }
    let mut last_seq: Vec<Option<u64>> = vec![None; n_shards];
    for op in sorted {
        let held: Vec<usize> = op.held().collect();
        match &op.kind {
            OpKind::Admit { .. } => {
                if !held.iter().copied().eq(0..n_shards) {
                    return fail(format!(
                        "{} held shards {held:?}, admission must hold all \
                         {n_shards} for a consistent snapshot",
                        op.name()
                    ));
                }
            }
            OpKind::Bump { source, .. } => {
                if held != [source.0 % n_shards] {
                    return fail(format!(
                        "{} held shards {held:?}, expected exactly shard {}",
                        op.name(),
                        source.0 % n_shards
                    ));
                }
            }
            OpKind::Commit { .. } => {
                if held.is_empty() {
                    return fail(format!("{} held no shard", op.name()));
                }
            }
        }
        for &(k, seq) in &op.shard_seqs {
            if k >= n_shards {
                return fail(format!("{} held unknown shard {k}", op.name()));
            }
            if let Some(prev) = last_seq[k] {
                if seq < prev {
                    return fail(format!(
                        "shard {k} applied {} (ticket {}) before an \
                         earlier-ticket critical section: op count went \
                         {prev} -> {seq}; ticket order is not a valid \
                         linearization",
                        op.name(),
                        op.ticket
                    ));
                }
            }
            last_seq[k] = Some(seq);
        }
    }
    Ok(())
}

/// Counts the pairs of logged critical sections that commute — whose
/// held shard sets are disjoint: the concurrency the sharding actually
/// bought, reported by `\sessions`.
///
/// A log has few distinct shard sets (every admission holds them all),
/// so the count is taken per class of ops holding the same shards —
/// `O(L + k²)` for `L` ops in `k` classes — and equals the pair-by-pair
/// count.
pub(crate) fn server_commuting_pairs(log: &[LoggedOp]) -> usize {
    let mut classes: HashMap<Vec<usize>, usize> = HashMap::new();
    for op in log {
        *classes.entry(op.held().collect()).or_default() += 1;
    }
    let classes: Vec<(Vec<usize>, usize)> = classes.into_iter().collect();
    let mut n = 0;
    for (i, (a, na)) in classes.iter().enumerate() {
        // Two ops of one class commute only when the class holds no shard.
        if a.is_empty() {
            n += na * (na - 1) / 2;
        }
        for (b, nb) in &classes[i + 1..] {
            if !a.iter().any(|k| b.contains(k)) {
                n += na * nb;
            }
        }
    }
    n
}

/// Verifies the share windows of a server run: every share an
/// admission logged must attach the follower (that admission) to a
/// leader that was **admitted before it** (`leader admit < follower
/// admit`) and **still uncommitted at its admission** (`follower admit <
/// leader commit`, when the leader committed). Returns the number of
/// shares checked — the always-on dynamic guard behind the fan-out
/// discipline.
///
/// # Errors
/// Fails with the violated window.
pub(crate) fn verify_share_windows(log: &[LoggedOp]) -> Result<usize> {
    let fail = |msg: String| {
        Err(FusionError::invalid_plan(format!(
            "share-window certificate: {msg}"
        )))
    };
    // One pass: the admissions, and each admission's first commit.
    let mut admitted: HashSet<u64> = HashSet::new();
    let mut committed: HashMap<u64, u64> = HashMap::new();
    for op in log {
        match &op.kind {
            OpKind::Admit { .. } => {
                admitted.insert(op.ticket);
            }
            OpKind::Commit { admit_ticket, .. } => {
                committed.entry(*admit_ticket).or_insert(op.ticket);
            }
            OpKind::Bump { .. } => {}
        }
    }
    let mut checked = 0;
    for op in log {
        let OpKind::Admit { shares, .. } = &op.kind else {
            continue;
        };
        let follower = op.ticket;
        for leader in shares.iter().map(|s| s.leader) {
            if !admitted.contains(&leader) {
                return fail(format!(
                    "ticket {follower} served from unknown admission {leader}"
                ));
            }
            if leader >= follower {
                return fail(format!(
                    "ticket {follower} served from leader {leader} admitted \
                     at or after it — followers may only attach to earlier \
                     admissions"
                ));
            }
            if let Some(&ct) = committed.get(&leader) {
                if ct <= follower {
                    return fail(format!(
                        "ticket {follower} attached to leader {leader} after \
                         its commit (ticket {ct}) — the fetch slot was \
                         already drained"
                    ));
                }
            }
            checked += 1;
        }
    }
    Ok(checked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{replay_serial, serve, verify_replay_parity, ServerConfig, TenantEvent};
    use crate::testkit::{dmv_query, dmv_sources, net};
    use fusion_source::Capabilities;

    fn op(ticket: u64, kind: OpKind, seqs: &[(usize, u64)]) -> LoggedOp {
        LoggedOp {
            ticket,
            kind,
            shard_seqs: seqs.to_vec(),
        }
    }

    fn admit(ticket: u64, seqs: &[(usize, u64)]) -> LoggedOp {
        let kind = OpKind::Admit {
            tenant: 0,
            index: 0,
            shares: Vec::new(),
        };
        op(ticket, kind, seqs)
    }

    fn commit(ticket: u64, admit_ticket: u64, seqs: &[(usize, u64)]) -> LoggedOp {
        let kind = OpKind::Commit {
            tenant: 0,
            index: 0,
            admit_ticket,
        };
        op(ticket, kind, seqs)
    }

    fn bump(ticket: u64, source: usize, seqs: &[(usize, u64)]) -> LoggedOp {
        let kind = OpKind::Bump {
            tenant: 0,
            index: 0,
            source: SourceId(source),
        };
        op(ticket, kind, seqs)
    }

    /// Pairs of ops whose held shard sets are disjoint, one pair at a time.
    fn disjoint_pairs_one_by_one(log: &[LoggedOp]) -> usize {
        let mut n = 0;
        for (i, a) in log.iter().enumerate() {
            for b in &log[i + 1..] {
                n += usize::from(!a.held().any(|k| b.held().any(|j| j == k)));
            }
        }
        n
    }

    #[test]
    fn valid_server_log_certifies() {
        // Two shards: admit q0 (resolves on both), commit q0 on shard 0,
        // bump R2 (shard 1), admit q3. Shard-disjoint commit/bump may
        // take tickets in either order relative to each other.
        let log = vec![
            admit(0, &[(0, 1), (1, 1)]),
            bump(2, 1, &[(1, 2)]),
            commit(1, 0, &[(0, 2)]),
            admit(3, &[(0, 3), (1, 3)]),
        ];
        verify_server_log(&log, 2).unwrap();
        // The commit and the bump are the one commuting pair.
        assert_eq!(server_commuting_pairs(&log), 1);
    }

    #[test]
    fn commuting_pairs_by_class_match_the_nested_loop() {
        // Seeded logs in the server's own mix: admissions hold every
        // shard, bumps one, commits a random non-empty subset — plus an
        // occasional op holding none, which commutes with everything,
        // itself included.
        for n_shards in [1usize, 4, 7] {
            for seed in 0..32u64 {
                let mut rng = fusion_stats::SplitMix64::new(seed * 31 + n_shards as u64);
                let len = rng.next_below(120);
                let log: Vec<LoggedOp> = (0..len)
                    .map(|t| {
                        let held: Vec<usize> = match rng.next_below(8) {
                            0..=2 => (0..n_shards).collect(),
                            3 | 4 => vec![rng.next_below(n_shards)],
                            5 | 6 => {
                                let mut s: Vec<usize> =
                                    (0..n_shards).filter(|_| rng.next_below(2) == 0).collect();
                                if s.is_empty() {
                                    s.push(rng.next_below(n_shards));
                                }
                                s
                            }
                            _ => Vec::new(),
                        };
                        let seqs: Vec<(usize, u64)> =
                            held.into_iter().map(|k| (k, t as u64)).collect();
                        commit(t as u64, t as u64, &seqs)
                    })
                    .collect();
                assert_eq!(
                    server_commuting_pairs(&log),
                    disjoint_pairs_one_by_one(&log),
                    "n_shards {n_shards} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn server_log_inversions_are_caught() {
        // A shard that applied a later-ticket admit before an
        // earlier-ticket one: op counts decrease in ticket order.
        let inverted = vec![admit(0, &[(0, 2), (1, 2)]), admit(1, &[(0, 1), (1, 1)])];
        let err = verify_server_log(&inverted, 2).unwrap_err();
        assert!(
            err.to_string().contains("not a valid linearization"),
            "{err}"
        );

        // An admission that failed to hold every shard.
        let partial = vec![admit(0, &[(0, 1)])];
        let err = verify_server_log(&partial, 2).unwrap_err();
        assert!(err.to_string().contains("hold all"), "{err}");

        // A bump holding the wrong shard.
        let wrong = vec![bump(0, 0, &[(1, 1)])];
        let err = verify_server_log(&wrong, 2).unwrap_err();
        assert!(err.to_string().contains("expected exactly"), "{err}");

        // Duplicate tickets.
        let dup = vec![admit(5, &[(0, 1), (1, 1)]), admit(5, &[(0, 2), (1, 2)])];
        let err = verify_server_log(&dup, 2).unwrap_err();
        assert!(err.to_string().contains("share ticket"), "{err}");
    }

    #[test]
    fn share_windows_enforce_admit_and_commit_order() {
        // Admissions 1, 3 and 5; q3 commits at 4, q1 at 7. Admission
        // `follower` logs one share riding `leader`'s fetch.
        let log = |follower: u64, leader: u64| {
            let mut log = vec![
                admit(1, &[]),
                admit(3, &[]),
                commit(4, 3, &[]),
                admit(5, &[]),
                commit(7, 1, &[]),
            ];
            for op in &mut log {
                if let OpKind::Admit { shares, .. } = &mut op.kind {
                    if op.ticket == follower {
                        shares.push(ShareRef {
                            step: 0,
                            leader,
                            leader_step: 0,
                            residual: false,
                        });
                    }
                }
            }
            log
        };
        // Leader admitted first, follower admitted before its commit.
        assert_eq!(verify_share_windows(&log(3, 1)).unwrap(), 1);
        assert_eq!(verify_share_windows(&log(5, 1)).unwrap(), 1);
        // Follower admitted after the leader's commit: the slot was
        // already drained.
        let err = verify_share_windows(&log(5, 3)).unwrap_err();
        assert!(err.to_string().contains("after its commit"), "{err}");
        // Leader admitted after the follower.
        let err = verify_share_windows(&log(1, 3)).unwrap_err();
        assert!(err.to_string().contains("earlier admissions"), "{err}");
        // Unknown leader ticket.
        let err = verify_share_windows(&log(3, 2)).unwrap_err();
        assert!(err.to_string().contains("unknown admission"), "{err}");
        // Empty logs always certify.
        assert_eq!(verify_share_windows(&[]).unwrap(), 0);
    }

    /// Two tenants fire the same cold query concurrently (pacing keeps
    /// the first in flight past the second's admission, so the second
    /// rides its fetches), then update R1 and R3 — bumps of disjoint
    /// shards — and ask again: 2 workers, paced, sharing on.
    fn shared_run() -> (Vec<Vec<TenantEvent>>, ServerConfig) {
        let tenants = (0..2)
            .map(|t| {
                vec![
                    TenantEvent::Query(dmv_query()),
                    TenantEvent::Update(SourceId(2 * t)),
                    TenantEvent::Query(dmv_query()),
                ]
            })
            .collect();
        let config = ServerConfig {
            pace: Some(0.01),
            ..ServerConfig::with_workers(2)
        };
        assert!(config.share);
        (tenants, config)
    }

    /// The server's own log certifies as written, and each certificate
    /// rejects its mutant of it with its own error text.
    #[test]
    fn a_live_server_log_certifies_and_rejects_its_mutants() {
        let sources = dmv_sources(Capabilities::full());
        let (tenants, config) = shared_run();
        let report = serve(&sources, &net, Some(1000.0), &tenants, &config).unwrap();
        let log = report.log;
        let n_shards = config.n_shards;
        verify_server_log(&log, n_shards).unwrap();
        assert!(verify_share_windows(&log).unwrap() > 0, "nothing shared");
        assert_eq!(report.commuting_pairs, disjoint_pairs_one_by_one(&log));
        assert!(report.commuting_pairs > 0, "the two bumps commute");

        // Re-ticket two ops that share a shard, inverting their order.
        let (i, j) = (0..log.len())
            .flat_map(|i| (i + 1..log.len()).map(move |j| (i, j)))
            .find(|&(i, j)| {
                log[i]
                    .shard_seqs
                    .iter()
                    .any(|&(k, s)| log[j].shard_seqs.iter().any(|&(kj, sj)| kj == k && sj > s))
            })
            .expect("two ops share a shard");
        let mut inverted = log.clone();
        inverted[i].ticket = log[j].ticket;
        inverted[j].ticket = log[i].ticket;
        let err = verify_server_log(&inverted, n_shards).unwrap_err();
        assert!(
            err.to_string().contains("not a valid linearization"),
            "{err}"
        );

        // Drop one shard from one admission.
        let mut partial = log.clone();
        let a = partial
            .iter()
            .position(|op| matches!(op.kind, OpKind::Admit { .. }))
            .unwrap();
        partial[a].shard_seqs.pop();
        let err = verify_server_log(&partial, n_shards).unwrap_err();
        assert!(err.to_string().contains("hold all"), "{err}");

        // Point one share at a later admission.
        let mut later = log.clone();
        let last_admit = log
            .iter()
            .filter(|op| matches!(op.kind, OpKind::Admit { .. }))
            .map(|op| op.ticket)
            .max()
            .unwrap();
        let share = later
            .iter_mut()
            .find_map(|op| match &mut op.kind {
                OpKind::Admit { shares, .. } if op.ticket < last_admit => shares.first_mut(),
                _ => None,
            })
            .expect("a share before the last admission");
        share.leader = last_admit;
        let err = verify_share_windows(&later).unwrap_err();
        assert!(err.to_string().contains("earlier admissions"), "{err}");
    }

    /// Replay re-decides every admission's shares through its own share
    /// table, so the live log replays with parity and each malformed
    /// mutant of it is rejected with its error text — never a panic.
    #[test]
    fn replay_rejects_malformed_logs_with_typed_errors() {
        let sources = dmv_sources(Capabilities::full());
        let (tenants, config) = shared_run();
        let report = serve(&sources, &net, Some(1000.0), &tenants, &config).unwrap();
        let replay =
            |log: &[LoggedOp]| replay_serial(&sources, &net, Some(1000.0), &tenants, &config, log);
        let (replayed, fp) = replay(&report.log).unwrap();
        verify_replay_parity(&report, &replayed, &fp).unwrap();

        let log = report.log;
        let sharer = log
            .iter()
            .position(|op| matches!(&op.kind, OpKind::Admit { shares, .. } if !shares.is_empty()))
            .expect("nothing shared");
        let admit = log
            .iter()
            .position(|op| matches!(op.kind, OpKind::Admit { .. }))
            .unwrap();
        let commit = log
            .iter()
            .position(|op| matches!(op.kind, OpKind::Commit { .. }))
            .expect("nothing committed");
        let unheld = log.iter().map(|op| op.ticket).max().unwrap() + 1;
        let mutant = |at: usize, edit: &dyn Fn(&mut OpKind)| {
            let mut log = log.clone();
            edit(&mut log[at].kind);
            log
        };
        let shares = |edit: fn(&mut Vec<ShareRef>, u64)| {
            mutant(sharer, &|kind: &mut OpKind| {
                if let OpKind::Admit { shares, .. } = kind {
                    edit(shares, unheld);
                }
            })
        };
        let mut twice = log.clone();
        twice.push(LoggedOp {
            ticket: unheld,
            ..log[commit].clone()
        });
        for (bad, expected) in [
            (shares(|s, _| s[0].step = 99), "shares diverged"),
            (shares(|s, t| s[0].leader = t), "shares diverged"),
            (
                shares(|s, _| {
                    s.pop();
                }),
                "shares diverged",
            ),
            (
                mutant(commit, &|kind: &mut OpKind| {
                    if let OpKind::Commit { admit_ticket, .. } = kind {
                        *admit_ticket = unheld;
                    }
                }),
                "precedes its admission",
            ),
            (twice, "precedes its admission"),
            (
                mutant(admit, &|kind: &mut OpKind| {
                    if let OpKind::Admit { index, .. } = kind {
                        *index = 1;
                    }
                }),
                "is not a query event",
            ),
            (
                mutant(admit, &|kind: &mut OpKind| {
                    if let OpKind::Admit { tenant, .. } = kind {
                        *tenant = 2;
                    }
                }),
                "unknown event",
            ),
        ] {
            let err = replay(&bad).unwrap_err();
            assert!(err.to_string().contains(expected), "{expected}: {err}");
        }
    }
}
