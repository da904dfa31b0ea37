//! `stale-cache-serve`: a plan step would consume a cache entry whose
//! source epoch has advanced since the plan was optimized.
//!
//! The cache-aware optimizer prices selections against a
//! [`CacheSnapshot`] taken at plan time. If a source's epoch then
//! advances (simulated update, fault recovery) before the plan runs,
//! any `sq` step the snapshot marked as warm is no longer backed by a
//! servable entry: executing the plan as priced would either serve
//! stale data or silently pay the cold price the optimizer assumed
//! away. Either way the plan should be re-optimized, so the finding is
//! an error.

use crate::cost::CacheSnapshot;
use fusion_core::analyze::{Diagnostic, Severity};
use fusion_core::plan::{Plan, Step};

/// Computes `stale-cache-serve` findings for a plan: every `sq` step
/// covered by `snapshot` whose source epoch in `current_epochs` differs
/// from the snapshot's epoch. Sources beyond either epoch vector are
/// treated as epoch 0.
pub fn stale_cache_findings(
    plan: &Plan,
    snapshot: &CacheSnapshot,
    current_epochs: &[u64],
) -> Vec<Diagnostic> {
    let at = |epochs: &[u64], j: usize| epochs.get(j).copied().unwrap_or(0);
    plan.steps
        .iter()
        .enumerate()
        .filter_map(|(t, s)| match s {
            Step::Sq { cond, source, .. } if snapshot.covers(*cond, *source) => {
                let then = at(snapshot.epochs(), source.0);
                let now = at(current_epochs, source.0);
                (now != then).then(|| Diagnostic {
                    rule: "stale-cache-serve",
                    severity: Severity::Error,
                    step: t + 1,
                    message: format!(
                        "consumes a cache entry for sq({cond}, {source}) planned at epoch \
                         {then}, but {source} is now at epoch {now}; re-optimize before serving",
                    ),
                })
            }
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_core::plan::SimplePlanSpec;

    fn covering_snapshot(plan: &Plan, n: usize, epochs: Vec<u64>) -> CacheSnapshot {
        let mut covered = vec![vec![false; n]; plan.n_conditions];
        for s in &plan.steps {
            if let Step::Sq { cond, source, .. } = s {
                covered[cond.0][source.0] = true;
            }
        }
        CacheSnapshot::new(covered, epochs)
    }

    #[test]
    fn fires_only_when_epoch_advanced() {
        let plan = SimplePlanSpec::filter(2, 2).build(2).unwrap();
        let snap = covering_snapshot(&plan, 2, vec![0, 0]);
        assert!(stale_cache_findings(&plan, &snap, &[0, 0]).is_empty());
        let findings = stale_cache_findings(&plan, &snap, &[0, 1]);
        assert!(!findings.is_empty());
        assert!(findings.iter().all(|d| d.rule == "stale-cache-serve"));
        assert!(findings.iter().all(|d| d.severity == Severity::Error));
        assert!(findings.iter().all(|d| d.message.contains("epoch 1")));
        // Only R2's steps fire.
        for d in &findings {
            assert!(d.message.contains("R2"), "{}", d.message);
        }
    }

    #[test]
    fn uncovered_steps_never_fire() {
        let plan = SimplePlanSpec::filter(2, 2).build(2).unwrap();
        let snap = CacheSnapshot::new(vec![vec![false; 2]; 2], vec![0; 2]);
        assert!(stale_cache_findings(&plan, &snap, &[9, 9]).is_empty());
    }

    #[test]
    fn registry_integration() {
        let plan = SimplePlanSpec::filter(2, 2).build(2).unwrap();
        let snap = covering_snapshot(&plan, 2, vec![0, 0]);
        let d = stale_cache_findings(&plan, &snap, &[1, 0]);
        assert!(d.iter().any(|d| d.rule == "stale-cache-serve"));
    }
}
