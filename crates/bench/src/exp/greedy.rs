//! E7: greedy vs exact SJA — plan quality and optimizer runtime.

use crate::table::{fmt3, Table};
use fusion_core::greedy_sja;
use fusion_core::optimizer::{ordering_search, RoundRule};
use fusion_net::LinkProfile;
use fusion_source::ProcessingProfile;
use fusion_workload::synth::{synth_scenario, SynthSpec};
use fusion_workload::CapabilityMix;
use std::time::Instant;

/// E7: sweep the number of conditions and compare the exact SJA
/// (Figure 4's space, searched by `ordering_search` — `sja_optimal`
/// without the plan memo, so the time column is always a search's)
/// against the O(mn) greedy variant of \[24\].
///
/// Expectation: identical or near-identical plan costs on these
/// selectivity-driven workloads ("still find optimal plans under many
/// realistic cost models"). The "exact time" column is the search's, not
/// the m! enumeration's (E18 times that): seeded with the greedy
/// ordering, which is optimal here, it cuts nearly everything, so it
/// grows far slower than factorially while the greedy's stays flat.
pub fn e7_greedy() {
    let mut t = Table::new(
        "E7: greedy vs exact SJA (n=8; exact time = the bounded ordering search)",
        &[
            "m",
            "exact cost",
            "greedy cost",
            "quality",
            "exact time",
            "greedy time",
        ],
    );
    let sels = [0.02, 0.08, 0.15, 0.3, 0.45, 0.55, 0.65, 0.75];
    for m in 2..=8 {
        let spec = SynthSpec {
            n_sources: 8,
            domain_size: 50_000,
            rows_per_source: 1_000,
            seed: 7000 + m as u64,
            capability_mix: CapabilityMix::AllFull,
            link: Some(LinkProfile::Wan),
            processing: ProcessingProfile::indexed_db(),
        };
        let scenario = synth_scenario(&spec, &sels[..m]);
        let model = scenario.cost_model();
        let start = Instant::now();
        let (exact, _) = ordering_search(&model, RoundRule::PerSource);
        let exact_time = start.elapsed();
        let start = Instant::now();
        let greedy = greedy_sja(&model);
        let greedy_time = start.elapsed();
        t.row(vec![
            m.to_string(),
            fmt3(exact.cost.value()),
            fmt3(greedy.cost.value()),
            format!("{:.4}x", greedy.cost.value() / exact.cost.value()),
            format!("{:.2?}", exact_time),
            format!("{:.2?}", greedy_time),
        ]);
    }
    t.print();
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_core::sja_optimal;

    #[test]
    fn greedy_is_near_optimal_on_selectivity_driven_workloads() {
        let sels = [0.02, 0.08, 0.15, 0.3, 0.45];
        let spec = SynthSpec {
            n_sources: 8,
            domain_size: 50_000,
            rows_per_source: 1_000,
            seed: 7005,
            capability_mix: CapabilityMix::AllFull,
            link: Some(LinkProfile::Wan),
            processing: ProcessingProfile::indexed_db(),
        };
        let scenario = synth_scenario(&spec, &sels);
        let model = scenario.cost_model();
        let exact = sja_optimal(&model).cost.value();
        let greedy = greedy_sja(&model).cost.value();
        assert!(greedy <= exact * 1.05, "greedy {greedy} vs exact {exact}");
        assert!(greedy >= exact * (1.0 - 1e-9), "greedy cannot beat exact");
    }
}
