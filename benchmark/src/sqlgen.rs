//! SQL text for synthetic fusion queries.
//!
//! `FusionQuery::to_sql()` renders the paper's chained merge equality
//! (`u1.M = u2.M = u3.M`), which the parser rejects for three or more
//! variables (README, Findings). The scoreboard enters through SQL text,
//! so it writes the pairwise chain the parser does accept:
//! `u1.M = u2.M AND u2.M = u3.M`.

/// One condition of a synthetic query: `A{attr_no} < threshold`, on the
/// query variable at its position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cond {
    /// 1-based attribute number in the synthetic schema.
    pub attr_no: usize,
    pub threshold: i64,
}

/// The SQL text of the fusion query with the given conditions.
pub fn render(conds: &[Cond]) -> String {
    let m = conds.len();
    let from: Vec<String> = (1..=m).map(|i| format!("U u{i}")).collect();
    let mut terms: Vec<String> = (1..m).map(|i| format!("u{i}.M = u{}.M", i + 1)).collect();
    terms.extend(
        conds
            .iter()
            .enumerate()
            .map(|(i, c)| format!("u{}.A{} < {}", i + 1, c.attr_no, c.threshold)),
    );
    format!(
        "SELECT u1.M FROM {} WHERE {}",
        from.join(", "),
        terms.join(" AND ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{build_pool, WORKLOADS};
    use fusion::core::FusionQuery;
    use fusion::parse_fusion_query;
    use fusion::types::{CmpOp, Predicate};
    use fusion::workload::synth::synth_schema;

    /// The query [`render`]'s text must parse back to.
    fn query(conds: &[Cond]) -> FusionQuery {
        let conditions = conds
            .iter()
            .map(|c| Predicate::cmp(format!("A{}", c.attr_no), CmpOp::Lt, c.threshold).into())
            .collect();
        FusionQuery::new(synth_schema(), conditions).expect("synthetic conditions fit the schema")
    }

    #[test]
    fn renders_the_pairwise_chain() {
        let conds = [
            Cond {
                attr_no: 3,
                threshold: 1200,
            },
            Cond {
                attr_no: 1,
                threshold: 40,
            },
            Cond {
                attr_no: 8,
                threshold: 4500,
            },
        ];
        assert_eq!(
            render(&conds),
            "SELECT u1.M FROM U u1, U u2, U u3 \
             WHERE u1.M = u2.M AND u2.M = u3.M \
             AND u1.A3 < 1200 AND u2.A1 < 40 AND u3.A8 < 4500"
        );
        assert_eq!(
            render(&conds[..1]),
            "SELECT u1.M FROM U u1 WHERE u1.A3 < 1200"
        );
    }

    #[test]
    fn every_text_parses_back_to_its_query() {
        let schema = synth_schema();
        for m in 1..=6 {
            for seed in [41, 97] {
                let conds: Vec<Cond> = (0..m)
                    .map(|i| Cond {
                        attr_no: (i * 3 + seed as usize) % 8 + 1,
                        threshold: 100 * (i as i64 + 1) + seed,
                    })
                    .collect();
                let parsed = parse_fusion_query(&render(&conds), &schema).unwrap();
                assert_eq!(parsed.conditions(), query(&conds).conditions(), "m={m}");
            }
        }
        // And every text of every workload's pool, on two seeds.
        for spec in &WORKLOADS {
            for seed in [41, 97] {
                for q in build_pool(spec, seed) {
                    let parsed = parse_fusion_query(&q.sql, &schema).unwrap();
                    assert_eq!(parsed.conditions(), query(&q.conds).conditions());
                }
            }
        }
    }
}
