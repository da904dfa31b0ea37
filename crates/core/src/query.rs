//! The fusion query class (§2.2).

use fusion_types::error::{FusionError, Result};
use fusion_types::{Condition, ItemSet, Relation, Schema};

/// A fusion query over the union view `U = R_1 ∪ ... ∪ R_n`:
///
/// ```sql
/// SELECT u1.M
/// FROM U u1, ..., U um
/// WHERE u1.M = ... = um.M AND c1 AND ... AND cm
/// ```
///
/// where each `c_i` references only `u_i`. Semantically the answer is
///
/// ```text
/// ⋂_{i=1..m}  ⋃_{j=1..n}  { items satisfying c_i in R_j }
/// ```
#[derive(Debug, Clone)]
pub struct FusionQuery {
    schema: Schema,
    conditions: Vec<Condition>,
}

impl FusionQuery {
    /// Builds a fusion query, validating each condition against the common
    /// schema.
    ///
    /// # Errors
    /// Fails when there are no conditions or a condition references unknown
    /// attributes / mismatched types.
    pub fn new(schema: Schema, conditions: Vec<Condition>) -> Result<FusionQuery> {
        if conditions.is_empty() {
            return Err(FusionError::NotAFusionQuery {
                detail: "a fusion query needs at least one condition".into(),
            });
        }
        for (i, c) in conditions.iter().enumerate() {
            c.check(&schema).map_err(|e| FusionError::NotAFusionQuery {
                detail: format!("condition c{} invalid: {e}", i + 1),
            })?;
        }
        Ok(FusionQuery { schema, conditions })
    }

    /// The common schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The conditions `c_1..c_m`.
    pub fn conditions(&self) -> &[Condition] {
        &self.conditions
    }

    /// `m`, the number of conditions.
    pub fn m(&self) -> usize {
        self.conditions.len()
    }

    /// Reference semantics: evaluates the query directly over the source
    /// relations, with no plan. Used as ground truth in tests.
    ///
    /// # Errors
    /// Propagates predicate evaluation errors.
    pub fn naive_answer(&self, sources: &[Relation]) -> Result<ItemSet> {
        let mut answer: Option<ItemSet> = None;
        for cond in &self.conditions {
            let mut satisfied = ItemSet::empty();
            for rel in sources {
                satisfied = satisfied.union(&rel.select_items(cond)?.items);
            }
            answer = Some(match answer {
                None => satisfied,
                Some(acc) => acc.intersect(&satisfied),
            });
        }
        Ok(answer.expect("at least one condition"))
    }

    /// Renders the query in the paper's SQL form over the union view `U`,
    /// as text the `fusion-sql` parser reads back to the same conditions.
    pub fn to_sql(&self) -> String {
        let m = self.m();
        let merge = &self.schema.merge_attribute().name;
        let mut sql = format!("SELECT u1.{merge}\nFROM ");
        for i in 0..m {
            if i > 0 {
                sql.push_str(", ");
            }
            sql.push_str(&format!("U u{}", i + 1));
        }
        sql.push_str("\nWHERE ");
        // The merge equality as a pairwise chain: the paper's
        // `u1.M = u2.M = u3.M` is not SQL the parser accepts.
        for i in 1..m {
            sql.push_str(&format!("u{i}.{merge} = u{}.{merge} AND ", i + 1));
        }
        for (i, c) in self.conditions.iter().enumerate() {
            if i > 0 {
                sql.push_str(" AND ");
            }
            sql.push_str(&prefix_condition(&c.to_string(), i + 1));
        }
        sql
    }
}

/// Prefixes bare attribute references in a rendered condition with the
/// query variable `u{idx}`. Purely cosmetic, used by [`FusionQuery::to_sql`].
fn prefix_condition(cond: &str, idx: usize) -> String {
    // Tokens starting a word that are not keywords/literals get prefixed.
    let keywords = [
        "AND", "OR", "NOT", "BETWEEN", "IN", "LIKE", "IS", "NULL", "TRUE", "FALSE",
    ];
    let mut out = String::with_capacity(cond.len() + 8);
    let mut chars = cond.chars().peekable();
    let mut in_string = false;
    let mut word = String::new();
    let flush = |word: &mut String, out: &mut String| {
        if !word.is_empty() {
            let up = word.to_uppercase();
            if keywords.contains(&up.as_str())
                || word.chars().next().is_some_and(|c| c.is_ascii_digit())
            {
                out.push_str(word);
            } else {
                out.push_str(&format!("u{idx}.{word}"));
            }
            word.clear();
        }
    };
    while let Some(c) = chars.next() {
        if in_string {
            out.push(c);
            if c == '\'' {
                if chars.peek() == Some(&'\'') {
                    out.push(chars.next().expect("peeked"));
                } else {
                    in_string = false;
                }
            }
            continue;
        }
        if c == '\'' {
            flush(&mut word, &mut out);
            in_string = true;
            out.push(c);
        } else if c.is_alphanumeric() || c == '_' {
            word.push(c);
        } else {
            flush(&mut word, &mut out);
            out.push(c);
        }
    }
    flush(&mut word, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_types::schema::dmv_schema;
    use fusion_types::{tuple, Predicate};

    /// Figure 1 of the paper: three DMV relations.
    pub(super) fn figure1_sources() -> Vec<Relation> {
        let s = dmv_schema();
        vec![
            Relation::from_rows(
                s.clone(),
                vec![
                    tuple!["J55", "dui", 1993i64],
                    tuple!["T21", "sp", 1994i64],
                    tuple!["T80", "dui", 1993i64],
                ],
            ),
            Relation::from_rows(
                s.clone(),
                vec![
                    tuple!["T21", "dui", 1996i64],
                    tuple!["J55", "sp", 1996i64],
                    tuple!["T11", "sp", 1993i64],
                ],
            ),
            Relation::from_rows(
                s,
                vec![
                    tuple!["T21", "sp", 1993i64],
                    tuple!["S07", "sp", 1996i64],
                    tuple!["S07", "sp", 1993i64],
                ],
            ),
        ]
    }

    fn dmv_query() -> FusionQuery {
        FusionQuery::new(
            dmv_schema(),
            vec![
                Predicate::eq("V", "dui").into(),
                Predicate::eq("V", "sp").into(),
            ],
        )
        .unwrap()
    }

    #[test]
    fn figure1_answer_is_j55_and_t21() {
        // "the driver with license J55 satisfies this query", and T21 has
        // dui at R2 and sp at R1/R3.
        let ans = dmv_query().naive_answer(&figure1_sources()).unwrap();
        assert_eq!(ans, ItemSet::from_items(["J55", "T21"]));
    }

    #[test]
    fn single_condition_is_plain_union() {
        let q = FusionQuery::new(dmv_schema(), vec![Predicate::eq("V", "dui").into()]).unwrap();
        let ans = q.naive_answer(&figure1_sources()).unwrap();
        assert_eq!(ans, ItemSet::from_items(["J55", "T80", "T21"]));
    }

    #[test]
    fn unsatisfiable_condition_gives_empty_answer() {
        let q = FusionQuery::new(
            dmv_schema(),
            vec![
                Predicate::eq("V", "dui").into(),
                Predicate::eq("V", "no-such-violation").into(),
            ],
        )
        .unwrap();
        assert!(q.naive_answer(&figure1_sources()).unwrap().is_empty());
    }

    #[test]
    fn empty_conditions_rejected() {
        assert!(FusionQuery::new(dmv_schema(), vec![]).is_err());
    }

    #[test]
    fn invalid_condition_rejected() {
        let err =
            FusionQuery::new(dmv_schema(), vec![Predicate::eq("NOPE", 1i64).into()]).unwrap_err();
        assert!(matches!(err, FusionError::NotAFusionQuery { .. }));
    }

    #[test]
    fn to_sql_matches_paper_shape() {
        let sql = dmv_query().to_sql();
        assert_eq!(
            sql,
            "SELECT u1.L\nFROM U u1, U u2\nWHERE u1.L = u2.L AND u1.V = 'dui' AND u2.V = 'sp'"
        );
    }

    #[test]
    fn to_sql_chains_the_merge_equality_pairwise() {
        let conds = ["dui", "sp", "park"].map(|v| Predicate::eq("V", v).into());
        let q = FusionQuery::new(dmv_schema(), conds.to_vec()).unwrap();
        assert_eq!(
            q.to_sql(),
            "SELECT u1.L\nFROM U u1, U u2, U u3\nWHERE u1.L = u2.L AND u2.L = u3.L \
             AND u1.V = 'dui' AND u2.V = 'sp' AND u3.V = 'park'"
        );
    }

    #[test]
    fn to_sql_single_condition_has_no_merge_chain() {
        let q = FusionQuery::new(dmv_schema(), vec![Predicate::eq("V", "dui").into()]).unwrap();
        assert_eq!(q.to_sql(), "SELECT u1.L\nFROM U u1\nWHERE u1.V = 'dui'");
    }

    #[test]
    fn prefixing_leaves_keywords_and_literals_alone() {
        let got = prefix_condition("V = 'dui' AND D BETWEEN 1990 AND 1995", 2);
        assert_eq!(got, "u2.V = 'dui' AND u2.D BETWEEN 1990 AND 1995");
        let got = prefix_condition("V LIKE 'a''b%'", 1);
        assert_eq!(got, "u1.V LIKE 'a''b%'");
    }
}
