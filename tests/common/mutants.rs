//! The hand-broken plan corpus: correct 2-condition / 2-source plans of
//! each shape, and every named mutation of them the analyzer must refute.

use fusion::core::plan::{Plan, RelVar, Step, VarId};
use fusion::types::{CondId, SourceId};

/// A correct FILTER-shaped plan for 2 conditions over 2 sources:
/// `(sq(c1,R1) ∪ sq(c1,R2)) ∩ (sq(c2,R1) ∪ sq(c2,R2))`.
pub fn filter22() -> (Vec<Step>, VarId) {
    let steps = vec![
        Step::Sq {
            out: VarId(0),
            cond: CondId(0),
            source: SourceId(0),
        },
        Step::Sq {
            out: VarId(1),
            cond: CondId(0),
            source: SourceId(1),
        },
        Step::Union {
            out: VarId(2),
            inputs: vec![VarId(0), VarId(1)],
        },
        Step::Sq {
            out: VarId(3),
            cond: CondId(1),
            source: SourceId(0),
        },
        Step::Sq {
            out: VarId(4),
            cond: CondId(1),
            source: SourceId(1),
        },
        Step::Union {
            out: VarId(5),
            inputs: vec![VarId(3), VarId(4)],
        },
        Step::Intersect {
            out: VarId(6),
            inputs: vec![VarId(2), VarId(5)],
        },
    ];
    (steps, VarId(6))
}

/// A correct all-semijoin plan for 2 conditions over 2 sources (no final
/// re-intersection is needed: exact semijoins narrow their input).
pub fn semijoin22() -> (Vec<Step>, VarId) {
    let steps = vec![
        Step::Sq {
            out: VarId(0),
            cond: CondId(0),
            source: SourceId(0),
        },
        Step::Sq {
            out: VarId(1),
            cond: CondId(0),
            source: SourceId(1),
        },
        Step::Union {
            out: VarId(2),
            inputs: vec![VarId(0), VarId(1)],
        },
        Step::Sjq {
            out: VarId(3),
            cond: CondId(1),
            source: SourceId(0),
            input: VarId(2),
        },
        Step::Sjq {
            out: VarId(4),
            cond: CondId(1),
            source: SourceId(1),
            input: VarId(2),
        },
        Step::Union {
            out: VarId(5),
            inputs: vec![VarId(3), VarId(4)],
        },
    ];
    (steps, VarId(5))
}

/// A correct plan that loads `R1` and applies both conditions locally.
pub fn loaded22() -> (Vec<Step>, VarId) {
    let steps = vec![
        Step::Lq {
            out: RelVar(0),
            source: SourceId(0),
        },
        Step::LocalSq {
            out: VarId(0),
            cond: CondId(0),
            rel: RelVar(0),
        },
        Step::Sq {
            out: VarId(1),
            cond: CondId(0),
            source: SourceId(1),
        },
        Step::Union {
            out: VarId(2),
            inputs: vec![VarId(0), VarId(1)],
        },
        Step::LocalSq {
            out: VarId(3),
            cond: CondId(1),
            rel: RelVar(0),
        },
        Step::Sq {
            out: VarId(4),
            cond: CondId(1),
            source: SourceId(1),
        },
        Step::Union {
            out: VarId(5),
            inputs: vec![VarId(3), VarId(4)],
        },
        Step::Intersect {
            out: VarId(6),
            inputs: vec![VarId(2), VarId(5)],
        },
    ];
    (steps, VarId(6))
}

/// The hand-broken corpus: every named mutation of a correct plan that the
/// analyzer must refute. Each entry is (name, broken plan).
pub fn mutant_corpus() -> Vec<(&'static str, Plan)> {
    let mut mutants: Vec<(&'static str, Plan)> = Vec::new();
    let mut push = |name: &'static str, steps: Vec<Step>, result: VarId| {
        mutants.push((name, Plan::new(steps, result, 2, 2)));
    };

    // -- FILTER-shaped breakages ------------------------------------------
    let (f, fr) = filter22();
    {
        let mut s = f.clone();
        s[2] = Step::Union {
            out: VarId(2),
            inputs: vec![VarId(0)],
        };
        push("union-drops-source-round1", s, fr);
    }
    {
        let mut s = f.clone();
        s[5] = Step::Union {
            out: VarId(5),
            inputs: vec![VarId(4)],
        };
        push("union-drops-source-round2", s, fr);
    }
    {
        let mut s = f.clone();
        s[6] = Step::Intersect {
            out: VarId(6),
            inputs: vec![VarId(2)],
        };
        push("intersect-drops-condition", s, fr);
    }
    {
        let mut s = f.clone();
        s[6] = Step::Union {
            out: VarId(6),
            inputs: vec![VarId(2), VarId(5)],
        };
        push("final-intersect-becomes-union", s, fr);
    }
    {
        let mut s = f.clone();
        s[2] = Step::Intersect {
            out: VarId(2),
            inputs: vec![VarId(0), VarId(1)],
        };
        push("round-union-becomes-intersect", s, fr);
    }
    {
        let mut s = f.clone();
        s[1] = Step::Sq {
            out: VarId(1),
            cond: CondId(1),
            source: SourceId(1),
        };
        push("selection-queries-wrong-condition", s, fr);
    }
    {
        let mut s = f.clone();
        s[1] = Step::Sq {
            out: VarId(1),
            cond: CondId(0),
            source: SourceId(0),
        };
        push("selection-queries-wrong-source", s, fr);
    }
    push("result-is-intermediate-union", f.clone(), VarId(2));
    {
        let mut s = f.clone();
        s.push(Step::Intersect {
            out: VarId(7),
            inputs: vec![VarId(6), VarId(0)],
        });
        push("over-intersection-with-one-source", s, VarId(7));
    }
    {
        let mut s = f.clone();
        s.push(Step::Union {
            out: VarId(7),
            inputs: vec![VarId(6), VarId(3)],
        });
        push("over-union-inflates-result", s, VarId(7));
    }
    {
        let mut s = f.clone();
        s.push(Step::Diff {
            out: VarId(7),
            left: VarId(6),
            right: VarId(3),
        });
        push("spurious-difference-after-result", s, VarId(7));
    }
    {
        let mut s = f.clone();
        s[3] = Step::Sq {
            out: VarId(3),
            cond: CondId(0),
            source: SourceId(0),
        };
        s[4] = Step::Sq {
            out: VarId(4),
            cond: CondId(0),
            source: SourceId(1),
        };
        push("second-condition-never-queried", s, fr);
    }
    {
        let mut s = f.clone();
        s[6] = Step::Intersect {
            out: VarId(6),
            inputs: vec![VarId(2), VarId(2)],
        };
        push("intersect-operand-duplicated", s, fr);
    }
    {
        let mut s = f.clone();
        s[6] = Step::Intersect {
            out: VarId(6),
            inputs: vec![VarId(2), VarId(4)],
        };
        push("intersect-uses-raw-selection", s, fr);
    }
    {
        let mut s = f.clone();
        s[5] = Step::Union {
            out: VarId(5),
            inputs: vec![VarId(3), VarId(4), VarId(0)],
        };
        push("union-smuggles-foreign-operand", s, fr);
    }
    {
        let mut s = f;
        s[6] = Step::Diff {
            out: VarId(6),
            left: VarId(2),
            right: VarId(5),
        };
        push("intersect-becomes-difference", s, fr);
    }

    // -- semijoin-shaped breakages ----------------------------------------
    let (sj, sjr) = semijoin22();
    {
        let mut s = sj.clone();
        s[4] = Step::Sjq {
            out: VarId(4),
            cond: CondId(1),
            source: SourceId(1),
            input: VarId(0),
        };
        push("semijoin-input-narrowed", s, sjr);
    }
    {
        let mut s = sj.clone();
        s[3] = Step::Sq {
            out: VarId(3),
            cond: CondId(1),
            source: SourceId(0),
        };
        s[4] = Step::Sq {
            out: VarId(4),
            cond: CondId(1),
            source: SourceId(1),
        };
        push("semijoins-degraded-to-selections", s, sjr);
    }
    {
        let mut s = sj.clone();
        for (t, j) in [(3usize, 0usize), (4, 1)] {
            let (cond, source) = (CondId(1), SourceId(j));
            s[t] = Step::SjqBloom {
                out: VarId(t),
                cond,
                source,
                input: VarId(2),
                bits: 8,
            };
        }
        push("bloom-superset-never-reintersected", s, sjr);
    }
    {
        let mut s = sj;
        for (t, j) in [(3usize, 0usize), (4, 1)] {
            let (cond, source) = (CondId(1), SourceId(j));
            s[t] = Step::SjqBloom {
                out: VarId(t),
                cond,
                source,
                input: VarId(2),
                bits: 8,
            };
        }
        s.push(Step::Intersect {
            out: VarId(6),
            inputs: vec![VarId(5), VarId(0)],
        });
        push("bloom-reintersected-with-wrong-set", s, VarId(6));
    }

    // -- loaded-source breakages ------------------------------------------
    let (lq, lqr) = loaded22();
    {
        let mut s = lq.clone();
        s[4] = Step::LocalSq {
            out: VarId(3),
            cond: CondId(0),
            rel: RelVar(0),
        };
        push("local-selection-wrong-condition", s, lqr);
    }
    {
        let mut s = lq;
        s[0] = Step::Lq {
            out: RelVar(0),
            source: SourceId(1),
        };
        push("load-queries-wrong-source", s, lqr);
    }

    mutants
}
