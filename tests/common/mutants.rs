//! The hand-broken plan corpus: correct 2-condition / 2-source plans of
//! each shape, and every named mutation of them the analyzer must refute.

use fusion::core::plan::{Plan, RelVar, Step, VarId};
use fusion::types::{CondId, SourceId};

/// `sq(c, R)` into variable `out`.
pub fn sq(out: usize, cond: usize, source: usize) -> Step {
    let (out, cond, source) = (VarId(out), CondId(cond), SourceId(source));
    Step::Sq { out, cond, source }
}

/// `sjq(c, R, input)` into variable `out`.
pub fn sjq(out: usize, cond: usize, source: usize, input: usize) -> Step {
    let (out, cond, source, input) = (VarId(out), CondId(cond), SourceId(source), VarId(input));
    Step::Sjq {
        out,
        cond,
        source,
        input,
    }
}

fn vars(ids: &[usize]) -> Vec<VarId> {
    ids.iter().copied().map(VarId).collect()
}

/// The union of `inputs` into `out`.
pub fn union(out: usize, inputs: &[usize]) -> Step {
    let (out, inputs) = (VarId(out), vars(inputs));
    Step::Union { out, inputs }
}

/// The intersection of `inputs` into `out`.
pub fn intersect(out: usize, inputs: &[usize]) -> Step {
    let (out, inputs) = (VarId(out), vars(inputs));
    Step::Intersect { out, inputs }
}

/// `left − right` into `out`.
pub fn diff(out: usize, left: usize, right: usize) -> Step {
    let (out, left, right) = (VarId(out), VarId(left), VarId(right));
    Step::Diff { out, left, right }
}

fn lq(out: usize, source: usize) -> Step {
    let (out, source) = (RelVar(out), SourceId(source));
    Step::Lq { out, source }
}

fn local_sq(out: usize, cond: usize, rel: usize) -> Step {
    let (out, cond, rel) = (VarId(out), CondId(cond), RelVar(rel));
    Step::LocalSq { out, cond, rel }
}

/// The Bloom semijoins of round two of [`semijoin22`] (8-bit filters).
fn blooms(s: &mut [Step]) {
    for (t, j) in [(3usize, 0usize), (4, 1)] {
        let (out, cond, source, input) = (VarId(t), CondId(1), SourceId(j), VarId(2));
        let bits = 8;
        s[t] = Step::SjqBloom {
            out,
            cond,
            source,
            input,
            bits,
        };
    }
}

/// A correct FILTER-shaped plan for 2 conditions over 2 sources:
/// `(sq(c1,R1) ∪ sq(c1,R2)) ∩ (sq(c2,R1) ∪ sq(c2,R2))`.
pub fn filter22() -> (Vec<Step>, VarId) {
    let steps = vec![
        sq(0, 0, 0),
        sq(1, 0, 1),
        union(2, &[0, 1]),
        sq(3, 1, 0),
        sq(4, 1, 1),
        union(5, &[3, 4]),
        intersect(6, &[2, 5]),
    ];
    (steps, VarId(6))
}

/// A correct all-semijoin plan for 2 conditions over 2 sources (no final
/// re-intersection is needed: exact semijoins narrow their input).
pub fn semijoin22() -> (Vec<Step>, VarId) {
    let steps = vec![
        sq(0, 0, 0),
        sq(1, 0, 1),
        union(2, &[0, 1]),
        sjq(3, 1, 0, 2),
        sjq(4, 1, 1, 2),
        union(5, &[3, 4]),
    ];
    (steps, VarId(5))
}

/// A correct plan that loads `R1` and applies both conditions locally.
pub fn loaded22() -> (Vec<Step>, VarId) {
    let steps = vec![
        lq(0, 0),
        local_sq(0, 0, 0),
        sq(1, 0, 1),
        union(2, &[0, 1]),
        local_sq(3, 1, 0),
        sq(4, 1, 1),
        union(5, &[3, 4]),
        intersect(6, &[2, 5]),
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
    // `base` with the steps at the given indices replaced.
    let with = |base: &[Step], edits: Vec<(usize, Step)>| {
        let mut s = base.to_vec();
        for (i, step) in edits {
            s[i] = step;
        }
        s
    };
    // `base` with one step appended.
    let plus = |base: &[Step], step: Step| [base.to_vec(), vec![step]].concat();

    // -- FILTER-shaped breakages ------------------------------------------
    let (f, fr) = filter22();
    let e = |i, step| with(&f, vec![(i, step)]);
    push("union-drops-source-round1", e(2, union(2, &[0])), fr);
    push("union-drops-source-round2", e(5, union(5, &[4])), fr);
    push("intersect-drops-condition", e(6, intersect(6, &[2])), fr);
    push("final-intersect-becomes-union", e(6, union(6, &[2, 5])), fr);
    push(
        "round-union-becomes-intersect",
        e(2, intersect(2, &[0, 1])),
        fr,
    );
    push("selection-queries-wrong-condition", e(1, sq(1, 1, 1)), fr);
    push("selection-queries-wrong-source", e(1, sq(1, 0, 0)), fr);
    push("result-is-intermediate-union", f.clone(), VarId(2));
    let over = plus(&f, intersect(7, &[6, 0]));
    push("over-intersection-with-one-source", over, VarId(7));
    push(
        "over-union-inflates-result",
        plus(&f, union(7, &[6, 3])),
        VarId(7),
    );
    push(
        "spurious-difference-after-result",
        plus(&f, diff(7, 6, 3)),
        VarId(7),
    );
    let never = with(&f, vec![(3, sq(3, 0, 0)), (4, sq(4, 0, 1))]);
    push("second-condition-never-queried", never, fr);
    push(
        "intersect-operand-duplicated",
        e(6, intersect(6, &[2, 2])),
        fr,
    );
    push(
        "intersect-uses-raw-selection",
        e(6, intersect(6, &[2, 4])),
        fr,
    );
    push(
        "union-smuggles-foreign-operand",
        e(5, union(5, &[3, 4, 0])),
        fr,
    );
    push("intersect-becomes-difference", e(6, diff(6, 2, 5)), fr);

    // -- semijoin-shaped breakages ----------------------------------------
    let (sj, sjr) = semijoin22();
    push(
        "semijoin-input-narrowed",
        with(&sj, vec![(4, sjq(4, 1, 1, 0))]),
        sjr,
    );
    let degraded = with(&sj, vec![(3, sq(3, 1, 0)), (4, sq(4, 1, 1))]);
    push("semijoins-degraded-to-selections", degraded, sjr);
    let mut bloomed = sj;
    blooms(&mut bloomed);
    push("bloom-superset-never-reintersected", bloomed.clone(), sjr);
    let wrong = plus(&bloomed, intersect(6, &[5, 0]));
    push("bloom-reintersected-with-wrong-set", wrong, VarId(6));

    // -- loaded-source breakages ------------------------------------------
    let (lq_plan, lqr) = loaded22();
    let wrong_cond = with(&lq_plan, vec![(4, local_sq(3, 0, 0))]);
    push("local-selection-wrong-condition", wrong_cond, lqr);
    push(
        "load-queries-wrong-source",
        with(&lq_plan, vec![(0, lq(0, 1))]),
        lqr,
    );

    mutants
}
