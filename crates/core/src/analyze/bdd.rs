//! A small hash-consed reduced ordered binary decision diagram (ROBDD).
//!
//! The semantic analyzer models every plan variable as a Boolean
//! function over atoms describing one hypothetical item (membership in
//! each source, satisfaction of each condition at each source, Bloom
//! collisions). ROBDDs give those functions a *canonical* form:
//! two plan expressions denote the same item set for every possible
//! world exactly when their root nodes coincide, so semantic equality —
//! the heart of the proof — is one pointer comparison, and a refutation
//! witness is one satisfying path through the XOR of two functions.

use std::collections::HashMap;

/// A Boolean variable, identified by its position in the global order
/// (smaller = closer to the root).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BVar(pub u32);

/// A node reference in a [`BddManager`]. `FALSE` and `TRUE` are the two
/// terminals; every other reference is an internal decision node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub u32);

/// The constant-false function.
pub const FALSE: NodeId = NodeId(0);
/// The constant-true function.
pub const TRUE: NodeId = NodeId(1);

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Node {
    var: BVar,
    /// Cofactor with `var = false`.
    lo: NodeId,
    /// Cofactor with `var = true`.
    hi: NodeId,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum BinOp {
    And,
    Or,
    Xor,
}

/// The shared store of hash-consed BDD nodes for one analysis.
#[derive(Debug, Default)]
pub struct BddManager {
    nodes: Vec<Node>,
    unique: HashMap<Node, NodeId>,
    bin_cache: HashMap<(BinOp, NodeId, NodeId), NodeId>,
    not_cache: HashMap<NodeId, NodeId>,
    n_vars: u32,
}

impl BddManager {
    /// Creates an empty manager.
    pub fn new() -> BddManager {
        BddManager {
            // Slots 0/1 are the terminals; their `Node` payloads are
            // placeholders that are never inspected.
            nodes: vec![
                Node {
                    var: BVar(u32::MAX),
                    lo: FALSE,
                    hi: FALSE,
                },
                Node {
                    var: BVar(u32::MAX),
                    lo: TRUE,
                    hi: TRUE,
                },
            ],
            unique: HashMap::new(),
            bin_cache: HashMap::new(),
            not_cache: HashMap::new(),
            n_vars: 0,
        }
    }

    /// Allocates the next variable in the global order.
    pub fn fresh_var(&mut self) -> BVar {
        let v = BVar(self.n_vars);
        self.n_vars += 1;
        v
    }

    /// Number of variables allocated so far.
    pub(crate) fn n_vars(&self) -> u32 {
        self.n_vars
    }

    /// The single-variable function `v`.
    pub fn var(&mut self, v: BVar) -> NodeId {
        self.mk(v, FALSE, TRUE)
    }

    fn level(&self, f: NodeId) -> u32 {
        if f == FALSE || f == TRUE {
            u32::MAX
        } else {
            self.nodes[f.0 as usize].var.0
        }
    }

    fn mk(&mut self, var: BVar, lo: NodeId, hi: NodeId) -> NodeId {
        if lo == hi {
            return lo;
        }
        let node = Node { var, lo, hi };
        if let Some(&id) = self.unique.get(&node) {
            return id;
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        self.unique.insert(node, id);
        id
    }

    fn apply(&mut self, op: BinOp, f: NodeId, g: NodeId) -> NodeId {
        // Terminal cases.
        match op {
            BinOp::And => {
                if f == FALSE || g == FALSE {
                    return FALSE;
                }
                if f == TRUE {
                    return g;
                }
                if g == TRUE || f == g {
                    return f;
                }
            }
            BinOp::Or => {
                if f == TRUE || g == TRUE {
                    return TRUE;
                }
                if f == FALSE {
                    return g;
                }
                if g == FALSE || f == g {
                    return f;
                }
            }
            BinOp::Xor => {
                if f == g {
                    return FALSE;
                }
                if f == FALSE {
                    return g;
                }
                if g == FALSE {
                    return f;
                }
                if f == TRUE {
                    return self.not(g);
                }
                if g == TRUE {
                    return self.not(f);
                }
            }
        }
        // Normalize commutative operands for cache hits.
        let key = if f.0 <= g.0 { (op, f, g) } else { (op, g, f) };
        if let Some(&cached) = self.bin_cache.get(&key) {
            return cached;
        }
        let (lf, lg) = (self.level(f), self.level(g));
        let top = lf.min(lg);
        let (f_lo, f_hi) = if lf == top {
            let n = self.nodes[f.0 as usize];
            (n.lo, n.hi)
        } else {
            (f, f)
        };
        let (g_lo, g_hi) = if lg == top {
            let n = self.nodes[g.0 as usize];
            (n.lo, n.hi)
        } else {
            (g, g)
        };
        let lo = self.apply(op, f_lo, g_lo);
        let hi = self.apply(op, f_hi, g_hi);
        let r = self.mk(BVar(top), lo, hi);
        self.bin_cache.insert(key, r);
        r
    }

    /// `f ∧ g`.
    pub fn and(&mut self, f: NodeId, g: NodeId) -> NodeId {
        self.apply(BinOp::And, f, g)
    }

    /// `f ∨ g`.
    pub fn or(&mut self, f: NodeId, g: NodeId) -> NodeId {
        self.apply(BinOp::Or, f, g)
    }

    /// `f ⊕ g` — nonempty exactly when `f` and `g` disagree somewhere.
    pub(crate) fn xor(&mut self, f: NodeId, g: NodeId) -> NodeId {
        self.apply(BinOp::Xor, f, g)
    }

    /// `¬f`.
    pub fn not(&mut self, f: NodeId) -> NodeId {
        if f == FALSE {
            return TRUE;
        }
        if f == TRUE {
            return FALSE;
        }
        if let Some(&cached) = self.not_cache.get(&f) {
            return cached;
        }
        let n = self.nodes[f.0 as usize];
        let lo = self.not(n.lo);
        let hi = self.not(n.hi);
        let r = self.mk(n.var, lo, hi);
        self.not_cache.insert(f, r);
        r
    }

    /// `f ∧ ¬g` (set difference on indicator functions).
    pub(crate) fn diff(&mut self, f: NodeId, g: NodeId) -> NodeId {
        let ng = self.not(g);
        self.and(f, ng)
    }

    /// True iff `f ⇒ g` (i.e. the item set of `f` is contained in that
    /// of `g` in every world).
    pub(crate) fn implies(&mut self, f: NodeId, g: NodeId) -> bool {
        self.diff(f, g) == FALSE
    }

    /// One satisfying assignment of `f` (values for the variables on the
    /// chosen root-to-`TRUE` path; variables not mentioned are don't-care
    /// and may be taken as `false`). `None` iff `f` is unsatisfiable.
    pub(crate) fn sat_one(&self, f: NodeId) -> Option<Vec<(BVar, bool)>> {
        if f == FALSE {
            return None;
        }
        let mut path = Vec::new();
        let mut cur = f;
        while cur != TRUE {
            let n = self.nodes[cur.0 as usize];
            // Prefer the low branch (fewer `true` atoms → smaller worlds)
            // unless it dead-ends.
            if n.lo != FALSE {
                path.push((n.var, false));
                cur = n.lo;
            } else {
                path.push((n.var, true));
                cur = n.hi;
            }
        }
        Some(path)
    }

    /// Evaluates `f` under a total assignment (indexed by variable).
    pub(crate) fn eval(&self, f: NodeId, assignment: &[bool]) -> bool {
        let mut cur = f;
        loop {
            if cur == TRUE {
                return true;
            }
            if cur == FALSE {
                return false;
            }
            let n = self.nodes[cur.0 as usize];
            cur = if assignment[n.var.0 as usize] {
                n.hi
            } else {
                n.lo
            };
        }
    }

    /// The set of variables `f` depends on.
    pub(crate) fn support(&self, f: NodeId) -> Vec<BVar> {
        let mut seen = std::collections::HashSet::new();
        let mut vars = std::collections::BTreeSet::new();
        let mut stack = vec![f];
        while let Some(id) = stack.pop() {
            if id == FALSE || id == TRUE || !seen.insert(id) {
                continue;
            }
            let n = self.nodes[id.0 as usize];
            vars.insert(n.var);
            stack.push(n.lo);
            stack.push(n.hi);
        }
        vars.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_and_variables() {
        let mut m = BddManager::new();
        let a = m.fresh_var();
        let fa = m.var(a);
        assert_ne!(fa, TRUE);
        assert_ne!(fa, FALSE);
        let not_fa = m.not(fa);
        let back = m.not(not_fa);
        assert_eq!(back, fa, "double negation is hash-consed away");
    }

    #[test]
    fn boolean_algebra_is_canonical() {
        let mut m = BddManager::new();
        let (a, b, c) = (m.fresh_var(), m.fresh_var(), m.fresh_var());
        let (fa, fb, fc) = (m.var(a), m.var(b), m.var(c));
        // Distributivity: a ∧ (b ∨ c) = (a ∧ b) ∨ (a ∧ c).
        let bc = m.or(fb, fc);
        let lhs = m.and(fa, bc);
        let ab = m.and(fa, fb);
        let ac = m.and(fa, fc);
        let rhs = m.or(ab, ac);
        assert_eq!(lhs, rhs);
        // De Morgan: ¬(a ∨ b) = ¬a ∧ ¬b.
        let aob = m.or(fa, fb);
        let l = m.not(aob);
        let na = m.not(fa);
        let nb = m.not(fb);
        let r = m.and(na, nb);
        assert_eq!(l, r);
        // Complement laws.
        let taut = m.or(fa, na);
        assert_eq!(taut, TRUE);
        let contra = m.and(fa, na);
        assert_eq!(contra, FALSE);
    }

    #[test]
    fn xor_and_witnesses() {
        let mut m = BddManager::new();
        let (a, b) = (m.fresh_var(), m.fresh_var());
        let (fa, fb) = (m.var(a), m.var(b));
        let ab = m.and(fa, fb);
        let ob = m.or(fa, fb);
        let d = m.xor(ab, ob);
        // and ≠ or exactly when the two variables differ.
        let witness = m.sat_one(d).expect("functions differ");
        let mut assignment = vec![false; m.n_vars() as usize];
        for (v, val) in witness {
            assignment[v.0 as usize] = val;
        }
        assert_ne!(m.eval(ab, &assignment), m.eval(ob, &assignment));
        let same = m.xor(ab, ab);
        assert_eq!(same, FALSE);
        assert!(m.sat_one(same).is_none());
    }

    #[test]
    fn implication_and_support() {
        let mut m = BddManager::new();
        let (a, b) = (m.fresh_var(), m.fresh_var());
        let (fa, fb) = (m.var(a), m.var(b));
        let ab = m.and(fa, fb);
        assert!(m.implies(ab, fa));
        assert!(!m.implies(fa, ab));
        assert_eq!(m.support(ab), vec![a, b]);
        // b cancels out of (a ∧ b) ∨ (a ∧ ¬b).
        let nb = m.not(fb);
        let anb = m.and(fa, nb);
        let just_a = m.or(ab, anb);
        assert_eq!(just_a, fa);
        assert_eq!(m.support(just_a), vec![a]);
    }

    #[test]
    fn eval_walks_assignments() {
        let mut m = BddManager::new();
        let vars: Vec<BVar> = (0..4).map(|_| m.fresh_var()).collect();
        let fs: Vec<NodeId> = vars.iter().map(|&v| m.var(v)).collect();
        // (v0 ∨ v1) ∧ (v2 ∨ v3): check against direct computation on all
        // 16 assignments.
        let a = m.or(fs[0], fs[1]);
        let b = m.or(fs[2], fs[3]);
        let f = m.and(a, b);
        for bits in 0..16u32 {
            let assignment: Vec<bool> = (0..4).map(|i| bits & (1 << i) != 0).collect();
            let expect = (assignment[0] || assignment[1]) && (assignment[2] || assignment[3]);
            assert_eq!(m.eval(f, &assignment), expect, "bits {bits:04b}");
        }
    }
}
