//! Permutation enumeration for the condition orderings of loop A.

/// Calls `f` once per permutation of `0..m`, using Heap's algorithm
/// (no per-permutation allocation).
///
/// The SJ and SJA algorithms iterate "for every ordering
/// `[c_{o_1}, ..., c_{o_m}]` of the conditions" (Figures 3–4); `m` is the
/// number of query conditions, which the paper argues is small in
/// realistic scenarios.
pub(crate) fn for_each_permutation<F: FnMut(&[usize])>(m: usize, mut f: F) {
    if m == 0 {
        return;
    }
    let mut items: Vec<usize> = (0..m).collect();
    let mut c = vec![0usize; m];
    f(&items);
    let mut i = 0;
    while i < m {
        if c[i] < i {
            if i % 2 == 0 {
                items.swap(0, i);
            } else {
                items.swap(c[i], i);
            }
            f(&items);
            c[i] += 1;
            i = 0;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn factorial(m: usize) -> f64 {
        (1..=m).fold(1.0, |acc, k| acc * k as f64)
    }

    #[test]
    fn generates_all_distinct_permutations() {
        for m in 1..=5 {
            let mut seen: HashSet<Vec<usize>> = HashSet::new();
            for_each_permutation(m, |p| {
                assert!(seen.insert(p.to_vec()), "duplicate permutation {p:?}");
            });
            assert_eq!(seen.len() as f64, factorial(m));
        }
    }

    #[test]
    fn zero_is_empty() {
        let mut called = false;
        for_each_permutation(0, |_| called = true);
        assert!(!called);
    }

    #[test]
    fn each_output_is_a_permutation() {
        for_each_permutation(4, |p| {
            let mut q = p.to_vec();
            q.sort_unstable();
            assert_eq!(q, vec![0, 1, 2, 3]);
        });
    }

    #[test]
    fn factorials() {
        assert_eq!(factorial(0), 1.0);
        assert_eq!(factorial(1), 1.0);
        assert_eq!(factorial(5), 120.0);
    }
}
