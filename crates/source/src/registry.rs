//! The set of sources participating in one fusion query.

use crate::wrapper::Wrapper;
use fusion_types::SourceId;

/// An ordered collection of wrappers, addressed by [`SourceId`].
pub struct SourceSet {
    wrappers: Vec<Box<dyn Wrapper>>,
}

impl SourceSet {
    /// Creates a source set.
    pub fn new(wrappers: Vec<Box<dyn Wrapper>>) -> SourceSet {
        SourceSet { wrappers }
    }

    /// Number of sources `n`.
    pub fn len(&self) -> usize {
        self.wrappers.len()
    }

    /// True if no sources are registered.
    pub fn is_empty(&self) -> bool {
        self.wrappers.is_empty()
    }

    /// The wrapper for `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn get(&self, id: SourceId) -> &dyn Wrapper {
        self.wrappers[id.0].as_ref()
    }

    /// Iterates `(id, wrapper)` pairs in order.
    pub fn iter(&self) -> impl Iterator<Item = (SourceId, &dyn Wrapper)> {
        self.wrappers
            .iter()
            .enumerate()
            .map(|(i, w)| (SourceId(i), w.as_ref()))
    }
}

impl std::fmt::Debug for SourceSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.wrappers.iter().map(|w| w.name()).collect();
        f.debug_struct("SourceSet")
            .field("sources", &names)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wrapper::InMemoryWrapper;
    use fusion_types::schema::dmv_schema;
    use fusion_types::{tuple, Relation};

    fn set() -> SourceSet {
        let r1 = Relation::from_rows(dmv_schema(), vec![tuple!["J55", "dui", 1993i64]]);
        let r2 = Relation::from_rows(dmv_schema(), vec![tuple!["T21", "sp", 1993i64]]);
        SourceSet::new(vec![
            Box::new(InMemoryWrapper::fully_capable("CA-DMV", r1)),
            Box::new(InMemoryWrapper::fully_capable("NV-DMV", r2)),
        ])
    }

    #[test]
    fn addressing_and_iteration() {
        let s = set();
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert_eq!(s.get(SourceId(0)).name(), "CA-DMV");
        assert_eq!(s.get(SourceId(1)).name(), "NV-DMV");
        let ids: Vec<SourceId> = s.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![SourceId(0), SourceId(1)]);
        let names: Vec<&str> = s.iter().map(|(_, w)| w.name()).collect();
        assert_eq!(names, vec!["CA-DMV", "NV-DMV"]);
    }

    #[test]
    fn debug_lists_names() {
        let dbg = format!("{:?}", set());
        assert!(dbg.contains("CA-DMV") && dbg.contains("NV-DMV"));
    }
}
