//! Wire-size estimation for the messages fusion query processing ships.

use fusion_types::{Condition, ItemSet, Relation, Tuple};

/// Fixed envelope size of any request or response (headers, framing).
pub const ENVELOPE_BYTES: usize = 64;

/// Estimates the wire size of the message kinds exchanged between the
/// mediator and sources.
///
/// These estimates feed both the *actual* cost accounting during execution
/// and the optimizer's *estimated* costs, so they live in one place.
#[derive(Debug, Clone, Copy, Default)]
pub struct MessageSize;

impl MessageSize {
    /// Request bytes of a selection query `sq(c, R)`.
    pub fn sq_request(cond: &Condition) -> usize {
        ENVELOPE_BYTES + cond.pred.wire_size()
    }

    /// Request bytes of a semijoin query `sjq(c, R, X)`: condition text
    /// plus the serialized semijoin set.
    pub fn sjq_request(cond: &Condition, bindings: &ItemSet) -> usize {
        ENVELOPE_BYTES + cond.pred.wire_size() + bindings.wire_size()
    }

    /// Request bytes of a semijoin request carrying an *estimated* number
    /// of items (optimizer-side mirror of [`MessageSize::sjq_request`]).
    pub fn sjq_request_estimated(cond: &Condition, est_items: f64, item_bytes: f64) -> f64 {
        (ENVELOPE_BYTES + cond.pred.wire_size()) as f64 + est_items.max(0.0) * item_bytes
    }

    /// Request bytes of a full-load query `lq(R)`.
    pub fn lq_request() -> usize {
        ENVELOPE_BYTES
    }

    /// Response bytes carrying an item set.
    pub fn items_response(items: &ItemSet) -> usize {
        ENVELOPE_BYTES + items.wire_size()
    }

    /// Response bytes carrying an *estimated* number of items.
    pub fn items_response_estimated(est_items: f64, item_bytes: f64) -> f64 {
        ENVELOPE_BYTES as f64 + est_items.max(0.0) * item_bytes
    }

    /// Response bytes carrying full tuples (for `lq` and two-phase fetch).
    pub fn tuples_response(tuples: &[Tuple]) -> usize {
        MessageSize::records_response(tuples.iter().map(Tuple::wire_size).sum())
    }

    /// [`MessageSize::tuples_response`] of records whose
    /// [`Tuple::wire_size`]s are already summed to `wire_bytes` — by a
    /// cache harvest, which weighs its entry by the same sum.
    pub fn records_response(wire_bytes: usize) -> usize {
        ENVELOPE_BYTES + wire_bytes
    }

    /// Response bytes if an entire relation is shipped.
    pub fn relation_response(rel: &Relation) -> usize {
        ENVELOPE_BYTES + rel.wire_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_types::{tuple, Predicate};

    #[test]
    fn request_sizes_scale_with_payload() {
        let cond: Condition = Predicate::eq("V", "dui").into();
        let small = ItemSet::from_items(["a"]);
        let big = ItemSet::from_items(["aaaa", "bbbb", "cccc"]);
        assert!(MessageSize::sq_request(&cond) >= ENVELOPE_BYTES);
        assert!(MessageSize::sjq_request(&cond, &small) < MessageSize::sjq_request(&cond, &big));
        assert_eq!(
            MessageSize::sjq_request(&cond, &ItemSet::empty()),
            MessageSize::sq_request(&cond)
        );
    }

    #[test]
    fn estimated_mirrors_actual_for_uniform_items() {
        let cond: Condition = Predicate::eq("V", "dui").into();
        let items = ItemSet::from_items(["aaa", "bbb", "ccc"]);
        let item_bytes = items.wire_size() as f64 / items.len() as f64;
        let actual = MessageSize::sjq_request(&cond, &items) as f64;
        let est = MessageSize::sjq_request_estimated(&cond, items.len() as f64, item_bytes);
        assert!((actual - est).abs() < 1e-9);
    }

    #[test]
    fn tuple_and_relation_responses() {
        let tuples = vec![tuple!["J55", "dui", 1993i64]];
        let sz = MessageSize::tuples_response(&tuples);
        assert_eq!(sz, ENVELOPE_BYTES + tuples[0].wire_size());
        assert_eq!(sz, MessageSize::records_response(tuples[0].wire_size()));
    }

    #[test]
    fn negative_estimates_clamp_to_zero() {
        let cond: Condition = Predicate::eq("V", "dui").into();
        let base = (ENVELOPE_BYTES + cond.pred.wire_size()) as f64;
        assert_eq!(MessageSize::sjq_request_estimated(&cond, -5.0, 8.0), base);
        assert_eq!(
            MessageSize::items_response_estimated(-1.0, 8.0),
            ENVELOPE_BYTES as f64
        );
    }
}
