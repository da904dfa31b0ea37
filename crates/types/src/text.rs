//! Strings that keep short contents in place.
//!
//! Merge keys such as `E0001234`, `J55`, ISBNs and licence numbers are a
//! handful of bytes, yet every `∪`/`∩`/`−` step clones, compares and drops
//! them by the thousand. [`Text`] stores up to [`Text::INLINE_CAP`] bytes
//! inside the value itself, so those operations never reach the allocator
//! or chase a pointer; longer strings live in a `Box<str>`.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

/// An immutable UTF-8 string, stored inline when short.
///
/// Ordering, equality, hashing and length read the bytes directly and
/// agree exactly with `str`: `Ord` is byte-lexicographic and `Hash` feeds
/// the hasher what `str::hash` feeds it (Bloom filters and fingerprints
/// depend on that). The `str` view ([`Text::as_str`], `Deref`) re-checks
/// the inline bytes as UTF-8 — safe code has no unchecked view — so it is
/// meant for display and pattern matching, not for merge loops.
#[derive(Clone)]
pub struct Text(Repr);

/// Invariant: `Inline` holds every string of at most `INLINE_CAP` bytes
/// (`len` of them, the rest of `buf` zero), `Heap` only longer ones.
#[derive(Clone)]
enum Repr {
    Inline {
        len: u8,
        buf: [u8; Text::INLINE_CAP],
    },
    Heap(Box<str>),
}

impl Text {
    /// Longest string, in bytes, that is stored without an allocation.
    /// With the length byte and the variant tag this makes `Text` as wide
    /// as a `String`.
    pub const INLINE_CAP: usize = 22;

    /// The contents as bytes.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..usize::from(*len)],
            Repr::Heap(s) => s.as_bytes(),
        }
    }

    /// The contents as a string slice.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, buf } => std::str::from_utf8(&buf[..usize::from(*len)])
                .expect("Text is only ever built from a str"),
            Repr::Heap(s) => s,
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Inline { len, .. } => usize::from(*len),
            Repr::Heap(s) => s.len(),
        }
    }

    /// True for the empty string.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if the contents are stored inside the value (no allocation).
    pub fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline { .. })
    }
}

impl From<&str> for Text {
    fn from(s: &str) -> Text {
        if s.len() <= Text::INLINE_CAP {
            let mut buf = [0u8; Text::INLINE_CAP];
            buf[..s.len()].copy_from_slice(s.as_bytes());
            Text(Repr::Inline {
                len: s.len() as u8,
                buf,
            })
        } else {
            Text(Repr::Heap(s.into()))
        }
    }
}

impl From<String> for Text {
    fn from(s: String) -> Text {
        if s.len() <= Text::INLINE_CAP {
            Text::from(s.as_str())
        } else {
            Text(Repr::Heap(s.into_boxed_str()))
        }
    }
}

impl Deref for Text {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for Text {
    fn eq(&self, other: &Text) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Text {}

impl PartialOrd for Text {
    fn partial_cmp(&self, other: &Text) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Text {
    fn cmp(&self, other: &Text) -> Ordering {
        if let (Repr::Inline { len: la, buf: a }, Repr::Inline { len: lb, buf: b }) =
            (&self.0, &other.0)
        {
            // Two inline strings compare as their zero-padded buffers: the
            // padding sorts a proper prefix first, as `str` does, and only
            // a string that ends in NUL bytes ties with its prefix — then
            // the shorter one is the prefix. The first eight bytes go as
            // one big-endian integer, which settles almost every pair of
            // distinct short keys without a call to `memcmp`.
            let head = |x: &[u8; Text::INLINE_CAP]| {
                u64::from_be_bytes([x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7]])
            };
            return head(a)
                .cmp(&head(b))
                .then_with(|| a[8..].cmp(&b[8..]))
                .then(la.cmp(lb));
        }
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl Hash for Text {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // What `str::hash` does: the bytes, then a 0xff terminator.
        state.write(self.as_bytes());
        state.write_u8(0xff);
    }
}

impl fmt::Display for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    /// Strings around every boundary the representation has: empty,
    /// prefixes of one another, an embedded NUL (the inline padding byte),
    /// multi-byte UTF-8, and both sides of the 22/23-byte inline limit.
    fn samples() -> Vec<String> {
        let mut v: Vec<String> = [
            "",
            "\0",
            "a",
            "a\0",
            "ab",
            "b",
            "E0001234",
            "E0001234a",
            "E0001234b",
            "E0001235",
            "E000123",
            "E0001234\0",
            "J55",
            "é",
            "éa",
            "日本語のテキスト",
            "zß水🦀",
            "🦀🦀🦀🦀🦀a",
            "🦀🦀🦀🦀🦀ab",
            "🦀🦀🦀🦀🦀🦀",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        for n in [21, 22, 23, 24, 64] {
            v.push("x".repeat(n));
            v.push(format!("{}y", "x".repeat(n - 1)));
        }
        v
    }

    #[test]
    fn inline_heap_boundary_is_22_bytes() {
        assert!(Text::from("x".repeat(22).as_str()).is_inline());
        assert!(!Text::from("x".repeat(23).as_str()).is_inline());
        assert!(Text::from("x".repeat(22)).is_inline());
        assert!(!Text::from("x".repeat(23)).is_inline());
        // 5 crabs + 2 ASCII = 22 bytes; one more byte spills.
        assert!(Text::from("🦀🦀🦀🦀🦀ab").is_inline());
        assert!(!Text::from("🦀🦀🦀🦀🦀abc").is_inline());
        assert!(Text::from("").is_inline());
        assert!(Text::from("").is_empty());
    }

    #[test]
    fn round_trips_and_views_agree_with_str() {
        for s in samples() {
            for t in [Text::from(s.as_str()), Text::from(s.clone())] {
                assert_eq!(t.as_str(), s);
                assert_eq!(&*t, s.as_str());
                assert_eq!(t.as_bytes(), s.as_bytes());
                assert_eq!(t.len(), s.len());
                assert_eq!(t.is_inline(), s.len() <= Text::INLINE_CAP);
                assert_eq!(t.to_string(), s);
                assert_eq!(format!("{t:?}"), format!("{s:?}"));
                assert_eq!(t.clone(), t);
            }
        }
    }

    #[test]
    fn orders_and_compares_exactly_as_str() {
        let all = samples();
        for a in &all {
            for b in &all {
                let (ta, tb) = (Text::from(a.as_str()), Text::from(b.as_str()));
                assert_eq!(ta.cmp(&tb), a.as_str().cmp(b.as_str()), "{a:?} vs {b:?}");
                assert_eq!(ta == tb, a == b, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn hashes_exactly_as_str() {
        for s in samples() {
            assert_eq!(
                hash_of(&Text::from(s.as_str())),
                hash_of(s.as_str()),
                "{s:?}"
            );
        }
    }

    #[test]
    fn is_as_wide_as_a_string() {
        assert_eq!(std::mem::size_of::<Text>(), std::mem::size_of::<String>());
    }
}
