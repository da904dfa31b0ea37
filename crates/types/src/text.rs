//! Strings that keep short contents in place.
//!
//! Merge keys such as `E0001234`, `J55`, ISBNs and licence numbers are a
//! handful of bytes, yet every `∪`/`∩`/`−` step clones, compares and drops
//! them by the thousand. [`Text`] stores up to [`Text::INLINE_CAP`] bytes
//! inside the value itself, in two aligned machine words, so those
//! operations never reach the allocator or chase a pointer: a clone is a
//! plain copy of whole words and a comparison is two integer compares.
//! Longer strings live in a `Box<str>`.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

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

/// Invariant: `Inline` holds every string of at most `INLINE_CAP` bytes,
/// `Heap` only longer ones.
#[derive(Clone)]
enum Repr {
    Inline(Inline),
    Heap(Arc<str>),
}

/// A short string in two aligned words: the content in bytes `0..len`, zero
/// padding after it, and `len` (at most `INLINE_CAP`) in the last byte.
///
/// The alignment is what makes a copy cheap. It puts the buffer at offset
/// 8 of `Text` (and of `Value`), where the other variants keep their
/// payload, so the compiler moves any variant as whole 8-byte words; a
/// byte-aligned buffer starting next to the tag is instead cut at those
/// word boundaries and pieced together through overlapping narrow stores
/// and loads.
#[derive(Clone, Copy)]
#[repr(align(8))]
struct Inline([u8; 16]);

impl Inline {
    fn len(&self) -> usize {
        usize::from(self.0[Text::INLINE_CAP])
    }

    fn bytes(&self) -> &[u8] {
        &self.0[..self.len()]
    }

    /// The buffer as one big-endian integer — two machine words — which
    /// orders as the strings do. The zero padding sorts a proper prefix
    /// first, as `str` does; only a string that ends in NUL bytes has the
    /// same fifteen content bytes as its prefix, and then the length, the
    /// lowest byte, puts the shorter one — the prefix — first.
    fn key(&self) -> u128 {
        u128::from_be_bytes(self.0)
    }
}

impl Text {
    /// Longest string, in bytes, that is stored without an allocation:
    /// two words less the length byte. With the variant tag's word this
    /// makes `Text` as wide as a `String`.
    pub const INLINE_CAP: usize = 15;

    /// The contents as bytes.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline(s) => s.bytes(),
            Repr::Heap(s) => s.as_bytes(),
        }
    }

    /// The contents as a string slice.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline(s) => {
                std::str::from_utf8(s.bytes()).expect("Text is only ever built from a str")
            }
            Repr::Heap(s) => s,
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Inline(s) => s.len(),
            Repr::Heap(s) => s.len(),
        }
    }

    /// True for the empty string.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if the contents are stored inside the value (no allocation).
    pub fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline(_))
    }

    /// An inline string as the integer it compares by: the whole string,
    /// so `a.cmp(b) == a.inline_key().cmp(&b.inline_key())` exactly and
    /// [`Text::from_inline_key`] gives the string back. `None` for a
    /// heap string.
    #[inline]
    pub(crate) fn inline_key(&self) -> Option<u128> {
        match &self.0 {
            Repr::Inline(s) => Some(s.key()),
            Repr::Heap(_) => None,
        }
    }

    /// The inline string `key` was taken from by [`Text::inline_key`]
    /// (any other integer breaks the representation's invariant).
    #[inline]
    pub(crate) fn from_inline_key(key: u128) -> Text {
        Text(Repr::Inline(Inline(key.to_be_bytes())))
    }
}

impl From<&str> for Text {
    fn from(s: &str) -> Text {
        if s.len() <= Text::INLINE_CAP {
            let mut buf = [0u8; 16];
            buf[..s.len()].copy_from_slice(s.as_bytes());
            buf[Text::INLINE_CAP] = s.len() as u8;
            Text(Repr::Inline(Inline(buf)))
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
            Text(Repr::Heap(s.into()))
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
    #[inline]
    fn eq(&self, other: &Text) -> bool {
        match (&self.0, &other.0) {
            (Repr::Inline(a), Repr::Inline(b)) => a.0 == b.0,
            // An inline string is never as long as a heap one.
            (Repr::Heap(a), Repr::Heap(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Text {}

impl PartialOrd for Text {
    #[inline]
    fn partial_cmp(&self, other: &Text) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Text {
    #[inline]
    fn cmp(&self, other: &Text) -> Ordering {
        match (&self.0, &other.0) {
            (Repr::Inline(a), Repr::Inline(b)) => a.key().cmp(&b.key()),
            _ => self.as_bytes().cmp(other.as_bytes()),
        }
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
    /// multi-byte UTF-8, the 8-byte word seam, and both sides of the
    /// 15/16-byte inline limit — among them a 15-byte string ending in NUL
    /// beside its 14-byte prefix, and inline/heap pairs that share their
    /// first 15 bytes.
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
            "🦀🦀🦀abc",
            "🦀🦀🦀abcd",
            "🦀🦀🦀ab🦀",
            "🦀🦀🦀🦀",
            "abcdefghijklmn",
            "abcdefghijklmn\0",
            "abcdefghijklmn\0\0",
            "abcdefghijklmno",
            "abcdefghijklmnop",
            "abcdefghijklmno\0",
            "abcdefghijklmn\u{7f}",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        for n in [7, 8, 9, 14, 15, 16, 17, 22, 23, 64] {
            v.push("x".repeat(n));
            v.push(format!("{}y", "x".repeat(n - 1)));
        }
        v
    }

    #[test]
    fn inline_heap_boundary_is_15_bytes() {
        assert_eq!(Text::INLINE_CAP, 15);
        assert!(Text::from("x".repeat(15).as_str()).is_inline());
        assert!(!Text::from("x".repeat(16).as_str()).is_inline());
        assert!(Text::from("x".repeat(15)).is_inline());
        assert!(!Text::from("x".repeat(16)).is_inline());
        // 3 crabs + 3 ASCII = 15 bytes; one more byte spills, and so does
        // a character that starts inside the limit and ends past it.
        for (s, inline) in [
            ("🦀🦀🦀abc", true),
            ("🦀🦀🦀abcd", false),
            ("🦀🦀🦀ab🦀", false),
            ("ééééééé", true),
            ("éééééééa", true),
            ("éééééééé", false),
        ] {
            assert_eq!(Text::from(s).is_inline(), inline, "{s:?}");
            assert_eq!(Text::from(s.to_string()).is_inline(), inline, "{s:?}");
        }
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
        assert_eq!(std::mem::align_of::<Text>(), 8);
    }
}
