//! Per-column string dictionaries.
//!
//! A [`StrDict`] maps every distinct string of one stable-table column to a
//! dense `u32` code; a partitioned table has one per column per partition.
//! The dictionary is **order-preserving**: codes are
//! assigned in lexicographic order, so comparing two codes gives the same
//! answer as comparing the strings they stand for. That property is what
//! lets MergeScan compare sort keys and patch data columns entirely on
//! `u32`s ("Teaching an Old Elephant New Tricks" — compressed comparisons
//! replace string work), and what lets the executor compare a coded
//! column against a literal through the literal's rank, decoding nothing.
//!
//! Dictionaries are immutable and shared via [`Arc`]: a coded column vector
//! ([`crate::ColumnVec::Coded`]) carries the `Arc` of the dictionary its
//! codes refer to, and two coded vectors interoperate on the fast (pure
//! `u32`) path exactly when their `Arc`s are pointer-equal.

use std::cmp::Ordering;
use std::sync::Arc;

use crate::error::{ColumnarError, Result};

/// An immutable, order-preserving string dictionary (sorted, deduplicated).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrDict {
    strs: Vec<String>,
}

impl StrDict {
    /// Build a dictionary from arbitrary strings (sorted + deduplicated).
    pub fn build<I, S>(strings: I) -> Arc<StrDict>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut strs: Vec<String> = strings
            .into_iter()
            .map(|s| s.as_ref().to_string())
            .collect();
        strs.sort_unstable();
        strs.dedup();
        Arc::new(StrDict { strs })
    }

    /// Wrap an already sorted, duplicate-free list (image loading). Errors
    /// on out-of-order or duplicate entries — persisted dictionaries are
    /// untrusted bytes and an unsorted one would silently break every coded
    /// comparison.
    pub fn from_sorted(strs: Vec<String>) -> Result<StrDict> {
        if strs.len() > u32::MAX as usize {
            return Err(ColumnarError::Corrupt("dictionary too large".into()));
        }
        for w in strs.windows(2) {
            if w[0] >= w[1] {
                return Err(ColumnarError::Corrupt(
                    "dictionary not sorted/unique".into(),
                ));
            }
        }
        Ok(StrDict { strs })
    }

    /// Number of distinct strings.
    pub fn len(&self) -> usize {
        self.strs.len()
    }

    /// True when the dictionary holds no strings (empty column).
    pub fn is_empty(&self) -> bool {
        self.strs.is_empty()
    }

    /// The string a code stands for. Panics on out-of-range codes — decode
    /// paths validate codes against `len()` before constructing coded
    /// vectors.
    pub fn get(&self, code: u32) -> &str {
        &self.strs[code as usize]
    }

    /// The code of `s`, if present.
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.strs
            .binary_search_by(|probe| probe.as_str().cmp(s))
            .ok()
            .map(|i| i as u32)
    }

    /// `(rank, exact)`: `rank` is the number of dictionary strings strictly
    /// less than `s`; `exact` is whether `s` itself is present (in which
    /// case `rank` is its code). This is the whole comparison interface a
    /// merge needs: an absent probe key still orders totally against every
    /// coded value through its rank.
    pub fn rank_of(&self, s: &str) -> (u32, bool) {
        match self.strs.binary_search_by(|probe| probe.as_str().cmp(s)) {
            Ok(i) => (i as u32, true),
            Err(i) => (i as u32, false),
        }
    }

    /// Iterate the strings in code order.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.strs.iter().map(|s| s.as_str())
    }

    /// The sorted, deduplicated union of `a` and `b`, with the map from
    /// each one's codes to the union's. The union is order-preserving like
    /// its inputs, so codes recoded into it still compare as their
    /// strings. When one input already holds every string of the other,
    /// the union is that input's `Arc` itself.
    pub(crate) fn union(a: &Arc<StrDict>, b: &Arc<StrDict>) -> (Arc<StrDict>, Vec<u32>, Vec<u32>) {
        let (mut strs, mut from_a, mut from_b) = (Vec::new(), Vec::new(), Vec::new());
        let (mut i, mut j) = (0, 0);
        while i < a.len() || j < b.len() {
            let ord = match (a.strs.get(i), b.strs.get(j)) {
                (Some(x), Some(y)) => x.cmp(y),
                (Some(_), None) => Ordering::Less,
                _ => Ordering::Greater,
            };
            let code = strs.len() as u32;
            if ord.is_le() {
                from_a.push(code);
                strs.push(&a.strs[i]);
                i += 1;
            }
            if ord.is_ge() {
                from_b.push(code);
                if ord.is_gt() {
                    strs.push(&b.strs[j]);
                }
                j += 1;
            }
        }
        let dict = match strs.len() {
            n if n == a.len() => a.clone(),
            n if n == b.len() => b.clone(),
            _ => Arc::new(StrDict {
                strs: strs.into_iter().cloned().collect(),
            }),
        };
        (dict, from_a, from_b)
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.strs.iter().map(|s| s.len() + 24).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_sorts_and_dedups() {
        let d = StrDict::build(["b", "a", "b", ""]);
        assert_eq!(d.len(), 3);
        assert_eq!(d.get(0), "");
        assert_eq!(d.get(1), "a");
        assert_eq!(d.get(2), "b");
    }

    #[test]
    fn codes_preserve_order() {
        let d = StrDict::build(["kiwi", "apple", "mango"]);
        let a = d.code_of("apple").unwrap();
        let k = d.code_of("kiwi").unwrap();
        let m = d.code_of("mango").unwrap();
        assert!(a < k && k < m);
        assert_eq!(d.code_of("pear"), None);
    }

    #[test]
    fn rank_orders_absent_probes() {
        let d = StrDict::build(["b", "d"]);
        assert_eq!(d.rank_of("a"), (0, false));
        assert_eq!(d.rank_of("b"), (0, true));
        assert_eq!(d.rank_of("c"), (1, false));
        assert_eq!(d.rank_of("e"), (2, false));
    }

    #[test]
    fn from_sorted_rejects_disorder() {
        assert!(StrDict::from_sorted(vec!["b".into(), "a".into()]).is_err());
        assert!(StrDict::from_sorted(vec!["a".into(), "a".into()]).is_err());
        assert!(StrDict::from_sorted(vec!["a".into(), "b".into()]).is_ok());
    }

    #[test]
    fn union_merges_in_order_and_reuses_a_superset() {
        let (a, b) = (StrDict::build(["b", "d"]), StrDict::build(["a", "d", "e"]));
        let (u, from_a, from_b) = StrDict::union(&a, &b);
        assert_eq!(u.iter().collect::<Vec<_>>(), ["a", "b", "d", "e"]);
        assert_eq!((from_a, from_b), (vec![1, 2], vec![0, 2, 3]));
        let sub = StrDict::build(["d"]);
        let (u, _, from_sub) = StrDict::union(&b, &sub);
        assert!(Arc::ptr_eq(&u, &b) && from_sub == [1]);
        let (u, from_sub, _) = StrDict::union(&sub, &b);
        assert!(Arc::ptr_eq(&u, &b) && from_sub == [1]);
    }

    #[test]
    fn non_ascii_orders_bytewise() {
        let d = StrDict::build(["ü", "u", ""]);
        assert_eq!(d.rank_of("ü"), (d.code_of("ü").unwrap(), true));
    }
}
