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

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

use crate::error::{ColumnarError, Result};

/// An immutable, order-preserving string dictionary (sorted, deduplicated),
/// its strings laid end to end in one buffer — wherever the heap stands
/// when it is built, a probe's binary search walks one allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrDict {
    /// Every string, in code order, end to end.
    bytes: String,
    /// `spans[c]`: where string `c` starts and ends in `bytes`.
    spans: Vec<(usize, usize)>,
}

impl StrDict {
    /// The dictionary of `strs`, already sorted and distinct.
    fn of_sorted<S: AsRef<str>>(strs: &[S]) -> StrDict {
        let mut bytes = String::with_capacity(strs.iter().map(|s| s.as_ref().len()).sum());
        let spans = (strs.iter())
            .map(|s| {
                bytes.push_str(s.as_ref());
                (bytes.len() - s.as_ref().len(), bytes.len())
            })
            .collect();
        StrDict { bytes, spans }
    }

    /// Build a dictionary from arbitrary strings (sorted + deduplicated).
    /// The inputs are sorted as given — borrowed, when they are `&str`s —
    /// and only the distinct ones are copied, end to end into one buffer
    /// sized to them.
    pub fn build<I, S>(strings: I) -> Arc<StrDict>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut input: Vec<S> = strings.into_iter().collect();
        input.sort_unstable_by(|a, b| a.as_ref().cmp(b.as_ref()));
        input.dedup_by(|a, b| a.as_ref() == b.as_ref());
        Arc::new(StrDict::of_sorted(&input))
    }

    /// The dictionary of a block's strings and each string's code in it —
    /// what [`StrDict::build`] and a [`StrDict::rank_of`] per string give,
    /// but the strings are told apart by hash, so only the distinct ones
    /// are sorted and each string is compared with none.
    pub(crate) fn code<S: AsRef<str>>(strs: &[S]) -> (Arc<StrDict>, Vec<u32>) {
        // codes in first-seen order, then remapped to their ranks
        let mut ids: HashMap<&str, u32> = HashMap::new();
        let mut distinct: Vec<(&str, u32)> = Vec::new();
        let mut codes: Vec<u32> = (strs.iter())
            .map(|s| {
                *ids.entry(s.as_ref()).or_insert_with(|| {
                    distinct.push((s.as_ref(), distinct.len() as u32));
                    distinct.len() as u32 - 1
                })
            })
            .collect();
        distinct.sort_unstable();
        let mut rank = vec![0u32; distinct.len()];
        for (r, &(_, id)) in distinct.iter().enumerate() {
            rank[id as usize] = r as u32;
        }
        codes.iter_mut().for_each(|c| *c = rank[*c as usize]);
        let sorted: Vec<&str> = distinct.into_iter().map(|(s, _)| s).collect();
        (Arc::new(StrDict::of_sorted(&sorted)), codes)
    }

    /// The sorted union of the codes `used` marks in each source
    /// dictionary, with each source's map from its codes to the union's (an
    /// unused code maps to 0). A k-way merge of the sorted sources: no
    /// string is sorted or searched again, and an unused one is skipped, not
    /// copied. A lone source whose every code is used is the union itself.
    pub(crate) fn merge(sources: &[(&Arc<StrDict>, Vec<bool>)]) -> (Arc<StrDict>, Vec<Vec<u32>>) {
        if let [(d, used)] = sources {
            if !used.contains(&false) {
                return ((*d).clone(), vec![(0..d.len() as u32).collect()]);
            }
        }
        // each source's next used code at or after `c`, as a heap entry
        let next = |i: usize, c: usize| {
            let (d, used) = &sources[i];
            (c..d.len())
                .find(|&c| used[c])
                .map(|c| Reverse((d.get(c as u32), i, c)))
        };
        let mut heap: BinaryHeap<_> = (0..sources.len()).filter_map(|i| next(i, 0)).collect();
        let mut maps: Vec<Vec<u32>> = sources.iter().map(|(d, _)| vec![0; d.len()]).collect();
        let mut strs: Vec<&str> = Vec::new();
        while let Some(Reverse((s, i, c))) = heap.pop() {
            if strs.last() != Some(&s) {
                strs.push(s);
            }
            maps[i][c] = strs.len() as u32 - 1;
            heap.extend(next(i, c + 1));
        }
        (Arc::new(StrDict::of_sorted(&strs)), maps)
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
        Ok(StrDict::of_sorted(&strs))
    }

    /// Number of distinct strings.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when the dictionary holds no strings (empty column).
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The string a code stands for. Panics on out-of-range codes — decode
    /// paths validate codes against `len()` before constructing coded
    /// vectors.
    pub fn get(&self, code: u32) -> &str {
        let (start, end) = self.spans[code as usize];
        &self.bytes[start..end]
    }

    /// `Ok(code)` of `s`, or `Err(rank)` where it would go.
    fn search(&self, s: &str) -> std::result::Result<usize, usize> {
        self.spans
            .binary_search_by(|&(start, end)| self.bytes[start..end].cmp(s))
    }

    /// The code of `s`, if present.
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.search(s).ok().map(|i| i as u32)
    }

    /// `(rank, exact)`: `rank` is the number of dictionary strings strictly
    /// less than `s`; `exact` is whether `s` itself is present (in which
    /// case `rank` is its code). This is the whole comparison interface a
    /// merge needs: an absent probe key still orders totally against every
    /// coded value through its rank.
    pub fn rank_of(&self, s: &str) -> (u32, bool) {
        match self.search(s) {
            Ok(i) => (i as u32, true),
            Err(i) => (i as u32, false),
        }
    }

    /// Iterate the strings in code order.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        (0..self.len()).map(|c| self.get(c as u32))
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
            let ord = match (
                (i < a.len()).then(|| a.get(i as u32)),
                (j < b.len()).then(|| b.get(j as u32)),
            ) {
                (Some(x), Some(y)) => x.cmp(y),
                (Some(_), None) => Ordering::Less,
                _ => Ordering::Greater,
            };
            let code = strs.len() as u32;
            if ord.is_le() {
                from_a.push(code);
                strs.push(a.get(i as u32));
                i += 1;
            }
            if ord.is_ge() {
                from_b.push(code);
                if ord.is_gt() {
                    strs.push(b.get(j as u32));
                }
                j += 1;
            }
        }
        let dict = match strs.len() {
            n if n == a.len() => a.clone(),
            n if n == b.len() => b.clone(),
            _ => Arc::new(StrDict::of_sorted(&strs)),
        };
        (dict, from_a, from_b)
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.bytes.len() + 24 * self.len()
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
    fn build_holds_only_the_distinct_strings() {
        // owned and borrowed inputs alike: the list the dictionary keeps
        // is sized by what survived the dedup, not by the input
        let owned: Vec<String> = (0..10_000).map(|i| format!("s{}", i % 3)).collect();
        let borrowed: Vec<&str> = owned.iter().map(String::as_str).collect();
        for d in [StrDict::build(owned.clone()), StrDict::build(borrowed)] {
            assert_eq!(d.iter().collect::<Vec<_>>(), ["s0", "s1", "s2"]);
            assert_eq!((d.spans.capacity(), d.bytes.capacity()), (3, 6));
        }
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

    /// `code` against `build` and a `rank_of` per string.
    fn assert_codes_like_build(strs: &[&str]) {
        let (d, codes) = StrDict::code(strs);
        let want = StrDict::build(strs);
        assert_eq!(d, want, "{strs:?}");
        let ranks: Vec<u32> = strs.iter().map(|s| want.rank_of(s).0).collect();
        assert_eq!(codes, ranks, "{strs:?}");
    }

    #[test]
    fn hash_coding_matches_build_and_rank() {
        assert_codes_like_build(&[]);
        assert_codes_like_build(&["", "b", "", "a", ""]);
        assert_codes_like_build(&["ü", "u", "é", "z", "ü", "日本", "e\u{301}"]);
        assert_codes_like_build(&["same"; 100]);
        let distinct: Vec<String> = (0..500).map(|i| format!("k{}", (i * 7919) % 500)).collect();
        assert_codes_like_build(&distinct.iter().map(String::as_str).collect::<Vec<_>>());
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..50 {
            let strs: Vec<String> = (0..1 + x % 64)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    ["", "a", "ab", "b", "ä", "\u{10ffff}"][(x % 6) as usize]
                        .repeat((x % 3) as usize)
                })
                .collect();
            assert_codes_like_build(&strs.iter().map(String::as_str).collect::<Vec<_>>());
        }
    }

    #[test]
    fn merge_is_the_sorted_union_of_the_used_codes_with_every_code_mapped() {
        let dicts = [
            StrDict::build(["b", "d"]),
            StrDict::build(["a", "d", "e"]),
            StrDict::build([""]),
            StrDict::build(["d"]),
            StrDict::build(["ü", "a", "c"]),
        ];
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for case in 0..200 {
            let n = case % (dicts.len() + 1);
            let sources: Vec<(&Arc<StrDict>, Vec<bool>)> = (dicts[..n].iter())
                .map(|d| {
                    let used = (0..d.len()).map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        case < 20 || !x.is_multiple_of(3)
                    });
                    (d, used.collect())
                })
                .collect();
            let (u, maps) = StrDict::merge(&sources);
            let used_strs = (sources.iter())
                .flat_map(|(d, used)| d.iter().zip(used).filter_map(|(s, &u)| u.then_some(s)));
            assert_eq!(*u, *StrDict::build(used_strs), "case {case}");
            assert_eq!(maps.len(), n);
            for ((d, used), map) in sources.iter().zip(&maps) {
                for (c, s) in d.iter().enumerate().filter(|&(c, _)| used[c]) {
                    assert_eq!(u.get(map[c]), s, "case {case}");
                }
            }
        }
        // a lone source used whole is the union itself
        let whole = [(&dicts[1], vec![true; 3])];
        assert!(Arc::ptr_eq(&StrDict::merge(&whole).0, &dicts[1]));
    }

    #[test]
    fn non_ascii_orders_bytewise() {
        let d = StrDict::build(["ü", "u", ""]);
        assert_eq!(d.rank_of("ü"), (d.code_of("ü").unwrap(), true));
    }
}
