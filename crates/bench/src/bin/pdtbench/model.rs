//! Harness-side models the verifiers compare the engine against: a seeded
//! generator, an order-statistic tree over key slots (which keys are live,
//! and at which visible position), and order-sensitive column checksums.

use columnar::{ColumnVec, Value};
use exec::{Batch, Operator};

/// splitmix64: every workload derives all of its inputs from `--seed`
/// through this generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A payload value no block encoding can shrink.
    pub fn payload(&mut self) -> i64 {
        (self.next_u64() >> 1) as i64
    }
}

/// The splitmix64 finalizer, also used as a stateless hash of a key.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Liveness of `n` key slots with prefix counts in O(log n): the visible
/// position (RID) of a key is the number of live slots before it.
pub struct SlotTree {
    tree: Vec<u32>,
    live: Vec<bool>,
}

impl SlotTree {
    /// `n` slots, slot `i` live iff `is_live(i)`.
    pub fn new(n: usize, is_live: impl Fn(usize) -> bool) -> SlotTree {
        let live: Vec<bool> = (0..n).map(is_live).collect();
        let mut tree = vec![0u32; n + 1];
        for i in 1..=n {
            tree[i] += live[i - 1] as u32;
            let parent = i + (i & i.wrapping_neg());
            if parent <= n {
                tree[parent] += tree[i];
            }
        }
        SlotTree { tree, live }
    }

    pub fn slots(&self) -> usize {
        self.live.len()
    }

    pub fn is_live(&self, slot: usize) -> bool {
        self.live[slot]
    }

    pub fn set(&mut self, slot: usize, live: bool) {
        if self.live[slot] == live {
            return;
        }
        self.live[slot] = live;
        let mut i = slot + 1;
        while i < self.tree.len() {
            if live {
                self.tree[i] += 1;
            } else {
                self.tree[i] -= 1;
            }
            i += i & i.wrapping_neg();
        }
    }

    /// Live slots in `[0, slot)` — the RID of `slot` when it is live.
    pub fn live_before(&self, slot: usize) -> u64 {
        let mut i = slot;
        let mut sum = 0u64;
        while i > 0 {
            sum += self.tree[i] as u64;
            i &= i - 1;
        }
        sum
    }

    #[cfg(test)]
    pub fn live_total(&self) -> u64 {
        self.live_before(self.slots())
    }

    /// The slot holding the `k`-th (0-based) live entry, or with
    /// `want_live = false` the `k`-th dead one. `k` must be in range.
    pub fn select(&self, k: u64, want_live: bool) -> usize {
        let n = self.slots();
        let mut pos = 0usize;
        let mut remaining = k;
        let mut step = n.next_power_of_two();
        while step > 0 {
            let next = pos + step;
            if next <= n {
                let live = self.tree[next] as u64;
                let here = if want_live { live } else { step as u64 - live };
                if here <= remaining {
                    remaining -= here;
                    pos = next;
                }
            }
            step >>= 1;
        }
        pos
    }

    /// A uniformly drawn slot of the wanted kind in `[lo, hi)`, or `None`
    /// when the range holds none.
    pub fn pick_in(&self, rng: &mut Rng, lo: usize, hi: usize, want_live: bool) -> Option<usize> {
        let count = |slot: usize| {
            let live = self.live_before(slot);
            if want_live {
                live
            } else {
                slot as u64 - live
            }
        };
        let (before, upto) = (count(lo), count(hi));
        (upto > before).then(|| self.select(before + rng.below(upto - before), want_live))
    }
}

/// Row count plus one order-sensitive wrapping checksum per column: two
/// images agree only if they hold the same values in the same order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub rows: u64,
    pub cols: Vec<u64>,
}

impl Fingerprint {
    pub fn new(ncols: usize) -> Fingerprint {
        Fingerprint {
            rows: 0,
            cols: vec![0; ncols],
        }
    }

    fn push(sum: &mut u64, v: u64) {
        *sum = sum.wrapping_mul(0x0000_0100_0000_01B3).wrapping_add(v);
    }

    pub fn push_int(&mut self, col: usize, v: i64) {
        Self::push(&mut self.cols[col], v as u64);
    }

    pub fn push_value(&mut self, col: usize, v: &Value) {
        let h = match v {
            Value::Null => 0,
            Value::Bool(b) => *b as u64,
            Value::Int(i) => *i as u64,
            Value::Double(d) => d.to_bits(),
            Value::Date(d) => *d as u64,
            Value::Str(s) => hash_str(s),
        };
        Self::push(&mut self.cols[col], h);
    }

    /// Fold one scan batch in (all of its columns, in projection order).
    pub fn push_batch(&mut self, batch: &Batch) {
        self.rows += batch.num_rows() as u64;
        for (c, col) in batch.cols.iter().enumerate() {
            match col {
                ColumnVec::Int(vals) => vals.iter().for_each(|&v| self.push_int(c, v)),
                other => {
                    for i in 0..other.len() {
                        self.push_value(c, &other.get(i));
                    }
                }
            }
        }
    }

    /// Drain a scan into a fingerprint of what it produced.
    pub fn of_scan(scan: &mut dyn Operator, ncols: usize) -> Fingerprint {
        let mut fp = Fingerprint::new(ncols);
        while let Some(batch) = scan.next_batch() {
            fp.push_batch(&batch);
        }
        fp
    }
}

/// FNV-1a over the string's bytes.
pub fn hash_str(s: &str) -> u64 {
    s.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        let mut c = Rng::new(8);
        let xs: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..4).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..4).map(|_| c.next_u64()).collect::<Vec<_>>());
        assert!((0..100).all(|_| a.below(10) < 10));
    }

    #[test]
    fn slot_tree_matches_a_plain_vector() {
        let n = 1000;
        let mut tree = SlotTree::new(n, |i| i % 2 == 0);
        let mut plain: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        let mut rng = Rng::new(3);
        for _ in 0..2000 {
            let slot = rng.below(n as u64) as usize;
            let live = rng.below(2) == 0;
            tree.set(slot, live);
            plain[slot] = live;
        }
        let live_slots: Vec<usize> = (0..n).filter(|&i| plain[i]).collect();
        let dead_slots: Vec<usize> = (0..n).filter(|&i| !plain[i]).collect();
        assert_eq!(tree.live_total(), live_slots.len() as u64);
        for (k, &slot) in live_slots.iter().enumerate() {
            assert_eq!(tree.live_before(slot), k as u64);
            assert_eq!(tree.select(k as u64, true), slot);
        }
        for (k, &slot) in dead_slots.iter().enumerate() {
            assert_eq!(tree.select(k as u64, false), slot);
        }
        for _ in 0..200 {
            let lo = rng.below(n as u64) as usize;
            let hi = lo + rng.below((n - lo) as u64 + 1) as usize;
            match tree.pick_in(&mut rng, lo, hi, true) {
                Some(s) => assert!(plain[s] && (lo..hi).contains(&s)),
                None => assert!(plain[lo..hi].iter().all(|l| !l)),
            }
            match tree.pick_in(&mut rng, lo, hi, false) {
                Some(s) => assert!(!plain[s] && (lo..hi).contains(&s)),
                None => assert!(plain[lo..hi].iter().all(|l| *l)),
            }
        }
    }

    #[test]
    fn fingerprint_sees_order_and_values() {
        let fp = |vals: &[i64]| {
            let mut f = Fingerprint::new(1);
            for &v in vals {
                f.rows += 1;
                f.push_int(0, v);
            }
            f
        };
        assert_eq!(fp(&[1, 2, 3]), fp(&[1, 2, 3]));
        assert_ne!(fp(&[1, 2, 3]), fp(&[1, 3, 2]));
        assert_ne!(fp(&[1, 2, 3]), fp(&[1, 2, 4]));
        assert_ne!(fp(&[1, 2]), fp(&[1, 2, 0]));
    }
}
