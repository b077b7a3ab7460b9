//! The hash table at the heart of the *hashed* oct-tree.
//!
//! From the paper: *"A hash table is used in order to translate the key into
//! a pointer to the location where the cell data are stored. This level of
//! indirection through a hash table can also be used to catch accesses to
//! non-local data, and allows us to request and receive data from other
//! processors using the global key name space."*
//!
//! This is a purpose-built open-addressing table mapping non-zero `Key`s to
//! `u32` slot indices: no tombstones (trees are built, queried, and cleared
//! wholesale each step), linear probing, power-of-two capacity, Fibonacci
//! key mixing. `std::collections::HashMap` would work, but the table *is*
//! the paper's data structure — and `SipHash` on hot lookups during a tree
//! walk is exactly the overhead the original avoided.

use hot_morton::Key;
use std::sync::atomic::{AtomicU64, Ordering};

/// Open-addressing `Key → u32` map.
#[derive(Debug)]
pub struct KeyTable {
    /// Keys; `Key::INVALID` (0) marks an empty slot.
    keys: Vec<Key>,
    vals: Vec<u32>,
    len: usize,
    /// Capacity - 1 (capacity is a power of two).
    mask: usize,
    /// Slots examined across every `get`/`insert` (the paper's hash-probe
    /// diagnostic). Relaxed atomic so shared (`&self`) lookups can count;
    /// the *sum* is order-independent, hence deterministic whenever the
    /// lookup multiset is. Not part of the table's logical state.
    probes: AtomicU64,
}

impl Clone for KeyTable {
    fn clone(&self) -> Self {
        KeyTable {
            keys: self.keys.clone(),
            vals: self.vals.clone(),
            len: self.len,
            mask: self.mask,
            probes: AtomicU64::new(self.probes.load(Ordering::Relaxed)),
        }
    }
}

impl KeyTable {
    /// Create a table able to hold `capacity_hint` entries before growing.
    pub fn with_capacity(capacity_hint: usize) -> Self {
        // Keep load factor under 1/2.
        let cap = (capacity_hint.max(8) * 2).next_power_of_two();
        KeyTable {
            keys: vec![Key::INVALID; cap],
            vals: vec![0; cap],
            len: 0,
            mask: cap - 1,
            probes: AtomicU64::new(0),
        }
    }

    /// Total slots examined by `get` and `insert` since construction (or
    /// [`KeyTable::reset_probes`]). Probes during internal growth count:
    /// they are real memory touches.
    pub fn probes(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }

    /// Zero the probe counter.
    pub fn reset_probes(&self) {
        self.probes.store(0, Ordering::Relaxed);
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current slot count.
    #[cfg(test)]
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    #[inline(always)]
    fn slot_of(&self, key: Key) -> usize {
        (key.hash64() as usize) & self.mask
    }

    /// Insert or overwrite. Returns the previous value if the key was
    /// already present.
    pub fn insert(&mut self, key: Key, val: u32) -> Option<u32> {
        debug_assert!(key != Key::INVALID, "cannot insert the sentinel key");
        if (self.len + 1) * 2 > self.keys.len() {
            self.grow();
        }
        let mut i = self.slot_of(key);
        let mut probed = 1u64;
        loop {
            if self.keys[i] == Key::INVALID {
                self.keys[i] = key;
                self.vals[i] = val;
                self.len += 1;
                *self.probes.get_mut() += probed;
                return None;
            }
            if self.keys[i] == key {
                let old = self.vals[i];
                self.vals[i] = val;
                *self.probes.get_mut() += probed;
                return Some(old);
            }
            i = (i + 1) & self.mask;
            probed += 1;
        }
    }

    /// Look a key up.
    #[inline]
    pub fn get(&self, key: Key) -> Option<u32> {
        debug_assert!(key != Key::INVALID);
        let mut i = self.slot_of(key);
        let mut probed = 1u64;
        loop {
            let k = self.keys[i];
            if k == key {
                self.probes.fetch_add(probed, Ordering::Relaxed);
                return Some(self.vals[i]);
            }
            if k == Key::INVALID {
                self.probes.fetch_add(probed, Ordering::Relaxed);
                return None;
            }
            i = (i + 1) & self.mask;
            probed += 1;
        }
    }

    /// Does the table contain `key`?
    #[inline]
    pub fn contains(&self, key: Key) -> bool {
        self.get(key).is_some()
    }

    /// Drop every entry, keeping the allocation.
    pub fn clear(&mut self) {
        self.keys.fill(Key::INVALID);
        self.len = 0;
    }

    /// Iterate live `(key, value)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (Key, u32)> + '_ {
        self.keys
            .iter()
            .zip(&self.vals)
            .filter(|(k, _)| **k != Key::INVALID)
            .map(|(&k, &v)| (k, v))
    }

    fn grow(&mut self) {
        let new_cap = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![Key::INVALID; new_cap]);
        let old_vals = std::mem::take(&mut self.vals);
        self.vals = vec![0; new_cap];
        self.mask = new_cap - 1;
        self.len = 0;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != Key::INVALID {
                self.insert(k, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hot_morton::MAX_DEPTH;

    #[test]
    fn insert_get() {
        let mut t = KeyTable::with_capacity(4);
        assert!(t.is_empty());
        assert_eq!(t.insert(Key::ROOT, 7), None);
        assert_eq!(t.get(Key::ROOT), Some(7));
        assert_eq!(t.get(Key::ROOT.child(1)), None);
        assert_eq!(t.insert(Key::ROOT, 9), Some(7));
        assert_eq!(t.get(Key::ROOT), Some(9));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn many_sibling_keys() {
        // Sibling keys differ only in low bits — the historical worst case
        // for masked hashing; the mixer must spread them.
        let mut t = KeyTable::with_capacity(8);
        let mut keys = Vec::new();
        let mut k = Key::ROOT;
        for d in 0..MAX_DEPTH {
            k = k.child((d % 8) as u8);
            for c in 0..8u8 {
                if k.level() < MAX_DEPTH {
                    keys.push(k.child(c));
                }
            }
        }
        for (i, &key) in keys.iter().enumerate() {
            t.insert(key, i as u32);
        }
        assert_eq!(t.len(), keys.len());
        for (i, &key) in keys.iter().enumerate() {
            assert_eq!(t.get(key), Some(i as u32), "key {key:?}");
        }
    }

    #[test]
    fn growth_preserves_entries() {
        let mut t = KeyTable::with_capacity(2);
        let n = 10_000u32;
        for i in 0..n {
            t.insert(Key((1u64 << 63) | i as u64), i);
        }
        assert_eq!(t.len(), n as usize);
        assert!(t.capacity() >= 2 * n as usize);
        for i in 0..n {
            assert_eq!(t.get(Key((1u64 << 63) | i as u64)), Some(i));
        }
    }

    #[test]
    fn clear_retains_capacity() {
        let mut t = KeyTable::with_capacity(2);
        for i in 0..100u32 {
            t.insert(Key(1 + i as u64 * 8), i);
        }
        let cap = t.capacity();
        t.clear();
        assert_eq!(t.len(), 0);
        assert_eq!(t.capacity(), cap);
        assert_eq!(t.get(Key(1)), None);
        t.insert(Key(1), 5);
        assert_eq!(t.get(Key(1)), Some(5));
    }

    #[test]
    fn iter_yields_all() {
        let mut t = KeyTable::with_capacity(4);
        for i in 1..=50u32 {
            t.insert(Key(i as u64), i * 2);
        }
        let mut pairs: Vec<_> = t.iter().collect();
        pairs.sort_by_key(|(k, _)| k.0);
        assert_eq!(pairs.len(), 50);
        for (i, (k, v)) in pairs.into_iter().enumerate() {
            assert_eq!(k.0, i as u64 + 1);
            assert_eq!(v, (i as u32 + 1) * 2);
        }
    }

    #[test]
    fn probe_counter_counts_hits_misses_and_resets() {
        let build = || {
            let mut t = KeyTable::with_capacity(8);
            for i in 1..=20u64 {
                t.insert(Key(i * 3), i as u32);
            }
            t
        };
        let t = build();
        let after_insert = t.probes();
        assert!(after_insert >= 20, "every insert probes at least once");
        assert_eq!(t.get(Key(3)), Some(1));
        assert!(t.probes() > after_insert, "hits count probes");
        let p = t.probes();
        assert_eq!(t.get(Key(1000)), None);
        assert!(t.probes() > p, "misses count probes");
        // The count is a pure function of the operation sequence.
        let t2 = build();
        assert_eq!(t2.probes(), after_insert);
        t.reset_probes();
        assert_eq!(t.probes(), 0);
        // Cloning carries the counter value.
        let _ = t.get(Key(3));
        assert_eq!(t.clone().probes(), t.probes());
    }

    #[test]
    fn randomized_against_std_hashmap() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let mut t = KeyTable::with_capacity(16);
        let mut reference = std::collections::HashMap::new();
        for _ in 0..20_000 {
            let k = Key(rng.gen_range(1..1_000u64));
            let v: u32 = rng.gen_range(0..1000);
            assert_eq!(t.insert(k, v), reference.insert(k, v), "insert {k:?}");
        }
        assert_eq!(t.len(), reference.len());
        for (&k, &v) in &reference {
            assert_eq!(t.get(k), Some(v));
        }
    }
}
