//! A small bounded map with least-recently-used eviction.
//!
//! The location hint cache must not grow with the number of objects a
//! node has ever heard about (the ROADMAP targets millions of objects),
//! so it is bounded by the kernel's `LOCATION_CACHE_CAP` and evicts the
//! hint that has gone longest without a lookup. Recency is tracked with
//! monotonically increasing stamps and a lazily compacted queue rather
//! than a linked list: inserts and hits are O(1) amortized, eviction pops
//! stale queue entries until it finds a live one.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

/// A hash map bounded to `cap` entries with LRU eviction.
#[derive(Debug)]
pub struct LruMap<K, V> {
    map: HashMap<K, (V, u64)>,
    /// `(key, stamp)` in insertion order; an entry is stale when the
    /// map's stamp for the key has moved past it.
    queue: VecDeque<(K, u64)>,
    next_stamp: u64,
    cap: usize,
}

impl<K: Eq + Hash + Clone, V> LruMap<K, V> {
    /// An empty map that holds at most `cap` entries (min 1).
    pub fn new(cap: usize) -> Self {
        LruMap {
            map: HashMap::new(),
            queue: VecDeque::new(),
            next_stamp: 0,
            cap: cap.max(1),
        }
    }

    fn stamp(&mut self, key: K) -> u64 {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.queue.push_back((key, stamp));
        // The queue holds one entry per insert/hit; drop superseded ones
        // before it outgrows the live set by more than a small factor.
        if self.queue.len() > self.cap.saturating_mul(4).max(64) {
            let map = &self.map;
            self.queue
                .retain(|(k, s)| map.get(k).map(|(_, live)| live) == Some(s));
        }
        stamp
    }

    /// Inserts or refreshes an entry; returns how many entries were
    /// evicted to stay within the cap (0 or 1).
    pub fn insert(&mut self, key: K, value: V) -> usize {
        let stamp = self.stamp(key.clone());
        self.map.insert(key, (value, stamp));
        let mut evicted = 0;
        while self.map.len() > self.cap {
            match self.queue.pop_front() {
                Some((k, s)) => {
                    if self.map.get(&k).map(|(_, live)| *live) == Some(s) {
                        self.map.remove(&k);
                        evicted += 1;
                    }
                }
                None => break,
            }
        }
        evicted
    }

    /// Looks up a key and marks it most recently used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        if self.map.contains_key(key) {
            let stamp = self.stamp(key.clone());
            if let Some(entry) = self.map.get_mut(key) {
                entry.1 = stamp;
            }
        }
        self.map.get(key).map(|(v, _)| v)
    }

    /// Removes an entry.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.map.remove(key).map(|(v, _)| v)
    }

    /// Keeps only entries whose value satisfies the predicate (used to
    /// purge every hint pointing at a dead node).
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &V) -> bool) {
        self.map.retain(|k, (v, _)| keep(k, v));
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eviction_removes_the_least_recently_used() {
        let mut lru = LruMap::new(2);
        assert_eq!(lru.insert("a", 1), 0);
        assert_eq!(lru.insert("b", 2), 0);
        assert_eq!(lru.get(&"a"), Some(&1)); // refresh a; b is now LRU
        assert_eq!(lru.insert("c", 3), 1);
        assert_eq!(lru.get(&"b"), None);
        assert_eq!(lru.get(&"a"), Some(&1));
        assert_eq!(lru.get(&"c"), Some(&3));
    }

    #[test]
    fn reinsert_refreshes_instead_of_growing() {
        let mut lru = LruMap::new(2);
        lru.insert("a", 1);
        lru.insert("b", 2);
        lru.insert("a", 10); // refresh, not a new entry
        assert_eq!(lru.len(), 2);
        lru.insert("c", 3); // evicts b, the stale one
        assert_eq!(lru.get(&"b"), None);
        assert_eq!(lru.get(&"a"), Some(&10));
    }

    #[test]
    fn retain_purges_by_value() {
        let mut lru = LruMap::new(8);
        for i in 0..6 {
            lru.insert(i, i % 2);
        }
        lru.retain(|_, v| *v == 0);
        assert_eq!(lru.len(), 3);
        assert_eq!(lru.get(&1), None);
        assert_eq!(lru.get(&2), Some(&0));
    }

    #[test]
    fn queue_stays_bounded_under_heavy_hits() {
        let mut lru = LruMap::new(4);
        for i in 0..4 {
            lru.insert(i, i);
        }
        for _ in 0..10_000 {
            for i in 0..4 {
                lru.get(&i);
            }
        }
        assert!(lru.queue.len() <= 4usize.saturating_mul(4).max(64) + 1);
        assert_eq!(lru.len(), 4);
    }

    #[test]
    fn cap_is_at_least_one() {
        let mut lru = LruMap::new(0);
        lru.insert("a", 1);
        lru.insert("b", 2);
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.get(&"b"), Some(&2));
    }
}
