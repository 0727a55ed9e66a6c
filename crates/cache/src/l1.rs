//! The first-level cache: 64 KB, 2-way, blocking, MESI (paper §2.1).
//!
//! Piranha uses "virtually the same design" for the instruction and data
//! caches, keeping even the iL1 hardware-coherent; this type therefore
//! serves both roles. Lines carry a *version* standing in for their data
//! (see the crate docs).

use piranha_types::LineAddr;

use crate::config::L1Config;
use crate::mesi::Mesi;

/// A line evicted by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// The replaced line.
    pub line: LineAddr,
    /// Its state at eviction.
    pub state: Mesi,
    /// Its data version.
    pub version: u64,
}

/// Result of attempting a store against the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreOutcome {
    /// The line was writable (M, or E silently upgraded to M); the store
    /// retired locally.
    Hit,
    /// The line is present in Shared state; an upgrade transaction is
    /// required before the store can commit.
    NeedUpgrade,
    /// The line is absent; a read-exclusive transaction is required.
    Miss,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    tag: u64,
    state: Mesi,
    version: u64,
    /// Monotone counter for LRU ordering within the set.
    stamp: u64,
}

/// `key % sets`, as a mask when `sets` is a power of two (every paper
/// geometry), sparing the hot lookup path a division.
pub(crate) fn set_of(key: u64, sets: u64) -> usize {
    if sets.is_power_of_two() {
        (key & (sets - 1)) as usize
    } else {
        (key % sets) as usize
    }
}

/// A first-level cache (either iL1 or dL1).
///
/// # Examples
///
/// ```
/// use piranha_cache::{L1Cache, L1Config, Mesi, StoreOutcome};
/// use piranha_types::LineAddr;
///
/// let mut l1 = L1Cache::new(L1Config::paper_default());
/// let line = LineAddr(0x40);
/// assert!(!l1.access_read(line));          // cold miss
/// l1.fill(line, Mesi::Exclusive, 7);
/// assert!(l1.access_read(line));           // now a hit
/// assert_eq!(l1.store(line, 8), StoreOutcome::Hit); // E upgrades silently
/// assert_eq!(l1.state(line), Mesi::Modified);
/// ```
#[derive(Debug, Clone)]
pub struct L1Cache {
    cfg: L1Config,
    /// Set-major way array: set `s` is `ways[s * cfg.ways..][..cfg.ways]`.
    ways: Vec<Option<Entry>>,
    sets: u64,
    tick: u64,
}

impl L1Cache {
    /// An empty cache with the given geometry.
    pub fn new(cfg: L1Config) -> Self {
        let sets = cfg.sets();
        L1Cache {
            cfg,
            ways: vec![None; sets * cfg.ways],
            sets: sets as u64,
            tick: 0,
        }
    }

    /// Index of the first way of `line`'s set.
    fn set_base(&self, line: LineAddr) -> usize {
        set_of(line.0, self.sets) * self.cfg.ways
    }

    /// Index of the way holding `line`, if resident.
    fn find(&self, line: LineAddr) -> Option<usize> {
        let base = self.set_base(line);
        self.ways[base..base + self.cfg.ways]
            .iter()
            .position(|e| e.is_some_and(|e| e.tag == line.0))
            .map(|wi| base + wi)
    }

    fn entry(&self, i: usize) -> &Entry {
        self.ways[i].as_ref().expect("found way is valid")
    }

    fn entry_mut(&mut self, i: usize) -> &mut Entry {
        self.ways[i].as_mut().expect("found way is valid")
    }

    fn touch(&mut self, i: usize) {
        self.tick += 1;
        let tick = self.tick;
        self.entry_mut(i).stamp = tick;
    }

    /// The MESI state of `line` ([`Mesi::Invalid`] if absent).
    pub fn state(&self, line: LineAddr) -> Mesi {
        self.find(line)
            .map_or(Mesi::Invalid, |i| self.entry(i).state)
    }

    /// The data version of `line`, if present.
    pub fn version(&self, line: LineAddr) -> Option<u64> {
        self.find(line).map(|i| self.entry(i).version)
    }

    /// Attempt a read (load or instruction fetch). Returns whether it hit;
    /// a hit refreshes LRU state.
    pub fn access_read(&mut self, line: LineAddr) -> bool {
        match self.find(line) {
            Some(i) => {
                self.touch(i);
                true
            }
            None => false,
        }
    }

    /// Attempt a store. On a writable copy the store commits immediately,
    /// stamping `version` (an E copy silently becomes M, as MESI allows).
    pub fn store(&mut self, line: LineAddr, version: u64) -> StoreOutcome {
        match self.find(line) {
            Some(i) => {
                let e = self.entry_mut(i);
                if e.state.writable() {
                    e.state = Mesi::Modified;
                    e.version = version;
                    self.touch(i);
                    StoreOutcome::Hit
                } else {
                    StoreOutcome::NeedUpgrade
                }
            }
            None => StoreOutcome::Miss,
        }
    }

    /// Install `line` with the granted state, evicting (and returning) the
    /// LRU victim if the set was full.
    ///
    /// # Panics
    ///
    /// Panics if `line` is already present (the L1 is blocking: at most
    /// one outstanding miss per line) or if `state` is Invalid.
    pub fn fill(&mut self, line: LineAddr, state: Mesi, version: u64) -> Option<Victim> {
        assert!(state.readable(), "cannot fill a line as Invalid");
        assert!(
            self.find(line).is_none(),
            "fill of already-present line {line}"
        );
        let base = self.set_base(line);
        self.tick += 1;
        let entry = Entry {
            tag: line.0,
            state,
            version,
            stamp: self.tick,
        };
        let set = &mut self.ways[base..base + self.cfg.ways];
        // Prefer an invalid way.
        if let Some(w) = set.iter_mut().find(|e| e.is_none()) {
            *w = Some(entry);
            return None;
        }
        // Evict the LRU way (stamps are unique, so the choice is too).
        let w = set
            .iter_mut()
            .min_by_key(|e| e.expect("full set").stamp)
            .expect("set has ways");
        let old = w.replace(entry).expect("full set");
        Some(Victim {
            line: LineAddr(old.tag),
            state: old.state,
            version: old.version,
        })
    }

    /// Grant an upgrade: S → M for a pending store, stamping `version`.
    ///
    /// # Panics
    ///
    /// Panics if the line is not present in Shared state (upgrade races
    /// where the copy was invalidated must be resolved by the L2 granting
    /// a full fill instead).
    pub fn upgrade(&mut self, line: LineAddr, version: u64) {
        let i = self.find(line).expect("upgrade of absent line");
        let e = self.entry_mut(i);
        assert_eq!(e.state, Mesi::Shared, "upgrade from non-Shared state");
        e.state = Mesi::Modified;
        e.version = version;
        self.touch(i);
    }

    /// Invalidate `line` (coherence action), returning its state and
    /// version if it was present.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<(Mesi, u64)> {
        let i = self.find(line)?;
        let e = self.ways[i].take().expect("found way is valid");
        Some((e.state, e.version))
    }

    /// Downgrade `line` to Shared (servicing a read forward), returning
    /// `(was_dirty, version)` if present.
    pub fn downgrade(&mut self, line: LineAddr) -> Option<(bool, u64)> {
        let i = self.find(line)?;
        let e = self.entry_mut(i);
        let dirty = e.state.dirty();
        let v = e.version;
        e.state = Mesi::Shared;
        Some((dirty, v))
    }

    /// Iterate over all resident lines as `(line, state, version)`, in
    /// set-major way order; used by invariant checks in tests.
    pub fn resident(&self) -> impl Iterator<Item = (LineAddr, Mesi, u64)> + '_ {
        self.ways
            .iter()
            .flatten()
            .map(|e| (LineAddr(e.tag), e.state, e.version))
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.ways.iter().flatten().count()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cache's geometry.
    pub fn config(&self) -> L1Config {
        self.cfg
    }
}

/// All first-level caches of one chip, indexed by [`Slot`]: CPU *i*'s iL1
/// is slot `2i`, its dL1 slot `2i + 1`.
///
/// The L2 bank state machines operate directly on this set when applying
/// coherence actions (fills, invalidations, downgrades), mirroring how the
/// real L2 controllers command the L1s over the intra-chip switch.
#[derive(Debug)]
pub struct L1Set {
    caches: Vec<L1Cache>,
}

use crate::dup::Slot;

impl L1Set {
    /// Create `cpus * 2` caches with the given geometry.
    pub fn new(cpus: usize, cfg: L1Config) -> Self {
        L1Set {
            caches: (0..cpus * 2).map(|_| L1Cache::new(cfg)).collect(),
        }
    }

    /// The cache at `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` exceeds the number of caches.
    pub fn get(&self, slot: Slot) -> &L1Cache {
        &self.caches[slot.index()]
    }

    /// Mutable access to the cache at `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` exceeds the number of caches.
    pub fn get_mut(&mut self, slot: Slot) -> &mut L1Cache {
        &mut self.caches[slot.index()]
    }

    /// Number of caches (2 × CPUs).
    pub fn len(&self) -> usize {
        self.caches.len()
    }

    /// Whether the set is empty (zero CPUs).
    pub fn is_empty(&self) -> bool {
        self.caches.is_empty()
    }

    /// Iterate over `(slot, cache)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Slot, &L1Cache)> {
        self.caches
            .iter()
            .enumerate()
            .map(|(i, c)| (Slot(i as u8), c))
    }

    /// Simultaneous mutable access to one CPU's iL1 and dL1 (used by the
    /// CPU timing models, which probe both caches while advancing).
    ///
    /// # Panics
    ///
    /// Panics if `cpu` exceeds the number of CPUs.
    pub fn pair_mut(&mut self, cpu: piranha_types::CpuId) -> (&mut L1Cache, &mut L1Cache) {
        let i = cpu.index() * 2;
        let (a, b) = self.caches.split_at_mut(i + 1);
        (&mut a[i], &mut b[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> L1Cache {
        // 2 sets x 2 ways for eviction-focused tests.
        L1Cache::new(L1Config {
            size_bytes: 4 * 64,
            ways: 2,
        })
    }

    // Lines that map to set 0 of the tiny cache.
    fn set0(i: u64) -> LineAddr {
        LineAddr(i * 2)
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut l1 = L1Cache::new(L1Config::paper_default());
        let line = LineAddr(123);
        assert!(!l1.access_read(line));
        l1.fill(line, Mesi::Shared, 1);
        assert!(l1.access_read(line));
        assert_eq!(l1.state(line), Mesi::Shared);
        assert_eq!(l1.version(line), Some(1));
    }

    #[test]
    fn lru_eviction_order() {
        let mut l1 = tiny();
        let (a, b, c) = (set0(0), set0(1), set0(2));
        l1.fill(a, Mesi::Shared, 0);
        l1.fill(b, Mesi::Shared, 0);
        // Touch `a` so `b` becomes LRU.
        assert!(l1.access_read(a));
        let v = l1.fill(c, Mesi::Shared, 0).expect("set full, must evict");
        assert_eq!(v.line, b);
        assert!(l1.access_read(a));
        assert!(l1.access_read(c));
        assert!(!l1.access_read(b));
    }

    #[test]
    fn lru_is_tracked_per_set() {
        // 4 sets x 2 ways: filling and touching one set must not move
        // the LRU order of a neighbouring set in the flat way array.
        let mut l1 = L1Cache::new(L1Config {
            size_bytes: 8 * 64,
            ways: 2,
        });
        let in_set = |s: u64, i: u64| LineAddr(s + 4 * i);
        for s in 0..4 {
            l1.fill(in_set(s, 0), Mesi::Shared, s);
            l1.fill(in_set(s, 1), Mesi::Shared, s);
        }
        // Refresh way 0 of set 1 only; every other set keeps way 0 LRU.
        assert!(l1.access_read(in_set(1, 0)));
        for s in 0..4 {
            let v = l1.fill(in_set(s, 2), Mesi::Shared, 9).expect("full set");
            let lru = if s == 1 { in_set(s, 1) } else { in_set(s, 0) };
            assert_eq!(v.line, lru, "set {s}");
            assert_eq!(v.version, s);
        }
        assert_eq!(l1.len(), 8);
    }

    #[test]
    fn direct_mapped_evicts_on_every_conflict() {
        // 4 sets x 1 way.
        let mut l1 = L1Cache::new(L1Config {
            size_bytes: 4 * 64,
            ways: 1,
        });
        assert!(l1.fill(LineAddr(1), Mesi::Shared, 1).is_none());
        assert!(l1.fill(LineAddr(2), Mesi::Shared, 2).is_none());
        // Line 5 maps to line 1's set: line 1 goes, however recent.
        assert!(l1.access_read(LineAddr(1)));
        let v = l1.fill(LineAddr(5), Mesi::Exclusive, 5).unwrap();
        assert_eq!(
            v,
            Victim {
                line: LineAddr(1),
                state: Mesi::Shared,
                version: 1
            }
        );
        assert!(l1.access_read(LineAddr(2)), "other sets untouched");
        assert!(!l1.access_read(LineAddr(1)));
        // An invalidated way is refilled without a victim.
        l1.invalidate(LineAddr(5));
        assert!(l1.fill(LineAddr(9), Mesi::Shared, 9).is_none());
        let mut got: Vec<_> = l1.resident().map(|(l, _, _)| l).collect();
        got.sort();
        assert_eq!(got, vec![LineAddr(2), LineAddr(9)]);
    }

    #[test]
    fn fill_prefers_invalid_way() {
        let mut l1 = tiny();
        l1.fill(set0(0), Mesi::Shared, 0);
        l1.fill(set0(1), Mesi::Shared, 0);
        l1.invalidate(set0(0));
        assert!(
            l1.fill(set0(2), Mesi::Shared, 0).is_none(),
            "no eviction needed"
        );
        assert!(l1.access_read(set0(1)));
    }

    #[test]
    fn store_semantics() {
        let mut l1 = tiny();
        let line = set0(0);
        assert_eq!(l1.store(line, 5), StoreOutcome::Miss);
        l1.fill(line, Mesi::Shared, 1);
        assert_eq!(l1.store(line, 5), StoreOutcome::NeedUpgrade);
        assert_eq!(
            l1.state(line),
            Mesi::Shared,
            "failed store must not change state"
        );
        l1.upgrade(line, 5);
        assert_eq!(l1.state(line), Mesi::Modified);
        assert_eq!(l1.version(line), Some(5));
        assert_eq!(l1.store(line, 6), StoreOutcome::Hit);
        assert_eq!(l1.version(line), Some(6));
    }

    #[test]
    fn exclusive_upgrades_silently() {
        let mut l1 = tiny();
        let line = set0(0);
        l1.fill(line, Mesi::Exclusive, 1);
        assert_eq!(l1.store(line, 2), StoreOutcome::Hit);
        assert_eq!(l1.state(line), Mesi::Modified);
    }

    #[test]
    fn invalidate_and_downgrade() {
        let mut l1 = tiny();
        let line = set0(0);
        l1.fill(line, Mesi::Modified, 9);
        assert_eq!(l1.downgrade(line), Some((true, 9)));
        assert_eq!(l1.state(line), Mesi::Shared);
        assert_eq!(l1.downgrade(line), Some((false, 9)));
        assert_eq!(l1.invalidate(line), Some((Mesi::Shared, 9)));
        assert_eq!(l1.state(line), Mesi::Invalid);
        assert_eq!(l1.invalidate(line), None);
        assert_eq!(l1.downgrade(line), None);
    }

    #[test]
    fn victim_carries_state_and_version() {
        let mut l1 = tiny();
        l1.fill(set0(0), Mesi::Modified, 42);
        l1.fill(set0(1), Mesi::Shared, 1);
        l1.access_read(set0(1));
        l1.access_read(set0(1));
        // set0(0) is LRU despite being dirty.
        let v = l1.fill(set0(2), Mesi::Shared, 0).unwrap();
        assert_eq!(
            v,
            Victim {
                line: set0(0),
                state: Mesi::Modified,
                version: 42
            }
        );
    }

    #[test]
    #[should_panic(expected = "already-present")]
    fn double_fill_panics() {
        let mut l1 = tiny();
        l1.fill(set0(0), Mesi::Shared, 0);
        l1.fill(set0(0), Mesi::Shared, 0);
    }

    #[test]
    #[should_panic(expected = "non-Shared")]
    fn upgrade_from_exclusive_panics() {
        let mut l1 = tiny();
        l1.fill(set0(0), Mesi::Exclusive, 0);
        l1.upgrade(set0(0), 1);
    }

    #[test]
    fn resident_iterates_all() {
        let mut l1 = tiny();
        l1.fill(LineAddr(0), Mesi::Shared, 1);
        l1.fill(LineAddr(1), Mesi::Modified, 2);
        let mut got: Vec<_> = l1.resident().collect();
        got.sort();
        assert_eq!(
            got,
            vec![
                (LineAddr(0), Mesi::Shared, 1),
                (LineAddr(1), Mesi::Modified, 2)
            ]
        );
        assert_eq!(l1.len(), 2);
        assert!(!l1.is_empty());
    }

    #[test]
    fn paper_config_capacity() {
        let mut l1 = L1Cache::new(L1Config::paper_default());
        // Fill exactly 64KB worth of distinct lines: no evictions.
        for i in 0..1024 {
            assert!(l1.fill(LineAddr(i), Mesi::Shared, 0).is_none());
        }
        assert_eq!(l1.len(), 1024);
        // One more line in an occupied set must evict.
        assert!(l1.fill(LineAddr(1024), Mesi::Shared, 0).is_some());
    }
}
