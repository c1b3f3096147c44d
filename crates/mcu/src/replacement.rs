//! Frame Replacement Table and policies (paper §2.5).
//!
//! The table gives "an indication of the list of frames occupied by
//! each algorithm present on the FPGA along with a time stamp
//! specifying the last moment at which it was accessed. That algorithm
//! which has the oldest time stamp provides extra frames for potential
//! reconfiguration" — i.e. the paper's policy is LRU over whole
//! algorithms. [`LruPolicy`] implements exactly that; [`FifoPolicy`],
//! [`LfuPolicy`], [`RandomPolicy`] and the clairvoyant [`BeladyPolicy`]
//! are provided as baselines and an upper bound for experiment E4.

use aaod_fabric::{CompiledFunction, FrameAddress};
use aaod_sim::{SimTime, SplitMix64};
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// Per-resident-algorithm bookkeeping: the Frame Replacement Table row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Residency {
    /// Frames the algorithm's logic occupies (possibly non-contiguous).
    pub frames: Vec<FrameAddress>,
    /// Timestamp of the most recent access.
    pub last_access: SimTime,
    /// Timestamp at which the algorithm was configured.
    pub loaded_at: SimTime,
    /// Number of accesses since it was configured.
    pub accesses: u64,
    /// The function its frames were checked to configure, with the
    /// device configuration epoch of that check. Dropped with the row,
    /// so it never outlives the residency.
    compiled: Option<(u64, Arc<CompiledFunction>)>,
}

impl Residency {
    /// The compiled function, if it was checked at device epoch
    /// `epoch` — i.e. no frame of the device has changed since.
    pub(crate) fn compiled_at(&self, epoch: u64) -> Option<&Arc<CompiledFunction>> {
        match &self.compiled {
            Some((at, compiled)) if *at == epoch => Some(compiled),
            _ => None,
        }
    }
}

/// The Frame Replacement Table: resident algorithms and their frames.
///
/// Keyed by algorithm id in a `BTreeMap` so iteration order — and
/// therefore policy tie-breaking — is deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplacementTable {
    entries: BTreeMap<u16, Residency>,
}

impl ReplacementTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        ReplacementTable::default()
    }

    /// Number of resident algorithms.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Record that `algo_id` now occupies `frames`.
    pub fn insert(&mut self, algo_id: u16, frames: Vec<FrameAddress>, now: SimTime) {
        self.entries.insert(
            algo_id,
            Residency {
                frames,
                last_access: now,
                loaded_at: now,
                accesses: 0,
                compiled: None,
            },
        );
    }

    /// Records `compiled` as `algo_id`'s function as decoded at device
    /// epoch `epoch`. A no-op when `algo_id` is not resident.
    pub(crate) fn set_compiled(
        &mut self,
        algo_id: u16,
        epoch: u64,
        compiled: Arc<CompiledFunction>,
    ) {
        if let Some(r) = self.entries.get_mut(&algo_id) {
            r.compiled = Some((epoch, compiled));
        }
    }

    /// Number of resident algorithms holding a compiled function.
    pub fn compiled_count(&self) -> usize {
        self.entries
            .values()
            .filter(|r| r.compiled.is_some())
            .count()
    }

    /// Removes an algorithm, returning its residency (frames to free).
    pub fn remove(&mut self, algo_id: u16) -> Option<Residency> {
        self.entries.remove(&algo_id)
    }

    /// Looks up a resident algorithm.
    pub fn get(&self, algo_id: u16) -> Option<&Residency> {
        self.entries.get(&algo_id)
    }

    /// Whether `algo_id` is resident.
    pub fn contains(&self, algo_id: u16) -> bool {
        self.entries.contains_key(&algo_id)
    }

    /// Updates the access timestamp and count.
    pub fn touch(&mut self, algo_id: u16, now: SimTime) {
        if let Some(r) = self.entries.get_mut(&algo_id) {
            r.last_access = now;
            r.accesses += 1;
        }
    }

    /// Iterates `(algo_id, residency)` in key order.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &Residency)> {
        self.entries.iter().map(|(&k, v)| (k, v))
    }

    /// The resident algorithm ids in key order.
    pub fn resident_ids(&self) -> Vec<u16> {
        self.entries.keys().copied().collect()
    }
}

/// Chooses which resident algorithm surrenders its frames when the
/// free-frame list cannot satisfy a new configuration.
///
/// Object-safe: the mini-OS holds the policy as a trait object chosen
/// at construction.
pub trait ReplacementPolicy: fmt::Debug + Send {
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Picks the victim among the algorithms in `table`, or `None` if
    /// the table is empty. Must return a key of `table`.
    fn victim(&mut self, table: &ReplacementTable) -> Option<u16>;

    /// Called once per host request, before residency is checked (the
    /// Belady oracle advances its future window here).
    fn on_request(&mut self, _algo_id: u16) {}
}

/// The paper's policy: evict the algorithm with the oldest
/// last-access timestamp.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LruPolicy;

impl ReplacementPolicy for LruPolicy {
    fn name(&self) -> &'static str {
        "lru"
    }

    fn victim(&mut self, table: &ReplacementTable) -> Option<u16> {
        table
            .iter()
            .min_by_key(|(id, r)| (r.last_access, *id))
            .map(|(id, _)| id)
    }
}

/// Evict the algorithm configured earliest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FifoPolicy;

impl ReplacementPolicy for FifoPolicy {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn victim(&mut self, table: &ReplacementTable) -> Option<u16> {
        table
            .iter()
            .min_by_key(|(id, r)| (r.loaded_at, *id))
            .map(|(id, _)| id)
    }
}

/// Evict the least-frequently-used algorithm (ties: oldest access).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LfuPolicy;

impl ReplacementPolicy for LfuPolicy {
    fn name(&self) -> &'static str {
        "lfu"
    }

    fn victim(&mut self, table: &ReplacementTable) -> Option<u16> {
        table
            .iter()
            .min_by_key(|(id, r)| (r.accesses, r.last_access, *id))
            .map(|(id, _)| id)
    }
}

/// Evict a uniformly random resident algorithm (seeded, deterministic).
#[derive(Debug, Clone)]
pub struct RandomPolicy {
    rng: SplitMix64,
}

impl RandomPolicy {
    /// Creates the policy with an RNG seed.
    pub fn new(seed: u64) -> Self {
        RandomPolicy {
            rng: SplitMix64::new(seed),
        }
    }
}

impl ReplacementPolicy for RandomPolicy {
    fn name(&self) -> &'static str {
        "random"
    }

    fn victim(&mut self, table: &ReplacementTable) -> Option<u16> {
        let ids = table.resident_ids();
        if ids.is_empty() {
            None
        } else {
            Some(ids[self.rng.index(ids.len())])
        }
    }
}

/// Belady's clairvoyant policy: evict the resident algorithm whose
/// next use is farthest in the future (or never). Requires the full
/// request trace up front; it is the unreachable upper bound in E4.
#[derive(Debug, Clone)]
pub struct BeladyPolicy {
    future: VecDeque<u16>,
}

impl BeladyPolicy {
    /// Creates the oracle from the upcoming request trace (in order).
    pub fn new<I: IntoIterator<Item = u16>>(trace: I) -> Self {
        BeladyPolicy {
            future: trace.into_iter().collect(),
        }
    }

    /// Remaining future requests (for tests).
    pub fn remaining(&self) -> usize {
        self.future.len()
    }
}

impl ReplacementPolicy for BeladyPolicy {
    fn name(&self) -> &'static str {
        "belady"
    }

    fn on_request(&mut self, algo_id: u16) {
        // Consume the front of the trace; tolerate divergence by
        // scanning forward to the matching request.
        while let Some(front) = self.future.pop_front() {
            if front == algo_id {
                break;
            }
        }
    }

    fn victim(&mut self, table: &ReplacementTable) -> Option<u16> {
        let ids = table.resident_ids();
        if ids.is_empty() {
            return None;
        }
        // distance to next use; None = never used again
        ids.iter()
            .copied()
            .max_by_key(|&id| {
                let next = self.future.iter().position(|&a| a == id);
                match next {
                    None => (usize::MAX, id),
                    Some(d) => (d, id),
                }
            })
            .or(Some(ids[0]))
    }
}

/// Constructs a policy by name (used by benches and examples).
///
/// `"belady"` requires the trace, so it is not constructible here;
/// build it directly with [`BeladyPolicy::new`].
///
/// # Panics
///
/// Panics on an unknown name.
pub fn policy_by_name(name: &str, seed: u64) -> Box<dyn ReplacementPolicy> {
    match name {
        "lru" => Box::new(LruPolicy),
        "fifo" => Box::new(FifoPolicy),
        "lfu" => Box::new(LfuPolicy),
        "random" => Box::new(RandomPolicy::new(seed)),
        other => panic!("unknown replacement policy {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_with(entries: &[(u16, u64, u64, u64)]) -> ReplacementTable {
        // (id, last_access_ns, loaded_ns, accesses)
        let mut t = ReplacementTable::new();
        for &(id, last, loaded, acc) in entries {
            t.insert(id, vec![FrameAddress(id)], SimTime::from_ns(loaded));
            if let Some(r) = t.entries.get_mut(&id) {
                r.last_access = SimTime::from_ns(last);
                r.accesses = acc;
            }
        }
        t
    }

    #[test]
    fn lru_picks_oldest_timestamp() {
        let t = table_with(&[(1, 100, 0, 5), (2, 50, 0, 9), (3, 200, 0, 1)]);
        assert_eq!(LruPolicy.victim(&t), Some(2));
    }

    #[test]
    fn fifo_picks_earliest_load() {
        let t = table_with(&[(1, 100, 30, 5), (2, 50, 10, 9), (3, 200, 20, 1)]);
        assert_eq!(FifoPolicy.victim(&t), Some(2));
    }

    #[test]
    fn lfu_picks_fewest_accesses() {
        let t = table_with(&[(1, 100, 0, 5), (2, 50, 0, 9), (3, 200, 0, 1)]);
        assert_eq!(LfuPolicy.victim(&t), Some(3));
    }

    #[test]
    fn policies_return_none_on_empty_table() {
        let t = ReplacementTable::new();
        assert_eq!(LruPolicy.victim(&t), None);
        assert_eq!(FifoPolicy.victim(&t), None);
        assert_eq!(LfuPolicy.victim(&t), None);
        assert_eq!(RandomPolicy::new(0).victim(&t), None);
        assert_eq!(BeladyPolicy::new([]).victim(&t), None);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let t = table_with(&[(1, 0, 0, 0), (2, 0, 0, 0), (3, 0, 0, 0)]);
        let mut a = RandomPolicy::new(7);
        let mut b = RandomPolicy::new(7);
        for _ in 0..20 {
            assert_eq!(a.victim(&t), b.victim(&t));
        }
    }

    #[test]
    fn belady_evicts_farthest_next_use() {
        // future: 1, 2, 1, 3 — resident {1,2,3}: 3 is used last, but 3
        // appears at distance 3, while... resident 1 at distance 0,
        // 2 at distance 1, 3 at distance 3 -> victim 3? No: max
        // distance wins, and an algo never used again beats all.
        let t = table_with(&[(1, 0, 0, 0), (2, 0, 0, 0), (3, 0, 0, 0)]);
        let mut p = BeladyPolicy::new([1u16, 2, 1, 3]);
        assert_eq!(p.victim(&t), Some(3));
        // after consuming request 1, future = [2,1,3]; add algo 4 that
        // never recurs — it must be the victim.
        p.on_request(1);
        let t2 = table_with(&[(1, 0, 0, 0), (2, 0, 0, 0), (4, 0, 0, 0)]);
        assert_eq!(p.victim(&t2), Some(4));
    }

    #[test]
    fn belady_consumes_trace() {
        let mut p = BeladyPolicy::new([5u16, 6, 7]);
        p.on_request(5);
        assert_eq!(p.remaining(), 2);
        p.on_request(7); // skips the diverged 6
        assert_eq!(p.remaining(), 0);
    }

    #[test]
    fn table_touch_updates() {
        let mut t = ReplacementTable::new();
        t.insert(9, vec![FrameAddress(0)], SimTime::from_ns(5));
        t.touch(9, SimTime::from_ns(50));
        let r = t.get(9).unwrap();
        assert_eq!(r.last_access, SimTime::from_ns(50));
        assert_eq!(r.loaded_at, SimTime::from_ns(5));
        assert_eq!(r.accesses, 1);
        t.touch(999, SimTime::from_ns(60)); // no-op on absent id
    }

    #[test]
    fn table_remove_returns_frames() {
        let mut t = ReplacementTable::new();
        t.insert(1, vec![FrameAddress(4), FrameAddress(9)], SimTime::ZERO);
        let r = t.remove(1).unwrap();
        assert_eq!(r.frames, vec![FrameAddress(4), FrameAddress(9)]);
        assert!(t.remove(1).is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn policy_by_name_constructs() {
        for name in ["lru", "fifo", "lfu", "random"] {
            assert_eq!(policy_by_name(name, 1).name(), name);
        }
    }

    #[test]
    #[should_panic(expected = "unknown replacement policy")]
    fn unknown_policy_panics() {
        let _ = policy_by_name("clock", 0);
    }
}
