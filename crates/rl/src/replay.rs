//! Prioritized experience replay (Schaul et al., 2016).
//!
//! Transitions are stored in a ring buffer; sampling probability is
//! proportional to `priority^alpha`, maintained in a sum tree so sampling and
//! priority updates are O(log n). Samples carry importance-sampling weights
//! `(N * P(i))^-beta`, normalised by the maximum weight in the batch.

use rand::rngs::StdRng;
use rand::Rng;

/// A replay configuration a buffer (or trainer) cannot be built from.
///
/// Surfaced as a `Result` so callers driving many generated configurations
/// (scenario TOMLs, soak sweeps) can skip a bad one with a message instead of
/// aborting the whole run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayConfigError {
    /// The requested capacity was zero.
    ZeroCapacity,
    /// The capacity cannot cover the n-step horizon: an id still pending in
    /// the n-step window could be evicted from replay first, breaking the
    /// arena's reference counting.
    CapacityBelowHorizon {
        /// The requested replay capacity.
        capacity: usize,
        /// The configured n-step horizon.
        n_step: usize,
    },
}

impl std::fmt::Display for ReplayConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayConfigError::ZeroCapacity => write!(f, "replay capacity must be positive"),
            ReplayConfigError::CapacityBelowHorizon { capacity, n_step } => write!(
                f,
                "replay capacity must cover the n-step horizon \
                 (capacity {capacity} < n_step {n_step})"
            ),
        }
    }
}

impl std::error::Error for ReplayConfigError {}

/// A binary sum tree over leaf priorities.
#[derive(Debug, Clone)]
struct SumTree {
    capacity: usize,
    nodes: Vec<f64>,
}

impl SumTree {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            nodes: vec![0.0; 2 * capacity],
        }
    }

    fn total(&self) -> f64 {
        self.nodes[1]
    }

    fn set(&mut self, index: usize, priority: f64) {
        let mut i = index + self.capacity;
        self.nodes[i] = priority;
        i /= 2;
        while i >= 1 {
            self.nodes[i] = self.nodes[2 * i] + self.nodes[2 * i + 1];
            if i == 1 {
                break;
            }
            i /= 2;
        }
    }

    fn get(&self, index: usize) -> f64 {
        self.nodes[index + self.capacity]
    }

    /// Finds the leaf index whose cumulative priority interval contains `value`.
    fn find(&self, mut value: f64) -> usize {
        let mut i = 1;
        while i < self.capacity {
            let left = 2 * i;
            if value <= self.nodes[left] || self.nodes[left + 1] <= 0.0 {
                i = left;
            } else {
                value -= self.nodes[left];
                i = left + 1;
            }
        }
        i - self.capacity
    }
}

/// A prioritized replay buffer.
#[derive(Debug, Clone)]
pub struct PrioritizedReplay<T> {
    capacity: usize,
    alpha: f64,
    /// Ring slots, filled on first push: a fresh ring holds no slot storage
    /// (agents that only evaluate or serve never pay for it), and slots past
    /// the filled prefix read as empty. [`PrioritizedReplay::from_parts`]
    /// restores every slot, occupied or not.
    items: Vec<Option<T>>,
    tree: SumTree,
    next_slot: usize,
    len: usize,
    max_priority: f64,
}

impl<T: Clone> PrioritizedReplay<T> {
    /// Creates a buffer holding at most `capacity` transitions.
    ///
    /// `alpha` controls how strongly priorities skew sampling (0 = uniform).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, alpha: f64) -> Self {
        match Self::try_new(capacity, alpha) {
            Ok(buf) => buf,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`PrioritizedReplay::new`]: returns a typed error
    /// instead of panicking on a zero capacity.
    pub fn try_new(capacity: usize, alpha: f64) -> Result<Self, ReplayConfigError> {
        if capacity == 0 {
            return Err(ReplayConfigError::ZeroCapacity);
        }
        let capacity = capacity.next_power_of_two();
        Ok(Self {
            capacity,
            alpha,
            items: Vec::new(),
            tree: SumTree::new(capacity),
            next_slot: 0,
            len: 0,
            max_priority: 1.0,
        })
    }

    /// Number of stored transitions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum number of transitions the buffer can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Adds a transition with maximal priority (so new experience is sampled
    /// at least once before its priority is refined). When the ring is full,
    /// returns the transition this push evicted, so the caller can release
    /// whatever external storage (e.g. an arena slot) it referenced.
    pub fn push(&mut self, item: T) -> Option<T> {
        let slot = self.next_slot;
        // The cursor never runs ahead of the filled prefix: it only reaches
        // `items.len()` while the ring fills for the first time.
        let evicted = match self.items.get_mut(slot) {
            Some(stored) => stored.replace(item),
            None => {
                self.items.push(Some(item));
                None
            }
        };
        self.tree.set(slot, self.max_priority.powf(self.alpha));
        self.next_slot = (self.next_slot + 1) % self.capacity;
        self.len = (self.len + 1).min(self.capacity);
        evicted
    }

    /// Samples `batch` buffer indices with probability proportional to
    /// priority, without cloning the stored transitions (pair with
    /// [`PrioritizedReplay::get`] on the hot path).
    ///
    /// `beta` is the importance-sampling exponent (1 fully corrects the
    /// sampling bias). Returns fewer than `batch` entries only if the buffer
    /// holds fewer transitions.
    pub fn sample_indices(&self, batch: usize, beta: f64, rng: &mut StdRng) -> Vec<(usize, f64)> {
        if self.is_empty() || self.tree.total() <= 0.0 {
            return Vec::new();
        }
        let batch = batch.min(self.len);
        let total = self.tree.total();
        let mut max_weight: f64 = 0.0;
        let mut raw = Vec::with_capacity(batch);
        for _ in 0..batch {
            let target = rng.gen_range(0.0..total);
            let mut index = self.tree.find(target);
            // Guard against landing on an empty slot due to rounding.
            if self.slot(index).is_none() {
                index = rng.gen_range(0..self.len);
            }
            let priority = self.tree.get(index).max(1e-12);
            let prob = priority / total;
            let weight = (self.len as f64 * prob).powf(-beta);
            max_weight = max_weight.max(weight);
            raw.push((index, weight));
        }
        for entry in &mut raw {
            entry.1 = if max_weight > 0.0 {
                entry.1 / max_weight
            } else {
                1.0
            };
        }
        raw
    }

    /// The stored transition at a sampled index.
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty (an index not returned by
    /// [`PrioritizedReplay::sample_indices`]).
    pub fn get(&self, index: usize) -> &T {
        self.slot(index).expect("sampled index must hold an item")
    }

    /// Updates the priority of a stored transition (typically to its most
    /// recent absolute TD error).
    pub fn update_priority(&mut self, index: usize, priority: f64) {
        let priority = priority.abs().max(1e-6);
        self.max_priority = self.max_priority.max(priority);
        self.tree.set(index, priority.powf(self.alpha));
    }

    /// The priority exponent α (checkpoint encoding).
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The ring cursor: the slot the next push writes to.
    pub fn next_slot(&self) -> usize {
        self.next_slot
    }

    /// The running maximum priority new pushes inherit.
    pub fn max_priority(&self) -> f64 {
        self.max_priority
    }

    /// The raw ring slot at `index` (occupied or not), unlike
    /// [`PrioritizedReplay::get`] which panics on empty slots. Checkpoint
    /// encoding and invariant sweeps walk every slot in `0..capacity`.
    pub fn slot(&self, index: usize) -> Option<&T> {
        self.items.get(index).and_then(Option::as_ref)
    }

    /// The sum-tree leaf value (already α-exponentiated) at a slot.
    pub fn leaf_priority(&self, index: usize) -> f64 {
        self.tree.get(index)
    }

    /// Rebuilds a buffer from storage captured via the accessors above.
    ///
    /// The sum tree is rebuilt leaf by leaf; every internal node ends up as
    /// the sum of its children's *final* values, computed with the same
    /// left-to-right f64 additions as the incremental build, so the restored
    /// tree — and therefore every future sampling draw — is bit-identical to
    /// the saved one. The error string names the first violated invariant.
    pub fn from_parts(
        alpha: f64,
        items: Vec<Option<T>>,
        leaf_priorities: &[f64],
        next_slot: usize,
        len: usize,
        max_priority: f64,
    ) -> Result<Self, String> {
        let capacity = items.len();
        if capacity == 0 || !capacity.is_power_of_two() {
            return Err(format!("replay capacity {capacity} is not a power of two"));
        }
        if leaf_priorities.len() != capacity {
            return Err(format!(
                "{} leaf priorities for {capacity} slots",
                leaf_priorities.len()
            ));
        }
        if next_slot >= capacity {
            return Err(format!(
                "ring cursor {next_slot} out of range ({capacity} slots)"
            ));
        }
        let occupied = items.iter().filter(|i| i.is_some()).count();
        if occupied != len {
            return Err(format!("len {len} but {occupied} occupied slots"));
        }
        let mut tree = SumTree::new(capacity);
        for (index, &priority) in leaf_priorities.iter().enumerate() {
            if !priority.is_finite() || priority < 0.0 {
                return Err(format!("leaf priority {priority} at slot {index}"));
            }
            tree.set(index, priority);
        }
        Ok(Self {
            capacity,
            alpha,
            items,
            tree,
            next_slot,
            len,
            max_priority,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn push_and_len_respect_capacity_and_report_evictions() {
        let mut buf: PrioritizedReplay<u32> = PrioritizedReplay::new(4, 0.6);
        assert!(buf.is_empty());
        for i in 0..4 {
            assert_eq!(buf.push(i), None, "no eviction while the ring fills");
        }
        for i in 4..10u32 {
            // The ring overwrites oldest-first, so push i evicts i - capacity.
            assert_eq!(buf.push(i), Some(i - 4));
        }
        assert_eq!(buf.len(), 4);
        assert_eq!(buf.capacity(), 4);
    }

    #[test]
    fn a_fresh_ring_holds_no_slot_storage() {
        let mut buf: PrioritizedReplay<[u64; 5]> = PrioritizedReplay::new(1 << 17, 0.6);
        assert_eq!(buf.items.capacity(), 0, "no slot is allocated up front");
        assert!((0..buf.capacity()).all(|i| buf.slot(i).is_none()));
        buf.push([7; 5]);
        assert_eq!(buf.items.len(), 1, "slots fill on first push");
        assert_eq!(buf.slot(0), Some(&[7; 5]));
        assert_eq!(buf.slot(1), None);
    }

    #[test]
    fn sampling_returns_requested_batch_with_weights() {
        let mut buf = PrioritizedReplay::new(64, 0.6);
        for i in 0..50u32 {
            buf.push(i);
        }
        let mut rng = StdRng::seed_from_u64(0);
        let batch = buf.sample_indices(16, 0.4, &mut rng);
        assert_eq!(batch.len(), 16);
        for (index, weight) in &batch {
            assert!(*weight > 0.0 && *weight <= 1.0 + 1e-9);
            assert!(*buf.get(*index) < 50);
        }
    }

    #[test]
    fn empty_buffer_samples_nothing() {
        let buf: PrioritizedReplay<u32> = PrioritizedReplay::new(8, 0.5);
        let mut rng = StdRng::seed_from_u64(1);
        assert!(buf.sample_indices(4, 0.4, &mut rng).is_empty());
    }

    #[test]
    fn high_priority_items_are_sampled_more_often() {
        let mut buf = PrioritizedReplay::new(8, 1.0);
        for i in 0..8u32 {
            buf.push(i);
        }
        // Give item 3 a much higher priority than the rest.
        for i in 0..8 {
            buf.update_priority(i, if i == 3 { 10.0 } else { 0.1 });
        }
        let mut rng = StdRng::seed_from_u64(2);
        let mut count_3 = 0;
        let mut total = 0;
        for _ in 0..200 {
            for (index, _) in buf.sample_indices(4, 0.4, &mut rng) {
                total += 1;
                if *buf.get(index) == 3 {
                    count_3 += 1;
                }
            }
        }
        let frac = count_3 as f64 / total as f64;
        assert!(
            frac > 0.5,
            "high-priority item sampled only {frac:.2} of the time"
        );
    }

    #[test]
    fn importance_weights_penalise_over_sampled_items() {
        let mut buf = PrioritizedReplay::new(8, 1.0);
        for i in 0..8u32 {
            buf.push(i);
        }
        for i in 0..8 {
            buf.update_priority(i, if i == 0 { 5.0 } else { 0.5 });
        }
        let mut rng = StdRng::seed_from_u64(3);
        let batch = buf.sample_indices(8, 1.0, &mut rng);
        let w_hot = batch
            .iter()
            .filter(|(i, _)| *buf.get(*i) == 0)
            .map(|(_, w)| *w)
            .fold(f64::NAN, f64::min);
        let w_cold = batch
            .iter()
            .filter(|(i, _)| *buf.get(*i) != 0)
            .map(|(_, w)| *w)
            .fold(0.0, f64::max);
        if w_hot.is_finite() && w_cold > 0.0 {
            assert!(w_hot <= w_cold + 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_is_rejected() {
        let _: PrioritizedReplay<u32> = PrioritizedReplay::new(0, 0.5);
    }

    #[test]
    fn try_new_reports_zero_capacity_as_a_typed_error() {
        assert_eq!(
            PrioritizedReplay::<u32>::try_new(0, 0.5).unwrap_err(),
            ReplayConfigError::ZeroCapacity
        );
        assert!(PrioritizedReplay::<u32>::try_new(3, 0.5).is_ok());
    }

    #[test]
    fn from_parts_restores_sampling_bit_for_bit() {
        let mut buf = PrioritizedReplay::new(16, 0.7);
        for i in 0..23u32 {
            buf.push(i);
        }
        for i in 0..8 {
            buf.update_priority(i, 0.3 + i as f64);
        }
        let items: Vec<Option<u32>> = (0..buf.capacity()).map(|i| buf.slot(i).copied()).collect();
        let leaves: Vec<f64> = (0..buf.capacity()).map(|i| buf.leaf_priority(i)).collect();
        let restored = PrioritizedReplay::from_parts(
            buf.alpha(),
            items,
            &leaves,
            buf.next_slot(),
            buf.len(),
            buf.max_priority(),
        )
        .unwrap();
        // Identical draws from identical RNG states: the rebuilt tree must
        // route every sample to the same slot with the same weight bits.
        let mut rng_a = StdRng::seed_from_u64(99);
        let mut rng_b = StdRng::seed_from_u64(99);
        for _ in 0..50 {
            let a = buf.sample_indices(8, 0.6, &mut rng_a);
            let b = restored.sample_indices(8, 0.6, &mut rng_b);
            assert_eq!(a.len(), b.len());
            for ((ia, wa), (ib, wb)) in a.iter().zip(&b) {
                assert_eq!(ia, ib);
                assert_eq!(wa.to_bits(), wb.to_bits());
            }
        }
    }

    #[test]
    fn from_parts_rejects_malformed_snapshots() {
        // Non-power-of-two capacity.
        assert!(
            PrioritizedReplay::from_parts(0.5, vec![Some(1u32); 3], &[0.0; 3], 0, 3, 1.0).is_err()
        );
        // Leaf count mismatch.
        assert!(
            PrioritizedReplay::from_parts(0.5, vec![Some(1u32); 4], &[0.0; 3], 0, 4, 1.0).is_err()
        );
        // Cursor out of range.
        assert!(
            PrioritizedReplay::from_parts(0.5, vec![Some(1u32); 4], &[0.0; 4], 4, 4, 1.0).is_err()
        );
        // Occupancy/len disagreement.
        assert!(
            PrioritizedReplay::from_parts(0.5, vec![Some(1u32), None], &[0.0; 2], 0, 2, 1.0)
                .is_err()
        );
        // Negative / non-finite priorities.
        assert!(PrioritizedReplay::from_parts(
            0.5,
            vec![Some(1u32), None],
            &[-1.0, 0.0],
            0,
            1,
            1.0
        )
        .is_err());
        assert!(PrioritizedReplay::from_parts(
            0.5,
            vec![Some(1u32), None],
            &[f64::NAN, 0.0],
            0,
            1,
            1.0
        )
        .is_err());
    }
}
