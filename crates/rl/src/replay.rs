//! Experience-replay buffer.

use rand::Rng;

/// One stored transition.
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// State before the action.
    pub state: Vec<f64>,
    /// Action taken.
    pub action: usize,
    /// Reward received (possibly delayed).
    pub reward: f64,
    /// State after the action.
    pub next_state: Vec<f64>,
    /// Whether the episode ended at this transition.
    pub done: bool,
}

/// Fixed-capacity ring buffer of transitions with uniform sampling.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayBuffer {
    items: Vec<Transition>,
    capacity: usize,
    next: usize,
}

impl ReplayBuffer {
    /// Create a buffer holding up to `capacity` transitions.
    pub fn new(capacity: usize) -> Self {
        ReplayBuffer {
            items: Vec::with_capacity(capacity.min(4096)),
            capacity: capacity.max(1),
            next: 0,
        }
    }

    /// Number of stored transitions.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// A 64-bit fingerprint of the exact contents (every bit of every
    /// transition, in slot order) and the ring position: two buffers
    /// with equal digests sample and evict identically, barring a hash
    /// collision.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0;
        let mut mix = |x: u64| h = (h.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
        mix(self.capacity as u64);
        mix(self.next as u64);
        mix(self.items.len() as u64);
        for t in &self.items {
            for v in [&t.state, &t.next_state] {
                mix(v.len() as u64);
                v.iter().for_each(|x| mix(x.to_bits()));
            }
            mix(t.action as u64);
            mix(t.reward.to_bits());
            mix(u64::from(t.done));
        }
        h
    }

    /// Store a transition, evicting the oldest when full.
    pub fn push(&mut self, t: Transition) {
        if self.items.len() < self.capacity {
            self.items.push(t);
        } else {
            self.items[self.next] = t;
            self.next = (self.next + 1) % self.capacity;
        }
    }

    /// Sample `n` transitions uniformly with replacement (empty when the
    /// buffer is empty).
    pub fn sample<R: Rng>(&self, n: usize, rng: &mut R) -> Vec<&Transition> {
        let mut indices = Vec::with_capacity(n);
        self.sample_indices(n, rng, &mut indices);
        indices.into_iter().map(|i| &self.items[i]).collect()
    }

    /// [`sample`](Self::sample) as indices for [`get`](Self::get), written
    /// into `out` (cleared first) so a hot loop can reuse one buffer.
    /// Consumes the same RNG draws as `sample`.
    pub fn sample_indices<R: Rng>(&self, n: usize, rng: &mut R, out: &mut Vec<usize>) {
        out.clear();
        if !self.items.is_empty() {
            out.extend((0..n).map(|_| rng.gen_range(0..self.items.len())));
        }
    }

    /// The transition at `index` (as returned by
    /// [`sample_indices`](Self::sample_indices)).
    pub fn get(&self, index: usize) -> &Transition {
        &self.items[index]
    }
}

/// Pushing a sequence of transitions leaves the buffer exactly as
/// pushing them one by one would, ring position included.
impl Extend<Transition> for ReplayBuffer {
    fn extend<I: IntoIterator<Item = Transition>>(&mut self, iter: I) {
        for t in iter {
            self.push(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn t(r: f64) -> Transition {
        Transition {
            state: vec![r],
            action: 0,
            reward: r,
            next_state: vec![r + 1.0],
            done: false,
        }
    }

    #[test]
    fn push_and_len() {
        let mut b = ReplayBuffer::new(3);
        assert!(b.is_empty());
        b.push(t(1.0));
        b.push(t(2.0));
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn eviction_wraps_ring() {
        let mut b = ReplayBuffer::new(2);
        b.push(t(1.0));
        b.push(t(2.0));
        b.push(t(3.0)); // evicts 1.0
        assert_eq!(b.len(), 2);
        let rewards: Vec<f64> = b.items.iter().map(|x| x.reward).collect();
        assert!(rewards.contains(&3.0));
        assert!(!rewards.contains(&1.0));
    }

    #[test]
    fn digest_tells_contents_and_ring_position_apart() {
        let mut a = ReplayBuffer::new(2);
        a.extend([t(1.0), t(2.0)]);
        let mut b = a.clone();
        assert_eq!(a.digest(), b.digest());
        b.push(t(3.0));
        assert_ne!(a.digest(), b.digest());
        a.push(t(3.0));
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        // Same transitions, different slot order.
        let mut c = ReplayBuffer::new(2);
        c.extend([t(3.0), t(2.0)]);
        assert_ne!(c.digest(), a.digest());
        let mut d = ReplayBuffer::new(2);
        d.push(t(-0.0));
        let mut e = ReplayBuffer::new(2);
        e.push(t(0.0));
        assert_ne!(d.digest(), e.digest(), "every bit counts");
    }

    #[test]
    fn sampling_respects_count() {
        let mut b = ReplayBuffer::new(10);
        for i in 0..5 {
            b.push(t(i as f64));
        }
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(b.sample(3, &mut rng).len(), 3);
        assert_eq!(b.sample(0, &mut rng).len(), 0);
        let empty = ReplayBuffer::new(4);
        assert!(empty.sample(3, &mut rng).is_empty());
    }
}
