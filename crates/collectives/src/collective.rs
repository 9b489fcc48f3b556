use std::fmt;
use std::sync::{Arc, Condvar, Mutex};

/// Error type for collective operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CollectiveError {
    /// A participant supplied a buffer of unexpected length.
    LengthMismatch {
        /// Rank of the complaining participant.
        rank: usize,
        /// Length this participant supplied.
        got: usize,
        /// Length supplied by the first arriving participant.
        expected: usize,
    },
    /// A rank argument was out of range.
    BadRank {
        /// The offending rank.
        rank: usize,
        /// Number of participants.
        world: usize,
    },
}

impl fmt::Display for CollectiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectiveError::LengthMismatch {
                rank,
                got,
                expected,
            } => {
                write!(
                    f,
                    "rank {rank} supplied {got} elements, expected {expected}"
                )
            }
            CollectiveError::BadRank { rank, world } => {
                write!(f, "rank {rank} out of range for world size {world}")
            }
        }
    }
}

impl std::error::Error for CollectiveError {}

/// Reduction operator for [`Collective::all_reduce`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise maximum (used for the softmax max statistic).
    Max,
}

impl ReduceOp {
    #[inline]
    fn combine(self, a: f32, b: f32) -> f32 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Max => a.max(b),
        }
    }

    /// Identity element of the operator.
    pub fn identity(self) -> f32 {
        match self {
            ReduceOp::Sum => 0.0,
            ReduceOp::Max => f32::NEG_INFINITY,
        }
    }
}

/// One round of rendezvous state shared by all ranks.
struct Round {
    arrived: usize,
    generation: u64,
    contributions: Vec<Option<Vec<f32>>>,
    /// Gathered contributions of the *completed* generation, kept until
    /// every rank has copied what it needs.
    published: Vec<Vec<f32>>,
}

struct Shared {
    world: usize,
    round: Mutex<Round>,
    cv: Condvar,
}

/// Factory for the per-rank [`Collective`] handles of one communicator.
///
/// Mirrors an NCCL communicator: every rank must call each collective the
/// same number of times in the same order. Use separate groups for separate
/// logical streams (e.g. one for vocabulary-layer barriers, one for
/// data-parallel gradient sync) exactly as the paper uses separate NCCL
/// communicators per stream.
#[derive(Debug)]
pub struct CollectiveGroup;

impl CollectiveGroup {
    /// Creates the `world` per-rank handles of a new communicator.
    ///
    /// # Panics
    ///
    /// Panics if `world == 0`.
    #[allow(clippy::new_ret_no_self)] // a factory for per-rank handles, not a constructor
    pub fn new(world: usize) -> Vec<Collective> {
        assert!(world > 0, "world size must be positive");
        let shared = Arc::new(Shared {
            world,
            round: Mutex::new(Round {
                arrived: 0,
                generation: 0,
                contributions: vec![None; world],
                published: Vec::new(),
            }),
            cv: Condvar::new(),
        });
        (0..world)
            .map(|rank| Collective {
                rank,
                shared: Arc::clone(&shared),
            })
            .collect()
    }
}

/// Per-rank handle to a collective communicator.
pub struct Collective {
    rank: usize,
    shared: Arc<Shared>,
}

impl fmt::Debug for Collective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Collective")
            .field("rank", &self.rank)
            .field("world", &self.shared.world)
            .finish()
    }
}

impl Collective {
    /// This participant's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of participants.
    pub fn world(&self) -> usize {
        self.shared.world
    }

    /// The universal rendezvous: every rank contributes a buffer; once all
    /// have arrived, all contributions are published and every rank returns
    /// a clone of the full set (indexed by rank).
    fn exchange(&self, contribution: Vec<f32>) -> Vec<Vec<f32>> {
        let shared = &*self.shared;
        let mut round = shared.round.lock().expect("collective lock poisoned");
        let my_generation = round.generation;
        round.contributions[self.rank] = Some(contribution);
        round.arrived += 1;
        if round.arrived == shared.world {
            round.published = round
                .contributions
                .iter_mut()
                .map(|c| c.take().expect("all ranks contributed"))
                .collect();
            round.arrived = 0;
            round.generation += 1;
            shared.cv.notify_all();
        } else {
            while round.generation == my_generation {
                round = shared.cv.wait(round).expect("collective lock poisoned");
            }
        }
        round.published.clone()
    }

    /// Blocks until every rank has reached the barrier.
    pub fn barrier(&self) {
        let _ = self.exchange(Vec::new());
    }

    /// All-reduce: combines every rank's buffer elementwise with `op`; on
    /// return every rank's `data` holds the reduced result.
    ///
    /// # Errors
    ///
    /// Returns [`CollectiveError::LengthMismatch`] if the ranks disagree on
    /// the buffer length.
    pub fn all_reduce(&self, data: &mut [f32], op: ReduceOp) -> Result<(), CollectiveError> {
        // A one-rank group is a true no-op: returning without touching the
        // buffer keeps it bitwise intact, whereas folding through the
        // identity would rewrite -0.0 to +0.0 under `Sum`.
        if self.world() == 1 {
            return Ok(());
        }
        let gathered = self.exchange(data.to_vec());
        let expected = gathered[0].len();
        for (rank, c) in gathered.iter().enumerate() {
            if c.len() != expected {
                return Err(CollectiveError::LengthMismatch {
                    rank,
                    got: c.len(),
                    expected,
                });
            }
        }
        if data.len() != expected {
            return Err(CollectiveError::LengthMismatch {
                rank: self.rank,
                got: data.len(),
                expected,
            });
        }
        data.fill(op.identity());
        for c in &gathered {
            for (d, &v) in data.iter_mut().zip(c) {
                *d = op.combine(*d, v);
            }
        }
        Ok(())
    }

    /// Reduce-to-root: like [`Self::all_reduce`] but only `root`'s buffer is
    /// updated (other ranks' buffers are left untouched).
    ///
    /// The paper implements the `∇X` reduce as an NCCL AllReduce to keep the
    /// communication volume balanced (§6.1); we expose both for clarity.
    ///
    /// # Errors
    ///
    /// Returns [`CollectiveError::BadRank`] for an invalid root, or a length
    /// mismatch as in [`Self::all_reduce`].
    pub fn reduce(
        &self,
        data: &mut [f32],
        root: usize,
        op: ReduceOp,
    ) -> Result<(), CollectiveError> {
        if root >= self.world() {
            return Err(CollectiveError::BadRank {
                rank: root,
                world: self.world(),
            });
        }
        let mut scratch = data.to_vec();
        self.all_reduce(&mut scratch, op)?;
        if self.rank == root {
            data.copy_from_slice(&scratch);
        }
        Ok(())
    }

    /// Broadcast: copies `root`'s buffer into every rank's `data`.
    ///
    /// # Errors
    ///
    /// Returns [`CollectiveError::BadRank`] for an invalid root, or
    /// [`CollectiveError::LengthMismatch`] if receivers sized their buffers
    /// differently from the root's payload.
    pub fn broadcast(&self, data: &mut [f32], root: usize) -> Result<(), CollectiveError> {
        if root >= self.world() {
            return Err(CollectiveError::BadRank {
                rank: root,
                world: self.world(),
            });
        }
        let contribution = if self.rank == root {
            data.to_vec()
        } else {
            Vec::new()
        };
        let gathered = self.exchange(contribution);
        let payload = &gathered[root];
        if payload.len() != data.len() {
            return Err(CollectiveError::LengthMismatch {
                rank: self.rank,
                got: data.len(),
                expected: payload.len(),
            });
        }
        data.copy_from_slice(payload);
        Ok(())
    }

    /// All-gather: returns every rank's contribution, indexed by rank.
    /// Contributions may have different lengths (vocabulary shards are
    /// padded to equal size in practice, but the primitive is general).
    pub fn all_gather(&self, data: &[f32]) -> Vec<Vec<f32>> {
        self.exchange(data.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn run_parallel<F, T>(world: usize, f: F) -> Vec<T>
    where
        F: Fn(Collective) -> T + Send + Sync,
        T: Send,
    {
        let handles = CollectiveGroup::new(world);
        thread::scope(|scope| {
            let mut joins = Vec::new();
            for h in handles {
                joins.push(scope.spawn(|| f(h)));
            }
            joins.into_iter().map(|j| j.join().unwrap()).collect()
        })
    }

    #[test]
    fn all_reduce_sum() {
        let results = run_parallel(4, |c| {
            let mut data = vec![c.rank() as f32, 1.0];
            c.all_reduce(&mut data, ReduceOp::Sum).unwrap();
            data
        });
        for r in results {
            assert_eq!(r, vec![6.0, 4.0]);
        }
    }

    #[test]
    fn all_reduce_max_with_neg_infinity() {
        let results = run_parallel(3, |c| {
            let mut data = vec![if c.rank() == 1 {
                5.0
            } else {
                f32::NEG_INFINITY
            }];
            c.all_reduce(&mut data, ReduceOp::Max).unwrap();
            data[0]
        });
        assert!(results.iter().all(|&v| v == 5.0));
    }

    #[test]
    fn repeated_all_reduces_do_not_cross_talk() {
        let results = run_parallel(4, |c| {
            let mut acc = Vec::new();
            for round in 0..50 {
                let mut data = vec![(c.rank() + round) as f32];
                c.all_reduce(&mut data, ReduceOp::Sum).unwrap();
                acc.push(data[0]);
            }
            acc
        });
        for r in results {
            for (round, v) in r.iter().enumerate() {
                assert_eq!(*v, (6 + 4 * round) as f32);
            }
        }
    }

    #[test]
    fn broadcast_from_each_root() {
        for root in 0..3 {
            let results = run_parallel(3, move |c| {
                let mut data = if c.rank() == root {
                    vec![42.0, 7.0]
                } else {
                    vec![0.0, 0.0]
                };
                c.broadcast(&mut data, root).unwrap();
                data
            });
            for r in results {
                assert_eq!(r, vec![42.0, 7.0]);
            }
        }
    }

    #[test]
    fn reduce_updates_only_root() {
        let results = run_parallel(3, |c| {
            let mut data = vec![1.0];
            c.reduce(&mut data, 2, ReduceOp::Sum).unwrap();
            (c.rank(), data[0])
        });
        for (rank, v) in results {
            if rank == 2 {
                assert_eq!(v, 3.0);
            } else {
                assert_eq!(v, 1.0);
            }
        }
    }

    #[test]
    fn all_gather_preserves_rank_order_and_lengths() {
        let results = run_parallel(3, |c| {
            let data = vec![c.rank() as f32; c.rank() + 1];
            c.all_gather(&data)
        });
        for r in results {
            assert_eq!(r.len(), 3);
            for (rank, part) in r.iter().enumerate() {
                assert_eq!(part.len(), rank + 1);
                assert!(part.iter().all(|&v| v == rank as f32));
            }
        }
    }

    #[test]
    fn mismatched_lengths_error() {
        let results = run_parallel(2, |c| {
            let mut data = vec![0.0; c.rank() + 1];
            c.all_reduce(&mut data, ReduceOp::Sum)
        });
        assert!(results.iter().any(|r| r.is_err()));
    }

    #[test]
    fn bad_root_is_rejected() {
        let results = run_parallel(2, |c| {
            // Invalid root is rejected locally without a rendezvous, so all
            // ranks see the same error and nobody blocks.
            c.broadcast(&mut [0.0], 5)
        });
        for r in results {
            assert_eq!(r, Err(CollectiveError::BadRank { rank: 5, world: 2 }));
        }
    }

    #[test]
    fn world_of_one_all_reduce_is_bitwise_identity() {
        // -0.0, subnormals and extreme exponents must survive untouched:
        // `0.0 + v` would flush -0.0 to +0.0, so the degenerate group must
        // not fold through the identity element at all.
        let tricky = [-0.0f32, 0.0, f32::MIN_POSITIVE / 2.0, -1.5e38, 3.4e38];
        let results = run_parallel(1, move |c| {
            let mut sum = tricky.to_vec();
            c.all_reduce(&mut sum, ReduceOp::Sum).unwrap();
            let mut max = tricky.to_vec();
            c.all_reduce(&mut max, ReduceOp::Max).unwrap();
            (sum, max)
        });
        for (sum, max) in results {
            for (a, b) in tricky.iter().zip(&sum) {
                assert_eq!(a.to_bits(), b.to_bits(), "sum changed {a}");
            }
            for (a, b) in tricky.iter().zip(&max) {
                assert_eq!(a.to_bits(), b.to_bits(), "max changed {a}");
            }
        }
    }

    #[test]
    fn world_of_one_broadcast_and_barrier_are_no_ops() {
        let results = run_parallel(1, |c| {
            let mut data = vec![-0.0f32, 9.25];
            c.broadcast(&mut data, 0).unwrap();
            c.barrier();
            let mut root = vec![-7.5f32];
            c.reduce(&mut root, 0, ReduceOp::Max).unwrap();
            (data, root)
        });
        let (data, root) = &results[0];
        assert_eq!(data[0].to_bits(), (-0.0f32).to_bits());
        assert_eq!(data[1], 9.25);
        assert_eq!(root[0], -7.5);
    }

    #[test]
    fn uneven_last_shard_round_trips_bitwise() {
        // Shard a buffer whose length does not divide the world size: the
        // last shard is short. all_gather + concatenation must reproduce
        // the original bitwise (vocabulary shards with the paper's padding
        // removed hit exactly this shape).
        let full: Vec<f32> = (0..10)
            .map(|i| if i % 3 == 0 { -0.0 } else { i as f32 * 1.3e-5 })
            .collect();
        let bounds = |rank: usize| {
            // 4-4-2 split over 3 ranks.
            let base = 4usize;
            let start = (base * rank).min(full.len());
            let end = (base * (rank + 1)).min(full.len());
            (start, end)
        };
        let full_clone = full.clone();
        let results = run_parallel(3, move |c| {
            let (start, end) = bounds(c.rank());
            c.all_gather(&full_clone[start..end])
        });
        for gathered in results {
            let rebuilt: Vec<f32> = gathered.concat();
            assert_eq!(rebuilt.len(), full.len());
            for (a, b) in full.iter().zip(&rebuilt) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn barrier_orders_phases() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        run_parallel(4, |c| {
            counter.fetch_add(1, Ordering::SeqCst);
            c.barrier();
            // After the barrier every rank must observe all increments.
            assert_eq!(counter.load(Ordering::SeqCst), 4);
        });
    }
}
