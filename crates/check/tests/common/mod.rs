//! Scaffolding shared by the seeded mutation suites: a reproducible
//! random source and the copy-mutate-rebuild helpers for pass lists.
#![allow(dead_code)]

use vp_schedule::block::PassTimes;
use vp_schedule::pass::{Schedule, ScheduledPass};

/// Deterministic LCG (Knuth's MMIX constants) so every mutation site is
/// reproducible from its seed.
pub struct Lcg(u64);

impl Lcg {
    pub fn new(seed: u64) -> Lcg {
        Lcg(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0
    }

    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0);
        (self.next() >> 33) as usize % n
    }
}

/// Pass times under which the zero-bubble generators split `B` and `W`.
pub fn zb_times() -> PassTimes {
    PassTimes {
        w: 1.0,
        b: 1.0,
        ..PassTimes::default()
    }
}

/// Every device's pass list, copied for mutation.
pub fn device_passes(sched: &Schedule) -> Vec<Vec<ScheduledPass>> {
    (0..sched.devices())
        .map(|d| sched.passes(d).to_vec())
        .collect()
}

/// `sched` with its pass lists replaced by `passes`.
pub fn rebuild(sched: &Schedule, passes: Vec<Vec<ScheduledPass>>) -> Schedule {
    Schedule::new(
        sched.kind(),
        sched.num_microbatches(),
        sched.chunks(),
        passes,
    )
    .with_placement(sched.placement())
}
