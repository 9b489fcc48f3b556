//! Negative fixtures: decode pass lists no generator emits, kept because
//! the deadlock analyses (`vp-check`) and the rendezvous-faithful executor
//! ([`crate::exec`]) must keep rejecting them. Never execute one on the
//! runtime.

use crate::pass::{PassKind, Schedule, ScheduleKind, ScheduledPass, VocabVariant};

/// The *un-hoisted* decode layout at `g = 1`: each `InputF` send sits in
/// its natural position, immediately before the device's own `F` of the
/// same slot.
///
/// This is the schedule the serving engine originally walked, kept as the
/// regression fixture for the rendezvous deadlock it causes: for `p ≥ 2`
/// and `m ≥ 2`, a device enters its sampling barrier (`S`, a synchronous
/// all-gather) *before* issuing a later slot's embedding row, while stage
/// 0 needs that row to finish the forward the barrier is waiting on. The
/// asymmetric happens-before model is acyclic here — only the
/// blocking-send analysis (`VP0017`) and the rendezvous-faithful executor
/// see the cycle.
///
/// # Panics
///
/// Panics if `p == 0` or `m == 0`.
pub fn decode_pipeline_natural(p: usize, m: u32) -> Schedule {
    assert!(p > 0, "need at least one device");
    assert!(m > 0, "need at least one slot");
    let device_passes = (0..p)
        .map(|d| {
            let warm = (p - d) as u32;
            let mut v = Vec::new();
            for k in 0..m.min(warm) {
                v.push(ScheduledPass::new(PassKind::InputF, k));
                v.push(ScheduledPass::new(PassKind::F, k));
            }
            for k in warm..m {
                v.push(ScheduledPass::new(PassKind::S, k - warm));
                v.push(ScheduledPass::new(PassKind::InputF, k));
                v.push(ScheduledPass::new(PassKind::F, k));
            }
            for k in m.saturating_sub(warm)..m {
                v.push(ScheduledPass::new(PassKind::S, k));
            }
            v
        })
        .collect();
    Schedule::new(ScheduleKind::Vocab(VocabVariant::Alg2), m, 1, device_passes)
}

/// A deliberately *mis-split* overlap layout at `g = 1`: the half-batch
/// assignment is inconsistent across devices.
///
/// Device 0 merges immediately (`F(k) S(k) T(k)`, zero lag — as if its
/// half of the batch were empty), while every other device defers its
/// merge by `lag` slots (`F(0) … F(lag − 1)` before `S(0)`). For `p ≥ 2`,
/// `m ≥ 2` and `lag ≥ 2` this cycles: device 0's `T(0)` waits on device
/// 1's `S(0)` contribution, which sits behind device 1's `F(1)`, which
/// needs the activation of device 0's `F(1)` — scheduled *after* its
/// `T(0)`. The asymmetric happens-before graph contains the cycle
/// (`VP0001`), and the executor reaches the same stuck state.
///
/// # Panics
///
/// Panics if `p == 0` or `m == 0`.
pub fn decode_pipeline_overlap_missplit(p: usize, m: u32, lag: u32) -> Schedule {
    assert!(p > 0, "need at least one device");
    assert!(m > 0, "need at least one slot");
    let device_passes = (0..p)
        .map(|d| {
            let mut v: Vec<ScheduledPass> = (0..m)
                .map(|k| ScheduledPass::new(PassKind::InputF, k))
                .collect();
            if d == 0 {
                for k in 0..m {
                    v.push(ScheduledPass::new(PassKind::F, k));
                    v.push(ScheduledPass::new(PassKind::S, k));
                    v.push(ScheduledPass::new(PassKind::T, k));
                }
            } else {
                for k in 0..m.min(lag) {
                    v.push(ScheduledPass::new(PassKind::F, k));
                }
                for k in lag..m {
                    v.push(ScheduledPass::new(PassKind::S, k - lag));
                    v.push(ScheduledPass::new(PassKind::F, k));
                    v.push(ScheduledPass::new(PassKind::T, k - lag));
                }
                for k in m.saturating_sub(lag)..m {
                    v.push(ScheduledPass::new(PassKind::S, k));
                    v.push(ScheduledPass::new(PassKind::T, k));
                }
            }
            v
        })
        .collect();
    Schedule::new(ScheduleKind::Vocab(VocabVariant::Alg2), m, 1, device_passes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missplit_overlap_defers_merges_inconsistently_across_devices() {
        // The fixture's defining property: device 0 schedules T(0) before
        // its F(1), every other device schedules S(0) after its F(lag − 1)
        // — the inconsistent half-batch assignment the checkers must reject.
        for lag in [2, 3] {
            let sched = decode_pipeline_overlap_missplit(3, 4, lag);
            let pos = |d: usize, kind, k| {
                sched
                    .passes(d)
                    .iter()
                    .position(|x| x.kind == kind && x.microbatch == k)
                    .unwrap()
            };
            assert!(pos(0, PassKind::T, 0) < pos(0, PassKind::F, 1));
            for d in 1..3 {
                assert!(
                    pos(d, PassKind::F, lag - 1) < pos(d, PassKind::S, 0),
                    "lag {lag} device {d}"
                );
            }
        }
    }
}
