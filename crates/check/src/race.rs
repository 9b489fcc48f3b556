//! Static race detection (`VP0012`): every pair of conflicting buffer
//! accesses must be ordered by a happens-before path.
//!
//! The buffer facts of [`vp_schedule::facts`] are deliberately independent
//! of the dependency rules, so this pass *verifies* rather than assumes
//! that the rules order every conflict: for each logical buffer, each
//! (write, read) pair needs a happens-before path from the write to the
//! read, and each (write, write) pair needs a path in either direction.
//! On every valid built-in schedule this proves race freedom — including
//! the paper's §4.4 claim that Algorithm 2's `T` pass is freely deferrable
//! because it touches no buffer the backward chain reads.

use std::collections::HashMap;
use vp_schedule::deps::DepContext;
use vp_schedule::facts::{buffer_accesses, Access, Buffer};
use vp_schedule::hb::HbGraph;
use vp_schedule::pass::Schedule;

use crate::diag::{Code, Diagnostic, Site};

/// Dense transitive-closure bitsets over a happens-before graph:
/// `before(u, v)` answers "must `u` finish before `v` starts?".
pub struct Reachability {
    words: usize,
    bits: Vec<u64>,
}

impl Reachability {
    /// Computes the ancestor sets of every node by a single sweep over a
    /// topological order (`O(V·E/64)` words of work, `V²/64` words of
    /// memory — a few hundred KiB for the largest sweep schedules).
    pub fn compute(hb: &HbGraph, topo: &[usize]) -> Reachability {
        let n = hb.len();
        let words = n.div_ceil(64).max(1);
        let mut bits = vec![0u64; n * words];
        let mut row = vec![0u64; words];
        for &v in topo {
            row.copy_from_slice(&bits[v * words..(v + 1) * words]);
            row[v / 64] |= 1 << (v % 64);
            for &(w, _) in hb.succs(v) {
                let dst = &mut bits[w * words..(w + 1) * words];
                for (d, s) in dst.iter_mut().zip(&row) {
                    *d |= s;
                }
            }
        }
        Reachability { words, bits }
    }

    /// Whether node `u` happens before node `v` (strictly: `u != v` and a
    /// path exists).
    pub fn before(&self, u: usize, v: usize) -> bool {
        u != v && self.bits[v * self.words + u / 64] & (1 << (u % 64)) != 0
    }
}

/// Checks every conflicting access pair of every logical buffer for
/// happens-before ordering. Emits at most one `VP0012` per buffer (the
/// first unordered pair found), since one broken buffer usually breaks
/// many of its pairs at once.
pub fn check_races(schedule: &Schedule, hb: &HbGraph, reach: &Reachability) -> Vec<Diagnostic> {
    let ctx = DepContext::of(schedule);
    // Insertion-ordered buffer table for deterministic reports.
    let mut order: Vec<Buffer> = Vec::new();
    let mut accesses: HashMap<Buffer, Vec<(usize, Access)>> = HashMap::new();
    for (d, i, pass, group) in schedule.iter_all_grouped() {
        for (buffer, access) in buffer_accesses(&ctx, d, pass, &group) {
            let entry = accesses.entry(buffer).or_insert_with(|| {
                order.push(buffer);
                Vec::new()
            });
            entry.push((hb.id(d, i), access));
        }
    }
    let mut diags = Vec::new();
    'buffers: for buffer in order {
        let list = &accesses[&buffer];
        for (a, (u, ua)) in list.iter().enumerate() {
            if *ua != Access::Write {
                continue;
            }
            for (b, (v, va)) in list.iter().enumerate() {
                if a == b || u == v {
                    continue;
                }
                match va {
                    Access::Read => {
                        if !reach.before(*u, *v) {
                            diags.push(race_diag(hb, &buffer, *u, *v, reach));
                            continue 'buffers;
                        }
                    }
                    Access::Write => {
                        if b > a && !reach.before(*u, *v) && !reach.before(*v, *u) {
                            diags.push(race_diag(hb, &buffer, *u, *v, reach));
                            continue 'buffers;
                        }
                    }
                }
            }
        }
    }
    diags
}

fn site_of(hb: &HbGraph, id: usize) -> Site {
    let (device, slot, pass) = hb.node(id);
    Site { device, slot, pass }
}

fn race_diag(
    hb: &HbGraph,
    buffer: &Buffer,
    writer: usize,
    other: usize,
    reach: &Reachability,
) -> Diagnostic {
    let wsite = site_of(hb, writer);
    let osite = site_of(hb, other);
    let (verb, note) = if reach.before(other, writer) {
        (
            "runs before",
            "the consumer is ordered before the producer: it observes stale or \
             uninitialized contents",
        )
    } else {
        (
            "is unordered with",
            "no chain of program order and dependency edges relates the two accesses: \
             on real hardware they race",
        )
    };
    Diagnostic::error(
        Code::UnsyncedAccess,
        format!(
            "conflicting accesses to the {buffer}: {} on device {} {verb} the write by {} \
             on device {}",
            osite.pass, osite.device, wsite.pass, wsite.device
        ),
    )
    .at(osite)
    .related(wsite, "the conflicting write")
    .note(note)
    .help("add (or fix) the dependency edge that should order these passes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_schedule::block::PassTimes;
    use vp_schedule::deps::build_deps;
    use vp_schedule::generators::{vocab_1f1b, zb_vocab_1f1b};
    use vp_schedule::pass::{PassKind, VocabVariant};

    fn zb_times() -> PassTimes {
        PassTimes {
            w: 1.0,
            b: 1.0,
            ..PassTimes::default()
        }
    }

    fn closure(sched: &Schedule) -> (HbGraph, Reachability) {
        let deps = build_deps(sched).unwrap();
        let hb = HbGraph::new(sched, &deps);
        let topo = hb.topo_order().expect("acyclic");
        let reach = Reachability::compute(&hb, &topo);
        (hb, reach)
    }

    #[test]
    fn reachability_includes_transitive_cross_device_paths() {
        let sched = vocab_1f1b(3, 4, VocabVariant::Alg1, PassTimes::default(), false);
        let (hb, reach) = closure(&sched);
        // Device 0's F0 happens before device 2's B0 (forward chain, then
        // the last stage's local F→B edge).
        let f0 = sched
            .passes(0)
            .iter()
            .position(|p| p.kind == PassKind::F && p.microbatch == 0)
            .unwrap();
        let b0 = sched
            .passes(2)
            .iter()
            .position(|p| p.kind == PassKind::B && p.microbatch == 0)
            .unwrap();
        assert!(reach.before(hb.id(0, f0), hb.id(2, b0)));
        assert!(!reach.before(hb.id(2, b0), hb.id(0, f0)));
    }

    #[test]
    fn valid_schedules_are_race_free() {
        for variant in [VocabVariant::Naive, VocabVariant::Alg1, VocabVariant::Alg2] {
            for include_input in [false, true] {
                let sched = zb_vocab_1f1b(4, 8, variant, zb_times(), include_input);
                let (hb, reach) = closure(&sched);
                let diags = check_races(&sched, &hb, &reach);
                assert!(
                    diags.is_empty(),
                    "{variant:?} input={include_input}: {diags:#?}"
                );
            }
        }
    }

    #[test]
    fn concurrent_pass_pairs_exist_but_share_no_buffers() {
        // Pipelines are parallel: plenty of pass pairs are unordered in
        // both directions. Race freedom means none of those pairs share a
        // buffer with a write — which is exactly what check_races proves.
        let sched = vp_schedule::generators::one_f_one_b(2, 2, PassTimes::default());
        let (hb, reach) = closure(&sched);
        let n = hb.len();
        let unordered =
            (0..n).any(|u| (0..n).any(|v| u != v && !reach.before(u, v) && !reach.before(v, u)));
        assert!(
            unordered,
            "pipeline schedules always have concurrent pass pairs"
        );
        assert!(check_races(&sched, &hb, &reach).is_empty());
    }

    #[test]
    fn detector_flags_unordered_conflicts_when_edges_vanish() {
        // The §5.1 rules order every organic conflict (the sweep proves
        // that), so exercise the detector by deleting all ordering: with
        // an empty reachability relation every write→read pair must be
        // reported — proving the pairs are actually examined, one
        // diagnostic per buffer.
        let sched = vocab_1f1b(2, 2, VocabVariant::Alg2, PassTimes::default(), false);
        let (hb, reach) = closure(&sched);
        assert!(check_races(&sched, &hb, &reach).is_empty());
        let words = hb.len().div_ceil(64).max(1);
        let empty = Reachability {
            words,
            bits: vec![0; hb.len() * words],
        };
        let diags = check_races(&sched, &hb, &empty);
        assert!(!diags.is_empty());
        assert!(diags.iter().all(|d| d.code == Code::UnsyncedAccess));
        let mut seen = std::collections::HashSet::new();
        for d in &diags {
            assert!(seen.insert(d.message.clone()), "duplicate: {}", d.message);
        }
    }
}
