//! Mutation testing of the grid lints: seeded defects in the derived TP
//! collective fact table, each killed by exactly its code (`VP0013`
//! wrong-group membership, `VP0014` entry-order skew, `VP0015` grid
//! coverage holes) — and the unmutated tables asserted clean across
//! generator families and grid shapes.

mod common;

use common::{zb_times, Lcg};
use vp_check::grid::{check_grid, check_grid_facts};
use vp_check::Code;
use vp_schedule::block::PassTimes;
use vp_schedule::generators::{one_f_one_b, vocab_1f1b, zb_vocab_1f1b};
use vp_schedule::grid::{tp_ops, DeviceGrid, TpCollective};
use vp_schedule::pass::{Schedule, VocabVariant};

fn base_schedules(p: usize) -> Vec<(String, Schedule)> {
    vec![
        ("1f1b".to_string(), one_f_one_b(p, 6, PassTimes::default())),
        (
            "vocab-1f1b/Alg1".to_string(),
            vocab_1f1b(p, 6, VocabVariant::Alg1, PassTimes::default(), true),
        ),
        (
            "vocab-1f1b/Alg2".to_string(),
            vocab_1f1b(p, 6, VocabVariant::Alg2, PassTimes::default(), true),
        ),
        (
            "zb-vocab-1f1b/Alg2".to_string(),
            zb_vocab_1f1b(p, 6, VocabVariant::Alg2, zb_times(), true),
        ),
    ]
}

/// Indices of one member's entries in the table, in seq order.
fn entries_of(table: &[TpCollective], global: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..table.len())
        .filter(|&i| table[i].global == global)
        .collect();
    idx.sort_by_key(|&i| table[i].seq);
    idx
}

#[test]
fn unmutated_grids_are_accepted_across_families_and_shapes() {
    for pp in [2usize, 4] {
        for tp in [1usize, 2, 3] {
            let grid = DeviceGrid::new(pp, tp);
            for (name, sched) in base_schedules(pp) {
                let diags = check_grid(&sched, &grid);
                assert!(
                    diags.is_empty(),
                    "{name} on {pp}x{tp} should be clean: {diags:#?}"
                );
            }
        }
    }
}

/// Mutant class 1 — wrong group member: relabel one entry's group to a
/// different row (the runtime analogue: a communicator built from the
/// wrong ranks). Killed by `VP0013`, naming the rank's actual row.
#[test]
fn wrong_group_members_are_killed_by_vp0013() {
    for seed in 0..6u64 {
        let mut rng = Lcg::new(seed);
        let pp = [2, 4][rng.below(2)];
        let grid = DeviceGrid::new(pp, 2);
        let (name, sched) = {
            let mut bases = base_schedules(pp);
            let i = rng.below(bases.len());
            bases.swap_remove(i)
        };
        let mut table = tp_ops(&sched, &grid);
        let i = rng.below(table.len());
        let actual = table[i].group;
        table[i].group = (actual + 1 + rng.below(pp - 1)) % pp;
        let diags = check_grid_facts(&table, &grid);
        assert!(
            diags.iter().any(|d| d.code == Code::WrongGroupMember),
            "seed {seed} ({name}): {:?}",
            diags.iter().map(|d| d.code).collect::<Vec<_>>()
        );
        let d = diags
            .iter()
            .find(|d| d.code == Code::WrongGroupMember)
            .unwrap();
        assert!(
            d.notes.iter().any(|n| n.contains(&format!("row {actual}"))),
            "seed {seed} ({name}): {d}"
        );
    }
}

/// An out-of-grid rank is also `VP0013`, not a panic.
#[test]
fn out_of_grid_rank_is_killed_by_vp0013() {
    let grid = DeviceGrid::new(2, 2);
    let sched = one_f_one_b(2, 3, PassTimes::default());
    let mut table = tp_ops(&sched, &grid);
    table[0].global = grid.devices() + 3;
    let diags = check_grid_facts(&table, &grid);
    assert!(diags.iter().any(|d| d.code == Code::WrongGroupMember));
}

/// Mutant class 2 — entry-order skew: swap the rendezvous payloads of two
/// adjacent entries of *one* row member (its peers keep the original
/// order). The multiset stays intact, so this is killed by `VP0014`
/// specifically — and only when the row has a peer to disagree with.
#[test]
fn order_skew_is_killed_by_vp0014() {
    for seed in 0..6u64 {
        let mut rng = Lcg::new(100 + seed);
        let pp = [2, 4][rng.below(2)];
        let tp = 2 + rng.below(2);
        let grid = DeviceGrid::new(pp, tp);
        let (name, sched) = {
            let mut bases = base_schedules(pp);
            let i = rng.below(bases.len());
            bases.swap_remove(i)
        };
        let mut table = tp_ops(&sched, &grid);
        let victim = rng.below(grid.devices());
        let idx = entries_of(&table, victim);
        // Find adjacent entries with different payloads to swap.
        let i = (0..idx.len() - 1)
            .find(|&i| {
                let (a, b) = (table[idx[i]], table[idx[i + 1]]);
                (a.op, a.microbatch, a.chunk) != (b.op, b.microbatch, b.chunk)
            })
            .expect("every pass contributes at least two distinct rendezvous");
        let (a, b) = (idx[i], idx[i + 1]);
        let seq_a = table[a].seq;
        table[a].seq = table[b].seq;
        table[b].seq = seq_a;
        let diags = check_grid_facts(&table, &grid);
        assert!(
            diags.iter().any(|d| d.code == Code::GroupOrderSkew),
            "seed {seed} ({name}, rank {victim} on {pp}x{tp}): {:?}",
            diags.iter().map(|d| d.code).collect::<Vec<_>>()
        );
        assert!(
            !diags.iter().any(|d| d.code == Code::GridCoverageHole),
            "seed {seed} ({name}): pure reorder must not read as a coverage hole"
        );
    }
}

/// Mutant class 3 — coverage hole: drop one member's entries for one
/// microbatch (the runtime analogue: a rank that skips a sharded pass).
/// Killed by `VP0015`, naming a missing rendezvous.
#[test]
fn dropped_participation_is_killed_by_vp0015() {
    for seed in 0..6u64 {
        let mut rng = Lcg::new(200 + seed);
        let pp = [2, 4][rng.below(2)];
        let tp = 2 + rng.below(3);
        let grid = DeviceGrid::new(pp, tp);
        let (name, sched) = {
            let mut bases = base_schedules(pp);
            let i = rng.below(bases.len());
            bases.swap_remove(i)
        };
        let mut table = tp_ops(&sched, &grid);
        let victim = rng.below(grid.devices());
        let mb = rng.below(6) as u32;
        table.retain(|e| !(e.global == victim && e.microbatch == mb));
        let diags = check_grid_facts(&table, &grid);
        assert!(
            diags.iter().any(|d| d.code == Code::GridCoverageHole),
            "seed {seed} ({name}, rank {victim} mb {mb} on {pp}x{tp}): {:?}",
            diags.iter().map(|d| d.code).collect::<Vec<_>>()
        );
        let d = diags
            .iter()
            .find(|d| d.code == Code::GridCoverageHole)
            .unwrap();
        assert!(
            d.message.contains(&format!("rank {victim}")),
            "seed {seed} ({name}): {d}"
        );
    }
}

/// A member absent from the table entirely (thread never launched) is the
/// extreme coverage hole.
#[test]
fn fully_absent_member_is_killed_by_vp0015() {
    let grid = DeviceGrid::new(2, 2);
    let sched = vocab_1f1b(2, 4, VocabVariant::Alg2, PassTimes::default(), true);
    let mut table = tp_ops(&sched, &grid);
    table.retain(|e| e.global != 1);
    let diags = check_grid_facts(&table, &grid);
    assert!(diags.iter().any(|d| d.code == Code::GridCoverageHole));
}

/// At `tp = 1` every mutation that keeps membership legal is vacuously
/// consistent: single-member groups cannot skew or hole.
#[test]
fn tp1_tables_survive_reorders_and_drops() {
    let grid = DeviceGrid::new(4, 1);
    let sched = vocab_1f1b(4, 6, VocabVariant::Alg1, PassTimes::default(), true);
    let mut table = tp_ops(&sched, &grid);
    // Reorder one member and drop another's microbatch.
    let idx = entries_of(&table, 0);
    let seq0 = table[idx[0]].seq;
    table[idx[0]].seq = table[idx[1]].seq;
    table[idx[1]].seq = seq0;
    table.retain(|e| !(e.global == 2 && e.microbatch == 3));
    assert!(check_grid_facts(&table, &grid).is_empty());
}
