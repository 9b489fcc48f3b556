//! Typed pipeline passes and the [`Schedule`] container.

use std::fmt;
use std::ops::Range;

/// The kind of work a pipeline pass performs.
///
/// Transformer passes follow the zero-bubble decomposition of Qi et al.:
/// `F` (forward), `B` (activation gradients) and `W` (weight gradients);
/// plain 1F1B schedules fold `W` into `B`. The vocabulary passes are the
/// paper's §4 groupings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PassKind {
    /// Transformer-chunk forward.
    F,
    /// Transformer-chunk backward (activation gradients; includes weight
    /// gradients unless the schedule emits separate [`PassKind::W`] passes).
    B,
    /// Transformer-chunk weight gradients (zero-bubble style split).
    W,
    /// Vocabulary output pass `S`: logits + local softmax (Algorithms 1/2),
    /// and additionally the pre-barrier matmuls for Algorithm 2.
    S,
    /// Second vocabulary output pass of the *naive* 3-barrier grouping
    /// (the `F2` pass of §4.1).
    S2,
    /// Vocabulary output pass `T`: weight gradients (and, for Algorithm 1,
    /// the `∇X′` matmul preceding the `C2` reduce).
    T,
    /// Sharded input-layer forward (Appendix C).
    InputF,
    /// Sharded input-layer backward (Appendix C).
    InputB,
    /// Interlaced (tensor-parallel style) output-layer forward — runs
    /// synchronously on all devices (Lin et al.'s nnScaler baseline).
    OutputF,
    /// Interlaced output-layer backward.
    OutputB,
}

impl PassKind {
    /// Whether this pass allocates a resident activation (counted against
    /// the schedule's peak activation memory): transformer forwards do.
    pub fn allocates_activation(self) -> bool {
        matches!(self, PassKind::F)
    }

    /// Whether this pass frees the corresponding resident activation.
    pub fn frees_activation(self) -> bool {
        matches!(self, PassKind::B)
    }

    /// Whether this pass may appear in a forward-only decode schedule.
    /// Inference runs the transformer forward, the sharded input
    /// embedding and the Algorithm-2 `S` pass (whose single barrier doubles
    /// as the sampling merge) — plus, in the overlapped decode family, the
    /// `T` pass as the *deferred* sampling merge: `S` submits the
    /// all-gather to a communication stream and `T` waits on the result,
    /// so transformer compute of other microbatches runs while the
    /// collective is in flight. Everything else either produces gradients
    /// or belongs to a multi-barrier grouping decode never uses.
    pub fn decode_safe(self) -> bool {
        matches!(
            self,
            PassKind::F | PassKind::S | PassKind::T | PassKind::InputF
        )
    }

    /// Static label used by the measured-run tracer and timeline tables
    /// (stable across both the simulator and the numeric runtime, so
    /// simulated and measured traces key per-kind time the same way).
    pub fn name(self) -> &'static str {
        match self {
            PassKind::F => "F",
            PassKind::B => "B",
            PassKind::W => "W",
            PassKind::S => "S",
            PassKind::S2 => "S2",
            PassKind::T => "T",
            PassKind::InputF => "InputF",
            PassKind::InputB => "InputB",
            PassKind::OutputF => "OutputF",
            PassKind::OutputB => "OutputB",
        }
    }

    /// Single-character label used by the ASCII renderer.
    pub fn glyph(self) -> char {
        match self {
            PassKind::F => 'F',
            PassKind::B => 'B',
            PassKind::W => 'W',
            PassKind::S => 'S',
            PassKind::S2 => 'Z',
            PassKind::T => 'T',
            PassKind::InputF => 'i',
            PassKind::InputB => 'j',
            PassKind::OutputF => 'O',
            PassKind::OutputB => 'Q',
        }
    }
}

impl fmt::Display for PassKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.glyph())
    }
}

/// Which output-layer grouping a vocabulary schedule uses (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VocabVariant {
    /// Naive 3-barrier grouping (`F1`/`F2`/`B` of §4.1).
    Naive,
    /// Algorithm 1: 2 barriers (Vocab-1).
    Alg1,
    /// Algorithm 2: 1 barrier (Vocab-2).
    Alg2,
}

impl VocabVariant {
    /// Number of communication barriers between the last transformer
    /// forward and backward — equal to the activation-memory overhead in
    /// microbatches (§5.2).
    pub fn barriers(self) -> usize {
        match self {
            VocabVariant::Naive => 3,
            VocabVariant::Alg1 => 2,
            VocabVariant::Alg2 => 1,
        }
    }

    /// The output passes this variant schedules, in dependency order.
    pub fn output_passes(self) -> &'static [PassKind] {
        match self {
            VocabVariant::Naive => &[PassKind::S, PassKind::S2, PassKind::T],
            VocabVariant::Alg1 | VocabVariant::Alg2 => &[PassKind::S, PassKind::T],
        }
    }
}

/// How a schedule maps virtual pipeline stages onto `(device, chunk)`
/// pairs when each device hosts several model chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChunkPlacement {
    /// V-shape (Qi et al. 2024): chunk 0 descends devices `0..p`, chunk 1
    /// ascends back `p−1..0`. Used by V-Half.
    VShape,
    /// Round-robin (Narayanan et al. 2021): virtual stage `c·p + d` lives
    /// on device `d`. Used by interleaved 1F1B.
    RoundRobin,
}

/// The schedule family a [`Schedule`] belongs to; determines the
/// cross-device dependency rules of [`crate::deps`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScheduleKind {
    /// Plain 1F1B (Baseline / Redis layouts): output layer folded into the
    /// last stage's `F`/`B` passes.
    Plain,
    /// Vocabulary Parallelism with the given output-layer variant.
    Vocab(VocabVariant),
    /// Interlaced pipeline (synchronous TP-style vocabulary layers).
    Interlaced,
}

/// One pass instance scheduled on a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScheduledPass {
    /// What the pass computes.
    pub kind: PassKind,
    /// Microbatch index in `0..num_microbatches`.
    pub microbatch: u32,
    /// Model chunk on this device (0 for 1F1B; 0/1 for V-shape schedules).
    pub chunk: u8,
}

impl ScheduledPass {
    /// Convenience constructor for chunk-0 passes.
    pub fn new(kind: PassKind, microbatch: u32) -> Self {
        ScheduledPass {
            kind,
            microbatch,
            chunk: 0,
        }
    }

    /// Constructor including the chunk index.
    pub fn with_chunk(kind: PassKind, microbatch: u32, chunk: u8) -> Self {
        ScheduledPass {
            kind,
            microbatch,
            chunk,
        }
    }
}

impl fmt::Display for ScheduledPass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.chunk == 0 {
            write!(f, "{}{}", self.kind, self.microbatch)
        } else {
            write!(f, "{}{}'{}", self.kind, self.microbatch, self.chunk)
        }
    }
}

/// A static pipeline schedule: an ordered pass list per device.
///
/// The order within each device is the *execution order* (the device runs
/// its passes strictly in sequence, blocking on cross-device dependencies);
/// the dependency relation itself is derived from
/// [`ScheduleKind`] by [`crate::deps`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    kind: ScheduleKind,
    num_microbatches: u32,
    /// Virtual pipeline stages per device (1 for 1F1B, 2 for V-shape).
    chunks: u8,
    placement: ChunkPlacement,
    device_passes: Vec<Vec<ScheduledPass>>,
}

impl Schedule {
    /// Assembles a schedule from per-device pass lists.
    ///
    /// # Panics
    ///
    /// Panics if `device_passes` is empty (zero devices is meaningless).
    pub fn new(
        kind: ScheduleKind,
        num_microbatches: u32,
        chunks: u8,
        device_passes: Vec<Vec<ScheduledPass>>,
    ) -> Self {
        assert!(
            !device_passes.is_empty(),
            "schedule must have at least one device"
        );
        Schedule {
            kind,
            num_microbatches,
            chunks,
            placement: ChunkPlacement::VShape,
            device_passes,
        }
    }

    /// Overrides the virtual-stage placement (default: V-shape).
    pub fn with_placement(mut self, placement: ChunkPlacement) -> Self {
        self.placement = placement;
        self
    }

    /// The virtual-stage placement.
    pub fn placement(&self) -> ChunkPlacement {
        self.placement
    }

    /// The schedule family.
    pub fn kind(&self) -> ScheduleKind {
        self.kind
    }

    /// Number of pipeline devices.
    pub fn devices(&self) -> usize {
        self.device_passes.len()
    }

    /// Number of microbatches per iteration.
    pub fn num_microbatches(&self) -> u32 {
        self.num_microbatches
    }

    /// Virtual pipeline chunks per device.
    pub fn chunks(&self) -> u8 {
        self.chunks
    }

    /// The ordered pass list of device `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d` is out of range.
    pub fn passes(&self, d: usize) -> &[ScheduledPass] {
        &self.device_passes[d]
    }

    /// Iterates over `(device, index_in_device, pass)` in device order.
    pub fn iter_all(&self) -> impl Iterator<Item = (usize, usize, &ScheduledPass)> {
        self.device_passes
            .iter()
            .enumerate()
            .flat_map(|(d, ps)| ps.iter().enumerate().map(move |(i, p)| (d, i, p)))
    }

    /// Total number of scheduled passes.
    pub fn total_passes(&self) -> usize {
        self.device_passes.iter().map(Vec::len).sum()
    }

    /// Number of passes of `kind` on device `d`.
    pub fn count_kind(&self, d: usize, kind: PassKind) -> usize {
        self.device_passes[d]
            .iter()
            .filter(|p| p.kind == kind)
            .count()
    }

    /// The slots each pass of device `d` samples, by pass index — the one
    /// grouping rule of the vocabulary output passes.
    ///
    /// An `S(k)` samples every slot `≤ k` that no earlier `S` on its device
    /// sampled: `lo..k + 1`, with `lo` one past the highest slot an earlier
    /// `S` reached (empty when one already reached `k`). A `T(k)` spans
    /// what the device's `S(k)` sampled — it finishes that `S`'s barrier.
    /// Every other kind spans nothing.
    ///
    /// Training schedules run one `S` per microbatch in ascending order,
    /// so every group is the singleton `k..k + 1`: the per-microbatch
    /// rule. The grouped decode schedules
    /// ([`crate::generators::decode_pipeline_grouped`]) run one `S` per `g`
    /// slots, and everything that asks "which slots does this pass touch"
    /// — dependency edges, buffer facts, the coverage lint, the engine
    /// that executes the list — reads the answer here.
    ///
    /// # Panics
    ///
    /// Panics if `d` is out of range.
    pub fn s_groups(&self, d: usize) -> Vec<Range<u32>> {
        let passes = &self.device_passes[d];
        let mut reached = 0;
        let mut groups: Vec<Range<u32>> = passes
            .iter()
            .map(|pass| {
                if pass.kind != PassKind::S {
                    return 0..0;
                }
                let end = pass.microbatch + 1;
                let group = reached.min(end)..end;
                reached = reached.max(end);
                group
            })
            .collect();
        for (i, pass) in passes.iter().enumerate() {
            if pass.kind == PassKind::T {
                let own_s = passes
                    .iter()
                    .position(|s| s.kind == PassKind::S && s.microbatch == pass.microbatch);
                if let Some(s) = own_s {
                    groups[i] = groups[s].clone();
                }
            }
        }
        groups
    }

    /// [`Self::iter_all`] with each pass's entry of [`Self::s_groups`]:
    /// `(device, index_in_device, pass, slots the pass samples)`.
    pub fn iter_all_grouped(
        &self,
    ) -> impl Iterator<Item = (usize, usize, &ScheduledPass, Range<u32>)> {
        (0..self.devices()).flat_map(move |d| {
            self.device_passes[d]
                .iter()
                .zip(self.s_groups(d))
                .enumerate()
                .map(move |(i, (pass, group))| (d, i, pass, group))
        })
    }

    /// The number of virtual pipeline stages (`devices × chunks`).
    pub fn virtual_stages(&self) -> usize {
        self.devices() * self.chunks as usize
    }

    /// Maps a virtual stage index to `(device, chunk)` under the
    /// schedule's placement.
    ///
    /// # Panics
    ///
    /// Panics if `stage >= virtual_stages()`.
    pub fn device_of_virtual_stage(&self, stage: usize) -> (usize, u8) {
        assert!(stage < self.virtual_stages(), "virtual stage out of range");
        placement_device_of(self.placement, self.devices(), stage)
    }

    /// Inverse of [`Self::device_of_virtual_stage`].
    pub fn virtual_stage_of(&self, device: usize, chunk: u8) -> usize {
        placement_stage_of(self.placement, self.devices(), device, chunk)
    }
}

/// Maps a virtual stage to `(device, chunk)` under `placement`.
pub fn placement_device_of(placement: ChunkPlacement, devices: usize, stage: usize) -> (usize, u8) {
    match placement {
        ChunkPlacement::VShape => {
            if stage < devices {
                (stage, 0)
            } else {
                (2 * devices - 1 - stage, 1)
            }
        }
        ChunkPlacement::RoundRobin => (stage % devices, (stage / devices) as u8),
    }
}

/// Maps `(device, chunk)` to a virtual stage under `placement`.
pub fn placement_stage_of(
    placement: ChunkPlacement,
    devices: usize,
    device: usize,
    chunk: u8,
) -> usize {
    match placement {
        ChunkPlacement::VShape => match chunk {
            0 => device,
            _ => 2 * devices - 1 - device,
        },
        ChunkPlacement::RoundRobin => chunk as usize * devices + device,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barrier_counts_match_paper() {
        assert_eq!(VocabVariant::Naive.barriers(), 3);
        assert_eq!(VocabVariant::Alg1.barriers(), 2);
        assert_eq!(VocabVariant::Alg2.barriers(), 1);
    }

    #[test]
    fn virtual_stage_mapping_is_a_v_shape() {
        let sched = Schedule::new(ScheduleKind::Plain, 1, 2, vec![vec![]; 4]);
        // Chunk 0 descends, chunk 1 ascends.
        assert_eq!(sched.device_of_virtual_stage(0), (0, 0));
        assert_eq!(sched.device_of_virtual_stage(3), (3, 0));
        assert_eq!(sched.device_of_virtual_stage(4), (3, 1));
        assert_eq!(sched.device_of_virtual_stage(7), (0, 1));
        for vs in 0..8 {
            let (d, c) = sched.device_of_virtual_stage(vs);
            assert_eq!(sched.virtual_stage_of(d, c), vs);
        }
    }

    #[test]
    fn round_robin_placement_maps_stages_cyclically() {
        let sched = Schedule::new(ScheduleKind::Plain, 1, 2, vec![vec![]; 4])
            .with_placement(ChunkPlacement::RoundRobin);
        assert_eq!(sched.device_of_virtual_stage(0), (0, 0));
        assert_eq!(sched.device_of_virtual_stage(3), (3, 0));
        assert_eq!(sched.device_of_virtual_stage(4), (0, 1));
        assert_eq!(sched.device_of_virtual_stage(7), (3, 1));
        for vs in 0..8 {
            let (d, c) = sched.device_of_virtual_stage(vs);
            assert_eq!(sched.virtual_stage_of(d, c), vs);
        }
    }

    #[test]
    fn an_s_samples_every_slot_up_to_its_own_that_no_earlier_s_took() {
        let list = |passes: &[(PassKind, u32)]| {
            let passes = passes
                .iter()
                .map(|&(kind, mb)| ScheduledPass::new(kind, mb))
                .collect();
            Schedule::new(ScheduleKind::Vocab(VocabVariant::Alg2), 6, 1, vec![passes])
        };
        use PassKind::{F, S, T};
        // One S per slot, ascending (every training schedule): singletons,
        // and each T spans its own S's slot.
        let per_slot = list(&[(S, 0), (S, 1), (T, 0), (S, 2), (T, 1), (T, 2)]);
        assert_eq!(per_slot.s_groups(0), [0..1, 1..2, 0..1, 2..3, 1..2, 2..3]);
        // Grouped: S(1) takes {0, 1}, S(5) the four slots after it.
        let grouped = list(&[(F, 0), (S, 1), (F, 2), (T, 1), (S, 5), (T, 5)]);
        assert_eq!(grouped.s_groups(0), [0..0, 0..2, 0..0, 0..2, 2..6, 2..6]);
        // Out of order, the later S finds nothing left; a T without its S
        // spans nothing.
        let skewed = list(&[(S, 3), (S, 2), (T, 2), (T, 4)]);
        assert_eq!(skewed.s_groups(0), [0..4, 3..3, 3..3, 0..0]);
    }

    #[test]
    fn activation_accounting_flags() {
        assert!(PassKind::F.allocates_activation());
        assert!(PassKind::B.frees_activation());
        assert!(!PassKind::S.allocates_activation());
        assert!(!PassKind::W.frees_activation());
    }

    #[test]
    fn display_formats_compactly() {
        assert_eq!(ScheduledPass::new(PassKind::F, 3).to_string(), "F3");
        assert_eq!(
            ScheduledPass::with_chunk(PassKind::B, 2, 1).to_string(),
            "B2'1"
        );
    }
}
