//! Static buffer and communication facts about passes.
//!
//! The dependency rules of [`crate::deps`] say *when* passes may run; this
//! module says *what they touch*: which logical buffers each pass reads or
//! writes (activation slots, vocabulary-shard accumulators, sharded
//! input-embedding stashes) and which collective class each dependency
//! edge realizes (the `C0`/`C1`/`C2` barriers of the paper's Algorithms
//! 1/2). `vp-check` consumes these facts for its communication-protocol
//! lint and its static race analysis; they are deliberately independent of
//! the dependency edges so the race pass can *verify* that every
//! conflicting access pair is ordered rather than assume it.

use crate::deps::{DepContext, EdgeKind};
use crate::pass::{PassKind, ScheduleKind, ScheduledPass, VocabVariant};
use std::fmt;
use std::ops::Range;

/// The collective-communication classes of the paper (§4, Appendix B/C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectiveClass {
    /// `C0`: broadcast of the last transformer output `X` to all shards.
    C0,
    /// `C1`: all-reduce of softmax statistics (Algorithm 2 folds the `∇X`
    /// reduce into the same barrier).
    C1,
    /// `C2`: reduce of `∇X` after the `T` passes (Algorithm 1 / naive).
    C2,
    /// The extra barrier of the naive 3-barrier grouping.
    Naive,
    /// All-reduce of sharded input-layer outputs (Appendix C).
    InputAllReduce,
    /// Broadcast of the embedding gradient to all input shards.
    InputGradBroadcast,
    /// Synchronous tensor-parallel communication of the interlaced
    /// pipeline.
    InterlacedSync,
}

impl fmt::Display for CollectiveClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            CollectiveClass::C0 => "C0 broadcast",
            CollectiveClass::C1 => "C1 barrier",
            CollectiveClass::C2 => "C2 reduce",
            CollectiveClass::Naive => "naive S/S2 barrier",
            CollectiveClass::InputAllReduce => "input all-reduce",
            CollectiveClass::InputGradBroadcast => "input grad broadcast",
            CollectiveClass::InterlacedSync => "interlaced sync",
        };
        write!(f, "{name}")
    }
}

impl EdgeKind {
    /// The collective class this edge realizes, if it is a collective
    /// (`None` for point-to-point and same-device edges).
    pub fn collective_class(self) -> Option<CollectiveClass> {
        match self {
            EdgeKind::C0Broadcast => Some(CollectiveClass::C0),
            EdgeKind::C1Barrier => Some(CollectiveClass::C1),
            EdgeKind::C2Reduce => Some(CollectiveClass::C2),
            EdgeKind::NaiveBarrier => Some(CollectiveClass::Naive),
            EdgeKind::InputAllReduce => Some(CollectiveClass::InputAllReduce),
            EdgeKind::InputGradBroadcast => Some(CollectiveClass::InputGradBroadcast),
            EdgeKind::InterlacedSync => Some(CollectiveClass::InterlacedSync),
            EdgeKind::ActivationP2p | EdgeKind::GradP2p | EdgeKind::Local => None,
        }
    }

    /// Whether this edge is a point-to-point transfer between adjacent
    /// pipeline stages (stash-backed in the runtime, so reordering across
    /// microbatches is tolerated — unlike collectives).
    pub fn is_p2p(self) -> bool {
        matches!(self, EdgeKind::ActivationP2p | EdgeKind::GradP2p)
    }
}

/// A logical buffer a pass touches. All state the pass-VM keeps between
/// passes is one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Buffer {
    /// Resident transformer activations of one microbatch-chunk
    /// (allocated by `F`, consumed and freed by `B`).
    Activation {
        /// Owning device.
        device: usize,
        /// Model chunk on the device.
        chunk: u8,
        /// Microbatch.
        microbatch: u32,
    },
    /// The per-chunk stash a `B` pass leaves for its deferred `W` pass
    /// (zero-bubble split).
    GradStash {
        /// Owning device.
        device: usize,
        /// Model chunk.
        chunk: u8,
        /// Microbatch.
        microbatch: u32,
    },
    /// A device's vocabulary-shard state for one microbatch: shard logits
    /// and online-softmax statistics, written by `S`, refined by `S2`
    /// (naive grouping) and consumed by `T`.
    VocabShard {
        /// Owning device (vocabulary shard).
        device: usize,
        /// Microbatch.
        microbatch: u32,
    },
    /// A device's shard contribution to `∇X` for one microbatch, produced
    /// by `S` (Algorithm 2) or `T` (Algorithm 1 / naive) and consumed by
    /// the last transformer stage's backward after the reduce.
    GradXShard {
        /// Producing device (vocabulary shard).
        device: usize,
        /// Microbatch.
        microbatch: u32,
    },
    /// A device's sharded input-embedding output for one microbatch
    /// (Appendix C), written by `InputF` and read back by `InputB`.
    InputShard {
        /// Owning device (input shard).
        device: usize,
        /// Microbatch.
        microbatch: u32,
    },
    /// The interlaced pipeline's output-layer stash between `OutputF` and
    /// `OutputB`.
    OutputStash {
        /// Owning device.
        device: usize,
        /// Microbatch.
        microbatch: u32,
    },
}

impl fmt::Display for Buffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Buffer::Activation {
                device,
                chunk,
                microbatch,
            } => write!(
                f,
                "activation slot (device {device}, chunk {chunk}, mb {microbatch})"
            ),
            Buffer::GradStash {
                device,
                chunk,
                microbatch,
            } => write!(
                f,
                "B→W grad stash (device {device}, chunk {chunk}, mb {microbatch})"
            ),
            Buffer::VocabShard { device, microbatch } => {
                write!(f, "vocab shard state (device {device}, mb {microbatch})")
            }
            Buffer::GradXShard { device, microbatch } => {
                write!(f, "∇X shard (device {device}, mb {microbatch})")
            }
            Buffer::InputShard { device, microbatch } => {
                write!(
                    f,
                    "input-embedding shard (device {device}, mb {microbatch})"
                )
            }
            Buffer::OutputStash { device, microbatch } => {
                write!(
                    f,
                    "interlaced output stash (device {device}, mb {microbatch})"
                )
            }
        }
    }
}

/// How a pass touches a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Access {
    /// The pass reads the buffer (it must be ordered after the write).
    Read,
    /// The pass writes (or allocates) the buffer.
    Write,
}

/// The logical buffers `pass` (running on `device`) reads and writes,
/// under the schedule family described by `ctx`. `group` is the pass's
/// entry of [`crate::pass::Schedule::s_groups`]: an `S` writes, and the
/// `T` that finishes its barrier reads, the shard state of every slot of
/// the group (one slot in training; other kinds ignore it).
///
/// Cross-device entries appear where a pass consumes another shard's
/// contribution through a collective: the last stage's `B` reads every
/// device's [`Buffer::GradXShard`] (the reduced `∇X`).
pub fn buffer_accesses(
    ctx: &DepContext,
    device: usize,
    pass: &ScheduledPass,
    group: &Range<u32>,
) -> Vec<(Buffer, Access)> {
    let mb = pass.microbatch;
    let mut out = Vec::new();
    let last_vs = ctx.devices * ctx.chunks.max(1) as usize - 1;
    match pass.kind {
        PassKind::F => {
            out.push((
                Buffer::Activation {
                    device,
                    chunk: pass.chunk,
                    microbatch: mb,
                },
                Access::Write,
            ));
        }
        PassKind::B => {
            out.push((
                Buffer::Activation {
                    device,
                    chunk: pass.chunk,
                    microbatch: mb,
                },
                Access::Read,
            ));
            out.push((
                Buffer::GradStash {
                    device,
                    chunk: pass.chunk,
                    microbatch: mb,
                },
                Access::Write,
            ));
            let vs =
                crate::pass::placement_stage_of(ctx.placement, ctx.devices, device, pass.chunk);
            if vs == last_vs {
                match ctx.kind {
                    ScheduleKind::Vocab(_) | ScheduleKind::Interlaced => {
                        for src in 0..ctx.devices {
                            out.push((
                                Buffer::GradXShard {
                                    device: src,
                                    microbatch: mb,
                                },
                                Access::Read,
                            ));
                        }
                    }
                    ScheduleKind::Plain => {}
                }
            }
        }
        PassKind::W => {
            out.push((
                Buffer::GradStash {
                    device,
                    chunk: pass.chunk,
                    microbatch: mb,
                },
                Access::Read,
            ));
        }
        PassKind::S => {
            for microbatch in group.clone() {
                out.push((Buffer::VocabShard { device, microbatch }, Access::Write));
                if ctx.kind == ScheduleKind::Vocab(VocabVariant::Alg2) {
                    // Algorithm 2 assembles ∇X̂ inside the single C1 barrier.
                    out.push((Buffer::GradXShard { device, microbatch }, Access::Write));
                }
            }
        }
        PassKind::S2 => {
            out.push((
                Buffer::VocabShard {
                    device,
                    microbatch: mb,
                },
                Access::Read,
            ));
            out.push((
                Buffer::VocabShard {
                    device,
                    microbatch: mb,
                },
                Access::Write,
            ));
        }
        PassKind::T => {
            let produces_grad_x = matches!(
                ctx.kind,
                ScheduleKind::Vocab(VocabVariant::Alg1) | ScheduleKind::Vocab(VocabVariant::Naive)
            );
            for microbatch in group.clone() {
                out.push((Buffer::VocabShard { device, microbatch }, Access::Read));
                if produces_grad_x {
                    // T produces the ∇X′ shard the C2 reduce combines.
                    out.push((Buffer::GradXShard { device, microbatch }, Access::Write));
                }
            }
        }
        PassKind::InputF => {
            out.push((
                Buffer::InputShard {
                    device,
                    microbatch: mb,
                },
                Access::Write,
            ));
        }
        PassKind::InputB => {
            out.push((
                Buffer::InputShard {
                    device,
                    microbatch: mb,
                },
                Access::Read,
            ));
        }
        PassKind::OutputF => {
            out.push((
                Buffer::OutputStash {
                    device,
                    microbatch: mb,
                },
                Access::Write,
            ));
        }
        PassKind::OutputB => {
            out.push((
                Buffer::OutputStash {
                    device,
                    microbatch: mb,
                },
                Access::Read,
            ));
            out.push((
                Buffer::GradXShard {
                    device,
                    microbatch: mb,
                },
                Access::Write,
            ));
        }
    }
    out
}

/// The collective classes whose barrier `pass` *enters* (issues its shard
/// contribution to) under the family `ctx` — the participation sets the
/// protocol lint compares across vocabulary shards.
pub fn collective_entries(ctx: &DepContext, pass: &ScheduledPass) -> Vec<CollectiveClass> {
    match (pass.kind, ctx.kind) {
        (PassKind::S, ScheduleKind::Vocab(VocabVariant::Naive)) => {
            vec![CollectiveClass::C0, CollectiveClass::Naive]
        }
        (PassKind::S, _) => vec![CollectiveClass::C0, CollectiveClass::C1],
        (PassKind::S2, _) => vec![CollectiveClass::Naive],
        (PassKind::T, ScheduleKind::Vocab(VocabVariant::Alg1))
        | (PassKind::T, ScheduleKind::Vocab(VocabVariant::Naive)) => {
            vec![CollectiveClass::C2]
        }
        (PassKind::T, _) => Vec::new(),
        (PassKind::InputF, _) => vec![CollectiveClass::InputAllReduce],
        (PassKind::InputB, _) => vec![CollectiveClass::InputGradBroadcast],
        (PassKind::OutputF, _) | (PassKind::OutputB, _) => {
            vec![CollectiveClass::InterlacedSync]
        }
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::PassTimes;
    use crate::generators::vocab_1f1b;
    use crate::pass::ChunkPlacement;

    fn ctx(kind: ScheduleKind, devices: usize) -> DepContext {
        DepContext {
            kind,
            devices,
            chunks: 1,
            placement: ChunkPlacement::VShape,
            has_input: false,
        }
    }

    #[test]
    fn alg2_t_does_not_touch_grad_x() {
        // The paper's §4.4 deferral argument, as a buffer fact: under
        // Algorithm 2 the T pass reads only its shard's stats, so nothing
        // on the backward chain conflicts with an arbitrarily delayed T.
        let c = ctx(ScheduleKind::Vocab(VocabVariant::Alg2), 4);
        let t = ScheduledPass::new(PassKind::T, 0);
        let accesses = buffer_accesses(&c, 1, &t, &(0..1));
        assert!(accesses
            .iter()
            .all(|(b, _)| !matches!(b, Buffer::GradXShard { .. })));
        // While under Algorithm 1 it writes the ∇X′ shard the backward
        // reads after the C2 reduce.
        let c1 = ctx(ScheduleKind::Vocab(VocabVariant::Alg1), 4);
        let accesses = buffer_accesses(&c1, 1, &t, &(0..1));
        assert!(accesses
            .iter()
            .any(|(b, a)| matches!(b, Buffer::GradXShard { .. }) && *a == Access::Write));
    }

    #[test]
    fn a_grouped_s_writes_and_its_t_reads_every_slot_of_the_group() {
        let c = ctx(ScheduleKind::Vocab(VocabVariant::Alg2), 2);
        let slots = |pass: PassKind, access: Access| -> Vec<u32> {
            buffer_accesses(&c, 1, &ScheduledPass::new(pass, 4), &(2..5))
                .into_iter()
                .filter_map(|(b, a)| match b {
                    Buffer::VocabShard {
                        device: 1,
                        microbatch,
                    } if a == access => Some(microbatch),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(slots(PassKind::S, Access::Write), [2, 3, 4]);
        assert_eq!(slots(PassKind::T, Access::Read), [2, 3, 4]);
        assert!(slots(PassKind::S, Access::Read).is_empty());
    }

    #[test]
    fn last_stage_backward_reads_every_grad_x_shard() {
        let c = ctx(ScheduleKind::Vocab(VocabVariant::Alg2), 3);
        let b = ScheduledPass::new(PassKind::B, 2);
        let reads: Vec<usize> = buffer_accesses(&c, 2, &b, &(0..0))
            .into_iter()
            .filter_map(|(buf, _)| match buf {
                Buffer::GradXShard { device, .. } => Some(device),
                _ => None,
            })
            .collect();
        assert_eq!(reads, vec![0, 1, 2]);
    }

    #[test]
    fn edge_collective_classes_are_consistent_with_deps() {
        use crate::deps::build_deps;
        let sched = vocab_1f1b(3, 4, VocabVariant::Naive, PassTimes::default(), true);
        let deps = build_deps(&sched).unwrap();
        let mut seen = std::collections::HashSet::new();
        for (d, i, _) in sched.iter_all() {
            for dep in deps.preds(d, i) {
                if let Some(class) = dep.kind.collective_class() {
                    seen.insert(class);
                }
            }
        }
        for class in [
            CollectiveClass::C0,
            CollectiveClass::C2,
            CollectiveClass::Naive,
            CollectiveClass::InputAllReduce,
            CollectiveClass::InputGradBroadcast,
        ] {
            assert!(seen.contains(&class), "missing {class}");
        }
    }
}
