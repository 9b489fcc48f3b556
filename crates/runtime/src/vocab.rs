//! Vocabulary-layer pass handlers of the schedule interpreter: the
//! sharded input layer (`InputF`/`InputB`) and the §4 output-layer `S`/`T`
//! passes with their `C0`/`C1`/`C2` traffic.
//!
//! Communication mapping (mirroring §6.1's implementation):
//!
//! * `C0` (broadcast of the last virtual stage's output to all vocabulary
//!   shards): point-to-point fan-out from its host device;
//! * `C1` (softmax statistics all-reduce, plus the `∇X` all-reduce for
//!   Algorithm 2): a true collective, submitted to a per-device
//!   communication stream so it overlaps with compute exactly as the paper
//!   overlaps NCCL kernels;
//! * `C2` (Algorithm 1's `∇X` reduce): point-to-point fan-in to the last
//!   virtual stage's device (the paper uses an NCCL AllReduce for volume
//!   balance; the fan-in is numerically identical);
//! * input-layer all-reduce / gradient broadcast: fan-in to and fan-out
//!   from the first virtual stage's device.

use crate::comm::{TAG_C0, TAG_C2, TAG_INGRAD, TAG_INPART};
use crate::data::Microbatch;
use crate::engine::{Device, Mode};
use crate::model::FullModel;
use crate::state::BarrierSlot;
use std::sync::Arc;
use vp_core::output::{BarrierOutput, OutputShard, SState};
use vp_core::{InputShard, TiedShard, VocabAlgo};
use vp_model::partition::VocabPartition;
use vp_tensor::optim::Param;
use vp_tensor::{Result, Tensor, TensorError};

/// One device's shard of the vocabulary layers: separate input and output
/// shards, or the single tied weight serving both (§6.1). The only place
/// the runtime distinguishes the two.
// One per device, so the variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
pub(crate) enum VocabShard {
    Split {
        input: InputShard,
        output: OutputShard,
    },
    Tied(TiedShard),
}

impl VocabShard {
    pub(crate) fn from_full(
        full: &FullModel,
        tied: bool,
        part: VocabPartition,
        rank: usize,
    ) -> Result<Self> {
        Ok(if tied {
            VocabShard::Tied(TiedShard::from_full(&full.output_weight, part, rank)?)
        } else {
            VocabShard::Split {
                input: InputShard::from_full(&full.input_weight, part, rank)?,
                output: OutputShard::from_full(&full.output_weight, part, rank)?,
            }
        })
    }

    fn input_forward(&self, tokens: &[usize]) -> Result<Tensor> {
        match self {
            VocabShard::Split { input, .. } => input.forward_local(tokens),
            VocabShard::Tied(tied) => tied.input_forward_local(tokens),
        }
    }

    fn input_backward(&mut self, tokens: &[usize], dy: &Tensor) -> Result<()> {
        match self {
            VocabShard::Split { input, .. } => input.backward(tokens, dy),
            VocabShard::Tied(tied) => tied.input_backward(tokens, dy),
        }
    }

    fn s_pass(&self, algo: VocabAlgo, x: &Tensor, labels: &[usize]) -> Result<SState> {
        match self {
            VocabShard::Split { output, .. } => output.s_pass(algo, x, labels),
            VocabShard::Tied(tied) => tied.s_pass(algo, x, labels),
        }
    }

    /// Accumulates the shard's weight gradient; Algorithm 1 also returns
    /// its partial `∇X` (Algorithm 2 reduced `∇X` inside the barrier).
    fn t_pass(&mut self, algo: VocabAlgo, state: &SState, x: &Tensor) -> Result<Option<Tensor>> {
        match (self, algo) {
            (_, VocabAlgo::Naive) => Err(TensorError::InvalidArgument(
                "naive grouping is not streamed".into(),
            )),
            (VocabShard::Split { output, .. }, VocabAlgo::Alg1) => {
                output.t_pass_alg1(state, x).map(Some)
            }
            (VocabShard::Split { output, .. }, VocabAlgo::Alg2) => {
                output.t_pass_alg2(state, x).map(|()| None)
            }
            (VocabShard::Tied(tied), VocabAlgo::Alg1) => tied.t_pass_alg1(state, x).map(Some),
            (VocabShard::Tied(tied), VocabAlgo::Alg2) => tied.t_pass_alg2(state, x).map(|()| None),
        }
    }

    /// The shard's trainable weights: input then output, or the tied one.
    pub(crate) fn params_mut(&mut self) -> Vec<&mut Param> {
        match self {
            VocabShard::Split { input, output } => vec![input.weight_mut(), output.weight_mut()],
            VocabShard::Tied(tied) => vec![tied.weight_mut()],
        }
    }
}

impl Device {
    fn shard(&mut self) -> Result<&mut VocabShard> {
        self.vocab.as_mut().ok_or_else(|| {
            TensorError::InvalidArgument(
                "vocabulary pass in a schedule without vocabulary shards".into(),
            )
        })
    }

    /// Sharded input-layer forward: embed this shard's slice of the
    /// vocabulary and fan the partial embedding in to the first virtual
    /// stage's device (the input all-reduce of §6.1).
    pub(crate) fn input_f(&mut self, k: u32, mb: &Microbatch) -> Result<()> {
        let partial = self.shard()?.input_forward(&mb.tokens)?;
        let first_dev = self.map.device_of(0).0;
        self.link.send(first_dev, TAG_INPART | k as u64, &partial)
    }

    /// Produces the first virtual stage's input: the full embedding in
    /// baseline mode, the summed partial embeddings in vocab mode — plus
    /// the positional embedding either way.
    pub(crate) fn embed_input(&mut self, k: u32, mb: &Microbatch) -> Result<Tensor> {
        let mut x = match self.mode {
            Mode::Baseline => {
                let input = self
                    .full_input
                    .as_ref()
                    .expect("baseline hosts the input layer");
                let (embedded, cache) = input.forward(&mb.tokens)?;
                self.state(k).emb_cache = Some(cache);
                embedded
            }
            Mode::Vocab(_) => {
                // Sum the p partial embeddings (the input all-reduce).
                let mut acc = Tensor::zeros(mb.tokens.len(), self.config.hidden);
                for src in 0..self.map.devices {
                    let part = self.link.recv(src, TAG_INPART | k as u64)?;
                    acc.add_assign(&part)?;
                }
                acc
            }
        };
        let pos = self
            .pos
            .as_ref()
            .expect("first-stage device owns the positional embedding");
        x.add_assign(pos.value())?;
        Ok(x)
    }

    /// Output-layer `S` pass: local softmax statistics on this shard's
    /// logits, then the `C1` barrier submitted asynchronously on the
    /// communication stream.
    pub(crate) fn s_pass(&mut self, k: u32, mb: &Microbatch) -> Result<()> {
        let algo = self.algo();
        let root = self.c0_root();
        let x = self.link.recv(root, TAG_C0 | k as u64)?;
        let mut state = Some(self.shard()?.s_pass(algo, &x, &mb.labels)?);
        let comm = Arc::clone(&self.c1_comm);
        let handle = self
            .c1_stream
            .submit(move || -> Result<(SState, BarrierOutput)> {
                let mut state = state.take().expect("state moved into job");
                let out = match algo {
                    VocabAlgo::Alg1 => state.barrier_alg1(&comm)?,
                    VocabAlgo::Alg2 => state.barrier_alg2(&comm)?,
                    VocabAlgo::Naive => {
                        return Err(TensorError::InvalidArgument(
                            "naive grouping is not streamed".into(),
                        ))
                    }
                };
                Ok((state, out))
            });
        let st = self.state(k);
        st.x_c0 = Some(x);
        st.barrier = BarrierSlot::Pending(handle);
        Ok(())
    }

    /// Output-layer `T` pass: consume the resolved barrier, accumulate the
    /// shard's weight gradient, and produce its `∇X` contribution (sent
    /// over `C2` for Algorithm 1; all-reduced inside the barrier for
    /// Algorithm 2).
    pub(crate) fn t_pass(&mut self, k: u32) -> Result<()> {
        let algo = self.algo();
        let st = self.states.get_mut(&k).expect("T after S");
        let (state, loss) = st.barrier.take_state()?;
        let x = st.x_c0.take().expect("S stored the broadcast activation");
        if self.rank == 0 {
            self.losses.push(loss);
        }
        if let Some(dx_partial) = self.shard()?.t_pass(algo, &state, &x)? {
            let root = self.c0_root();
            self.link.send(root, TAG_C2 | k as u64, &dx_partial)?;
        }
        Ok(())
    }

    /// Sharded input-layer backward: receive the broadcast embedding
    /// gradient and scatter it into this shard's rows.
    pub(crate) fn input_b(&mut self, k: u32, mb: &Microbatch) -> Result<()> {
        let first_dev = self.map.device_of(0).0;
        let dy = self.link.recv(first_dev, TAG_INGRAD | k as u64)?;
        self.shard()?.input_backward(&mb.tokens, &dy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{read_params, write_params};
    use vp_collectives::{Collective, CollectiveGroup};
    use vp_tensor::init::{normal, seeded_rng};
    use vp_tensor::optim::{Adam, Optimizer};

    fn shard(tied: bool, seed: u64, part: VocabPartition) -> VocabShard {
        let w = normal(&mut seeded_rng(seed), part.vocab(), 6, 0.7);
        if tied {
            VocabShard::Tied(TiedShard::from_full(&w, part, 0).unwrap())
        } else {
            VocabShard::Split {
                input: InputShard::from_full(&w, part, 0).unwrap(),
                output: OutputShard::from_full(&w, part, 0).unwrap(),
            }
        }
    }

    /// The output side's loss and `∇X` bits (through the packed `S` pass).
    fn output_bits(
        shard: &mut VocabShard,
        comm: &Collective,
        x: &Tensor,
        labels: &[usize],
    ) -> (u64, Vec<u32>) {
        let (loss, dx) = match shard {
            VocabShard::Split { output, .. } => {
                output.forward_backward(VocabAlgo::Alg2, comm, x, labels)
            }
            VocabShard::Tied(tied) => {
                tied.output_forward_backward(VocabAlgo::Alg2, comm, x, labels)
            }
        }
        .unwrap();
        (
            loss.to_bits(),
            dx.data().iter().map(|v| v.to_bits()).collect(),
        )
    }

    #[test]
    fn reading_a_checkpoint_never_leaves_a_stale_pack() {
        // `read_params` is the body of every checkpoint load (the device
        // resume path included): it replaces each parameter through
        // `params_mut`, so a shard that already packed its weight must S
        // with the loaded one afterwards.
        let part = VocabPartition::new(40, 1);
        let comm = CollectiveGroup::new(1).pop().expect("one rank");
        let x = normal(&mut seeded_rng(3), 5, 6, 1.0);
        let labels = [0, 39, 7, 7, 21];
        for tied in [false, true] {
            let mut saved = shard(tied, 1, part);
            output_bits(&mut saved, &comm, &x, &labels);
            let mut adam = Adam::new(0.01);
            for p in saved.params_mut() {
                adam.step(p).unwrap();
            }
            let mut buf = Vec::new();
            write_params(&mut buf, saved.params_mut());

            let mut live = shard(tied, 2, part);
            live.s_pass(VocabAlgo::Alg2, &x, &labels).unwrap();
            read_params(&mut buf.as_slice(), live.params_mut()).unwrap();
            assert_eq!(
                output_bits(&mut live, &comm, &x, &labels),
                output_bits(&mut saved, &comm, &x, &labels),
                "tied={tied}"
            );
        }
    }
}
