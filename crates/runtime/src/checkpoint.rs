//! Resumable training: a [`ReferenceTrainer`] whose full state — weights,
//! Adam moments and the bias-correction timestep — round-trips through a
//! compact binary checkpoint, so training can stop and resume with
//! bit-identical results.

use crate::data::DataSource;
use crate::model::{FullModel, TinyConfig};
use crate::stage::{backward_blocks, forward_blocks};
use vp_model::block::TransformerBlock;
use vp_tensor::io::{read_tensor, read_u32, write_tensor, write_u32};
use vp_tensor::nn::{softmax_cross_entropy, Embedding};
use vp_tensor::optim::{Adam, Optimizer, Param};
use vp_tensor::{Result, TensorError};

const MAGIC: u32 = 0x5650_434B; // "VPCK"

/// Appends a parameter list — count, then value and both Adam moments per
/// parameter — the body of both the single-device checkpoint and every
/// shard of a [`crate::PipelineCheckpoint`].
pub(crate) fn write_params(buf: &mut Vec<u8>, params: Vec<&mut Param>) {
    write_u32(buf, params.len() as u32);
    for p in params {
        write_tensor(buf, p.value());
        let (m, v) = p.moments();
        write_tensor(buf, m);
        write_tensor(buf, v);
    }
}

/// Restores `params` from a list [`write_params`] produced, rejecting a
/// different parameter count or shape.
pub(crate) fn read_params(input: &mut &[u8], params: Vec<&mut Param>) -> Result<()> {
    let n = read_u32(input)? as usize;
    if params.len() != n {
        return Err(TensorError::InvalidArgument(format!(
            "bad checkpoint: {n} parameters, expected {}",
            params.len()
        )));
    }
    for p in params {
        let value = read_tensor(input)?;
        let m = read_tensor(input)?;
        let v = read_tensor(input)?;
        if value.shape() != p.value().shape() {
            return Err(TensorError::InvalidArgument(
                "bad checkpoint: parameter shape mismatch".into(),
            ));
        }
        *p = Param::from_state(value, m, v)?;
    }
    Ok(())
}

/// A single-device trainer whose state can be checkpointed and restored.
#[derive(Debug, Clone)]
pub struct ReferenceTrainer {
    config: TinyConfig,
    input: Embedding,
    pos: Param,
    blocks: Vec<TransformerBlock>,
    output_w: Param,
    adam: Adam,
    /// Completed training iterations (indexes the data stream).
    iterations_done: u64,
}

impl ReferenceTrainer {
    /// Builds a fresh trainer from the config's seed.
    pub fn new(config: &TinyConfig) -> Self {
        let full = FullModel::build(config);
        ReferenceTrainer {
            config: config.clone(),
            input: Embedding::from_weight(full.input_weight),
            pos: Param::new(full.pos_weight),
            blocks: full.blocks,
            output_w: Param::new(full.output_weight),
            adam: Adam::new(config.lr),
            iterations_done: 0,
        }
    }

    /// Completed iterations so far.
    pub fn iterations_done(&self) -> u64 {
        self.iterations_done
    }

    /// The training configuration.
    pub fn config(&self) -> &TinyConfig {
        &self.config
    }

    /// The embedding table used by the forward pass (the shared output
    /// weight when tied).
    pub(crate) fn embedding_view(&self) -> Embedding {
        if self.config.tied {
            Embedding::from_weight(self.output_w.value().clone())
        } else {
            Embedding::from_weight(self.input.weight().clone())
        }
    }

    pub(crate) fn pos_view(&self) -> &vp_tensor::Tensor {
        self.pos.value()
    }

    pub(crate) fn blocks_view(&self) -> &[TransformerBlock] {
        &self.blocks
    }

    pub(crate) fn output_weight_view(&self) -> &vp_tensor::Tensor {
        self.output_w.value()
    }

    /// The mean loss of running `iterations` more training iterations on
    /// `source`, continuing from the current state.
    ///
    /// # Errors
    ///
    /// Propagates tensor-shape errors (configuration bugs).
    pub fn train(&mut self, iterations: usize, source: &DataSource) -> Result<Vec<f64>> {
        let mut losses = Vec::with_capacity(iterations);
        for _ in 0..iterations {
            let mut iter_loss = 0.0;
            for mb in source.iteration(self.iterations_done, self.config.microbatches) {
                let (embedded, emb_cache) = if self.config.tied {
                    Embedding::from_weight(self.output_w.value().clone()).forward(&mb.tokens)?
                } else {
                    self.input.forward(&mb.tokens)?
                };
                let x0 = embedded.add(self.pos.value())?;
                let (h, caches) = forward_blocks(&self.blocks, &x0, None)?;
                let logits = h.matmul_nt(self.output_w.value())?;
                let (out, grad) = softmax_cross_entropy(&logits, &mb.labels)?;
                iter_loss += out.loss;
                let dw_out = grad.dlogits.matmul_tn(&h)?;
                self.output_w.accumulate(&dw_out)?;
                let dh = grad.dlogits.matmul(self.output_w.value())?;
                let dx0 = backward_blocks(&mut self.blocks, &caches, &dh, None)?;
                self.pos.accumulate(&dx0)?;
                if self.config.tied {
                    let mut scatter = Embedding::from_weight(self.output_w.value().clone());
                    scatter.backward(&emb_cache, &dx0)?;
                    self.output_w.accumulate(scatter.params_mut()[0].grad())?;
                } else {
                    self.input.backward(&emb_cache, &dx0)?;
                }
            }
            losses.push(iter_loss / self.config.microbatches as f64);
            self.adam.step(&mut self.output_w)?;
            self.adam.step(&mut self.pos)?;
            for block in &mut self.blocks {
                for p in block.params_mut() {
                    self.adam.step(p)?;
                }
            }
            if !self.config.tied {
                for p in self.input.params_mut() {
                    self.adam.step(p)?;
                }
            }
            self.adam.next_iteration();
            self.iterations_done += 1;
        }
        Ok(losses)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut params: Vec<&mut Param> = vec![&mut self.output_w, &mut self.pos];
        for block in &mut self.blocks {
            params.extend(block.params_mut());
        }
        params.extend(self.input.params_mut());
        params
    }

    /// Serializes the full trainer state (weights, Adam moments,
    /// timestep).
    pub fn save(&mut self) -> Vec<u8> {
        let mut buf = Vec::new();
        write_u32(&mut buf, MAGIC);
        write_u32(&mut buf, self.config.layers as u32);
        write_u32(&mut buf, self.config.hidden as u32);
        write_u32(&mut buf, self.config.vocab as u32);
        write_u32(&mut buf, self.adam.timestep() as u32);
        write_u32(&mut buf, self.iterations_done as u32);
        write_u32(&mut buf, u32::from(self.config.tied));
        write_params(&mut buf, self.params_mut());
        buf
    }

    /// Restores a trainer from a checkpoint produced by [`Self::save`].
    /// `config` must match the checkpointed hyper-parameters.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for corrupted checkpoints
    /// or mismatched configurations.
    pub fn load(config: &TinyConfig, data: &[u8]) -> Result<Self> {
        let mut input = data;
        let bad = |what: &str| TensorError::InvalidArgument(format!("bad checkpoint: {what}"));
        if read_u32(&mut input)? != MAGIC {
            return Err(bad("magic"));
        }
        if read_u32(&mut input)? as usize != config.layers
            || read_u32(&mut input)? as usize != config.hidden
            || read_u32(&mut input)? as usize != config.vocab
        {
            return Err(bad("hyper-parameters differ from the provided config"));
        }
        let timestep = read_u32(&mut input)? as i32;
        let iterations_done = read_u32(&mut input)? as u64;
        let tied = read_u32(&mut input)? != 0;
        if tied != config.tied {
            return Err(bad("tied flag differs from the provided config"));
        }
        let mut trainer = ReferenceTrainer::new(config);
        trainer.adam.set_timestep(timestep);
        trainer.iterations_done = iterations_done;
        read_params(&mut input, trainer.params_mut())?;
        Ok(trainer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn save_load_resume_is_bit_identical() {
        let config = TinyConfig::default();
        let src = DataSource::synthetic(&config);
        // Straight run: 8 iterations.
        let mut straight = ReferenceTrainer::new(&config);
        let full = straight.train(8, &src).unwrap();
        // Interrupted run: 4 + checkpoint + 4.
        let mut first = ReferenceTrainer::new(&config);
        let head = first.train(4, &src).unwrap();
        let blob = first.save();
        let mut resumed = ReferenceTrainer::load(&config, &blob).unwrap();
        assert_eq!(resumed.iterations_done(), 4);
        let tail = resumed.train(4, &src).unwrap();
        let stitched: Vec<f64> = head.into_iter().chain(tail).collect();
        assert_eq!(stitched, full, "resume must be exact");
    }

    #[test]
    fn load_rejects_mismatched_config() {
        let config = TinyConfig::default();
        let mut t = ReferenceTrainer::new(&config);
        let blob = t.save();
        let other = TinyConfig {
            hidden: 64,
            ..config
        };
        assert!(ReferenceTrainer::load(&other, &blob).is_err());
    }

    #[test]
    fn load_rejects_corruption() {
        let config = TinyConfig::default();
        let mut t = ReferenceTrainer::new(&config);
        let mut blob = t.save();
        blob.truncate(blob.len() / 2);
        assert!(ReferenceTrainer::load(&config, &blob).is_err());
        assert!(ReferenceTrainer::load(&config, &[1, 2, 3]).is_err());
    }

    #[test]
    fn tied_trainer_checkpoints_too() {
        let config = TinyConfig {
            tied: true,
            ..TinyConfig::default()
        };
        let src = DataSource::synthetic(&config);
        let mut straight = ReferenceTrainer::new(&config);
        let full = straight.train(6, &src).unwrap();
        let mut first = ReferenceTrainer::new(&config);
        let head = first.train(3, &src).unwrap();
        let mut resumed = ReferenceTrainer::load(&config, &first.save()).unwrap();
        let tail = resumed.train(3, &src).unwrap();
        let stitched: Vec<f64> = head.into_iter().chain(tail).collect();
        assert_eq!(stitched, full);
    }
}
