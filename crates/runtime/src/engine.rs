//! The generic schedule interpreter (pass-VM): one thread per device walks
//! its `vp_schedule::pass::Schedule` pass list in order and dispatches
//! purely on [`PassKind`] — `F`/`B`/`W` transformer passes here, the
//! vocabulary `S`/`T` and sharded input passes in `crate::vocab`. The
//! engine contains **no** schedule-family special cases: any validated
//! schedule whose kind maps to a supported [`Mode`] (plain → baseline,
//! Vocab-1/2 → Vocabulary Parallelism) executes numerically, which is how
//! the zero-bubble and interleaved extensions train without new runtime
//! code. Nor does it know the device layout: [`crate::train`]'s launcher
//! hands every thread a `DeviceCtx` with its communicators already cut
//! along the `dp × pp × tp` axes.

use crate::checkpoint::{read_params, write_params};
use crate::comm::{stage_tag, Link, StageMap, TAG_ACT, TAG_C0, TAG_C2, TAG_GRAD, TAG_INGRAD};
use crate::data::{DataSource, Microbatch};
use crate::model::{FullModel, TinyConfig};
use crate::stage::{StageBlocks, TpRow};
use crate::state::{ActivationStore, MbState, WGradStash};
use crate::vocab::VocabShard;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use vp_collectives::{Collective, CommStream, ReduceOp};
use vp_core::VocabAlgo;
use vp_model::partition::VocabPartition;
use vp_model::tp::TpPartition;
use vp_schedule::pass::{PassKind, Schedule, ScheduleKind, VocabVariant};
use vp_tensor::io::{read_u32, write_u32};
use vp_tensor::nn::{softmax_cross_entropy, Embedding};
use vp_tensor::optim::{Adam, Optimizer, Param};
use vp_tensor::{pool, Result, Tensor, TensorError};
use vp_trace::{Tracer, Track};

/// How the vocabulary layers are placed and executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Megatron-style: full input layer with the first virtual stage, full
    /// output layer with the last (in V-Half, both on device 0).
    Baseline,
    /// Vocabulary Parallelism with Algorithm 1 or 2 (the naive 3-barrier
    /// grouping is only supported by the fused verification path in
    /// `vp-core`, not by the streamed runtime).
    Vocab(VocabAlgo),
}

/// Derives the runtime [`Mode`] from a schedule's kind — the single point
/// where schedule families meet the numerics.
///
/// # Errors
///
/// Returns an error for kinds the streamed runtime does not execute (the
/// naive 3-barrier grouping and the interlaced TP-style baseline).
pub fn mode_of_schedule(schedule: &Schedule) -> Result<Mode> {
    match schedule.kind() {
        ScheduleKind::Plain => Ok(Mode::Baseline),
        ScheduleKind::Vocab(VocabVariant::Naive) => Err(TensorError::InvalidArgument(
            "the streamed runtime supports Algorithms 1 and 2; use vp-core's fused naive path"
                .into(),
        )),
        ScheduleKind::Vocab(variant) => Ok(Mode::Vocab(variant)),
        ScheduleKind::Interlaced => Err(TensorError::InvalidArgument(
            "interlaced schedules run synchronous TP-style vocabulary layers; the runtime \
             executes pipeline schedules (plain or vocabulary-parallel)"
                .into(),
        )),
    }
}

/// Validates a `(config, schedule, dp)` triple for numeric execution and
/// returns the derived [`Mode`]: each of the `dp` replicas must run an equal
/// share of the config's microbatches, the layer count must split evenly
/// over the virtual stages, tied embeddings require Vocabulary Parallelism,
/// and the schedule must pass every `vp-check` analysis. That last gate is
/// the one verdict on the schedule: it includes the §5.1 dependency
/// structure and cycles (`VP0001`–`VP0003`, what
/// `vp_schedule::deps::validate` rejects) and also refuses coverage holes
/// and mismatched collectives (`VP0004`, `VP0005`, …), which a device
/// thread would otherwise run to a wrong loss without an error.
pub(crate) fn check_schedule(config: &TinyConfig, schedule: &Schedule, dp: usize) -> Result<Mode> {
    let mode = mode_of_schedule(schedule)?;
    let virtual_stages = schedule.virtual_stages();
    if !config.layers.is_multiple_of(virtual_stages) {
        return Err(TensorError::InvalidArgument(format!(
            "{} layers not divisible by {} virtual stages",
            config.layers, virtual_stages
        )));
    }
    if dp == 0 || !config.microbatches.is_multiple_of(dp) {
        return Err(TensorError::InvalidArgument(format!(
            "{} microbatches not divisible by {} data-parallel groups",
            config.microbatches, dp
        )));
    }
    if schedule.num_microbatches() as usize * dp != config.microbatches {
        return Err(TensorError::InvalidArgument(format!(
            "schedule runs {} microbatches on each of {dp} replicas, config expects {}",
            schedule.num_microbatches(),
            config.microbatches
        )));
    }
    if config.tied && mode == Mode::Baseline {
        return Err(TensorError::InvalidArgument(
            "tied embeddings require Vocabulary Parallelism (the naive baseline would need a \
             cross-stage gradient synchronization — the very cost §6.1 removes)"
                .into(),
        ));
    }
    let report = vp_check::check(schedule);
    if !report.is_clean() {
        let codes: Vec<String> = report.codes().iter().map(ToString::to_string).collect();
        return Err(TensorError::InvalidArgument(format!(
            "schedule failed vp-check: {}",
            codes.join(", ")
        )));
    }
    Ok(mode)
}

/// The parameters one device hosts, and nothing more: each piece is built
/// from its place on the initialization stream ([`FullModel`]'s piece
/// builders), so no device materializes a table or block it does not host.
pub(crate) struct DeviceParams {
    /// Transformer blocks per chunk hosted by this device.
    pub(crate) blocks: Vec<StageBlocks>,
    pub(crate) pos: Option<Param>,
    pub(crate) full_input: Option<Embedding>,
    pub(crate) full_output: Option<Param>,
    /// This device's vocabulary shards (vocab mode only).
    pub(crate) vocab: Option<VocabShard>,
}

impl DeviceParams {
    /// Builds what `rank` hosts: its chunks' blocks (this row rank's shards
    /// of them under `row`), the positional embedding on the first virtual
    /// stage's device, and either its vocabulary shards or, in baseline
    /// mode, the whole table its stage hosts.
    fn build(
        config: &TinyConfig,
        schedule: &Schedule,
        mode: Mode,
        rank: usize,
        row: Option<&(TpRow, TpPartition)>,
    ) -> Result<Self> {
        let map = StageMap::of(schedule);
        let (first_dev, last_dev) = (map.device_of(0).0, map.device_of(map.last_vs()).0);
        let stages = schedule.virtual_stages();
        let blocks = (0..map.chunks)
            .map(|c| {
                let layers = config.stage_blocks(map.vs_of(rank, c), stages);
                let blocks = layers.map(|i| FullModel::block(config, i)).collect();
                StageBlocks::new(blocks, row.cloned())
            })
            .collect();
        let whole = 0..config.vocab;
        let part = VocabPartition::new(config.vocab, map.devices);
        let baseline = mode == Mode::Baseline;
        Ok(DeviceParams {
            blocks,
            pos: (rank == first_dev).then(|| Param::new(FullModel::pos(config))),
            full_input: (baseline && rank == first_dev)
                .then(|| Embedding::from_weight(FullModel::input_rows(config, whole.clone()))),
            full_output: (baseline && rank == last_dev)
                .then(|| Param::new(FullModel::output_rows(config, whole))),
            vocab: (!baseline)
                .then(|| VocabShard::new(config, part, rank))
                .transpose()?,
        })
    }

    /// All trainable parameters on this device, in a deterministic order
    /// (shared by the optimizer step, data-parallel gradient sync and the
    /// checkpoint shard layout).
    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut params: Vec<&mut Param> = Vec::new();
        for blocks in &mut self.blocks {
            params.extend(blocks.params_mut());
        }
        params.extend(&mut self.pos);
        if let Some(e) = &mut self.full_input {
            params.extend(e.params_mut());
        }
        params.extend(&mut self.full_output);
        if let Some(shard) = &mut self.vocab {
            params.extend(shard.params_mut());
        }
        params
    }

    /// Serializes the parameter state (Adam timestep, then values and
    /// moments in `params_mut` order) — one shard of a
    /// [`crate::PipelineCheckpoint`].
    fn save(&mut self, adam_timestep: i32) -> Vec<u8> {
        let mut buf = Vec::new();
        write_u32(&mut buf, adam_timestep as u32);
        write_params(&mut buf, self.params_mut());
        buf
    }

    /// Restores the parameter state from a shard produced by
    /// [`Self::save`]. Returns the Adam timestep to resume from.
    fn load(&mut self, mut blob: &[u8]) -> Result<i32> {
        let timestep = read_u32(&mut blob)? as i32;
        read_params(&mut blob, self.params_mut())?;
        Ok(timestep)
    }
}

/// One pipeline device of the interpreter: the model slices it hosts, its
/// communication endpoints and the per-microbatch stores the passes flow
/// through. Fields are `pub(crate)` so the vocabulary pass handlers in
/// [`crate::vocab`] share the state without accessors.
pub(crate) struct Device {
    /// Pipeline rank.
    pub(crate) rank: usize,
    pub(crate) mode: Mode,
    pub(crate) config: TinyConfig,
    pub(crate) map: StageMap,
    /// The parameters this device hosts.
    pub(crate) params: DeviceParams,
    /// Whether this device's pass list splits `B`/`W` zero-bubble style.
    pub(crate) has_w: bool,
    pub(crate) link: Link,
    pub(crate) c1_comm: Arc<Collective>,
    pub(crate) c1_stream: CommStream,
    /// Resident block-activation caches per (microbatch, chunk).
    pub(crate) acts: ActivationStore,
    /// Deferred weight gradients between `B` and `W`.
    pub(crate) w_stash: WGradStash,
    pub(crate) states: HashMap<u32, MbState>,
    pub(crate) losses: Vec<f64>,
}

impl Device {
    pub(crate) fn state(&mut self, k: u32) -> &mut MbState {
        self.states.entry(k).or_default()
    }

    pub(crate) fn algo(&self) -> VocabAlgo {
        match self.mode {
            Mode::Vocab(a) => a,
            Mode::Baseline => VocabAlgo::Alg1,
        }
    }

    pub(crate) fn c0_root(&self) -> usize {
        self.map.device_of(self.map.last_vs()).0
    }

    /// The interpreter's instruction dispatch: every pass kind a validated
    /// pipeline schedule can contain maps to one handler, with no
    /// schedule-family cases.
    fn run_pass(&mut self, kind: PassKind, k: u32, chunk: u8, mb: &Microbatch) -> Result<()> {
        match kind {
            PassKind::InputF => self.input_f(k, mb),
            PassKind::F => self.forward(k, chunk, mb),
            PassKind::S => self.s_pass(k, mb),
            PassKind::T => self.t_pass(k),
            PassKind::B => self.backward(k, chunk, mb),
            PassKind::W => self.w_pass(k, chunk),
            PassKind::InputB => self.input_b(k, mb),
            PassKind::S2 | PassKind::OutputF | PassKind::OutputB => Err(
                TensorError::InvalidArgument(format!("runtime does not execute {kind:?} passes")),
            ),
        }
    }

    fn forward(&mut self, k: u32, chunk: u8, mb: &Microbatch) -> Result<()> {
        let vs = self.map.vs_of(self.rank, chunk);
        let x0 = if vs == 0 {
            self.embed_input(k, mb)?
        } else {
            let (src, _) = self.map.device_of(vs - 1);
            self.link.recv(src, stage_tag(TAG_ACT, vs, k))?
        };
        let (h, caches) = self.params.blocks[chunk as usize].forward(&x0)?;
        self.acts.insert(k, chunk, caches);
        if vs < self.map.last_vs() {
            let (dst, _) = self.map.device_of(vs + 1);
            self.link.send(dst, stage_tag(TAG_ACT, vs + 1, k), &h)?;
        } else {
            match self.mode {
                Mode::Baseline => {
                    let w = self
                        .params
                        .full_output
                        .as_ref()
                        .expect("baseline hosts the output layer");
                    let logits = h.matmul_nt(w.value())?;
                    let (out, grad) = softmax_cross_entropy(&logits, &mb.labels)?;
                    self.losses.push(out.loss);
                    let st = self.state(k);
                    st.h_last = Some(h);
                    st.out_grad = Some(grad);
                }
                Mode::Vocab(_) => {
                    // C0: fan the last transformer output out to every
                    // vocabulary shard (including ourselves).
                    for dst in 0..self.map.devices {
                        self.link.send(dst, TAG_C0 | k as u64, &h)?;
                    }
                }
            }
        }
        Ok(())
    }

    fn backward(&mut self, k: u32, chunk: u8, mb: &Microbatch) -> Result<()> {
        let vs = self.map.vs_of(self.rank, chunk);
        let dy = if vs == self.map.last_vs() {
            match self.mode {
                Mode::Baseline => {
                    let st = self.states.get_mut(&k).expect("B after F");
                    let grad = st
                        .out_grad
                        .take()
                        .expect("last stage stored the loss gradient");
                    let h = st.h_last.take().expect("last stage stored its output");
                    let w = self
                        .params
                        .full_output
                        .as_mut()
                        .expect("baseline output layer");
                    let dw = grad.dlogits.matmul_tn(&h)?;
                    w.accumulate(&dw)?;
                    grad.dlogits.matmul(w.value())?
                }
                Mode::Vocab(VocabAlgo::Alg2) => self
                    .states
                    .get_mut(&k)
                    .expect("B after S")
                    .barrier
                    .take_dx()?,
                Mode::Vocab(VocabAlgo::Alg1) => {
                    // C2: sum the p partial ∇X contributions.
                    let mut acc = Tensor::zeros(mb.labels.len(), self.config.hidden);
                    for src in 0..self.map.devices {
                        let part = self.link.recv(src, TAG_C2 | k as u64)?;
                        acc.add_assign(&part)?;
                    }
                    acc
                }
                Mode::Vocab(VocabAlgo::Naive) => unreachable!("rejected at construction"),
            }
        } else {
            let (src, _) = self.map.device_of(vs + 1);
            self.link.recv(src, stage_tag(TAG_GRAD, vs, k))?
        };
        let caches = self.acts.remove(k, chunk).expect("F stored caches");
        let blocks = &mut self.params.blocks[chunk as usize];
        let dx0 = if self.has_w {
            // Zero-bubble split: the weight gradients wait for the W pass.
            let (dx0, grads) = blocks.backward_shadow(&caches, &dy)?;
            self.w_stash.insert(k, chunk, grads);
            dx0
        } else {
            blocks.backward(&caches, &dy)?
        };
        if vs > 0 {
            let (dst, _) = self.map.device_of(vs - 1);
            self.link.send(dst, stage_tag(TAG_GRAD, vs - 1, k), &dx0)?;
        } else {
            self.params
                .pos
                .as_mut()
                .expect("first-stage device owns pos")
                .accumulate(&dx0)?;
            match self.mode {
                Mode::Baseline => {
                    let cache = self
                        .states
                        .get_mut(&k)
                        .expect("B after F")
                        .emb_cache
                        .take()
                        .expect("F cached ids");
                    self.params
                        .full_input
                        .as_mut()
                        .expect("baseline input layer")
                        .backward(&cache, &dx0)?;
                }
                Mode::Vocab(_) => {
                    // Broadcast the embedding gradient to every input shard.
                    for dst in 0..self.map.devices {
                        self.link.send(dst, TAG_INGRAD | k as u64, &dx0)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Deferred weight-gradient pass (zero-bubble `W`): folds the stash
    /// produced by the matching `B` into the real parameters.
    fn w_pass(&mut self, k: u32, chunk: u8) -> Result<()> {
        let grads = self
            .w_stash
            .remove(k, chunk)
            .expect("B stashed the weight gradients");
        self.params.blocks[chunk as usize].accumulate_stash(&grads)
    }

    /// Data-parallel gradient synchronization: sum-all-reduce every
    /// parameter gradient across this stage's replicas.
    fn sync_grads(&mut self, comm: &Collective) -> Result<()> {
        for p in self.params.params_mut() {
            comm.all_reduce(p.grad_mut().data_mut(), ReduceOp::Sum)
                .map_err(|e| TensorError::InvalidArgument(format!("gradient sync failed: {e}")))?;
        }
        Ok(())
    }

    fn optimizer_step(&mut self, adam: &mut Adam) -> Result<()> {
        for p in self.params.params_mut() {
            adam.step(p)?;
        }
        adam.next_iteration();
        Ok(())
    }
}

/// What one device thread hands back: its loss trajectory (empty off the
/// reporter rank), its final parameters by move (serialized only when a
/// checkpoint is asked for), the wall-clock span of every pass in the final
/// iteration, and the observed activation peak.
pub(crate) struct DeviceOutcome {
    pub(crate) losses: Vec<f64>,
    params: DeviceParams,
    adam_timestep: i32,
    /// Per-pass `(start, end)` wall-clock seconds relative to the shared
    /// epoch, indexed like `schedule.passes(rank)` (final iteration).
    pub(crate) spans: Vec<(f64, f64)>,
    /// Per-iteration `(start, end)` wall-clock seconds relative to the
    /// shared epoch — the pass loop plus gradient sync, optimizer step and
    /// buffer recycling, one entry per executed iteration.
    pub(crate) iter_spans: Vec<(f64, f64)>,
    /// Peak simultaneously-resident microbatch-chunk activations.
    pub(crate) peak_resident: usize,
}

impl DeviceOutcome {
    /// This device's shard of a [`crate::PipelineCheckpoint`].
    pub(crate) fn checkpoint_shard(&mut self) -> Vec<u8> {
        self.params.save(self.adam_timestep)
    }
}

/// Everything one device thread is launched with: the validated run, its
/// place on each axis of the `dp × pp × tp` layout as the communicators
/// cut along that axis, and the run-wide clock.
pub(crate) struct DeviceCtx<'a> {
    pub(crate) config: &'a TinyConfig,
    pub(crate) schedule: &'a Schedule,
    /// `check_schedule`'s verdict on `(config, schedule)`.
    pub(crate) mode: Mode,
    pub(crate) iterations: usize,
    pub(crate) corpus: &'a DataSource,
    /// Pipeline rank: which of the schedule's pass lists this thread walks.
    pub(crate) rank: usize,
    /// p2p channel to the stages of this device's pipeline column.
    pub(crate) link: Link,
    /// `C1` communicator of the column's vocabulary shards.
    pub(crate) c1: Collective,
    /// Grid row and this device's shard of it (`None` exactly when
    /// `tp == 1`).
    pub(crate) row: Option<(TpRow, TpPartition)>,
    /// Gradient-sync communicator over this device's replicas, ranked by
    /// replica (`None` exactly when `dp == 1`).
    pub(crate) dp: Option<Collective>,
    /// Checkpoint shard to resume from and the iterations it completed.
    pub(crate) restore: Option<(&'a [u8], u64)>,
    /// This device's measured-run recording handle ([`Tracer::off`] when no
    /// trace is wanted).
    pub(crate) tracer: Tracer,
    /// Anchors the wall-clock pass spans across devices.
    pub(crate) epoch: Instant,
}

/// The per-device interpreter loop: walks the validated schedule's pass
/// list for `ctx.rank`, dispatching on [`PassKind`] only.
///
/// Replica `r` of `dp` trains on global microbatches `k·dp + r` and sums
/// its gradients with the other replicas before every optimizer step. The
/// loop disarms the tracer for warm-up iterations and arms it for the final
/// one, so a trace captures exactly one steady iteration — the same slice
/// of the run the `spans` report covers.
pub(crate) fn device_loop(ctx: DeviceCtx<'_>) -> Result<DeviceOutcome> {
    let DeviceCtx {
        config,
        schedule,
        mode,
        iterations,
        corpus,
        rank,
        mut link,
        c1,
        row,
        dp,
        restore,
        tracer,
        epoch,
    } = ctx;
    let map = StageMap::of(schedule);
    let last_dev = map.device_of(map.last_vs()).0;
    // The rank whose per-microbatch losses form the reported trajectory:
    // the last virtual stage's host in baseline mode (it computes the
    // loss), rank 0 in vocab mode (every rank sees the all-reduced loss;
    // one reports) — in the first column of its grid row.
    let reporter = match mode {
        Mode::Baseline => last_dev,
        Mode::Vocab(_) => 0,
    };
    let reports = rank == reporter && row.as_ref().is_none_or(|(_, part)| part.rank() == 0);
    let params = DeviceParams::build(config, schedule, mode, rank, row.as_ref())?;
    // The device thread, its p2p endpoint and its communication stream all
    // write the same per-device timeline: blocking receives show up as
    // comm-wait spans, overlapped barrier jobs as comm-stream spans.
    link.set_tracer(tracer.clone());
    let mut c1_stream = CommStream::new();
    // The stream's jobs (the barrier's reductions and corrections) run on
    // this device's kernel lanes, not on lanes of their own.
    if let Some(lanes) = pool::lane_budget() {
        c1_stream.submit(move || pool::set_lane_budget(lanes));
    }
    c1_stream.set_tracer(tracer.clone());
    let mut device = Device {
        rank,
        mode,
        config: config.clone(),
        map,
        params,
        has_w: schedule.count_kind(rank, PassKind::W) > 0,
        link,
        c1_comm: Arc::new(c1),
        c1_stream,
        acts: ActivationStore::default(),
        w_stash: WGradStash::default(),
        states: HashMap::new(),
        losses: Vec::new(),
    };
    let mut adam = Adam::new(config.lr);
    let mut start_iter = 0u64;
    if let Some((blob, done)) = restore {
        adam.set_timestep(device.params.load(blob)?);
        start_iter = done;
    }
    let (replica, replicas) = dp.as_ref().map_or((0, 1), |c| (c.rank(), c.world()));
    let local_m = schedule.num_microbatches() as usize;
    let mut iteration_losses = Vec::with_capacity(iterations);
    let mut spans = vec![(0.0, 0.0); schedule.passes(rank).len()];
    let mut iter_spans = Vec::with_capacity(iterations);
    for iter in start_iter..start_iter + iterations as u64 {
        // Warm-up iterations are disarmed; the trace captures the final
        // (steady-state) iteration, matching the `spans` report below.
        if iter + 1 == start_iter + iterations as u64 {
            tracer.arm();
        } else {
            tracer.disarm();
        }
        let it0 = epoch.elapsed().as_secs_f64();
        let mbs: Vec<Microbatch> = corpus
            .iteration(iter, local_m * replicas)
            .into_iter()
            .skip(replica)
            .step_by(replicas)
            .collect();
        for (i, pass) in schedule.passes(rank).iter().enumerate() {
            // Spans include any blocking wait on upstream data, so the
            // measured report shows communication-inclusive pass times
            // (bubbles appear as stretched passes, not gaps). The tracer's
            // comm-wait track separates the wait out again.
            let pass_span = tracer.span(
                Track::Compute,
                pass.kind.name(),
                pass.microbatch,
                pass.chunk,
            );
            let t0 = epoch.elapsed().as_secs_f64();
            device.run_pass(
                pass.kind,
                pass.microbatch,
                pass.chunk,
                &mbs[pass.microbatch as usize],
            )?;
            spans[i] = (t0, epoch.elapsed().as_secs_f64());
            pass_span.end();
        }
        // Wait for deferred barriers still in flight before touching
        // gradients or weights.
        device.c1_stream.synchronize();
        if let Some(dp_comm) = &dp {
            device.sync_grads(dp_comm)?;
        }
        device.optimizer_step(&mut adam)?;
        if reports {
            let mut total: f64 = device.losses.drain(..).sum();
            if let Some(dp_comm) = &dp {
                // Sum the replicas' loss contributions (all reporter-stage
                // devices participate, in the same position of the group's
                // op sequence).
                let mut buf = [total as f32];
                dp_comm
                    .all_reduce(&mut buf, ReduceOp::Sum)
                    .map_err(|e| TensorError::InvalidArgument(format!("loss sync failed: {e}")))?;
                total = buf[0] as f64;
            }
            iteration_losses.push(total / (local_m * replicas) as f64);
        } else {
            device.losses.clear();
        }
        // Per-iteration cleanup releases every microbatch-keyed buffer back
        // to the tensor arena, so the next iteration's F/B/S/T passes are
        // served from the pool instead of the system allocator.
        device.states.clear();
        device.acts.clear();
        device.w_stash.clear();
        iter_spans.push((it0, epoch.elapsed().as_secs_f64()));
    }
    Ok(DeviceOutcome {
        losses: iteration_losses,
        peak_resident: device.acts.peak_resident(),
        params: device.params,
        adam_timestep: adam.timestep(),
        spans,
        iter_spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::launch::train_schedule;
    use crate::reference::train_reference;
    use crate::testutil::assert_close;
    use vp_schedule::block::PassTimes;
    use vp_schedule::generators;

    /// The tentpole's generality proof, part 1: zero-bubble vocabulary
    /// schedules (B/W split + deferred T) train numerically and match the
    /// single-device reference within the Figure 17 tolerance — with no
    /// zero-bubble-specific runtime code.
    #[test]
    fn zb_vocab_schedules_train_to_reference() {
        let config = TinyConfig::default();
        let reference = train_reference(&config, 6).unwrap();
        let times = PassTimes {
            f: 1.0,
            b: 1.0,
            w: 1.0,
            ..PassTimes::default()
        };
        for variant in [VocabVariant::Alg1, VocabVariant::Alg2] {
            let schedule =
                generators::zb_vocab_1f1b(4, config.microbatches as u32, variant, times, true);
            let report = train_schedule(&config, &schedule, 6, &DataSource::synthetic(&config))
                .unwrap_or_else(|e| {
                    panic!("{variant:?}: {e}");
                });
            assert_close(&reference, &report.losses, 1e-3);
        }
    }

    /// The tentpole's generality proof, part 2: interleaved (round-robin
    /// multi-chunk) vocabulary schedules train numerically and match the
    /// reference.
    #[test]
    fn interleaved_vocab_schedules_train_to_reference() {
        let config = TinyConfig {
            layers: 8,
            ..TinyConfig::default()
        };
        let reference = train_reference(&config, 5).unwrap();
        let times = PassTimes {
            f: 0.5,
            b: 1.0,
            ..PassTimes::default()
        };
        for variant in [VocabVariant::Alg1, VocabVariant::Alg2] {
            let schedule = generators::interleaved_vocab_1f1b(
                4,
                2,
                config.microbatches as u32,
                variant,
                times,
                true,
            );
            let report = train_schedule(&config, &schedule, 5, &DataSource::synthetic(&config))
                .unwrap_or_else(|e| {
                    panic!("{variant:?}: {e}");
                });
            assert_close(&reference, &report.losses, 1e-3);
        }
    }

    /// Plain zero-bubble 1F1B (baseline vocabulary placement, B/W split)
    /// also matches the reference: the W pass handler is
    /// placement-agnostic.
    #[test]
    fn zb_baseline_schedule_trains_to_reference() {
        let config = TinyConfig::default();
        let reference = train_reference(&config, 5).unwrap();
        let times = PassTimes {
            f: 1.0,
            b: 1.0,
            w: 1.0,
            ..PassTimes::default()
        };
        let schedule = generators::zb_1f1b(4, config.microbatches as u32, times);
        let report =
            train_schedule(&config, &schedule, 5, &DataSource::synthetic(&config)).unwrap();
        assert_close(&reference, &report.losses, 1e-3);
    }

    /// Plain interleaved 1F1B with the Megatron-style baseline placement.
    #[test]
    fn interleaved_baseline_schedule_trains_to_reference() {
        let config = TinyConfig {
            layers: 8,
            ..TinyConfig::default()
        };
        let reference = train_reference(&config, 4).unwrap();
        let times = PassTimes {
            f: 0.5,
            b: 1.0,
            ..PassTimes::default()
        };
        let schedule = generators::interleaved_1f1b(4, 2, config.microbatches as u32, times);
        let report =
            train_schedule(&config, &schedule, 4, &DataSource::synthetic(&config)).unwrap();
        assert_close(&reference, &report.losses, 1e-3);
    }

    #[test]
    fn train_schedule_fills_a_real_timing_report() {
        let config = TinyConfig::default();
        let schedule = generators::vocab_1f1b(
            2,
            config.microbatches as u32,
            VocabVariant::Alg2,
            PassTimes::default(),
            true,
        );
        let report =
            train_schedule(&config, &schedule, 2, &DataSource::synthetic(&config)).unwrap();
        assert_eq!(report.exec.start.len(), 2);
        // One wall-time entry per iteration, each positive and at least as
        // long as the slowest device's busy pass time for that iteration.
        assert_eq!(report.iter_wall.len(), 2);
        for &w in &report.iter_wall {
            assert!(w > 0.0);
        }
        for d in 0..2 {
            assert_eq!(report.exec.start[d].len(), schedule.passes(d).len());
            assert!(report.exec.busy[d] > 0.0);
            // Pass spans are well-formed and inside the makespan.
            for i in 0..schedule.passes(d).len() {
                assert!(report.exec.start[d][i] >= 0.0);
                assert!(report.exec.end[d][i] >= report.exec.start[d][i]);
                assert!(report.exec.end[d][i] <= report.exec.makespan + 1e-12);
            }
        }
        // The simulator's consumers work on the measured report.
        let analysis = report.analysis(&schedule);
        assert!(analysis.makespan > 0.0);
        assert!(analysis.render().contains("mean bubble"));
    }

    #[test]
    fn mismatched_microbatches_are_rejected() {
        let config = TinyConfig::default(); // 4 microbatches
        let schedule = generators::one_f_one_b(2, 8, PassTimes::default());
        let err =
            train_schedule(&config, &schedule, 1, &DataSource::synthetic(&config)).unwrap_err();
        assert!(err.to_string().contains("microbatch"));
    }

    /// A schedule `vp-check` rejects never reaches a device thread. Device
    /// 1 of a Vocab-2 1F1B schedule drops its `T` (or its `InputB`) of
    /// microbatch 0: a coverage hole (`VP0004`) and a collective that
    /// device 1 never joins (`VP0005`). The dependency rules alone accept
    /// it, and on the devices it trains to a wrong loss without an error.
    #[test]
    fn schedules_vp_check_rejects_are_refused() {
        use vp_schedule::pass::{PassKind, Schedule, VocabVariant};
        let config = TinyConfig::default();
        let m = config.microbatches as u32;
        let base = generators::vocab_1f1b(2, m, VocabVariant::Alg2, PassTimes::default(), true);
        for kind in [PassKind::T, PassKind::InputB] {
            let mut passes: Vec<_> = (0..2).map(|d| base.passes(d).to_vec()).collect();
            let len = passes[1].len();
            passes[1].retain(|p| !(p.kind == kind && p.microbatch == 0));
            assert_eq!(passes[1].len(), len - 1, "{kind:?} 0 is on device 1");
            let mutant = Schedule::new(base.kind(), m, base.chunks(), passes)
                .with_placement(base.placement());
            vp_schedule::deps::validate(&mutant).expect("the dependency rules accept it");
            let err = train_schedule(&config, &mutant, 2, &DataSource::synthetic(&config))
                .map(|_| ())
                .unwrap_err()
                .to_string();
            assert!(
                err.contains("vp-check") && err.contains("VP0004") && err.contains("VP0005"),
                "{kind:?}: {err}"
            );
        }
    }

    #[test]
    fn interlaced_schedules_are_rejected() {
        let config = TinyConfig::default();
        let schedule =
            generators::interlaced_1f1b(2, config.microbatches as u32, PassTimes::default());
        let err =
            train_schedule(&config, &schedule, 1, &DataSource::synthetic(&config)).unwrap_err();
        assert!(err.to_string().contains("interlaced"));
    }
}
