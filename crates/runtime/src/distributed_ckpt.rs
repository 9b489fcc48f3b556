//! Distributed checkpointing for the pipelined trainer: every device
//! serializes its own shard (transformer chunks, vocabulary shards, Adam
//! moments). Every [`crate::train`] run returns one, and a run given one as
//! [`crate::TrainSpec::resume`] continues bit-identically — which the tests
//! verify against an uninterrupted run.

/// A distributed checkpoint: one opaque shard per device plus the
/// completed iteration count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineCheckpoint {
    /// Per-device serialized state, indexed by global rank (replica-major,
    /// then pipeline rank, tensor rank innermost — the pipeline rank on a
    /// flat pipeline).
    pub shards: Vec<Vec<u8>>,
    /// Iterations completed when the checkpoint was taken.
    pub iterations_done: u64,
}

impl PipelineCheckpoint {
    /// Total bytes across all shards.
    pub fn total_bytes(&self) -> usize {
        self.shards.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use crate::data::DataSource;
    use crate::launch::{train, TrainSpec};
    use crate::model::TinyConfig;
    use crate::pipeline::{schedule_for, Mode, ScheduleFamily};
    use vp_core::VocabAlgo;

    /// 6 straight iterations against 3 + checkpoint + 3 resumed, bitwise.
    fn run_split(mode: Mode, family: ScheduleFamily, devices: usize, tp: usize) {
        let config = TinyConfig::default();
        let src = DataSource::synthetic(&config);
        let schedule = schedule_for(mode, family, devices, config.microbatches as u32).unwrap();
        let spec = TrainSpec {
            tp,
            ..TrainSpec::new(&schedule)
        };
        let full = train(&config, &spec, 6, &src).unwrap().report.losses;
        let head = train(&config, &spec, 3, &src).unwrap();
        assert_eq!(head.checkpoint.iterations_done, 3);
        assert!(head.checkpoint.total_bytes() > 0);
        let resumed = TrainSpec {
            resume: Some(&head.checkpoint),
            ..spec
        };
        let tail = train(&config, &resumed, 3, &src).unwrap();
        assert_eq!(tail.checkpoint.iterations_done, 6);
        let stitched: Vec<f64> = [head.report.losses, tail.report.losses].concat();
        assert_eq!(stitched, full, "{mode:?}/{family:?}: resume must be exact");
    }

    #[test]
    fn vocab_pipeline_checkpoint_resumes_exactly() {
        run_split(Mode::Vocab(VocabAlgo::Alg2), ScheduleFamily::OneFOneB, 2, 1);
    }

    #[test]
    fn baseline_pipeline_checkpoint_resumes_exactly() {
        run_split(Mode::Baseline, ScheduleFamily::OneFOneB, 4, 1);
    }

    #[test]
    fn vhalf_pipeline_checkpoint_resumes_exactly() {
        run_split(Mode::Vocab(VocabAlgo::Alg1), ScheduleFamily::VHalf, 2, 1);
    }

    /// Only the single launcher can express this: the sharded blocks of a
    /// `pp × tp` grid checkpoint and resume like the flat pipeline.
    #[test]
    fn tp_grid_checkpoint_resumes_exactly() {
        run_split(Mode::Vocab(VocabAlgo::Alg2), ScheduleFamily::OneFOneB, 2, 2);
    }

    #[test]
    fn mismatched_shard_count_rejected() {
        let config = TinyConfig::default();
        let src = DataSource::synthetic(&config);
        let m = config.microbatches as u32;
        let two = schedule_for(Mode::Baseline, ScheduleFamily::OneFOneB, 2, m).unwrap();
        let four = schedule_for(Mode::Baseline, ScheduleFamily::OneFOneB, 4, m).unwrap();
        let ckpt = train(&config, &TrainSpec::new(&two), 1, &src)
            .unwrap()
            .checkpoint;
        let spec = TrainSpec {
            resume: Some(&ckpt),
            ..TrainSpec::new(&four)
        };
        let err = train(&config, &spec, 1, &src).unwrap_err();
        assert!(err.to_string().contains("shards"));
    }
}
