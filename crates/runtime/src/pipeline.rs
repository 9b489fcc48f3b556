//! The schedule-family front end: maps a `(Mode, ScheduleFamily)`
//! selection onto the matching `vp-schedule` generator, so callers can ask
//! for "1F1B with Vocab-2" without touching generators. Pure — execution is
//! [`crate::train`]'s job, and the interpreter itself is family-agnostic.

pub use crate::engine::Mode;
use vp_schedule::block::PassTimes;
use vp_schedule::generators;
use vp_schedule::pass::{Schedule, VocabVariant};
use vp_tensor::{Result, TensorError};

/// Which pipeline schedule the trainer executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleFamily {
    /// Classic 1F1B: one model chunk per device.
    OneFOneB,
    /// V-Half (Qi et al. 2024): two chunks per device in a V-shape.
    VHalf,
}

/// Builds the concrete schedule for a `(mode, family)` selection over
/// `devices` pipeline stages and `m` microbatches. The schedule is the
/// single source of truth downstream: device count, chunk count, placement
/// and microbatches are all read back from it.
///
/// # Errors
///
/// Returns an error for the naive 3-barrier grouping, which the streamed
/// runtime does not execute.
pub fn schedule_for(
    mode: Mode,
    family: ScheduleFamily,
    devices: usize,
    m: u32,
) -> Result<Schedule> {
    let times = PassTimes::default();
    let variant =
        match mode {
            Mode::Baseline => None,
            Mode::Vocab(VocabVariant::Naive) => return Err(TensorError::InvalidArgument(
                "the streamed runtime supports Algorithms 1 and 2; use vp-core's fused naive path"
                    .into(),
            )),
            Mode::Vocab(variant) => Some(variant),
        };
    Ok(match (family, variant) {
        (ScheduleFamily::OneFOneB, None) => generators::one_f_one_b(devices, m, times),
        (ScheduleFamily::OneFOneB, Some(v)) => generators::vocab_1f1b(devices, m, v, times, true),
        (ScheduleFamily::VHalf, None) => generators::vhalf(devices, m, times),
        (ScheduleFamily::VHalf, Some(v)) => generators::vhalf_vocab(devices, m, v, times, true),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::DataSource;
    use crate::launch::train_schedule;
    use crate::model::TinyConfig;
    use crate::reference::train_reference;
    use crate::testutil::assert_close;
    use vp_core::VocabAlgo;

    /// Trains `family` on the config's synthetic corpus; returns the losses.
    fn train_pipeline_with(
        config: &TinyConfig,
        devices: usize,
        mode: Mode,
        family: ScheduleFamily,
        iterations: usize,
    ) -> Result<Vec<f64>> {
        let schedule = schedule_for(mode, family, devices, config.microbatches as u32)?;
        let corpus = DataSource::synthetic(config);
        Ok(train_schedule(config, &schedule, iterations, &corpus)?.losses)
    }

    fn train_pipeline(
        config: &TinyConfig,
        devices: usize,
        mode: Mode,
        iterations: usize,
    ) -> Result<Vec<f64>> {
        train_pipeline_with(config, devices, mode, ScheduleFamily::OneFOneB, iterations)
    }

    /// The baseline pipeline runs the reference's arithmetic in the
    /// reference's order (blocks, then the full output layer on the last
    /// stage), so its losses are the reference's, bit for bit.
    #[test]
    fn baseline_pipeline_matches_reference() {
        let config = TinyConfig::default();
        let reference = train_reference(&config, 6).unwrap();
        let pipeline = train_pipeline(&config, 2, Mode::Baseline, 6).unwrap();
        let bits = |losses: &[f64]| -> Vec<u64> { losses.iter().map(|l| l.to_bits()).collect() };
        assert_eq!(bits(&reference), bits(&pipeline));
    }

    #[test]
    fn vocab_alg1_pipeline_matches_reference() {
        let config = TinyConfig::default();
        let reference = train_reference(&config, 6).unwrap();
        let pipeline = train_pipeline(&config, 4, Mode::Vocab(VocabAlgo::Alg1), 6).unwrap();
        assert_close(&reference, &pipeline, 1e-3);
    }

    #[test]
    fn vocab_alg2_pipeline_matches_reference() {
        let config = TinyConfig::default();
        let reference = train_reference(&config, 6).unwrap();
        let pipeline = train_pipeline(&config, 4, Mode::Vocab(VocabAlgo::Alg2), 6).unwrap();
        assert_close(&reference, &pipeline, 1e-3);
    }

    #[test]
    fn vocab_modes_agree_with_each_other() {
        let config = TinyConfig::default();
        let a1 = train_pipeline(&config, 2, Mode::Vocab(VocabAlgo::Alg1), 5).unwrap();
        let a2 = train_pipeline(&config, 2, Mode::Vocab(VocabAlgo::Alg2), 5).unwrap();
        assert_close(&a1, &a2, 1e-3);
    }

    #[test]
    fn loss_decreases_under_pipeline_training() {
        let config = TinyConfig::default();
        let losses = train_pipeline(&config, 4, Mode::Vocab(VocabAlgo::Alg2), 10).unwrap();
        assert!(losses.last().unwrap() < &losses[0], "{losses:?}");
    }

    #[test]
    fn vhalf_baseline_matches_reference() {
        // 2 devices × 2 chunks = 4 virtual stages of 1 layer each.
        let config = TinyConfig::default();
        let reference = train_reference(&config, 5).unwrap();
        let pipeline =
            train_pipeline_with(&config, 2, Mode::Baseline, ScheduleFamily::VHalf, 5).unwrap();
        assert_close(&reference, &pipeline, 1e-3);
    }

    #[test]
    fn vhalf_vocab_matches_reference() {
        // The paper's §6.4 configuration in miniature: V-Half + Vocab-1/2.
        let config = TinyConfig {
            layers: 8,
            ..TinyConfig::default()
        };
        let reference = train_reference(&config, 5).unwrap();
        for algo in [VocabAlgo::Alg1, VocabAlgo::Alg2] {
            let pipeline =
                train_pipeline_with(&config, 4, Mode::Vocab(algo), ScheduleFamily::VHalf, 5)
                    .unwrap();
            assert_close(&reference, &pipeline, 1e-3);
        }
    }

    #[test]
    fn tied_pipeline_matches_tied_reference() {
        let config = TinyConfig {
            tied: true,
            ..TinyConfig::default()
        };
        let reference = train_reference(&config, 6).unwrap();
        for algo in [VocabAlgo::Alg1, VocabAlgo::Alg2] {
            let pipeline = train_pipeline(&config, 4, Mode::Vocab(algo), 6).unwrap();
            assert_close(&reference, &pipeline, 1e-3);
        }
    }

    #[test]
    fn tied_baseline_is_rejected() {
        let config = TinyConfig {
            tied: true,
            ..TinyConfig::default()
        };
        let err = train_pipeline(&config, 2, Mode::Baseline, 1).unwrap_err();
        assert!(err.to_string().contains("tied"));
    }

    #[test]
    fn indivisible_layers_are_rejected() {
        let config = TinyConfig::default();
        assert!(train_pipeline(&config, 3, Mode::Baseline, 1).is_err());
        // V-Half needs divisibility by 2·devices.
        assert!(train_pipeline_with(
            &TinyConfig {
                layers: 6,
                ..TinyConfig::default()
            },
            2,
            Mode::Baseline,
            ScheduleFamily::VHalf,
            1
        )
        .is_err());
    }

    #[test]
    fn pipelined_training_is_deterministic_across_runs() {
        // Thread scheduling varies between runs, but the pass order and
        // every floating-point reduction order are fixed by the schedule,
        // so two runs must agree bit for bit.
        let config = TinyConfig::default();
        let a = train_pipeline(&config, 4, Mode::Vocab(VocabAlgo::Alg2), 4).unwrap();
        let b = train_pipeline(&config, 4, Mode::Vocab(VocabAlgo::Alg2), 4).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn naive_mode_is_rejected_with_guidance() {
        let config = TinyConfig::default();
        let err = train_pipeline(&config, 2, Mode::Vocab(VocabAlgo::Naive), 1).unwrap_err();
        assert!(err.to_string().contains("naive"));
    }
}
