//! The experiment implementations behind the `repro` binary, one per
//! table/figure of the paper (see DESIGN.md's experiment index).

use vp_model::config::{ModelConfig, ModelPreset};
use vp_model::cost::{CostModel, Hardware, VocabAlgo};
use vp_model::partition::{StageLayout, VocabPartition};
use vp_runtime::{
    schedule_for, train_reference, train_schedule, DataSource, Mode, ScheduleFamily, TinyConfig,
};
use vp_schedule::block::PassTimes;
use vp_schedule::exec::{Executor, UnitCosts};
use vp_schedule::generators;
use vp_schedule::pass::VocabVariant;
use vp_schedule::render;
use vp_sim::{
    run_1f1b, run_barrier_ablation, run_interlaced_ablation, run_vhalf, run_zero_bubble,
    simulated_events, sweep, Method, SimReport, VHalfMethod,
};
use vp_trace::chrome::to_chrome_trace;

/// One measured cell of a throughput/memory table.
#[derive(Debug, Clone, Copy)]
pub struct MeasuredCell {
    /// MFU in percent.
    pub mfu_pct: f64,
    /// Peak memory across devices, GB.
    pub mem_gb: f64,
    /// Whether this exceeds the 80 GB device budget (paper's OOM).
    pub oom: bool,
}

impl From<&SimReport> for MeasuredCell {
    fn from(r: &SimReport) -> Self {
        MeasuredCell {
            mfu_pct: r.mfu_pct(),
            mem_gb: r.max_memory_gb(),
            oom: r.would_oom(),
        }
    }
}

fn preset_for_table5(devices: usize) -> ModelPreset {
    match devices {
        8 => ModelPreset::Gpt4B,
        16 => ModelPreset::Gpt10B,
        _ => ModelPreset::Gpt21B,
    }
}

fn preset_for_table6(devices: usize) -> ModelPreset {
    match devices {
        16 => ModelPreset::Gpt7B,
        24 => ModelPreset::Gpt16B,
        _ => ModelPreset::Gpt30B,
    }
}

fn config(preset: ModelPreset, seq: usize, vocab_k: usize, microbatches: usize) -> ModelConfig {
    preset
        .config()
        .with_seq_len(seq)
        .with_vocab(vocab_k * 1024)
        .with_num_microbatches(microbatches)
}

/// Figure 2: compute and parameter-memory ratio of the vocabulary layers
/// relative to one transformer layer, Gemma2-9B. Returns
/// `(vocab_size, compute_ratio, memory_ratio)` rows.
pub fn fig2_rows() -> Vec<(usize, f64, f64)> {
    let base = ModelPreset::Gemma2_9B.config();
    [32usize, 64, 128, 256]
        .into_iter()
        .map(|k| {
            let cfg = base.clone().with_vocab(k * 1024);
            let compute =
                6.0 * cfg.vocab as f64 / (72.0 * cfg.hidden as f64 + 12.0 * cfg.seq_len as f64);
            let memory = cfg.vocab_layer_params() as f64 / cfg.transformer_layer_params() as f64;
            (cfg.vocab, compute, memory)
        })
        .collect()
}

/// Figure 3: per-stage relative compute under the three layouts for the
/// 7B model at 128k vocabulary (16 stages, 2 transformer layers each).
/// Returns `(layout name, per-stage loads, imbalance factor)`.
pub fn fig3_rows() -> Vec<(&'static str, Vec<f64>, f64)> {
    let cfg = ModelPreset::Gpt7B.config().with_vocab(128 * 1024);
    let p = 16;
    let layouts = [
        ("baseline", StageLayout::baseline(&cfg, p)),
        ("redis", StageLayout::redistributed(&cfg, p)),
        ("vocab-parallel", StageLayout::vocab_parallel(&cfg, p)),
    ];
    layouts
        .into_iter()
        .map(|(name, layout)| {
            let loads: Vec<f64> = (0..p)
                .map(|d| layout.stage_relative_compute(&cfg, d))
                .collect();
            let mean = loads.iter().sum::<f64>() / p as f64;
            let normalized: Vec<f64> = loads.iter().map(|l| l / mean).collect();
            let imbalance = layout.compute_imbalance(&cfg);
            (name, normalized, imbalance)
        })
        .collect()
}

/// Table 3: scaling factors of the partitioned vocabulary layers relative
/// to linear scaling. Returns `(seq, layer name, [factor at 8/16/32])`.
pub fn table3_rows() -> Vec<(usize, &'static str, [f64; 3])> {
    let mut rows = Vec::new();
    for seq in [2048usize, 4096] {
        let factors = |algo: Option<VocabAlgo>| -> [f64; 3] {
            let mut out = [0.0; 3];
            for (i, (preset, p)) in [
                (ModelPreset::Gpt4B, 8),
                (ModelPreset::Gpt10B, 16),
                (ModelPreset::Gpt21B, 32),
            ]
            .into_iter()
            .enumerate()
            {
                let cfg = preset.config().with_seq_len(seq).with_vocab(256 * 1024);
                let m = CostModel::new(cfg, Hardware::default());
                out[i] = 100.0
                    * match algo {
                        Some(a) => m.output_scaling_factor(a, p),
                        None => m.input_scaling_factor(p),
                    };
            }
            out
        };
        rows.push((seq, "output-vocab-1", factors(Some(VocabAlgo::Alg1))));
        rows.push((seq, "output-vocab-2", factors(Some(VocabAlgo::Alg2))));
        rows.push((seq, "input", factors(None)));
    }
    rows
}

/// Table 5 / Figures 11–12: all five methods on 1F1B. Returns
/// `cells[setup][method][vocab]`. `microbatches` trades fidelity for time
/// (the paper uses 128; tests use fewer).
pub fn table5_cells(microbatches: usize) -> Vec<Vec<Vec<MeasuredCell>>> {
    let hw = Hardware::default();
    crate::paper::TABLE5_SETUPS
        .iter()
        .map(|&(devices, seq, _)| {
            Method::all()
                .iter()
                .map(|&method| {
                    crate::paper::VOCABS_K
                        .iter()
                        .map(|&vk| {
                            let cfg = config(preset_for_table5(devices), seq, vk, microbatches);
                            MeasuredCell::from(&run_1f1b(method, &cfg, devices, hw.clone()))
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// Table 6 / Figures 13–14: Baseline vs Vocab-1 on V-Half. Returns
/// `cells[setup][method][vocab]` plus the per-device min memory (for the
/// Figure 14 band): `(cell, min_mem_gb)`.
pub fn table6_cells(microbatches: usize) -> Vec<Vec<Vec<(MeasuredCell, f64)>>> {
    let hw = Hardware::default();
    crate::paper::TABLE6_SETUPS
        .iter()
        .map(|&(devices, seq, _)| {
            [VHalfMethod::Baseline, VHalfMethod::Vocab1]
                .iter()
                .map(|&method| {
                    crate::paper::VOCABS_K
                        .iter()
                        .map(|&vk| {
                            let cfg = config(preset_for_table6(devices), seq, vk, microbatches);
                            let r = run_vhalf(method, &cfg, devices, hw.clone());
                            (MeasuredCell::from(&r), r.min_memory_gb())
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// Appendix B.2 ablation: fraction of interlaced iteration time spent in
/// synchronous all-reduces (21B model, 32 devices, seq 2048).
pub fn ablation_interlaced(microbatches: usize) -> f64 {
    let cfg = config(ModelPreset::Gpt21B, 2048, 256, microbatches);
    let (with_sync, without) = run_interlaced_ablation(&cfg, 32, Hardware::default());
    (with_sync - without) / with_sync
}

/// The barrier-count ablation (§4/§5.2): naive (3 barriers) vs Algorithm 1
/// (2) vs Algorithm 2 (1), on 1F1B. Returns `(name, mfu %, peak GB,
/// device-0 in-flight microbatches)` rows.
pub fn ablation_barriers(microbatches: usize) -> Vec<(String, f64, f64, usize)> {
    let cfg = config(ModelPreset::Gpt4B, 2048, 256, microbatches);
    run_barrier_ablation(&cfg, 8, &Hardware::default())
        .into_iter()
        .map(|r| {
            (
                r.method.clone(),
                r.mfu_pct(),
                r.max_memory_gb(),
                r.peak_microbatches[0],
            )
        })
        .collect()
}

/// The zero-bubble extension (§4.4's deferrable-T affinity): plain 1F1B
/// with Vocab-2 vs ZB-1F1B with Vocab-2. Returns `(name, mfu %, mean
/// bubble %)` rows.
pub fn ablation_zero_bubble(microbatches: usize) -> Vec<(String, f64, f64)> {
    let cfg = config(ModelPreset::Gpt4B, 2048, 256, microbatches);
    let hw = Hardware::default();
    let plain = run_1f1b(Method::Vocab2, &cfg, 8, hw.clone());
    let zb = run_zero_bubble(&cfg, 8, hw, VocabVariant::Alg2);
    let mean = |r: &SimReport| {
        100.0 * r.bubble_fraction.iter().sum::<f64>() / r.bubble_fraction.len() as f64
    };
    vec![
        ("1f1b-vocab-2".to_string(), plain.mfu_pct(), mean(&plain)),
        (zb.method.clone(), zb.mfu_pct(), mean(&zb)),
    ]
}

/// Writes Chrome trace-event JSON files for the main schedules into `dir`.
/// Returns the written paths.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn export_traces(dir: &std::path::Path) -> std::io::Result<Vec<std::path::PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let times = PassTimes::default();
    let mut written = Vec::new();
    let cases: Vec<(&str, vp_schedule::pass::Schedule)> = vec![
        ("1f1b", generators::one_f_one_b(4, 8, times)),
        (
            "vocab1-1f1b",
            generators::vocab_1f1b(4, 8, VocabVariant::Alg1, times, true),
        ),
        (
            "vocab2-1f1b",
            generators::vocab_1f1b(4, 8, VocabVariant::Alg2, times, true),
        ),
        ("interlaced", generators::interlaced_1f1b(4, 8, times)),
        (
            "vhalf-vocab1",
            generators::vhalf_vocab(
                4,
                8,
                VocabVariant::Alg1,
                PassTimes {
                    b: 1.0,
                    w: 1.0,
                    ..times
                },
                true,
            ),
        ),
    ];
    for (name, schedule) in cases {
        let costs = UnitCosts::new(times, schedule.chunks());
        let report = Executor::new(&costs)
            .run(&schedule)
            .expect("gallery schedules validate");
        // One unit of simulated time renders as one millisecond.
        let json = to_chrome_trace(&simulated_events(&schedule, &report, 1e6));
        let path = dir.join(format!("{name}.trace.json"));
        std::fs::write(&path, json)?;
        written.push(path);
    }
    Ok(written)
}

/// The schedule-generality experiment (§5): Vocab-2 MFU on three schedule
/// families at 32k and 256k vocabularies. Returns `(family, mfu32, mfu256,
/// peak_gb_256)` rows.
pub fn generality_rows(microbatches: usize) -> Vec<(String, f64, f64, f64)> {
    let hw = Hardware::default();
    let run = |vk: usize, which: u8| -> SimReport {
        let cfg = config(ModelPreset::Gpt4B, 2048, vk, microbatches);
        match which {
            0 => run_1f1b(Method::Vocab2, &cfg, 8, hw.clone()),
            1 => run_zero_bubble(&cfg, 8, hw.clone(), VocabVariant::Alg2),
            _ => vp_sim::run_interleaved_vocab(&cfg, 8, 2, VocabVariant::Alg2, hw.clone()),
        }
    };
    ["1f1b", "zero-bubble 1f1b", "interleaved 1f1b (2 chunks)"]
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let small = run(32, i as u8);
            let large = run(256, i as u8);
            (
                name.to_string(),
                small.mfu_pct(),
                large.mfu_pct(),
                large.max_memory_gb(),
            )
        })
        .collect()
}

/// Writes the Figure 11–14 data series as CSV files into `dir`
/// (`fig11_12_<setup>.csv` for the 1F1B methods, `fig13_14_<setup>.csv`
/// for V-Half). Returns the written paths.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn export_csv(
    dir: &std::path::Path,
    microbatches: usize,
) -> std::io::Result<Vec<std::path::PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let hw = Hardware::default();
    let vocabs: Vec<usize> = crate::paper::VOCABS_K.iter().map(|k| k * 1024).collect();
    let mut written = Vec::new();
    for &(devices, seq, _) in &crate::paper::TABLE5_SETUPS {
        let cfg = preset_for_table5(devices)
            .config()
            .with_seq_len(seq)
            .with_num_microbatches(microbatches);
        let series: Vec<(Method, Vec<sweep::SweepPoint>)> = Method::all()
            .iter()
            .map(|&m| (m, sweep::vocab_sweep(m, &cfg, devices, &hw, &vocabs)))
            .collect();
        let named: Vec<(&str, &[sweep::SweepPoint])> = series
            .iter()
            .map(|(m, s)| (m.name(), s.as_slice()))
            .collect();
        let path = dir.join(format!("fig11_12_{devices}gpu_seq{seq}.csv"));
        std::fs::write(&path, sweep::to_csv("vocab", &named))?;
        written.push(path);
    }
    for &(devices, seq, _) in &crate::paper::TABLE6_SETUPS {
        let cfg = preset_for_table6(devices)
            .config()
            .with_seq_len(seq)
            .with_num_microbatches(microbatches);
        let series: Vec<(VHalfMethod, Vec<sweep::SweepPoint>)> =
            [VHalfMethod::Baseline, VHalfMethod::Vocab1]
                .iter()
                .map(|&m| (m, sweep::vocab_sweep_vhalf(m, &cfg, devices, &hw, &vocabs)))
                .collect();
        let named: Vec<(&str, &[sweep::SweepPoint])> = series
            .iter()
            .map(|(m, s)| (m.name(), s.as_slice()))
            .collect();
        let path = dir.join(format!("fig13_14_{devices}gpu_seq{seq}.csv"));
        std::fs::write(&path, sweep::to_csv("vocab", &named))?;
        written.push(path);
    }
    Ok(written)
}

/// Renders the schedule gallery (Figures 1, 9/10, 15, 16 analogues).
pub fn schedule_gallery() -> String {
    let times = PassTimes::default();
    let mut out = String::new();
    out.push_str(&render::legend());
    let show = |title: &str, schedule: &vp_schedule::pass::Schedule, out: &mut String| {
        let costs = UnitCosts::new(times, schedule.chunks());
        let report = Executor::new(&costs)
            .run(schedule)
            .expect("gallery schedules validate");
        out.push_str(&format!("\n== {title} ==\n"));
        out.push_str(&render::render_timeline(schedule, &report, 100));
    };
    show(
        "Figure 1: plain 1F1B (p=4, m=6)",
        &generators::one_f_one_b(4, 6, times),
        &mut out,
    );
    show(
        "Figure 10a: 1F1B + Vocabulary Parallelism, Algorithm 1 (p=4, m=6)",
        &generators::vocab_1f1b(4, 6, VocabVariant::Alg1, times, false),
        &mut out,
    );
    show(
        "Figure 10b: 1F1B + Vocabulary Parallelism, Algorithm 2 (p=4, m=6)",
        &generators::vocab_1f1b(4, 6, VocabVariant::Alg2, times, false),
        &mut out,
    );
    show(
        "Figure 15b: interlaced pipeline (p=4, m=6)",
        &generators::interlaced_1f1b(4, 6, times),
        &mut out,
    );
    let vhalf_times = PassTimes {
        b: 1.0,
        w: 1.0,
        ..times
    };
    show(
        "Figure 16: V-Half + Vocabulary Parallelism (p=4, m=6)",
        &generators::vhalf_vocab(4, 6, VocabVariant::Alg1, vhalf_times, false),
        &mut out,
    );
    out
}

/// §6.1 padding note: the vocabulary is padded to a multiple of `2p`.
/// Returns `(original, padded, shard width)` for the paper's 24-device
/// example.
pub fn padding_example() -> (usize, usize, usize) {
    let part = VocabPartition::new(256_008, 24);
    (part.vocab(), part.padded(), part.shard_width())
}

/// Figure 17: convergence of the pipelined implementations against the
/// single-device reference. Returns `(name, losses)` per curve.
///
/// # Panics
///
/// Panics if any trainer fails (configuration is fixed and valid).
pub fn fig17_curves(iterations: usize) -> Vec<(&'static str, Vec<f64>)> {
    let config = TinyConfig::default();
    let corpus = DataSource::synthetic(&config);
    let pipeline = |mode| {
        let m = config.microbatches as u32;
        let schedule = schedule_for(mode, ScheduleFamily::OneFOneB, 4, m).expect("streamed mode");
        train_schedule(&config, &schedule, iterations, &corpus)
            .expect("pipeline trains")
            .losses
    };
    vec![
        (
            "reference",
            train_reference(&config, iterations).expect("reference trains"),
        ),
        ("pipeline-baseline", pipeline(Mode::Baseline)),
        ("pipeline-vocab-1", pipeline(Mode::Vocab(VocabAlgo::Alg1))),
        ("pipeline-vocab-2", pipeline(Mode::Vocab(VocabAlgo::Alg2))),
    ]
}

/// Numeric schedule generality: the runtime interprets zero-bubble and
/// interleaved vocabulary schedules *directly* (no family-specific code)
/// and must match the single-device reference, with the measured bubble
/// reported from the interpreter's real-timing `ExecReport`. Returns
/// `(family, final_loss, max_deviation_vs_reference, mean_bubble_pct)`
/// rows.
///
/// # Panics
///
/// Panics if any trainer fails (configurations are fixed and valid).
pub fn generality_numeric_rows(iterations: usize) -> Vec<(String, f64, f64, f64)> {
    let base = TinyConfig::default();
    let m = base.microbatches as u32;
    let zb_times = PassTimes {
        f: 1.0,
        b: 1.0,
        w: 1.0,
        ..PassTimes::default()
    };
    let il_times = PassTimes {
        f: 0.5,
        b: 1.0,
        ..PassTimes::default()
    };
    // Interleaving doubles the virtual stages, so it gets a deeper model
    // (8 layers over 4 devices × 2 chunks) with its own reference curve.
    let deep = TinyConfig { layers: 8, ..base };
    let runs = [
        (
            "vocab 1f1b",
            base.clone(),
            generators::vocab_1f1b(4, m, VocabVariant::Alg2, PassTimes::default(), true),
        ),
        (
            "zb vocab 1f1b",
            base,
            generators::zb_vocab_1f1b(4, m, VocabVariant::Alg2, zb_times, true),
        ),
        (
            "interleaved vocab 1f1b (2 chunks)",
            deep,
            generators::interleaved_vocab_1f1b(4, 2, m, VocabVariant::Alg2, il_times, true),
        ),
    ];
    let mut rows = Vec::new();
    for (name, config, schedule) in runs {
        let reference = train_reference(&config, iterations).expect("reference trains");
        let report = train_schedule(
            &config,
            &schedule,
            iterations,
            &DataSource::synthetic(&config),
        )
        .expect("schedule interprets numerically");
        let max_dev = report
            .losses
            .iter()
            .zip(&reference)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        let bubble = 100.0 * report.analysis(&schedule).mean_bubble();
        rows.push((
            name.to_string(),
            *report.losses.last().expect("losses"),
            max_dev,
            bubble,
        ));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_ratio_reaches_about_5x_at_256k() {
        let rows = fig2_rows();
        let (_, compute, memory) = rows[3];
        assert!((4.5..6.5).contains(&compute), "compute {compute}");
        assert!((5.0..7.0).contains(&memory), "memory {memory}");
        // Ratios grow with vocabulary.
        assert!(rows[0].1 < rows[3].1);
    }

    #[test]
    fn fig3_shows_residual_imbalance_after_redistribution() {
        let rows = fig3_rows();
        let baseline = rows.iter().find(|r| r.0 == "baseline").unwrap();
        let redis = rows.iter().find(|r| r.0 == "redis").unwrap();
        let vocab = rows.iter().find(|r| r.0 == "vocab-parallel").unwrap();
        assert!(baseline.2 > redis.2);
        assert!(redis.2 > 1.1, "redis should stay imbalanced: {}", redis.2);
        assert!(vocab.2 < 1.02);
    }

    #[test]
    fn table3_factors_match_paper_shape() {
        let rows = table3_rows();
        for (seq, name, factors) in &rows {
            // Factors decrease with device count.
            assert!(
                factors[0] > factors[1] && factors[1] > factors[2],
                "{seq} {name}: {factors:?}"
            );
        }
        // Output factors: within ~8 points of the paper at every cell.
        for (i, seq) in [2048usize, 4096].iter().enumerate() {
            for (j, name) in ["output-vocab-1", "output-vocab-2"].iter().enumerate() {
                let row = rows.iter().find(|r| r.0 == *seq && r.1 == *name).unwrap();
                for k in 0..3 {
                    let paper = crate::paper::TABLE3[i][j][k];
                    assert!(
                        (row.2[k] - paper).abs() < 8.0,
                        "{seq} {name} dev[{k}]: measured {} vs paper {paper}",
                        row.2[k]
                    );
                }
            }
        }
        // Input layer scales much worse than the output layer.
        let input = rows.iter().find(|r| r.0 == 2048 && r.1 == "input").unwrap();
        assert!(input.2[2] < 40.0);
    }

    #[test]
    fn schedule_gallery_renders_all_figures() {
        let g = schedule_gallery();
        for needle in [
            "Figure 1",
            "Figure 10a",
            "Figure 10b",
            "Figure 15b",
            "Figure 16",
        ] {
            assert!(g.contains(needle), "missing {needle}");
        }
        assert!(g.contains('S') && g.contains('T'));
    }

    #[test]
    fn padding_matches_papers_example() {
        let (orig, padded, shard) = padding_example();
        assert_eq!((orig, padded), (256_008, 256_032));
        assert_eq!(shard * 24, padded);
    }

    #[test]
    fn barrier_ablation_shape() {
        let rows = ablation_barriers(16);
        assert_eq!(rows.len(), 3);
        // In-flight microbatches ordered by barrier count; MFUs comparable.
        assert!(rows[0].3 >= rows[1].3 && rows[1].3 > rows[2].3, "{rows:?}");
        assert!(rows[0].2 > rows[2].2, "{rows:?}");
    }

    #[test]
    fn zero_bubble_ablation_improves() {
        let rows = ablation_zero_bubble(16);
        assert!(rows[1].1 > rows[0].1, "{rows:?}");
    }

    #[test]
    fn csv_export_writes_all_series() {
        let dir = std::env::temp_dir().join("vp-csv-test");
        let written = export_csv(&dir, 8).unwrap();
        assert_eq!(written.len(), 12);
        let first = std::fs::read_to_string(&written[0]).unwrap();
        assert!(first.starts_with("vocab,baseline_mfu_pct"));
        assert_eq!(first.lines().count(), 5); // header + 4 vocab sizes
        for p in written {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn traces_are_written() {
        let dir = std::env::temp_dir().join("vp-trace-test");
        let written = export_traces(&dir).unwrap();
        assert_eq!(written.len(), 5);
        for p in &written {
            let s = std::fs::read_to_string(p).unwrap();
            assert!(s.contains("traceEvents"));
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn quick_table5_8gpu_shape() {
        // One setup only (keeps the test fast): baseline collapses in V,
        // vocab methods are flat and better at 256k.
        let hw = Hardware::default();
        let cells: Vec<Vec<MeasuredCell>> = Method::all()
            .iter()
            .map(|&m| {
                crate::paper::VOCABS_K
                    .iter()
                    .map(|&vk| {
                        let cfg = config(ModelPreset::Gpt4B, 2048, vk, 32);
                        MeasuredCell::from(&run_1f1b(m, &cfg, 8, hw.clone()))
                    })
                    .collect()
            })
            .collect();
        let baseline = &cells[0];
        let vocab2 = &cells[3];
        assert!(baseline[3].mfu_pct < 0.75 * baseline[0].mfu_pct);
        assert!((vocab2[3].mfu_pct - vocab2[0].mfu_pct).abs() < 3.0);
        assert!(vocab2[3].mfu_pct > 1.4 * baseline[3].mfu_pct);
        assert!(vocab2[3].mem_gb < baseline[3].mem_gb);
    }

    #[test]
    fn generality_numeric_tracks_reference() {
        let rows = generality_numeric_rows(3);
        assert_eq!(rows.len(), 3);
        for (name, final_loss, dev, bubble) in rows {
            assert!(final_loss.is_finite(), "{name}");
            // Figure 17's tolerance: f32 accumulation-order noise only.
            assert!(dev < 1e-3, "{name}: deviation {dev}");
            assert!((0.0..100.0).contains(&bubble), "{name}: bubble {bubble}");
        }
    }
}
