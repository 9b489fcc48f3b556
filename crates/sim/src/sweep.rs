//! Parameter sweeps over the simulator, with CSV export — the data series
//! behind the paper's figures (and any new ones a user wants to plot).

use crate::method::{run_1f1b, run_1f1b_grid, run_vhalf, Method, VHalfMethod};
use crate::report::SimReport;
use vp_model::config::ModelConfig;
use vp_model::cost::Hardware;
use vp_schedule::grid::DeviceGrid;

/// One point of a sweep: the varied value and the simulation result.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The swept parameter's value (vocabulary size, microbatches, …).
    pub x: f64,
    /// The simulation report at that value.
    pub report: SimReport,
}

/// Sweeps vocabulary size for one 1F1B method (a Figure 11/12 series).
pub fn vocab_sweep(
    method: Method,
    config: &ModelConfig,
    devices: usize,
    hardware: &Hardware,
    vocabs: &[usize],
) -> Vec<SweepPoint> {
    vocabs
        .iter()
        .map(|&v| SweepPoint {
            x: v as f64,
            report: run_1f1b(
                method,
                &config.clone().with_vocab(v),
                devices,
                hardware.clone(),
            ),
        })
        .collect()
}

/// Sweeps vocabulary size for one V-Half method (a Figure 13/14 series).
pub fn vocab_sweep_vhalf(
    method: VHalfMethod,
    config: &ModelConfig,
    devices: usize,
    hardware: &Hardware,
    vocabs: &[usize],
) -> Vec<SweepPoint> {
    vocabs
        .iter()
        .map(|&v| SweepPoint {
            x: v as f64,
            report: run_vhalf(
                method,
                &config.clone().with_vocab(v),
                devices,
                hardware.clone(),
            ),
        })
        .collect()
}

/// Sweeps the microbatch count (pipeline fill amortization study).
pub fn microbatch_sweep(
    method: Method,
    config: &ModelConfig,
    devices: usize,
    hardware: &Hardware,
    microbatches: &[usize],
) -> Vec<SweepPoint> {
    microbatches
        .iter()
        .map(|&m| SweepPoint {
            x: m as f64,
            report: run_1f1b(
                method,
                &config.clone().with_num_microbatches(m),
                devices,
                hardware.clone(),
            ),
        })
        .collect()
}

/// One point of a PP × TP crossover sweep: the grid shape and its report.
#[derive(Debug, Clone)]
pub struct GridSweepPoint {
    /// The device grid the point was simulated on.
    pub grid: DeviceGrid,
    /// The simulation report for that factorization.
    pub report: SimReport,
}

/// Sweeps every `pp × tp` factorization of a fixed device count — the
/// PTD-style composition study (Narayanan et al. 2021, §5.4): at the same
/// device budget, when does widening the tensor axis beat deepening the
/// pipeline? Shallow pipelines amortize their fill/drain bubble over fewer
/// stages but pay exposed TP collectives and narrower (less efficient)
/// matmul shards; with few microbatches the bubble dominates and TP wins,
/// with many the flat pipeline does.
///
/// Factorizations keep at least two pipeline stages (`pp ≥ 2`), ordered by
/// increasing `tp`; the `tp = 1` point is the flat pipeline.
pub fn tp_crossover_sweep(
    method: Method,
    config: &ModelConfig,
    total_devices: usize,
    hardware: &Hardware,
) -> Vec<GridSweepPoint> {
    (1..=total_devices)
        .filter(|tp| total_devices.is_multiple_of(*tp) && total_devices / tp >= 2)
        .map(|tp| {
            let grid = DeviceGrid::new(total_devices / tp, tp);
            GridSweepPoint {
                grid,
                report: run_1f1b_grid(method, config, grid, hardware.clone()),
            }
        })
        .collect()
}

/// Renders sweep series as CSV: one row per x value, one column pair
/// (`<name>_mfu`, `<name>_gb`) per series.
///
/// # Panics
///
/// Panics if the series have mismatched lengths or x values (caller bug).
pub fn to_csv(x_name: &str, series: &[(&str, &[SweepPoint])]) -> String {
    let mut out = String::from(x_name);
    for (name, _) in series {
        out.push_str(&format!(",{name}_mfu_pct,{name}_peak_gb"));
    }
    out.push('\n');
    let rows = series.first().map(|(_, s)| s.len()).unwrap_or(0);
    for i in 0..rows {
        let x = series[0].1[i].x;
        out.push_str(&format!("{x}"));
        for (name, s) in series {
            assert_eq!(s.len(), rows, "series {name} has a different length");
            assert!(
                (s[i].x - x).abs() < 1e-9,
                "series {name} has mismatched x values"
            );
            out.push_str(&format!(
                ",{:.3},{:.3}",
                s[i].report.mfu_pct(),
                s[i].report.max_memory_gb()
            ));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_model::config::ModelPreset;

    fn cfg() -> ModelConfig {
        ModelPreset::Gpt4B.config().with_num_microbatches(16)
    }

    #[test]
    fn vocab_sweep_shows_baseline_collapse() {
        let hw = Hardware::default();
        let vocabs = [32 * 1024, 256 * 1024];
        let base = vocab_sweep(Method::Baseline, &cfg(), 8, &hw, &vocabs);
        let vocab = vocab_sweep(Method::Vocab2, &cfg(), 8, &hw, &vocabs);
        assert!(base[1].report.mfu < base[0].report.mfu * 0.8);
        assert!((vocab[1].report.mfu - vocab[0].report.mfu).abs() < 0.05 * vocab[0].report.mfu);
    }

    #[test]
    fn microbatch_sweep_amortizes_the_fill() {
        let hw = Hardware::default();
        let ms = [8usize, 64];
        let pts = microbatch_sweep(Method::Vocab2, &cfg(), 8, &hw, &ms);
        assert!(pts[1].report.mfu > pts[0].report.mfu);
    }

    #[test]
    fn vhalf_sweep_runs() {
        let hw = Hardware::default();
        let cfg = ModelPreset::Gpt7B.config().with_num_microbatches(16);
        let pts = vocab_sweep_vhalf(VHalfMethod::Vocab1, &cfg, 16, &hw, &[32 * 1024]);
        assert_eq!(pts.len(), 1);
        assert!(pts[0].report.mfu > 0.2);
    }

    #[test]
    fn csv_is_rectangular() {
        let hw = Hardware::default();
        let vocabs = [32 * 1024, 64 * 1024];
        let a = vocab_sweep(Method::Baseline, &cfg(), 8, &hw, &vocabs);
        let b = vocab_sweep(Method::Vocab2, &cfg(), 8, &hw, &vocabs);
        let csv = to_csv("vocab", &[("baseline", &a), ("vocab2", &b)]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "vocab,baseline_mfu_pct,baseline_peak_gb,vocab2_mfu_pct,vocab2_peak_gb"
        );
        assert_eq!(lines[1].split(',').count(), 5);
    }

    #[test]
    fn tp_crossover_covers_factorizations() {
        let hw = Hardware::default();
        let pts = tp_crossover_sweep(Method::Vocab2, &cfg(), 16, &hw);
        let shapes: Vec<(usize, usize)> = pts.iter().map(|p| (p.grid.pp(), p.grid.tp())).collect();
        assert_eq!(shapes, vec![(16, 1), (8, 2), (4, 4), (2, 8)]);
    }

    /// The PTD-style crossover: with few microbatches the pipeline bubble
    /// dominates and a wider tensor axis wins; with many microbatches the
    /// fill amortizes and the flat pipeline's full-width kernels win.
    #[test]
    fn tp_crossover_flips_with_microbatch_count() {
        let hw = Hardware::default();
        let best = |m: usize| {
            let config = cfg().with_num_microbatches(m);
            tp_crossover_sweep(Method::Vocab2, &config, 16, &hw)
                .into_iter()
                .min_by(|a, b| {
                    a.report
                        .iteration_seconds
                        .total_cmp(&b.report.iteration_seconds)
                })
                .expect("non-empty sweep")
        };
        assert!(best(4).grid.tp() > 1, "bubble-bound: TP must win");
        assert_eq!(best(128).grid.tp(), 1, "compute-bound: deep PP must win");
    }

    #[test]
    fn memory_breakdown_components_sum() {
        let hw = Hardware::default();
        let r = run_1f1b(Method::Vocab2, &cfg(), 8, hw);
        for d in 0..8 {
            let sum = r.param_bytes[d] + r.activation_bytes[d];
            assert!((sum - r.peak_memory_bytes[d]).abs() < 1.0);
        }
        assert!(r.activation_fraction() > 0.0 && r.activation_fraction() < 1.0);
    }
}
