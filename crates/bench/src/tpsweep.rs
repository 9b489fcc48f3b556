//! `repro tpsweep` — the PP × TP composition study on the 2D device grid.
//!
//! For a fixed device budget, sweeps every `pp × tp` factorization (PTD-P
//! style, Narayanan et al. 2021 §5.4) across methods and microbatch
//! counts, and reports where the crossover sits:
//! with few microbatches the pipeline fill/drain bubble dominates and a
//! wider tensor axis wins; with many microbatches the fill amortizes and
//! the deep pipeline's full-width kernels win.
//!
//! Every point is gated by `vp-check`: its schedule must pass the full
//! static analysis, which covers the whole grid because every tensor rank
//! of a row walks its stage's pass list. The `tp = 1` column is the flat
//! pipeline itself — the simulator has one path, whose reports a golden
//! test pins bit for bit.
//!
//! `ci.sh` runs `repro tpsweep --json` and fails if any point is
//! unverified; this module's tests also assert that the vocab-2 crossover
//! flips with the microbatch count.

use vp_check::check;
use vp_model::config::ModelPreset;
use vp_model::cost::Hardware;
use vp_schedule::block::PassTimes;
use vp_sim::{tp_crossover_sweep, Method};

use crate::table::json_f64;

/// One factorization of the device budget and its gated simulation result.
#[derive(Debug, Clone)]
pub struct TpSweepPoint {
    /// Pipeline depth of this factorization.
    pub pp: usize,
    /// Tensor-parallel width (`pp * tp` = the fixed device budget).
    pub tp: usize,
    /// Model FLOPs utilization, percent.
    pub mfu_pct: f64,
    /// End-to-end iteration time, milliseconds.
    pub iteration_ms: f64,
    /// Peak memory of the most loaded device, GB.
    pub peak_gb: f64,
    /// Mean idle fraction across devices, percent.
    pub bubble_pct: f64,
    /// Whether `vp-check` accepts this configuration's schedule.
    pub check_clean: bool,
}

/// One sweep series: a (method, microbatch count) row of the crossover
/// table, covering every factorization.
#[derive(Debug, Clone)]
pub struct TpSweepSeries {
    /// Simulated method.
    pub method: Method,
    /// Microbatches per iteration (the crossover's control variable).
    pub microbatches: usize,
    /// Points ordered by increasing `tp` (so `points[0]` is `tp = 1`).
    pub points: Vec<TpSweepPoint>,
}

impl TpSweepSeries {
    /// The tensor width of the fastest factorization in this series.
    pub fn best_tp(&self) -> usize {
        self.points
            .iter()
            .min_by(|a, b| a.iteration_ms.total_cmp(&b.iteration_ms))
            .map_or(1, |p| p.tp)
    }

    /// Whether every point passed the static checks.
    pub fn all_clean(&self) -> bool {
        self.points.iter().all(|p| p.check_clean)
    }
}

fn mean_pct(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    100.0 * values.iter().sum::<f64>() / values.len() as f64
}

/// Runs the full crossover sweep on `total_devices` devices (4B model):
/// {baseline, vocab-2} × {4, 16, 128} microbatches.
pub fn run(total_devices: usize) -> Vec<TpSweepSeries> {
    let hw = Hardware::default();
    let mut out = Vec::new();
    for method in [Method::Baseline, Method::Vocab2] {
        for m in [4usize, 16, 128] {
            let config = ModelPreset::Gpt4B.config().with_num_microbatches(m);
            let points = tp_crossover_sweep(method, &config, total_devices, &hw)
                .into_iter()
                .map(|p| {
                    let (pp, tp) = (p.grid.pp(), p.grid.tp());
                    // Pass times only set priorities; the analyses ignore
                    // them.
                    let sched = method.schedule(pp, m as u32, PassTimes::default());
                    TpSweepPoint {
                        pp,
                        tp,
                        mfu_pct: p.report.mfu_pct(),
                        iteration_ms: 1e3 * p.report.iteration_seconds,
                        peak_gb: p.report.max_memory_gb(),
                        bubble_pct: mean_pct(&p.report.bubble_fraction),
                        check_clean: check(&sched).is_clean(),
                    }
                })
                .collect();
            out.push(TpSweepSeries {
                method,
                microbatches: m,
                points,
            });
        }
    }
    out
}

/// Renders the sweep as a human table: one row per point, the fastest
/// factorization of each series starred.
pub fn render(total_devices: usize, series: &[TpSweepSeries]) -> String {
    let mut rows = Vec::new();
    for s in series {
        let best = s.best_tp();
        for p in &s.points {
            rows.push(vec![
                s.method.name().to_string(),
                s.microbatches.to_string(),
                format!("{}x{}{}", p.pp, p.tp, if p.tp == best { " *" } else { "" }),
                format!("{:.2}", p.mfu_pct),
                format!("{:.1}", p.iteration_ms),
                format!("{:.1}", p.peak_gb),
                format!("{:.1}", p.bubble_pct),
                if p.check_clean { "ok" } else { "FAIL" }.to_string(),
            ]);
        }
    }
    let mut out = crate::table::render(
        &[
            "method",
            "microbatches",
            "pp x tp",
            "MFU %",
            "iter ms",
            "peak GB",
            "bubble %",
            "vp-check",
        ],
        &rows,
    );
    out.push_str(&format!(
        "\n{total_devices} devices; * marks the fastest factorization of each series.\n\
         Few microbatches: the fill bubble dominates and a wider tensor axis wins.\n\
         Many microbatches: the fill amortizes and the deep pipeline wins.\n"
    ));
    out
}

/// Machine-readable crossover table (`TPSWEEP.json`).
pub fn to_json(total_devices: usize, series: &[TpSweepSeries]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"tpsweep\",\n");
    out.push_str("  \"generated_by\": \"repro tpsweep --json\",\n");
    out.push_str(&format!("  \"total_devices\": {total_devices},\n"));
    out.push_str("  \"series\": [\n");
    for (i, s) in series.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"method\": \"{}\", \"microbatches\": {}, \"best_tp\": {},\n",
            s.method.name(),
            s.microbatches,
            s.best_tp()
        ));
        out.push_str("     \"points\": [\n");
        for (j, p) in s.points.iter().enumerate() {
            out.push_str(&format!(
                "       {{\"pp\": {}, \"tp\": {}, \"mfu_pct\": {}, \"iteration_ms\": {}, \
                 \"peak_gb\": {}, \"bubble_pct\": {}, \"check_clean\": {}}}{}\n",
                p.pp,
                p.tp,
                json_f64(p.mfu_pct),
                json_f64(p.iteration_ms),
                json_f64(p.peak_gb),
                json_f64(p.bubble_pct),
                p.check_clean,
                if j + 1 == s.points.len() { "" } else { "," }
            ));
        }
        out.push_str(&format!(
            "     ]}}{}\n",
            if i + 1 == series.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_clean_and_crosses_over() {
        let series = run(16);
        // 2 methods x 3 microbatch counts.
        assert_eq!(series.len(), 6);
        for s in &series {
            assert_eq!(s.points.len(), 4, "16 devices have 4 factorizations");
            assert_eq!(s.points[0].tp, 1);
            assert!(s.all_clean(), "{}: unverified point", s.method.name());
        }
        // The headline crossover (vocab-2): TP wins when the bubble
        // dominates, deep PP when the fill amortizes.
        let find = |m: usize| {
            series
                .iter()
                .find(|s| s.method == Method::Vocab2 && s.microbatches == m)
                .expect("series present")
        };
        assert!(find(4).best_tp() > 1, "bubble-bound: TP must win");
        assert_eq!(find(128).best_tp(), 1, "compute-bound: deep PP must win");
    }

    #[test]
    fn json_shape_is_stable() {
        let series = run(4);
        let doc = to_json(4, &series);
        assert!(doc.contains("\"bench\": \"tpsweep\""), "{doc}");
        assert!(!doc.contains("\"check_clean\": false"), "{doc}");
    }
}
