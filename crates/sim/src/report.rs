//! Simulation reports: the quantities the paper's tables record.

/// Result of simulating one (method, model, devices, vocabulary) cell.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Human-readable method name ("baseline", "vocab-2", …).
    pub method: String,
    /// Devices of the whole `pp × tp` grid (`pp` on a flat pipeline); the
    /// per-device vectors below hold one entry per pipeline stage.
    pub devices: usize,
    /// End-to-end iteration time, seconds.
    pub iteration_seconds: f64,
    /// Model FLOPs utilization (Narayanan et al. accounting).
    pub mfu: f64,
    /// Peak memory per device, bytes (parameters + optimizer state +
    /// activations + transients).
    pub peak_memory_bytes: Vec<f64>,
    /// Static (parameter + optimizer state) bytes per device.
    pub param_bytes: Vec<f64>,
    /// Peak activation (+ vocabulary transient) bytes per device.
    pub activation_bytes: Vec<f64>,
    /// Idle fraction per device.
    pub bubble_fraction: Vec<f64>,
    /// Peak resident microbatches per device (activation counting).
    pub peak_microbatches: Vec<usize>,
}

impl SimReport {
    /// Maximum peak memory across devices, in GB (the paper's Figure 12 /
    /// Table 5 "peak memory" metric).
    pub fn max_memory_gb(&self) -> f64 {
        self.peak_memory_bytes.iter().cloned().fold(0.0, f64::max) / 1e9
    }

    /// Minimum peak memory across devices, in GB (Figure 14 plots the
    /// min–max band to show memory balance).
    pub fn min_memory_gb(&self) -> f64 {
        self.peak_memory_bytes
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min)
            / 1e9
    }

    /// Memory imbalance: max − min across devices, GB.
    pub fn memory_spread_gb(&self) -> f64 {
        self.max_memory_gb() - self.min_memory_gb()
    }

    /// Whether the configuration exceeds an 80 GB device (the paper's
    /// A100-80GB OOM criterion).
    pub fn would_oom(&self) -> bool {
        self.max_memory_gb() > 80.0
    }

    /// MFU as a percentage.
    pub fn mfu_pct(&self) -> f64 {
        100.0 * self.mfu
    }

    /// Activation share of the peak on the most loaded device.
    pub fn activation_fraction(&self) -> f64 {
        let (mut best, mut frac) = (0.0f64, 0.0f64);
        for d in 0..self.peak_memory_bytes.len() {
            if self.peak_memory_bytes[d] > best {
                best = self.peak_memory_bytes[d];
                frac = self.activation_bytes[d] / self.peak_memory_bytes[d].max(1.0);
            }
        }
        frac
    }
}
