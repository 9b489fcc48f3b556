//! The 2D device grid composing pipeline parallelism with Megatron-style
//! tensor parallelism.
//!
//! The paper's measured configurations (§6.2) compose vocabulary
//! parallelism with tensor parallelism exactly as Megatron-LM's PTD-P
//! composition does (Narayanan et al. 2021): devices form a grid of
//! `pp × tp` entries, where each *pipeline stage* is replicated across a
//! row of `tp` devices that shard every attention/MLP layer column- and
//! row-wise, rendezvousing in the classic `f`/`g` conjugate all-reduce
//! pairs. [`DeviceGrid`] is the schedule-level half of that composition:
//! the layout, with global rank `pp_rank · tp + tp_rank` (tensor ranks
//! innermost, matching Megatron's order so that a TP group always sits
//! inside one node where the fast links are). Every tensor rank of a row
//! walks its stage's pass list unchanged.
//!
//! A 1D schedule is exactly the `tp = 1` column of the grid: every row
//! has a single member, every TP collective degenerates to a no-op, and the
//! runtime/simulator are required (and tested) to be bitwise identical to
//! the pre-grid code paths.

/// A `pp × tp` device grid.
///
/// # Example
///
/// ```
/// use vp_schedule::grid::DeviceGrid;
///
/// let grid = DeviceGrid::new(4, 2);
/// assert_eq!(grid.devices(), 8);
/// assert_eq!(grid.global(1, 0), 2); // tp innermost
/// assert_eq!(grid.coords(5), (2, 1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeviceGrid {
    pp: usize,
    tp: usize,
}

impl DeviceGrid {
    /// Creates a grid of `pp` pipeline stages × `tp` tensor ranks.
    ///
    /// # Panics
    ///
    /// Panics if either axis is zero.
    pub fn new(pp: usize, tp: usize) -> Self {
        assert!(pp > 0 && tp > 0, "grid axes must be positive");
        DeviceGrid { pp, tp }
    }

    /// Pipeline depth (number of stages).
    pub fn pp(&self) -> usize {
        self.pp
    }

    /// Tensor-parallel width (devices per stage).
    pub fn tp(&self) -> usize {
        self.tp
    }

    /// Total device count `pp · tp`.
    pub fn devices(&self) -> usize {
        self.pp * self.tp
    }

    /// Global rank of grid entry `(pp_rank, tp_rank)`; tensor ranks are
    /// innermost (Megatron order).
    ///
    /// # Panics
    ///
    /// Panics if either coordinate is out of range.
    pub fn global(&self, pp_rank: usize, tp_rank: usize) -> usize {
        assert!(pp_rank < self.pp, "pp_rank {pp_rank} out of {}", self.pp);
        assert!(tp_rank < self.tp, "tp_rank {tp_rank} out of {}", self.tp);
        pp_rank * self.tp + tp_rank
    }

    /// Grid coordinates `(pp_rank, tp_rank)` of a global rank.
    ///
    /// # Panics
    ///
    /// Panics if `global` is out of range.
    pub fn coords(&self, global: usize) -> (usize, usize) {
        assert!(global < self.devices(), "global rank out of range");
        (global / self.tp, global % self.tp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_and_coords_roundtrip() {
        let grid = DeviceGrid::new(4, 2);
        for g in 0..grid.devices() {
            let (p, t) = grid.coords(g);
            assert_eq!(grid.global(p, t), g);
        }
        // tp innermost: consecutive globals share a row.
        assert_eq!(grid.coords(0), (0, 0));
        assert_eq!(grid.coords(1), (0, 1));
        assert_eq!(grid.coords(2), (1, 0));
    }

    #[test]
    fn groups_partition_the_grid() {
        let grid = DeviceGrid::new(3, 4);
        let mut seen = vec![0usize; grid.devices()];
        for p in 0..grid.pp() {
            for t in 0..grid.tp() {
                seen[grid.global(p, t)] += 1;
            }
        }
        assert!(
            seen.iter().all(|&c| c == 1),
            "rows and columns must tile the grid"
        );
    }

    #[test]
    fn degenerate_tp1_grid_is_the_flat_pipeline() {
        let grid = DeviceGrid::new(4, 1);
        assert_eq!(grid.devices(), 4);
        for p in 0..4 {
            assert_eq!(grid.global(p, 0), p);
            assert_eq!(grid.coords(p), (p, 0));
        }
    }
}
