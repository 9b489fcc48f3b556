//! Property tests of the pool's determinism contract: every threaded kernel
//! must be **bitwise identical** to its serial (`VP_THREADS=1`) counterpart
//! for all matmul layouts, edge shapes and thread counts — parallelism is
//! across independent output rows only, so no per-element reduction order
//! ever changes.

use std::sync::{Mutex, MutexGuard, OnceLock};
use vp_tensor::init::{normal, seeded_rng};
use vp_tensor::nn::{Gelu, LayerNorm};
use vp_tensor::ops::{local_softmax, row_max, softmax_rows};
use vp_tensor::{num_threads, pool, set_num_threads, Tensor};

/// Thread counts exercised against the serial reference.
const THREAD_COUNTS: &[usize] = &[1, 2, 7];

/// `(m, k, n)` shapes: empty, degenerate single-row/col, non-tile-multiple
/// and tile-aligned dimensions.
const SHAPES: &[(usize, usize, usize)] = &[
    (0, 5, 3),
    (5, 0, 3),
    (5, 3, 0),
    (1, 1, 1),
    (1, 37, 11),
    (37, 1, 11),
    (11, 37, 1),
    (17, 33, 29),
    (64, 64, 64),
    (65, 130, 31),
];

/// Serializes tests that reconfigure the process-global thread count, and
/// pretends the machine has plenty of cores for the duration: the dispatch
/// heuristic otherwise falls back to serial on a 1-core CI box, which would
/// make these threaded-vs-serial comparisons vacuous.
struct ConfigGuard {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for ConfigGuard {
    fn drop(&mut self) {
        pool::set_assumed_cores(0);
    }
}

fn config_lock() -> ConfigGuard {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = LOCK
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    pool::set_assumed_cores(16);
    ConfigGuard { _lock: guard }
}

/// Bitwise tensor equality (distinguishes `-0.0` from `0.0` and compares
/// NaN payloads exactly, unlike `PartialEq` on `f32`).
fn bits_eq(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn assert_bits_eq(a: &Tensor, b: &Tensor, what: &str) {
    assert!(bits_eq(a, b), "{what}: threaded result differs from serial");
}

#[test]
fn matmul_layouts_are_bitwise_identical_across_thread_counts() {
    let _guard = config_lock();
    let before = num_threads();
    let mut rng = seeded_rng(42);
    for &(m, k, n) in SHAPES {
        let a = normal(&mut rng, m, k, 1.0);
        let b = normal(&mut rng, k, n, 1.0);
        let b_t = normal(&mut rng, n, k, 1.0);
        let a_t = normal(&mut rng, k, m, 1.0);
        set_num_threads(1);
        let nn_ref = a.matmul(&b).unwrap();
        let nt_ref = a.matmul_nt(&b_t).unwrap();
        let tn_ref = a_t.matmul_tn(&b).unwrap();
        for &t in THREAD_COUNTS {
            set_num_threads(t);
            assert_bits_eq(
                &a.matmul(&b).unwrap(),
                &nn_ref,
                &format!("nn {m}x{k}x{n} t={t}"),
            );
            assert_bits_eq(
                &a.matmul_nt(&b_t).unwrap(),
                &nt_ref,
                &format!("nt {m}x{k}x{n} t={t}"),
            );
            assert_bits_eq(
                &a_t.matmul_tn(&b).unwrap(),
                &tn_ref,
                &format!("tn {m}x{k}x{n} t={t}"),
            );
        }
    }
    set_num_threads(before);
}

#[test]
fn matmul_with_nan_and_inf_is_bitwise_identical_across_thread_counts() {
    let _guard = config_lock();
    let before = num_threads();
    let mut rng = seeded_rng(7);
    let (m, k, n) = (33, 17, 29);
    let mut a = normal(&mut rng, m, k, 1.0);
    let b = normal(&mut rng, k, n, 1.0);
    *a.at_mut(3, 5) = f32::NAN;
    *a.at_mut(20, 0) = f32::INFINITY;
    *a.at_mut(7, 2) = 0.0;
    set_num_threads(1);
    let reference = a.matmul(&b).unwrap();
    for &t in THREAD_COUNTS {
        set_num_threads(t);
        assert_bits_eq(&a.matmul(&b).unwrap(), &reference, &format!("nn-nan t={t}"));
    }
    set_num_threads(before);
}

#[test]
fn softmax_family_is_bitwise_identical_across_thread_counts() {
    let _guard = config_lock();
    let before = num_threads();
    let mut rng = seeded_rng(11);
    for &(rows, cols) in &[
        (0usize, 4usize),
        (3, 0),
        (1, 129),
        (65, 1),
        (37, 257),
        (67, 96),
    ] {
        let mut t = normal(&mut rng, rows, cols, 3.0);
        if rows > 2 && cols > 1 {
            // Exercise the fully-masked-row path too.
            for v in t.row_mut(1) {
                *v = f32::NEG_INFINITY;
            }
        }
        set_num_threads(1);
        let max_ref = row_max(&t);
        let sm_ref = softmax_rows(&t);
        let (local_ref, stats_ref) = local_softmax(&t);
        for &n in THREAD_COUNTS {
            set_num_threads(n);
            assert_eq!(
                row_max(&t).iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                max_ref.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "row_max {rows}x{cols} t={n}"
            );
            assert_bits_eq(
                &softmax_rows(&t),
                &sm_ref,
                &format!("softmax {rows}x{cols} t={n}"),
            );
            let (local, stats) = local_softmax(&t);
            assert_bits_eq(
                &local,
                &local_ref,
                &format!("local_softmax {rows}x{cols} t={n}"),
            );
            assert_eq!(
                stats.sum.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                stats_ref
                    .sum
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                "local_softmax sums {rows}x{cols} t={n}"
            );
        }
    }
    set_num_threads(before);
}

#[test]
fn layer_norm_and_gelu_are_bitwise_identical_across_thread_counts() {
    let _guard = config_lock();
    let before = num_threads();
    let mut rng = seeded_rng(13);
    for &(rows, dim) in &[(1usize, 64usize), (33, 48), (130, 96)] {
        let x = normal(&mut rng, rows, dim, 2.0);
        let dy = normal(&mut rng, rows, dim, 1.0);
        let ln = LayerNorm::new(dim);
        let gelu = Gelu::new();
        set_num_threads(1);
        let (ln_ref, _) = ln.forward(&x).unwrap();
        let (gelu_ref, cache_ref) = gelu.forward(&x);
        let dx_ref = gelu.backward(&cache_ref, &dy).unwrap();
        for &t in THREAD_COUNTS {
            set_num_threads(t);
            let (y, _) = ln.forward(&x).unwrap();
            assert_bits_eq(&y, &ln_ref, &format!("layernorm {rows}x{dim} t={t}"));
            let (g, cache) = gelu.forward(&x);
            assert_bits_eq(&g, &gelu_ref, &format!("gelu {rows}x{dim} t={t}"));
            let dx = gelu.backward(&cache, &dy).unwrap();
            assert_bits_eq(&dx, &dx_ref, &format!("gelu_bwd {rows}x{dim} t={t}"));
        }
    }
    set_num_threads(before);
}

/// The per-row softmax body the grouped exp-sum replaced, kept as its
/// oracle: max, polynomial exp, one ascending chain from `−0.0`, scale by the
/// reciprocal of a positive sum; an empty or all-`−∞` row gets `(−∞, 0)`
/// (or its `NaN`) and a zero row. Returns the row's exponentials, its
/// softmax and `(max, sum)`.
fn oracle_row(row: &[f32]) -> (Vec<f32>, Vec<f32>, (f32, f32)) {
    let m = row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
    if m == f32::NEG_INFINITY {
        let s = if row.iter().any(|v| v.is_nan()) {
            f32::NAN
        } else {
            0.0
        };
        return (vec![s; row.len()], vec![s; row.len()], (m, s));
    }
    let exps: Vec<f32> = row.iter().map(|&v| vp_tensor::mathx::exp(v - m)).collect();
    let mut s = -0.0f32;
    for &e in &exps {
        s += e;
    }
    let softmax = match s > 0.0 {
        true => exps.iter().map(|&e| e * (1.0 / s)).collect(),
        false => exps.clone(),
    };
    (exps, softmax, (m, s))
}

/// Rows for the exp-sum oracle, by `r % 6`: the reassociation tripwire
/// (one `0` logit, the rest `−17`: every later exponential is below half
/// an ulp of the running `1.0`, so the in-order sum stays exactly `1.0`
/// while any sum that adds the small terms together first lands above
/// it), random, all `−∞`, a `NaN` among finite logits, a mix of `±∞` and
/// finite logits, and all `−∞` but one `NaN`.
fn exp_sum_rows_tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut t = normal(&mut seeded_rng(seed), rows, cols, 4.0);
    if cols == 0 {
        return t;
    }
    for r in 0..rows {
        let row = t.row_mut(r);
        match r % 6 {
            0 => {
                row.fill(-17.0);
                row[r % cols] = 0.0;
            }
            2 => row.fill(f32::NEG_INFINITY),
            3 => row[cols / 2] = f32::NAN,
            4 => {
                row[0] = f32::NEG_INFINITY;
                row[cols - 1] = f32::INFINITY;
            }
            5 => {
                row.fill(f32::NEG_INFINITY);
                row[cols / 3] = f32::NAN;
            }
            _ => {}
        }
    }
    t
}

#[test]
fn grouped_exp_sum_is_bitwise_the_per_row_softmax() {
    use vp_tensor::ops::{
        exp_sum_rows, local_exp_sum_in_place, local_softmax_in_place, EXP_SUM_ROWS,
    };
    let _guard = config_lock();
    let before = num_threads();
    let g = EXP_SUM_ROWS;
    let words = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for rows in [1, g - 1, g, g + 1, 33] {
        // 2053 columns: a ragged last 8-column block, and wide enough
        // for the pool to split the rows.
        for cols in [0, 3, 2053] {
            let logits = exp_sum_rows_tensor(rows, cols, 61 + rows as u64);
            let mut want_e = Vec::new();
            let mut want_p = Vec::new();
            let (mut want_m, mut want_s) = (Vec::new(), Vec::new());
            for r in 0..rows {
                let (e, p, (m, s)) = oracle_row(logits.row(r));
                want_e.extend(e);
                want_p.extend(p);
                want_m.push(m);
                want_s.push(s);
            }
            let what = |t: usize| format!("rows={rows} cols={cols} t={t}");
            if cols > 0 {
                // The tripwire really holds its sum at exactly 1.0.
                assert_eq!(want_s[0], 1.0);
            }
            for &t in THREAD_COUNTS {
                set_num_threads(t);
                let mut e = logits.clone();
                let stats = local_exp_sum_in_place(&mut e);
                assert_eq!(words(e.data()), words(&want_e), "exps {}", what(t));
                assert_eq!(words(&stats.max), words(&want_m), "max {}", what(t));
                assert_eq!(words(&stats.sum), words(&want_s), "sum {}", what(t));
                let mut p = logits.clone();
                let stats = local_softmax_in_place(&mut p);
                assert_eq!(words(p.data()), words(&want_p), "softmax {}", what(t));
                assert_eq!(words(&stats.sum), words(&want_s), "sum {}", what(t));
            }
            // The slice entry point, on the whole block at once.
            let mut e = logits.clone();
            let (mut m, mut s) = (vec![0.0; rows], vec![0.0; rows]);
            exp_sum_rows(e.data_mut(), cols, |_| cols, &mut m, &mut s);
            assert_eq!(words(e.data()), words(&want_e), "exps {}", what(0));
            assert_eq!(words(&s), words(&want_s), "slice sum {}", what(0));
        }
    }
    set_num_threads(before);
}

#[test]
fn ragged_exp_sum_is_bitwise_the_per_row_softmax() {
    // Causal score rows: row `r` is `base + r + 1` wide inside a stride
    // rounded up past the widest, so a group's rows share `base + 1`
    // columns and each longer row finishes its own. What lies past a row's
    // width must come back untouched.
    use vp_tensor::ops::{exp_sum_rows, EXP_SUM_ROWS};
    let _guard = config_lock();
    let g = EXP_SUM_ROWS;
    let words = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for rows in [1, g - 1, g, g + 1, 33] {
        for base in [0, 6, 2040] {
            let stride = (base + rows).next_multiple_of(16) + 3;
            let width = |r: usize| base + r + 1;
            let logits = exp_sum_rows_tensor(rows, stride, 71 + rows as u64);
            let mut got = logits.clone();
            let (mut m, mut s) = (vec![0.0; rows], vec![0.0; rows]);
            exp_sum_rows(got.data_mut(), stride, width, &mut m, &mut s);
            for r in 0..rows {
                let what = format!("rows={rows} base={base} row={r}");
                let (e, _, (want_m, want_s)) = oracle_row(&logits.row(r)[..width(r)]);
                assert_eq!(words(&got.row(r)[..width(r)]), words(&e), "exps {what}");
                assert_eq!(m[r].to_bits(), want_m.to_bits(), "max {what}");
                assert_eq!(s[r].to_bits(), want_s.to_bits(), "sum {what}");
                let past = |t: &Tensor| words(&t.row(r)[width(r)..]);
                assert_eq!(past(&got), past(&logits), "past the width {what}");
            }
        }
    }
}
