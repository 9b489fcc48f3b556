//! Helpers shared by the crate's unit tests.

/// The Figure-17 comparison: every iteration's loss within `tol` relative.
pub(crate) fn assert_close(a: &[f64], b: &[f64], tol: f64) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            (x - y).abs() < tol * (1.0 + x.abs()),
            "iteration {i}: {x} vs {y} (full: {a:?} vs {b:?})"
        );
    }
}
