//! The canonical boundary walk shared by the dataset generator, SDNet and
//! the Mosaic Flow predictor.
//!
//! A discretized boundary function `ĝ` is the vector of grid values read
//! counter-clockwise around the rectangle, starting at the bottom-left
//! corner `(row 0, col 0)`:
//!
//! 1. bottom edge, left → right (`row 0`, cols `0..nx-1`),
//! 2. right edge, bottom → top (`col nx-1`, rows `0..ny-1`),
//! 3. top edge, right → left (`row ny-1`, cols `nx-1..0`),
//! 4. left edge, top → bottom (`col 0`, rows `ny-1..0`).
//!
//! Each corner appears exactly once, so the walk has
//! `2(nx-1) + 2(ny-1)` points and is a closed curve — which is why SDNet's
//! boundary embedding uses *circular* convolutions.

use mf_tensor::Tensor;

/// Number of points in the boundary walk of an `ny×nx` grid.
pub fn boundary_len(ny: usize, nx: usize) -> usize {
    assert!(ny >= 2 && nx >= 2, "boundary_len: grid too small");
    2 * (nx - 1) + 2 * (ny - 1)
}

/// The `(row, col)` coordinates of the walk, in order.
pub fn boundary_coords(ny: usize, nx: usize) -> Vec<(usize, usize)> {
    assert!(ny >= 2 && nx >= 2, "boundary_coords: grid too small");
    let mut out = Vec::with_capacity(boundary_len(ny, nx));
    for i in 0..nx - 1 {
        out.push((0, i));
    }
    for j in 0..ny - 1 {
        out.push((j, nx - 1));
    }
    for i in (1..nx).rev() {
        out.push((ny - 1, i));
    }
    for j in (1..ny).rev() {
        out.push((j, 0));
    }
    out
}

/// The position of grid point `(row j, col i)` in the walk of an `ny×nx`
/// grid, or `None` for an interior point. Panics off the grid.
pub fn walk_index(ny: usize, nx: usize, j: usize, i: usize) -> Option<usize> {
    assert!(
        j < ny && i < nx,
        "walk_index: ({j}, {i}) is off the {ny}x{nx} grid"
    );
    let (top, right) = (ny - 1, nx - 1);
    if j == 0 {
        Some(i)
    } else if i == right {
        Some(right + j)
    } else if j == top {
        Some(right + top + (right - i))
    } else if i == 0 {
        Some(2 * right + top + (top - j))
    } else {
        None
    }
}

/// Arc-length parameters `t ∈ [0, 1)` of the walk points, proportional to
/// physical distance along the perimeter. Used to evaluate boundary
/// functions such as the paper's `ĝ(t) = sin(2πt)` (Fig. 7).
pub fn boundary_params(ny: usize, nx: usize) -> Vec<f64> {
    let len = boundary_len(ny, nx);
    // With isotropic spacing every step has equal length, so the parameter
    // is uniform in the walk index.
    (0..len).map(|k| k as f64 / len as f64).collect()
}

/// Read the boundary values of `grid` into a `1×L` row vector.
pub fn extract_boundary(grid: &Tensor) -> Tensor {
    let (ny, nx) = grid.shape();
    let coords = boundary_coords(ny, nx);
    Tensor::from_vec(
        1,
        coords.len(),
        coords.iter().map(|&(j, i)| grid.get(j, i)).collect(),
    )
}

/// Write boundary values (walk order) onto the ring of `grid`.
pub fn apply_boundary(grid: &mut Tensor, values: &Tensor) {
    let (ny, nx) = grid.shape();
    let coords = boundary_coords(ny, nx);
    assert_eq!(
        values.numel(),
        coords.len(),
        "apply_boundary: expected {} values, got {}",
        coords.len(),
        values.numel()
    );
    for (k, &(j, i)) in coords.iter().enumerate() {
        grid.set(j, i, values.as_slice()[k]);
    }
}

/// A fresh grid with the given boundary values and zero interior.
pub fn grid_with_boundary(ny: usize, nx: usize, values: &Tensor) -> Tensor {
    let mut g = Tensor::zeros(ny, nx);
    apply_boundary(&mut g, values);
    g
}

/// Evaluate a boundary function of the arc-length parameter on the walk.
pub fn boundary_from_fn(ny: usize, nx: usize, f: impl Fn(f64) -> f64) -> Tensor {
    let params = boundary_params(ny, nx);
    Tensor::from_vec(1, params.len(), params.into_iter().map(f).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_length_and_uniqueness() {
        let coords = boundary_coords(5, 7);
        assert_eq!(coords.len(), boundary_len(5, 7));
        assert_eq!(coords.len(), 2 * 6 + 2 * 4);
        let mut seen = std::collections::HashSet::new();
        for &c in &coords {
            assert!(seen.insert(c), "coordinate {c:?} repeated");
        }
    }

    #[test]
    fn walk_starts_bottom_left_and_goes_ccw() {
        let coords = boundary_coords(3, 3);
        assert_eq!(
            coords,
            vec![
                (0, 0),
                (0, 1), // bottom
                (0, 2),
                (1, 2), // right
                (2, 2),
                (2, 1), // top (right to left)
                (2, 0),
                (1, 0), // left (top to bottom)
            ]
        );
    }

    #[test]
    fn walk_index_inverts_the_walk() {
        for (ny, nx) in [(3, 3), (5, 7), (6, 4), (9, 9)] {
            let coords = boundary_coords(ny, nx);
            for j in 0..ny {
                for i in 0..nx {
                    let k = coords.iter().position(|&p| p == (j, i));
                    assert_eq!(walk_index(ny, nx, j, i), k, "{ny}x{nx} ({j}, {i})");
                }
            }
        }
    }

    #[test]
    fn walk_is_connected_and_closed() {
        let coords = boundary_coords(6, 4);
        for w in coords.windows(2) {
            let d = (w[0].0 as isize - w[1].0 as isize).abs()
                + (w[0].1 as isize - w[1].1 as isize).abs();
            assert_eq!(d, 1, "walk jump between {:?} and {:?}", w[0], w[1]);
        }
        let first = coords[0];
        let last = *coords.last().unwrap();
        let d =
            (first.0 as isize - last.0 as isize).abs() + (first.1 as isize - last.1 as isize).abs();
        assert_eq!(d, 1, "walk does not close");
    }

    #[test]
    fn extract_apply_round_trip() {
        let grid = Tensor::from_fn(4, 5, |j, i| (j * 5 + i) as f64);
        let b = extract_boundary(&grid);
        let mut fresh = Tensor::zeros(4, 5);
        apply_boundary(&mut fresh, &b);
        // Ring must match, interior must stay zero.
        for &(j, i) in &boundary_coords(4, 5) {
            assert_eq!(fresh.get(j, i), grid.get(j, i));
        }
        for j in 1..3 {
            for i in 1..4 {
                assert_eq!(fresh.get(j, i), 0.0);
            }
        }
    }

    #[test]
    fn params_are_uniform_in_zero_one() {
        let p = boundary_params(5, 5);
        assert_eq!(p.len(), 16);
        assert_eq!(p[0], 0.0);
        assert!(p.iter().all(|&t| (0.0..1.0).contains(&t)));
        for w in p.windows(2) {
            assert!((w[1] - w[0] - 1.0 / 16.0).abs() < 1e-12);
        }
    }

    #[test]
    fn boundary_from_fn_evaluates_sin() {
        let b = boundary_from_fn(5, 5, |t| (2.0 * std::f64::consts::PI * t).sin());
        assert_eq!(b.numel(), 16);
        assert!((b.as_slice()[0]).abs() < 1e-12);
        assert!((b.as_slice()[4] - 1.0).abs() < 1e-12); // t = 1/4
    }
}
