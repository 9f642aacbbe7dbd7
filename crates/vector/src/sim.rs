//! Vector similarity measures.

/// Cosine similarity in `[-1, 1]`; zero vectors yield 0.
///
/// Non-finite inputs (a NaN or infinite component, or an overflowing
/// norm/dot) yield `NaN` — the "no match" sentinel. Rankers must treat a
/// non-finite score as no-match (the index `top_k` skips them), so one
/// corrupt embedding can never outrank every real one. `-0.0` results are
/// normalized to `0.0` so score ties break deterministically.
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    cosine_from_parts(dot(a, b), norm(a), norm(b))
}

/// [`cosine`] of two vectors from their dot product and their norms, for a
/// caller that compares one vector with many and keeps each norm.
pub fn cosine_from_parts(dot: f32, na: f32, nb: f32) -> f32 {
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    if !(dot.is_finite() && na.is_finite() && nb.is_finite()) {
        return f32::NAN;
    }
    let c = (dot / (na * nb)).clamp(-1.0, 1.0);
    if c == 0.0 {
        0.0
    } else {
        c
    }
}

/// Euclidean norm.
pub fn norm(a: &[f32]) -> f32 {
    a.iter().map(|x| x * x).sum::<f32>().sqrt()
}

/// Dot product.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean (L2) distance.
pub fn l2(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f32>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_bounds_and_identity() {
        let a = vec![1.0, 2.0, 3.0];
        assert!((cosine(&a, &a) - 1.0).abs() < 1e-6);
        let neg: Vec<f32> = a.iter().map(|x| -x).collect();
        assert!((cosine(&a, &neg) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_zero_vector() {
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
    }

    #[test]
    fn cosine_orthogonal() {
        assert!(cosine(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-6);
    }

    #[test]
    fn cosine_non_finite_is_no_match() {
        // A corrupt (NaN/∞) component must yield NaN — never a real score
        // that could outrank genuine matches.
        assert!(cosine(&[f32::NAN, 1.0], &[1.0, 1.0]).is_nan());
        assert!(cosine(&[1.0, 1.0], &[f32::INFINITY, 1.0]).is_nan());
        assert!(cosine(&[f32::NEG_INFINITY], &[1.0]).is_nan());
    }

    /// `cosine` as it was before it was written over `cosine_from_parts`.
    fn cosine_inline(a: &[f32], b: &[f32]) -> f32 {
        let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
        let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
        let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
        if na == 0.0 || nb == 0.0 {
            return 0.0;
        }
        if !(dot.is_finite() && na.is_finite() && nb.is_finite()) {
            return f32::NAN;
        }
        let c = (dot / (na * nb)).clamp(-1.0, 1.0);
        if c == 0.0 {
            0.0
        } else {
            c
        }
    }

    #[test]
    fn cosine_from_parts_is_cosine_bit_for_bit() {
        let unit = |seed| crate::seeded_unit_vector(seed);
        let mut vectors: Vec<Vec<f32>> = (1..12).map(unit).collect();
        vectors.push(vec![0.0; crate::DIM]);
        vectors.push(vec![-0.0; crate::DIM]);
        vectors.push(vec![f32::MAX; crate::DIM]);
        vectors.push(vec![1e-30; crate::DIM]);
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut v = unit(99);
            v[3] = bad;
            vectors.push(v);
        }
        vectors.push(unit(5).iter().map(|x| -x).collect());
        for a in &vectors {
            for b in &vectors {
                let expected = cosine_inline(a, b).to_bits();
                assert_eq!(cosine(a, b).to_bits(), expected, "{a:?} . {b:?}");
                let parts = cosine_from_parts(dot(a, b), norm(a), norm(b));
                assert_eq!(parts.to_bits(), expected, "{a:?} . {b:?}");
            }
        }
    }

    #[test]
    fn l2_and_dot() {
        assert!((l2(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-6);
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(l2(&[1.0, 1.0], &[1.0, 1.0]), 0.0);
    }
}
