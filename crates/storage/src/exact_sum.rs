/// The float sum of `SUM`/`AVG`: the `f64` nearest the exact sum of the
/// finite addends (ties to even, an exact zero `+0.0`; only that sum can
/// overflow), else NaN after a NaN or both infinities, else the infinity
/// added; partials merge in any order to the same bits. `head` is exact
/// while every addition is (integers below 2^53 always are); then boxed
/// `digits` take each rounding error (Knuth's TwoSum) and each addend that
/// would overflow: 32-bit digits of 2^-1074s, in `i64`s so carries wait.
#[derive(Clone, Default)]
pub(crate) struct ExactSum {
    head: f64,
    digits: Option<Box<[i64; 67]>>,
}

impl ExactSum {
    pub(crate) fn add(&mut self, x: f64) {
        let s = self.head + x;
        let b = s - self.head;
        let e = (self.head - (s - b)) + (x - b);
        if e != 0.0 && self.head.is_finite() && x.is_finite() {
            let digits = self.digits.get_or_insert_with(|| Box::new([0; 67]));
            // A non-finite `e` is an overflow of `head`.
            add_digits(digits, if e.is_finite() { e } else { x });
            self.head = if e.is_finite() { s } else { self.head };
        } else {
            self.head = s;
        }
    }

    pub(crate) fn absorb(&mut self, other: &ExactSum) {
        self.add(other.head);
        if let Some(theirs) = &other.digits {
            let digits = self.digits.get_or_insert_with(|| Box::new([0; 67]));
            carry(digits);
            (0..67).for_each(|k| digits[k] += theirs[k]);
            carry(digits);
        }
    }

    /// The sum, rounded once: the top 64 bits of the digits' magnitude, with
    /// every bit below folded into the last, converted and scaled.
    pub(crate) fn rounded(&self) -> f64 {
        let h = self.head;
        let Some(digits) = self.digits.as_deref().filter(|_| h.is_finite()) else {
            return if h.is_nan() { f64::NAN } else { h };
        };
        let mut d = *digits;
        add_digits(&mut d, h);
        carry(&mut d);
        let sign = if d[66] < 0 { -1 } else { 1 };
        d.iter_mut().for_each(|d| *d *= sign);
        carry(&mut d);
        let top = d.iter().rposition(|&d| d != 0).unwrap_or(0);
        let low = top.saturating_sub(2);
        let w = (low..=top).fold(0, |w, k| w | (d[k] as u128) << (32 * (k - low)));
        let cut = (128 - w.leading_zeros()).saturating_sub(64);
        let sticky = w & ((1 << cut) - 1) != 0 || d[..low].iter().any(|&d| d != 0);
        let r = ((w >> cut) as u64 | sticky as u64) as f64;
        let k = 32 * low as i32 + cut as i32 - 1074;
        let k1 = k.clamp(-1022, 1023);
        let pow2 = |k: i32| f64::from_bits(((k + 1023) as u64) << 52);
        // Exact up to the last step: `r · 2^k1` is normal or overflows.
        sign as f64 * r * pow2(k1) * pow2(k - k1)
    }
}

/// Adds a finite `x`, which is `±m · 2^(at - 1074)` (a subnormal has no
/// hidden bit), to three digits, and carries once one nears `i64`'s range.
fn add_digits(d: &mut [i64; 67], x: f64) {
    let exponent = (x.to_bits() >> 52 & 0x7ff) as usize;
    let m = (x.to_bits() & ((1 << 52) - 1) | ((exponent > 0) as u64) << 52) as i128;
    let (at, m) = (exponent.saturating_sub(1), if x < 0.0 { -m } else { m });
    let (v, i) = (m << (at % 32), (at / 32).min(64));
    d[i] += (v & 0xffff_ffff) as i64;
    d[i + 1] += (v >> 32 & 0xffff_ffff) as i64;
    d[i + 2] += (v >> 64) as i64;
    if d[i..i + 3].iter().any(|d| d.unsigned_abs() >> 62 != 0) {
        carry(d);
    }
}

/// Carries every digit but the top one into `0..2^32`.
fn carry(d: &mut [i64; 67]) {
    for k in 0..66 {
        let c = d[k] >> 32;
        d[k] -= c << 32;
        d[k + 1] += c;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sum(xs: &[f64]) -> f64 {
        let mut s = ExactSum::default();
        xs.iter().for_each(|&x| s.add(x));
        s.rounded()
    }

    #[test]
    fn the_contract_cases() {
        assert_eq!(sum(&[1e16, 1.0, -1e16]), 1.0);
        assert_eq!(sum(&[0.1; 10]), 1.0);
        assert_eq!(sum(&[f64::MAX, f64::MAX, -f64::MAX]), f64::MAX);
        assert_eq!(sum(&[f64::MAX, f64::MAX]), f64::INFINITY);
        assert_eq!(sum(&[-f64::MAX, -f64::MAX]), f64::NEG_INFINITY);
        assert_eq!(sum(&[-0.0, -0.0]).to_bits(), 0.0f64.to_bits());
        assert_eq!(sum(&[0.1, -0.1, 0.3, -0.3]).to_bits(), 0.0f64.to_bits());
        assert_eq!(sum(&[1.0, f64::INFINITY, -1e308]), f64::INFINITY);
        assert_eq!(sum(&[f64::NEG_INFINITY, 2.0]), f64::NEG_INFINITY);
        assert!(sum(&[f64::INFINITY, 1.0, f64::NEG_INFINITY]).is_nan());
        assert!(sum(&[1.0, f64::NAN, 2.0]).is_nan());
        assert_eq!(sum(&[]), 0.0);
        // Ties go to even: 2^53 + 1 halfway between 2^53 and 2^53 + 2.
        let two53 = 9007199254740992.0;
        assert_eq!(sum(&[two53, 1.0]), two53);
        assert_eq!(sum(&[two53, 1.0, 1e-300]), two53 + 2.0);
        assert_eq!(sum(&[two53 + 2.0, 1.0]), two53 + 4.0);
        // Subnormals add exactly; a result below the normal range is exact.
        let tiny = f64::from_bits(1);
        assert_eq!(sum(&[tiny, tiny, tiny]), f64::from_bits(3));
        assert_eq!(sum(&[f64::MIN_POSITIVE, -tiny]), f64::MIN_POSITIVE - tiny);
        assert_eq!(sum(&[1.0, tiny, -1.0]), tiny);
    }

    #[test]
    fn a_digit_near_the_i64_range_carries() {
        // 1.0 adds 2^18 to digit 33, whose unit is 2^-18.
        let mut digits = Box::new([0; 67]);
        digits[33] = (1 << 62) - (1 << 17);
        add_digits(&mut digits, 1.0);
        assert!(digits[33] < 1 << 32, "carried");
        let s = ExactSum {
            head: 0.5,
            digits: Some(digits),
        };
        assert_eq!(s.rounded(), 17592186044417.0);
    }

    /// A value on a 2^-30 grid below 2^60, so that sums are exact in
    /// `i128` and `as f64` rounds them once.
    fn gridded() -> impl Strategy<Value = f64> {
        (any::<i64>(), 0u32..60).prop_map(|(m, shift)| (m >> shift) as f64 / (1u64 << 30) as f64)
    }

    proptest! {
        #[test]
        fn the_sum_is_the_exact_sum_rounded_once(xs in prop::collection::vec(gridded(), 0..40)) {
            let exact: i128 = xs.iter().map(|x| (x * (1u64 << 30) as f64) as i128).sum();
            let want = exact as f64 / (1u64 << 30) as f64;
            prop_assert_eq!(sum(&xs).to_bits(), (want + 0.0).to_bits());
        }

        #[test]
        fn partials_merge_in_any_order_to_the_same_bits(
            xs in prop::collection::vec(prop_oneof![any::<f64>(), gridded()], 0..40),
            cut in 0usize..40,
        ) {
            let cut = cut.min(xs.len());
            let (mut a, mut b) = (ExactSum::default(), ExactSum::default());
            xs[..cut].iter().for_each(|&x| a.add(x));
            xs[cut..].iter().rev().for_each(|&x| b.add(x));
            b.absorb(&a);
            prop_assert_eq!(b.rounded().to_bits(), sum(&xs).to_bits());
        }
    }
}
