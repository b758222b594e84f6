//! Exact fixed-point number writing for the O(rows) report tables.
//!
//! [`push_fixed`] appends the bytes `{:>width$.prec$}` would write, and
//! [`push_uint`] those of `{:<width$}` / `{:>width$}` for an integer, without
//! going through `core::fmt`. A per-query table prints three floats per
//! row, and core::fmt's exact-mode float path costs ~185 ns each: on a
//! 200-query interactive session that was most of a toggle step.
//!
//! The rounding is `{:.prec}`'s: the exact binary value of `x`, scaled by
//! `10^prec`, rounded half to even (`0.25 → "0.2"`, `0.45 → "0.5"`, since
//! `0.45` is slightly above its decimal), and a set sign bit prints `-` even
//! when the digits are all zero (`-0.0` and `-0.04` print `"-0.0"`). It is
//! done in integers: `|x| = m·2^e`, so `|x|·10^prec` is `m·10^prec` shifted
//! by `e`, with the shifted-out bits deciding the round. Non-finite values
//! and scaled values beyond `u64` go to `write!`, so the output is the same
//! bytes everywhere; the `tests` module pins that against `format!`.

use std::fmt::Write as _;

/// Which side of a padded field the value sits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Align {
    /// `{:<width$}`: value first, then spaces.
    Left,
    /// `{:>width$}`: spaces first, then the value.
    Right,
}

/// `10^p` for every precision the integer path takes (`10^19` is the
/// largest power of ten in a `u64`).
const POW10: [u64; 20] = {
    let mut table = [1u64; 20];
    let mut p = 1;
    while p < table.len() {
        table[p] = table[p - 1] * 10;
        p += 1;
    }
    table
};

/// Sign, twenty integer digits, the point and nineteen places.
const BUF: usize = 41;

/// Append `x` with `prec` places, right-aligned in `width` columns: the
/// bytes of `write!(out, "{x:>width$.prec$}")`.
pub(crate) fn push_fixed(out: &mut String, x: f64, prec: usize, width: usize) {
    let Some(mut n) = scaled(x, prec) else {
        let _ = write!(out, "{x:>width$.prec$}");
        return;
    };
    let mut buf = [0u8; BUF];
    let mut at = BUF;
    if prec > 0 {
        let mut frac = n % POW10[prec];
        n /= POW10[prec];
        for _ in 0..prec {
            at -= 1;
            buf[at] = b'0' + (frac % 10) as u8;
            frac /= 10;
        }
        at -= 1;
        buf[at] = b'.';
    }
    at = put_digits(&mut buf, at, n);
    if x.is_sign_negative() {
        at -= 1;
        buf[at] = b'-';
    }
    push_padded(out, &buf[at..], width, Align::Right);
}

/// Append the integer `n` padded to `width` columns.
pub(crate) fn push_uint(out: &mut String, n: u64, width: usize, align: Align) {
    let mut buf = [0u8; BUF];
    let at = put_digits(&mut buf, BUF, n);
    push_padded(out, &buf[at..], width, align);
}

/// `|x|·10^prec`, rounded half to even from the exact binary value of `x`;
/// `None` when `x` is not finite, `prec` is past 19, or the result does
/// not fit a `u64`.
fn scaled(x: f64, prec: usize) -> Option<u64> {
    if !x.is_finite() {
        return None;
    }
    let scale = *POW10.get(prec)?;
    let bits = x.to_bits();
    let exp_bits = ((bits >> 52) & 0x7ff) as i32;
    let frac = bits & ((1u64 << 52) - 1);
    // |x| = m · 2^e exactly (subnormals have no implicit bit).
    let (m, e) = if exp_bits == 0 {
        (frac, -1074)
    } else {
        (frac | (1u64 << 52), exp_bits - 1075)
    };
    // m < 2^53 and scale < 2^64, so t < 2^117.
    let t = m as u128 * scale as u128;
    if e >= 0 {
        let t = u64::try_from(t).ok()?;
        return if e < 64 {
            t.checked_mul(1u64 << e)
        } else {
            None
        };
    }
    let s = e.unsigned_abs();
    if s > 117 {
        // t < 2^117 ≤ half of 2^s: strictly below one half, rounds to 0.
        return Some(0);
    }
    let q = t >> s;
    let rest = t & ((1u128 << s) - 1);
    let half = 1u128 << (s - 1);
    let q = if rest > half || (rest == half && q & 1 == 1) {
        q + 1
    } else {
        q
    };
    u64::try_from(q).ok()
}

/// `"00" "01" … "99"`: two digits per division, which halves the chain
/// of dependent divisions a number's digits take.
const PAIRS: [u8; 200] = {
    let mut table = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        table[2 * i] = b'0' + (i / 10) as u8;
        table[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    table
};

/// Write `n`'s decimal digits into `buf` ending before `at`; returns the
/// index of the first digit.
fn put_digits(buf: &mut [u8; BUF], mut at: usize, mut n: u64) -> usize {
    while n >= 100 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        at -= 2;
        buf[at] = PAIRS[pair];
        buf[at + 1] = PAIRS[pair + 1];
    }
    if n >= 10 {
        let pair = n as usize * 2;
        at -= 2;
        buf[at] = PAIRS[pair];
        buf[at + 1] = PAIRS[pair + 1];
    } else {
        at -= 1;
        buf[at] = b'0' + n as u8;
    }
    at
}

/// Append ASCII `digits` padded with spaces to `width` columns.
fn push_padded(out: &mut String, digits: &[u8], width: usize, align: Align) {
    let digits = std::str::from_utf8(digits).expect("decimal digits are ASCII");
    let pad = width.saturating_sub(digits.len());
    if align == Align::Right {
        push_spaces(out, pad);
    }
    out.push_str(digits);
    if align == Align::Left {
        push_spaces(out, pad);
    }
}

fn push_spaces(out: &mut String, mut n: usize) {
    const SPACES: &str = "                                ";
    while n > 0 {
        let k = n.min(SPACES.len());
        out.push_str(&SPACES[..k]);
        n -= k;
    }
}

#[cfg(test)]
mod tests {
    //! `format!` is the oracle: every case compares the writer's bytes
    //! with std's for every precision and width the reports use.
    //! `PROPTEST_CASES` scales the sampled properties.

    use super::*;
    use proptest::prelude::*;

    const PRECS: [usize; 3] = [1, 2, 4];
    const WIDTHS: [usize; 6] = [0, 5, 6, 11, 12, 40];

    fn fixed(x: f64, prec: usize, width: usize) -> String {
        let mut s = String::new();
        push_fixed(&mut s, x, prec, width);
        s
    }

    /// The writer against `format!` at every report precision and width.
    fn check(x: f64) {
        for prec in PRECS {
            for width in WIDTHS {
                assert_eq!(
                    fixed(x, prec, width),
                    format!("{x:>width$.prec$}"),
                    "x = {x:e} ({:#018x}), prec {prec}, width {width}",
                    x.to_bits()
                );
            }
        }
    }

    #[test]
    fn documented_cases() {
        assert_eq!(fixed(0.25, 1, 0), "0.2");
        assert_eq!(fixed(1.25, 1, 0), "1.2");
        assert_eq!(fixed(0.45, 1, 0), "0.5");
        assert_eq!(fixed(-0.0, 1, 0), "-0.0");
        assert_eq!(fixed(-0.04, 1, 0), "-0.0");
        assert_eq!(fixed(42.0, 1, 12), "        42.0");
        for x in [0.25, 1.25, 0.45, -0.0, -0.04, 0.0, 1e300, 123.456] {
            check(x);
        }
    }

    #[test]
    fn zeros_non_finite_and_extremes() {
        for x in [
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::EPSILON,
        ] {
            check(x);
        }
    }

    #[test]
    fn subnormals_round_to_signed_zero() {
        for bits in [1u64, 2, 3, 0x000f_ffff_ffff_ffff, 0x0008_0000_0000_0000] {
            check(f64::from_bits(bits));
            check(-f64::from_bits(bits));
        }
    }

    #[test]
    fn either_side_of_the_u64_boundary() {
        // `|x|·10^prec` crosses 2^64 here for each precision: the last
        // values on the integer path and the first on the fallback.
        for prec in PRECS {
            let edge = 2f64.powi(64) / POW10[prec] as f64;
            let mut x = edge;
            for _ in 0..64 {
                x = f64::from_bits(x.to_bits() - 1);
            }
            for _ in 0..128 {
                check(x);
                check(-x);
                x = f64::from_bits(x.to_bits() + 1);
            }
        }
        for k in 60..70 {
            check(2f64.powi(k));
            check(2f64.powi(k) - 2f64.powi(k - 53));
        }
    }

    #[test]
    fn integers_pad_both_ways() {
        for n in [0u64, 7, 42, 999, 1000, 123_456, u64::MAX] {
            for width in [0usize, 3, 5, 7, 25] {
                let mut left = String::new();
                push_uint(&mut left, n, width, Align::Left);
                assert_eq!(left, format!("{n:<width$}"));
                let mut right = String::new();
                push_uint(&mut right, n, width, Align::Right);
                assert_eq!(right, format!("{n:>width$}"));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn oracle_random_bit_patterns(bits in 0u64..u64::MAX) {
            check(f64::from_bits(bits));
        }

        #[test]
        fn oracle_exact_ties(k in 0u64..1_000_000_000_000, neg in 0u8..2) {
            let sign = if neg == 1 { -1.0 } else { 1.0 };
            for prec in PRECS {
                // The ties binary can hold exactly: (k + ½)·10^-p is a
                // double only when it is an odd multiple of 2^-(p+1). Both
                // neighbours too, which must round away from the tie.
                let tie = sign * (2 * k + 1) as f64 / 2f64.powi(prec as i32 + 1);
                check(tie);
                check(f64::from_bits(tie.to_bits() + 1));
                check(f64::from_bits(tie.to_bits() - 1));
                // The double nearest a decimal tie that binary cannot hold.
                check(sign * (2 * k + 1) as f64 / (2 * POW10[prec]) as f64);
            }
        }

        #[test]
        fn oracle_report_magnitudes(x in -1e9f64..1e9, shift in 0i32..40) {
            // Costs and percentages: the values the tables really print,
            // at every scale down to the places that round to zero.
            check(x);
            check(x / 10f64.powi(shift));
        }
    }
}
