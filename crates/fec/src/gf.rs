//! GF(2^m) finite-field arithmetic via log/antilog tables.
//!
//! One table pair per field instance; elements are `u16` (fields up to
//! m = 12 cover every code in this workspace: GF(256) for classic RS,
//! GF(1024) for KP4/KR4, GF(2^m) for BCH locator fields).

use mosaic_units::{MosaicError, Result};

/// A binary extension field GF(2^m), 2 ≤ m ≤ 12.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaloisField {
    m: u32,
    /// exp[i] = α^i, doubled in length so products need no modulo.
    exp: Vec<u16>,
    /// log[x] = i with α^i = x; log[0] is unused.
    log: Vec<u16>,
}

/// Default primitive polynomials (x^m + … + 1), low bits only.
fn default_poly(m: u32) -> Option<u32> {
    Some(match m {
        2 => 0b111,
        3 => 0b1011,
        4 => 0b1_0011,
        5 => 0b10_0101,
        6 => 0b100_0011,
        7 => 0b1000_1001,
        8 => 0b1_0001_1101, // 0x11D, the CCSDS/Ethernet GF(256) polynomial
        9 => 0b10_0001_0001,
        10 => 0b100_0000_1001, // 0x409 = x^10 + x^3 + 1, the KP4 field
        11 => 0b1000_0000_0101,
        12 => 0b1_0000_0101_0011,
        _ => return None,
    })
}

impl GaloisField {
    /// GF(2^m) with the standard primitive polynomial; errors unless
    /// 2 ≤ m ≤ 12.
    pub fn try_new(m: u32) -> Result<Self> {
        let poly = default_poly(m).ok_or_else(|| {
            MosaicError::invalid_code(format!("unsupported field order m={m} (need 2..=12)"))
        })?;
        Self::try_with_poly(m, poly)
    }

    /// GF(2^m) with an explicit primitive polynomial (including the x^m
    /// term); errors unless 2 ≤ m ≤ 12 and `poly` is primitive for GF(2^m).
    pub fn try_with_poly(m: u32, poly: u32) -> Result<Self> {
        if !(2..=12).contains(&m) {
            return Err(MosaicError::invalid_code(format!(
                "supported field orders are m=2..=12, got m={m}"
            )));
        }
        let not_primitive = || {
            MosaicError::invalid_code(format!("polynomial {poly:#x} is not primitive for m={m}"))
        };
        let size = 1usize << m;
        let mut exp = vec![0u16; 2 * (size - 1)];
        let mut log = vec![0u16; size];
        let mut x: u32 = 1;
        for (i, e) in exp.iter_mut().take(size - 1).enumerate() {
            *e = x as u16;
            // A `poly` without its x^m term (or with higher terms) lets x
            // leave the field: that is a non-primitive polynomial, not a
            // panic.
            *log.get_mut(x as usize).ok_or_else(not_primitive)? = i as u16;
            x <<= 1;
            if x & (1 << m) != 0 {
                x ^= poly;
            }
        }
        if x != 1 {
            return Err(not_primitive());
        }
        for i in 0..(size - 1) {
            // bound: i < size − 1, so size − 1 + i < 2(size − 1) = exp.len().
            exp[size - 1 + i] = exp[i];
        }
        Ok(GaloisField { m, exp, log })
    }

    /// Field order exponent m.
    pub fn m(&self) -> u32 {
        self.m
    }

    /// Number of elements, 2^m.
    pub fn size(&self) -> usize {
        1 << self.m
    }

    /// Multiplicative-group order, 2^m − 1.
    pub fn order(&self) -> usize {
        self.size() - 1
    }

    /// α^i (i may exceed the group order; it is reduced).
    #[inline]
    pub fn alpha_pow(&self, i: usize) -> u16 {
        // bound: i mod order < order < exp.len() = 2·order.
        self.exp[i % self.order()]
    }

    /// Addition (= subtraction) in characteristic 2.
    #[inline]
    pub fn add(&self, a: u16, b: u16) -> u16 {
        a ^ b
    }

    /// Multiplication.
    #[inline]
    pub fn mul(&self, a: u16, b: u16) -> u16 {
        if a == 0 || b == 0 {
            0
        } else {
            // a, b are field elements (< 2^m = log.len()), and each log is
            // at most 2^m − 2, so the sum stays below exp.len() = 2^(m+1) − 2.
            // bound: a, b < log.len(); log[a] + log[b] < exp.len()
            self.exp[self.log[a as usize] as usize + self.log[b as usize] as usize]
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics on zero.
    #[inline]
    pub fn inv(&self, a: u16) -> u16 {
        assert!(a != 0, "inverse of zero");
        self.exp[self.order() - self.log[a as usize] as usize]
    }

    /// Division `a / b`.
    #[inline]
    pub fn div(&self, a: u16, b: u16) -> u16 {
        assert!(b != 0, "division by zero");
        if a == 0 {
            0
        } else {
            let d = self.order() + self.log[a as usize] as usize - self.log[b as usize] as usize;
            self.exp[d % self.order()]
        }
    }

    /// Evaluate a polynomial (coefficients `poly[i]` for x^i) at `x`
    /// by Horner's rule.
    #[inline]
    pub fn poly_eval(&self, poly: &[u16], x: u16) -> u16 {
        let mut acc = 0u16;
        for &c in poly.iter().rev() {
            acc = self.add(self.mul(acc, x), c);
        }
        acc
    }

    /// Multiply two polynomials (coefficient vectors, `[i]` = x^i term).
    pub fn poly_mul(&self, a: &[u16], b: &[u16]) -> Vec<u16> {
        if a.is_empty() || b.is_empty() {
            return vec![];
        }
        let mut out = vec![0u16; a.len() + b.len() - 1];
        for (i, &ai) in a.iter().enumerate() {
            if ai == 0 {
                continue;
            }
            for (j, &bj) in b.iter().enumerate() {
                // bound: i + j ≤ a.len() + b.len() − 2 < out.len().
                out[i + j] = self.add(out[i + j], self.mul(ai, bj));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn gf256_known_products() {
        // With poly 0x11D: α = 2, α^7 = 0x80, and α^8 reduces to 0x1D.
        let f = GaloisField::try_new(8).unwrap();
        assert_eq!(f.alpha_pow(7), 0x80);
        assert_eq!(f.mul(0x80, 2), 0x1D);
        assert_eq!(f.alpha_pow(8), 0x1D);
    }

    #[test]
    fn alpha_generates_the_group() {
        for m in [4u32, 8, 10] {
            let f = GaloisField::try_new(m).unwrap();
            let mut seen = vec![false; f.size()];
            for i in 0..f.order() {
                let v = f.alpha_pow(i) as usize;
                assert!(!seen[v], "α^{i} repeats in GF(2^{m})");
                seen[v] = true;
            }
        }
    }

    #[test]
    fn poly_eval_horner() {
        let f = GaloisField::try_new(8).unwrap();
        // p(x) = 3 + 2x + x², p(1) = 3^2^1 = 0 (xor), p(0) = 3.
        let p = [3u16, 2, 1];
        assert_eq!(f.poly_eval(&p, 0), 3);
        assert_eq!(f.poly_eval(&p, 1), 3 ^ 2 ^ 1);
    }

    #[test]
    fn non_primitive_poly_rejected() {
        // x^4 + 1 is not primitive.
        assert!(GaloisField::try_with_poly(4, 0b1_0001).is_err());
    }

    #[test]
    fn poly_without_its_leading_term_is_an_error_not_a_panic() {
        // x + 1 for m = 4 never clears bit 4, so the power walk leaves the
        // field; x^6 + x^4 + x + 1 sets a bit above it.
        for poly in [0b11, 0b101_0011] {
            assert!(GaloisField::try_with_poly(4, poly).is_err(), "{poly:#x}");
        }
    }

    fn any_field() -> impl Strategy<Value = GaloisField> {
        prop_oneof![Just(4u32), Just(8), Just(10)].prop_map(|m| GaloisField::try_new(m).unwrap())
    }

    proptest! {
        #[test]
        fn field_axioms(f in any_field(), a in 0u16..1024, b in 0u16..1024, c in 0u16..1024) {
            let mask = (f.size() - 1) as u16;
            let (a, b, c) = (a & mask, b & mask, c & mask);
            // Commutativity and associativity of multiplication.
            prop_assert_eq!(f.mul(a, b), f.mul(b, a));
            prop_assert_eq!(f.mul(f.mul(a, b), c), f.mul(a, f.mul(b, c)));
            // Distributivity over xor-addition.
            prop_assert_eq!(f.mul(a, f.add(b, c)), f.add(f.mul(a, b), f.mul(a, c)));
            // Identities.
            prop_assert_eq!(f.mul(a, 1), a);
            prop_assert_eq!(f.add(a, 0), a);
        }

        #[test]
        fn inverses(f in any_field(), a in 1u16..1024) {
            let a = (a % (f.order() as u16)) + 1;
            prop_assert_eq!(f.mul(a, f.inv(a)), 1);
            prop_assert_eq!(f.div(a, a), 1);
        }

        #[test]
        fn poly_mul_then_eval(f in any_field(), x in 0u16..255) {
            let x = x & ((f.size() - 1) as u16);
            let a = [1u16, 2, 3];
            let b = [5u16, 7];
            let prod = f.poly_mul(&a, &b);
            prop_assert_eq!(
                f.poly_eval(&prod, x),
                f.mul(f.poly_eval(&a, x), f.poly_eval(&b, x))
            );
        }
    }
}
