//! Arithmetic modulo the Ed25519 group order
//! L = 2^252 + 27742317777372353535851937790883648493.
//!
//! Scalars are 256-bit little-endian values held as four u64 limbs. A
//! 512-bit intermediate is reduced by folding at 2^252: with
//! c = L − 2^252 < 2^125, 2^252 ≡ −c (mod L), so three folds bring 512 bits
//! down to a handful of 252-bit terms. The bit-serial long division this
//! replaced is kept under `cfg(test)` as the oracle.

/// The group order L as little-endian u64 limbs.
pub const L: [u64; 4] = [
    0x5812631a5cf5d3ed,
    0x14def9dea2f79cd6,
    0x0000000000000000,
    0x1000000000000000,
];

/// A scalar in [0, L).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Scalar(pub [u64; 4]);

impl Scalar {
    /// The zero scalar.
    pub const ZERO: Scalar = Scalar([0, 0, 0, 0]);

    /// Load a 32-byte little-endian value and reduce mod L.
    pub fn from_bytes_mod_order(b: &[u8; 32]) -> Scalar {
        let mut wide = [0u8; 64];
        wide[..32].copy_from_slice(b);
        Scalar::from_wide_bytes_mod_order(&wide)
    }

    /// Load a 64-byte little-endian value and reduce mod L (the RFC 8032
    /// "SHA-512 output mod L" operation).
    pub fn from_wide_bytes_mod_order(b: &[u8; 64]) -> Scalar {
        let mut limbs = [0u64; 8];
        for i in 0..8 {
            limbs[i] = u64::from_le_bytes(b[i * 8..i * 8 + 8].try_into().unwrap());
        }
        Scalar(reduce_wide(limbs))
    }

    /// Strict deserialization: accepts only canonical scalars < L.
    pub fn from_canonical_bytes(b: &[u8; 32]) -> Option<Scalar> {
        let mut limbs = [0u64; 4];
        for i in 0..4 {
            limbs[i] = u64::from_le_bytes(b[i * 8..i * 8 + 8].try_into().unwrap());
        }
        if !lt(&limbs, &L) {
            return None;
        }
        Some(Scalar(limbs))
    }

    /// Serialize as 32 little-endian bytes.
    pub fn to_bytes(&self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[i * 8..i * 8 + 8].copy_from_slice(&self.0[i].to_le_bytes());
        }
        out
    }

    /// (self * b + c) mod L — the core of Ed25519 signing (s = r + k*a).
    pub fn mul_add(&self, b: &Scalar, c: &Scalar) -> Scalar {
        let mut prod = mul_wide(&self.0, &b.0);
        // Add c into the 512-bit product.
        let mut carry = 0u128;
        for (p, &cv) in prod.iter_mut().zip(c.0.iter()) {
            let v = *p as u128 + cv as u128 + carry;
            *p = v as u64;
            carry = v >> 64;
        }
        let mut i = 4;
        while carry > 0 && i < 8 {
            let v = prod[i] as u128 + carry;
            prod[i] = v as u64;
            carry = v >> 64;
            i += 1;
        }
        Scalar(reduce_wide(prod))
    }

    /// (self + b) mod L.
    pub fn add(&self, b: &Scalar) -> Scalar {
        self.mul_add(&Scalar([1, 0, 0, 0]), b)
    }

    /// Bit `i`, little-endian (bit 0 first).
    #[cfg(test)]
    pub fn bit(&self, i: usize) -> u8 {
        ((self.0[i / 64] >> (i % 64)) & 1) as u8
    }

    /// Signed radix-16 digits, least significant first: the scalar is
    /// `Σ d[i]·16^i` with every `d[i]` in \[−8, 8\].
    pub fn radix16(&self) -> [i8; 64] {
        debug_assert!(self.0[3] >> 61 == 0, "scalar not reduced");
        let mut d = [0i8; 64];
        for (i, digit) in d.iter_mut().enumerate() {
            *digit = ((self.0[i / 16] >> (4 * (i % 16))) & 15) as i8;
        }
        // Recenter [0, 16) to [−8, 8), carrying upward; a reduced scalar's
        // top nibble is at most 1, so the last digit stays small.
        for i in 0..63 {
            let carry = (d[i] + 8) >> 4;
            d[i] -= carry << 4;
            d[i + 1] += carry;
        }
        d
    }

    /// Width-`w` non-adjacent form (2 ≤ w ≤ 8), least significant first:
    /// the scalar is `Σ naf[i]·2^i`, every nonzero digit is odd with
    /// `|naf[i]| < 2^(w−1)`, and any `w` consecutive digits hold at most one
    /// nonzero — a signed sliding window over 2^(w−2) odd multiples.
    pub fn naf(&self, w: u32) -> [i8; 256] {
        debug_assert!((2..=8).contains(&w) && self.0[3] >> 61 == 0);
        let width = 1u64 << w;
        let limb = |i: usize| self.0.get(i).copied().unwrap_or(0);
        let mut naf = [0i8; 256];
        let (mut pos, mut carry) = (0usize, 0u64);
        while pos < 256 {
            // The w bits at `pos`, which may straddle two limbs.
            let (idx, bit) = (pos / 64, pos % 64);
            let bits = (limb(idx) >> bit) | (limb(idx + 1) << 1 << (63 - bit));
            let window = carry + (bits & (width - 1));
            if window & 1 == 0 {
                pos += 1;
                continue;
            }
            // Odd window: take it as a digit in (−2^(w−1), 2^(w−1)),
            // borrowing 2^w from the bits above when it is in the top half.
            carry = (window >= width / 2) as u64;
            naf[pos] = (window as i64 - (carry << w) as i64) as i8;
            pos += w as usize;
        }
        naf
    }
}

/// a < b over 256-bit little-endian limb arrays.
fn lt(a: &[u64; 4], b: &[u64; 4]) -> bool {
    for i in (0..4).rev() {
        if a[i] < b[i] {
            return true;
        }
        if a[i] > b[i] {
            return false;
        }
    }
    false
}

/// Schoolbook 256×256 → 512-bit multiply.
fn mul_wide(a: &[u64; 4], b: &[u64; 4]) -> [u64; 8] {
    let mut r = [0u64; 8];
    for i in 0..4 {
        let mut carry = 0u128;
        for j in 0..4 {
            let v = r[i + j] as u128 + (a[i] as u128) * (b[j] as u128) + carry;
            r[i + j] = v as u64;
            carry = v >> 64;
        }
        r[i + 4] = carry as u64;
    }
    r
}

/// `r − L`, or `None` when `r < L`.
fn sub_l(r: &[u64; 4]) -> Option<[u64; 4]> {
    let mut out = [0u64; 4];
    let mut borrow = false;
    for i in 0..4 {
        let (v, b1) = r[i].overflowing_sub(L[i]);
        let (v, b2) = v.overflowing_sub(borrow as u64);
        out[i] = v;
        borrow = b1 | b2;
    }
    (!borrow).then_some(out)
}

/// Split `x = lo + 2^252·hi` and return `(lo, hi·c)` for c = L − 2^252, so
/// that `x ≡ lo − hi·c (mod L)`; `hi < 2^260` and `c < 2^125`, so `hi·c`
/// takes seven limbs at most.
fn fold(x: &[u64; 8]) -> ([u64; 4], [u64; 8]) {
    let lo = [x[0], x[1], x[2], x[3] & (u64::MAX >> 4)];
    let mut hi_c = [0u64; 8];
    for i in 0..5 {
        let hi = x[i + 3] >> 60 | x.get(i + 4).map_or(0, |next| next << 4);
        let mut carry = 0u128;
        for (j, &c) in L[..2].iter().enumerate() {
            let v = hi_c[i + j] as u128 + hi as u128 * c as u128 + carry;
            hi_c[i + j] = v as u64;
            carry = v >> 64;
        }
        hi_c[i + 2] = carry as u64;
    }
    (lo, hi_c)
}

/// Reduce a 512-bit little-endian value mod L: `x ≡ lo₀ − lo₁ + lo₂ − y₃`
/// over three folds (512 → 385 → 258 → 131 bits), every term below 2^252.
fn reduce_wide(limbs: [u64; 8]) -> [u64; 4] {
    let (lo0, y1) = fold(&limbs);
    let (lo1, y2) = fold(&y1);
    let (lo2, y3) = fold(&y2);
    debug_assert!(
        y3[2] >> 3 == 0 && y3[3..] == [0; 5],
        "third fold is below 2^131"
    );
    // lo₀ + lo₂ + (L − lo₁) + (L − y₃): both differences are positive and
    // the sum stays below 2^253 + 2L < 2^256.
    let mut r = [0u64; 4];
    let mut carry = 0i128;
    for i in 0..4 {
        let v = carry + lo0[i] as i128 + lo2[i] as i128 + 2 * L[i] as i128
            - lo1[i] as i128
            - y3[i] as i128;
        r[i] = v as u64;
        carry = v >> 64;
    }
    debug_assert_eq!(carry, 0);
    while let Some(less) = sub_l(&r) {
        r = less;
    }
    r
}

/// [`reduce_wide`] by binary long division, one bit a step: the loop the
/// fold replaced, kept as its oracle.
#[cfg(test)]
fn reduce_wide_bit_serial(limbs: [u64; 8]) -> [u64; 4] {
    // r accumulates the remainder as we scan bits from most significant
    // to least significant: r = r*2 + bit; if r >= L then r -= L.
    let mut r = [0u64; 4];
    for bit_idx in (0..512).rev() {
        // r <<= 1 (r < L < 2^253 so no overflow).
        let mut carry = 0u64;
        for limb in r.iter_mut() {
            let new_carry = *limb >> 63;
            *limb = (*limb << 1) | carry;
            carry = new_carry;
        }
        // r |= bit
        let bit = (limbs[bit_idx / 64] >> (bit_idx % 64)) & 1;
        r[0] |= bit;
        // if r >= L: r -= L
        if !lt(&r, &L) {
            let mut borrow = 0u64;
            for i in 0..4 {
                let (v1, b1) = r[i].overflowing_sub(L[i]);
                let (v2, b2) = v1.overflowing_sub(borrow);
                r[i] = v2;
                borrow = (b1 | b2) as u64;
            }
            debug_assert_eq!(borrow, 0);
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sc(n: u64) -> Scalar {
        Scalar([n, 0, 0, 0])
    }

    #[test]
    fn l_reduces_to_zero() {
        let mut wide = [0u64; 8];
        wide[..4].copy_from_slice(&L);
        assert_eq!(reduce_wide(wide), [0, 0, 0, 0]);
    }

    #[test]
    fn l_plus_small_reduces() {
        let mut wide = [0u64; 8];
        wide[..4].copy_from_slice(&L);
        wide[0] = wide[0].wrapping_add(42);
        assert_eq!(reduce_wide(wide), [42, 0, 0, 0]);
    }

    #[test]
    fn small_values_unchanged() {
        let s = Scalar::from_bytes_mod_order(&{
            let mut b = [0u8; 32];
            b[0] = 0x2a;
            b
        });
        assert_eq!(s, sc(42));
    }

    #[test]
    fn mul_add_small() {
        // 6 * 7 + 8 = 50
        assert_eq!(sc(6).mul_add(&sc(7), &sc(8)), sc(50));
    }

    #[test]
    fn mul_add_wraps_mod_l() {
        // (L-1) + 2 == 1 mod L
        let l_minus_1 = {
            let mut limbs = L;
            limbs[0] -= 1;
            Scalar(limbs)
        };
        assert_eq!(l_minus_1.add(&sc(2)), sc(1));
    }

    #[test]
    fn canonical_roundtrip() {
        let s = sc(123456789);
        assert_eq!(Scalar::from_canonical_bytes(&s.to_bytes()), Some(s));
    }

    #[test]
    fn canonical_rejects_l() {
        let l_bytes = Scalar(L).to_bytes();
        assert!(Scalar::from_canonical_bytes(&l_bytes).is_none());
    }

    #[test]
    fn wide_reduction_of_all_ones() {
        // Just a determinism / bounds check: result must be < L.
        let r = reduce_wide([u64::MAX; 8]);
        assert!(lt(&r, &L));
    }

    /// The fold against the bit-serial loop: the edges around L and around
    /// the fold point 2^252, then 10,240 seeded values of every width.
    #[test]
    fn reduce_wide_matches_the_bit_serial_loop() {
        let wide = |lo: [u64; 4]| [lo[0], lo[1], lo[2], lo[3], 0, 0, 0, 0];
        let mut cases = vec![
            [0; 8],
            wide([L[0] - 1, L[1], L[2], L[3]]),
            wide(L),
            wide([L[0] + 1, L[1], L[2], L[3]]),
            wide([0, 0, 0, 1 << 60]),
            wide([u64::MAX, u64::MAX, u64::MAX, u64::MAX >> 3]),
            [u64::MAX; 8],
        ];
        let mut state = 0x5ca1_a4ed_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for case in 0..10_240 {
            // Zero the limbs above a seeded width, and half the time fill
            // the ones below it, so short, dense and ragged values all occur.
            let (width, dense) = (case % 9, case % 2 == 0);
            let mut x = [0u64; 8];
            for limb in x.iter_mut().take(width) {
                *limb = if dense && next() & 3 == 0 {
                    u64::MAX
                } else {
                    next()
                };
            }
            cases.push(x);
        }
        for x in cases {
            let r = reduce_wide(x);
            assert_eq!(r, reduce_wide_bit_serial(x), "{x:016x?}");
            assert!(lt(&r, &L), "{x:016x?}");
        }
    }

    /// Seeded reduced scalars plus the edges: 0, 1, L − 1, dense nibbles.
    fn samples() -> Vec<Scalar> {
        let mut v = vec![
            Scalar::ZERO,
            sc(1),
            sc(u64::MAX),
            Scalar([L[0] - 1, L[1], L[2], L[3]]),
        ];
        for seed in 0..64u8 {
            let mut wide = [0u8; 64];
            for (i, b) in wide.iter_mut().enumerate() {
                *b = seed
                    .wrapping_mul(151)
                    .wrapping_add((i as u8).wrapping_mul(seed | 1))
                    ^ 0x88;
            }
            v.push(Scalar::from_wide_bytes_mod_order(&wide));
        }
        v
    }

    /// Σ digits[i]·2^(shift·i) mod L, by Horner from the top digit.
    fn recompose(digits: &[i8], shift: u32) -> Scalar {
        let neg = |m: u64| sc(m).mul_add(&Scalar([L[0] - 1, L[1], L[2], L[3]]), &Scalar::ZERO);
        digits.iter().rev().fold(Scalar::ZERO, |acc, &d| {
            let d_mod_l = if d < 0 {
                neg(d.unsigned_abs() as u64)
            } else {
                sc(d as u64)
            };
            acc.mul_add(&sc(1 << shift), &d_mod_l)
        })
    }

    #[test]
    fn radix16_digits_are_small_and_recompose() {
        for s in samples() {
            let d = s.radix16();
            assert!(d.iter().all(|x| (-8..=8).contains(x)), "{s:?}");
            assert_eq!(recompose(&d, 4), s);
        }
    }

    #[test]
    fn naf_digits_are_odd_sparse_and_recompose() {
        for s in samples() {
            for w in [2u32, 5, 8] {
                let naf = s.naf(w);
                assert_eq!(recompose(&naf, 1), s, "w={w} {s:?}");
                let bound = 1i16 << (w - 1);
                assert!(naf
                    .iter()
                    .all(|&d| d == 0 || (d & 1 == 1 && (d as i16).abs() < bound)));
                let nonzero: Vec<usize> = (0..256).filter(|&i| naf[i] != 0).collect();
                assert!(
                    nonzero.windows(2).all(|p| p[1] - p[0] >= w as usize),
                    "w={w} {s:?}"
                );
            }
        }
    }

    #[test]
    fn mul_commutes() {
        let a = Scalar::from_bytes_mod_order(&[0x37; 32]);
        let b = Scalar::from_bytes_mod_order(&[0x59; 32]);
        assert_eq!(a.mul_add(&b, &Scalar::ZERO), b.mul_add(&a, &Scalar::ZERO));
    }

    #[test]
    fn distributes_over_add() {
        let a = Scalar::from_bytes_mod_order(&[0x11; 32]);
        let b = Scalar::from_bytes_mod_order(&[0x22; 32]);
        let c = Scalar::from_bytes_mod_order(&[0x33; 32]);
        // a*(b+c) == a*b + a*c
        let lhs = a.mul_add(&b.add(&c), &Scalar::ZERO);
        let rhs = a.mul_add(&b, &a.mul_add(&c, &Scalar::ZERO));
        assert_eq!(lhs, rhs);
    }
}
