//! Arithmetic in GF(2^255 − 19), the Ed25519 base field.
//!
//! Representation: five unsigned 64-bit limbs of 51 bits each
//! (the classic "donna-c64" radix-2^51 layout). Limbs are allowed to grow a
//! few bits beyond 51 between reductions; every arithmetic operation returns
//! a value with limbs < 2^52, which is safe as input to every other
//! operation.

/// An element of GF(2^255 − 19).
#[derive(Clone, Copy, Debug)]
pub struct Fe(pub [u64; 5]);

const MASK: u64 = (1 << 51) - 1;

/// 2*p in radix-2^51, used to make subtraction non-negative.
const TWO_P: [u64; 5] = [
    0xfffffffffffda, // 2^52 - 38
    0xffffffffffffe, // 2^52 - 2
    0xffffffffffffe,
    0xffffffffffffe,
    0xffffffffffffe,
];

impl Fe {
    /// The additive identity.
    pub const ZERO: Fe = Fe([0, 0, 0, 0, 0]);
    /// The multiplicative identity.
    pub const ONE: Fe = Fe([1, 0, 0, 0, 0]);

    /// d = −121665/121666 mod p (the Edwards curve constant):
    /// 37095705934669439343138083508754565189542113879843219016388785533085940283555.
    pub const D: Fe = Fe([
        0x34dca135978a3,
        0x1a8283b156ebd,
        0x5e7a26001c029,
        0x739c663a03cbb,
        0x52036cee2b6ff,
    ]);

    /// 2d mod p.
    pub const D2: Fe = Fe([
        0x69b9426b2f159,
        0x35050762add7a,
        0x3cf44c0038052,
        0x6738cc7407977,
        0x2406d9dc56dff,
    ]);

    /// sqrt(−1) mod p:
    /// 19681161376707505956807079304988542015446066515923890162744021073123829784752.
    pub const SQRT_M1: Fe = Fe([
        0x61b274a0ea0b0,
        0x0d5a5fc8f189d,
        0x7ef5e9cbd0c60,
        0x78595a6804c9e,
        0x2b8324804fc1d,
    ]);

    /// Load a little-endian 32-byte value (top bit ignored, per RFC 8032).
    pub fn from_bytes(b: &[u8; 32]) -> Fe {
        let load = |off: usize| -> u64 { u64::from_le_bytes(b[off..off + 8].try_into().unwrap()) };
        // 51-bit slices of the 255-bit little-endian integer.
        let l0 = load(0) & MASK;
        let l1 = (load(6) >> 3) & MASK;
        let l2 = (load(12) >> 6) & MASK;
        let l3 = (load(19) >> 1) & MASK;
        let l4 = (load(24) >> 12) & MASK;
        Fe([l0, l1, l2, l3, l4])
    }

    /// Serialize to 32 little-endian bytes, fully reduced mod p.
    pub fn to_bytes(&self) -> [u8; 32] {
        let mut t = self.reduce_limbs();
        // Now limbs < 2^52. Fully reduce: carry then conditionally subtract p.
        // First a full carry chain to bring limbs < 2^51 (with the *19 wrap).
        t = Fe(carry(t.0));
        t = Fe(carry(t.0));
        // t < 2^255; subtract p if t >= p. Do it twice to be safe.
        for _ in 0..2 {
            t = sub_p_if_ge(t);
        }
        let l = t.0;
        let mut out = [0u8; 32];
        let mut acc: u128 = 0;
        let mut acc_bits = 0u32;
        let mut idx = 0usize;
        for (i, limb) in l.iter().enumerate() {
            let _ = i;
            acc |= (*limb as u128) << acc_bits;
            acc_bits += 51;
            while acc_bits >= 8 && idx < 32 {
                out[idx] = (acc & 0xff) as u8;
                acc >>= 8;
                acc_bits -= 8;
                idx += 1;
            }
        }
        while idx < 32 {
            out[idx] = (acc & 0xff) as u8;
            acc >>= 8;
            idx += 1;
        }
        out
    }

    fn reduce_limbs(&self) -> Fe {
        Fe(carry(self.0))
    }

    /// a + b.
    pub const fn add(&self, other: &Fe) -> Fe {
        let (a, b) = (&self.0, &other.0);
        Fe(carry([
            a[0] + b[0],
            a[1] + b[1],
            a[2] + b[2],
            a[3] + b[3],
            a[4] + b[4],
        ]))
    }

    /// a − b (inputs must have limbs < 2^52, which all public ops guarantee).
    pub const fn sub(&self, other: &Fe) -> Fe {
        // Scale 2p by 8 so the minuend dominates any limb < 2^55.
        let (a, b) = (&self.0, &other.0);
        Fe(carry([
            a[0] + 8 * TWO_P[0] - b[0],
            a[1] + 8 * TWO_P[1] - b[1],
            a[2] + 8 * TWO_P[2] - b[2],
            a[3] + 8 * TWO_P[3] - b[3],
            a[4] + 8 * TWO_P[4] - b[4],
        ]))
    }

    /// −a.
    pub const fn neg(&self) -> Fe {
        Fe::ZERO.sub(self)
    }

    /// a * b.
    pub const fn mul(&self, other: &Fe) -> Fe {
        let a = &self.0;
        let b = &other.0;
        // Products of limb pairs whose indices sum past 4 wrap with * 19.
        let b1_19 = b[1] * 19;
        let b2_19 = b[2] * 19;
        let b3_19 = b[3] * 19;
        let b4_19 = b[4] * 19;
        reduce_wide([
            m(a[0], b[0]) + m(a[1], b4_19) + m(a[2], b3_19) + m(a[3], b2_19) + m(a[4], b1_19),
            m(a[0], b[1]) + m(a[1], b[0]) + m(a[2], b4_19) + m(a[3], b3_19) + m(a[4], b2_19),
            m(a[0], b[2]) + m(a[1], b[1]) + m(a[2], b[0]) + m(a[3], b4_19) + m(a[4], b3_19),
            m(a[0], b[3]) + m(a[1], b[2]) + m(a[2], b[1]) + m(a[3], b[0]) + m(a[4], b4_19),
            m(a[0], b[4]) + m(a[1], b[3]) + m(a[2], b[2]) + m(a[3], b[1]) + m(a[4], b[0]),
        ])
    }

    /// a², with each cross product `a[i]·a[j]` (i ≠ j) formed once and
    /// doubled: 15 limb multiplications where `mul` takes 25.
    pub const fn square(&self) -> Fe {
        let a = &self.0;
        let a0_2 = a[0] * 2;
        let a1_2 = a[1] * 2;
        let a3_19 = a[3] * 19;
        let a4_19 = a[4] * 19;
        reduce_wide([
            m(a[0], a[0]) + m(a1_2, a4_19) + m(a[2] * 2, a3_19),
            m(a0_2, a[1]) + m(a[2] * 2, a4_19) + m(a[3], a3_19),
            m(a0_2, a[2]) + m(a[1], a[1]) + m(a[3] * 2, a4_19),
            m(a0_2, a[3]) + m(a1_2, a[2]) + m(a[4], a4_19),
            m(a0_2, a[4]) + m(a1_2, a[3]) + m(a[2], a[2]),
        ])
    }

    /// a^(2^n): `n` successive squarings.
    fn square_n(&self, n: u32) -> Fe {
        (0..n).fold(*self, |x, _| x.square())
    }

    /// (a^(2^250 − 1), a^11): the addition chain `invert` and `pow_p58`
    /// share (11 multiplications, 249 squarings).
    fn pow_2_250_m1(&self) -> (Fe, Fe) {
        let x2 = self.square();
        let x9 = x2.square_n(2).mul(self);
        let x11 = x9.mul(&x2);
        let e5 = x11.square().mul(&x9); // exponent 2^5 − 1
        let e10 = e5.square_n(5).mul(&e5); // 2^10 − 1, and so on
        let e20 = e10.square_n(10).mul(&e10);
        let e40 = e20.square_n(20).mul(&e20);
        let e50 = e40.square_n(10).mul(&e10);
        let e100 = e50.square_n(50).mul(&e50);
        let e200 = e100.square_n(100).mul(&e100);
        (e200.square_n(50).mul(&e50), x11)
    }

    /// Multiplicative inverse via Fermat: a^(p−2) = a^(2^255 − 21).
    pub fn invert(&self) -> Fe {
        let (e250, x11) = self.pow_2_250_m1();
        e250.square_n(5).mul(&x11)
    }

    /// a^((p−5)/8) = a^(2^252 − 3), used in square-root extraction.
    pub fn pow_p58(&self) -> Fe {
        let (e250, _) = self.pow_2_250_m1();
        e250.square_n(2).mul(self)
    }

    /// a^e where `e` is a 256-bit little-endian exponent, by binary
    /// square-and-multiply: the oracle for the addition chains.
    #[cfg(test)]
    pub fn pow_le(&self, e: &[u8; 32]) -> Fe {
        let mut result = Fe::ONE;
        // MSB-to-LSB binary exponentiation.
        for byte_idx in (0..32).rev() {
            for bit in (0..8).rev() {
                result = result.square();
                if (e[byte_idx] >> bit) & 1 == 1 {
                    result = result.mul(self);
                }
            }
        }
        result
    }

    /// True if the element is zero mod p.
    pub fn is_zero(&self) -> bool {
        self.to_bytes() == [0u8; 32]
    }

    /// True if the canonical encoding is odd (bit 0 set) — the "sign" of x
    /// in RFC 8032 point compression.
    pub fn is_negative(&self) -> bool {
        self.to_bytes()[0] & 1 == 1
    }

    /// Equality mod p.
    pub fn ct_eq(&self, other: &Fe) -> bool {
        self.to_bytes() == other.to_bytes()
    }
}

/// 64×64 → 128-bit limb product.
const fn m(x: u64, y: u64) -> u128 {
    (x as u128) * (y as u128)
}

/// Carry five 128-bit column sums of a product down to limbs < 2^52.
const fn reduce_wide(t: [u128; 5]) -> Fe {
    let mut r = [0u64; 5];
    let mut c = t[0] >> 51;
    r[0] = (t[0] as u64) & MASK;
    let mut i = 1;
    while i < 5 {
        let ti = t[i] + c;
        c = ti >> 51;
        r[i] = (ti as u64) & MASK;
        i += 1;
    }
    r[0] += (c as u64) * 19;
    r[1] += r[0] >> 51;
    r[0] &= MASK;
    Fe(r)
}

/// One carry pass: brings all limbs below 2^52 given limbs below ~2^63.
const fn carry(mut l: [u64; 5]) -> [u64; 5] {
    let mut c: u64;
    c = l[0] >> 51;
    l[0] &= MASK;
    l[1] += c;
    c = l[1] >> 51;
    l[1] &= MASK;
    l[2] += c;
    c = l[2] >> 51;
    l[2] &= MASK;
    l[3] += c;
    c = l[3] >> 51;
    l[3] &= MASK;
    l[4] += c;
    c = l[4] >> 51;
    l[4] &= MASK;
    l[0] += c * 19;
    // One more partial carry in case limb 0 overflowed 51 bits.
    c = l[0] >> 51;
    l[0] &= MASK;
    l[1] += c;
    l
}

/// Subtract p once if the fully-carried value is >= p.
fn sub_p_if_ge(t: Fe) -> Fe {
    // p in radix-2^51.
    const P: [u64; 5] = [
        0x7ffffffffffed,
        0x7ffffffffffff,
        0x7ffffffffffff,
        0x7ffffffffffff,
        0x7ffffffffffff,
    ];
    let l = t.0;
    // Compare from most significant limb.
    let ge = {
        let mut ge = true;
        for i in (0..5).rev() {
            if l[i] > P[i] {
                break;
            }
            if l[i] < P[i] {
                ge = false;
                break;
            }
        }
        ge
    };
    if !ge {
        return t;
    }
    let mut r = [0u64; 5];
    let mut borrow: i128 = 0;
    for i in 0..5 {
        let v = l[i] as i128 - P[i] as i128 + borrow;
        if v < 0 {
            r[i] = (v + (1 << 51)) as u64;
            borrow = -1;
        } else {
            r[i] = v as u64;
            borrow = 0;
        }
    }
    debug_assert_eq!(borrow, 0);
    Fe(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fe(n: u64) -> Fe {
        let mut b = [0u8; 32];
        b[..8].copy_from_slice(&n.to_le_bytes());
        Fe::from_bytes(&b)
    }

    #[test]
    fn roundtrip_small() {
        for n in [0u64, 1, 2, 19, 12345, u64::MAX] {
            let mut b = [0u8; 32];
            b[..8].copy_from_slice(&n.to_le_bytes());
            assert_eq!(Fe::from_bytes(&b).to_bytes(), b);
        }
    }

    #[test]
    fn p_reduces_to_zero() {
        // p = 2^255 - 19.
        let mut b = [0xffu8; 32];
        b[0] = 0xed;
        b[31] = 0x7f;
        assert!(Fe::from_bytes(&b).is_zero());
    }

    #[test]
    fn p_plus_one_reduces_to_one() {
        let mut b = [0xffu8; 32];
        b[0] = 0xee;
        b[31] = 0x7f;
        assert_eq!(Fe::from_bytes(&b).to_bytes(), Fe::ONE.to_bytes());
    }

    #[test]
    fn add_sub_inverse() {
        let a = fe(987654321);
        let b = fe(123456789);
        assert_eq!(a.add(&b).sub(&b).to_bytes(), a.to_bytes());
    }

    #[test]
    fn small_multiplication() {
        assert_eq!(fe(6).mul(&fe(7)).to_bytes(), fe(42).to_bytes());
        assert_eq!(
            fe(1 << 30).mul(&fe(1 << 30)).to_bytes(),
            fe(1 << 60).to_bytes()
        );
    }

    #[test]
    fn negation() {
        let a = fe(5);
        assert!(a.add(&a.neg()).is_zero());
        assert!(Fe::ZERO.neg().is_zero());
    }

    #[test]
    fn inversion() {
        for n in [1u64, 2, 3, 19, 123456789] {
            let a = fe(n);
            assert_eq!(a.mul(&a.invert()).to_bytes(), Fe::ONE.to_bytes(), "n={n}");
        }
    }

    #[test]
    fn sqrt_m1_squares_to_minus_one() {
        let i = Fe::SQRT_M1;
        let minus_one = Fe::ZERO.sub(&Fe::ONE);
        assert_eq!(i.square().to_bytes(), minus_one.to_bytes());
    }

    #[test]
    fn d_constant_satisfies_definition() {
        // d * 121666 == -121665 mod p
        let d = Fe::D;
        let lhs = d.mul(&fe(121666));
        let rhs = fe(121665).neg();
        assert_eq!(lhs.to_bytes(), rhs.to_bytes());
    }

    #[test]
    fn const_limbs_match_their_byte_encodings() {
        let d = [
            0xa3, 0x78, 0x59, 0x13, 0xca, 0x4d, 0xeb, 0x75, 0xab, 0xd8, 0x41, 0x41, 0x4d, 0x0a,
            0x70, 0x00, 0x98, 0xe8, 0x79, 0x77, 0x79, 0x40, 0xc7, 0x8c, 0x73, 0xfe, 0x6f, 0x2b,
            0xee, 0x6c, 0x03, 0x52,
        ];
        let sqrt_m1 = [
            0xb0, 0xa0, 0x0e, 0x4a, 0x27, 0x1b, 0xee, 0xc4, 0x78, 0xe4, 0x2f, 0xad, 0x06, 0x18,
            0x43, 0x2f, 0xa7, 0xd7, 0xfb, 0x3d, 0x99, 0x00, 0x4d, 0x2b, 0x0b, 0xdf, 0xc1, 0x4f,
            0x80, 0x24, 0x83, 0x2b,
        ];
        assert_eq!(Fe::D.0, Fe::from_bytes(&d).0);
        assert_eq!(Fe::D2.to_bytes(), Fe::D.add(&Fe::D).to_bytes());
        assert_eq!(Fe::SQRT_M1.0, Fe::from_bytes(&sqrt_m1).0);
    }

    /// Deterministic pseudo-random field elements (xorshift), salted with
    /// the loosest limbs any operation may be handed (all 2^52 − 1).
    fn samples() -> Vec<Fe> {
        let mut s = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut v = vec![Fe::ZERO, Fe::ONE, Fe::ONE.neg(), Fe([(1 << 52) - 1; 5])];
        for _ in 0..60 {
            let mut b = [0u8; 32];
            b.iter_mut().for_each(|x| *x = next() as u8);
            v.push(Fe::from_bytes(&b));
        }
        v
    }

    #[test]
    fn square_matches_mul() {
        for a in samples() {
            assert_eq!(a.square().to_bytes(), a.mul(&a).to_bytes(), "{a:?}");
        }
    }

    #[test]
    fn addition_chains_match_binary_exponentiation() {
        // p − 2 = 2^255 − 21 and (p − 5)/8 = 2^252 − 3, little-endian.
        let mut p_m2 = [0xffu8; 32];
        p_m2[0] = 0xeb;
        p_m2[31] = 0x7f;
        let mut p58 = [0xffu8; 32];
        p58[0] = 0xfd;
        p58[31] = 0x0f;
        for a in samples() {
            assert_eq!(a.invert().to_bytes(), a.pow_le(&p_m2).to_bytes(), "{a:?}");
            assert_eq!(a.pow_p58().to_bytes(), a.pow_le(&p58).to_bytes(), "{a:?}");
        }
    }

    #[test]
    fn pow_le_matches_repeated_mul() {
        let a = fe(3);
        let mut e = [0u8; 32];
        e[0] = 13; // a^13
        let expect = {
            let mut acc = Fe::ONE;
            for _ in 0..13 {
                acc = acc.mul(&a);
            }
            acc
        };
        assert_eq!(a.pow_le(&e).to_bytes(), expect.to_bytes());
    }

    #[test]
    fn distributive_law_random() {
        // Deterministic pseudo-random field elements via xorshift.
        let mut s = 0x123456789abcdefu64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for _ in 0..50 {
            let a = fe(next());
            let b = fe(next());
            let c = fe(next());
            let lhs = a.mul(&b.add(&c));
            let rhs = a.mul(&b).add(&a.mul(&c));
            assert_eq!(lhs.to_bytes(), rhs.to_bytes());
        }
    }

    #[test]
    fn is_negative_parity() {
        assert!(!fe(2).is_negative());
        assert!(fe(3).is_negative());
    }
}
