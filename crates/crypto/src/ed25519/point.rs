//! Edwards curve group operations for Ed25519.
//!
//! Points are kept in extended homogeneous coordinates (X : Y : Z : T) with
//! x = X/Z, y = Y/Z, x*y = T/Z, on the twisted Edwards curve
//! −x² + y² = 1 + d·x²·y² over GF(2^255 − 19). Formulas follow RFC 8032
//! §5.1.4; they are complete, so every routine here is correct on the
//! whole curve group, small-order points included.
//!
//! ## Scalar multiplication
//!
//! Two static tables of multiples of the base point `B`, both built by
//! `const fn` at compile time (no hand-entered table data) and held as
//! [`Cached`] addends of 160 bytes:
//!
//! - `BASE_COMB[i][j] = (j+1)·256^i·B`, 32 × 8 entries (40 KiB):
//!   [`mul_base`] (keygen, sign) writes the scalar in 64 signed radix-16
//!   digits and adds one entry per digit, the odd-position digits first
//!   and four doublings between the two halves.
//! - `BASE_ODD[i] = (2i+1)·B`, 64 entries (10 KiB): the width-8
//!   signed sliding window of [`mul_base_sub`] (verify), which computes
//!   `[s]B − [k]A` on one shared doubling ladder with a width-5 window
//!   over eight odd multiples of `A` built per call.

use super::field::Fe;
use super::scalar::Scalar;

/// A point on the Ed25519 curve in extended coordinates.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// A point prepared as the second operand of an addition:
/// (Y+X, Y−X, Z, 2d·T), saving the sums and the 2d product per use.
#[derive(Clone, Copy)]
pub struct Cached {
    ypx: Fe,
    ymx: Fe,
    z: Fe,
    t2d: Fe,
}

impl Cached {
    const IDENTITY: Cached = Cached {
        ypx: Fe::ONE,
        ymx: Fe::ONE,
        z: Fe::ONE,
        t2d: Fe::ZERO,
    };

    /// −P: (x, y) ↦ (−x, y) swaps Y+X with Y−X and negates T.
    const fn neg(&self) -> Cached {
        Cached {
            ypx: self.ymx,
            ymx: self.ypx,
            z: self.z,
            t2d: self.t2d.neg(),
        }
    }
}

/// A point without its `T`: all that a doubling reads.
#[derive(Clone, Copy)]
struct Projective {
    x: Fe,
    y: Fe,
    z: Fe,
}

/// A doubling before it is multiplied out: X = E·F, Y = G·H, Z = F·G and,
/// for a caller that will add to the result, T = E·H.
struct Doubled {
    e: Fe,
    f: Fe,
    g: Fe,
    h: Fe,
}

impl Projective {
    const IDENTITY: Projective = Point::IDENTITY.projective();

    /// Point doubling (RFC 8032 §5.1.4 dbl formulas).
    const fn double(&self) -> Doubled {
        let a = self.x.square();
        let b = self.y.square();
        let zz = self.z.square();
        let c = zz.add(&zz);
        let h = a.add(&b);
        let e = h.sub(&self.x.add(&self.y).square());
        let g = a.sub(&b);
        let f = c.add(&g);
        Doubled { e, f, g, h }
    }
}

impl Doubled {
    /// The doubled point for another doubling: three products.
    const fn projective(&self) -> Projective {
        Projective {
            x: self.e.mul(&self.f),
            y: self.g.mul(&self.h),
            z: self.f.mul(&self.g),
        }
    }

    /// The doubled point for an addition: the fourth product, T.
    const fn extended(&self) -> Point {
        let Projective { x, y, z } = self.projective();
        Point {
            x,
            y,
            z,
            t: self.e.mul(&self.h),
        }
    }
}

impl Point {
    /// The neutral element (0, 1).
    pub const IDENTITY: Point = Point {
        x: Fe::ZERO,
        y: Fe::ONE,
        z: Fe::ONE,
        t: Fe::ZERO,
    };

    /// The standard base point B (y = 4/5, x positive-even per RFC 8032).
    pub const BASE: Point = Point {
        x: Fe([
            0x62d608f25d51a,
            0x412a4b4f6592a,
            0x75b7171a4b31d,
            0x1ff60527118fe,
            0x216936d3cd6e5,
        ]),
        y: Fe([
            0x6666666666658,
            0x4cccccccccccc,
            0x1999999999999,
            0x3333333333333,
            0x6666666666666,
        ]),
        z: Fe::ONE,
        t: Fe([
            0x68ab3a5b7dda3,
            0x00eea2a5eadbb,
            0x2af8df483c27e,
            0x332b375274732,
            0x67875f0fd78b7,
        ]),
    };

    const fn cached(&self) -> Cached {
        Cached {
            ypx: self.y.add(&self.x),
            ymx: self.y.sub(&self.x),
            z: self.z,
            t2d: self.t.mul(&Fe::D2),
        }
    }

    /// Point addition (RFC 8032 §5.1.4, add formulas for a = −1) with the
    /// second operand prepared.
    const fn add_cached(&self, other: &Cached) -> Point {
        let a = self.y.sub(&self.x).mul(&other.ymx);
        let b = self.y.add(&self.x).mul(&other.ypx);
        let c = self.t.mul(&other.t2d);
        let zz = self.z.mul(&other.z);
        let d = zz.add(&zz);
        let e = b.sub(&a);
        let f = d.sub(&c);
        let g = d.add(&c);
        let h = b.add(&a);
        Point {
            x: e.mul(&f),
            y: g.mul(&h),
            t: e.mul(&h),
            z: f.mul(&g),
        }
    }

    /// Point addition.
    pub const fn add(&self, other: &Point) -> Point {
        self.add_cached(&other.cached())
    }

    const fn projective(&self) -> Projective {
        Projective {
            x: self.x,
            y: self.y,
            z: self.z,
        }
    }

    /// Point doubling.
    pub const fn double(&self) -> Point {
        self.projective().double().extended()
    }

    /// `self + d·P`, where `odd[i] = (2i+1)·P` and `d` is zero or odd.
    fn add_odd_multiple(&self, odd: &[Cached], d: i8) -> Point {
        let entry = &odd[usize::from(d.unsigned_abs() / 2)];
        match d {
            0 => *self,
            1.. => self.add_cached(entry),
            _ => self.add_cached(&entry.neg()),
        }
    }

    /// Scalar multiplication `k * self` by binary double-and-add: the
    /// oracle the windowed routines are tested against.
    #[cfg(test)]
    pub fn mul_scalar(&self, k: &Scalar) -> Point {
        let mut acc = Point::IDENTITY;
        for i in (0..256).rev() {
            acc = acc.double();
            if k.bit(i) == 1 {
                acc = acc.add(self);
            }
        }
        acc
    }

    /// Compress to the 32-byte RFC 8032 encoding: y with the sign of x in
    /// the top bit.
    pub fn compress(&self) -> [u8; 32] {
        let zinv = self.z.invert();
        let x = self.x.mul(&zinv);
        let y = self.y.mul(&zinv);
        let mut out = y.to_bytes();
        if x.is_negative() {
            out[31] |= 0x80;
        }
        out
    }

    /// Decompress an encoded point; `None` if the encoding is invalid
    /// (not on the curve, or x = 0 with sign bit set).
    pub fn decompress(enc: &[u8; 32]) -> Option<Point> {
        let sign = enc[31] >> 7;
        let mut y_bytes = *enc;
        y_bytes[31] &= 0x7f;
        let y = Fe::from_bytes(&y_bytes);
        // Reject non-canonical y (>= p): re-encode and compare.
        if y.to_bytes() != y_bytes {
            return None;
        }
        // x² = (y² − 1) / (d·y² + 1)
        let yy = y.square();
        let u = yy.sub(&Fe::ONE);
        let v = yy.mul(&Fe::D).add(&Fe::ONE);
        // Candidate root: x = u·v³ · (u·v⁷)^((p−5)/8)  (RFC 8032 §5.1.3).
        let v3 = v.square().mul(&v);
        let v7 = v3.square().mul(&v);
        let mut x = u.mul(&v3).mul(&u.mul(&v7).pow_p58());
        let vxx = v.mul(&x.square());
        if vxx.ct_eq(&u) {
            // x is correct.
        } else if vxx.ct_eq(&u.neg()) {
            x = x.mul(&Fe::SQRT_M1);
        } else {
            return None;
        }
        if x.is_zero() && sign == 1 {
            return None;
        }
        if x.is_negative() != (sign == 1) {
            x = x.neg();
        }
        Some(Point {
            x,
            y,
            z: Fe::ONE,
            t: x.mul(&y),
        })
    }

    /// Affine equality.
    pub fn eq_point(&self, other: &Point) -> bool {
        // x1/z1 == x2/z2  <=>  x1·z2 == x2·z1 (and same for y).
        let lhs_x = self.x.mul(&other.z);
        let rhs_x = other.x.mul(&self.z);
        let lhs_y = self.y.mul(&other.z);
        let rhs_y = other.y.mul(&self.z);
        lhs_x.ct_eq(&rhs_x) && lhs_y.ct_eq(&rhs_y)
    }

    /// True iff this is the identity element.
    pub fn is_identity(&self) -> bool {
        self.eq_point(&Point::IDENTITY)
    }
}

/// `[P, 3P, 5P, …, (2N−1)P]`: the digits of a signed sliding window.
const fn odd_multiples<const N: usize>(p: &Point) -> [Cached; N] {
    let p2 = p.double().cached();
    let mut odd = [p.cached(); N];
    let mut acc = *p;
    let mut i = 1;
    while i < N {
        acc = acc.add_cached(&p2);
        odd[i] = acc.cached();
        i += 1;
    }
    odd
}

static BASE_ODD: [Cached; 64] = odd_multiples(&Point::BASE);

static BASE_COMB: [[Cached; 8]; 32] = {
    let mut comb = [[Cached::IDENTITY; 8]; 32];
    let mut p = Point::BASE; // 256^i · B
    let mut i = 0;
    while i < 32 {
        let step = p.cached();
        let mut acc = p;
        let mut j = 0;
        while j < 8 {
            comb[i][j] = acc.cached();
            acc = acc.add_cached(&step);
            j += 1;
        }
        let mut doublings = 0;
        while doublings < 8 {
            p = p.double();
            doublings += 1;
        }
        i += 1;
    }
    comb
};

/// Fixed-base scalar multiplication `k * B` over 64 signed radix-16
/// digits d: `Σ d[2i+1]·256^i·B`, times 16 (the only four doublings), plus
/// `Σ d[2i]·256^i·B`. One table addition per digit, the identity for a
/// zero digit, so every scalar takes the same schedule.
pub fn mul_base(k: &Scalar) -> Point {
    let digits = k.radix16();
    let add_digits = |mut acc: Point, parity: usize| {
        for (row, d) in BASE_COMB.iter().zip(digits.iter().skip(parity).step_by(2)) {
            let entry = match d.unsigned_abs() {
                0 => Cached::IDENTITY,
                m => row[usize::from(m - 1)],
            };
            acc = acc.add_cached(&if *d < 0 { entry.neg() } else { entry });
        }
        acc
    };
    let odd = add_digits(Point::IDENTITY, 1);
    add_digits(odd.double().double().double().double(), 0)
}

/// `[s]B − [k]A` (the verification equation's `R`) on one doubling ladder
/// shared by both scalars, each in signed sliding-window form. The ladder
/// starts at the highest non-zero digit of either, and a doubling that no
/// digit follows is left without its `T`.
pub fn mul_base_sub(s: &Scalar, k: &Scalar, point_a: &Point) -> Point {
    let s_naf = s.naf(8);
    let k_naf = k.naf(5);
    let a_odd: [Cached; 8] = odd_multiples(point_a);
    let add_digits = |doubled: Doubled, i: usize| {
        doubled
            .extended()
            .add_odd_multiple(&BASE_ODD, s_naf[i])
            .add_odd_multiple(&a_odd, -k_naf[i])
    };
    let top = (1..256)
        .rev()
        .find(|&i| s_naf[i] != 0 || k_naf[i] != 0)
        .unwrap_or(0);
    let mut acc = Projective::IDENTITY;
    for i in (1..=top).rev() {
        let doubled = acc.double();
        acc = if s_naf[i] == 0 && k_naf[i] == 0 {
            doubled.projective()
        } else {
            add_digits(doubled, i).projective()
        };
    }
    // The caller may add to the result, so the last doubling keeps its T.
    add_digits(acc.double(), 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sc(n: u64) -> Scalar {
        Scalar([n, 0, 0, 0])
    }

    #[test]
    fn base_point_on_curve_roundtrip() {
        let b = Point::BASE;
        let enc = b.compress();
        let b2 = Point::decompress(&enc).unwrap();
        assert!(b.eq_point(&b2));
    }

    #[test]
    fn identity_roundtrip() {
        let id = Point::IDENTITY;
        let enc = id.compress();
        // Identity encodes as y=1: bytes = 01 00 ... 00.
        assert_eq!(enc[0], 1);
        assert!(enc[1..].iter().all(|&b| b == 0));
        assert!(Point::decompress(&enc).unwrap().is_identity());
    }

    #[test]
    fn double_equals_add_self() {
        let b = Point::BASE;
        assert!(b.double().eq_point(&b.add(&b)));
        let p = b.mul_scalar(&sc(12345));
        assert!(p.double().eq_point(&p.add(&p)));
    }

    #[test]
    fn add_commutes() {
        let p = Point::BASE.mul_scalar(&sc(7));
        let q = Point::BASE.mul_scalar(&sc(11));
        assert!(p.add(&q).eq_point(&q.add(&p)));
    }

    #[test]
    fn add_identity_is_noop() {
        let p = Point::BASE.mul_scalar(&sc(99));
        assert!(p.add(&Point::IDENTITY).eq_point(&p));
    }

    #[test]
    fn scalar_mul_distributes() {
        // (a+b)*B == a*B + b*B
        let a = sc(1234);
        let b = sc(5678);
        let lhs = mul_base(&a.add(&b));
        let rhs = mul_base(&a).add(&mul_base(&b));
        assert!(lhs.eq_point(&rhs));
    }

    #[test]
    fn scalar_mul_small_cases() {
        let b = Point::BASE;
        assert!(b.mul_scalar(&sc(0)).is_identity());
        assert!(b.mul_scalar(&sc(1)).eq_point(&b));
        assert!(b.mul_scalar(&sc(2)).eq_point(&b.double()));
        assert!(b.mul_scalar(&sc(3)).eq_point(&b.double().add(&b)));
    }

    #[test]
    fn order_l_annihilates_base() {
        use super::super::scalar::L;
        // L*B == identity (B has order L).
        // L itself is not representable as a reduced Scalar, so compute
        // (L-1)*B + B.
        let l_minus_1 = Scalar({
            let mut limbs = L;
            limbs[0] -= 1;
            limbs
        });
        let almost = mul_base(&l_minus_1);
        assert!(almost.add(&Point::BASE).is_identity());
    }

    /// Scalars that reach every digit pattern: edges, then seeded.
    fn scalars() -> Vec<Scalar> {
        use super::super::scalar::L;
        let l_minus_1 = Scalar([L[0] - 1, L[1], L[2], L[3]]);
        let mut v = vec![
            Scalar::ZERO,
            sc(1),
            sc(8),
            sc(0x88),
            sc(u64::MAX),
            l_minus_1,
        ];
        v.extend(
            (1..=24u8)
                .map(|seed| Scalar::from_wide_bytes_mod_order(&[seed.wrapping_mul(73) | 1; 64])),
        );
        v
    }

    #[test]
    fn base_constant_is_the_rfc_encoding() {
        // y = 4/5 mod p with sign bit 0.
        let mut enc = [0x66u8; 32];
        enc[0] = 0x58;
        assert_eq!(Point::BASE.compress(), enc);
        let b = Point::decompress(&enc).unwrap();
        assert_eq!(b.x.to_bytes(), Point::BASE.x.to_bytes());
        assert_eq!(b.t.to_bytes(), Point::BASE.t.to_bytes());
    }

    #[test]
    fn static_tables_hold_the_multiples_they_name() {
        for (i, e) in BASE_ODD.iter().enumerate() {
            let expect = Point::BASE.mul_scalar(&sc(2 * i as u64 + 1));
            assert!(
                Point::IDENTITY.add_cached(e).eq_point(&expect),
                "BASE_ODD[{i}]"
            );
        }
        let mut p = Point::BASE;
        for (i, row) in BASE_COMB.iter().enumerate() {
            for (j, e) in row.iter().enumerate() {
                let expect = p.mul_scalar(&sc(j as u64 + 1));
                assert!(
                    Point::IDENTITY.add_cached(e).eq_point(&expect),
                    "BASE_COMB[{i}][{j}]"
                );
            }
            p = p.mul_scalar(&sc(256));
        }
    }

    #[test]
    fn mul_base_matches_binary_ladder() {
        for k in scalars() {
            assert!(mul_base(&k).eq_point(&Point::BASE.mul_scalar(&k)), "{k:?}");
        }
    }

    #[test]
    fn mul_base_sub_matches_binary_ladders() {
        let ks = scalars();
        for (i, s) in ks.iter().enumerate() {
            let k = &ks[(i * 7 + 3) % ks.len()];
            let point_a = mul_base(&ks[(i * 5 + 1) % ks.len()]);
            let fast = mul_base_sub(s, k, &point_a);
            let slow = Point::BASE.mul_scalar(s);
            // fast + [k]A == [s]B
            assert!(
                fast.add(&point_a.mul_scalar(k)).eq_point(&slow),
                "s={s:?} k={k:?}"
            );
        }
    }

    #[test]
    fn decompress_rejects_garbage() {
        // A y value whose x² has no square root.
        let mut enc = [0u8; 32];
        enc[0] = 2;
        // y=2: x² = (4-1)/(4d+1); whether this is square depends on the curve,
        // so instead scan for at least one invalid encoding among small y.
        let mut rejected = 0;
        for y in 0u8..=20 {
            enc[0] = y;
            if Point::decompress(&enc).is_none() {
                rejected += 1;
            }
        }
        assert!(rejected > 0, "some small-y encodings must be off-curve");
    }

    #[test]
    fn decompress_rejects_non_canonical_y() {
        // y = p (which is 0 mod p but non-canonical encoding).
        let mut enc = [0xffu8; 32];
        enc[0] = 0xed;
        enc[31] = 0x7f;
        assert!(Point::decompress(&enc).is_none());
    }
}
