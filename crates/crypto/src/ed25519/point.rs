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
//! - `BASE_COMB[i][j] = (j+1)·256^i·B`, 32 × 8 entries (40 KiB): the
//!   fixed-base comb of [`Ladder::mul_base`] (keygen, sign) writes the
//!   scalar in 64 signed radix-16 digits and adds one entry per digit, the
//!   odd-position digits first and four doublings between the two halves.
//!   [`Ladder::prepare`] builds a key's table by the same `const fn`.
//! - `BASE_ODD[i] = (2i+1)·B`, 64 entries (10 KiB): the width-8
//!   signed sliding window of [`Ladder::mul_base_sub`] (verify), which
//!   computes `[s]B − [k]A` on one shared doubling ladder with a width-5
//!   window over eight odd multiples of `A` built per call.
//!
//! Both, and the exponentiation of point decompression
//! ([`Ladder::decompress_pair`], the `A` and `R` of a verification), run
//! on one of two [`Ladder`]s, the same schedule on each: this module's
//! radix-2^51 code, or, on a CPU that reports AVX-512 IFMA, the vector
//! code of `ifma`, which works on all four coordinates of a point, or on
//! two exponentiations, at once.

use super::field::Fe;
use super::scalar::Scalar;

#[cfg(target_arch = "x86_64")]
mod ifma;

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
        let d = Decoding::new(enc)?;
        d.finish(&d.uv7.pow_p58())
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

/// A decompression up to its one exponentiation, `(u·v⁷)^((p−5)/8)`,
/// which a [`Ladder`] may take for two encodings at once.
#[derive(Clone, Copy)]
struct Decoding {
    sign: u8,
    y: Fe,
    u: Fe,
    v: Fe,
    uv3: Fe,
    uv7: Fe,
}

impl Decoding {
    /// `None` for a non-canonical y (≥ p).
    fn new(enc: &[u8; 32]) -> Option<Decoding> {
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
        let v3 = v.square().mul(&v);
        let v7 = v3.square().mul(&v);
        Some(Decoding {
            sign,
            y,
            u,
            v,
            uv3: u.mul(&v3),
            uv7: u.mul(&v7),
        })
    }

    /// The point, given `p58 = (u·v⁷)^((p−5)/8)`: the candidate root is
    /// x = u·v³·p58 (RFC 8032 §5.1.3).
    fn finish(&self, p58: &Fe) -> Option<Point> {
        let mut x = self.uv3.mul(p58);
        let vxx = self.v.mul(&x.square());
        if vxx.ct_eq(&self.u) {
            // x is correct.
        } else if vxx.ct_eq(&self.u.neg()) {
            x = x.mul(&Fe::SQRT_M1);
        } else {
            return None;
        }
        if x.is_zero() && self.sign == 1 {
            return None;
        }
        if x.is_negative() != (self.sign == 1) {
            x = x.neg();
        }
        Some(Point {
            x,
            y: self.y,
            z: Fe::ONE,
            t: x.mul(&self.y),
        })
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

/// `P`'s comb: `table[i][j] = (j+1)·256^i·P`, 32 rows of 8 entries.
const fn comb_table(p: &Point) -> [[Cached; 8]; 32] {
    let mut comb = [[Cached::IDENTITY; 8]; 32];
    let mut p = *p; // 256^i · P
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
}

static BASE_COMB: [[Cached; 8]; 32] = comb_table(&Point::BASE);

/// Fixed-base scalar multiplication `k * P` over `P`'s [`comb_table`] and
/// 64 signed radix-16 digits d: `Σ d[2i+1]·256^i·P`, times 16 (the only
/// four doublings), plus `Σ d[2i]·256^i·P`. One table addition per digit,
/// the identity for a zero digit, so every scalar takes the same schedule.
fn comb_scalar(table: &[[Cached; 8]; 32], k: &Scalar) -> Point {
    let digits = k.radix16();
    let add_digits = |mut acc: Point, parity: usize| {
        for (row, d) in table.iter().zip(digits.iter().skip(parity).step_by(2)) {
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

/// An implementation of the comb, the verification ladder and point
/// decompression. A method panics on a ladder this CPU does not run
/// ([`Ladder::is_supported`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ladder {
    /// Radix-2^51 field arithmetic on one point at a time: every CPU.
    Scalar,
    /// A point's four coordinates in the lanes of one vector, on AVX-512
    /// IFMA (x86_64 with `avx512ifma` and `avx512vl`).
    Ifma,
}

impl Ladder {
    /// The fastest ladder on this CPU: [`Ladder::Ifma`] when it reports
    /// both `avx512ifma` and `avx512vl`.
    pub fn detect() -> Ladder {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx512ifma") && is_x86_feature_detected!("avx512vl") {
            return Ladder::Ifma;
        }
        Ladder::Scalar
    }

    /// Whether this CPU runs this ladder.
    pub fn is_supported(self) -> bool {
        self == Ladder::Scalar || Ladder::detect() == Ladder::Ifma
    }

    /// `entry(args)`, an entry point of `ifma`, on [`Ladder::Ifma`].
    #[cfg(target_arch = "x86_64")]
    fn ifma<A, T>(self, entry: unsafe fn(A) -> T, args: A) -> T {
        assert!(self.is_supported(), "this CPU lacks avx512ifma or avx512vl");
        #[allow(unsafe_code)]
        // SAFETY: the CPU reports `avx512ifma` and `avx512vl`, and every
        // `entry` is an `ifma` function compiled for those features only.
        unsafe {
            entry(args)
        }
    }

    /// `[k]B` on this ladder; the same point on every ladder. Every
    /// scalar takes the same schedule of additions.
    pub fn mul_base(self, k: &Scalar) -> Point {
        match self {
            Ladder::Scalar => comb_scalar(&BASE_COMB, k),
            #[cfg(target_arch = "x86_64")]
            Ladder::Ifma => self.ifma(ifma::comb, (&ifma::BASE_COMB_LANES, k)),
            #[cfg(not(target_arch = "x86_64"))]
            Ladder::Ifma => panic!("this CPU lacks avx512ifma or avx512vl"),
        }
    }

    /// `[s]B − [k]A` (the verification equation's `R`) on this ladder;
    /// the same point on every ladder.
    pub fn mul_base_sub(self, s: &Scalar, k: &Scalar, point_a: &Point) -> Point {
        match self {
            Ladder::Scalar => mul_base_sub_scalar(s, k, point_a),
            #[cfg(target_arch = "x86_64")]
            Ladder::Ifma => self.ifma(ifma::mul_base_sub, (s, k, point_a)),
            #[cfg(not(target_arch = "x86_64"))]
            Ladder::Ifma => panic!("this CPU lacks avx512ifma or avx512vl"),
        }
    }

    /// `point`'s comb table for this ladder, built as `B`'s is.
    pub fn prepare(self, point: &Point) -> Prepared {
        let table = comb_table(point);
        match self {
            Ladder::Scalar => Prepared::Scalar(Box::new(table)),
            #[cfg(target_arch = "x86_64")]
            Ladder::Ifma => Prepared::Ifma(Box::new(ifma::lane_order(table.as_flattened()))),
            #[cfg(not(target_arch = "x86_64"))]
            Ladder::Ifma => panic!("this CPU lacks avx512ifma or avx512vl"),
        }
    }

    /// [`Point::decompress`] of two encodings; the same answers on every
    /// ladder. On [`Ladder::Ifma`] their two exponentiations share one
    /// vector chain.
    pub fn decompress_pair(self, encs: [&[u8; 32]; 2]) -> [Option<Point>; 2] {
        let parts = encs.map(Decoding::new);
        // A refused encoding's lane exponentiates 1.
        let uv7 = parts.map(|d| d.map_or(Fe::ONE, |d| d.uv7));
        let p58 = match self {
            Ladder::Scalar => uv7.map(|w| w.pow_p58()),
            #[cfg(target_arch = "x86_64")]
            Ladder::Ifma => self.ifma(ifma::pow_p58_pair, uv7),
            #[cfg(not(target_arch = "x86_64"))]
            Ladder::Ifma => panic!("this CPU lacks avx512ifma or avx512vl"),
        };
        [0, 1].map(|i| parts[i]?.finish(&p58[i]))
    }
}

/// A point's comb table in the layout of the ladder that reads it.
pub enum Prepared {
    /// For [`Ladder::Scalar`].
    Scalar(Box<[[Cached; 8]; 32]>),
    /// For [`Ladder::Ifma`].
    #[cfg(target_arch = "x86_64")]
    Ifma(Box<[ifma::Limbs; 256]>),
}

impl Prepared {
    /// [`Ladder::mul_base_sub`]'s point for the prepared `A`, as two
    /// combs: `[s]B` over `B`'s table and `[k]A` over `A`'s.
    pub fn mul_base_sub(&self, s: &Scalar, k: &Scalar) -> Point {
        let (ladder, ka) = match self {
            Prepared::Scalar(table) => (Ladder::Scalar, comb_scalar(table, k)),
            #[cfg(target_arch = "x86_64")]
            Prepared::Ifma(table) => (Ladder::Ifma, Ladder::Ifma.ifma(ifma::comb, (table, k))),
        };
        ladder.mul_base(s).add_cached(&ka.cached().neg())
    }
}

/// `[s]B − [k]A` on one doubling ladder shared by both scalars, each in
/// signed sliding-window form. The ladder starts at the highest non-zero
/// digit of either, and a doubling that no digit follows is left without
/// its `T`.
fn mul_base_sub_scalar(s: &Scalar, k: &Scalar, point_a: &Point) -> Point {
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

/// The ladders this CPU runs. A test that runs them all says once, on
/// stderr, which one it skips, so a CPU without IFMA does not pass the
/// vector cases silently.
#[cfg(test)]
pub(super) fn ladders() -> Vec<Ladder> {
    static SKIPPED: std::sync::Once = std::sync::Once::new();
    let (run, skip): (Vec<_>, Vec<_>) = [Ladder::Scalar, Ladder::Ifma]
        .into_iter()
        .partition(|l| l.is_supported());
    SKIPPED.call_once(|| {
        for ladder in &skip {
            eprintln!("skipped: this CPU does not run the {ladder:?} ladder");
        }
    });
    run
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
        let lhs = Ladder::Scalar.mul_base(&a.add(&b));
        let rhs = Ladder::Scalar
            .mul_base(&a)
            .add(&Ladder::Scalar.mul_base(&b));
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
        let almost = Ladder::Scalar.mul_base(&l_minus_1);
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
            let slow = Point::BASE.mul_scalar(&k);
            for ladder in ladders() {
                assert!(ladder.mul_base(&k).eq_point(&slow), "{ladder:?} {k:?}");
            }
        }
    }

    #[test]
    fn mul_base_sub_matches_binary_ladders() {
        let ks = scalars();
        for ladder in ladders() {
            for (i, s) in ks.iter().enumerate() {
                let k = &ks[(i * 7 + 3) % ks.len()];
                let point_a = Ladder::Scalar.mul_base(&ks[(i * 5 + 1) % ks.len()]);
                let slow = Point::BASE.mul_scalar(s);
                let ka = point_a.mul_scalar(k);
                for fast in [
                    ladder.mul_base_sub(s, k, &point_a),
                    ladder.prepare(&point_a).mul_base_sub(s, k),
                ] {
                    // fast + [k]A == [s]B
                    assert!(fast.add(&ka).eq_point(&slow), "{ladder:?} s={s:?} k={k:?}");
                }
            }
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
