//! The [`super::Ladder::Ifma`] entry points on AVX-512 IFMA: a point's
//! four coordinates are the four 64-bit lanes of a vector, so one vector
//! multiply is four field products, and the doubling and the cached-point
//! addition are the 4-way parallel extended-coordinate formulas of Hisil,
//! Wong, Carter and Dawson ("Twisted Edwards curves revisited", 2008) — two
//! vector multiplies each, in the lane order of de Valence's IFMA backend
//! for curve25519-dalek (2018).
//!
//! Each lane holds a field element in the radix-2^51 limbs of [`Fe`], so
//! points convert limb for limb. `vpmadd52{lo,hi}uq` form the low and
//! high 52 bits of a 104-bit limb product, which is exact for limbs below
//! 2^52: the high half lands one bit above a radix-2^51 column, so it
//! counts twice, and 2^255 ≡ 19 folds the upper five columns onto the
//! lower five. Every vector fed to a multiply has limbs below 2^52: a
//! product or a sum is carried ([`Fe4::carry`], below 2^51 + 2^18), and
//! a table entry or a loaded element holds the limbs of an [`Fe`].
//!
//! Each schedule is the scalar one's, over the same tables in lane order
//! (built by `const fn` when the crate compiles), so both ladders reach
//! the same point (the group law is complete) and the same root.

use super::super::field::{pow_2_250_m1, Fe};
use super::super::scalar::Scalar;
use super::{odd_multiples, Cached, Point, BASE_COMB, BASE_ODD};
use core::arch::x86_64::*;

/// Lane masks: lane `j` holds coordinate `j` of (X, Y, Z, T).
const X: __mmask8 = 0b0001;
const Y: __mmask8 = 0b0010;
const Z: __mmask8 = 0b0100;
const T: __mmask8 = 0b1000;

/// `_mm256_permute4x64_epi64` immediates: result lane `j` takes the source
/// lane named by letter `j` (A = lane 0 … D = lane 3).
const fn perm(a: i32, b: i32, c: i32, d: i32) -> i32 {
    a | b << 2 | c << 4 | d << 6
}
const AAAA: i32 = perm(0, 0, 0, 0);
const BBBB: i32 = perm(1, 1, 1, 1);
const ABCA: i32 = perm(0, 1, 2, 0);
const ABCB: i32 = perm(0, 1, 2, 1);
const BADC: i32 = perm(1, 0, 3, 2);
const BACD: i32 = perm(1, 0, 2, 3);
const ABDC: i32 = perm(0, 1, 3, 2);
const ADDA: i32 = perm(0, 3, 3, 0);
const CBCB: i32 = perm(2, 1, 2, 1);
const CACA: i32 = perm(2, 0, 2, 0);
const DBBD: i32 = perm(3, 1, 1, 3);

/// 2p in radix 2^51: added before a subtraction so no limb goes negative.
const TWO_P: [u64; 5] = [
    (1 << 52) - 38,
    (1 << 52) - 2,
    (1 << 52) - 2,
    (1 << 52) - 2,
    (1 << 52) - 2,
];

/// Four field elements: limb `i` of lane `j` is limb `i` of element `j`.
#[derive(Clone, Copy)]
struct Fe4([__m256i; 5]);

/// The four lanes of each of the five limbs, as loaded into an [`Fe4`].
pub(super) type Limbs = [[u64; 4]; 5];

impl Fe4 {
    #[inline]
    #[target_feature(enable = "avx512ifma,avx512vl")]
    #[allow(unsafe_code)]
    fn load(l: &Limbs) -> Fe4 {
        let mut v = [_mm256_setzero_si256(); 5];
        for (v, l) in v.iter_mut().zip(l) {
            // SAFETY: `l` is a reference to 32 readable bytes, and
            // `vmovdqu` has no alignment requirement.
            *v = unsafe { _mm256_loadu_si256(l.as_ptr().cast()) };
        }
        Fe4(v)
    }

    #[inline]
    #[target_feature(enable = "avx512ifma,avx512vl")]
    fn zero() -> Fe4 {
        Fe4([_mm256_setzero_si256(); 5])
    }

    /// Lane `j` of every limb, as the field element it holds.
    #[target_feature(enable = "avx512ifma,avx512vl")]
    fn lanes(&self) -> [Fe; 4] {
        let mut out = [Fe::ZERO; 4];
        for (i, v) in self.0.iter().enumerate() {
            out[0].0[i] = _mm256_extract_epi64::<0>(*v) as u64;
            out[1].0[i] = _mm256_extract_epi64::<1>(*v) as u64;
            out[2].0[i] = _mm256_extract_epi64::<2>(*v) as u64;
            out[3].0[i] = _mm256_extract_epi64::<3>(*v) as u64;
        }
        out
    }

    #[inline]
    #[target_feature(enable = "avx512ifma,avx512vl")]
    fn add(&self, other: &Fe4) -> Fe4 {
        let mut v = self.0;
        for (v, o) in v.iter_mut().zip(&other.0) {
            *v = _mm256_add_epi64(*v, *o);
        }
        Fe4(v)
    }

    /// `self − other` as `self + 2p − other`: `other` must be carried.
    #[inline]
    #[target_feature(enable = "avx512ifma,avx512vl")]
    fn sub(&self, other: &Fe4) -> Fe4 {
        let mut v = self.0;
        for ((v, o), p) in v.iter_mut().zip(&other.0).zip(TWO_P) {
            *v = _mm256_sub_epi64(_mm256_add_epi64(*v, _mm256_set1_epi64x(p as i64)), *o);
        }
        Fe4(v)
    }

    /// `other` in the lanes of `mask`, `self` in the rest.
    #[inline]
    #[target_feature(enable = "avx512ifma,avx512vl")]
    fn blend(&self, other: &Fe4, mask: __mmask8) -> Fe4 {
        let mut v = self.0;
        for (v, o) in v.iter_mut().zip(&other.0) {
            *v = _mm256_mask_blend_epi64(mask, *v, *o);
        }
        Fe4(v)
    }

    #[inline]
    #[target_feature(enable = "avx512ifma,avx512vl")]
    fn shuffle<const IMM: i32>(&self) -> Fe4 {
        let mut v = self.0;
        for v in &mut v {
            *v = _mm256_permute4x64_epi64::<IMM>(*v);
        }
        Fe4(v)
    }

    /// (a, b, c, d) ↦ (b − a, b + a, d − c, d + c); `self` must be carried.
    #[inline]
    #[target_feature(enable = "avx512ifma,avx512vl")]
    fn diff_sum(&self) -> Fe4 {
        let swapped = self.shuffle::<BADC>();
        swapped.sub(self).blend(&swapped.add(self), Y | T)
    }

    /// One carry pass in parallel: limbs below 2^64 in, below 2^51 + 2^18
    /// out, the carry out of the top limb wrapping as 19.
    #[inline]
    #[target_feature(enable = "avx512ifma,avx512vl")]
    fn carry(&self) -> Fe4 {
        let mask = _mm256_set1_epi64x((1 << 51) - 1);
        let c = self.0.map(|v| _mm256_srli_epi64::<51>(v));
        let mut v = self.0.map(|v| _mm256_and_si256(v, mask));
        v[0] = _mm256_madd52lo_epu64(v[0], c[4], _mm256_set1_epi64x(19));
        for i in 1..5 {
            v[i] = _mm256_add_epi64(v[i], c[i - 1]);
        }
        Fe4(v)
    }

    /// Four products at once; both inputs carried, the result too.
    #[inline]
    #[target_feature(enable = "avx512ifma,avx512vl")]
    fn mul(&self, other: &Fe4) -> Fe4 {
        let (x, y) = (&self.0, &other.0);
        let zero = _mm256_setzero_si256();
        // Column i + j takes the low half of x[i]·y[j], column i + j + 1
        // twice the high half; each column stays below 14 · 2^52.
        let mut lo = [zero; 10];
        let mut hi = [zero; 10];
        for i in 0..5 {
            for j in 0..5 {
                lo[i + j] = _mm256_madd52lo_epu64(lo[i + j], x[i], y[j]);
                hi[i + j + 1] = _mm256_madd52hi_epu64(hi[i + j + 1], x[i], y[j]);
            }
        }
        for c in 0..10 {
            lo[c] = _mm256_add_epi64(lo[c], _mm256_slli_epi64::<1>(hi[c]));
        }
        fold(&lo)
    }

    /// [`Fe4::mul`] of `self` by itself: each cross product `x[i]·x[j]`
    /// (i < j) formed once and counted twice, 15 limb products, not 25.
    #[inline]
    #[target_feature(enable = "avx512ifma,avx512vl")]
    fn square(&self) -> Fe4 {
        let x = &self.0;
        let zero = _mm256_setzero_si256();
        // Terms of weight 1, 2 and 4 in each column.
        let (mut w1, mut w2, mut w4) = ([zero; 10], [zero; 10], [zero; 10]);
        for i in 0..5 {
            w1[2 * i] = _mm256_madd52lo_epu64(w1[2 * i], x[i], x[i]);
            w2[2 * i + 1] = _mm256_madd52hi_epu64(w2[2 * i + 1], x[i], x[i]);
            for j in i + 1..5 {
                w2[i + j] = _mm256_madd52lo_epu64(w2[i + j], x[i], x[j]);
                w4[i + j + 1] = _mm256_madd52hi_epu64(w4[i + j + 1], x[i], x[j]);
            }
        }
        for c in 0..10 {
            let w24 = _mm256_add_epi64(w2[c], _mm256_slli_epi64::<1>(w4[c]));
            w1[c] = _mm256_add_epi64(w1[c], _mm256_slli_epi64::<1>(w24));
        }
        fold(&w1)
    }
}

/// Ten product columns (each below 14 · 2^52) to a carried [`Fe4`]:
/// column c + 5 weighs 2^255 ≡ 19 times column c.
#[inline]
#[target_feature(enable = "avx512ifma,avx512vl")]
fn fold(columns: &[__m256i; 10]) -> Fe4 {
    let (low, high) = columns.split_at(5);
    let mut w = [_mm256_setzero_si256(); 5];
    for ((w, &lo), &up) in w.iter_mut().zip(low).zip(high) {
        let up19 = _mm256_add_epi64(
            _mm256_add_epi64(up, _mm256_slli_epi64::<1>(up)),
            _mm256_slli_epi64::<4>(up),
        );
        // Below 2^61.
        *w = _mm256_add_epi64(lo, up19);
    }
    Fe4(w).carry()
}

/// A point (X, Y, Z, T) in extended coordinates, one coordinate a lane.
#[derive(Clone, Copy)]
struct Point4(Fe4);

/// An addend (Y − X, Y + X, 2Z, 2d·T), one coordinate a lane.
#[derive(Clone, Copy)]
struct Cached4(Fe4);

impl Point4 {
    #[inline]
    #[target_feature(enable = "avx512ifma,avx512vl")]
    fn from_point(p: &Point) -> Point4 {
        Point4(Fe4::load(&lanes_of([&p.x, &p.y, &p.z, &p.t])))
    }

    #[target_feature(enable = "avx512ifma,avx512vl")]
    fn to_point(self) -> Point {
        let [x, y, z, t] = self.0.lanes();
        Point { x, y, z, t }
    }

    /// 2P: squares of (X, Y, Z, X + Y), then one product per coordinate.
    #[inline]
    #[target_feature(enable = "avx512ifma,avx512vl")]
    fn double(&self) -> Point4 {
        let p = &self.0;
        let v = p.blend(&p.shuffle::<ABCA>().add(&p.shuffle::<ABCB>()), T);
        // (A, B, Z², S) = (X², Y², Z², (X + Y)²).
        let sq = v.carry().square();
        let (a, b) = (sq.shuffle::<AAAA>(), sq.shuffle::<BBBB>());
        // (H, G, F, E) = (A + B, A − B, A − B + 2Z², A + B − S).
        let hg = a.add(&b).blend(&a.sub(&b), Y | Z);
        let z2_s = sq.add(&sq).blend(&Fe4::zero().sub(&sq), T);
        let hgfe = hg.add(&Fe4::zero().blend(&z2_s, Z | T)).carry();
        // (F·E, H·G, F·G, H·E) = (X3, Y3, Z3, T3).
        Point4(hgfe.shuffle::<CACA>().mul(&hgfe.shuffle::<DBBD>()))
    }

    /// P + Q: (A, B, D, C) = (Y1 − X1, Y1 + X1, Z1, T1) · Q, then one
    /// product per coordinate.
    #[inline]
    #[target_feature(enable = "avx512ifma,avx512vl")]
    fn add(&self, q: &Cached4) -> Point4 {
        let p = &self.0;
        let abdc = p.blend(&p.diff_sum(), X | Y).carry().mul(&q.0);
        // (E, H, F, G) = (B − A, B + A, D − C, D + C).
        let ehfg = abdc.shuffle::<ABDC>().diff_sum().carry();
        // (E·F, G·H, G·F, E·H) = (X3, Y3, Z3, T3).
        Point4(ehfg.shuffle::<ADDA>().mul(&ehfg.shuffle::<CBCB>()))
    }
}

impl Cached4 {
    /// A table entry as an addend, negated for a negative digit: −Q swaps
    /// Y − X with Y + X and negates T.
    #[inline]
    #[target_feature(enable = "avx512ifma,avx512vl")]
    fn signed(entry: &Limbs, negative: bool) -> Cached4 {
        let q = Fe4::load(entry);
        if !negative {
            return Cached4(q);
        }
        let q = q.shuffle::<BACD>();
        Cached4(q.blend(&Fe4::zero().sub(&q), T))
    }
}

/// Four field elements, one a lane.
const fn lanes_of(fe: [&Fe; 4]) -> Limbs {
    let mut l = [[0; 4]; 5];
    let mut i = 0;
    while i < 5 {
        l[i] = [fe[0].0[i], fe[1].0[i], fe[2].0[i], fe[3].0[i]];
        i += 1;
    }
    l
}

/// A [`Cached`] addend in [`Cached4`]'s lane order.
const fn limbs(c: &Cached) -> Limbs {
    lanes_of([&c.ymx, &c.ypx, &c.z.add(&c.z), &c.t2d])
}

/// `table` in [`Cached4`]'s lane order.
pub(super) const fn lane_order<const N: usize>(table: &[Cached]) -> [Limbs; N] {
    let mut out = [[[0; 4]; 5]; N];
    let mut i = 0;
    while i < N {
        out[i] = limbs(&table[i]);
        i += 1;
    }
    out
}

static BASE_ODD_LANES: [Limbs; 64] = lane_order(&BASE_ODD);

/// `BASE_COMB`, row after row.
pub(super) static BASE_COMB_LANES: [Limbs; 256] = lane_order(BASE_COMB.as_flattened());

/// `[s]B − [k]A` on the vector ladder: the scalar ladder's point. The
/// loop is the doubling's one call site, so it inlines there, as the
/// addition does.
#[target_feature(enable = "avx512ifma,avx512vl")]
pub(super) fn mul_base_sub((s, k, point_a): (&Scalar, &Scalar, &Point)) -> Point {
    let s_naf = s.naf(8);
    let k_naf = k.naf(5);
    let a_odd = odd_multiples::<8>(point_a).map(|c| limbs(&c));
    let top = (0..256)
        .rev()
        .find(|&i| s_naf[i] != 0 || k_naf[i] != 0)
        .unwrap_or(0);
    let mut acc = Point4::from_point(&Point::IDENTITY);
    for i in (0..=top).rev() {
        acc = acc.double();
        for (odd, d) in [(&BASE_ODD_LANES[..], s_naf[i]), (&a_odd[..], -k_naf[i])] {
            // `odd[i] = (2i+1)·P`, and `d` is odd.
            if d != 0 {
                acc = acc.add(&Cached4::signed(
                    &odd[usize::from(d.unsigned_abs() / 2)],
                    d < 0,
                ));
            }
        }
    }
    acc.to_point()
}

/// `[k]P` over `P`'s comb table in lane order (row after row), by the
/// scalar comb's schedule: the same radix-16 digits, one addition each
/// (of the identity for a zero digit), and four doublings.
#[target_feature(enable = "avx512ifma,avx512vl")]
pub(super) fn comb((table, k): (&[Limbs; 256], &Scalar)) -> Point {
    let digits = k.radix16();
    let zero = const { limbs(&Cached::IDENTITY) };
    let add_digits = |mut acc: Point4, parity: usize| {
        let rows = table.chunks_exact(8);
        for (row, &d) in rows.zip(digits.iter().skip(parity).step_by(2)) {
            let entry = match d.unsigned_abs() {
                0 => &zero,
                m => &row[usize::from(m - 1)],
            };
            acc = acc.add(&Cached4::signed(entry, d < 0));
        }
        acc
    };
    let odd = add_digits(Point4::from_point(&Point::IDENTITY), 1).to_point();
    // Doubled on the scalar side: `Point4::double` keeps its one call
    // site, in `mul_base_sub`'s loop, which it must inline into.
    let sixteen = odd.double().double().double().double();
    add_digits(Point4::from_point(&sixteen), 0).to_point()
}

/// `w^((p−5)/8)` of two elements, in two lanes of one chain.
#[target_feature(enable = "avx512ifma,avx512vl")]
pub(super) fn pow_p58_pair(w: [Fe; 2]) -> [Fe; 2] {
    let x = Fe4::load(&lanes_of([&w[0], &w[1], &Fe::ONE, &Fe::ONE]));
    let (e250, _) = pow_2_250_m1(&x, |a| a.square(), |a, b| a.mul(b));
    let [p0, p1, _, _] = e250.square().square().mul(&x).lanes();
    [p0, p1]
}
