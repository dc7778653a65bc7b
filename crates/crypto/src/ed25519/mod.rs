//! Ed25519 digital signatures (RFC 8032).
//!
//! PacketLab certificates, experiment descriptors, and rendezvous publishes
//! are all signed with Ed25519. The implementation is deliberately written
//! in plain, auditable Rust: radix-2^51 field arithmetic, extended-coordinate
//! group law straight from RFC 8032, windowed scalar multiplication over
//! tables computed at compile time (see [`point`]), and scalars reduced by
//! folding at 2^252 (see [`scalar`]). On a CPU with AVX-512 IFMA, signing's
//! fixed-base comb and verification's ladder run the same schedule on all
//! four coordinates of a point at once, and verification decompresses `A`
//! and `R` on one vector chain ([`Ladder`]). A key verified under again
//! and again can be given its own comb table ([`PreparedKey`]), which
//! cuts each verification under it to about 0.6 of its cost.

pub mod field;
pub mod point;
pub mod scalar;

use crate::sha512;
pub use point::Ladder;
use point::Point;
use scalar::Scalar;

/// An Ed25519 public key (compressed point).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct PublicKey([u8; 32]);

/// An Ed25519 secret key seed.
#[derive(Clone)]
pub struct SecretKey([u8; 32]);

/// An Ed25519 signature (R ‖ s).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Signature(pub [u8; 64]);

/// A secret/public key pair.
#[derive(Clone)]
pub struct Keypair {
    /// The secret seed.
    pub secret: SecretKey,
    /// The derived public key.
    pub public: PublicKey,
}

impl core::fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "PublicKey({}..)", crate::hex::encode(&self.0[..6]))
    }
}

impl core::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "SecretKey(..)")
    }
}

impl core::fmt::Debug for Signature {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Signature({}..)", crate::hex::encode(&self.0[..6]))
    }
}

impl PublicKey {
    /// Construct from raw bytes (validity is checked at verification time).
    pub fn from_bytes(b: [u8; 32]) -> PublicKey {
        PublicKey(b)
    }

    /// The raw encoding.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }
}

impl SecretKey {
    /// Construct from a 32-byte seed.
    pub fn from_bytes(b: [u8; 32]) -> SecretKey {
        SecretKey(b)
    }

    /// The raw seed bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }
}

impl Signature {
    /// Construct from raw bytes.
    pub fn from_bytes(b: [u8; 64]) -> Signature {
        Signature(b)
    }

    /// The raw 64-byte encoding.
    pub fn as_bytes(&self) -> &[u8; 64] {
        &self.0
    }
}

/// Derive (clamped secret scalar, prefix) from a seed per RFC 8032 §5.1.5.
fn expand_seed(seed: &[u8; 32]) -> (Scalar, [u8; 32]) {
    let h = sha512::digest(seed).0;
    let mut a_bytes: [u8; 32] = h[..32].try_into().unwrap();
    a_bytes[0] &= 0xf8;
    a_bytes[31] &= 0x7f;
    a_bytes[31] |= 0x40;
    let a = Scalar::from_bytes_mod_order(&a_bytes);
    let prefix: [u8; 32] = h[32..].try_into().unwrap();
    (a, prefix)
}

impl Keypair {
    /// Deterministically derive a keypair from a 32-byte seed.
    pub fn from_seed(seed: &[u8; 32]) -> Keypair {
        let (a, _) = expand_seed(seed);
        let public_point = Ladder::detect().mul_base(&a);
        Keypair {
            secret: SecretKey(*seed),
            public: PublicKey(public_point.compress()),
        }
    }

    /// Sign a message (RFC 8032 §5.1.6) on the ladder [`Ladder::detect`]
    /// picks.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        self.sign_on(Ladder::detect(), msg)
    }

    /// [`Keypair::sign`] on a given ladder: the same bytes on every ladder.
    ///
    /// # Panics
    ///
    /// If this CPU does not run the ladder ([`Ladder::is_supported`]).
    pub fn sign_on(&self, ladder: Ladder, msg: &[u8]) -> Signature {
        let (a, prefix) = expand_seed(&self.secret.0);
        let r_wide = sha512::digest_parts(&[&prefix, msg]).0;
        let r = Scalar::from_wide_bytes_mod_order(&r_wide);
        let r_point = ladder.mul_base(&r);
        let r_enc = r_point.compress();
        let k_wide = sha512::digest_parts(&[&r_enc, &self.public.0, msg]).0;
        let k = Scalar::from_wide_bytes_mod_order(&k_wide);
        let s = k.mul_add(&a, &r);
        let mut sig = [0u8; 64];
        sig[..32].copy_from_slice(&r_enc);
        sig[32..].copy_from_slice(&s.to_bytes());
        Signature(sig)
    }
}

/// The decoded parts of a verification: `(s, A, R, k)`, or `None` when an
/// encoding is refused — non-canonical `s` (mandatory for malleability
/// resistance), or an `A` or `R` that is not a canonical curve point.
/// Both points are decompressed on `ladder`.
fn decode(
    ladder: Ladder,
    public: &PublicKey,
    msg: &[u8],
    sig: &Signature,
) -> Option<(Scalar, Point, Point, Scalar)> {
    let r_enc: [u8; 32] = sig.0[..32].try_into().unwrap();
    let s_enc: [u8; 32] = sig.0[32..].try_into().unwrap();
    let s = Scalar::from_canonical_bytes(&s_enc)?;
    let [a_point, r_point] = ladder.decompress_pair([&public.0, &r_enc]);
    let (a_point, r_point) = (a_point?, r_point?);
    let k_wide = sha512::digest_parts(&[&r_enc, &public.0, msg]).0;
    Some((
        s,
        a_point,
        r_point,
        Scalar::from_wide_bytes_mod_order(&k_wide),
    ))
}

/// Verify a signature (RFC 8032 §5.1.7, cofactorless): `[s]B == R + [k]A`,
/// checked as `[s]B − [k]A == R` so both products share one ladder, the
/// one [`Ladder::detect`] picks, which also decompresses `A` and `R`.
pub fn verify(public: &PublicKey, msg: &[u8], sig: &Signature) -> bool {
    verify_on(Ladder::detect(), public, msg, sig)
}

/// [`verify`] on a given ladder: the same verdict on every ladder.
///
/// # Panics
///
/// If this CPU does not run the ladder ([`Ladder::is_supported`]).
pub fn verify_on(ladder: Ladder, public: &PublicKey, msg: &[u8], sig: &Signature) -> bool {
    assert!(ladder.is_supported(), "this CPU does not run {ladder:?}");
    decode(ladder, public, msg, sig)
        .is_some_and(|(s, a, r, k)| ladder.mul_base_sub(&s, &k, &a).eq_point(&r))
}

/// A public key with its own comb table (40 KiB), under which a
/// verification is `[s]B − [k]A` as two fixed-base combs in place of the
/// doubling ladder, at about 0.6 of the cost. It accepts exactly what
/// [`verify_on`] accepts on the ladder that prepared it.
pub struct PreparedKey {
    public: PublicKey,
    ladder: Ladder,
    table: point::Prepared,
}

impl PreparedKey {
    /// `public`'s table on `ladder`, a build that costs about 3.5 cold
    /// verifications on IFMA and 1.6 on the scalar ladder; `None` for an
    /// encoding [`verify_on`] refuses.
    pub fn new(ladder: Ladder, public: &PublicKey) -> Option<PreparedKey> {
        let table = ladder.prepare(&Point::decompress(&public.0)?);
        Some(PreparedKey {
            public: *public,
            ladder,
            table,
        })
    }

    /// The key.
    pub fn public(&self) -> &PublicKey {
        &self.public
    }

    /// [`verify_on`] under this key, on its ladder: the same verdict.
    /// Panics where [`verify_on`] does.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        decode(self.ladder, &self.public, msg, sig)
            .is_some_and(|(s, _, r, k)| self.table.mul_base_sub(&s, &k).eq_point(&r))
    }
}

/// The verification equation as written, on two binary ladders: the
/// reference whose accept set [`verify`] must match case for case.
#[cfg(test)]
fn verify_reference(public: &PublicKey, msg: &[u8], sig: &Signature) -> bool {
    decode(Ladder::Scalar, public, msg, sig).is_some_and(|(s, a, r, k)| {
        Point::BASE
            .mul_scalar(&s)
            .eq_point(&r.add(&a.mul_scalar(&k)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    struct Vector {
        seed: &'static str,
        public: &'static str,
        msg: &'static str,
        sig: &'static str,
    }

    // RFC 8032 §7.1 test vectors, all five: TEST 1, 2, 3, 1024, SHA(abc).
    const VECTORS: &[Vector] = &[
        Vector {
            seed: "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
            public: "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
            msg: "",
            sig: "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155\
                  5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b",
        },
        Vector {
            seed: "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
            public: "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
            msg: "72",
            sig: "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da\
                  085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00",
        },
        Vector {
            seed: "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
            public: "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
            msg: "af82",
            sig: "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac\
                  18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a",
        },
        Vector {
            seed: "f5e5767cf153319517630f226876b86c8160cc583bc013744c6bf255f5cc0ee5",
            public: "278117fc144c72340f67d0f2316e8386ceffbf2b2428c9c51fef7c597f1d426e",
            msg: "08b8b2b733424243760fe426a4b54908632110a66c2f6591eabd3345e3e4eb98\
                  fa6e264bf09efe12ee50f8f54e9f77b1e355f6c50544e23fb1433ddf73be84d8\
                  79de7c0046dc4996d9e773f4bc9efe5738829adb26c81b37c93a1b270b20329d\
                  658675fc6ea534e0810a4432826bf58c941efb65d57a338bbd2e26640f89ffbc\
                  1a858efcb8550ee3a5e1998bd177e93a7363c344fe6b199ee5d02e82d522c4fe\
                  ba15452f80288a821a579116ec6dad2b3b310da903401aa62100ab5d1a36553e\
                  06203b33890cc9b832f79ef80560ccb9a39ce767967ed628c6ad573cb116dbef\
                  efd75499da96bd68a8a97b928a8bbc103b6621fcde2beca1231d206be6cd9ec7\
                  aff6f6c94fcd7204ed3455c68c83f4a41da4af2b74ef5c53f1d8ac70bdcb7ed1\
                  85ce81bd84359d44254d95629e9855a94a7c1958d1f8ada5d0532ed8a5aa3fb2\
                  d17ba70eb6248e594e1a2297acbbb39d502f1a8c6eb6f1ce22b3de1a1f40cc24\
                  554119a831a9aad6079cad88425de6bde1a9187ebb6092cf67bf2b13fd65f270\
                  88d78b7e883c8759d2c4f5c65adb7553878ad575f9fad878e80a0c9ba63bcbcc\
                  2732e69485bbc9c90bfbd62481d9089beccf80cfe2df16a2cf65bd92dd597b07\
                  07e0917af48bbb75fed413d238f5555a7a569d80c3414a8d0859dc65a46128ba\
                  b27af87a71314f318c782b23ebfe808b82b0ce26401d2e22f04d83d1255dc51a\
                  ddd3b75a2b1ae0784504df543af8969be3ea7082ff7fc9888c144da2af58429e\
                  c96031dbcad3dad9af0dcbaaaf268cb8fcffead94f3c7ca495e056a9b47acdb7\
                  51fb73e666c6c655ade8297297d07ad1ba5e43f1bca32301651339e22904cc8c\
                  42f58c30c04aafdb038dda0847dd988dcda6f3bfd15c4b4c4525004aa06eeff8\
                  ca61783aacec57fb3d1f92b0fe2fd1a85f6724517b65e614ad6808d6f6ee34df\
                  f7310fdc82aebfd904b01e1dc54b2927094b2db68d6f903b68401adebf5a7e08\
                  d78ff4ef5d63653a65040cf9bfd4aca7984a74d37145986780fc0b16ac451649\
                  de6188a7dbdf191f64b5fc5e2ab47b57f7f7276cd419c17a3ca8e1b939ae49e4\
                  88acba6b965610b5480109c8b17b80e1b7b750dfc7598d5d5011fd2dcc5600a3\
                  2ef5b52a1ecc820e308aa342721aac0943bf6686b64b2579376504ccc493d97e\
                  6aed3fb0f9cd71a43dd497f01f17c0e2cb3797aa2a2f256656168e6c496afc5f\
                  b93246f6b1116398a346f1a641f3b041e989f7914f90cc2c7fff357876e506b5\
                  0d334ba77c225bc307ba537152f3f1610e4eafe595f6d9d90d11faa933a15ef1\
                  369546868a7f3a45a96768d40fd9d03412c091c6315cf4fde7cb68606937380d\
                  b2eaaa707b4c4185c32eddcdd306705e4dc1ffc872eeee475a64dfac86aba41c\
                  0618983f8741c5ef68d3a101e8a3b8cac60c905c15fc910840b94c00a0b9d0",
            sig: "0aab4c900501b3e24d7cdf4663326a3a87df5e4843b2cbdb67cbf6e460fec350\
                  aa5371b1508f9f4528ecea23c436d94b5e8fcd4f681e30a6ac00a9704a188a03",
        },
        Vector {
            seed: "833fe62409237b9d62ec77587520911e9a759cec1d19755b7da901b96dca3d42",
            public: "ec172b93ad5e563bf4932c70e1245034c35467ef2efd4d64ebf819683467e2bf",
            msg: "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a\
                  2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f",
            sig: "dc2a4459e7369633a52b1bf277839a00201009a3efbf3ecb69bea2186c26b589\
                  09351fc9ac90b3ecfdfbc7c66431e0303dca179c138ac17ad9bef1177331a704",
        },
    ];

    fn clean(s: &str) -> String {
        s.chars().filter(|c| !c.is_whitespace()).collect()
    }

    #[test]
    fn rfc8032_key_derivation() {
        for (i, v) in VECTORS.iter().enumerate() {
            let seed = hex::decode_array::<32>(v.seed).unwrap();
            let kp = Keypair::from_seed(&seed);
            assert_eq!(
                hex::encode(kp.public.as_bytes()),
                v.public,
                "vector {i} public key"
            );
        }
    }

    #[test]
    fn rfc8032_signatures() {
        for (i, v) in VECTORS.iter().enumerate() {
            let seed = hex::decode_array::<32>(v.seed).unwrap();
            let kp = Keypair::from_seed(&seed);
            let msg = hex::decode(&clean(v.msg)).unwrap();
            let sig = kp.sign(&msg);
            assert_eq!(hex::encode(&sig.0), clean(v.sig), "vector {i} signature");
        }
    }

    #[test]
    fn rfc8032_verification() {
        for (i, v) in VECTORS.iter().enumerate() {
            let public = hex::decode_array::<32>(v.public).unwrap();
            let msg = hex::decode(&clean(v.msg)).unwrap();
            let sig = hex::decode(&clean(v.sig)).unwrap().try_into().unwrap();
            // `verify`, the reference, each ladder and each prepared key.
            assert!(agree(public, &msg, sig), "vector {i} must verify");
        }
    }

    #[test]
    fn tampered_message_rejected() {
        let kp = Keypair::from_seed(&[1; 32]);
        let sig = kp.sign(b"authentic message");
        assert!(verify(&kp.public, b"authentic message", &sig));
        assert!(!verify(&kp.public, b"tampered message!", &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let kp = Keypair::from_seed(&[2; 32]);
        let mut sig = kp.sign(b"msg");
        sig.0[0] ^= 1;
        assert!(!verify(&kp.public, b"msg", &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let kp1 = Keypair::from_seed(&[3; 32]);
        let kp2 = Keypair::from_seed(&[4; 32]);
        let sig = kp1.sign(b"msg");
        assert!(!verify(&kp2.public, b"msg", &sig));
    }

    #[test]
    fn non_canonical_s_rejected() {
        use super::scalar::L;
        let kp = Keypair::from_seed(&[5; 32]);
        let mut sig = kp.sign(b"msg");
        // Add L to s: same point equation, non-canonical encoding.
        let s = Scalar::from_canonical_bytes(&sig.0[32..].try_into().unwrap()).unwrap();
        let mut wide = [0u64; 4];
        let mut carry = 0u128;
        for (i, w) in wide.iter_mut().enumerate().take(4) {
            let v = s.0[i] as u128 + L[i] as u128 + carry;
            *w = v as u64;
            carry = v >> 64;
        }
        assert_eq!(carry, 0, "s + L fits in 256 bits");
        for (i, w) in wide.iter().enumerate().take(4) {
            sig.0[32 + i * 8..32 + i * 8 + 8].copy_from_slice(&w.to_le_bytes());
        }
        assert!(!verify(&kp.public, b"msg", &sig));
    }

    #[test]
    fn deterministic_signing() {
        let kp = Keypair::from_seed(&[7; 32]);
        assert_eq!(kp.sign(b"m").0, kp.sign(b"m").0);
    }

    /// `verify`, each ladder this CPU runs, a [`PreparedKey`] on each and
    /// the retained reference must agree; returns the verdict.
    fn agree(public: [u8; 32], msg: &[u8], sig: [u8; 64]) -> bool {
        let (public, sig) = (PublicKey(public), Signature(sig));
        let expect = verify_reference(&public, msg, &sig);
        let case = format!("{public:?} {sig:?} {msg:02x?}");
        assert_eq!(verify(&public, msg, &sig), expect, "verify: {case}");
        for ladder in point::ladders() {
            assert_eq!(
                verify_on(ladder, &public, msg, &sig),
                expect,
                "{ladder:?}: {case}"
            );
            let prepared = with_prepared(ladder, &public, |key| {
                key.is_some_and(|key| key.verify(msg, &sig))
            });
            assert_eq!(prepared, expect, "{ladder:?} prepared: {case}");
        }
        expect
    }

    /// `f` of `public`'s [`PreparedKey`] on `ladder`. This thread keeps
    /// the eight last used, so a key a test returns to between others is
    /// prepared once.
    fn with_prepared<T>(
        ladder: Ladder,
        public: &PublicKey,
        f: impl FnOnce(Option<&PreparedKey>) -> T,
    ) -> T {
        type Cache = Vec<(Ladder, PublicKey, Option<PreparedKey>)>;
        thread_local! {
            static PREPARED: std::cell::RefCell<Cache> = const { std::cell::RefCell::new(Vec::new()) };
        }
        PREPARED.with_borrow_mut(|cache| {
            let entry = match cache
                .iter()
                .position(|(l, k, _)| (*l, k) == (ladder, public))
            {
                Some(at) => cache.remove(at),
                None => (ladder, *public, PreparedKey::new(ladder, public)),
            };
            if cache.len() == 8 {
                cache.remove(0);
            }
            cache.push(entry);
            f(cache[cache.len() - 1].2.as_ref())
        })
    }

    #[test]
    fn verify_takes_the_vector_ladder_exactly_when_both_features_are_reported() {
        #[cfg(target_arch = "x86_64")]
        let both = is_x86_feature_detected!("avx512ifma") && is_x86_feature_detected!("avx512vl");
        #[cfg(not(target_arch = "x86_64"))]
        let both = false;
        let expect = if both { Ladder::Ifma } else { Ladder::Scalar };
        assert_eq!(Ladder::detect(), expect);
        assert_eq!(Ladder::Ifma.is_supported(), both);
        assert!(Ladder::Scalar.is_supported());
    }

    /// `Σ d·2^(w·i)` over `digits`, least significant first: a scalar
    /// whose width-`w` NAF is exactly those digits.
    fn from_naf_digits(w: u32, digits: &[i8]) -> Scalar {
        let radix = Scalar([1 << w, 0, 0, 0]);
        digits.iter().rev().fold(Scalar::ZERO, |acc, &d| {
            let d = match d {
                0.. => Scalar([d as u64, 0, 0, 0]),
                _ => Scalar([
                    scalar::L[0] - u64::from(d.unsigned_abs()),
                    scalar::L[1],
                    0,
                    scalar::L[3],
                ]),
            };
            acc.mul_add(&radix, &d)
        })
    }

    /// Both ladders against the binary ones on the scalars at the edges of
    /// the digit schedule: 0, 1, L − 1, 2^252, a nonzero digit at every
    /// `w`-th position (largest magnitude, alternating sign) and the
    /// largest top digit alone, for either window width; and `A` the base
    /// point, the identity and each small-order point.
    #[test]
    fn ladders_agree_on_edge_scalars_and_points() {
        let dense = |w: u32, n: usize| {
            let top = ((1u8 << (w - 1)) - 1) as i8;
            let digits: Vec<i8> = (0..n)
                .map(|i| if i % 2 == 0 { top } else { -top })
                .collect();
            // The top digit is positive and outweighs the rest, so no wrap.
            let s = from_naf_digits(w, &digits);
            assert_eq!(s.naf(w).iter().filter(|&&d| d != 0).count(), n, "w={w}");
            s
        };
        let top_alone = |w: u32, pos: u32| {
            let mut digits = vec![0i8; pos as usize / w as usize + 1];
            digits[pos as usize / w as usize] = ((1u8 << (w - 1)) - 1) as i8;
            from_naf_digits(w, &digits)
        };
        let l = scalar::L;
        let scalars = [
            Scalar::ZERO,
            Scalar([1, 0, 0, 0]),
            Scalar([l[0] - 1, l[1], l[2], l[3]]),
            Scalar([0, 0, 0, 1 << 60]),
            dense(8, 31),
            dense(5, 49),
            top_alone(8, 240),
            top_alone(5, 245),
        ];
        let mut points = vec![Point::BASE];
        points.extend(
            small_order_points()
                .iter()
                .map(|e| Point::decompress(e).unwrap()),
        );
        for point_a in &points {
            let prepared: Vec<_> = point::ladders()
                .into_iter()
                .map(|ladder| (ladder, ladder.prepare(point_a)))
                .collect();
            for s in &scalars {
                let sb = Point::BASE.mul_scalar(s);
                for k in &scalars {
                    let ka = point_a.mul_scalar(k);
                    for (ladder, prepared) in &prepared {
                        for r in [
                            ladder.mul_base_sub(s, k, point_a),
                            prepared.mul_base_sub(s, k),
                        ] {
                            assert!(r.add(&ka).eq_point(&sb), "{ladder:?} s={s:?} k={k:?}");
                        }
                    }
                }
            }
        }
    }

    fn splitmix(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    /// 10,240 seeded (key, message, signature) triples, four in five with
    /// one bit flipped in the key, the message, `R` or `s`.
    #[test]
    fn verify_matches_reference_on_mutated_triples() {
        let mut next = splitmix(0xed25_5190);
        let mut accepted = 0;
        for _ in 0..128 {
            let mut seed = [0u8; 32];
            seed.iter_mut().for_each(|b| *b = next() as u8);
            let kp = Keypair::from_seed(&seed);
            for case in 0..80 {
                let mut msg = vec![0u8; 1 + next() as usize % 96];
                msg.iter_mut().for_each(|b| *b = next() as u8);
                let (mut public, mut sig) = (kp.public.0, kp.sign(&msg).0);
                let bit = next() as usize;
                let flip = |bytes: &mut [u8]| bytes[bit / 8 % bytes.len()] ^= 1 << (bit % 8);
                match case % 5 {
                    0 => {}
                    1 => flip(&mut public),
                    2 => flip(&mut msg),
                    3 => flip(&mut sig[..32]),
                    _ => flip(&mut sig[32..]),
                }
                let verdict = agree(public, &msg, sig);
                assert_eq!(verdict, case % 5 == 0, "case {case} of key {seed:02x?}");
                accepted += verdict as u32;
            }
        }
        assert_eq!(accepted, 128 * 16);
    }

    /// p = 2^255 − 19, little-endian: as a `y` it is 0, non-canonically.
    const P_BYTES: [u8; 32] = {
        let mut p = [0xff; 32];
        p[0] = 0xed;
        p[31] = 0x7f;
        p
    };

    #[test]
    fn edge_encodings_keep_their_verdicts() {
        let kp = Keypair::from_seed(&[9; 32]);
        let good = kp.sign(b"edge").0;
        assert!(agree(kp.public.0, b"edge", good));
        // Non-canonical y ≥ p (p itself, and p + 1 ≡ 1) in A and in R,
        // with either sign bit.
        for delta in [0u8, 1] {
            for sign in [0u8, 0x80] {
                let mut y = P_BYTES;
                y[0] += delta;
                y[31] |= sign;
                assert!(!agree(y, b"edge", good), "A = p + {delta}");
                let mut sig = good;
                sig[..32].copy_from_slice(&y);
                assert!(!agree(kp.public.0, b"edge", sig), "R = p + {delta}");
            }
        }
        // x = 0 with the sign bit set: y = 1 and y = −1.
        for y0 in [1u8, 0xec] {
            let mut enc = if y0 == 1 { [0u8; 32] } else { P_BYTES };
            enc[0] = y0;
            assert!(Point::decompress(&enc).is_some(), "x = 0, sign clear");
            enc[31] |= 0x80;
            assert!(!agree(enc, b"edge", good), "A has x = 0, sign set");
            let mut sig = good;
            sig[..32].copy_from_slice(&enc);
            assert!(!agree(kp.public.0, b"edge", sig), "R has x = 0, sign set");
        }
    }

    /// The eight points of order dividing 8, as `[i]T` for a generator
    /// `T = [L]P` of the torsion subgroup.
    fn small_order_points() -> Vec<[u8; 32]> {
        let order = Scalar(scalar::L);
        let t = (2u8..)
            .filter_map(|y| {
                let mut enc = [0u8; 32];
                enc[0] = y;
                Point::decompress(&enc).map(|p| p.mul_scalar(&order))
            })
            .find(|t| !t.double().double().is_identity())
            .unwrap();
        let points: Vec<[u8; 32]> = (0..8u64)
            .map(|i| t.mul_scalar(&Scalar([i, 0, 0, 0])).compress())
            .collect();
        assert!(t.mul_scalar(&Scalar([8, 0, 0, 0])).is_identity());
        assert!(
            (0..8).all(|i| (0..i).all(|j| points[i] != points[j])),
            "eight distinct points"
        );
        points
    }

    /// Keys `A + T`, `T` each small-order point, signed as if `A + T`
    /// were honest (`s = r + k·a`), with `R = [r]B + T'` for each
    /// small-order `T'`: `[s]B − [k](A + T) = [r]B − [k]T`, so the verdict
    /// turns on whether `T' + [k]T` vanishes. A key's table carries its
    /// torsion component, and a shortcut that drops or multiplies it out
    /// (as cofactored checks do) answers these otherwise.
    #[test]
    fn keys_with_a_torsion_component_keep_their_verdicts() {
        let kp = Keypair::from_seed(&[11; 32]);
        let (a, _) = expand_seed(&kp.secret.0);
        let point_a = Point::decompress(kp.public.as_bytes()).unwrap();
        let r = Scalar::from_wide_bytes_mod_order(&[0x5a; 64]);
        let point_r = Ladder::Scalar.mul_base(&r);
        let torsion: Vec<Point> = small_order_points()
            .iter()
            .map(|e| Point::decompress(e).unwrap())
            .collect();
        let mut verdicts = [0; 2];
        for t in &torsion[1..] {
            let key = point_a.add(t).compress();
            for t_r in &torsion {
                let r_enc = point_r.add(t_r).compress();
                for m in 0..8u8 {
                    let k_wide = sha512::digest_parts(&[&r_enc, &key, &[m]]).0;
                    let k = Scalar::from_wide_bytes_mod_order(&k_wide);
                    let mut sig = [0u8; 64];
                    sig[..32].copy_from_slice(&r_enc);
                    sig[32..].copy_from_slice(&k.mul_add(&a, &r).to_bytes());
                    let verdict = agree(key, &[m], sig);
                    let expect = t_r.add(&t.mul_scalar(&k)).is_identity();
                    assert_eq!(verdict, expect, "{key:02x?} {m}");
                    verdicts[usize::from(verdict)] += 1;
                }
            }
        }
        assert!(verdicts.iter().all(|&n| n > 0), "verdicts {verdicts:?}");
    }

    /// Both ladders' comb on 0, 1, L − 1, 2^252, scalars whose radix-16
    /// digits are all of the largest magnitude either sign reaches (−8,
    /// +7: the digits are in [−8, 8)) in 256 sign patterns, and 4,096
    /// seeded scalars.
    #[test]
    fn mul_base_agrees_on_every_ladder() {
        let l = scalar::L;
        let mut scalars = vec![
            Scalar::ZERO,
            Scalar([1, 0, 0, 0]),
            Scalar([l[0] - 1, l[1], l[2], l[3]]),
            Scalar([0, 0, 0, 1 << 60]),
        ];
        let mut next = splitmix(0xc0b);
        for pattern in 0..256u64 {
            // Four periodic patterns, then seeded ones.
            let bits = match pattern {
                0..=3 => {
                    [0, u64::MAX, 0x5555_5555_5555_5555, 0x3333_3333_3333_3333][pattern as usize]
                }
                _ => next(),
            };
            let mut digits: Vec<i8> = (0..62).map(|i| [7, -8][(bits >> i) as usize & 1]).collect();
            // A top digit of 7 outweighs the rest, so no wrap past L.
            digits.extend([7, 0]);
            let k = from_naf_digits(4, &digits);
            assert_eq!(k.radix16().to_vec(), digits, "pattern {bits:#x}");
            scalars.push(k);
        }
        scalars.extend((0..4096).map(|_| {
            let mut wide = [0u8; 64];
            wide.iter_mut().for_each(|b| *b = next() as u8);
            Scalar::from_wide_bytes_mod_order(&wide)
        }));
        for k in &scalars {
            let expect = Ladder::Scalar.mul_base(k);
            for ladder in point::ladders() {
                assert!(ladder.mul_base(k).eq_point(&expect), "{ladder:?} {k:?}");
            }
        }
    }

    /// Byte-identical signatures from every ladder: the RFC 8032 vectors
    /// and 1,024 seeded (seed, message) pairs.
    #[test]
    fn signatures_are_byte_identical_on_every_ladder() {
        for (i, v) in VECTORS.iter().enumerate() {
            let kp = Keypair::from_seed(&hex::decode_array::<32>(v.seed).unwrap());
            let msg = hex::decode(&clean(v.msg)).unwrap();
            for ladder in point::ladders() {
                let sig = hex::encode(&kp.sign_on(ladder, &msg).0);
                assert_eq!(sig, clean(v.sig), "{ladder:?} vector {i}");
            }
        }
        let mut next = splitmix(0x51_6e);
        for case in 0..1024 {
            let mut seed = [0u8; 32];
            seed.iter_mut().for_each(|b| *b = next() as u8);
            let mut msg = vec![0u8; next() as usize % 160];
            msg.iter_mut().for_each(|b| *b = next() as u8);
            let kp = Keypair::from_seed(&seed);
            let expect = kp.sign_on(Ladder::Scalar, &msg);
            for ladder in point::ladders() {
                assert!(kp.sign_on(ladder, &msg) == expect, "{ladder:?} case {case}");
            }
        }
    }

    /// Both ladders' paired decompression against `Point::decompress`, in
    /// both lanes: 8,192 seeded strings with each sign bit, y = p − 1,
    /// y ≥ p, x = 0 with the sign bit set and the 8 small-order points;
    /// the seeded strings take both branches of the root (`v·x² = ±u`).
    #[test]
    fn decompression_agrees_on_every_ladder() {
        use field::Fe;
        let mut encs = small_order_points();
        let mut p_minus_1 = P_BYTES;
        p_minus_1[0] = 0xec;
        let mut one = [0u8; 32];
        one[0] = 1;
        let mut p_plus_1 = P_BYTES;
        p_plus_1[0] = 0xee;
        encs.extend([P_BYTES, p_plus_1, [0xff; 32], p_minus_1, one]);
        let mut next = splitmix(0xdec0);
        encs.extend((0..8192).map(|_| {
            let mut e = [0u8; 32];
            e.iter_mut().for_each(|b| *b = next() as u8);
            e
        }));
        let mut branches = [0; 2];
        for (i, e) in encs.iter().enumerate() {
            // Each string in the first lane, and with its sign bit
            // flipped in the second lane beside its predecessor.
            let mut flipped = encs[(i + 1) % encs.len()];
            flipped[31] ^= 0x80;
            let expect = [e, &flipped].map(|e| Point::decompress(e).map(|p| p.compress()));
            for ladder in point::ladders() {
                let got = ladder.decompress_pair([e, &flipped]);
                assert_eq!(
                    got.map(|p| p.map(|p| p.compress())),
                    expect,
                    "{ladder:?} {e:02x?}"
                );
            }
            // Which branch the root took: v·x² = u, or −u (times √−1).
            let mut y = *e;
            y[31] &= 0x7f;
            let yy = Fe::from_bytes(&y).square();
            let (u, v) = (yy.sub(&Fe::ONE), yy.mul(&Fe::D).add(&Fe::ONE));
            let v3 = v.square().mul(&v);
            let x = u.mul(&v3).mul(&u.mul(&v3.square().mul(&v)).pow_p58());
            if expect[0].is_some() {
                branches[usize::from(!v.mul(&x.square()).ct_eq(&u))] += 1;
            }
        }
        assert!(
            branches.iter().all(|&n| n > 0),
            "root branches {branches:?}"
        );
    }

    /// Cofactorless verification accepts `s = 0`, `R = −[k]A` for a
    /// small-order `A`; which messages hit that is part of the accept set.
    #[test]
    fn small_order_points_keep_their_verdicts() {
        let points = small_order_points();
        let mut identity = [0u8; 32];
        identity[0] = 1;
        let mut minus_one = P_BYTES;
        minus_one[0] = 0xec;
        for known in [identity, minus_one, [0; 32]] {
            assert!(points.contains(&known), "{known:02x?}");
        }
        let kp = Keypair::from_seed(&[10; 32]);
        let honest = kp.sign(b"torsion").0;
        let mut accepted = 0;
        for a in &points {
            // An honest signature never verifies under a small-order key.
            assert!(!agree(*a, b"torsion", honest));
            for r in &points {
                let mut sig = [0u8; 64];
                sig[..32].copy_from_slice(r);
                for m in 0..4u8 {
                    accepted += agree(*a, &[m], sig) as u32;
                }
                // Small-order R on an honest key and an honest s.
                sig[32..].copy_from_slice(&honest[32..]);
                assert!(!agree(kp.public.0, b"torsion", sig));
            }
        }
        assert!(
            accepted >= 8,
            "torsion forgeries both checks accept: only {accepted} exercised"
        );
    }
}
