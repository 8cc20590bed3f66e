//! Bit-exact `exp` for the batched physics hot loop.
//!
//! The leakage model evaluates `exp(α·(T − T_ref))` for every node of
//! every lane, every step — the single most expensive operation in the
//! lockstep inner loop. This module provides [`exp_exact`] and its
//! four-wide twin [`exp_exact4`], which return **the same bits** as
//! [`f64::exp`] while being inlineable and (in the 4-wide form)
//! autovectorizable, so the batched path keeps the scalar parity
//! contract without paying a libm call per node per lane.
//!
//! # Why this is bit-exact and not merely accurate
//!
//! `f64::exp` on this target resolves to the table-driven exponential
//! from the ARM optimized-routines family (adopted by glibc ≥ 2.28 and
//! LLVM's libm): a 128-entry `2^(i/128)` table plus a degree-5
//! polynomial in the reduced argument, with every step either exact in
//! binary64 or fused. [`exp_exact`] reimplements **that exact
//! algorithm** — same table (re-derived below and pinned by test
//! against `f64::exp` over millions of samples), same constants, same
//! operation-and-rounding sequence, with each fused step expressed as
//! [`f64::mul_add`]. `mul_add` is specified as a single correctly
//! rounded operation, so the sequence rounds identically whether it
//! lowers to a hardware FMA or libm's software `fma` — the result does
//! not depend on the target CPU.
//!
//! Inputs outside the main path's exponent window — `|x|` below ~2⁻⁵⁴
//! (where `exp(x)` is 1 ± ulp) or above ~512 (approaching
//! overflow/underflow, handled by libm's special paths) — fall back to
//! [`f64::exp`] itself, keeping exactness trivially. The leakage
//! arguments the hot loop produces (`|x| ≤ ~4`) sit squarely in the
//! main path.

/// `N / ln 2` with `N = 128`: scales `x` so the integer part of
/// `x·INVLN2N` selects the table entry and exponent increment.
const INVLN2N: f64 = 184.6649652337873;
/// High part of `−ln 2 / N`, used to reconstruct the reduced argument.
const NEGLN2HIN: f64 = -5.415212348111709e-3;
/// Low (tail) part of `−ln 2 / N`.
const NEGLN2LON: f64 = -1.2864023111638346e-14;
/// Degree-5 polynomial coefficients for `expm1(r)/r` on the reduced
/// interval (C0 = C1 = 1 are implicit in the evaluation shape).
const C2: f64 = 0.49999999999996786;
const C3: f64 = 0.16666666666665886;
const C4: f64 = 0.0416666808410674;
const C5: f64 = 0.008333335853059549;
/// `0x1.8p52`: adding it forces round-to-nearest-integer in the low
/// mantissa bits, the branchless float→int trick the algorithm rests on.
const SHIFT: f64 = 6755399441055744.0;

/// The 128-entry `2^(i/128)` table as (tail, top-bits) pairs:
/// `TAB[2i]` is the tail correction, `TAB[2i + 1]` the scale whose
/// exponent field the quotient's integer part is added into.
static TAB: [u64; 256] = [
    0x0000000000000000,
    0x3FF0000000000000,
    0x3C9B3B4F1A88BF6E,
    0x3FEFF63DA9FB3335,
    0xBC7160139CD8DC5D,
    0x3FEFEC9A3E778061,
    0xBC905E7A108766D1,
    0x3FEFE315E86E7F85,
    0x3C8CD2523567F613,
    0x3FEFD9B0D3158574,
    0xBC8BCE8023F98EFA,
    0x3FEFD06B29DDF6DE,
    0x3C60F74E61E6C861,
    0x3FEFC74518759BC8,
    0x3C90A3E45B33D399,
    0x3FEFBE3ECAC6F383,
    0x3C979AA65D837B6D,
    0x3FEFB5586CF9890F,
    0x3C8EB51A92FDEFFC,
    0x3FEFAC922B7247F7,
    0x3C3EBE3D702F9CD1,
    0x3FEFA3EC32D3D1A2,
    0xBC6A033489906E0B,
    0x3FEF9B66AFFED31B,
    0xBC9556522A2FBD0E,
    0x3FEF9301D0125B51,
    0xBC5080EF8C4EEA55,
    0x3FEF8ABDC06C31CC,
    0xBC91C923B9D5F416,
    0x3FEF829AAEA92DE0,
    0x3C80D3E3E95C55AF,
    0x3FEF7A98C8A58E51,
    0xBC801B15EAA59348,
    0x3FEF72B83C7D517B,
    0xBC8F1FF055DE323D,
    0x3FEF6AF9388C8DEA,
    0x3C8B898C3F1353BF,
    0x3FEF635BEB6FCB75,
    0xBC96D99C7611EB26,
    0x3FEF5BE084045CD4,
    0x3C9AECF73E3A2F60,
    0x3FEF54873168B9AA,
    0xBC8FE782CB86389D,
    0x3FEF4D5022FCD91D,
    0x3C8A6F4144A6C38D,
    0x3FEF463B88628CD6,
    0x3C807A05B0E4047D,
    0x3FEF3F49917DDC96,
    0x3C968EFDE3A8A894,
    0x3FEF387A6E756238,
    0x3C875E18F274487D,
    0x3FEF31CE4FB2A63F,
    0x3C80472B981FE7F2,
    0x3FEF2B4565E27CDD,
    0xBC96B87B3F71085E,
    0x3FEF24DFE1F56381,
    0x3C82F7E16D09AB31,
    0x3FEF1E9DF51FDEE1,
    0xBC3D219B1A6FBFFA,
    0x3FEF187FD0DAD990,
    0x3C8B3782720C0AB4,
    0x3FEF1285A6E4030B,
    0x3C6E149289CECB8F,
    0x3FEF0CAFA93E2F56,
    0x3C834D754DB0ABB6,
    0x3FEF06FE0A31B715,
    0x3C864201E2AC744C,
    0x3FEF0170FC4CD831,
    0x3C8FDD395DD3F84A,
    0x3FEEFC08B26416FF,
    0xBC86A3803B8E5B04,
    0x3FEEF6C55F929FF1,
    0xBC924AEDCC4B5068,
    0x3FEEF1A7373AA9CB,
    0xBC9907F81B512D8E,
    0x3FEEECAE6D05D866,
    0xBC71D1E83E9436D2,
    0x3FEEE7DB34E59FF7,
    0xBC991919B3CE1B15,
    0x3FEEE32DC313A8E5,
    0x3C859F48A72A4C6D,
    0x3FEEDEA64C123422,
    0xBC9312607A28698A,
    0x3FEEDA4504AC801C,
    0xBC58A78F4817895B,
    0x3FEED60A21F72E2A,
    0xBC7C2C9B67499A1B,
    0x3FEED1F5D950A897,
    0x3C4363ED60C2AC11,
    0x3FEECE086061892D,
    0x3C9666093B0664EF,
    0x3FEECA41ED1D0057,
    0x3C6ECCE1DAA10379,
    0x3FEEC6A2B5C13CD0,
    0x3C93FF8E3F0F1230,
    0x3FEEC32AF0D7D3DE,
    0x3C7690CEBB7AAFB0,
    0x3FEEBFDAD5362A27,
    0x3C931DBDEB54E077,
    0x3FEEBCB299FDDD0D,
    0xBC8F94340071A38E,
    0x3FEEB9B2769D2CA7,
    0xBC87DECCDC93A349,
    0x3FEEB6DAA2CF6642,
    0xBC78DEC6BD0F385F,
    0x3FEEB42B569D4F82,
    0xBC861246EC7B5CF6,
    0x3FEEB1A4CA5D920F,
    0x3C93350518FDD78E,
    0x3FEEAF4736B527DA,
    0x3C7B98B72F8A9B05,
    0x3FEEAD12D497C7FD,
    0x3C9063E1E21C5409,
    0x3FEEAB07DD485429,
    0x3C34C7855019C6EA,
    0x3FEEA9268A5946B7,
    0x3C9432E62B64C035,
    0x3FEEA76F15AD2148,
    0xBC8CE44A6199769F,
    0x3FEEA5E1B976DC09,
    0xBC8C33C53BEF4DA8,
    0x3FEEA47EB03A5585,
    0xBC845378892BE9AE,
    0x3FEEA34634CCC320,
    0xBC93CEDD78565858,
    0x3FEEA23882552225,
    0x3C5710AA807E1964,
    0x3FEEA155D44CA973,
    0xBC93B3EFBF5E2228,
    0x3FEEA09E667F3BCD,
    0xBC6A12AD8734B982,
    0x3FEEA012750BDABF,
    0xBC6367EFB86DA9EE,
    0x3FEE9FB23C651A2F,
    0xBC80DC3D54E08851,
    0x3FEE9F7DF9519484,
    0xBC781F647E5A3ECF,
    0x3FEE9F75E8EC5F74,
    0xBC86EE4AC08B7DB0,
    0x3FEE9F9A48A58174,
    0xBC8619321E55E68A,
    0x3FEE9FEB564267C9,
    0x3C909CCB5E09D4D3,
    0x3FEEA0694FDE5D3F,
    0xBC7B32DCB94DA51D,
    0x3FEEA11473EB0187,
    0x3C94ECFD5467C06B,
    0x3FEEA1ED0130C132,
    0x3C65EBE1ABD66C55,
    0x3FEEA2F336CF4E62,
    0xBC88A1C52FB3CF42,
    0x3FEEA427543E1A12,
    0xBC9369B6F13B3734,
    0x3FEEA589994CCE13,
    0xBC805E843A19FF1E,
    0x3FEEA71A4623C7AD,
    0xBC94D450D872576E,
    0x3FEEA8D99B4492ED,
    0x3C90AD675B0E8A00,
    0x3FEEAAC7D98A6699,
    0x3C8DB72FC1F0EAB4,
    0x3FEEACE5422AA0DB,
    0xBC65B6609CC5E7FF,
    0x3FEEAF3216B5448C,
    0x3C7BF68359F35F44,
    0x3FEEB1AE99157736,
    0xBC93091FA71E3D83,
    0x3FEEB45B0B91FFC6,
    0xBC5DA9B88B6C1E29,
    0x3FEEB737B0CDC5E5,
    0xBC6C23F97C90B959,
    0x3FEEBA44CBC8520F,
    0xBC92434322F4F9AA,
    0x3FEEBD829FDE4E50,
    0xBC85CA6CD7668E4B,
    0x3FEEC0F170CA07BA,
    0x3C71AFFC2B91CE27,
    0x3FEEC49182A3F090,
    0x3C6DD235E10A73BB,
    0x3FEEC86319E32323,
    0xBC87C50422622263,
    0x3FEECC667B5DE565,
    0x3C8B1C86E3E231D5,
    0x3FEED09BEC4A2D33,
    0xBC91BBD1D3BCBB15,
    0x3FEED503B23E255D,
    0x3C90CC319CEE31D2,
    0x3FEED99E1330B358,
    0x3C8469846E735AB3,
    0x3FEEDE6B5579FDBF,
    0xBC82DFCD978E9DB4,
    0x3FEEE36BBFD3F37A,
    0x3C8C1A7792CB3387,
    0x3FEEE89F995AD3AD,
    0xBC907B8F4AD1D9FA,
    0x3FEEEE07298DB666,
    0xBC55C3D956DCAEBA,
    0x3FEEF3A2B84F15FB,
    0xBC90A40E3DA6F640,
    0x3FEEF9728DE5593A,
    0xBC68D6F438AD9334,
    0x3FEEFF76F2FB5E47,
    0xBC91EEE26B588A35,
    0x3FEF05B030A1064A,
    0x3C74FFD70A5FDDCD,
    0x3FEF0C1E904BC1D2,
    0xBC91BDFBFA9298AC,
    0x3FEF12C25BD71E09,
    0x3C736EAE30AF0CB3,
    0x3FEF199BDD85529C,
    0x3C8EE3325C9FFD94,
    0x3FEF20AB5FFFD07A,
    0x3C84E08FD10959AC,
    0x3FEF27F12E57D14B,
    0x3C63CDAF384E1A67,
    0x3FEF2F6D9406E7B5,
    0x3C676B2C6C921968,
    0x3FEF3720DCEF9069,
    0xBC808A1883CCB5D2,
    0x3FEF3F0B555DC3FA,
    0xBC8FAD5D3FFFFA6F,
    0x3FEF472D4A07897C,
    0xBC900DAE3875A949,
    0x3FEF4F87080D89F2,
    0x3C74A385A63D07A7,
    0x3FEF5818DCFBA487,
    0xBC82919E2040220F,
    0x3FEF60E316C98398,
    0x3C8E5A50D5C192AC,
    0x3FEF69E603DB3285,
    0x3C843A59AC016B4B,
    0x3FEF7321F301B460,
    0xBC82D52107B43E1F,
    0x3FEF7C97337B9B5F,
    0xBC892AB93B470DC9,
    0x3FEF864614F5A129,
    0x3C74B604603A88D3,
    0x3FEF902EE78B3FF6,
    0x3C83C5EC519D7271,
    0x3FEF9A51FBC74C83,
    0xBC8FF7128FD391F0,
    0x3FEFA4AFA2A490DA,
    0xBC8DAE98E223747D,
    0x3FEFAF482D8E67F1,
    0x3C8EC3BC41AA2008,
    0x3FEFBA1BEE615A27,
    0x3C842B94C3A9EB32,
    0x3FEFC52B376BBA97,
    0x3C8A64A931D185EE,
    0x3FEFD0765B6E4540,
    0xBC8E37BAE43BE3ED,
    0x3FEFDBFDAD9CBE14,
    0x3C77893B4D91CD9D,
    0x3FEFE7C1819E90D8,
    0x3C5305C14160CC89,
    0x3FEFF3C22B8F71F1,
];

/// `true` when `x`'s biased exponent sits in the window the table path
/// handles: roughly `2^-54 ≤ |x| < 512`. Everything outside defers to
/// libm (near-1 results, overflow/underflow and non-finite specials).
#[inline]
fn main_path_ok(x: f64) -> bool {
    let abstop = ((x.to_bits() >> 52) & 0x7ff) as u32;
    abstop.wrapping_sub(969) < 63
}

/// `e^x` with **exactly** the bits of [`f64::exp`] — see the module
/// docs for why the equality holds on every target.
#[inline]
pub fn exp_exact(x: f64) -> f64 {
    if !main_path_ok(x) {
        return x.exp();
    }
    let z = INVLN2N * x;
    let kd = z + SHIFT;
    let ki = kd.to_bits();
    let kd = kd - SHIFT;
    let r = kd.mul_add(NEGLN2LON, kd.mul_add(NEGLN2HIN, x));
    let idx = ((ki & 127) * 2) as usize;
    let tail = f64::from_bits(TAB[idx]);
    let sbits = TAB[idx + 1].wrapping_add(ki << 45);
    let r2 = r * r;
    let p1 = r.mul_add(C3, C2);
    let p2 = r.mul_add(C5, C4);
    let tmp = (r2 * r2).mul_add(p2, r2.mul_add(p1, tail + r));
    let scale = f64::from_bits(sbits);
    scale.mul_add(tmp, scale)
}

/// `N` [`exp_exact`]s in lockstep: per lane the identical operation
/// sequence (so identical bits), laid out as straight-line array code
/// the autovectorizer lowers to packed FMAs. The block width is pure
/// schedule — each lane's arithmetic never sees its neighbours — so
/// any `N` produces the same per-lane bits; wider blocks simply give
/// the out-of-order core several independent copies of the serial
/// polynomial FMA chain to overlap. Any lane outside the main path
/// sends the whole block down the scalar-with-fallback route — still
/// bit-exact, just unvectorized for that rare block.
#[inline(always)]
pub fn exp_exact_block<const N: usize>(x: [f64; N]) -> [f64; N] {
    if !x.iter().all(|&v| main_path_ok(v)) {
        return exp_exact_each(x);
    }
    let mut kd = [0.0f64; N];
    let mut ki = [0u64; N];
    let mut r = [0.0f64; N];
    let mut tail = [0.0f64; N];
    let mut scale = [0.0f64; N];
    for i in 0..N {
        kd[i] = INVLN2N * x[i] + SHIFT;
    }
    for i in 0..N {
        ki[i] = kd[i].to_bits();
    }
    for k in &mut kd {
        *k -= SHIFT;
    }
    for i in 0..N {
        r[i] = kd[i].mul_add(NEGLN2LON, kd[i].mul_add(NEGLN2HIN, x[i]));
    }
    for i in 0..N {
        let idx = ((ki[i] & 127) * 2) as usize;
        tail[i] = f64::from_bits(TAB[idx]);
        scale[i] = f64::from_bits(TAB[idx + 1].wrapping_add(ki[i] << 45));
    }
    let mut out = [0.0f64; N];
    for i in 0..N {
        let r2 = r[i] * r[i];
        let p1 = r[i].mul_add(C3, C2);
        let p2 = r[i].mul_add(C5, C4);
        let tmp = (r2 * r2).mul_add(p2, r2.mul_add(p1, tail[i] + r[i]));
        out[i] = scale[i].mul_add(tmp, scale[i]);
    }
    out
}

/// The block fallback: every lane through [`exp_exact`]. Kept out of
/// line and cold so inlining it never costs the vector path registers,
/// whichever caller the block is inlined into.
#[cold]
#[inline(never)]
fn exp_exact_each<const N: usize>(x: [f64; N]) -> [f64; N] {
    x.map(exp_exact)
}

/// Four [`exp_exact`]s in lockstep — [`exp_exact_block`] at the SIMD
/// base width.
#[inline(always)]
pub fn exp_exact4(x: [f64; 4]) -> [f64; 4] {
    exp_exact_block(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fixed-seed LCG so the sweep is dense, reproducible and fast.
    struct Lcg(u64);
    impl Lcg {
        fn next_f64(&mut self, span: f64) -> f64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((self.0 >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * span
        }
    }

    #[test]
    fn matches_libm_bitwise_on_dense_grid() {
        // Dense uniform sweep of the leakage-relevant domain plus the
        // main-path edges; every value must agree with libm exactly.
        let mut checked = 0u64;
        let mut x = -10.0f64;
        while x <= 10.0 {
            assert_eq!(
                exp_exact(x).to_bits(),
                x.exp().to_bits(),
                "exp_exact({x}) != libm"
            );
            checked += 1;
            x += 1.9073486328125e-6; // 2^-19: ~10.5M points
        }
        assert!(checked > 10_000_000);
    }

    #[test]
    fn matches_libm_bitwise_on_random_and_special_inputs() {
        let mut rng = Lcg(0x9E3779B97F4A7C15);
        for _ in 0..2_000_000 {
            let x = rng.next_f64(16.0);
            assert_eq!(exp_exact(x).to_bits(), x.exp().to_bits());
        }
        // Out-of-window and special values ride the libm fallback.
        for x in [
            0.0,
            -0.0,
            1e-30,
            -1e-30,
            700.0,
            -700.0,
            1e308,
            -1e308,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            assert_eq!(exp_exact(x).to_bits(), x.exp().to_bits(), "special {x}");
        }
        assert!(exp_exact(f64::NAN).is_nan());
    }

    #[test]
    fn four_wide_matches_scalar_bitwise() {
        let mut rng = Lcg(0xD1B54A32D192ED03);
        for _ in 0..500_000 {
            let x = [
                rng.next_f64(12.0),
                rng.next_f64(12.0),
                rng.next_f64(12.0),
                rng.next_f64(12.0),
            ];
            let v = exp_exact4(x);
            for (lane, (&xi, vi)) in x.iter().zip(v).enumerate() {
                assert_eq!(vi.to_bits(), xi.exp().to_bits(), "lane {lane} x={xi}");
            }
        }
        // A mixed block (one lane outside the window) must still be
        // exact in every lane.
        let x = [1e-40, -2.5, 0.75, 3.25];
        let v = exp_exact4(x);
        for (lane, (&xi, vi)) in x.iter().zip(v).enumerate() {
            assert_eq!(vi.to_bits(), xi.exp().to_bits(), "mixed lane {lane}");
        }
    }
}
