//! The wire's float writer: the shortest text that parses back to the
//! same `f64`, in exactly the bytes Rust's `{:?}` writes, with no
//! `core::fmt` on the way.
//!
//! The digits come from Ryū (Ulf Adams, "Ryū: fast float-to-string
//! conversion", PLDI 2018). A float `x = m·2^e` rounds back from any
//! decimal strictly inside the interval between its halfway points to
//! its two neighbours (and from the halfway points themselves when `m` is
//! even, since parsing rounds half to even). One multiplication by a
//! 128-bit power of five turns the interval's bounds into 64-bit decimal
//! integers; digits are then dropped from them while the bounds still
//! differ, and the remaining prefix of `x`'s own decimal expansion,
//! rounded, is the answer. The layout is `{:?}`'s:
//!
//! - decimal form when `1e-4 ≤ |x| < 1e16` or `x == 0`, else exponent
//!   form (`1e16`, `1.5e-5`, `5e-324`);
//! - an integral decimal ends in `.0` (`1.0`, `1000000000000000.0`);
//! - a negative zero is `-0.0`;
//! - a value that is not finite is `null`, which JSON can carry and `inf`
//!   or `NaN` are not.
//!
//! An exact tie between the two candidates of the shortest length rounds
//! half up, as `{:?}` does, where reference Ryū rounds it half to even.
//! Both texts parse back to the same bits, so only a byte comparison with
//! `{:?}` tells them apart: 2⁻²⁵ is `2.9802322387695313e-8` here and in
//! `{:?}`, `2.9802322387695312e-8` in reference Ryū. Rounding half up
//! needs no record of whether the dropped digits were exact, so the
//! writer keeps none.
//!
//! `{:?}` stays as the test oracle: the unit tests at the end of this
//! file compare the bytes of both writers over 10⁸ seeded random floats
//! (a prefix of the same stream in a debug build) and over the boundary
//! values of every layout rule. The power-of-five tables are committed,
//! and a test regenerates every entry with a test-only bigint.

use std::str;

/// An upper bound on the text [`push_f64`] writes for one value: the
/// longest is 24 bytes (`-2.2250738585072014e-308`: a sign, 17 digits, a
/// point and `e-308`), and `null` is shorter.
pub(super) const F64_TEXT_MAX: usize = 24;

/// The stack buffer [`push_f64`] lays a float out in: the longest text,
/// and room past it for the fixed 16-byte move that opens a gap for the
/// decimal point.
const FLOAT_BUFFER: usize = F64_TEXT_MAX + 16;

/// The widest `u64` in decimal digits.
const U64_TEXT_MAX: usize = 20;

/// Stored bits of an `f64` mantissa (the leading one is implicit).
const MANTISSA_BITS: u32 = 52;

/// The `f64` exponent bias.
const EXPONENT_BIAS: i32 = 1023;

/// The width of every table entry: `POW5_SPLIT[i]` is 5^i scaled to
/// exactly this many bits, and `POW5_INV_SPLIT[i]` is
/// `⌊2^(⌊log₂ 5^i⌋ + POW5_BITS) / 5^i⌋ + 1`.
const POW5_BITS: i32 = 125;

/// `"00"`, `"01"`, …, `"99"`: the digit pairs [`write_digits`] copies.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// Writes `x` so that parsing it back yields the identical float, in the
/// bytes of `{x:?}` (shortest round-trip digits; integral values get a
/// `.0`), or `null` when `x` is infinite or NaN, which JSON cannot spell.
/// The protocol's one float writer: responses and `zeroconf-client`'s
/// request frames both go through it. It builds the text in a stack
/// buffer and appends it with one `push_str`.
pub fn push_f64(out: &mut String, x: f64) {
    let mut text = [b'0'; FLOAT_BUFFER];
    let len = write_f64(&mut text, x);
    push_ascii(out, &text[..len]);
}

/// Writes `n` in decimal, the bytes of `{n}`.
pub(super) fn push_u64(out: &mut String, n: u64) {
    let mut text = [0; U64_TEXT_MAX];
    let len = decimal_length(n);
    write_digits(&mut text[..len], n);
    push_ascii(out, &text[..len]);
}

/// Appends text the writers built. It is ASCII, so it is always UTF-8.
fn push_ascii(out: &mut String, text: &[u8]) {
    if let Ok(text) = str::from_utf8(text) {
        out.push_str(text);
    }
}

/// Lays `x` out in `text` as `{x:?}` does (or as `null`) and returns the
/// length written. `text` starts as all `'0'`, so runs of zeros are never
/// written.
fn write_f64(text: &mut [u8; FLOAT_BUFFER], x: f64) -> usize {
    if !x.is_finite() {
        text[..4].copy_from_slice(b"null");
        return 4;
    }
    let bits = x.to_bits();
    let sign = usize::from(x.is_sign_negative());
    // Written either way: a value that is not negative writes over it.
    text[0] = b'-';
    let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let ieee_exponent = (bits >> MANTISSA_BITS) as u32 & 0x7ff;
    if ieee_mantissa == 0 && ieee_exponent == 0 {
        text[sign..sign + 3].copy_from_slice(b"0.0");
        return sign + 3;
    }
    let (digits, exponent) = shortest(ieee_mantissa, ieee_exponent);
    let len = decimal_length(digits);
    // x = 0.d₁d₂…d_len × 10^point.
    let point = exponent + len as i32;
    if !(1e-4..1e16).contains(&x.abs()) {
        // d₁[.d₂…d_len]e[-]k with k = point − 1: the digits go one place
        // right, then d₁ moves left over the sign's neighbour and the
        // point takes its place.
        write_digits(&mut text[sign + 1..sign + 1 + len], digits);
        text[sign] = text[sign + 1];
        let mut at = sign + 1;
        if len > 1 {
            text[at] = b'.';
            at += len;
        }
        text[at] = b'e';
        at += 1;
        let k = point - 1;
        if k < 0 {
            text[at] = b'-';
            at += 1;
        }
        let k = u64::from(k.unsigned_abs());
        let k_len = decimal_length(k);
        write_digits(&mut text[at..at + k_len], k);
        at + k_len
    } else if point <= 0 {
        // 0.[0…0]d₁…d_len, at most three zeros since |x| ≥ 1e-4.
        text[sign..sign + 2].copy_from_slice(b"0.");
        let start = sign + 2 + point.unsigned_abs() as usize;
        write_digits(&mut text[start..start + len], digits);
        start + len
    } else if (point as usize) < len {
        // d₁…d_point.d_point+1…d_len: the fraction, at most 16 digits,
        // moves one place right in one fixed-size copy.
        let point = sign + point as usize;
        write_digits(&mut text[sign..sign + len], digits);
        text.copy_within(point..point + 16, point + 1);
        text[point] = b'.';
        sign + len + 1
    } else {
        // d₁…d_len[0…0].0, at most 16 places since |x| < 1e16.
        let point = sign + point as usize;
        write_digits(&mut text[sign..sign + len], digits);
        text[point] = b'.';
        point + 2
    }
}

/// The shortest decimal `digits × 10^exponent` that reads back as the
/// finite, nonzero `f64` with these fields, nearest the float's exact
/// value among the decimals of that length, an exact tie rounding up
/// (Ryū's `d2d`, with the tie rule of `{:?}`).
fn shortest(ieee_mantissa: u64, ieee_exponent: u32) -> (u64, i32) {
    // The float is mv·2^e2 and its rounding interval runs from mm·2^e2
    // to mp·2^e2: the factor of 4 makes the halfway points integers.
    let (m2, e2) = if ieee_exponent == 0 {
        (ieee_mantissa, 1 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2)
    } else {
        (
            ieee_mantissa | 1 << MANTISSA_BITS,
            ieee_exponent as i32 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2,
        )
    };
    let accept_bounds = m2 & 1 == 0;
    let mv = 4 * m2;
    // At a power of two the gap below is half the gap above, except at
    // the smallest normal, whose neighbour below is a subnormal.
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);
    let (mm, mp) = (mv - 1 - mm_shift, mv + 2);

    // Scale all three by 2^e2 / 10^e10, one digit short of where the
    // bounds would meet, so that the loops below drop at least one digit
    // and see the first one they drop. vm is exact (its dropped digits
    // were all zero) only when the scaled lower bound is a multiple of
    // 10^q; an exact vm is a candidate when bounds are accepted.
    let (mut vr, mut vp, mut vm, e10);
    let mut vm_is_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let shift = -e2 + q as i32 + POW5_BITS + pow5_bits(q) - 1;
        let mul = POW5_INV_SPLIT[q as usize];
        (vr, vp, vm) = (
            mul_shift(mv, mul, shift),
            mul_shift(mp, mul, shift),
            mul_shift(mm, mul, shift),
        );
        // 2^e2 already holds the q twos (q ≤ e2), so a bound is exact
        // when it holds q fives.
        if accept_bounds {
            vm_is_trailing_zeros = multiple_of_power_of_5(mm, q);
        } else {
            vp -= u64::from(multiple_of_power_of_5(mp, q));
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = (-e2) as u32 - q;
        let shift = q as i32 - (pow5_bits(i) - POW5_BITS);
        let mul = POW5_SPLIT[i as usize];
        (vr, vp, vm) = (
            mul_shift(mv, mul, shift),
            mul_shift(mp, mul, shift),
            mul_shift(mm, mul, shift),
        );
        // 5^-e2 already holds the q fives, so the bounds are exact when
        // they hold q twos: mp always holds one, mm exactly when
        // mm_shift is 1.
        if q <= 1 {
            if accept_bounds {
                vm_is_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the bounds still differ. Rounding on the first
    // dropped digit alone, `≥ 5` up, is `{:?}`'s half-up tie rule.
    let mut removed = 0;
    let digits = if vm_is_trailing_zeros {
        // Rare: the lower bound is an exact decimal the output may equal,
        // so digits go on being dropped while it ends in zero.
        let mut last_removed = 0;
        while vp / 10 > vm / 10 {
            vm_is_trailing_zeros &= vm % 10 == 0;
            last_removed = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        if vm_is_trailing_zeros {
            while vm % 10 == 0 {
                last_removed = vr % 10;
                (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
                removed += 1;
            }
        }
        vr + u64::from((vr == vm && !vm_is_trailing_zeros) || last_removed >= 5)
    } else {
        let mut round_up = false;
        if vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            (vr, vp, vm) = (vr / 100, vp / 100, vm / 100);
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        // vm lies below the interval here: a vr equal to it steps up.
        vr + u64::from(vr == vm || round_up)
    };
    (digits, e10 + removed)
}

/// `⌊m · mul / 2^shift⌋` for `m < 2^55` and `shift ≥ 64`, from two
/// 64 × 64-bit products.
fn mul_shift(m: u64, mul: u128, shift: i32) -> u64 {
    let low = u128::from(m) * u128::from(mul as u64);
    let high = u128::from(m) * u128::from((mul >> 64) as u64);
    (((low >> 64) + high) >> (shift - 64)) as u64
}

/// The bit length of 5^e, `⌊log₂ 5^e⌋ + 1`, for `e ≤ 3528`.
fn pow5_bits(e: u32) -> i32 {
    ((e * 1_217_359) >> 19) as i32 + 1
}

/// `⌊log₁₀ 2^e⌋` for `0 ≤ e ≤ 1650`.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// `⌊log₁₀ 5^e⌋` for `0 ≤ e ≤ 2620`.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

/// Whether 5^p divides `value`.
fn multiple_of_power_of_5(mut value: u64, p: u32) -> bool {
    let mut fives = 0;
    while fives < p && value.is_multiple_of(5) {
        value /= 5;
        fives += 1;
    }
    fives == p
}

/// The number of decimal digits of `n` (1 for 0).
fn decimal_length(n: u64) -> usize {
    n.checked_ilog10().map_or(1, |log| log as usize + 1)
}

/// Writes the last `text.len()` decimal digits of `n` into `text`, two at
/// a time from the right.
fn write_digits(text: &mut [u8], mut n: u64) {
    let mut end = text.len();
    while end >= 2 {
        let pair = (n % 100) as usize * 2;
        text[end - 2..end].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        n /= 100;
        end -= 2;
    }
    if end == 1 {
        text[0] = b'0' + (n % 10) as u8;
    }
}

/// 5^i scaled to [`POW5_BITS`] bits (truncated), for the negative binary
/// exponents: entry `-e2 - q`.
const POW5_SPLIT: [u128; 326] = [
    0x1000000000000000_0000000000000000,
    0x1400000000000000_0000000000000000,
    0x1900000000000000_0000000000000000,
    0x1f40000000000000_0000000000000000,
    0x1388000000000000_0000000000000000,
    0x186a000000000000_0000000000000000,
    0x1e84800000000000_0000000000000000,
    0x1312d00000000000_0000000000000000,
    0x17d7840000000000_0000000000000000,
    0x1dcd650000000000_0000000000000000,
    0x12a05f2000000000_0000000000000000,
    0x174876e800000000_0000000000000000,
    0x1d1a94a200000000_0000000000000000,
    0x12309ce540000000_0000000000000000,
    0x16bcc41e90000000_0000000000000000,
    0x1c6bf52634000000_0000000000000000,
    0x11c37937e0800000_0000000000000000,
    0x16345785d8a00000_0000000000000000,
    0x1bc16d674ec80000_0000000000000000,
    0x1158e460913d0000_0000000000000000,
    0x15af1d78b58c4000_0000000000000000,
    0x1b1ae4d6e2ef5000_0000000000000000,
    0x10f0cf064dd59200_0000000000000000,
    0x152d02c7e14af680_0000000000000000,
    0x1a784379d99db420_0000000000000000,
    0x108b2a2c28029094_0000000000000000,
    0x14adf4b7320334b9_0000000000000000,
    0x19d971e4fe8401e7_4000000000000000,
    0x1027e72f1f128130_8800000000000000,
    0x1431e0fae6d7217c_aa00000000000000,
    0x193e5939a08ce9db_d480000000000000,
    0x1f8def8808b02452_c9a0000000000000,
    0x13b8b5b5056e16b3_be04000000000000,
    0x18a6e32246c99c60_ad85000000000000,
    0x1ed09bead87c0378_d8e6400000000000,
    0x13426172c74d822b_878fe80000000000,
    0x1812f9cf7920e2b6_6973e20000000000,
    0x1e17b84357691b64_03d0da8000000000,
    0x12ced32a16a1b11e_8262889000000000,
    0x178287f49c4a1d66_22fb2ab400000000,
    0x1d6329f1c35ca4bf_abb9f56100000000,
    0x125dfa371a19e6f7_cb54395ca0000000,
    0x16f578c4e0a060b5_be2947b3c8000000,
    0x1cb2d6f618c878e3_2db399a0ba000000,
    0x11efc659cf7d4b8d_fc90400474400000,
    0x166bb7f0435c9e71_7bb4500591500000,
    0x1c06a5ec5433c60d_daa16406f5a40000,
    0x118427b3b4a05bc8_a8a4de8459868000,
    0x15e531a0a1c872ba_d2ce16256fe82000,
    0x1b5e7e08ca3a8f69_87819baecbe22800,
    0x111b0ec57e6499a1_f4b1014d3f6d5900,
    0x1561d276ddfdc00a_71dd41a08f48af40,
    0x1aba4714957d300d_0e549208b31adb10,
    0x10b46c6cdd6e3e08_28f4db456ff0c8ea,
    0x14e1878814c9cd8a_33321216cbecfb24,
    0x1a19e96a19fc40ec_bffe969c7ee839ed,
    0x105031e2503da893_f7ff1e21cf512434,
    0x14643e5ae44d12b8_f5fee5aa43256d41,
    0x197d4df19d605767_337e9f14d3eec892,
    0x1fdca16e04b86d41_005e46da08ea7ab6,
    0x13e9e4e4c2f34448_a03aec4845928cb2,
    0x18e45e1df3b0155a_c849a75a56f72fde,
    0x1f1d75a5709c1ab1_7a5c1130ecb4fbd6,
    0x13726987666190ae_ec798abe93f11d65,
    0x184f03e93ff9f4da_a797ed6e38ed64bf,
    0x1e62c4e38ff87211_517de8c9c728bdef,
    0x12fdbb0e39fb474a_d2eeb17e1c7976b5,
    0x17bd29d1c87a191d_87aa5ddda397d462,
    0x1dac74463a989f64_e994f5550c7dc97b,
    0x128bc8abe49f639f_11fd195527ce9ded,
    0x172ebad6ddc73c86_d67c5faa71c24568,
    0x1cfa698c95390ba8_8c1b77950e32d6c2,
    0x121c81f7dd43a749_57912abd28dfc639,
    0x16a3a275d494911b_ad75756c7317b7c8,
    0x1c4c8b1349b9b562_98d2d2c78fdda5ba,
    0x11afd6ec0e14115d_9f83c3bcb9ea8794,
    0x161bcca7119915b5_0764b4abe8652979,
    0x1ba2bfd0d5ff5b22_493de1d6e27e73d7,
    0x1145b7e285bf98f5_6dc6ad264d8f0866,
    0x159725db272f7f32_c938586fe0f2ca80,
    0x1afcef51f0fb5eff_7b866e8bd92f7d20,
    0x10de1593369d1b5f_ad34051767bdae34,
    0x15159af804446237_9881065d41ad19c1,
    0x1a5b01b605557ac5_7ea147f492186032,
    0x1078e111c3556cbb_6f24ccf8db4f3c1f,
    0x14971956342ac7ea_4aee003712230b27,
    0x19bcdfabc13579e4_dda98044d6abcdf0,
    0x10160bcb58c16c2f_0a89f02b062b60b6,
    0x141b8ebe2ef1c73a_cd2c6c35c7b638e4,
    0x1922726dbaae3909_8077874339a3c71d,
    0x1f6b0f092959c74b_e0956914080cb8e4,
    0x13a2e965b9d81c8f_6c5d61ac8507f38e,
    0x188ba3bf284e23b3_4774ba17a649f072,
    0x1eae8caef261aca0_1951e89d8fdc6c8f,
    0x132d17ed577d0be4_0fd3316279e9c3d9,
    0x17f85de8ad5c4edd_13c7fdbb186434cf,
    0x1df67562d8b36294_58b9fd29de7d4203,
    0x12ba095dc7701d9c_b7743e3a2b0e4942,
    0x17688bb5394c2503_e5514dc8b5d1db92,
    0x1d42aea2879f2e44_dea5a13ae3465277,
    0x1249ad2594c37ceb_0b2784c4ce0bf38a,
    0x16dc186ef9f45c25_cdf165f6018ef06d,
    0x1c931e8ab871732f_416dbf7381f2ac88,
    0x11dbf316b346e7fd_88e497a83137abd5,
    0x1652efdc6018a1fc_eb1dbd923d8596ca,
    0x1be7abd3781eca7c_25e52cf6cce6fc7d,
    0x1170cb642b133e8d_97af3c1a40105dce,
    0x15ccfe3d35d80e30_fd9b0b20d0147542,
    0x1b403dcc834e11bd_3d01cde904199292,
    0x1108269fd210cb16_462120b1a28ffb9b,
    0x154a3047c694fddb_d7a968de0b33fa82,
    0x1a9cbc59b83a3d52_cd93c3158e00f923,
    0x10a1f5b813246653_c07c59ed78c09bb6,
    0x14ca732617ed7fe8_b09b7068d6f0c2a3,
    0x19fd0fef9de8dfe2_dcc24c830cacf34c,
    0x103e29f5c2b18bed_c9f96fd1e7ec180f,
    0x144db473335deee9_3c77cbc661e71e13,
    0x1961219000356aa3_8b95beb7fa60e598,
    0x1fb969f40042c54c_6e7b2e65f8f91efe,
    0x13d3e2388029bb4f_c50cfcffbb9bb35f,
    0x18c8dac6a0342a23_b6503c3faa82a037,
    0x1efb1178484134ac_a3e44b4f95234844,
    0x135ceaeb2d28c0eb_e66eaf11bd360d2b,
    0x183425a5f872f126_e00a5ad62c839075,
    0x1e412f0f768fad70_980cf18bb7a47493,
    0x12e8bd69aa19cc66_5f0816f752c6c8dc,
    0x17a2ecc414a03f7f_f6ca1cb527787b13,
    0x1d8ba7f519c84f5f_f47ca3e2715699d7,
    0x127748f9301d319b_f8cde66d86d62026,
    0x17151b377c247e02_f7016008e88ba830,
    0x1cda62055b2d9d83_b4c1b80b22ae923c,
    0x12087d4358fc8272_50f91306f5ad1b65,
    0x168a9c942f3ba30e_e53757c8b318623f,
    0x1c2d43b93b0a8bd2_9e852dbadfde7acf,
    0x119c4a53c4e69763_a3133c94cbeb0cc1,
    0x16035ce8b6203d3c_8bd80bb9fee5cff1,
    0x1b843422e3a84c8b_aece0ea87e9f43ee,
    0x1132a095ce492fd7_4d40c9294f238a75,
    0x157f48bb41db7bcd_2090fb73a2ec6d12,
    0x1adf1aea12525ac0_68b53a508ba78856,
    0x10cb70d24b7378b8_417144725748b536,
    0x14fe4d06de5056e6_51cd958eed1ae283,
    0x1a3de04895e46c9f_e640faf2a8619b24,
    0x1066ac2d5daec3e3_efe89cd7a93d00f7,
    0x14805738b51a74dc_ebe2c40d938c4134,
    0x19a06d06e2611214_26db7510f86f5181,
    0x100444244d7cab4c_9849292a9b4592f1,
    0x1405552d60dbd61f_be5b73754216f7ad,
    0x1906aa78b912cba7_adf25052929cb598,
    0x1f485516e7577e91_996ee4673743e2ff,
    0x138d352e5096af1a_ffe54ec0828a6ddf,
    0x18708279e4bc5ae1_bfdea270a32d0957,
    0x1e8ca3185deb719a_2fd64b0ccbf84bad,
    0x1317e5ef3ab32700_5de5eee7ff7b2f4c,
    0x17dddf6b095ff0c0_755f6aa1ff59fb1f,
    0x1dd55745cbb7ecf0_92b7454a7f3079e7,
    0x12a5568b9f52f416_5bb28b4e8f7e4c30,
    0x174eac2e8727b11b_f29f2e22335ddf3c,
    0x1d22573a28f19d62_ef46f9aac035570b,
    0x123576845997025d_d58c5c0ab8215667,
    0x16c2d4256ffcc2f5_4aef730d6629ac01,
    0x1c73892ecbfbf3b2_9dab4fd0bfb41701,
    0x11c835bd3f7d784f_a28b11e277d08e60,
    0x163a432c8f5cd663_8b2dd65b15c4b1f9,
    0x1bc8d3f7b3340bfc_6df94bf1db35de77,
    0x115d847ad000877d_c4bbcf772901ab0a,
    0x15b4e5998400a95d_35eac354f34215cd,
    0x1b221effe500d3b4_8365742a30129b40,
    0x10f5535fef208450_d21f689a5e0ba108,
    0x1532a837eae8a565_06a742c0f58e894a,
    0x1a7f5245e5a2cebe_4851137132f22b9d,
    0x108f936baf85c136_ed32ac26bfd75b42,
    0x14b378469b673184_a87f57306fcd3212,
    0x19e056584240fde5_d29f2cfc8bc07e97,
    0x102c35f729689eaf_a3a37c1dd7584f1e,
    0x14374374f3c2c65b_8c8c5b254d2e62e6,
    0x1945145230b377f2_6faf71eea079fb9f,
    0x1f965966bce055ef_0b9b4e6a48987a87,
    0x13bdf7e0360c35b5_674111026d5f4c94,
    0x18ad75d8438f4322_c111554308b71fba,
    0x1ed8d34e547313eb_7155aa93cae4e7a8,
    0x13478410f4c7ec73_26d58a9c5ecf10c9,
    0x1819651531f9e78f_f08aed437682d4fb,
    0x1e1fbe5a7e786173_ecada89454238a3a,
    0x12d3d6f88f0b3ce8_73ec895cb4963664,
    0x1788ccb6b2ce0c22_90e7abb3e1bbc3fd,
    0x1d6affe45f818f2b_352196a0da2ab4fd,
    0x1262dfeebbb0f97b_0134fe24885ab11e,
    0x16fb97ea6a9d37d9_c1823dadaa715d65,
    0x1cba7de5054485d0_31e2cd19150db4bf,
    0x11f48eaf234ad3a2_1f2dc02fad2890f7,
    0x1671b25aec1d888a_a6f9303b9872b535,
    0x1c0e1ef1a724eaad_50b77c4a7e8f6282,
    0x1188d357087712ac_5272adae8f199d91,
    0x15eb082cca94d757_670f591a32e004f6,
    0x1b65ca37fd3a0d2d_40d32f60bf980633,
    0x111f9e62fe44483c_4883fd9c77bf03e0,
    0x156785fbbdd55a4b_5aa4fd0395aec4d8,
    0x1ac1677aad4ab0de_314e3c447b1a760e,
    0x10b8e0acac4eae8a_ded0e5aaccf089c9,
    0x14e718d7d7625a2d_96851f15802cac3b,
    0x1a20df0dcd3af0b8_fc2666dae037d74a,
    0x10548b68a044d673_9d980048cc22e68e,
    0x1469ae42c8560c10_84fe005aff2ba032,
    0x198419d37a6b8f14_a63d8071bef6883e,
    0x1fe52048590672d9_cfcce08e2eb42a4e,
    0x13ef342d37a407c8_21e00c58dd309a70,
    0x18eb0138858d09ba_2a580f6f147cc10d,
    0x1f25c186a6f04c28_b4ee134ad99bf150,
    0x137798f428562f99_7114cc0ec80176d2,
    0x18557f31326bbb7f_cd59ff127a01d486,
    0x1e6adefd7f06aa5f_c0b07ed7188249a8,
    0x1302cb5e6f642a7b_d86e4f466f516e09,
    0x17c37e360b3d351a_ce89e3180b25c98b,
    0x1db45dc38e0c8261_822c5bde0def3bee,
    0x1290ba9a38c7d17c_f15bb96ac8b58575,
    0x1734e940c6f9c5dc_2db2a7c57ae2e6d2,
    0x1d022390f8b83753_391f51b6d99ba086,
    0x1221563a9b732294_03b3931248014454,
    0x16a9abc9424feb39_04a077d6da019569,
    0x1c5416bb92e3e607_45c895cc9081fac3,
    0x11b48e353bce6fc4_8b9d5d9fda513cba,
    0x1621b1c28ac20bb5_ae84b507d0e58be8,
    0x1baa1e332d728ea3_1a25e249c51eeee3,
    0x114a52dffc679925_f057ad6e1b33554d,
    0x159ce797fb817f6f_6c6d98c9a2002aa1,
    0x1b04217dfa61df4b_4788fefc0a803549,
    0x10e294eebc7d2b8f_0cb59f5d8690214e,
    0x151b3a2a6b9c7672_cfe30734e83429a1,
    0x1a6208b50683940f_83dbc9022241340a,
    0x107d457124123c89_b2695da15568c086,
    0x149c96cd6d16cbac_1f03b509aac2f0a7,
    0x19c3bc80c85c7e97_26c4a24c1573acd1,
    0x101a55d07d39cf1e_783ae56f8d684c03,
    0x1420eb449c8842e6_16499ecb70c25f03,
    0x19292615c3aa539f_9bdc067e4cf2f6c4,
    0x1f736f9b3494e887_82d3081de02fb476,
    0x13a825c100dd1154_b1c3e512ac1dd0c9,
    0x18922f31411455a9_de34de57572544fc,
    0x1eb6bafd91596b14_55c215ed2cee963b,
    0x133234de7ad7e2ec_b5994db43c151de5,
    0x17fec216198ddba7_e2ffa1214b1a655e,
    0x1dfe729b9ff15291_dbbf89699de0feb6,
    0x12bf07a143f6d39b_2957b5e202ac9f31,
    0x176ec98994f48881_f3ada35a8357c6fe,
    0x1d4a7bebfa31aaa2_70990c31242db8bd,
    0x124e8d737c5f0aa5_865fa79eb69c9376,
    0x16e230d05b76cd4e_e7f791866443b854,
    0x1c9abd04725480a2_a1f575e7fd54a669,
    0x11e0b622c774d065_a53969b0fe54e801,
    0x1658e3ab7952047f_0e87c41d3dea2202,
    0x1bef1c9657a6859e_d229b5248d64aa82,
    0x117571ddf6c81383_435a1136d85eea91,
    0x15d2ce55747a1864_143095848e76a536,
    0x1b4781ead1989e7d_193cbae5b2144e83,
    0x110cb132c2ff630e_2fc5f4cf8f4cb112,
    0x154fdd7f73bf3bd1_bbb77203731fdd56,
    0x1aa3d4df50af0ac6_2aa54e844fe7d4ac,
    0x10a6650b926d66bb_daa75112b1f0e4eb,
    0x14cffe4e7708c06a_d15125575e6d1e26,
    0x1a03fde214caf085_85a56ead360865b0,
    0x10427ead4cfed653_7387652c41c53f8e,
    0x14531e58a03e8be8_50693e7752368f71,
    0x1967e5eec84e2ee2_64838e1526c4334e,
    0x1fc1df6a7a61ba9a_fda4719a70754022,
    0x13d92ba28c7d14a0_de86c70086494815,
    0x18cf768b2f9c59c9_162878c0a7db9a1a,
    0x1f03542dfb83703b_5bb296f0d1d280a1,
    0x1362149cbd322625_194f9e5683239064,
    0x183a99c3ec7eafae_5fa385ec23ec747e,
    0x1e494034e79e5b99_f78c67672ce7919d,
    0x12edc82110c2f940_3ab7c0a07c10bb02,
    0x17a93a2954f3b790_4965b0c89b14e9c3,
    0x1d9388b3aa30a574_5bbf1cfac1da2433,
    0x127c35704a5e6768_b957721cb92856a0,
    0x171b42cc5cf60142_e7ad4ea3e7726c48,
    0x1ce2137f74338193_a198a24ce14f075a,
    0x120d4c2fa8a030fc_44ff65700cd16498,
    0x16909f3b92c83d3b_563f3ecc1005bdbe,
    0x1c34c70a777a4c8a_2bcf0e7f14072d2e,
    0x11a0fc668aac6fd6_5b61690f6c847c3d,
    0x16093b802d578bcb_f239c35347a59b4c,
    0x1b8b8a6038ad6ebe_eec83428198f021f,
    0x1137367c236c6537_553d20990ff96153,
    0x1585041b2c477e85_2a8c68bf53f7b9a8,
    0x1ae64521f7595e26_752f82ef28f5a812,
    0x10cfeb353a97dad8_093db1d57999890b,
    0x1503e602893dd18e_0b8d1e4ad7ffeb4e,
    0x1a44df832b8d45f1_8e7065dd8dffe622,
    0x106b0bb1fb384bb6_f9063faa78bfefd5,
    0x1485ce9e7a065ea4_b747cf9516efebca,
    0x19a742461887f64d_e519c37a5cabe6bd,
    0x1008896bcf54f9f0_af301a2c79eb7036,
    0x140aabc6c32a386c_dafc20b798664c43,
    0x190d56b873f4c688_11bb28e57e7fdf54,
    0x1f50ac6690f1f82a_1629f31ede1fd72a,
    0x13926bc01a973b1a_4dda37f34ad3e67a,
    0x187706b0213d09e0_e150c5f01d88e019,
    0x1e94c85c298c4c59_19a4f76c24eb181f,
    0x131cfd3999f7afb7_b0071aa39712ef13,
    0x17e43c8800759ba5_9c08e14c7cd7aad8,
    0x1ddd4baa0093028f_030b199f9c0d958e,
    0x12aa4f4a405be199_61e6f003c1887d79,
    0x1754e31cd072d9ff_ba60ac04b1ea9cd7,
    0x1d2a1be4048f907f_a8f8d705de65440d,
    0x123a516e82d9ba4f_c99b8663aaff4a88,
    0x16c8e5ca239028e3_bc0267fc95bf1d2a,
    0x1c7b1f3cac74331c_ab0301fbbb2ee474,
    0x11ccf385ebc89ff1_eae1e13d54fd4ec9,
    0x1640306766bac7ee_659a598caa3ca27b,
    0x1bd03c81406979e9_ff00efefd4cbcb1a,
    0x116225d0c841ec32_3f6095f5e4ff5ef0,
    0x15baaf44fa52673e_cf38bb735e3f36ac,
    0x1b295b1638e7010e_8306ea5035cf0457,
    0x10f9d8ede39060a9_11e4527221a162b6,
    0x15384f295c7478d3_565d670eaa09bb64,
    0x1a8662f3b3919708_2bf4c0d2548c2a3d,
    0x1093fdd8503afe65_1b78f88374d79a66,
    0x14b8fd4e6449bdfe_625736a4520d8100,
    0x19e73ca1fd5c2d7d_faed044d6690e140,
    0x103085e53e599c6e_bcd422b0601a8cc8,
    0x143ca75e8df0038a_6c092b5c78212ffa,
    0x194bd136316c046d_070b763396297bf8,
    0x1f9ec583bdc70588_48ce53c07bb3daf6,
    0x13c33b72569c6375_2d80f4584d5068da,
    0x18b40a4eec437c52_78e1316e60a48310,
];

/// `⌊2^(⌊log₂ 5^i⌋ + POW5_BITS) / 5^i⌋ + 1`, for the nonnegative binary
/// exponents: entry `q`.
const POW5_INV_SPLIT: [u128; 342] = [
    0x2000000000000000_0000000000000001,
    0x1999999999999999_999999999999999a,
    0x147ae147ae147ae1_47ae147ae147ae15,
    0x10624dd2f1a9fbe7_6c8b4395810624de,
    0x1a36e2eb1c432ca5_7a786c226809d496,
    0x14f8b588e368f084_61f9f01b866e43ab,
    0x10c6f7a0b5ed8d36_b4c7f34938583622,
    0x1ad7f29abcaf4857_87a6520ec08d236a,
    0x15798ee2308c39df_9fb841a566d74f88,
    0x112e0be826d694b2_e62d01511f12a607,
    0x1b7cdfd9d7bdbab7_d6ae6881cb5109a4,
    0x15fd7fe17964955f_def1ed34a2a73aea,
    0x119799812dea1119_7f27f0f6e885c8bb,
    0x1c25c268497681c2_650cb4be40d60df8,
    0x16849b86a12b9b01_ea70909833de7193,
    0x1203af9ee756159b_21f3a6e0297ec143,
    0x1cd2b297d889bc2b_6985d7cd0f313537,
    0x170ef54646d49689_2137dfd73f5a90f9,
    0x12725dd1d243aba0_e75fe645cc4873fa,
    0x1d83c94fb6d2ac34_a5663d3c7a0d865d,
    0x179ca10c9242235d_511e976394d79eb1,
    0x12e3b40a0e9b4f7d_da7edf82dd794bc1,
    0x1e392010175ee596_2a6498d1625bac68,
    0x182db34012b25144_eeb6e0a781e2f053,
    0x1357c299a88ea76a_58924d52ce4f26a9,
    0x1ef2d0f5da7dd8aa_27507bb7b07ea441,
    0x18c240c4aecb13bb_52a6c95fc0655034,
    0x13ce9a36f23c0fc9_0eebd44c99eaa690,
    0x1fb0f6be50601941_b17953adc3110a80,
    0x195a5efea6b34767_c12ddc8b02740867,
    0x14484bfeebc29f86_3424b06f3529a052,
    0x1039d66589687f9e_901d59f290ee19db,
    0x19f623d5a8a73297_4cfbc31db4b0295f,
    0x14c4e977ba1f5bac_3d9635b15d59bab2,
    0x109d8792fb4c4956_97ab5e277de16228,
    0x1a95a5b7f87a0ef0_f2abc9d8c9689d0d,
    0x154484932d2e725a_5bbca17a3aba173e,
    0x11039d428a8b8eae_afca1ac82efb45cb,
    0x1b38fb9daa78e44a_b2dcf7a6b1920945,
    0x15c72fb1552d836e_f57d92ebc141a104,
    0x116c262777579c58_c46475896767b403,
    0x1be03d0bf225c6f4_6d6d88dbd8a5ecd2,
    0x164cfda3281e38c3_8abe071646eb23db,
    0x11d7314f534b609c_6efe6c11d255b649,
    0x1c8b821885456760_b197134fb6ef8a0e,
    0x16d601ad376ab91a_27ac0f72f8bfa1a5,
    0x1244ce242c5560e1_b95672c260994e1e,
    0x1d3ae36d13bbce35_f5571e03cdc21695,
    0x17624f8a762fd82b_2aac18030b01abab,
    0x12b50c6ec4f31355_bbbce0026f348956,
    0x1dee7a4ad4b81eef_92c7ccd0b1eda889,
    0x17f1fb6f10934bf2_dbd30a408e57ba07,
    0x1327fc58da0f6ff5_7ca8d50071dfc806,
    0x1ea6608e29b24cbb_faa7bb33e9660cd6,
    0x18851a0b548ea3c9_9552fc298784d711,
    0x139dae6f76d88307_aaa8c9bad2d0ac0e,
    0x1f62b0b257c0d1a5_dddadc5e1e1aace3,
    0x191bc08eac9a4151_7e48b04b4b488a4f,
    0x141633a556e1cdda_cb6d59d5d5d3a1d9,
    0x1011c2eaabe7d7e2_3c577b1177dc817b,
    0x19b604aaaca62636_c6f25e825960cf2a,
    0x14919d5556eb51c5_6bf518684780a5bb,
    0x10747ddddf22a7d1_232a79ed06008496,
    0x1a53fc9631d10c81_d1dd8fe1a3340756,
    0x150ffd44f4a73d34_a7e4731ae8f66c45,
    0x10d9976a5d52975d_531d28e253f8569e,
    0x1af5bf109550f22e_eb61db03b98d5762,
    0x159165a6ddda5b58_bc4e48cfc7a445e8,
    0x11411e1f17e1e2ad_6371d3d96c836b20,
    0x1b9b6364f3030448_9f1c8628ad9f11cd,
    0x1615e91d8f359d06_e5b06b53be18db0b,
    0x11ab20e472914a6b_eaf3890fcb4715a2,
    0x1c45016d841baa46_44b8db4c7871bc37,
    0x169d9abe03495505_03c715d6c6c1635f,
    0x1217aefe69077737_3638de456bcde919,
    0x1cf2b1970e725858_56c163a2461641c1,
    0x17288e1271f51379_df011c81d1ab67ce,
    0x1286d80ec190dc61_7f3416ce4155eca5,
    0x1da48ce468e7c702_6520247d3556476e,
    0x17b6d71d20b96c01_ea801d30f7783925,
    0x12f8ac174d612334_bb99b0f3f92cfa84,
    0x1e5aacf215683854_5f5c4e532847f739,
    0x18488a5b44536043_7f7d0b75b9d32c2e,
    0x136d3b7c36a919cf_9930d5f7c7dc2358,
    0x1f152bf9f10e8fb2_8eb4898c72f9d226,
    0x18ddbcc7f40ba628_722a07a38f2e41b8,
    0x13e497065cd61e86_c1bb394fa5be9afa,
    0x1fd424d6faf030d7_9c5ec2190930f7f6,
    0x197683df2f268d79_49e56814075a5ff8,
    0x145ecfe5bf520ac7_6e51201005e1e660,
    0x104bd984990e6f05_f1da800cd181851a,
    0x1a12f5a0f4e3e4d6_4fc400148268d4f5,
    0x14dbf7b3f71cb711_d96999aa01ed772b,
    0x10aff95cc5b09274_adee1488018ac5bc,
    0x1ab328946f80ea54_497ceda668de092c,
    0x155c2076bf9a5510_3aca57b853e4d424,
    0x1116805effaeaa73_623b7960431d7683,
    0x1b5733cb32b110b8_9d2bf566d1c8bd9e,
    0x15df5ca28ef40d60_7dbcc452416d647f,
    0x117f7d4ed8c33de6_cafd69db678ab6cc,
    0x1bff2ee48e052fd7_ab2f0fc572778adf,
    0x1665bf1d3e6a8cac_88f273045b92d580,
    0x11eaff4a98553d56_d3f528d049424466,
    0x1cab3210f3bb9557_b988414d4203a0a3,
    0x16ef5b40c2fc7779_6139cdd76802e6e9,
    0x125915cd68c9f92d_e761717920025254,
    0x1d5b561574765b7c_a568b58e999d5086,
    0x177c44ddf6c515fd_5120913ee14aa6d2,
    0x12c9d0b1923744ca_a74d40ff1aa21f0e,
    0x1e0fb44f50586e11_0baece64f769cb4a,
    0x180c903f7379f1a7_3c8bd850c5ee3c3b,
    0x133d4032c2c7f485_ca0979da37f1c9c9,
    0x1ec866b79e0cba6f_a9a8c2f6bfe942db,
    0x18a0522c7e709526_2153cf2bccba9be3,
    0x13b374f06526ddb8_1aa9728970954982,
    0x1f8587e7083e2f8c_f775840f1a88759d,
    0x19379fec0698260a_5f9136727ba05e17,
    0x142c7ff0054684d5_1940f85b9619e4df,
    0x1023998cd1053710_e100c6afab47ea4c,
    0x19d28f47b4d524e7_ce67a44c453fdd47,
    0x14a8729fc3ddb71f_d852e9d69dccb106,
    0x1086c219697e2c19_79dbee454b0a2738,
    0x1a71368f0f30468f_295fe3a211a9d859,
    0x15275ed8d8f36ba5_bab31c81a7bb137a,
    0x10ec4be0ad8f8951_6228e39aec95a92f,
    0x1b13ac9aaf4c0ee8_9d0e38f7e0ef7517,
    0x15a956e225d67253_b0d82d931a592a79,
    0x11544581b7dec1dc_8d79be0f4847552e,
    0x1bba08cf8c979c94_158f967eda0bbb7c,
    0x162e6d72d6dfb076_77a611ff14d62f97,
    0x11bebdf578b2f391_f951a7ff43de8c79,
    0x1c6463225ab7ec1c_c21c3ffed2fdad8e,
    0x16b6b5b5155ff017_01b0333242648ad8,
    0x122bc490dde659ac_0159c28e9b83a246,
    0x1d12d41afca3c2ac_cef604175f3903a3,
    0x17424348ca1c9bbd_725e69ac4c2d9c83,
    0x129b69070816e2fd_f5185489d68ae39c,
    0x1dc574d80cf16b2f_ee8d540fbdab05c6,
    0x17d12a4670c1228c_bed77672fe226b05,
    0x130dbb6b8d674ed6_ff12c528cb4ebc04,
    0x1e7c5f127bd87e24_cb513b74787df9a0,
    0x18637f41fcad31b7_090dc929f9fe614d,
    0x1382cc34ca2427c5_a0d7d42194cb810a,
    0x1f37ad21436d0c6f_67bfb9cf5478ce77,
    0x18f9574dcf8a7059_1fcc94a5dd2d71f9,
    0x13faac3e3fa1f37a_7fd6dd517dbdf4c7,
    0x1ff779fd329cb8c3_ffbe2ee8c92fee0b,
    0x1992c7fdc216fa36_6631bf20a0f324d6,
    0x14756ccb01abfb5e_b827cc1a1a5c1d78,
    0x105df0a267bcc918_935309ae7b7ce460,
    0x1a2fe76a3f9474f4_1eeb42b0c594a099,
    0x14f31f8832dd2a5c_e58902270476e6e1,
    0x10c27fa028b0eeb0_b7a0ce859d2bebe7,
    0x1ad0cc33744e4ab4_59014a6f61dfdfd8,
    0x1573d68f903ea229_e0cdd525e7e64cad,
    0x11297872d9cbb4ee_4d7177518651d6f1,
    0x1b758d848fac54b0_7be8bee8d6e957e8,
    0x15f7a46a0c89dd59_fcba3253df211320,
    0x1192e9ee706e4aae_63c8284318e74280,
    0x1c1e43171a4a1117_060d0d3827d86a66,
    0x167e9c127b6e7412_6b3da42cecad21eb,
    0x11fee341fc585cdb_88fe1cf0bd574e56,
    0x1ccb0536608d615f_419694b462254a23,
    0x1708d0f84d3de77f_67abaa29e81dd4e9,
    0x126d73f9d764b932_b95621bb2017dd87,
    0x1d7becc2f23ac1ea_c223692b668c95a5,
    0x179657025b6234bb_ce82ba891ed6de1d,
    0x12deac01e2b4f6fc_a53562074bdf1818,
    0x1e3113363787f194_3b889cd87964f359,
    0x18274291c6065adc_fc6d4a46c783f5e1,
    0x13529ba7d19eaf17_30576e9f06032b1a,
    0x1eea92a61c311825_1a257dcb3cd1de90,
    0x18bba884e35a79b7_481dfe3c30a7e540,
    0x13c9539d82aec7c5_d34b31c9c0865100,
    0x1fa885c8d117a609_5211e942cda3b4cd,
    0x19539e3a40dfb807_74db21023e1c90a4,
    0x1442e4fb67196005_f715b401cb4a0d50,
    0x103583fc527ab337_f8de299b09080aa7,
    0x19ef3993b72ab859_8e304291a80cddd7,
    0x14bf6142f8eef9e1_3e8d020e200a4b13,
    0x10991a9bfa58c7e7_653d9b3e80083c0f,
    0x1a8e90f9908e0ca5_6ec8f864000d2ce4,
    0x153eda614071a3b7_8bd3f9e999a423ea,
    0x10ff151a99f482f9_3ca994bae1501cbb,
    0x1b31bb5dc320d18e_c775bac49bb3612b,
    0x15c162b168e70e0b_d2c4956a16291a89,
    0x11678227871f3e6f_dbd0778811ba7ba1,
    0x1bd8d03f3e9863e6_2c80bf401c5d929b,
    0x16470cff6546b651_bd33cc3349e47549,
    0x11d270cc51055ea7_ca8fd68f6e505dd4,
    0x1c83e7ad4e6efdd9_4419574be3b3c953,
    0x16cfec8aa52597e1_0347790982f63aa9,
    0x123ff06eea847980_cf6c60d468c4fbba,
    0x1d331a4b10d3f59a_e57a34870e07f92a,
    0x175c1508da432ae2_512e906c0b399422,
    0x12b010d3e1cf5581_da8ba6bcd5c7a9b5,
    0x1de6815302e5559c_90df712e22d90f87,
    0x17eb9aa8cf1dde16_da4c5a8b4f140c6c,
    0x1322e220a5b17e78_aea37ba2a5a9a38a,
    0x1e9e369aa2b59727_7dd25f6aa2a905a9,
    0x187e92154ef7ac1f_97db7f888220d154,
    0x139874ddd8c6234c_797c6606ce80a777,
    0x1f5a549627a36bad_8f2d700ae4010bf1,
    0x191510781fb5efbe_0c2459a25000d65a,
    0x1410d9f9b2f7f2fe_701d1481d99a4515,
    0x100d7b2e28c65bfe_c017439b147b6a77,
    0x19af2b7d0e0a2cca_ccf205c4ed9243f2,
    0x148c22ca71a1bd6f_0a5b37d0be0e9cc2,
    0x10701bd527b4978c_0848f973cb3ee3ce,
    0x1a4cf9550c5425ac_da0e5bec78649fb0,
    0x150a6110d6a9b7bd_7b3eaff060507fc0,
    0x10d51a73deee2c97_95cbbff380406633,
    0x1aee90b964b04758_efac665266cd7052,
    0x158ba6fab6f36c47_2623850eb8a459db,
    0x113c85955f29236c_1e82d0d893b6ae49,
    0x1b9408eefea838ac_fd9e1af41f8ab075,
    0x16100725988693bd_97b1af29b2d559f7,
    0x11a66c1e139edc97_ac8e25baf5777b2c,
    0x1c3d79c9b8fe2dbf_7a7d092b2258c513,
    0x169794a160cb57cc_61fda0ef4ead6a76,
    0x1212dd4de7091309_e7fe1a590bbdeec5,
    0x1ceafbafd80e84dc_a6635d5b45fcb13a,
    0x172262f3133ed0b0_851c4aaf6b308dc8,
    0x1281e8c275cbda26_d0e36ef2bc26d7d4,
    0x1d9ca79d894629d7_b49f17eac6a48c86,
    0x17b08617a104ee46_2a18dfef0550706b,
    0x12f39e794d9d8b6b_54e0b3259dd9f389,
    0x1e5297287c2f4578_87cdeb6f62f65274,
    0x18421286c9bf6ac6_d30b22bf825ea85d,
    0x13680ed23aff889f_0f3c1bcc684bb9e4,
    0x1f0ce4839198da98_18602c7a4079296d,
    0x18d71d360e13e213_46b356c833942124,
    0x13df4a91a4dcb4dc_388f78a029434db6,
    0x1fcbaa82a1612160_5a7f2766a86baf8a,
    0x196fbb9bb44db44d_153285ebb9efbfa2,
    0x145962e2f6a4903d_aa8ed189618c994e,
    0x1047824f2bb6d9ca_eed8a7a11ad6e10c,
    0x1a0c03b1df8af611_7e27729b5e249b45,
    0x14d6695b193bf80d_fe85f549181d4904,
    0x10ab877c142ff9a4_cb9e5dd4134aa0d0,
    0x1aac0bf9b9e65c3a_df63c9535211014d,
    0x15566ffafb1eb02f_191ca10f74da6771,
    0x1111f32f2f4bc025_adb080d92a4852c1,
    0x1b4feb7eb212cd09_15e7348eaa0d5134,
    0x15d98932280f0a6d_ab1f5d3eee710dc4,
    0x117ad428200c0857_bc1917658b8da49d,
    0x1bf7b9d9cce00d59_2cf4f23c127c3a94,
    0x165fc7e170b33de0_f0c3f4fcdb969543,
    0x11e6398126f5cb1a_5a365d9716121103,
    0x1ca38f350b22de90_9056fc24f01ce804,
    0x16e93f5da2824ba6_d9df301d8ce3ecd0,
    0x125432b14ecea2eb_e17f59b13d8323da,
    0x1d53844ee47dd179_68cbc2b52f38395c,
    0x177603725064a794_53d6355dbf602de3,
    0x12c4cf8ea6b6ec76_a9782ab165e68b1c,
    0x1e07b27dd78b13f1_0f26aab56fd744fa,
    0x18062864ac6f4327_3f52222abfdf6a62,
    0x1338205089f29c1f_65db4e88997f884e,
    0x1ec033b40fea9365_6fc54a7428cc0d4a,
    0x1899c2f673220f84_596aa1f68709a43b,
    0x13ae3591f5b4d936_adeee7f86c07b696,
    0x1f7d228322baf524_497e3ff3e00c5756,
    0x1930e868e89590e9_d464fff64cd6ac45,
    0x14272053ed4473ee_4383fff83d7889d1,
    0x101f4d0ff1038ff1_cf9cccc69793a174,
    0x19cbae7fe805b31c_7f6147a425b90252,
    0x14a2f1ffecd15c16_cc4dd2e9b7c7350f,
    0x10825b3323dab012_3d0b0f215fd290d9,
    0x1a6a2b85062ab350_61ab4b689950e7c1,
    0x1521bc6a6b555c40_4e22a2ba1440b967,
    0x10e7c9eebc4449cd_0b4ee894dd009453,
    0x1b0c764ac6d3a948_1217da87c800ed51,
    0x15a391d56bdc876c_db46486ca000bdda,
    0x114fa7ddefe39f8a_490506bd4ccd64af,
    0x1bb2a62fe638ff43_a8080ac87ae23ab1,
    0x162884f31e93ff69_5339a239fbe82ef4,
    0x11ba03f5b20fff87_75c7b4fb2fecf25d,
    0x1c5cd322b67fff3f_22d92191e647ea2e,
    0x16b0a8e891ffff65_b57a8141850654f2,
    0x1226ed86db3332b7_c4620101373843f5,
    0x1d0b15a491eb8459_3a366801f1f39fee,
    0x173c115074bc69e0_fb5eb99b27f6198b,
    0x129674405d6387e7_2f7efae2865e7ad6,
    0x1dbd86cd6238d971_e597f7d0d6fd9156,
    0x17cad23de82d7ac1_8479930d78cadaab,
    0x1308a831868ac89a_d06142712d6f1556,
    0x1e74404f3daada91_4d686a4eaf182222,
    0x185d003f6488aeda_a453883ef279b4e8,
    0x137d99cc506d58ae_e9dc6cff28615d87,
    0x1f2f5c7a1a488de4_a960ae650d6895a4,
    0x18f2b061aea07183_bab3beb73ded4483,
    0x13f559e7bee6c136_2ef6322c318a9d36,
    0x1feef63f97d79b89_e4bd1d13827761f0,
    0x198bf832dfdfafa1_83ca7da9352c4e5a,
    0x146ff9c24cb2f2e7_9ca1fe20f756a515,
    0x1059949b708f28b9_4a1b31b3f9121daa,
    0x1a28edc580e50df5_435eb5ecc1b695dd,
    0x14ed8b04671da4c4_35e55e57015ede4a,
    0x10be08d0527e1d69_c4b77eac0118b1d5,
    0x1ac9a7b3b7302f0f_a12597799b5ab622,
    0x156e1fc2f8f358d9_4db7ac6149155e81,
    0x1124e63593f5e0ad_d7c6238107444b9b,
    0x1b6e3d2286563449_593d059b3ed3ac2b,
    0x15f1ca820511c36d_e0fd9e15cbdc89bc,
    0x118e3b9b37416924_b3fe18116fe3a163,
    0x1c16c5c525357507_866359b57fd29bd1,
    0x16789e3750f790d2_d1e91491330ee30e,
    0x11fa182c40c60d75_74ba76da8f3f1c0b,
    0x1cc359e067a348bb_edf72490e531c678,
    0x1702ae4d1fb5d3c9_8b2c1d40b75b052d,
    0x12688b70e62b0fd4_6f567dcd5f7c0424,
    0x1d74124e3d11b2ed_7ef0c94898c66d06,
    0x17900ea4fda7c257_98c0a106e09ebd9f,
    0x12d9a550caec9b79_470080d24d4bcae6,
    0x1e29088144adc58e_d800ce1d487944a2,
    0x1820d39a9d57d13f_1333d8176d2dd082,
    0x134d76154aaca765_a8f646792424a6ce,
    0x1ee25688777aa56f_74bd3d8ea03aa47d,
    0x18b51206c5fbb78c_5d64313ee6955064,
    0x13c40e6bd1962c70_4ab68dcbebaaa6b7,
    0x1fa01712e8f0471a_1124161312aaa457,
    0x194cdf4253f36c14_da8344dc0eeee9df,
    0x143d7f6843292343_e2029d7cd8bf2180,
    0x103132b9cf541c36_4e687dfd7a328133,
    0x19e851294bb9c6bd_4a40c9959050ceb8,
    0x14b9da876fc7d231_0833d477a6a70bc6,
    0x1094aed2bfd30e8d_a02976c61eec096b,
    0x1a877e1dffb81749_004257a364acdbdf,
    0x153931b1996012a0_cd01dfb5ea23e319,
    0x10fa8e27ade6754d_70ce4c91881cb5ae,
    0x1b2a7d0c4970bbaf_1ae3adb5a69455e2,
    0x15bb973d078d62f2_7be957c4854377e8,
    0x1162df64060ab58e_c987796a0435f987,
    0x1bd1656cd67788e4_75a58f1006bcc271,
    0x16411df0ab92d3e9_f7b7a5a66bca3527,
    0x11cdb18d560f0fee_5fc61e1ebca1c41f,
    0x1c7c4f4889b1b316_ffa363646102d365,
    0x16c9d906d48e28df_32e91c504d9bdc51,
    0x123b140576d820b2_8f20e37371497d0e,
    0x1d2b533bf159cdea_7e9b0585820f2e7c,
    0x1755dc2ff447d7ee_cbaf379e01a5beca,
    0x12ab168cc36cacbf_0958f94b348498a1,
];

#[cfg(test)]
mod tests {
    use std::cmp::Ordering;
    use std::fmt::Write as _;

    use zeroconf_rng::{rngs::StdRng, RngCore, SeedableRng};

    use super::*;

    /// Finite floats drawn per seed of the random stream.
    const FLOATS_PER_SEED: u64 = 1_000_000;

    /// Seeds of the random stream: 10⁸ floats in a release build, and the
    /// first seeds of the same stream in a debug build, where each float
    /// costs far more.
    const SEEDS: u64 = if cfg!(debug_assertions) { 2 } else { 100 };

    /// A float whose shortest digits end in an exact tie.
    const TIE: u64 = 0x42e1_8006_9d08_7444;

    /// Checks `push_f64(x)` against `{x:?}` byte for byte, reusing both
    /// buffers.
    fn assert_matches_debug(x: f64, text: &mut String, oracle: &mut String) {
        text.clear();
        push_f64(text, x);
        oracle.clear();
        let _ = write!(oracle, "{x:?}");
        assert_eq!(text, oracle, "bits {:#018x}", x.to_bits());
        assert!(text.len() <= F64_TEXT_MAX, "{text}");
    }

    #[test]
    fn random_floats_match_debug_bytes() {
        // Seed s draws the s-th million finite floats whatever the thread
        // count, so a debug build compares a prefix of the release stream.
        let threads = std::thread::available_parallelism().map_or(1, usize::from);
        std::thread::scope(|scope| {
            for first in 0..threads as u64 {
                scope.spawn(move || {
                    let (mut text, mut oracle) = (String::new(), String::new());
                    for seed in (first..SEEDS).step_by(threads) {
                        let mut rng = StdRng::seed_from_u64(seed);
                        let mut compared = 0;
                        while compared < FLOATS_PER_SEED {
                            let x = f64::from_bits(rng.next_u64());
                            if x.is_finite() {
                                assert_matches_debug(x, &mut text, &mut oracle);
                                compared += 1;
                            }
                        }
                    }
                });
            }
        });
    }

    /// The values at the edges of every layout and rounding rule, each
    /// also negated.
    fn boundary_values() -> Vec<f64> {
        let mut values = vec![
            0.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::EPSILON,
            f64::from_bits(TIE),
        ];
        // Every power of two, from 2⁻¹⁰⁷⁴ to 2¹⁰²³.
        values.extend((0..MANTISSA_BITS).map(|k| f64::from_bits(1 << k)));
        values.extend((1..0x7ff_u64).map(|e| f64::from_bits(e << MANTISSA_BITS)));
        // Every power of ten, from 1e-323 to 1e308, with its neighbours.
        for k in -323..=308 {
            let bits = format!("1e{k}").parse::<f64>().unwrap().to_bits();
            values.extend([bits - 1, bits, bits + 1].map(f64::from_bits));
        }
        // Subnormals: the smallest, the largest, and a stride between.
        let normal = 1u64 << MANTISSA_BITS;
        let stride = normal / 4096;
        values.extend(
            (1..=4096)
                .chain(normal - 4096..normal)
                .chain((1..4096).map(|k| k * stride + k))
                .map(f64::from_bits),
        );
        // Three ulps either side of both layout thresholds.
        for threshold in [1e-4f64, 1e16] {
            let bits = threshold.to_bits();
            values.extend((bits - 3..=bits + 3).map(f64::from_bits));
        }
        values.extend((1..=100_000).map(f64::from));
        let negated: Vec<f64> = values.iter().map(|x| -x).collect();
        values.extend(negated);
        values
    }

    #[test]
    fn boundary_values_match_debug_bytes() {
        let (mut text, mut oracle) = (String::new(), String::new());
        for x in boundary_values() {
            assert_matches_debug(x, &mut text, &mut oracle);
        }
    }

    #[test]
    fn exact_ties_round_half_up_like_debug() {
        // Reference Ryū writes …538.12 and …5312e-8: the same bits, other
        // bytes.
        for (x, expected) in [
            (f64::from_bits(TIE), "153932515525538.13"),
            (
                f64::from_bits((1023 - 25) << MANTISSA_BITS),
                "2.9802322387695313e-8",
            ),
        ] {
            let mut text = String::new();
            push_f64(&mut text, x);
            assert_eq!(text, expected);
            assert_eq!(format!("{x:?}"), expected);
        }
    }

    #[test]
    fn integers_match_display_bytes() {
        let powers = (0..20).flat_map(|k| {
            let p = 10u64.pow(k);
            [p - 1, p, p + 1]
        });
        let mut text = String::new();
        for n in (0..=1000)
            .chain(powers)
            .chain([u64::from(u32::MAX), u64::MAX])
        {
            text.clear();
            push_u64(&mut text, n);
            assert_eq!(text, n.to_string());
        }
    }

    /// A natural number in little-endian base 2⁶⁴ with no high zero
    /// limbs: the least arithmetic that regenerates the tables.
    #[derive(Clone, PartialEq, Eq)]
    struct Big(Vec<u64>);

    impl Big {
        fn from_u128(v: u128) -> Big {
            Big(vec![v as u64, (v >> 64) as u64]).trimmed()
        }

        fn pow2(k: u32) -> Big {
            let mut limbs = vec![0; k as usize / 64 + 1];
            limbs[k as usize / 64] = 1 << (k % 64);
            Big(limbs)
        }

        fn trimmed(mut self) -> Big {
            while self.0.last() == Some(&0) {
                self.0.pop();
            }
            self
        }

        fn mul_u64(&self, m: u64) -> Big {
            let mut carry = 0u128;
            let mut limbs: Vec<u64> = self
                .0
                .iter()
                .map(|&limb| {
                    let product = u128::from(limb) * u128::from(m) + carry;
                    carry = product >> 64;
                    product as u64
                })
                .collect();
            limbs.push(carry as u64);
            Big(limbs).trimmed()
        }

        fn mul_u128(&self, m: u128) -> Big {
            let mut high = self.mul_u64((m >> 64) as u64);
            high.0.insert(0, 0);
            self.mul_u64(m as u64).add(&high.trimmed())
        }

        fn add(&self, other: &Big) -> Big {
            let mut carry = 0u128;
            let len = self.0.len().max(other.0.len());
            let mut limbs: Vec<u64> = (0..len)
                .map(|i| {
                    let sum = u128::from(self.0.get(i).copied().unwrap_or(0))
                        + u128::from(other.0.get(i).copied().unwrap_or(0))
                        + carry;
                    carry = sum >> 64;
                    sum as u64
                })
                .collect();
            limbs.push(carry as u64);
            Big(limbs).trimmed()
        }

        fn bit_len(&self) -> u32 {
            self.0
                .last()
                .map_or(0, |top| 64 * self.0.len() as u32 - top.leading_zeros())
        }

        /// `⌊self / 2^k⌋`, which must fit in 128 bits.
        fn shr_to_u128(&self, k: u32) -> u128 {
            let limb = k as usize / 64;
            let word = |i: usize| u128::from(self.0.get(i).copied().unwrap_or(0));
            let wide = word(limb) | word(limb + 1) << 64;
            assert!(self.bit_len() <= k + 128, "the quotient fits");
            let top = if k.is_multiple_of(64) {
                0
            } else {
                word(limb + 2) << (128 - k % 64)
            };
            wide >> (k % 64) | top
        }
    }

    impl PartialOrd for Big {
        fn partial_cmp(&self, other: &Big) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for Big {
        fn cmp(&self, other: &Big) -> Ordering {
            self.0
                .len()
                .cmp(&other.0.len())
                .then_with(|| self.0.iter().rev().cmp(other.0.iter().rev()))
        }
    }

    #[test]
    fn power_of_five_tables_match_their_regeneration() {
        let width = POW5_BITS as u32;
        let mut pow5 = Big::from_u128(1);
        for (i, &inverse) in POW5_INV_SPLIT.iter().enumerate() {
            let bits = pow5.bit_len();
            assert_eq!(bits as i32, pow5_bits(i as u32), "bit length of 5^{i}");
            if let Some(&entry) = POW5_SPLIT.get(i) {
                let scaled = if bits >= width {
                    pow5.shr_to_u128(bits - width)
                } else {
                    pow5.shr_to_u128(0) << (width - bits)
                };
                assert_eq!(entry, scaled, "POW5_SPLIT[{i}]");
            }
            // The entry less one is ⌊2^j / 5^i⌋: the one multiple of 5^i
            // at most 2^j whose next multiple passes it.
            let power = Big::pow2(bits - 1 + width);
            let floor = pow5.mul_u128(inverse - 1);
            assert!(
                floor <= power && power < floor.add(&pow5),
                "POW5_INV_SPLIT[{i}]"
            );
            pow5 = pow5.mul_u64(5);
        }
    }
}
