//! The wire's float writer and number reader. The writer gives the
//! shortest text that parses back to the same `f64`, in exactly the bytes
//! Rust's `{:?}` writes, with no `core::fmt` on the way. The reader values
//! every JSON number the wire decodes in the one pass that finds its end.
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
//!
//! The reader ([`read_f64`]) takes the token `str::parse::<f64>` would be
//! handed and gives its bits: Clinger's exact path where it applies,
//! Eisel–Lemire (Lemire, "Number Parsing at a Gigabyte per Second", 2021)
//! over a third committed table for the rest of the fast grammar, and
//! `str::parse` itself for every other token. `str::parse` is its test
//! oracle: the writer's random floats are read back through both, and a
//! seeded differential test feeds both every kind of token.

use std::str;

use super::json::{err, WireError};

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

/// The most significant digits the fast path reads into a `u64`: every
/// 19-digit decimal fits, and not every 20-digit one does.
const FAST_DIGITS_MAX: usize = 19;

/// The decimal exponents [`POW5_128`] covers. Below the first, `w · 10^q`
/// rounds to zero for every `w < 10^19`; above the last, it rounds to
/// infinity for every `w ≥ 1`.
const POW5_128_MIN: i64 = -342;
const POW5_128_MAX: i64 = 308;

/// `10^0` to `10^22`: the powers of ten an `f64` holds exactly.
const EXACT_POWERS_OF_TEN: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// Reads the JSON number at `pos` and leaves `pos` after it: the run of
/// number characters that [`number_token`] takes, valued as
/// `str::parse::<f64>` values it. The protocol's one number reader:
/// request lines, `parse_json` and response lines all go through it.
///
/// A token in the fast grammar `-?d+(.d+)?([eE][+-]?d+)?` with at most 19
/// significant digits is valued in the one pass that finds its end:
/// Clinger's exact path when its digits are at most 2^53 and its exponent
/// within ±22, Eisel–Lemire otherwise. Every other token goes to
/// `str::parse::<f64>` (a leading `+` or `.`, a trailing `.`, a lone `-`,
/// `1e`, `1-2`, more than 19 significant digits), and so does the rare
/// product Eisel–Lemire cannot round, so every accepted value, refusal and
/// error text is std's.
///
/// # Errors
///
/// ``invalid number `…` at byte …`` for a token `str::parse::<f64>`
/// refuses.
pub(super) fn read_f64(text: &str, pos: &mut usize) -> Result<f64, WireError> {
    let start = *pos;
    if let Some(x) = read_fast(text.as_bytes(), pos) {
        return Ok(x);
    }
    *pos = start;
    let token = number_token(text, pos);
    token
        .parse::<f64>()
        .map_err(|_| err(format!("invalid number `{token}` at byte {start}")))
}

/// Consumes the run of number characters at `pos`.
pub(super) fn number_token<'a>(text: &'a str, pos: &mut usize) -> &'a str {
    let bytes = text.as_bytes();
    let start = *pos;
    while bytes.get(*pos).copied().is_some_and(is_number_byte) {
        *pos += 1;
    }
    // Number bytes are ASCII, so the token ends on a char boundary.
    text.get(start..*pos).unwrap_or_default()
}

/// Whether `byte` continues a number token.
pub(super) fn is_number_byte(byte: u8) -> bool {
    matches!(byte, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
}

/// The digit at `at`, if the byte there is one.
fn digit_at(bytes: &[u8], at: usize) -> Option<u8> {
    bytes
        .get(at)
        .map(|byte| byte.wrapping_sub(b'0'))
        .filter(|&d| d <= 9)
}

/// Reads the digits at `*at` into `w` (`10·w + d` per digit, wrapping),
/// leaves `*at` after them and returns how many there were. Runs of eight
/// digits are read eight at a time.
pub(super) fn read_digits(bytes: &[u8], at: &mut usize, w: &mut u64) -> usize {
    let start = *at;
    while let Some(eight) = bytes.get(*at..*at + 8) {
        let Ok(eight) = <[u8; 8]>::try_from(eight) else {
            break;
        };
        let Some(value) = eight_digits(u64::from_le_bytes(eight)) else {
            break;
        };
        *w = w.wrapping_mul(100_000_000).wrapping_add(value);
        *at += 8;
    }
    while let Some(d) = digit_at(bytes, *at) {
        *w = w.wrapping_mul(10).wrapping_add(u64::from(d));
        *at += 1;
    }
    *at - start
}

/// The value of the eight ASCII digits loaded little-endian into `chunk`
/// (the first digit in the low byte), or `None` if a byte is not a digit:
/// SWAR, as in Lemire's fast_float.
fn eight_digits(chunk: u64) -> Option<u64> {
    // Subtracting '0' from a byte below it sets the byte's top bit, and so
    // does adding 0x46 to one above '9'. The lowest such byte has no
    // borrow or carry coming in, so its top bit shows.
    let digits = chunk.wrapping_sub(0x3030_3030_3030_3030);
    if (digits | chunk.wrapping_add(0x4646_4646_4646_4646)) & 0x8080_8080_8080_8080 != 0 {
        return None;
    }
    // Bytes 0, 2, 4 and 6 become the pairs p0..p3 = 10·d(2i) + d(2i+1).
    let pairs = digits * 10 + (digits >> 8);
    // Bits 32..64 of these products are 10^6·p0 + 100·p2 and 10^4·p1 + p3,
    // and their low halves stay under 10^4, so the sum carries nothing in.
    let mask = 0x0000_00ff_0000_00ff;
    let high = (pairs & mask).wrapping_mul(100 + (1_000_000 << 32));
    let low = ((pairs >> 16) & mask).wrapping_mul(1 + (10_000 << 32));
    Some(high.wrapping_add(low) >> 32)
}

/// The fast path of [`read_f64`]: the value of the token at `pos`, with
/// `pos` left after it, or `None` (and `pos` anywhere) for a token outside
/// the fast grammar or past 19 significant digits, or one Eisel–Lemire
/// cannot round.
fn read_fast(bytes: &[u8], pos: &mut usize) -> Option<f64> {
    let negative = bytes.get(*pos) == Some(&b'-');
    let digits_start = *pos + usize::from(negative);
    let mut at = digits_start;
    // The value is w · 10^exponent, w every digit read as one integer.
    let mut w = 0;
    let mut digits = read_digits(bytes, &mut at, &mut w);
    if digits == 0 {
        return None;
    }
    let mut exponent = 0;
    if bytes.get(at) == Some(&b'.') {
        at += 1;
        let fraction = read_digits(bytes, &mut at, &mut w);
        if fraction == 0 {
            return None;
        }
        digits += fraction;
        exponent = -i64::try_from(fraction).ok()?;
    }
    if matches!(bytes.get(at), Some(b'e' | b'E')) {
        at += 1;
        let sign = bytes.get(at).copied();
        at += usize::from(matches!(sign, Some(b'+' | b'-')));
        let start = at;
        let mut power = 0;
        while let Some(d) = digit_at(bytes, at) {
            // Saturating where `str::parse` does keeps an absurd exponent
            // (past what any digit count can offset) reading as it does
            // there.
            if power < 0x10000 {
                power = 10 * power + i64::from(d);
            }
            at += 1;
        }
        if at == start {
            return None;
        }
        exponent += if sign == Some(b'-') { -power } else { power };
    }
    if bytes.get(at).copied().is_some_and(is_number_byte) {
        return None;
    }
    if digits > FAST_DIGITS_MAX {
        // Leading zeros are not significant, and `w` holds no trace of
        // them.
        let zeros = bytes[digits_start..at]
            .iter()
            .take_while(|&&byte| matches!(byte, b'0' | b'.'))
            .filter(|&&byte| byte == b'0')
            .count();
        if digits - zeros > FAST_DIGITS_MAX {
            return None;
        }
    }
    let magnitude = clinger(w, exponent).or_else(|| eisel_lemire(w, exponent))?;
    *pos = at;
    Some(if negative { -magnitude } else { magnitude })
}

/// Clinger's fast path: `w · 10^q` as one correctly rounded product or
/// quotient of two exact `f64`s, when `w ≤ 2^53` and `|q| ≤ 22`.
fn clinger(w: u64, q: i64) -> Option<f64> {
    if w > 1 << f64::MANTISSA_DIGITS {
        return None;
    }
    let power = *EXACT_POWERS_OF_TEN.get(usize::try_from(q.unsigned_abs()).ok()?)?;
    let w = w as f64;
    Some(if q < 0 { w / power } else { w * power })
}

/// Eisel–Lemire (Lemire, "Number Parsing at a Gigabyte per Second",
/// *Software: Practice and Experience* 2021): `w · 10^q` rounded to
/// nearest, ties to even, from the top 128 bits of `w · 5^q`, or `None`
/// when those bits cannot decide the rounding.
fn eisel_lemire(w: u64, q: i64) -> Option<f64> {
    if w == 0 || q < POW5_128_MIN {
        return Some(0.0);
    }
    if q > POW5_128_MAX {
        return Some(f64::INFINITY);
    }
    let zeros = w.leading_zeros();
    let w = u128::from(w << zeros);
    let power = POW5_128[(q - POW5_128_MIN) as usize];
    // The top 64 bits of w · 5^q hold the 53 bits of the result, a
    // rounding bit and a leading bit the product may lack, over 9 more
    // bits. Only when those 9 are all ones can the power's second word
    // carry into the rest.
    let (mut hi, mut lo) = split(w * (power >> 64));
    if hi & LOW_NINE == LOW_NINE {
        let (carry_in, _) = split(w * u128::from(power as u64));
        let (sum, carry) = lo.overflowing_add(carry_in);
        lo = sum;
        hi += u64::from(carry);
    }
    // All ones below may hide a carry from the power's truncated bits. For
    // q in -27..=55 the table's 128 bits decide the rounding regardless.
    if lo == u64::MAX && !(-27..=55).contains(&q) {
        return None;
    }
    let upper = (hi >> 63) as i32;
    let shift = upper + 64 - MANTISSA_BITS as i32 - 3;
    // 54 bits: the result's 53 and the rounding bit.
    let mut mantissa = hi >> shift;
    let mut exponent = power_of_two(q) + upper - zeros as i32 + EXPONENT_BIAS;
    if exponent <= 0 {
        // A subnormal, or zero. No decimal of at most 19 digits lies
        // exactly halfway between two subnormals, so rounding half up is
        // rounding to nearest; a carry into bit 52 makes the smallest
        // normal, whose bits are then already right.
        if 1 - exponent >= 64 {
            return Some(0.0);
        }
        mantissa >>= 1 - exponent;
        mantissa += mantissa & 1;
        return Some(f64::from_bits(mantissa >> 1));
    }
    if lo <= 1 && (-4..=23).contains(&q) && mantissa & 3 == 1 && mantissa << shift == hi {
        // Exactly halfway between two floats (possible only for these q):
        // round to the even one.
        mantissa &= !1;
    }
    mantissa += mantissa & 1;
    mantissa >>= 1;
    if mantissa >= 2 << MANTISSA_BITS {
        mantissa = 1 << MANTISSA_BITS;
        exponent += 1;
    }
    // The all-ones exponent is the infinities'.
    if exponent >= 0x7ff {
        return Some(f64::INFINITY);
    }
    let fraction = mantissa & ((1 << MANTISSA_BITS) - 1);
    Some(f64::from_bits(
        (exponent as u64) << MANTISSA_BITS | fraction,
    ))
}

/// The 9 bits of a product's top word below its 55 leading ones.
const LOW_NINE: u64 = u64::MAX >> 55;

/// The top and bottom 64 bits of `x`.
fn split(x: u128) -> (u64, u64) {
    ((x >> 64) as u64, x as u64)
}

/// `⌊q · log₂ 10⌋ + 63`, with 217,706 / 2^16 for `log₂ 10`, which is exact
/// enough over the table's range: the binary exponent of `w · 10^q` once
/// the product's leading bit and `w`'s normalizing shift are counted.
fn power_of_two(q: i64) -> i32 {
    ((q as i32 * (152_170 + 65_536)) >> 16) + 63
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

/// 5^q for q in [`POW5_128_MIN`]..=[`POW5_128_MAX`] (entry `q + 342`) in
/// 128 bits, scaled so the top bit is set, as Eisel–Lemire takes it. For
/// q ≥ 0 it is 5^q truncated. For q < 0, with z the bit length of 5^-q,
/// it is `⌊2^b / 5^-q⌋ + 1` for `b = z + 127` when q ≥ -27 (where 5^-q fits
/// 64 bits), and that quotient for `b = 2z + 128`, truncated to 128 bits,
/// below.
const POW5_128: [u128; 651] = [
    0xeef453d6923bd65a_113faa2906a13b3f,
    0x9558b4661b6565f8_4ac7ca59a424c507,
    0xbaaee17fa23ebf76_5d79bcf00d2df649,
    0xe95a99df8ace6f53_f4d82c2c107973dc,
    0x91d8a02bb6c10594_79071b9b8a4be869,
    0xb64ec836a47146f9_9748e2826cdee284,
    0xe3e27a444d8d98b7_fd1b1b2308169b25,
    0x8e6d8c6ab0787f72_fe30f0f5e50e20f7,
    0xb208ef855c969f4f_bdbd2d335e51a935,
    0xde8b2b66b3bc4723_ad2c788035e61382,
    0x8b16fb203055ac76_4c3bcb5021afcc31,
    0xaddcb9e83c6b1793_df4abe242a1bbf3d,
    0xd953e8624b85dd78_d71d6dad34a2af0d,
    0x87d4713d6f33aa6b_8672648c40e5ad68,
    0xa9c98d8ccb009506_680efdaf511f18c2,
    0xd43bf0effdc0ba48_0212bd1b2566def2,
    0x84a57695fe98746d_014bb630f7604b57,
    0xa5ced43b7e3e9188_419ea3bd35385e2d,
    0xcf42894a5dce35ea_52064cac828675b9,
    0x818995ce7aa0e1b2_7343efebd1940993,
    0xa1ebfb4219491a1f_1014ebe6c5f90bf8,
    0xca66fa129f9b60a6_d41a26e077774ef6,
    0xfd00b897478238d0_8920b098955522b4,
    0x9e20735e8cb16382_55b46e5f5d5535b0,
    0xc5a890362fddbc62_eb2189f734aa831d,
    0xf712b443bbd52b7b_a5e9ec7501d523e4,
    0x9a6bb0aa55653b2d_47b233c92125366e,
    0xc1069cd4eabe89f8_999ec0bb696e840a,
    0xf148440a256e2c76_c00670ea43ca250d,
    0x96cd2a865764dbca_380406926a5e5728,
    0xbc807527ed3e12bc_c605083704f5ecf2,
    0xeba09271e88d976b_f7864a44c633682e,
    0x93445b8731587ea3_7ab3ee6afbe0211d,
    0xb8157268fdae9e4c_5960ea05bad82964,
    0xe61acf033d1a45df_6fb92487298e33bd,
    0x8fd0c16206306bab_a5d3b6d479f8e056,
    0xb3c4f1ba87bc8696_8f48a4899877186c,
    0xe0b62e2929aba83c_331acdabfe94de87,
    0x8c71dcd9ba0b4925_9ff0c08b7f1d0b14,
    0xaf8e5410288e1b6f_07ecf0ae5ee44dd9,
    0xdb71e91432b1a24a_c9e82cd9f69d6150,
    0x892731ac9faf056e_be311c083a225cd2,
    0xab70fe17c79ac6ca_6dbd630a48aaf406,
    0xd64d3d9db981787d_092cbbccdad5b108,
    0x85f0468293f0eb4e_25bbf56008c58ea5,
    0xa76c582338ed2621_af2af2b80af6f24e,
    0xd1476e2c07286faa_1af5af660db4aee1,
    0x82cca4db847945ca_50d98d9fc890ed4d,
    0xa37fce126597973c_e50ff107bab528a0,
    0xcc5fc196fefd7d0c_1e53ed49a96272c8,
    0xff77b1fcbebcdc4f_25e8e89c13bb0f7a,
    0x9faacf3df73609b1_77b191618c54e9ac,
    0xc795830d75038c1d_d59df5b9ef6a2417,
    0xf97ae3d0d2446f25_4b0573286b44ad1d,
    0x9becce62836ac577_4ee367f9430aec32,
    0xc2e801fb244576d5_229c41f793cda73f,
    0xf3a20279ed56d48a_6b43527578c1110f,
    0x9845418c345644d6_830a13896b78aaa9,
    0xbe5691ef416bd60c_23cc986bc656d553,
    0xedec366b11c6cb8f_2cbfbe86b7ec8aa8,
    0x94b3a202eb1c3f39_7bf7d71432f3d6a9,
    0xb9e08a83a5e34f07_daf5ccd93fb0cc53,
    0xe858ad248f5c22c9_d1b3400f8f9cff68,
    0x91376c36d99995be_23100809b9c21fa1,
    0xb58547448ffffb2d_abd40a0c2832a78a,
    0xe2e69915b3fff9f9_16c90c8f323f516c,
    0x8dd01fad907ffc3b_ae3da7d97f6792e3,
    0xb1442798f49ffb4a_99cd11cfdf41779c,
    0xdd95317f31c7fa1d_40405643d711d583,
    0x8a7d3eef7f1cfc52_482835ea666b2572,
    0xad1c8eab5ee43b66_da3243650005eecf,
    0xd863b256369d4a40_90bed43e40076a82,
    0x873e4f75e2224e68_5a7744a6e804a291,
    0xa90de3535aaae202_711515d0a205cb36,
    0xd3515c2831559a83_0d5a5b44ca873e03,
    0x8412d9991ed58091_e858790afe9486c2,
    0xa5178fff668ae0b6_626e974dbe39a872,
    0xce5d73ff402d98e3_fb0a3d212dc8128f,
    0x80fa687f881c7f8e_7ce66634bc9d0b99,
    0xa139029f6a239f72_1c1fffc1ebc44e80,
    0xc987434744ac874e_a327ffb266b56220,
    0xfbe9141915d7a922_4bf1ff9f0062baa8,
    0x9d71ac8fada6c9b5_6f773fc3603db4a9,
    0xc4ce17b399107c22_cb550fb4384d21d3,
    0xf6019da07f549b2b_7e2a53a146606a48,
    0x99c102844f94e0fb_2eda7444cbfc426d,
    0xc0314325637a1939_fa911155fefb5308,
    0xf03d93eebc589f88_793555ab7eba27ca,
    0x96267c7535b763b5_4bc1558b2f3458de,
    0xbbb01b9283253ca2_9eb1aaedfb016f16,
    0xea9c227723ee8bcb_465e15a979c1cadc,
    0x92a1958a7675175f_0bfacd89ec191ec9,
    0xb749faed14125d36_cef980ec671f667b,
    0xe51c79a85916f484_82b7e12780e7401a,
    0x8f31cc0937ae58d2_d1b2ecb8b0908810,
    0xb2fe3f0b8599ef07_861fa7e6dcb4aa15,
    0xdfbdcece67006ac9_67a791e093e1d49a,
    0x8bd6a141006042bd_e0c8bb2c5c6d24e0,
    0xaecc49914078536d_58fae9f773886e18,
    0xda7f5bf590966848_af39a475506a899e,
    0x888f99797a5e012d_6d8406c952429603,
    0xaab37fd7d8f58178_c8e5087ba6d33b83,
    0xd5605fcdcf32e1d6_fb1e4a9a90880a64,
    0x855c3be0a17fcd26_5cf2eea09a55067f,
    0xa6b34ad8c9dfc06f_f42faa48c0ea481e,
    0xd0601d8efc57b08b_f13b94daf124da26,
    0x823c12795db6ce57_76c53d08d6b70858,
    0xa2cb1717b52481ed_54768c4b0c64ca6e,
    0xcb7ddcdda26da268_a9942f5dcf7dfd09,
    0xfe5d54150b090b02_d3f93b35435d7c4c,
    0x9efa548d26e5a6e1_c47bc5014a1a6daf,
    0xc6b8e9b0709f109a_359ab6419ca1091b,
    0xf867241c8cc6d4c0_c30163d203c94b62,
    0x9b407691d7fc44f8_79e0de63425dcf1d,
    0xc21094364dfb5636_985915fc12f542e4,
    0xf294b943e17a2bc4_3e6f5b7b17b2939d,
    0x979cf3ca6cec5b5a_a705992ceecf9c42,
    0xbd8430bd08277231_50c6ff782a838353,
    0xece53cec4a314ebd_a4f8bf5635246428,
    0x940f4613ae5ed136_871b7795e136be99,
    0xb913179899f68584_28e2557b59846e3f,
    0xe757dd7ec07426e5_331aeada2fe589cf,
    0x9096ea6f3848984f_3ff0d2c85def7621,
    0xb4bca50b065abe63_0fed077a756b53a9,
    0xe1ebce4dc7f16dfb_d3e8495912c62894,
    0x8d3360f09cf6e4bd_64712dd7abbbd95c,
    0xb080392cc4349dec_bd8d794d96aacfb3,
    0xdca04777f541c567_ecf0d7a0fc5583a0,
    0x89e42caaf9491b60_f41686c49db57244,
    0xac5d37d5b79b6239_311c2875c522ced5,
    0xd77485cb25823ac7_7d633293366b828b,
    0x86a8d39ef77164bc_ae5dff9c02033197,
    0xa8530886b54dbdeb_d9f57f830283fdfc,
    0xd267caa862a12d66_d072df63c324fd7b,
    0x8380dea93da4bc60_4247cb9e59f71e6d,
    0xa46116538d0deb78_52d9be85f074e608,
    0xcd795be870516656_67902e276c921f8b,
    0x806bd9714632dff6_00ba1cd8a3db53b6,
    0xa086cfcd97bf97f3_80e8a40eccd228a4,
    0xc8a883c0fdaf7df0_6122cd128006b2cd,
    0xfad2a4b13d1b5d6c_796b805720085f81,
    0x9cc3a6eec6311a63_cbe3303674053bb0,
    0xc3f490aa77bd60fc_bedbfc4411068a9c,
    0xf4f1b4d515acb93b_ee92fb5515482d44,
    0x991711052d8bf3c5_751bdd152d4d1c4a,
    0xbf5cd54678eef0b6_d262d45a78a0635d,
    0xef340a98172aace4_86fb897116c87c34,
    0x9580869f0e7aac0e_d45d35e6ae3d4da0,
    0xbae0a846d2195712_8974836059cca109,
    0xe998d258869facd7_2bd1a438703fc94b,
    0x91ff83775423cc06_7b6306a34627ddcf,
    0xb67f6455292cbf08_1a3bc84c17b1d542,
    0xe41f3d6a7377eeca_20caba5f1d9e4a93,
    0x8e938662882af53e_547eb47b7282ee9c,
    0xb23867fb2a35b28d_e99e619a4f23aa43,
    0xdec681f9f4c31f31_6405fa00e2ec94d4,
    0x8b3c113c38f9f37e_de83bc408dd3dd04,
    0xae0b158b4738705e_9624ab50b148d445,
    0xd98ddaee19068c76_3badd624dd9b0957,
    0x87f8a8d4cfa417c9_e54ca5d70a80e5d6,
    0xa9f6d30a038d1dbc_5e9fcf4ccd211f4c,
    0xd47487cc8470652b_7647c3200069671f,
    0x84c8d4dfd2c63f3b_29ecd9f40041e073,
    0xa5fb0a17c777cf09_f468107100525890,
    0xcf79cc9db955c2cc_7182148d4066eeb4,
    0x81ac1fe293d599bf_c6f14cd848405530,
    0xa21727db38cb002f_b8ada00e5a506a7c,
    0xca9cf1d206fdc03b_a6d90811f0e4851c,
    0xfd442e4688bd304a_908f4a166d1da663,
    0x9e4a9cec15763e2e_9a598e4e043287fe,
    0xc5dd44271ad3cdba_40eff1e1853f29fd,
    0xf7549530e188c128_d12bee59e68ef47c,
    0x9a94dd3e8cf578b9_82bb74f8301958ce,
    0xc13a148e3032d6e7_e36a52363c1faf01,
    0xf18899b1bc3f8ca1_dc44e6c3cb279ac1,
    0x96f5600f15a7b7e5_29ab103a5ef8c0b9,
    0xbcb2b812db11a5de_7415d448f6b6f0e7,
    0xebdf661791d60f56_111b495b3464ad21,
    0x936b9fcebb25c995_cab10dd900beec34,
    0xb84687c269ef3bfb_3d5d514f40eea742,
    0xe65829b3046b0afa_0cb4a5a3112a5112,
    0x8ff71a0fe2c2e6dc_47f0e785eaba72ab,
    0xb3f4e093db73a093_59ed216765690f56,
    0xe0f218b8d25088b8_306869c13ec3532c,
    0x8c974f7383725573_1e414218c73a13fb,
    0xafbd2350644eeacf_e5d1929ef90898fa,
    0xdbac6c247d62a583_df45f746b74abf39,
    0x894bc396ce5da772_6b8bba8c328eb783,
    0xab9eb47c81f5114f_066ea92f3f326564,
    0xd686619ba27255a2_c80a537b0efefebd,
    0x8613fd0145877585_bd06742ce95f5f36,
    0xa798fc4196e952e7_2c48113823b73704,
    0xd17f3b51fca3a7a0_f75a15862ca504c5,
    0x82ef85133de648c4_9a984d73dbe722fb,
    0xa3ab66580d5fdaf5_c13e60d0d2e0ebba,
    0xcc963fee10b7d1b3_318df905079926a8,
    0xffbbcfe994e5c61f_fdf17746497f7052,
    0x9fd561f1fd0f9bd3_feb6ea8bedefa633,
    0xc7caba6e7c5382c8_fe64a52ee96b8fc0,
    0xf9bd690a1b68637b_3dfdce7aa3c673b0,
    0x9c1661a651213e2d_06bea10ca65c084e,
    0xc31bfa0fe5698db8_486e494fcff30a62,
    0xf3e2f893dec3f126_5a89dba3c3efccfa,
    0x986ddb5c6b3a76b7_f89629465a75e01c,
    0xbe89523386091465_f6bbb397f1135823,
    0xee2ba6c0678b597f_746aa07ded582e2c,
    0x94db483840b717ef_a8c2a44eb4571cdc,
    0xba121a4650e4ddeb_92f34d62616ce413,
    0xe896a0d7e51e1566_77b020baf9c81d17,
    0x915e2486ef32cd60_0ace1474dc1d122e,
    0xb5b5ada8aaff80b8_0d819992132456ba,
    0xe3231912d5bf60e6_10e1fff697ed6c69,
    0x8df5efabc5979c8f_ca8d3ffa1ef463c1,
    0xb1736b96b6fd83b3_bd308ff8a6b17cb2,
    0xddd0467c64bce4a0_ac7cb3f6d05ddbde,
    0x8aa22c0dbef60ee4_6bcdf07a423aa96b,
    0xad4ab7112eb3929d_86c16c98d2c953c6,
    0xd89d64d57a607744_e871c7bf077ba8b7,
    0x87625f056c7c4a8b_11471cd764ad4972,
    0xa93af6c6c79b5d2d_d598e40d3dd89bcf,
    0xd389b47879823479_4aff1d108d4ec2c3,
    0x843610cb4bf160cb_cedf722a585139ba,
    0xa54394fe1eedb8fe_c2974eb4ee658828,
    0xce947a3da6a9273e_733d226229feea32,
    0x811ccc668829b887_0806357d5a3f525f,
    0xa163ff802a3426a8_ca07c2dcb0cf26f7,
    0xc9bcff6034c13052_fc89b393dd02f0b5,
    0xfc2c3f3841f17c67_bbac2078d443ace2,
    0x9d9ba7832936edc0_d54b944b84aa4c0d,
    0xc5029163f384a931_0a9e795e65d4df11,
    0xf64335bcf065d37d_4d4617b5ff4a16d5,
    0x99ea0196163fa42e_504bced1bf8e4e45,
    0xc06481fb9bcf8d39_e45ec2862f71e1d6,
    0xf07da27a82c37088_5d767327bb4e5a4c,
    0x964e858c91ba2655_3a6a07f8d510f86f,
    0xbbe226efb628afea_890489f70a55368b,
    0xeadab0aba3b2dbe5_2b45ac74ccea842e,
    0x92c8ae6b464fc96f_3b0b8bc90012929d,
    0xb77ada0617e3bbcb_09ce6ebb40173744,
    0xe55990879ddcaabd_cc420a6a101d0515,
    0x8f57fa54c2a9eab6_9fa946824a12232d,
    0xb32df8e9f3546564_47939822dc96abf9,
    0xdff9772470297ebd_59787e2b93bc56f7,
    0x8bfbea76c619ef36_57eb4edb3c55b65a,
    0xaefae51477a06b03_ede622920b6b23f1,
    0xdab99e59958885c4_e95fab368e45eced,
    0x88b402f7fd75539b_11dbcb0218ebb414,
    0xaae103b5fcd2a881_d652bdc29f26a119,
    0xd59944a37c0752a2_4be76d3346f0495f,
    0x857fcae62d8493a5_6f70a4400c562ddb,
    0xa6dfbd9fb8e5b88e_cb4ccd500f6bb952,
    0xd097ad07a71f26b2_7e2000a41346a7a7,
    0x825ecc24c873782f_8ed400668c0c28c8,
    0xa2f67f2dfa90563b_728900802f0f32fa,
    0xcbb41ef979346bca_4f2b40a03ad2ffb9,
    0xfea126b7d78186bc_e2f610c84987bfa8,
    0x9f24b832e6b0f436_0dd9ca7d2df4d7c9,
    0xc6ede63fa05d3143_91503d1c79720dbb,
    0xf8a95fcf88747d94_75a44c6397ce912a,
    0x9b69dbe1b548ce7c_c986afbe3ee11aba,
    0xc24452da229b021b_fbe85badce996168,
    0xf2d56790ab41c2a2_fae27299423fb9c3,
    0x97c560ba6b0919a5_dccd879fc967d41a,
    0xbdb6b8e905cb600f_5400e987bbc1c920,
    0xed246723473e3813_290123e9aab23b68,
    0x9436c0760c86e30b_f9a0b6720aaf6521,
    0xb94470938fa89bce_f808e40e8d5b3e69,
    0xe7958cb87392c2c2_b60b1d1230b20e04,
    0x90bd77f3483bb9b9_b1c6f22b5e6f48c2,
    0xb4ecd5f01a4aa828_1e38aeb6360b1af3,
    0xe2280b6c20dd5232_25c6da63c38de1b0,
    0x8d590723948a535f_579c487e5a38ad0e,
    0xb0af48ec79ace837_2d835a9df0c6d851,
    0xdcdb1b2798182244_f8e431456cf88e65,
    0x8a08f0f8bf0f156b_1b8e9ecb641b58ff,
    0xac8b2d36eed2dac5_e272467e3d222f3f,
    0xd7adf884aa879177_5b0ed81dcc6abb0f,
    0x86ccbb52ea94baea_98e947129fc2b4e9,
    0xa87fea27a539e9a5_3f2398d747b36224,
    0xd29fe4b18e88640e_8eec7f0d19a03aad,
    0x83a3eeeef9153e89_1953cf68300424ac,
    0xa48ceaaab75a8e2b_5fa8c3423c052dd7,
    0xcdb02555653131b6_3792f412cb06794d,
    0x808e17555f3ebf11_e2bbd88bbee40bd0,
    0xa0b19d2ab70e6ed6_5b6aceaeae9d0ec4,
    0xc8de047564d20a8b_f245825a5a445275,
    0xfb158592be068d2e_eed6e2f0f0d56712,
    0x9ced737bb6c4183d_55464dd69685606b,
    0xc428d05aa4751e4c_aa97e14c3c26b886,
    0xf53304714d9265df_d53dd99f4b3066a8,
    0x993fe2c6d07b7fab_e546a8038efe4029,
    0xbf8fdb78849a5f96_de98520472bdd033,
    0xef73d256a5c0f77c_963e66858f6d4440,
    0x95a8637627989aad_dde7001379a44aa8,
    0xbb127c53b17ec159_5560c018580d5d52,
    0xe9d71b689dde71af_aab8f01e6e10b4a6,
    0x9226712162ab070d_cab3961304ca70e8,
    0xb6b00d69bb55c8d1_3d607b97c5fd0d22,
    0xe45c10c42a2b3b05_8cb89a7db77c506a,
    0x8eb98a7a9a5b04e3_77f3608e92adb242,
    0xb267ed1940f1c61c_55f038b237591ed3,
    0xdf01e85f912e37a3_6b6c46dec52f6688,
    0x8b61313bbabce2c6_2323ac4b3b3da015,
    0xae397d8aa96c1b77_abec975e0a0d081a,
    0xd9c7dced53c72255_96e7bd358c904a21,
    0x881cea14545c7575_7e50d64177da2e54,
    0xaa242499697392d2_dde50bd1d5d0b9e9,
    0xd4ad2dbfc3d07787_955e4ec64b44e864,
    0x84ec3c97da624ab4_bd5af13bef0b113e,
    0xa6274bbdd0fadd61_ecb1ad8aeacdd58e,
    0xcfb11ead453994ba_67de18eda5814af2,
    0x81ceb32c4b43fcf4_80eacf948770ced7,
    0xa2425ff75e14fc31_a1258379a94d028d,
    0xcad2f7f5359a3b3e_096ee45813a04330,
    0xfd87b5f28300ca0d_8bca9d6e188853fc,
    0x9e74d1b791e07e48_775ea264cf55347e,
    0xc612062576589dda_95364afe032a819e,
    0xf79687aed3eec551_3a83ddbd83f52205,
    0x9abe14cd44753b52_c4926a9672793543,
    0xc16d9a0095928a27_75b7053c0f178294,
    0xf1c90080baf72cb1_5324c68b12dd6339,
    0x971da05074da7bee_d3f6fc16ebca5e04,
    0xbce5086492111aea_88f4bb1ca6bcf585,
    0xec1e4a7db69561a5_2b31e9e3d06c32e6,
    0x9392ee8e921d5d07_3aff322e62439fd0,
    0xb877aa3236a4b449_09befeb9fad487c3,
    0xe69594bec44de15b_4c2ebe687989a9b4,
    0x901d7cf73ab0acd9_0f9d37014bf60a11,
    0xb424dc35095cd80f_538484c19ef38c95,
    0xe12e13424bb40e13_2865a5f206b06fba,
    0x8cbccc096f5088cb_f93f87b7442e45d4,
    0xafebff0bcb24aafe_f78f69a51539d749,
    0xdbe6fecebdedd5be_b573440e5a884d1c,
    0x89705f4136b4a597_31680a88f8953031,
    0xabcc77118461cefc_fdc20d2b36ba7c3e,
    0xd6bf94d5e57a42bc_3d32907604691b4d,
    0x8637bd05af6c69b5_a63f9a49c2c1b110,
    0xa7c5ac471b478423_0fcf80dc33721d54,
    0xd1b71758e219652b_d3c36113404ea4a9,
    0x83126e978d4fdf3b_645a1cac083126ea,
    0xa3d70a3d70a3d70a_3d70a3d70a3d70a4,
    0xcccccccccccccccc_cccccccccccccccd,
    0x8000000000000000_0000000000000000,
    0xa000000000000000_0000000000000000,
    0xc800000000000000_0000000000000000,
    0xfa00000000000000_0000000000000000,
    0x9c40000000000000_0000000000000000,
    0xc350000000000000_0000000000000000,
    0xf424000000000000_0000000000000000,
    0x9896800000000000_0000000000000000,
    0xbebc200000000000_0000000000000000,
    0xee6b280000000000_0000000000000000,
    0x9502f90000000000_0000000000000000,
    0xba43b74000000000_0000000000000000,
    0xe8d4a51000000000_0000000000000000,
    0x9184e72a00000000_0000000000000000,
    0xb5e620f480000000_0000000000000000,
    0xe35fa931a0000000_0000000000000000,
    0x8e1bc9bf04000000_0000000000000000,
    0xb1a2bc2ec5000000_0000000000000000,
    0xde0b6b3a76400000_0000000000000000,
    0x8ac7230489e80000_0000000000000000,
    0xad78ebc5ac620000_0000000000000000,
    0xd8d726b7177a8000_0000000000000000,
    0x878678326eac9000_0000000000000000,
    0xa968163f0a57b400_0000000000000000,
    0xd3c21bcecceda100_0000000000000000,
    0x84595161401484a0_0000000000000000,
    0xa56fa5b99019a5c8_0000000000000000,
    0xcecb8f27f4200f3a_0000000000000000,
    0x813f3978f8940984_4000000000000000,
    0xa18f07d736b90be5_5000000000000000,
    0xc9f2c9cd04674ede_a400000000000000,
    0xfc6f7c4045812296_4d00000000000000,
    0x9dc5ada82b70b59d_f020000000000000,
    0xc5371912364ce305_6c28000000000000,
    0xf684df56c3e01bc6_c732000000000000,
    0x9a130b963a6c115c_3c7f400000000000,
    0xc097ce7bc90715b3_4b9f100000000000,
    0xf0bdc21abb48db20_1e86d40000000000,
    0x96769950b50d88f4_1314448000000000,
    0xbc143fa4e250eb31_17d955a000000000,
    0xeb194f8e1ae525fd_5dcfab0800000000,
    0x92efd1b8d0cf37be_5aa1cae500000000,
    0xb7abc627050305ad_f14a3d9e40000000,
    0xe596b7b0c643c719_6d9ccd05d0000000,
    0x8f7e32ce7bea5c6f_e4820023a2000000,
    0xb35dbf821ae4f38b_dda2802c8a800000,
    0xe0352f62a19e306e_d50b2037ad200000,
    0x8c213d9da502de45_4526f422cc340000,
    0xaf298d050e4395d6_9670b12b7f410000,
    0xdaf3f04651d47b4c_3c0cdd765f114000,
    0x88d8762bf324cd0f_a5880a69fb6ac800,
    0xab0e93b6efee0053_8eea0d047a457a00,
    0xd5d238a4abe98068_72a4904598d6d880,
    0x85a36366eb71f041_47a6da2b7f864750,
    0xa70c3c40a64e6c51_999090b65f67d924,
    0xd0cf4b50cfe20765_fff4b4e3f741cf6d,
    0x82818f1281ed449f_bff8f10e7a8921a4,
    0xa321f2d7226895c7_aff72d52192b6a0d,
    0xcbea6f8ceb02bb39_9bf4f8a69f764490,
    0xfee50b7025c36a08_02f236d04753d5b4,
    0x9f4f2726179a2245_01d762422c946590,
    0xc722f0ef9d80aad6_424d3ad2b7b97ef5,
    0xf8ebad2b84e0d58b_d2e0898765a7deb2,
    0x9b934c3b330c8577_63cc55f49f88eb2f,
    0xc2781f49ffcfa6d5_3cbf6b71c76b25fb,
    0xf316271c7fc3908a_8bef464e3945ef7a,
    0x97edd871cfda3a56_97758bf0e3cbb5ac,
    0xbde94e8e43d0c8ec_3d52eeed1cbea317,
    0xed63a231d4c4fb27_4ca7aaa863ee4bdd,
    0x945e455f24fb1cf8_8fe8caa93e74ef6a,
    0xb975d6b6ee39e436_b3e2fd538e122b44,
    0xe7d34c64a9c85d44_60dbbca87196b616,
    0x90e40fbeea1d3a4a_bc8955e946fe31cd,
    0xb51d13aea4a488dd_6babab6398bdbe41,
    0xe264589a4dcdab14_c696963c7eed2dd1,
    0x8d7eb76070a08aec_fc1e1de5cf543ca2,
    0xb0de65388cc8ada8_3b25a55f43294bcb,
    0xdd15fe86affad912_49ef0eb713f39ebe,
    0x8a2dbf142dfcc7ab_6e3569326c784337,
    0xacb92ed9397bf996_49c2c37f07965404,
    0xd7e77a8f87daf7fb_dc33745ec97be906,
    0x86f0ac99b4e8dafd_69a028bb3ded71a3,
    0xa8acd7c0222311bc_c40832ea0d68ce0c,
    0xd2d80db02aabd62b_f50a3fa490c30190,
    0x83c7088e1aab65db_792667c6da79e0fa,
    0xa4b8cab1a1563f52_577001b891185938,
    0xcde6fd5e09abcf26_ed4c0226b55e6f86,
    0x80b05e5ac60b6178_544f8158315b05b4,
    0xa0dc75f1778e39d6_696361ae3db1c721,
    0xc913936dd571c84c_03bc3a19cd1e38e9,
    0xfb5878494ace3a5f_04ab48a04065c723,
    0x9d174b2dcec0e47b_62eb0d64283f9c76,
    0xc45d1df942711d9a_3ba5d0bd324f8394,
    0xf5746577930d6500_ca8f44ec7ee36479,
    0x9968bf6abbe85f20_7e998b13cf4e1ecb,
    0xbfc2ef456ae276e8_9e3fedd8c321a67e,
    0xefb3ab16c59b14a2_c5cfe94ef3ea101e,
    0x95d04aee3b80ece5_bba1f1d158724a12,
    0xbb445da9ca61281f_2a8a6e45ae8edc97,
    0xea1575143cf97226_f52d09d71a3293bd,
    0x924d692ca61be758_593c2626705f9c56,
    0xb6e0c377cfa2e12e_6f8b2fb00c77836c,
    0xe498f455c38b997a_0b6dfb9c0f956447,
    0x8edf98b59a373fec_4724bd4189bd5eac,
    0xb2977ee300c50fe7_58edec91ec2cb657,
    0xdf3d5e9bc0f653e1_2f2967b66737e3ed,
    0x8b865b215899f46c_bd79e0d20082ee74,
    0xae67f1e9aec07187_ecd8590680a3aa11,
    0xda01ee641a708de9_e80e6f4820cc9495,
    0x884134fe908658b2_3109058d147fdcdd,
    0xaa51823e34a7eede_bd4b46f0599fd415,
    0xd4e5e2cdc1d1ea96_6c9e18ac7007c91a,
    0x850fadc09923329e_03e2cf6bc604ddb0,
    0xa6539930bf6bff45_84db8346b786151c,
    0xcfe87f7cef46ff16_e612641865679a63,
    0x81f14fae158c5f6e_4fcb7e8f3f60c07e,
    0xa26da3999aef7749_e3be5e330f38f09d,
    0xcb090c8001ab551c_5cadf5bfd3072cc5,
    0xfdcb4fa002162a63_73d9732fc7c8f7f6,
    0x9e9f11c4014dda7e_2867e7fddcdd9afa,
    0xc646d63501a1511d_b281e1fd541501b8,
    0xf7d88bc24209a565_1f225a7ca91a4226,
    0x9ae757596946075f_3375788de9b06958,
    0xc1a12d2fc3978937_0052d6b1641c83ae,
    0xf209787bb47d6b84_c0678c5dbd23a49a,
    0x9745eb4d50ce6332_f840b7ba963646e0,
    0xbd176620a501fbff_b650e5a93bc3d898,
    0xec5d3fa8ce427aff_a3e51f138ab4cebe,
    0x93ba47c980e98cdf_c66f336c36b10137,
    0xb8a8d9bbe123f017_b80b0047445d4184,
    0xe6d3102ad96cec1d_a60dc059157491e5,
    0x9043ea1ac7e41392_87c89837ad68db2f,
    0xb454e4a179dd1877_29babe4598c311fb,
    0xe16a1dc9d8545e94_f4296dd6fef3d67a,
    0x8ce2529e2734bb1d_1899e4a65f58660c,
    0xb01ae745b101e9e4_5ec05dcff72e7f8f,
    0xdc21a1171d42645d_76707543f4fa1f73,
    0x899504ae72497eba_6a06494a791c53a8,
    0xabfa45da0edbde69_0487db9d17636892,
    0xd6f8d7509292d603_45a9d2845d3c42b6,
    0x865b86925b9bc5c2_0b8a2392ba45a9b2,
    0xa7f26836f282b732_8e6cac7768d7141e,
    0xd1ef0244af2364ff_3207d795430cd926,
    0x8335616aed761f1f_7f44e6bd49e807b8,
    0xa402b9c5a8d3a6e7_5f16206c9c6209a6,
    0xcd036837130890a1_36dba887c37a8c0f,
    0x802221226be55a64_c2494954da2c9789,
    0xa02aa96b06deb0fd_f2db9baa10b7bd6c,
    0xc83553c5c8965d3d_6f92829494e5acc7,
    0xfa42a8b73abbf48c_cb772339ba1f17f9,
    0x9c69a97284b578d7_ff2a760414536efb,
    0xc38413cf25e2d70d_fef5138519684aba,
    0xf46518c2ef5b8cd1_7eb258665fc25d69,
    0x98bf2f79d5993802_ef2f773ffbd97a61,
    0xbeeefb584aff8603_aafb550ffacfd8fa,
    0xeeaaba2e5dbf6784_95ba2a53f983cf38,
    0x952ab45cfa97a0b2_dd945a747bf26183,
    0xba756174393d88df_94f971119aeef9e4,
    0xe912b9d1478ceb17_7a37cd5601aab85d,
    0x91abb422ccb812ee_ac62e055c10ab33a,
    0xb616a12b7fe617aa_577b986b314d6009,
    0xe39c49765fdf9d94_ed5a7e85fda0b80b,
    0x8e41ade9fbebc27d_14588f13be847307,
    0xb1d219647ae6b31c_596eb2d8ae258fc8,
    0xde469fbd99a05fe3_6fca5f8ed9aef3bb,
    0x8aec23d680043bee_25de7bb9480d5854,
    0xada72ccc20054ae9_af561aa79a10ae6a,
    0xd910f7ff28069da4_1b2ba1518094da04,
    0x87aa9aff79042286_90fb44d2f05d0842,
    0xa99541bf57452b28_353a1607ac744a53,
    0xd3fa922f2d1675f2_42889b8997915ce8,
    0x847c9b5d7c2e09b7_69956135febada11,
    0xa59bc234db398c25_43fab9837e699095,
    0xcf02b2c21207ef2e_94f967e45e03f4bb,
    0x8161afb94b44f57d_1d1be0eebac278f5,
    0xa1ba1ba79e1632dc_6462d92a69731732,
    0xca28a291859bbf93_7d7b8f7503cfdcfe,
    0xfcb2cb35e702af78_5cda735244c3d43e,
    0x9defbf01b061adab_3a0888136afa64a7,
    0xc56baec21c7a1916_088aaa1845b8fdd0,
    0xf6c69a72a3989f5b_8aad549e57273d45,
    0x9a3c2087a63f6399_36ac54e2f678864b,
    0xc0cb28a98fcf3c7f_84576a1bb416a7dd,
    0xf0fdf2d3f3c30b9f_656d44a2a11c51d5,
    0x969eb7c47859e743_9f644ae5a4b1b325,
    0xbc4665b596706114_873d5d9f0dde1fee,
    0xeb57ff22fc0c7959_a90cb506d155a7ea,
    0x9316ff75dd87cbd8_09a7f12442d588f2,
    0xb7dcbf5354e9bece_0c11ed6d538aeb2f,
    0xe5d3ef282a242e81_8f1668c8a86da5fa,
    0x8fa475791a569d10_f96e017d694487bc,
    0xb38d92d760ec4455_37c981dcc395a9ac,
    0xe070f78d3927556a_85bbe253f47b1417,
    0x8c469ab843b89562_93956d7478ccec8e,
    0xaf58416654a6babb_387ac8d1970027b2,
    0xdb2e51bfe9d0696a_06997b05fcc0319e,
    0x88fcf317f22241e2_441fece3bdf81f03,
    0xab3c2fddeeaad25a_d527e81cad7626c3,
    0xd60b3bd56a5586f1_8a71e223d8d3b074,
    0x85c7056562757456_f6872d5667844e49,
    0xa738c6bebb12d16c_b428f8ac016561db,
    0xd106f86e69d785c7_e13336d701beba52,
    0x82a45b450226b39c_ecc0024661173473,
    0xa34d721642b06084_27f002d7f95d0190,
    0xcc20ce9bd35c78a5_31ec038df7b441f4,
    0xff290242c83396ce_7e67047175a15271,
    0x9f79a169bd203e41_0f0062c6e984d386,
    0xc75809c42c684dd1_52c07b78a3e60868,
    0xf92e0c3537826145_a7709a56ccdf8a82,
    0x9bbcc7a142b17ccb_88a66076400bb691,
    0xc2abf989935ddbfe_6acff893d00ea435,
    0xf356f7ebf83552fe_0583f6b8c4124d43,
    0x98165af37b2153de_c3727a337a8b704a,
    0xbe1bf1b059e9a8d6_744f18c0592e4c5c,
    0xeda2ee1c7064130c_1162def06f79df73,
    0x9485d4d1c63e8be7_8addcb5645ac2ba8,
    0xb9a74a0637ce2ee1_6d953e2bd7173692,
    0xe8111c87c5c1ba99_c8fa8db6ccdd0437,
    0x910ab1d4db9914a0_1d9c9892400a22a2,
    0xb54d5e4a127f59c8_2503beb6d00cab4b,
    0xe2a0b5dc971f303a_2e44ae64840fd61d,
    0x8da471a9de737e24_5ceaecfed289e5d2,
    0xb10d8e1456105dad_7425a83e872c5f47,
    0xdd50f1996b947518_d12f124e28f77719,
    0x8a5296ffe33cc92f_82bd6b70d99aaa6f,
    0xace73cbfdc0bfb7b_636cc64d1001550b,
    0xd8210befd30efa5a_3c47f7e05401aa4e,
    0x8714a775e3e95c78_65acfaec34810a71,
    0xa8d9d1535ce3b396_7f1839a741a14d0d,
    0xd31045a8341ca07c_1ede48111209a050,
    0x83ea2b892091e44d_934aed0aab460432,
    0xa4e4b66b68b65d60_f81da84d5617853f,
    0xce1de40642e3f4b9_36251260ab9d668e,
    0x80d2ae83e9ce78f3_c1d72b7c6b426019,
    0xa1075a24e4421730_b24cf65b8612f81f,
    0xc94930ae1d529cfc_dee033f26797b627,
    0xfb9b7cd9a4a7443c_169840ef017da3b1,
    0x9d412e0806e88aa5_8e1f289560ee864e,
    0xc491798a08a2ad4e_f1a6f2bab92a27e2,
    0xf5b5d7ec8acb58a2_ae10af696774b1db,
    0x9991a6f3d6bf1765_acca6da1e0a8ef29,
    0xbff610b0cc6edd3f_17fd090a58d32af3,
    0xeff394dcff8a948e_ddfc4b4cef07f5b0,
    0x95f83d0a1fb69cd9_4abdaf101564f98e,
    0xbb764c4ca7a4440f_9d6d1ad41abe37f1,
    0xea53df5fd18d5513_84c86189216dc5ed,
    0x92746b9be2f8552c_32fd3cf5b4e49bb4,
    0xb7118682dbb66a77_3fbc8c33221dc2a1,
    0xe4d5e82392a40515_0fabaf3feaa5334a,
    0x8f05b1163ba6832d_29cb4d87f2a7400e,
    0xb2c71d5bca9023f8_743e20e9ef511012,
    0xdf78e4b2bd342cf6_914da9246b255416,
    0x8bab8eefb6409c1a_1ad089b6c2f7548e,
    0xae9672aba3d0c320_a184ac2473b529b1,
    0xda3c0f568cc4f3e8_c9e5d72d90a2741e,
    0x8865899617fb1871_7e2fa67c7a658892,
    0xaa7eebfb9df9de8d_ddbb901b98feeab7,
    0xd51ea6fa85785631_552a74227f3ea565,
    0x8533285c936b35de_d53a88958f87275f,
    0xa67ff273b8460356_8a892abaf368f137,
    0xd01fef10a657842c_2d2b7569b0432d85,
    0x8213f56a67f6b29b_9c3b29620e29fc73,
    0xa298f2c501f45f42_8349f3ba91b47b8f,
    0xcb3f2f7642717713_241c70a936219a73,
    0xfe0efb53d30dd4d7_ed238cd383aa0110,
    0x9ec95d1463e8a506_f4363804324a40aa,
    0xc67bb4597ce2ce48_b143c6053edcd0d5,
    0xf81aa16fdc1b81da_dd94b7868e94050a,
    0x9b10a4e5e9913128_ca7cf2b4191c8326,
    0xc1d4ce1f63f57d72_fd1c2f611f63a3f0,
    0xf24a01a73cf2dccf_bc633b39673c8cec,
    0x976e41088617ca01_d5be0503e085d813,
    0xbd49d14aa79dbc82_4b2d8644d8a74e18,
    0xec9c459d51852ba2_ddf8e7d60ed1219e,
    0x93e1ab8252f33b45_cabb90e5c942b503,
    0xb8da1662e7b00a17_3d6a751f3b936243,
    0xe7109bfba19c0c9d_0cc512670a783ad4,
    0x906a617d450187e2_27fb2b80668b24c5,
    0xb484f9dc9641e9da_b1f9f660802dedf6,
    0xe1a63853bbd26451_5e7873f8a0396973,
    0x8d07e33455637eb2_db0b487b6423e1e8,
    0xb049dc016abc5e5f_91ce1a9a3d2cda62,
    0xdc5c5301c56b75f7_7641a140cc7810fb,
    0x89b9b3e11b6329ba_a9e904c87fcb0a9d,
    0xac2820d9623bf429_546345fa9fbdcd44,
    0xd732290fbacaf133_a97c177947ad4095,
    0x867f59a9d4bed6c0_49ed8eabcccc485d,
    0xa81f301449ee8c70_5c68f256bfff5a74,
    0xd226fc195c6a2f8c_73832eec6fff3111,
    0x83585d8fd9c25db7_c831fd53c5ff7eab,
    0xa42e74f3d032f525_ba3e7ca8b77f5e55,
    0xcd3a1230c43fb26f_28ce1bd2e55f35eb,
    0x80444b5e7aa7cf85_7980d163cf5b81b3,
    0xa0555e361951c366_d7e105bcc332621f,
    0xc86ab5c39fa63440_8dd9472bf3fefaa7,
    0xfa856334878fc150_b14f98f6f0feb951,
    0x9c935e00d4b9d8d2_6ed1bf9a569f33d3,
    0xc3b8358109e84f07_0a862f80ec4700c8,
    0xf4a642e14c6262c8_cd27bb612758c0fa,
    0x98e7e9cccfbd7dbd_8038d51cb897789c,
    0xbf21e44003acdd2c_e0470a63e6bd56c3,
    0xeeea5d5004981478_1858ccfce06cac74,
    0x95527a5202df0ccb_0f37801e0c43ebc8,
    0xbaa718e68396cffd_d30560258f54e6ba,
    0xe950df20247c83fd_47c6b82ef32a2069,
    0x91d28b7416cdd27e_4cdc331d57fa5441,
    0xb6472e511c81471d_e0133fe4adf8e952,
    0xe3d8f9e563a198e5_58180fddd97723a6,
    0x8e679c2f5e44ff8f_570f09eaa7ea7648,
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
    /// buffers, and reads the text back: [`read_f64`] and `str::parse`
    /// must both give `x`'s bits, and the reader must consume it all.
    fn assert_matches_debug(x: f64, text: &mut String, oracle: &mut String) {
        text.clear();
        push_f64(text, x);
        oracle.clear();
        let _ = write!(oracle, "{x:?}");
        assert_eq!(text, oracle, "bits {:#018x}", x.to_bits());
        assert!(text.len() <= F64_TEXT_MAX, "{text}");
        let mut pos = 0;
        let back = read_f64(text, &mut pos).map(f64::to_bits);
        assert_eq!((back, pos), (Ok(x.to_bits()), text.len()), "{text}");
        assert_eq!(text.parse::<f64>().map(f64::to_bits), Ok(x.to_bits()));
    }

    /// Also the reader's round trip: each text is read back as it is
    /// compared.
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

        fn shl(&self, k: u32) -> Big {
            let mut limbs = vec![0; k as usize / 64];
            limbs.extend(&self.0);
            Big(limbs).mul_u64(1 << (k % 64))
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

    #[test]
    fn reader_table_matches_its_regeneration() {
        let mut pow5 = Big::from_u128(1);
        for (q, &entry) in POW5_128.iter().enumerate().skip(342) {
            let bits = pow5.bit_len();
            let truncated = if bits >= 128 {
                pow5.shr_to_u128(bits - 128)
            } else {
                pow5.shr_to_u128(0) << (128 - bits)
            };
            assert_eq!(entry, truncated, "5^{}", q - 342);
            pow5 = pow5.mul_u64(5);
        }
        let mut pow5 = Big::from_u128(5);
        for q in 1..=342 {
            let entry = POW5_128[342 - q];
            assert!(entry >> 127 == 1, "5^-{q} is normalized");
            let z = pow5.bit_len();
            if q <= 27 {
                // The entry less one is ⌊2^b / 5^q⌋ for b = z + 127.
                let power = Big::pow2(z + 127);
                let floor = pow5.mul_u128(entry - 1);
                assert!(floor <= power && power < floor.add(&pow5), "5^-{q}");
            } else {
                // The entry is ⌊(⌊2^b / 5^q⌋ + 1) / 2^(z + 1)⌋ for
                // b = 2z + 128, which holds exactly when
                // entry · 2^(z+1) · 5^q ≤ 2^b + 5^q < (entry + 1) · 2^(z+1) · 5^q.
                let power = Big::pow2(2 * z + 128).add(&pow5);
                let low = pow5.mul_u128(entry).shl(z + 1);
                let high = pow5.mul_u128(entry + 1).shl(z + 1);
                assert!(low <= power && power < high, "5^-{q}");
            }
            pow5 = pow5.mul_u64(5);
        }
    }

    /// Checks [`read_f64`] on the number token at byte 1 of `text` against
    /// [`number_token`] and `str::parse::<f64>`: the same token consumed,
    /// and the same bits or the same refusal.
    fn assert_reads_as_std(text: &str) {
        let (mut pos, mut end) = (1, 1);
        let token = number_token(text, &mut end);
        let read = read_f64(text, &mut pos);
        assert_eq!(pos, end, "{text:?}");
        match token.parse::<f64>() {
            Ok(x) => assert_eq!(read.map(f64::to_bits), Ok(x.to_bits()), "{text:?}"),
            Err(_) => assert_eq!(
                read,
                Err(err(format!("invalid number `{token}` at byte 1"))),
                "{text:?}"
            ),
        }
    }

    /// Checks `number` as the token of a line, behind `[` and before a
    /// byte that ends it or nothing.
    fn assert_token_reads_as_std(number: &str, rng: &mut StdRng) {
        let end = ["", ",", "]", "}", " "][(rng.next_u64() % 5) as usize];
        assert_reads_as_std(&format!("[{number}{end}"));
    }

    /// Draws `len` bytes from `alphabet`.
    fn random_text(rng: &mut StdRng, alphabet: &[u8], len: usize) -> String {
        (0..len)
            .map(|_| char::from(alphabet[(rng.next_u64() % alphabet.len() as u64) as usize]))
            .collect()
    }

    /// The number texts of the differential test, per seed: runs of number
    /// characters, mutated writer texts, mantissas past 19 digits, exact
    /// halfway decimals and their neighbours, exponents around the table's
    /// and the format's ends, and subnormals.
    fn differential_inputs(rng: &mut StdRng) -> Vec<String> {
        let mut inputs = Vec::new();
        let digits = b"0123456789";
        // Runs over the token alphabet, digits weighted up.
        let alphabet = b"0123456789012345678901234567890123456789+-.eE";
        for _ in 0..64 {
            let len = 1 + (rng.next_u64() % 40) as usize;
            inputs.push(random_text(rng, alphabet, len));
        }
        // Writer texts with one or two bytes replaced, dropped or doubled.
        let mut text = String::new();
        for _ in 0..64 {
            text.clear();
            push_f64(&mut text, f64::from_bits(rng.next_u64()));
            let mut bytes = text.clone().into_bytes();
            for _ in 0..1 + rng.next_u64() % 2 {
                let at = (rng.next_u64() % bytes.len() as u64) as usize;
                match rng.next_u64() % 3 {
                    0 => bytes[at] = alphabet[(rng.next_u64() % alphabet.len() as u64) as usize],
                    1 if bytes.len() > 1 => {
                        bytes.remove(at);
                    }
                    _ => bytes.insert(at, bytes[at]),
                }
            }
            inputs.push(String::from_utf8(bytes).unwrap_or_default());
        }
        // Mantissas of 20 to 40 digits, some behind a point or with an
        // exponent.
        for _ in 0..16 {
            let len = 20 + (rng.next_u64() % 21) as usize;
            let mut mantissa = random_text(rng, digits, len);
            if rng.next_u64().is_multiple_of(2) {
                mantissa.insert(1 + (rng.next_u64() % (len as u64 - 1)) as usize, '.');
            }
            let exponent = rng.next_u64() % 700;
            inputs.push(format!("{mantissa}e-{exponent}"));
            inputs.push(mantissa);
        }
        // Halfway between two floats of 53 bits: an integer (w · 2^j, at
        // decimal exponent 0 or after its trailing zeros are moved into
        // one), or w/2 and w/4 at exponents -1 and -2; and one unit
        // either side in the last digit.
        for _ in 0..16 {
            let odd = 2 * ((1 << 52) + rng.next_u64() % (1 << 52)) + 1;
            let tie = u128::from(odd) << (rng.next_u64() % 10);
            let mut shifted = tie;
            let mut exponent = 0;
            while shifted.is_multiple_of(10) {
                shifted /= 10;
                exponent += 1;
            }
            let half = u128::from(odd) * 5;
            let quarter = u128::from(odd) * 25;
            for (w, e) in [(tie, 0), (shifted, exponent), (half, -1), (quarter, -2)] {
                for w in [w - 1, w, w + 1] {
                    inputs.push(format!("{w}e{e}"));
                }
            }
        }
        // Exponents around ±308 and ±342, on mantissas of 1 to 19 digits.
        for _ in 0..32 {
            let len = 1 + (rng.next_u64() % 19) as usize;
            let mantissa = random_text(rng, digits, len);
            let exponent = 290 + rng.next_u64() % 80;
            let sign = if rng.next_u64().is_multiple_of(2) {
                "-"
            } else {
                ""
            };
            inputs.push(format!("{sign}{mantissa}e{sign}{exponent}"));
            inputs.push(format!("0.{mantissa}e-{exponent}"));
        }
        // Subnormals and the values between the smallest ones and zero.
        for _ in 0..16 {
            let x = f64::from_bits(rng.next_u64() % (1 << MANTISSA_BITS));
            text.clear();
            push_f64(&mut text, x);
            inputs.push(text.clone());
            inputs.push(format!("{}e-324", rng.next_u64() % 100));
        }
        inputs
    }

    #[test]
    fn reader_matches_std_on_every_kind_of_token() {
        let seeds = if cfg!(debug_assertions) { 200 } else { 2_000 };
        for seed in 0..seeds {
            let mut rng = StdRng::seed_from_u64(seed);
            for number in differential_inputs(&mut rng) {
                assert_token_reads_as_std(&number, &mut rng);
                assert_token_reads_as_std(&format!("-{number}"), &mut rng);
            }
        }
    }

    #[test]
    fn eight_digit_chunks_read_as_their_digits() {
        // Every byte value at every place of a chunk of digits.
        for place in 0..8 {
            for byte in 0..=u8::MAX {
                let mut chunk = *b"90817263";
                chunk[place] = byte;
                let expected = chunk.iter().try_fold(0, |value, &byte| {
                    byte.is_ascii_digit()
                        .then(|| 10 * value + u64::from(byte - b'0'))
                });
                assert_eq!(
                    eight_digits(u64::from_le_bytes(chunk)),
                    expected,
                    "{chunk:?}"
                );
            }
        }
        for chunk in [*b"00000000", *b"99999999", *b"12345678"] {
            let expected = str::from_utf8(&chunk).ok().and_then(|t| t.parse().ok());
            assert_eq!(eight_digits(u64::from_le_bytes(chunk)), expected);
        }
    }

    #[test]
    fn each_reader_branch_has_a_named_input() {
        // Clinger: 5 · 10^-1, one exact division.
        assert_eq!(clinger(5, -1), Some(0.5));
        // Eisel–Lemire: an exponent past 22, and 17 digits past 2^53.
        assert_eq!(clinger(1, 35), None);
        assert_eq!(eisel_lemire(1, 35), Some(1e35));
        assert_eq!(clinger(30_000_000_000_000_004, -17), None);
        assert_eq!(
            eisel_lemire(30_000_000_000_000_004, -17),
            Some(0.30000000000000004)
        );
        // An exact tie rounds to even: 2^53 + 1 reads as 2^53.
        assert_eq!(
            eisel_lemire(9_007_199_254_740_993, 0),
            Some(9_007_199_254_740_992.0)
        );
        // The ambiguous case: the product's 64 bits below the top word are
        // all ones, with the exponent outside -27..=55, so Eisel–Lemire
        // hands the token on.
        assert_eq!(eisel_lemire(9_586_467_486_297_153_595, -46), None);
        for (text, fast) in [
            ("0.5", true),
            ("1e35", true),
            ("0.30000000000000004", true),
            ("9007199254740993", true),
            ("9586467486297153595e-46", false),
            // More than 19 significant digits.
            ("12345678901234567890", false),
            ("0.000000000000000000001234567890123456789", true),
            // Outside the fast grammar: std reads some and refuses others.
            ("+1", false),
            (".5", false),
            ("1.", false),
            ("-", false),
            ("1e", false),
            ("1-2", false),
        ] {
            assert_eq!(read_fast(text.as_bytes(), &mut 0).is_some(), fast, "{text}");
            assert_reads_as_std(&format!("[{text}"));
        }
    }
}
