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
//! Every layout starts from one field: the digits as 17 zero-padded
//! decimal places, a lead digit and two eight-digit words computed with
//! no table and no division per digit pair. The text is laid out from its
//! end backwards, so each layout needs no more than its fixed-size stores:
//! below one, the field ends where the text ends and its padding supplies
//! the zeros of `0.000ddd`; a point inside the digits goes in between the
//! field's words before they are stored; an integral value gets its zeros
//! and `.0` in two stores before its field; the exponent form stores its
//! `e[-]k` first and moves the lead digit left over the point. The field
//! may start before the text does, so the sign goes in last. A sweep's
//! cell writer (`encode.rs`) assembles each cell from its end backwards
//! with the same layout, so requests, answers and cells share one float
//! path.
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
//! (a prefix of the same stream in a debug build), over the boundary
//! values of every layout rule and over every digit count at every point
//! position each layout admits. Ryū's two 125-bit multipliers are not
//! tables of their own: both are derived from the reader's committed
//! power-of-five table ([`POW5_128`]) by a shift, and a test regenerates
//! every table entry and every derived multiplier with a test-only bigint.
//!
//! The reader ([`read_f64`]) takes a JSON number token and gives the bits
//! `str::parse::<f64>` gives it: Clinger's exact path where it applies,
//! Eisel–Lemire (Lemire, "Number Parsing at a Gigabyte per Second", 2021)
//! over that same table for the rest of the fast grammar, and
//! `str::parse` itself for the JSON numbers outside it. A token outside
//! the JSON number grammar is refused. `str::parse`, gated by that
//! grammar, is its test oracle: the writer's random floats are read back
//! through both, and a seeded differential test feeds both every kind of
//! token.

use std::str;

use super::json::{err, WireError};

/// An upper bound on the text [`push_f64`] writes for one value: the
/// longest is 24 bytes (`-2.2250738585072014e-308`: a sign, 17 digits, a
/// point and `e-308`), and `null` is shorter.
pub(super) const F64_TEXT_MAX: usize = 24;

/// How far before the end of its text [`write_f64`] may write: an
/// integral value's field can start 34 bytes back (`1000000000000000.0`,
/// whose one digit ends its 17 places 17 bytes back).
pub(super) const F64_REACH: usize = 34;

/// Stored bits of an `f64` mantissa (the leading one is implicit).
const MANTISSA_BITS: u32 = 52;

/// The `f64` exponent bias.
const EXPONENT_BIAS: i32 = 1023;

/// The width of Ryū's multipliers: [`pow5_split`] is 5^i scaled to
/// exactly this many bits, and [`pow5_inv_split`] is
/// `⌊2^(⌊log₂ 5^i⌋ + POW5_BITS) / 5^i⌋ + 1`.
const POW5_BITS: i32 = 125;

/// Writes `x` so that parsing it back yields the identical float, in the
/// bytes of `{x:?}` (shortest round-trip digits; integral values get a
/// `.0`), or `null` when `x` is infinite or NaN, which JSON cannot spell.
/// The protocol's one float writer: responses and `zeroconf-client`'s
/// request frames both go through it, and a sweep's cells through its
/// layout (`write_f64`). It lays the text out in a stack buffer and
/// appends it with one `push_str`.
pub fn push_f64(out: &mut String, x: f64) {
    let mut text = [0; F64_REACH];
    let start = write_f64(&mut text, F64_REACH, x);
    push_ascii(out, &text[start..]);
}

/// Appends text the writers built. It is ASCII, so it is always UTF-8.
pub(super) fn push_ascii(out: &mut String, text: &[u8]) {
    if let Ok(text) = str::from_utf8(text) {
        out.push_str(text);
    }
}

/// Lays `x` out as `{x:?}` does (or as `null`) so that its text ends at
/// `end` in `text`, and returns where it starts. Every store lands in the
/// [`F64_REACH`] bytes before `end` and none after it, so a line can be
/// assembled from its end backwards: bytes before the text may be
/// overwritten, and are written again by whatever goes there.
pub(super) fn write_f64(text: &mut [u8], end: usize, x: f64) -> usize {
    if !x.is_finite() {
        text[end - 4..end].copy_from_slice(b"null");
        return end - 4;
    }
    let bits = x.to_bits();
    let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let ieee_exponent = (bits >> MANTISSA_BITS) as u32 & 0x7ff;
    let start = if ieee_mantissa == 0 && ieee_exponent == 0 {
        text[end - 3..end].copy_from_slice(b"0.0");
        end - 3
    } else {
        let (digits, exponent) = shortest(ieee_mantissa, ieee_exponent);
        write_digits(text, end, x.abs(), digits, exponent)
    };
    // Last, since the field may have reached the sign's byte; a value that
    // is not negative leaves it out of the text.
    text[start - 1] = b'-';
    start - usize::from(x.is_sign_negative())
}

/// Lays out the magnitude `digits × 10^exponent` (Ryū's shortest digits
/// of `magnitude`) so that it ends at `end`, and returns where it starts.
fn write_digits(text: &mut [u8], end: usize, magnitude: f64, digits: u64, exponent: i32) -> usize {
    let (lead, places) = field(digits);
    // The digit count from the field's leading zero places (digits ≥ 1,
    // so a zero lead leaves a nonzero place among the sixteen).
    let zero_places = (places ^ PLACE_ZEROS).trailing_zeros() as usize / 8;
    let len = if lead == b'0' { 16 - zero_places } else { 17 };
    if !(1e-4..1e16).contains(&magnitude) {
        // d₁[.d₂…d_len]e[-]k: the exponent goes in first, then the field
        // ends where the digits do, and d₁ moves left over the point,
        // which takes its place. A lone digit has no point.
        let (marker, marker_len) = exponent_marker(exponent + len as i32 - 1);
        text[end - 8..end].copy_from_slice(&marker.to_le_bytes());
        let digits_end = end - marker_len;
        store_field(text, digits_end, lead, places);
        if len == 1 {
            return digits_end - 1;
        }
        let start = digits_end - len - 1;
        let first = if len == 17 {
            lead
        } else {
            (places >> (8 * (16 - len))) as u8
        };
        text[start..start + 2].copy_from_slice(&[first, b'.']);
        start
    } else if exponent + len as i32 <= 0 {
        // 0.[0…0]d₁…d_len, at most three zeros since |x| ≥ 1e-4: the field
        // ends where the text does and its padding is the zeros, but for
        // up to three a 17-digit field starts after, which one 4-byte
        // store before it supplies.
        let start = end - (2 - exponent) as usize;
        text[end - 21..end - 17].copy_from_slice(b"0000");
        store_field(text, end, lead, places);
        text[start..start + 2].copy_from_slice(b"0.");
        start
    } else if exponent < 0 {
        // d₁…d_point.d_point+1…d_len: the fraction is the field's last
        // -exponent places. The point goes in between the field's words
        // before they are stored; the field's last place, pushed out of
        // the sixteen, goes in on its own.
        let integral = 8 * (16 + exponent) as u32;
        let low = (1 << integral) - 1;
        let pointed = (places & low) | u128::from(b'.') << integral | (places & !low) << 8;
        text[end - 18] = lead;
        text[end - 17..end - 1].copy_from_slice(&pointed.to_le_bytes());
        text[end - 1] = (places >> 120) as u8;
        end - len - 1
    } else {
        // d₁…d_len[0…0].0, at most 16 places since |x| < 1e16: `.0` and
        // sixteen zeros in two fixed-size stores, then the field.
        text[end - 2..end].copy_from_slice(b".0");
        text[end - 18..end - 2].copy_from_slice(&[b'0'; 16]);
        let digits_end = end - 2 - exponent as usize;
        store_field(text, digits_end, lead, places);
        digits_end - len
    }
}

/// `digits < 10^17` as 17 zero-padded decimal places in ASCII: the lead
/// place, and the other sixteen as two eight-place words, the second
/// place in the low byte.
fn field(digits: u64) -> (u8, u128) {
    const E8: u64 = 100_000_000;
    // Both words' divisions start from `digits`, so neither waits for the
    // other.
    let (lead, top) = (digits / (E8 * E8), digits / E8);
    let high = top - lead * E8;
    let low = digits - top * E8;
    (
        b'0' + lead as u8,
        u128::from(eight_places(high)) | u128::from(eight_places(low)) << 64,
    )
}

/// Sixteen ASCII zeros: a [`field`]'s places with the digit values
/// masked off.
const PLACE_ZEROS: u128 = u128::from_le_bytes([b'0'; 16]);

/// Stores a [`field`] so that it ends at `end`: one byte and one 16-byte
/// store.
fn store_field(text: &mut [u8], end: usize, lead: u8, places: u128) {
    text[end - 17] = lead;
    text[end - 16..end].copy_from_slice(&places.to_le_bytes());
}

/// The eight zero-padded decimal places of `n < 10^8` in ASCII, the first
/// in the low byte: each 32-bit half is split into 16-bit lanes of two
/// places and those into bytes, every lane at once (SWAR).
fn eight_places(n: u64) -> u64 {
    // Two 32-bit lanes: the top and the bottom four places.
    let fours = (n / 10_000) | ((n % 10_000) << 32);
    // Four 16-bit lanes of two places: x · 10,486 >> 20 is x / 100 for
    // x < 10^4, and no lane's product reaches the next lane's quotient
    // bits. Each remainder lands 16 bits above its quotient.
    let hundreds = ((fours * 10_486) >> 20) & 0x0000_007f_0000_007f;
    let pairs = (fours << 16) - hundreds * (100 << 16) + hundreds;
    // Eight bytes of one place: y · 103 >> 10 is y / 10 for y < 100, and
    // each remainder lands 8 bits above its quotient.
    let tens = ((pairs * 103) >> 10) & 0x000f_000f_000f_000f;
    let places = (pairs << 8) - tens * (10 << 8) + tens;
    places + 0x3030_3030_3030_3030
}

/// The exponent form's `e[-]k` for `|k| < 1000`, in the high bytes of a
/// word stored little-endian, and its length.
fn exponent_marker(k: i32) -> (u64, usize) {
    let sign = usize::from(k < 0);
    let k = k.unsigned_abs();
    let k_len = 1 + usize::from(k >= 10) + usize::from(k >= 100);
    // k · 41 >> 12 is k / 100 for k < 1000, and y · 103 >> 10 is y / 10
    // for y < 100.
    let hundreds = (k * 41) >> 12;
    let rest = k - 100 * hundreds;
    let tens = (rest * 103) >> 10;
    let places = u64::from(hundreds | tens << 8 | (rest - 10 * tens) << 16);
    // Shifting the leading zeros out of the low bytes puts k's first digit
    // first.
    let k_digits = (places + 0x30_3030) >> (8 * (3 - k_len));
    let minus = u64::from(b'-') * sign as u64;
    let marker = u64::from(b'e') | minus << 8 | k_digits << (8 * (1 + sign));
    let len = 1 + sign + k_len;
    (marker << (8 * (8 - len)), len)
}

/// Writes `n` in the bytes of `{n}` so that they end at `end` in `text`,
/// and returns where they start. Its last eight places go in one 8-byte
/// store, so up to ten bytes before `end` are written.
pub(super) fn write_count(text: &mut [u8], end: usize, n: u32) -> usize {
    if n < 100 {
        // A sweep's rows rarely reach 100: two places, y · 103 >> 10 being
        // y / 10 for y < 100.
        let tens = (n * 103) >> 10;
        text[end - 2..end].copy_from_slice(&[b'0' + tens as u8, b'0' + (n - 10 * tens) as u8]);
        return end - 1 - usize::from(n >= 10);
    }
    let n = u64::from(n);
    let top = n / 100_000_000;
    text[end - 8..end].copy_from_slice(&eight_places(n - top * 100_000_000).to_le_bytes());
    // Nine or ten digits: the top one or two before the eight.
    text[end - 10..end - 8].copy_from_slice(&[b'0' + (top / 10) as u8, b'0' + (top % 10) as u8]);
    end - decimal_length(n)
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
        let mul = pow5_inv_split(q);
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
        let mul = pow5_split(i);
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

/// Ryū's multiplier for the negative binary exponents, entry `i = -e2 - q`
/// for `i ≤ 325`: 5^i scaled to exactly [`POW5_BITS`] bits (truncated),
/// which is the reader's 128-bit 5^i shifted right by three.
fn pow5_split(i: u32) -> u128 {
    POW5_128[(i64::from(i) - POW5_128_MIN) as usize] >> 3
}

/// Ryū's multiplier for the nonnegative binary exponents, entry `q` for
/// `q ≤ 341`: `⌊2^(⌊log₂ 5^q⌋ + POW5_BITS) / 5^q⌋ + 1`. For q ≥ 1 the
/// reader's 128-bit 5^-q is the same quotient three bits wider, plus one
/// up to q = 27 and truncated above, so it shifts into this one; 5^0 has
/// no reciprocal entry.
fn pow5_inv_split(q: u32) -> u128 {
    if q == 0 {
        return (1 << POW5_BITS) + 1;
    }
    let reciprocal = POW5_128[(-i64::from(q) - POW5_128_MIN) as usize];
    ((reciprocal - u128::from(q <= 27)) >> 3) + 1
}

/// The most significant digits the fast path reads into a `u64`: every
/// 19-digit decimal fits, and not every 20-digit one does.
const FAST_DIGITS_MAX: usize = 19;

/// The decimal exponents the reader looks up in [`POW5_128`]. Below the
/// first, `w · 10^q` rounds to zero for every `w < 10^19`; above the last,
/// it rounds to infinity for every `w ≥ 1`. The table runs on to 5^325
/// for the writer ([`pow5_split`]).
const POW5_128_MIN: i64 = -342;
const POW5_128_MAX: i64 = 308;

/// `10^0` to `10^22`: the powers of ten an `f64` holds exactly.
const EXACT_POWERS_OF_TEN: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// Reads the JSON number at `pos` and leaves `pos` after it: the run of
/// number characters that [`number_token`] takes, valued as
/// `str::parse::<f64>` values it when it is a JSON number (RFC 8259:
/// `-?(0|[1-9]d*)(.d+)?([eE][+-]?d+)?`). The protocol's one number reader:
/// request lines, `parse_json` and response lines all go through it.
///
/// A token in the fast grammar, JSON's with at most 19 significant
/// digits, is valued in the one pass that finds its end: Clinger's exact
/// path when its digits are at most 2^53 and its exponent within ±22,
/// Eisel–Lemire otherwise. A JSON number past 19 significant digits goes
/// to `str::parse::<f64>`, and so does the rare product Eisel–Lemire
/// cannot round, so every accepted value is std's. Every other token is
/// refused, also where `str::parse` would read it: a leading `+` or `.`,
/// a trailing `.`, a leading zero (`007`), a lone `-`, `1e`, `1-2`.
///
/// # Errors
///
/// ``invalid number `…` at byte …`` for a token that is not a JSON
/// number.
pub(super) fn read_f64(text: &str, pos: &mut usize) -> Result<f64, WireError> {
    let start = *pos;
    if let Some(x) = read_fast(text.as_bytes(), pos) {
        return Ok(x);
    }
    *pos = start;
    let token = number_token(text, pos);
    match token.parse::<f64>() {
        Ok(x) if is_json_number(token.as_bytes()) => Ok(x),
        _ => Err(err(format!("invalid number `{token}` at byte {start}"))),
    }
}

/// Whether `token` is a number in JSON's grammar: an optional `-`, an
/// integer part that is `0` or starts with a nonzero digit, an optional
/// fraction of at least one digit, and an optional exponent of at least
/// one digit after `e` or `E` and an optional sign.
fn is_json_number(token: &[u8]) -> bool {
    let digits = |at: &mut usize| {
        let start = *at;
        while token.get(*at).is_some_and(u8::is_ascii_digit) {
            *at += 1;
        }
        *at - start
    };
    let mut at = usize::from(token.first() == Some(&b'-'));
    let integer = digits(&mut at);
    if integer == 0 || (integer > 1 && token[at - integer] == b'0') {
        return false;
    }
    if token.get(at) == Some(&b'.') {
        at += 1;
        if digits(&mut at) == 0 {
            return false;
        }
    }
    if matches!(token.get(at), Some(b'e' | b'E')) {
        at += 1;
        at += usize::from(matches!(token.get(at), Some(b'+' | b'-')));
        if digits(&mut at) == 0 {
            return false;
        }
    }
    at == token.len()
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
/// the fast grammar (JSON's) or past 19 significant digits, or one
/// Eisel–Lemire cannot round.
fn read_fast(bytes: &[u8], pos: &mut usize) -> Option<f64> {
    let negative = bytes.get(*pos) == Some(&b'-');
    let digits_start = *pos + usize::from(negative);
    let mut at = digits_start;
    // The value is w · 10^exponent, w every digit read as one integer.
    let mut w = 0;
    let mut digits = read_digits(bytes, &mut at, &mut w);
    // JSON spells no integer part with a leading zero but `0` itself.
    if digits == 0 || (digits > 1 && bytes[digits_start] == b'0') {
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

/// 5^q for q from [`POW5_128_MIN`] to 325 (entry `q + 342`) in 128 bits,
/// scaled so the top bit is set, as Eisel–Lemire takes it. For q ≥ 0 it
/// is 5^q truncated. For q < 0, with z the bit length of 5^-q, it is
/// `⌊2^b / 5^-q⌋ + 1` for `b = z + 127` when q ≥ -27 (where 5^-q fits 64
/// bits), and that quotient for `b = 2z + 128`, truncated to 128 bits,
/// below. The reader reads up to [`POW5_128_MAX`]; Ryū's multipliers
/// ([`pow5_split`], [`pow5_inv_split`]) are shifts of these entries.
const POW5_128: [u128; 668] = [
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
    0xb201833b35d63f73_2cd2cc6551e513da,
    0xde81e40a034bcf4f_f8077f7ea65e58d1,
    0x8b112e86420f6191_fb04afaf27faf782,
    0xadd57a27d29339f6_79c5db9af1f9b563,
    0xd94ad8b1c7380874_18375281ae7822bc,
    0x87cec76f1c830548_8f2293910d0b15b5,
    0xa9c2794ae3a3c69a_b2eb3875504ddb22,
    0xd433179d9c8cb841_5fa60692a46151eb,
    0x849feec281d7f328_dbc7c41ba6bcd333,
    0xa5c7ea73224deff3_12b9b522906c0800,
    0xcf39e50feae16bef_d768226b34870a00,
    0x81842f29f2cce375_e6a1158300d46640,
    0xa1e53af46f801c53_60495ae3c1097fd0,
    0xca5e89b18b602368_385bb19cb14bdfc4,
    0xfcf62c1dee382c42_46729e03dd9ed7b5,
    0x9e19db92b4e31ba9_6c07a2c26a8346d1,
    0xc5a05277621be293_c7098b7305241885,
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
        let powers = (0..10).flat_map(|k| {
            let p = 10u32.pow(k);
            [p - 1, p, p + 1]
        });
        let mut text = [0; 24];
        for n in (0..=1000).chain(powers).chain([u32::MAX - 1, u32::MAX]) {
            // Nothing past the end is written.
            text.fill(b'#');
            let start = write_count(&mut text, 20, n);
            assert_eq!(&text[start..20], n.to_string().as_bytes());
            assert_eq!(text[20..], *b"####");
        }
    }

    /// `len` significant digits drawn from `rng` as `{:e}` writes them (a
    /// point after the first when there is more than one), the last not
    /// zero.
    fn mantissa_text(rng: &mut StdRng, len: usize) -> String {
        let mut digits: Vec<u8> = (0..len)
            .map(|_| b'0' + (rng.next_u64() % 10) as u8)
            .collect();
        digits[0] = b'1' + (rng.next_u64() % 9) as u8;
        digits[len - 1] = b'1' + (rng.next_u64() % 9) as u8;
        let digits = String::from_utf8(digits).unwrap_or_default();
        if len == 1 {
            digits
        } else {
            format!("{}.{}", &digits[..1], &digits[1..])
        }
    }

    #[test]
    fn every_digit_count_at_every_point_position_matches_debug() {
        // The lead digit's decimal exponent k (x = d₁.d₂… × 10^k): `0.`
        // with three to no zeros is k = -4..=-1, a point inside the digits
        // or an integral value k = 0..=15; the exponent form takes 1-, 2-
        // and 3-digit exponents below 1e-4 and 2- and 3-digit ones from
        // 1e16 (no 1-digit exponent is that large).
        let mut exponents: Vec<i32> = (-4..=15).collect();
        exponents.extend([
            -5, -9, -10, -45, -99, -100, -250, -307, 16, 22, 99, 100, 250, 307,
        ]);
        let mut rng = StdRng::seed_from_u64(17);
        let (mut text, mut oracle) = (String::new(), String::new());
        for len in 1..=17 {
            for &k in &exponents {
                // Draw until the float nearest the drawn decimal has it as
                // its shortest digits (most 17-digit draws have a shorter
                // neighbour).
                let x = (0..1_000)
                    .find_map(|_| {
                        let decimal = format!("{}e{k}", mantissa_text(&mut rng, len));
                        let x: f64 = decimal.parse().ok()?;
                        (format!("{x:e}") == decimal).then_some(x)
                    })
                    .unwrap_or_else(|| panic!("no draw of {len} digits at 10^{k}"));
                assert_matches_debug(x, &mut text, &mut oracle);
                assert_matches_debug(-x, &mut text, &mut oracle);
            }
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

    /// Every multiplier Ryū derives from [`POW5_128`] against its bigint
    /// value, over the ranges the committed tables it replaced had (the
    /// writer uses `i` in 1..=325 and `q` in 0..=290), so no derived entry
    /// rests on the relation alone.
    #[test]
    fn power_of_five_tables_match_their_regeneration() {
        let width = POW5_BITS as u32;
        let mut pow5 = Big::from_u128(1);
        for i in 0..=341 {
            let bits = pow5.bit_len();
            assert_eq!(bits as i32, pow5_bits(i), "bit length of 5^{i}");
            if i <= 325 {
                let scaled = if bits >= width {
                    pow5.shr_to_u128(bits - width)
                } else {
                    pow5.shr_to_u128(0) << (width - bits)
                };
                assert_eq!(pow5_split(i), scaled, "5^{i} to {width} bits");
            }
            // The multiplier less one is ⌊2^j / 5^i⌋: the one multiple of
            // 5^i at most 2^j whose next multiple passes it.
            let power = Big::pow2(bits - 1 + width);
            let floor = pow5.mul_u128(pow5_inv_split(i) - 1);
            assert!(
                floor <= power && power < floor.add(&pow5),
                "2^{} / 5^{i}",
                bits - 1 + width
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

    /// Whether `token` is a JSON number (RFC 8259, section 6), spelled out
    /// apart from the reader's own check: `-? int frac? exp?`.
    fn json_grammar(token: &str) -> bool {
        fn digits(text: &str) -> (&str, &str) {
            text.split_at(
                text.find(|c: char| !c.is_ascii_digit())
                    .unwrap_or(text.len()),
            )
        }
        let (int, rest) = digits(token.strip_prefix('-').unwrap_or(token));
        if int.is_empty() || (int.len() > 1 && int.starts_with('0')) {
            return false;
        }
        let rest = match rest.strip_prefix('.') {
            Some(fraction) => match digits(fraction) {
                ("", _) => return false,
                (_, rest) => rest,
            },
            None => rest,
        };
        match rest.strip_prefix(['e', 'E']) {
            Some(exponent) => {
                let (power, rest) = digits(exponent.strip_prefix(['+', '-']).unwrap_or(exponent));
                !power.is_empty() && rest.is_empty()
            }
            None => rest.is_empty(),
        }
    }

    /// Checks [`read_f64`] on the number token at byte 1 of `text` against
    /// [`number_token`] and `str::parse::<f64>` gated by [`json_grammar`]:
    /// the same token consumed, and std's bits for a JSON number or the
    /// refusal for any other token.
    fn assert_reads_as_std(text: &str) {
        let (mut pos, mut end) = (1, 1);
        let token = number_token(text, &mut end);
        let read = read_f64(text, &mut pos);
        assert_eq!(pos, end, "{text:?}");
        match token.parse::<f64>() {
            Ok(x) if json_grammar(token) => {
                assert_eq!(read.map(f64::to_bits), Ok(x.to_bits()), "{text:?}");
            }
            _ => assert_eq!(
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
            // JSON numbers with a zero integer part.
            ("0", true),
            ("-0", true),
            ("0.5e-3", true),
            ("0E+2", true),
            // Not JSON numbers: std reads some, and the reader refuses all.
            ("+1", false),
            ("+2.5", false),
            (".5", false),
            ("1.", false),
            ("007", false),
            ("-01.5", false),
            ("00", false),
            ("-", false),
            ("1e", false),
            ("1-2", false),
        ] {
            assert_eq!(read_fast(text.as_bytes(), &mut 0).is_some(), fast, "{text}");
            assert_reads_as_std(&format!("[{text}"));
        }
        for refused in ["+2.5", ".5", "1.", "007"] {
            assert_eq!(
                read_f64(refused, &mut 0),
                Err(err(format!("invalid number `{refused}` at byte 0")))
            );
        }
    }
}
