//! CRC-32C (Castagnoli), the checksum of every on-disk frame.
//!
//! Two implementations of one function, picked per call by the CPU:
//!
//! * SSE4.2's `crc32` instruction, eight bytes at a time, on x86-64 CPUs
//!   that have it (`is_x86_feature_detected!` caches the answer);
//! * slicing-by-8 tables built at compile time by a `const fn`
//!   everywhere else.
//!
//! Both compute the same reflected polynomial `0x82F63B78` with the usual
//! `!0` seed and final inversion, so the bytes on disk do not depend on
//! which CPU wrote them. The bitwise loop the tables are derived from is
//! kept only as the test oracle.

const POLY: u32 = 0x82F6_3B78;

/// CRC-32C of `data`.
pub(crate) fn crc32c(data: &[u8]) -> u32 {
    crc32c_update(0, data)
}

/// Extends `crc`, the CRC-32C of some bytes `a`, to the CRC-32C of `a`
/// followed by `data`: `crc32c_update(crc32c(a), b) == crc32c(a ++ b)`.
/// Frames are checksummed header first, then payload, without gluing the
/// two into one buffer.
pub(crate) fn crc32c_update(crc: u32, data: &[u8]) -> u32 {
    !update_raw(!crc, data)
}

/// Advances the raw (un-inverted) CRC register over `data`.
fn update_raw(state: u32, data: &[u8]) -> u32 {
    update_hardware(state, data).unwrap_or_else(|| update_table(state, data))
}

/// The SSE4.2 path, or `None` on a CPU (or target) without it.
fn update_hardware(state: u32, data: &[u8]) -> Option<u32> {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: `update_sse42` only needs SSE4.2, and the runtime
        // feature check above just confirmed this CPU has it.
        return Some(unsafe { update_sse42(state, data) });
    }
    None
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn update_sse42(state: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let (words, rest) = data.as_chunks::<8>();
    let mut wide = u64::from(state);
    for w in words {
        wide = _mm_crc32_u64(wide, u64::from_le_bytes(*w));
    }
    // The instruction leaves the 32-bit register zero-extended.
    let mut state = wide as u32;
    for &b in rest {
        state = _mm_crc32_u8(state, b);
    }
    state
}

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is
/// byte `b`'s contribution after `k` further zero bytes, so eight table
/// lookups consume eight input bytes at once.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

fn update_table(mut state: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let (words, rest) = data.as_chunks::<8>();
    for w in words {
        let lo = state ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        state = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in rest {
        state = (state >> 8) ^ t[0][((state ^ u32::from(b)) & 0xFF) as usize];
    }
    state
}

/// The definition, one bit at a time: the oracle both fast paths are
/// checked against (and the CRC the on-disk format was first written
/// with).
#[cfg(test)]
pub(crate) fn crc32c_bitwise(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn table(data: &[u8]) -> u32 {
        !update_table(!0, data)
    }

    /// The hardware path where this CPU has it, `None` elsewhere.
    fn hardware(data: &[u8]) -> Option<u32> {
        update_hardware(!0, data).map(|s| !s)
    }

    fn all_agree(data: &[u8]) -> u32 {
        let want = crc32c_bitwise(data);
        assert_eq!(table(data), want, "table path, {} bytes", data.len());
        if let Some(hw) = hardware(data) {
            assert_eq!(hw, want, "hardware path, {} bytes", data.len());
        }
        assert_eq!(crc32c(data), want, "dispatched path, {} bytes", data.len());
        want
    }

    #[test]
    fn known_vectors() {
        // "123456789" -> 0xE3069283, the CRC-32C check value.
        assert_eq!(all_agree(b"123456789"), 0xE306_9283);
        // RFC 3720 §B.4.
        assert_eq!(all_agree(&[0x00; 32]), 0x8A91_36AA);
        assert_eq!(all_agree(&[0xFF; 32]), 0x62A8_AB43);
        let ascending: Vec<u8> = (0u8..32).collect();
        assert_eq!(all_agree(&ascending), 0x46DD_794E);
        assert_eq!(all_agree(&[]), 0);
    }

    #[test]
    fn detects_single_bit_flip() {
        assert_ne!(
            crc32c(b"some record payload"),
            crc32c(b"some record pbyload")
        );
    }

    #[test]
    fn update_agrees_with_one_shot_at_every_header_split() {
        // A 21-byte frame header followed by a payload, split anywhere.
        let frame: Vec<u8> = (0..21 + 300u32).map(|i| (i * 37 + 11) as u8).collect();
        let whole = crc32c(&frame);
        for split in 0..=frame.len() {
            let (a, b) = frame.split_at(split);
            assert_eq!(crc32c_update(crc32c(a), b), whole, "split at {split}");
            let table = !update_table(update_table(!0, a), b);
            assert_eq!(table, whole, "table path, split at {split}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Table, hardware and bitwise CRCs agree on every length up to
        /// 9 000 bytes at every start alignment 0–7.
        #[test]
        fn implementations_agree_on_lengths_and_alignments(
            len in 0usize..9_000,
            start in 0usize..8,
            seed in any::<u64>(),
        ) {
            let mut x = seed | 1;
            let buf: Vec<u8> = (0..start + len)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x as u8
                })
                .collect();
            all_agree(&buf[start..]);
        }
    }
}
