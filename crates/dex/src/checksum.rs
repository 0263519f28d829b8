//! Checksums used by the container formats: Adler-32 for DEX files (as in
//! real DEX headers) and CRC-32 for APK archive entries (as in ZIP).

/// Computes the Adler-32 checksum of `data`, as used in the DEX header.
///
/// # Example
///
/// ```
/// use dydroid_dex::checksum::adler32;
///
/// // Known vector: "Wikipedia" -> 0x11E60398.
/// assert_eq!(adler32(b"Wikipedia"), 0x11E6_0398);
/// ```
pub fn adler32(data: &[u8]) -> u32 {
    const MOD: u32 = 65_521;
    let mut a: u32 = 1;
    let mut b: u32 = 0;
    // Process in chunks small enough that the sums cannot overflow before a
    // modulo reduction (5552 is the standard zlib NMAX).
    for chunk in data.chunks(5552) {
        for &byte in chunk {
            a += u32::from(byte);
            b += a;
        }
        a %= MOD;
        b %= MOD;
    }
    (b << 16) | a
}

/// Computes the CRC-32 (IEEE, reflected) of `data`, as used for APK
/// entries and for the durable stream frames.
///
/// Slicing-by-8: eight bytes per step through eight compile-time tables,
/// the bytewise table loop for the tail. The checksum bits are those of
/// the plain bytewise CRC.
///
/// # Example
///
/// ```
/// use dydroid_dex::checksum::crc32;
///
/// // Known vector: "123456789" -> 0xCBF43926.
/// assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc: u32 = 0xFFFF_FFFF;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

/// `CRC_TABLES[0]` is the bytewise table; `CRC_TABLES[k][i]` is the CRC
/// of byte `i` followed by `k` zero bytes.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adler32_known_vectors() {
        assert_eq!(adler32(b""), 1);
        assert_eq!(adler32(b"Wikipedia"), 0x11E6_0398);
    }

    #[test]
    fn adler32_large_input_no_overflow() {
        let data = vec![0xFFu8; 100_000];
        // Must not panic and must be deterministic.
        assert_eq!(adler32(&data), adler32(&data));
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The bit-at-a-time definition the tables are derived from.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    0xEDB8_8320 ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_bitwise_reference_at_every_length_and_offset() {
        let data: Vec<u8> = (0..300u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for start in 0..8 {
            for end in start..data.len() {
                let slice = &data[start..end];
                assert_eq!(crc32(slice), crc32_bitwise(slice), "bytes {start}..{end}");
            }
        }
    }

    #[test]
    fn checksums_detect_corruption() {
        let data = b"hello world".to_vec();
        let mut corrupted = data.clone();
        corrupted[3] ^= 0x01;
        assert_ne!(adler32(&data), adler32(&corrupted));
        assert_ne!(crc32(&data), crc32(&corrupted));
    }
}
