//! Content digests for query images.
//!
//! [`image_digest`] fingerprints one `[c, h, w]` image by its exact pixel
//! *bit patterns*: a 64-bit FNV-1a variant that consumes the per-image
//! dimensions (as `u64`s) followed by each pixel's [`f32::to_bits`] word.
//! Hashing bit patterns instead of float values makes the digest total on
//! the whole `f32` domain — NaN payloads hash by their payload bits, and
//! `-0.0` hashes differently from `0.0` (treating them as distinct can
//! only cost a cache hit, never serve a wrong response).
//!
//! The word-per-step variant runs one multiply per pixel instead of
//! byte-wise FNV's four, which keeps digesting far below forward-pass
//! cost (`qcache_pure_miss_overhead_under_5_percent` in
//! `tests/perf_gates.rs` gates the 0 %-hit cost at < 5 % overhead).

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn eat_word(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(FNV_PRIME)
}

/// Digest of one image: its dimensions plus every pixel's exact bit
/// pattern. A pure function of the content — independent of batch
/// position, submission order, thread, or process.
pub fn image_digest(dims: &[usize], pixels: &[f32]) -> u64 {
    let mut h = FNV_OFFSET;
    for &d in dims {
        h = eat_word(h, d as u64);
    }
    for &p in pixels {
        h = eat_word(h, u64::from(p.to_bits()));
    }
    h
}

/// Digest of an arbitrary byte string with the same word-FNV variant
/// [`image_digest`] uses: the length, then each little-endian 8-byte
/// word (the trailing partial word zero-padded). The length prefix
/// keeps zero-padded tails from aliasing genuinely longer inputs.
///
/// This is the content-addressing primitive for non-image keys — the
/// fleet registry digests `(config, seed)` encodings through it to name
/// shared shadow-zoo entries.
pub fn bytes_digest(bytes: &[u8]) -> u64 {
    let mut h = eat_word(FNV_OFFSET, bytes.len() as u64);
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = eat_word(h, u64::from_le_bytes(word));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_stable_and_content_only() {
        let a = image_digest(&[3, 4, 4], &[0.25; 48]);
        let b = image_digest(&[3, 4, 4], &[0.25; 48]);
        assert_eq!(a, b);
        let mut perturbed = [0.25f32; 48];
        perturbed[47] = 0.250_000_03;
        assert_ne!(a, image_digest(&[3, 4, 4], &perturbed));
    }

    #[test]
    fn dims_are_part_of_the_content() {
        // Same flat payload, different logical shape: distinct digests,
        // so a [1, 2, 8] image can never alias a [1, 4, 4] one.
        let pixels = [0.5f32; 16];
        assert_ne!(
            image_digest(&[1, 2, 8], &pixels),
            image_digest(&[1, 4, 4], &pixels)
        );
    }

    #[test]
    fn bytes_digest_is_stable_and_length_aware() {
        assert_eq!(bytes_digest(b"registry"), bytes_digest(b"registry"));
        assert_ne!(bytes_digest(b"registry"), bytes_digest(b"registrz"));
        // A zero tail must not alias the same prefix without it (the
        // trailing partial word is zero-padded; the length prefix keeps
        // the digests apart).
        assert_ne!(bytes_digest(b"abc"), bytes_digest(b"abc\0"));
        assert_ne!(bytes_digest(b""), bytes_digest(b"\0"));
        // Spot-check sensitivity at a word boundary.
        assert_ne!(bytes_digest(&[1u8; 8]), bytes_digest(&[1u8; 9]));
    }

    #[test]
    fn nan_and_signed_zero_hash_by_bit_pattern() {
        // The same NaN bit pattern always hashes identically…
        let nan = f32::from_bits(0x7FC0_1234);
        assert_eq!(
            image_digest(&[1, 1, 2], &[nan, 1.0]),
            image_digest(&[1, 1, 2], &[nan, 1.0])
        );
        // …distinct NaN payloads hash distinctly…
        let other_nan = f32::from_bits(0x7FC0_5678);
        assert_ne!(
            image_digest(&[1, 1, 2], &[nan, 1.0]),
            image_digest(&[1, 1, 2], &[other_nan, 1.0])
        );
        // …and -0.0 is distinguished from 0.0 (bit patterns differ).
        assert_ne!(
            image_digest(&[1, 1, 1], &[0.0]),
            image_digest(&[1, 1, 1], &[-0.0])
        );
    }
}
