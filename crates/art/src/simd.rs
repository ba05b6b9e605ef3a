//! Runtime-selected SIMD search over NODE16/NODE48 edge arrays.
//!
//! ART's two mid-size node representations are exactly the shapes that
//! vectorize well (Leis et al. §IV uses SSE for NODE16): NODE16 keeps up
//! to 16 sorted key bytes in a flat array, and NODE48 keeps a 256-byte
//! edge index where `0xFF` means "absent". Both point lookups and ordered
//! scan descent spend their inner-node time in these two searches, so the
//! same two primitives serve both paths:
//!
//! * [`find_key16`] — position of edge byte `b` among the first `count`
//!   keys (NODE16 equality search);
//! * [`next_edge48`] — smallest *present* edge byte `≥ from` in a NODE48
//!   index (ordered-iteration stepping; `from = 0` gives `first_byte`).
//!
//! Vector code is compiled per-arch behind `cfg` (SSE2 is part of the
//! x86_64 baseline, NEON of the aarch64 baseline, so no runtime feature
//! detection is needed) with a portable scalar fallback that is also the
//! correctness oracle for the equivalence tests below. Selection is
//! runtime-switchable — `HART_FORCE_SCALAR=1` in the environment or
//! [`force_scalar`] from code — so CI can run the whole suite on the
//! scalar path and benchmarks can measure the two side by side.
//!
//! All inputs are plain byte arrays (local copies in the optimistic path,
//! lock-protected arrays in the locked path), so every function here is
//! safe code from the caller's point of view; `unsafe` is confined to the
//! intrinsics, which have no preconditions beyond the baseline ISA.

use std::sync::atomic::{AtomicU8, Ordering};

/// NODE48 index byte meaning "no edge" (mirrors `node::NO_SLOT`).
const ABSENT: u8 = 0xFF;

const MODE_UNDECIDED: u8 = 0;
const MODE_VECTOR: u8 = 1;
const MODE_SCALAR: u8 = 2;

/// Lazily-initialized dispatch mode, shared by every tree in the process.
static MODE: AtomicU8 = AtomicU8::new(MODE_UNDECIDED);

/// Does this build have a vector implementation at all?
pub const HAVE_VECTOR: bool = cfg!(any(target_arch = "x86_64", target_arch = "aarch64"));

#[inline]
fn vector_enabled() -> bool {
    match MODE.load(Ordering::Relaxed) {
        MODE_VECTOR => true,
        MODE_SCALAR => false,
        _ => init_mode(),
    }
}

/// The `HART_FORCE_SCALAR` environment override: set and neither empty
/// nor `"0"`. Parsed once per process so the dispatch path and the
/// self-test cannot drift on what counts as "set".
pub fn env_forces_scalar() -> bool {
    static FORCED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *FORCED.get_or_init(|| {
        std::env::var_os("HART_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != "0")
    })
}

#[cold]
fn init_mode() -> bool {
    let on = HAVE_VECTOR && !env_forces_scalar();
    MODE.store(
        if on { MODE_VECTOR } else { MODE_SCALAR },
        Ordering::Relaxed,
    );
    on
}

/// Force the scalar path on (`true`) or restore the default selection
/// (`false`: vector when the build has one and the environment does not
/// forbid it). Process-global; intended for tests and benchmarks.
pub fn force_scalar(on: bool) {
    if on {
        MODE.store(MODE_SCALAR, Ordering::Relaxed);
    } else {
        MODE.store(MODE_UNDECIDED, Ordering::Relaxed);
        init_mode();
    }
}

/// Is the vector path currently selected?
pub fn vector_active() -> bool {
    vector_enabled()
}

/// Position of edge byte `b` among the first `count` entries of a NODE16
/// key array (first match, like `slice::iter().position()`). `count` is
/// clamped to 16 so torn counts from the optimistic path stay in bounds.
#[inline]
pub fn find_key16(keys: &[u8; 16], count: usize, b: u8) -> Option<usize> {
    if vector_enabled() {
        vector::find_key16(keys, count.min(16), b)
    } else {
        find_key16_scalar(keys, count, b)
    }
}

/// Portable reference implementation of [`find_key16`].
#[inline]
pub fn find_key16_scalar(keys: &[u8; 16], count: usize, b: u8) -> Option<usize> {
    keys[..count.min(16)].iter().position(|&k| k == b)
}

/// Bitmask of the positions in `bytes` that equal `b`: bit `i` is set iff
/// `bytes[i] == b`. `bytes` must be at most 64 long (callers scanning a
/// longer array chunk it). Unlike [`find_key16`] this reports *every*
/// match. No engine code calls it; it stays public as a kernel timed by
/// the `hartbench` benchmark (`art.match_byte64_ns`).
#[inline]
pub fn match_byte64(bytes: &[u8], b: u8) -> u64 {
    debug_assert!(bytes.len() <= 64);
    if vector_enabled() {
        vector::match_byte64(bytes, b)
    } else {
        match_byte64_scalar(bytes, b)
    }
}

/// Portable reference implementation of [`match_byte64`].
#[inline]
pub fn match_byte64_scalar(bytes: &[u8], b: u8) -> u64 {
    let mut mask = 0u64;
    for (i, &x) in bytes.iter().take(64).enumerate() {
        mask |= ((x == b) as u64) << i;
    }
    mask
}

/// Smallest edge byte `≥ from` whose NODE48 index entry is present
/// (`!= 0xFF`). `from` may be up to 256 (exclusive upper bound), which
/// makes `next_edge48(ix, b + 1)` a natural iteration step.
#[inline]
pub fn next_edge48(index: &[u8; 256], from: usize) -> Option<u8> {
    if vector_enabled() {
        vector::next_edge48(index, from)
    } else {
        next_edge48_scalar(index, from)
    }
}

/// Portable reference implementation of [`next_edge48`].
#[inline]
pub fn next_edge48_scalar(index: &[u8; 256], from: usize) -> Option<u8> {
    (from.min(256)..256)
        .find(|&b| index[b] != ABSENT)
        .map(|b| b as u8)
}

#[cfg(target_arch = "x86_64")]
mod vector {
    //! SSE2 lanes — unconditionally available on x86_64.
    use super::ABSENT;
    #[allow(clippy::wildcard_imports)]
    use std::arch::x86_64::*;

    #[inline]
    pub fn find_key16(keys: &[u8; 16], count: usize, b: u8) -> Option<usize> {
        // SAFETY: SSE2 is part of the x86_64 baseline; the unaligned load
        // reads exactly the 16 bytes of `keys`.
        unsafe {
            let v = _mm_loadu_si128(keys.as_ptr() as *const __m128i);
            let eq = _mm_cmpeq_epi8(v, _mm_set1_epi8(b as i8));
            let mask = (_mm_movemask_epi8(eq) as u32) & lane_mask(count);
            (mask != 0).then(|| mask.trailing_zeros() as usize)
        }
    }

    /// Bitmask selecting the first `count` (≤ 16) byte lanes.
    #[inline]
    fn lane_mask(count: usize) -> u32 {
        if count >= 16 {
            0xFFFF
        } else {
            (1u32 << count) - 1
        }
    }

    #[inline]
    pub fn match_byte64(bytes: &[u8], b: u8) -> u64 {
        let mut mask = 0u64;
        let mut i = 0usize;
        while i + 16 <= bytes.len() {
            // SAFETY: `i + 16 <= bytes.len()`, so the unaligned load reads
            // 16 in-bounds bytes; SSE2 is part of the x86_64 baseline.
            let m = unsafe {
                let v = _mm_loadu_si128(bytes.as_ptr().add(i) as *const __m128i);
                let eq = _mm_cmpeq_epi8(v, _mm_set1_epi8(b as i8));
                _mm_movemask_epi8(eq) as u32 as u64
            };
            mask |= m << i;
            i += 16;
        }
        for (j, &x) in bytes[i..].iter().enumerate() {
            mask |= ((x == b) as u64) << (i + j);
        }
        mask
    }

    #[inline]
    pub fn next_edge48(index: &[u8; 256], from: usize) -> Option<u8> {
        if from >= 256 {
            return None;
        }
        let first_chunk = from / 16;
        for chunk in first_chunk..16 {
            let base = chunk * 16;
            // SAFETY: `base + 16 <= 256`, inside the index array.
            let present = unsafe {
                let v = _mm_loadu_si128(index.as_ptr().add(base) as *const __m128i);
                let absent = _mm_cmpeq_epi8(v, _mm_set1_epi8(ABSENT as i8));
                !(_mm_movemask_epi8(absent) as u32) & 0xFFFF
            };
            let mask = if chunk == first_chunk {
                present & !((1u32 << (from - base)) - 1)
            } else {
                present
            };
            if mask != 0 {
                return Some((base + mask.trailing_zeros() as usize) as u8);
            }
        }
        None
    }
}

#[cfg(target_arch = "aarch64")]
mod vector {
    //! NEON lanes — unconditionally available on aarch64.
    use super::ABSENT;
    #[allow(clippy::wildcard_imports)]
    use std::arch::aarch64::*;

    /// Nibble-per-lane movemask substitute: lane `i`'s comparison result
    /// occupies bits `[4i, 4i+4)` of the returned word (the classic
    /// `vshrn` trick — NEON has no `movemask`).
    #[inline]
    unsafe fn nibble_mask(eq: uint8x16_t) -> u64 {
        let narrowed = vshrn_n_u16(vreinterpretq_u16_u8(eq), 4);
        vget_lane_u64(vreinterpret_u64_u8(narrowed), 0)
    }

    #[inline]
    pub fn find_key16(keys: &[u8; 16], count: usize, b: u8) -> Option<usize> {
        // SAFETY: NEON is part of the aarch64 baseline; the load reads the
        // 16 bytes of `keys`.
        unsafe {
            let v = vld1q_u8(keys.as_ptr());
            let eq = vceqq_u8(v, vdupq_n_u8(b));
            let mask = nibble_mask(eq) & lane_mask(count);
            (mask != 0).then(|| (mask.trailing_zeros() / 4) as usize)
        }
    }

    /// Nibble-mask selecting the first `count` (≤ 16) byte lanes.
    #[inline]
    fn lane_mask(count: usize) -> u64 {
        if count >= 16 {
            u64::MAX
        } else {
            (1u64 << (4 * count)) - 1
        }
    }

    #[inline]
    pub fn match_byte64(bytes: &[u8], b: u8) -> u64 {
        let mut mask = 0u64;
        let mut i = 0usize;
        while i + 16 <= bytes.len() {
            // SAFETY: `i + 16 <= bytes.len()`, so the load reads 16
            // in-bounds bytes; NEON is part of the aarch64 baseline.
            let nib = unsafe {
                let v = vld1q_u8(bytes.as_ptr().add(i));
                nibble_mask(vceqq_u8(v, vdupq_n_u8(b)))
            };
            // Compress nibble-per-lane to bit-per-lane: keep each lane's
            // low nibble bit, then walk the (sparse) set bits.
            let mut nib = nib & 0x1111_1111_1111_1111;
            while nib != 0 {
                mask |= 1u64 << (i + (nib.trailing_zeros() / 4) as usize);
                nib &= nib - 1;
            }
            i += 16;
        }
        for (j, &x) in bytes[i..].iter().enumerate() {
            mask |= ((x == b) as u64) << (i + j);
        }
        mask
    }

    #[inline]
    pub fn next_edge48(index: &[u8; 256], from: usize) -> Option<u8> {
        if from >= 256 {
            return None;
        }
        let first_chunk = from / 16;
        for chunk in first_chunk..16 {
            let base = chunk * 16;
            // SAFETY: `base + 16 <= 256`, inside the index array.
            let present = unsafe {
                let v = vld1q_u8(index.as_ptr().add(base));
                let absent = vceqq_u8(v, vdupq_n_u8(ABSENT));
                !nibble_mask(absent)
            };
            let mask = if chunk == first_chunk {
                present & !((1u64 << (4 * (from - base))) - 1)
            } else {
                present
            };
            if mask != 0 {
                return Some((base + (mask.trailing_zeros() / 4) as usize) as u8);
            }
        }
        None
    }
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
mod vector {
    //! No vector ISA on this target: the "vector" entry points are the
    //! scalar reference (never selected at runtime — `HAVE_VECTOR` is
    //! false — but keeps the dispatch code arch-independent).
    #[inline]
    pub fn find_key16(keys: &[u8; 16], count: usize, b: u8) -> Option<usize> {
        super::find_key16_scalar(keys, count, b)
    }

    #[inline]
    pub fn match_byte64(bytes: &[u8], b: u8) -> u64 {
        super::match_byte64_scalar(bytes, b)
    }

    #[inline]
    pub fn next_edge48(index: &[u8; 256], from: usize) -> Option<u8> {
        super::next_edge48_scalar(index, from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distinct sorted key arrays of every occupancy, with assorted
    /// spacings/offsets so matches land in every lane.
    fn key_arrays(count: usize) -> Vec<[u8; 16]> {
        let mut out = Vec::new();
        for (stride, offset, fill) in [
            (1usize, 0usize, 0u8),
            (1, 0x40, 0),
            (7, 3, 0),
            (16, 0, 0xFF),
            (15, 15, 0xAB),
        ] {
            let mut keys = [fill; 16];
            for (i, k) in keys.iter_mut().enumerate().take(count) {
                *k = (offset + i * stride).min(255) as u8;
            }
            out.push(keys);
        }
        out
    }

    /// Satellite: exhaustive NODE16 equivalence — every occupancy level
    /// (0..=16) × every probe byte (0x00..=0xFF) × several layouts must be
    /// bit-identical between the vector and scalar paths.
    #[test]
    fn find_key16_vector_matches_scalar_exhaustively() {
        for count in 0..=16usize {
            for keys in key_arrays(count) {
                for b in 0..=255u8 {
                    assert_eq!(
                        vector::find_key16(&keys, count, b),
                        find_key16_scalar(&keys, count, b),
                        "count {count} byte {b:#04x} keys {keys:?}"
                    );
                }
            }
        }
    }

    /// Duplicate key bytes (impossible in a committed node, possible in a
    /// torn optimistic copy) must still resolve to the same first match.
    #[test]
    fn find_key16_first_match_on_duplicates() {
        let keys = [7u8; 16];
        for count in 0..=16usize {
            for b in [0u8, 7, 255] {
                assert_eq!(
                    vector::find_key16(&keys, count, b),
                    find_key16_scalar(&keys, count, b),
                );
            }
        }
        assert_eq!(find_key16(&keys, 16, 7), Some(0));
    }

    /// Torn counts larger than 16 are clamped, never out of bounds.
    #[test]
    fn find_key16_clamps_count() {
        let mut keys = [0u8; 16];
        keys[15] = 9;
        assert_eq!(find_key16(&keys, usize::MAX, 9), Some(15));
        assert_eq!(find_key16_scalar(&keys, usize::MAX, 9), Some(15));
    }

    /// Exhaustive byte-scan equivalence: every length (0..=64) ×
    /// every probe byte × assorted fill patterns must produce bit-identical
    /// match masks on the vector and scalar paths — including lengths that
    /// leave a sub-16-byte tail for the vector chunk loop.
    #[test]
    fn match_byte64_vector_matches_scalar_exhaustively() {
        let mut state = 0xD15_7A6u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for len in 0..=64usize {
            let mut patterns: Vec<Vec<u8>> = vec![
                vec![0u8; len],
                vec![0xFF; len],
                (0..len).map(|i| i as u8).collect(),
                (0..len).map(|i| (i % 3) as u8).collect(),
            ];
            patterns.push((0..len).map(|_| (next() % 256) as u8).collect());
            for bytes in &patterns {
                for b in 0..=255u8 {
                    assert_eq!(
                        vector::match_byte64(bytes, b),
                        match_byte64_scalar(bytes, b),
                        "len {len} byte {b:#04x} bytes {bytes:?}"
                    );
                }
            }
        }
    }

    /// The mask reports every match position, not just the first.
    #[test]
    fn match_byte64_reports_all_positions() {
        let mut bytes = [0u8; 64];
        for i in [0usize, 15, 16, 17, 31, 32, 63] {
            bytes[i] = 7;
        }
        let expect = [0usize, 15, 16, 17, 31, 32, 63]
            .iter()
            .fold(0u64, |m, &i| m | 1 << i);
        assert_eq!(match_byte64(&bytes, 7), expect);
        assert_eq!(match_byte64_scalar(&bytes, 7), expect);
        assert_eq!(match_byte64(&[], 7), 0);
        assert_eq!(match_byte64(&bytes[..0], 0), 0);
        // All-match saturates every bit of the mask.
        assert_eq!(match_byte64(&[9u8; 64], 9), u64::MAX);
    }

    /// Satellite: exhaustive NODE48 equivalence — every occupancy level
    /// (0..=48) × every starting byte (0..=256) must be bit-identical
    /// between the vector and scalar paths.
    #[test]
    fn next_edge48_vector_matches_scalar_exhaustively() {
        // Deterministic xorshift so the occupied-byte pattern varies by
        // occupancy without an RNG dependency.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for occupancy in 0..=48usize {
            let mut index = [0xFFu8; 256];
            let mut placed = 0usize;
            while placed < occupancy {
                let b = (next() % 256) as usize;
                if index[b] == 0xFF {
                    index[b] = placed as u8;
                    placed += 1;
                }
            }
            for from in 0..=256usize {
                assert_eq!(
                    vector::next_edge48(&index, from),
                    next_edge48_scalar(&index, from),
                    "occupancy {occupancy} from {from}"
                );
            }
        }
    }

    /// Edge cases: empty index, full index, single edge at each boundary.
    #[test]
    fn next_edge48_boundaries() {
        let empty = [0xFFu8; 256];
        for from in [0usize, 1, 255, 256, usize::MAX] {
            assert_eq!(next_edge48(&empty, from), None);
            assert_eq!(next_edge48_scalar(&empty, from), None);
        }
        for edge in [0usize, 1, 15, 16, 47, 127, 128, 254, 255] {
            let mut index = [0xFFu8; 256];
            index[edge] = 0;
            assert_eq!(next_edge48(&index, 0), Some(edge as u8));
            assert_eq!(next_edge48(&index, edge), Some(edge as u8));
            assert_eq!(next_edge48(&index, edge + 1), None);
        }
        let full: [u8; 256] = std::array::from_fn(|i| (i % 48) as u8);
        for from in 0..256usize {
            assert_eq!(next_edge48(&full, from), Some(from as u8));
        }
    }

    /// The runtime switch actually flips dispatch and restores.
    #[test]
    fn force_scalar_round_trip() {
        let keys: [u8; 16] = std::array::from_fn(|i| i as u8 * 3);
        force_scalar(true);
        assert!(!vector_active());
        assert_eq!(find_key16(&keys, 16, 9), Some(3));
        force_scalar(false);
        // Restoring re-applies the environment override, so the suite can
        // run wholesale under HART_FORCE_SCALAR=1.
        assert_eq!(vector_active(), HAVE_VECTOR && !env_forces_scalar());
        assert_eq!(find_key16(&keys, 16, 9), Some(3));
    }
}
