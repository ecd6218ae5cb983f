//! Channel interleaving — the executable form of the paper's Table II.
//!
//! "The data for the channels is interleaved in such a way that all the
//! channels can be used in a single master transaction. […] Byte addressable
//! memory is used, minimum DRAM burst size is four, and word length is
//! 32 bits (4 bytes). This makes minimum practical interleaving granularity
//! 16 (= 4×4). For example, addresses from 0 to 15 are located in bank
//! cluster zero and addresses from 16 to 31 in bank cluster one."
//!
//! [`InterleaveMap`] implements that mapping for any non-zero channel
//! count (the modulo arithmetic does not need a power of two — degraded
//! subsystems re-interleave over e.g. 3 surviving channels) and any
//! power-of-two granule, with the paper's 16-byte granule as the default.

use core::fmt;

use crate::error::ChannelError;

/// Maps global byte addresses to (channel, channel-local address) pairs by
/// low-order interleaving.
///
/// # Examples
///
/// The paper's Table II, for M channels at 16-byte granularity:
///
/// ```
/// use mcm_channel::InterleaveMap;
///
/// let m = InterleaveMap::new(4, 16).unwrap();
/// assert_eq!(m.split(0).0, 0);      // bytes 0..16   -> BC 0
/// assert_eq!(m.split(16).0, 1);     // bytes 16..32  -> BC 1
/// assert_eq!(m.split(3 * 16).0, 3); // bytes 48..64  -> BC M-1
/// assert_eq!(m.split(4 * 16).0, 0); // wraps to BC 0
/// // Local addresses stay dense within each channel:
/// assert_eq!(m.split(4 * 16).1, 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterleaveMap {
    channels: u32,
    granule: u64,
}

impl InterleaveMap {
    /// Creates a map over `channels` channels with `granule_bytes`
    /// interleaving granularity.
    ///
    /// The granule must be a power of two (hardware address-bit slicing
    /// within a granule); the channel count may be any non-zero value —
    /// the rotation is plain modulo arithmetic, which is what lets a
    /// degraded subsystem re-interleave over, say, 3 surviving channels.
    /// The paper uses 1–8 channels and a 16-byte granule.
    pub fn new(channels: u32, granule_bytes: u64) -> Result<Self, ChannelError> {
        if channels == 0 {
            return Err(ChannelError::BadConfig {
                reason: "channel count must be non-zero".to_string(),
            });
        }
        if granule_bytes == 0 || !granule_bytes.is_power_of_two() {
            return Err(ChannelError::BadConfig {
                reason: format!(
                    "interleave granule {granule_bytes} must be a non-zero power of two"
                ),
            });
        }
        Ok(InterleaveMap {
            channels,
            granule: granule_bytes,
        })
    }

    /// The paper's configuration: `channels` × 16-byte granules.
    pub fn paper(channels: u32) -> Result<Self, ChannelError> {
        Self::new(channels, 16)
    }

    /// Number of channels.
    pub fn channels(&self) -> u32 {
        self.channels
    }

    /// Interleaving granularity in bytes.
    pub fn granule_bytes(&self) -> u64 {
        self.granule
    }

    /// Splits a global byte address into `(channel, local address)`.
    pub fn split(&self, addr: u64) -> (u32, u64) {
        let granule_idx = addr / self.granule;
        let channel = (granule_idx % self.channels as u64) as u32;
        let local = (granule_idx / self.channels as u64) * self.granule + addr % self.granule;
        (channel, local)
    }

    /// Reassembles a global address from `(channel, local address)` —
    /// the inverse of [`InterleaveMap::split`]. A local address whose
    /// global address would not fit in a `u64` is
    /// [`ChannelError::AddressOutOfRange`], naming the local address and a
    /// capacity of `u64::MAX` bytes.
    pub fn join(&self, channel: u32, local: u64) -> Result<u64, ChannelError> {
        if channel >= self.channels {
            return Err(ChannelError::BadChannel {
                channel,
                channels: self.channels,
            });
        }
        (local / self.granule)
            .checked_mul(u64::from(self.channels))
            .and_then(|g| g.checked_add(u64::from(channel)))
            .and_then(|g| g.checked_mul(self.granule))
            .and_then(|base| base.checked_add(local % self.granule))
            .ok_or(ChannelError::AddressOutOfRange {
                addr: local,
                capacity_bytes: u64::MAX,
            })
    }

    /// Splits the byte range `[addr, addr + len)` into at most one
    /// contiguous local range per channel.
    ///
    /// Because the interleaving is a pure rotation of granules, the granules
    /// a transaction touches on one channel are always adjacent locally, so
    /// each channel receives a single `(local_addr, len)` slice. Channels
    /// not touched get `None`.
    ///
    /// # Panics
    ///
    /// Panics, in every build profile, when the range runs past
    /// `u64::MAX` ("byte range runs past the end of the address space").
    pub fn split_range(&self, addr: u64, len: u64) -> Vec<Option<(u64, u64)>> {
        let mut out = Vec::new();
        self.split_range_into(addr, len, &mut out);
        out
    }

    /// [`InterleaveMap::split_range`] into a caller-owned buffer, cleared
    /// and resized to the channel count. O(channels) closed form with two
    /// divisions per call: the range touches `n` granules from granule
    /// `first`, so the channel at offset `k` from `first`'s channel gets
    /// `n / m` granules, one more when `k < n % m`, starting at local
    /// granule `first / m` (one further once the offset wraps past the last
    /// channel). Only the first and last granules are trimmed. The cost
    /// does not depend on how many granules the range spans, and a reused
    /// buffer makes the subsystem's per-transaction fan-out allocation-free.
    ///
    /// # Panics
    ///
    /// Panics like [`InterleaveMap::split_range`] when the range runs past
    /// `u64::MAX`.
    pub fn split_range_into(&self, addr: u64, len: u64, out: &mut Vec<Option<(u64, u64)>>) {
        out.clear();
        out.resize(self.channels as usize, None);
        if len == 0 {
            return;
        }
        let Some(last_byte) = addr.checked_add(len - 1) else {
            panic!("byte range runs past the end of the address space: {addr:#x} + {len}");
        };
        let m = u64::from(self.channels);
        let g = self.granule;
        let shift = g.trailing_zeros();
        let first = addr >> shift;
        let last = last_byte >> shift;
        // Bytes the transaction does not cover in its first/last granule.
        let head = addr & (g - 1);
        let tail = (g - 1) - (last_byte & (g - 1));
        let n = last - first + 1;
        let (q, rem) = (n / m, n % m);
        // The offset whose run ends on granule `last`: (n - 1) % m.
        let last_k = if rem == 0 { m - 1 } else { rem - 1 };
        let mut channel = first % m;
        let mut local = (first / m) << shift;
        for k in 0..n.min(m) {
            let mut start = local;
            // Whole granules, then trimmed. A one-channel range touching
            // both ends of the address space has 2^64 bytes of whole
            // granules, but the trimmed count fits, so wrapping is exact.
            let mut bytes = (q + u64::from(k < rem)) << shift;
            if k == 0 {
                start += head;
                bytes = bytes.wrapping_sub(head);
            }
            if k == last_k {
                bytes = bytes.wrapping_sub(tail);
            }
            out[channel as usize] = Some((start, bytes));
            channel += 1;
            if channel == m {
                channel = 0;
                // Wraps only past the last granule, which no slice uses.
                local = local.wrapping_add(g);
            }
        }
    }
}

impl fmt::Display for InterleaveMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} channels × {} B granules",
            self.channels, self.granule
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_example() {
        // TABLE II: addresses 0..16 -> BC0, 16..32 -> BC1, ...,
        // 16(M-1)..16M -> BC M-1, then 16M.. wraps to BC0.
        for m in [1u32, 2, 4, 8] {
            let map = InterleaveMap::paper(m).unwrap();
            for ch in 0..m {
                let (c, local) = map.split(16 * ch as u64);
                assert_eq!(c, ch);
                assert_eq!(local, 0);
            }
            let (c, local) = map.split(16 * m as u64);
            assert_eq!(c, 0);
            assert_eq!(local, 16);
        }
    }

    #[test]
    fn split_join_roundtrip() {
        let map = InterleaveMap::new(8, 16).unwrap();
        for addr in [0u64, 1, 15, 16, 17, 127, 128, 4096, 1 << 30] {
            let (ch, local) = map.split(addr);
            assert_eq!(map.join(ch, local).unwrap(), addr);
        }
    }

    #[test]
    fn single_channel_is_identity() {
        let map = InterleaveMap::paper(1).unwrap();
        for addr in [0u64, 5, 1000, 1 << 20] {
            assert_eq!(map.split(addr), (0, addr));
        }
    }

    #[test]
    fn split_range_covers_exactly_once() {
        let map = InterleaveMap::new(4, 16).unwrap();
        // A 64-byte cache line starting at 0 touches all four channels.
        let slices = map.split_range(0, 64);
        for (ch, s) in slices.iter().enumerate() {
            let (local, len) = s.unwrap();
            assert_eq!(len, 16, "channel {ch}");
            assert_eq!(local, 0);
        }
        // Total bytes conserved.
        let total: u64 = slices.iter().flatten().map(|&(_, l)| l).sum();
        assert_eq!(total, 64);
    }

    #[test]
    fn split_range_handles_unaligned_ranges() {
        let map = InterleaveMap::new(2, 16).unwrap();
        // 40 bytes starting at 8: granules 0 (8..16), 1 (16..32), 2 (32..48).
        let slices = map.split_range(8, 40);
        let (l0, n0) = slices[0].unwrap();
        let (l1, n1) = slices[1].unwrap();
        assert_eq!((l0, n0), (8, 24)); // granule0: 8 bytes; granule2: 16 bytes -> local 16..32
        assert_eq!((l1, n1), (0, 16));
        assert_eq!(n0 + n1, 40);
    }

    #[test]
    fn split_range_large_transaction_balances_channels() {
        let map = InterleaveMap::new(8, 16).unwrap();
        let slices = map.split_range(0, 8 * 16 * 100);
        for s in &slices {
            assert_eq!(s.unwrap().1, 1600);
        }
    }

    #[test]
    fn empty_range_touches_nothing() {
        let map = InterleaveMap::new(4, 16).unwrap();
        assert!(map.split_range(123, 0).iter().all(Option::is_none));
    }

    #[test]
    fn closed_form_matches_granule_walk() {
        // Every channel count, degraded ones (3, 5, 6, 7) included.
        for (m, g) in (1u32..=8).flat_map(|m| [(m, 16u64), (m, 64)]) {
            let map = InterleaveMap::new(m, g).unwrap();
            for addr in [0u64, 3, 8, 15, 16, 17, 63, 64, 160, 4095] {
                for len in [1u64, 7, 16, 17, 40, 64, 65, 256, 1000] {
                    // Reference: walk every granule and accumulate slices.
                    let mut expect: Vec<Option<(u64, u64)>> = vec![None; m as usize];
                    let first = addr / g;
                    let last = (addr + len - 1) / g;
                    for gi in first..=last {
                        let lo = (gi * g).max(addr);
                        let hi = ((gi + 1) * g).min(addr + len);
                        let (ch, local) = map.split(lo);
                        match &mut expect[ch as usize] {
                            s @ None => *s = Some((local, hi - lo)),
                            Some((_, l)) => *l += hi - lo,
                        }
                    }
                    assert_eq!(
                        map.split_range(addr, len),
                        expect,
                        "m={m} g={g} addr={addr} len={len}"
                    );
                }
            }
        }
    }

    #[test]
    fn rejects_bad_configs() {
        assert!(InterleaveMap::new(0, 16).is_err());
        assert!(InterleaveMap::new(4, 0).is_err());
        assert!(InterleaveMap::new(4, 24).is_err());
        // Non-power-of-two channel counts are legal (degraded re-interleave
        // over 3 survivors); only the granule needs hardware bit slicing.
        assert!(InterleaveMap::new(3, 16).is_ok());
    }

    #[test]
    fn non_power_of_two_channels_still_bijective() {
        for m in [3u32, 5, 6, 7] {
            let map = InterleaveMap::new(m, 16).unwrap();
            for addr in [0u64, 1, 15, 16, 47, 48, 160, 4096, (1 << 20) + 13] {
                let (ch, local) = map.split(addr);
                assert!(ch < m);
                assert_eq!(map.join(ch, local).unwrap(), addr, "m={m} addr={addr}");
            }
        }
    }

    #[test]
    fn join_rejects_bad_channel() {
        let map = InterleaveMap::new(4, 16).unwrap();
        assert!(map.join(4, 0).is_err());
    }

    #[test]
    fn join_past_the_address_space_is_out_of_range() {
        let map = InterleaveMap::new(4, 16).unwrap();
        assert!(matches!(
            map.join(0, u64::MAX),
            Err(ChannelError::AddressOutOfRange { .. })
        ));
        // The last global granule still joins.
        let (ch, local) = map.split(u64::MAX);
        assert_eq!(map.join(ch, local).unwrap(), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "byte range runs past the end of the address space")]
    fn split_range_past_the_address_space_panics() {
        InterleaveMap::new(4, 16)
            .unwrap()
            .split_range(u64::MAX - 3, 16);
    }

    #[test]
    fn split_range_reaches_the_last_byte() {
        // Ranges that end exactly at u64::MAX do not run past it.
        let map = InterleaveMap::new(4, 16).unwrap();
        let slices = map.split_range(u64::MAX - 15, 16);
        assert_eq!(slices[3], Some((u64::MAX / 4 - 15, 16)));
        let one = InterleaveMap::new(1, 16).unwrap();
        assert_eq!(
            one.split_range(u64::MAX - 15, 16),
            [Some((u64::MAX - 15, 16))]
        );
        assert_eq!(one.split_range(0, u64::MAX), [Some((0, u64::MAX))]);
        assert_eq!(one.split_range(1, u64::MAX - 1), [Some((1, u64::MAX - 1))]);
    }

    #[test]
    fn display() {
        let map = InterleaveMap::new(4, 16).unwrap();
        assert_eq!(map.to_string(), "4 channels × 16 B granules");
    }
}
