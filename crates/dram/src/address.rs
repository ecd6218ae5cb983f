//! DRAM address multiplexing: how a flat channel-local byte address maps to
//! (bank, row, column).
//!
//! The paper evaluates two types and reports that **Row–Bank–Column (RBC)**
//! performs somewhat better than **Bank–Row–Column (BRC)**; all headline
//! results use RBC. The reason is visible in the sequential traffic of the
//! video use case:
//!
//! * under RBC the bank bits sit between row and column, so a sequential
//!   sweep crosses into *a different bank's* row at every page boundary —
//!   the controller can activate the next bank while the current one is
//!   still bursting;
//! * under BRC the bank bits are most significant, so a sweep stays in one
//!   bank and pays the full precharge+activate stall at every page boundary.

use core::fmt;

use serde::{Deserialize, Serialize};

use crate::error::DramError;
use crate::params::Geometry;

/// Address multiplexing type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum AddressMapping {
    /// Row–Bank–Column: `addr = row ‖ bank ‖ col ‖ byte` (paper's choice).
    #[default]
    Rbc,
    /// Bank–Row–Column: `addr = bank ‖ row ‖ col ‖ byte`.
    Brc,
}

impl fmt::Display for AddressMapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AddressMapping::Rbc => write!(f, "RBC"),
            AddressMapping::Brc => write!(f, "BRC"),
        }
    }
}

/// A decoded channel-local address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DecodedAddress {
    /// Bank index.
    pub bank: u32,
    /// Row index within the bank.
    pub row: u32,
    /// Column index within the row (word granularity).
    pub col: u32,
}

/// An address decoder bound to one geometry and mapping.
///
/// # Examples
///
/// ```
/// use mcm_dram::{AddressDecoder, AddressMapping, Geometry};
///
/// let dec = AddressDecoder::new(Geometry::next_gen_mobile_ddr(), AddressMapping::Rbc).unwrap();
/// let d = dec.decode(0).unwrap();
/// assert_eq!((d.bank, d.row, d.col), (0, 0, 0));
/// // One page (2 KiB) later under RBC: same row, next bank.
/// let d = dec.decode(2048).unwrap();
/// assert_eq!((d.bank, d.row, d.col), (1, 0, 0));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct AddressDecoder {
    geometry: Geometry,
    mapping: AddressMapping,
    capacity_bytes: u64,
    byte_bits: u32,
    col_bits: u32,
    bank_bits: u32,
    row_bits: u32,
}

impl AddressDecoder {
    /// Creates a decoder; fails if the geometry is invalid.
    pub fn new(geometry: Geometry, mapping: AddressMapping) -> Result<Self, DramError> {
        geometry.validate()?;
        Ok(AddressDecoder {
            geometry,
            mapping,
            capacity_bytes: geometry.capacity_bytes(),
            byte_bits: geometry.word_bytes().trailing_zeros(),
            col_bits: geometry.cols.trailing_zeros(),
            bank_bits: geometry.banks.trailing_zeros(),
            row_bits: geometry.rows.trailing_zeros(),
        })
    }

    /// The geometry this decoder addresses.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// The multiplexing type in use.
    pub fn mapping(&self) -> AddressMapping {
        self.mapping
    }

    /// Bytes addressable: the geometry's capacity.
    #[inline]
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Decodes a channel-local byte address.
    #[inline]
    pub fn decode(&self, addr: u64) -> Result<DecodedAddress, DramError> {
        if addr >= self.capacity_bytes {
            return Err(DramError::AddressOutOfRange {
                addr,
                capacity_bytes: self.capacity_bytes,
            });
        }
        let word = addr >> self.byte_bits;
        let col = (word & ((1 << self.col_bits) - 1)) as u32;
        let rest = word >> self.col_bits;
        let (bank, row) = match self.mapping {
            AddressMapping::Rbc => {
                let bank = (rest & ((1 << self.bank_bits) - 1)) as u32;
                let row = (rest >> self.bank_bits) as u32;
                (bank, row)
            }
            AddressMapping::Brc => {
                let row = (rest & ((1 << self.row_bits) - 1)) as u32;
                let bank = (rest >> self.row_bits) as u32;
                (bank, row)
            }
        };
        Ok(DecodedAddress { bank, row, col })
    }

    /// Re-encodes a decoded address back to the flat byte address of its
    /// first byte (inverse of [`AddressDecoder::decode`] at word alignment).
    pub fn encode(&self, d: DecodedAddress) -> Result<u64, DramError> {
        if d.bank >= self.geometry.banks {
            return Err(DramError::BadBank {
                bank: d.bank,
                banks: self.geometry.banks,
            });
        }
        if d.row >= self.geometry.rows || d.col >= self.geometry.cols {
            return Err(DramError::AddressOutOfRange {
                addr: u64::MAX,
                capacity_bytes: self.capacity_bytes,
            });
        }
        let rest = match self.mapping {
            AddressMapping::Rbc => ((d.row as u64) << self.bank_bits) | d.bank as u64,
            AddressMapping::Brc => ((d.bank as u64) << self.row_bits) | d.row as u64,
        };
        Ok(((rest << self.col_bits) | d.col as u64) << self.byte_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dec(mapping: AddressMapping) -> AddressDecoder {
        AddressDecoder::new(Geometry::next_gen_mobile_ddr(), mapping).unwrap()
    }

    #[test]
    fn rbc_sequential_sweep_rotates_banks_at_page_boundaries() {
        let d = dec(AddressMapping::Rbc);
        let page = d.geometry().page_bytes() as u64;
        let a0 = d.decode(0).unwrap();
        let a1 = d.decode(page).unwrap();
        let a4 = d.decode(4 * page).unwrap();
        assert_eq!((a0.bank, a0.row), (0, 0));
        assert_eq!((a1.bank, a1.row), (1, 0));
        // After all four banks, the row advances.
        assert_eq!((a4.bank, a4.row), (0, 1));
    }

    #[test]
    fn brc_sequential_sweep_stays_in_bank() {
        let d = dec(AddressMapping::Brc);
        let page = d.geometry().page_bytes() as u64;
        let a1 = d.decode(page).unwrap();
        assert_eq!((a1.bank, a1.row), (0, 1));
        // Bank changes only after sweeping all rows of bank 0.
        let bank_span = page * d.geometry().rows as u64;
        let b = d.decode(bank_span).unwrap();
        assert_eq!((b.bank, b.row), (1, 0));
    }

    #[test]
    fn columns_advance_within_page() {
        for mapping in [AddressMapping::Rbc, AddressMapping::Brc] {
            let d = dec(mapping);
            let a = d.decode(16).unwrap(); // one burst in
            assert_eq!(a.col, 4); // 16 bytes / 4-byte words
            assert_eq!(a.bank, 0);
            assert_eq!(a.row, 0);
        }
    }

    #[test]
    fn decode_encode_roundtrip_spot_checks() {
        for mapping in [AddressMapping::Rbc, AddressMapping::Brc] {
            let d = dec(mapping);
            for addr in [0u64, 4, 2048, 65536, 1 << 20, (512 << 20) / 8 - 4] {
                let dd = d.decode(addr).unwrap();
                assert_eq!(d.encode(dd).unwrap(), addr, "mapping {mapping} addr {addr}");
            }
        }
    }

    #[test]
    fn decode_rejects_out_of_range() {
        let d = dec(AddressMapping::Rbc);
        let cap = d.geometry().capacity_bytes();
        assert!(d.decode(cap).is_err());
        assert!(d.decode(cap - 1).is_ok());
    }

    #[test]
    fn encode_rejects_bad_fields() {
        let d = dec(AddressMapping::Rbc);
        assert!(d
            .encode(DecodedAddress {
                bank: 4,
                row: 0,
                col: 0
            })
            .is_err());
        assert!(d
            .encode(DecodedAddress {
                bank: 0,
                row: 8192,
                col: 0
            })
            .is_err());
        assert!(d
            .encode(DecodedAddress {
                bank: 0,
                row: 0,
                col: 512
            })
            .is_err());
    }

    #[test]
    fn display_names() {
        assert_eq!(AddressMapping::Rbc.to_string(), "RBC");
        assert_eq!(AddressMapping::Brc.to_string(), "BRC");
        assert_eq!(AddressMapping::default(), AddressMapping::Rbc);
    }
}
