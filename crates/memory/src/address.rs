//! Physical address interleaving across stacks, channels and banks.
//!
//! Addresses are block-interleaved: consecutive cache blocks rotate over
//! stacks first (spreading load over the package), then over the four
//! channels inside each stack, then over banks — the standard layout for
//! in-package DRAM where channel-level parallelism is the scarce
//! resource.

use serde::{Deserialize, Serialize};

/// Decoded location of a physical address inside the memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Location {
    /// Memory stack index.
    pub stack: usize,
    /// Channel within the stack.
    pub channel: usize,
    /// Bank within the channel.
    pub bank: usize,
    /// DRAM row within the bank.
    pub row: u64,
    /// DRAM layer holding the row (for TSV accounting).
    pub layer: u32,
}

/// Block-interleaved address map.
///
/// Interleave order, from the least significant block bits upward:
/// **stack → channel → column-in-row → bank → row**.  Consecutive blocks
/// spread over stacks and channels (bandwidth), while a stream on one
/// channel walks columns of the *same* open row before touching the next
/// bank (row-buffer locality).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AddressMap {
    stacks: usize,
    channels: usize,
    banks: usize,
    layers: u32,
    block_bytes: u64,
    row_bytes: u64,
    rows_per_bank: u64,
}

impl AddressMap {
    /// Creates a map over `stacks` stacks of `channels` channels ×
    /// `banks` banks × `layers` layers with `block_bytes` interleaving
    /// granularity and `row_bytes` DRAM rows.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero, sizes are not powers of two, or
    /// a row does not hold at least one block.
    pub fn new(
        stacks: usize,
        channels: usize,
        banks: usize,
        layers: u32,
        block_bytes: u64,
        row_bytes: u64,
        rows_per_bank: u64,
    ) -> Self {
        assert!(stacks > 0 && channels > 0 && banks > 0 && layers > 0);
        assert!(rows_per_bank > 0);
        assert!(
            block_bytes.is_power_of_two() && row_bytes.is_power_of_two(),
            "block and row sizes must be powers of two"
        );
        assert!(row_bytes >= block_bytes, "a row holds at least one block");
        AddressMap {
            stacks,
            channels,
            banks,
            layers,
            block_bytes,
            row_bytes,
            rows_per_bank,
        }
    }

    /// The paper's system: `stacks` stacks × 4 channels × 8 banks × 4
    /// layers, 64-byte blocks in 2 KiB rows.
    pub fn paper(stacks: usize) -> Self {
        AddressMap::new(stacks, 4, 8, 4, 64, 2_048, 16_384)
    }

    /// Number of stacks covered.
    pub fn stacks(&self) -> usize {
        self.stacks
    }

    /// Blocks per DRAM row.
    pub(crate) fn blocks_per_row(&self) -> u64 {
        self.row_bytes / self.block_bytes
    }

    /// Decodes a physical byte address.
    pub(crate) fn decode(&self, addr: u64) -> Location {
        let block = addr / self.block_bytes;
        let stack = (block % self.stacks as u64) as usize;
        let block = block / self.stacks as u64;
        let channel = (block % self.channels as u64) as usize;
        let block = block / self.channels as u64;
        let block = block / self.blocks_per_row(); // column within the row
        let bank = (block % self.banks as u64) as usize;
        let block = block / self.banks as u64;
        let row = block % self.rows_per_bank;
        // Rows are striped across layers so adjacent rows sit on
        // different dies (thermal spreading).
        let layer = (row % u64::from(self.layers)) as u32;
        Location { stack, channel, bank, row, layer }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consecutive_blocks_rotate_over_stacks_first() {
        let m = AddressMap::paper(4);
        let a = m.decode(0);
        let b = m.decode(64);
        let c = m.decode(128);
        assert_eq!(a.stack, 0);
        assert_eq!(b.stack, 1);
        assert_eq!(c.stack, 2);
        // Same channel until the stack wheel wraps.
        assert_eq!(a.channel, b.channel);
    }

    #[test]
    fn channel_rotates_after_stack_wrap() {
        let m = AddressMap::paper(4);
        let wrapped = m.decode(4 * 64);
        assert_eq!(wrapped.stack, 0);
        assert_eq!(wrapped.channel, 1);
    }

    #[test]
    fn same_block_same_location() {
        let m = AddressMap::paper(2);
        assert_eq!(m.decode(100), m.decode(101));
        assert_ne!(m.decode(0), m.decode(64));
    }

    #[test]
    fn all_fields_stay_in_range() {
        let m = AddressMap::paper(4);
        for i in 0..10_000u64 {
            let loc = m.decode(i * 64 + 17);
            assert!(loc.stack < 4);
            assert!(loc.channel < 4);
            assert!(loc.bank < 8);
            assert!(loc.row < 16_384);
            assert!(loc.layer < 4);
        }
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_block_panics() {
        AddressMap::new(1, 1, 1, 1, 48, 2048, 16);
    }
}
