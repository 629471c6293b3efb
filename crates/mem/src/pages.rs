//! Physical-page-to-home-node mapping.
//!
//! §4.2: "Physical memory pages are distributed in round-robin fashion among
//! the nodes." The home node of a block is the home node of its page; all
//! global coherence actions for the block serialize at that node's directory.

use ccsim_types::{Addr, BlockAddr, NodeId};

/// Home node of the page containing `addr`, for a machine with `nodes`
/// nodes and `page_bytes`-sized pages (power of two).
#[inline]
pub fn home_node(addr: Addr, page_bytes: u64, nodes: u16) -> NodeId {
    debug_assert!(page_bytes.is_power_of_two());
    debug_assert!(nodes > 0);
    let page = addr.0 >> page_bytes.trailing_zeros();
    NodeId((page % nodes as u64) as u16)
}

/// Home node of a memory block (blocks never straddle pages because both are
/// powers of two and pages are at least one block).
#[inline]
pub fn home_of_block(block: BlockAddr, page_bytes: u64, nodes: u16) -> NodeId {
    home_node(block.addr(), page_bytes, nodes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_over_pages() {
        let pb = 4096;
        assert_eq!(home_node(Addr(0), pb, 4), NodeId(0));
        assert_eq!(home_node(Addr(4095), pb, 4), NodeId(0));
        assert_eq!(home_node(Addr(4096), pb, 4), NodeId(1));
        assert_eq!(home_node(Addr(3 * 4096), pb, 4), NodeId(3));
        assert_eq!(home_node(Addr(4 * 4096), pb, 4), NodeId(0));
    }

    #[test]
    fn single_node_machine_owns_everything() {
        for a in [0u64, 1 << 12, 1 << 20, 1 << 30] {
            assert_eq!(home_node(Addr(a), 4096, 1), NodeId(0));
        }
    }

    #[test]
    fn blocks_within_a_page_share_a_home() {
        let pb = 4096;
        let base = 7 * 4096;
        let h = home_node(Addr(base), pb, 4);
        for off in (0..4096).step_by(64) {
            assert_eq!(home_of_block(Addr(base + off).block(64), pb, 4), h);
        }
    }

    #[test]
    fn distribution_is_balanced() {
        let mut counts = [0u32; 4];
        for p in 0..4000u64 {
            counts[home_node(Addr(p * 4096), 4096, 4).idx()] += 1;
        }
        assert_eq!(counts, [1000; 4]);
    }
}
