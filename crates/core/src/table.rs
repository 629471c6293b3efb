//! Dense directory state for the engine hot path.
//!
//! [`crate::Directory`] keys entries by hashed `BlockAddr` — the right
//! shape for the model checker and unit tests, which probe a handful of
//! blocks, but a hash + probe per coherence action on the engine hot path.
//! [`DirTable`] holds the same [`DirEntry`] records in a dense, lazily
//! paged slab indexed by block index, with per-home statistics, and
//! delegates every transition to the same pure functions in
//! [`crate::rules`] — so the bounded model checker still explores exactly
//! the rules the simulator runs.
//!
//! Although every block has a unique home node, entries live in one
//! machine-wide slab: the home is a pure function of the address, so
//! per-home maps bought no sharding benefit, only `nodes` separate hash
//! tables. Per-shard *ownership* for the parallel sweep is by block-index
//! hash (see `ccsim-engine`'s `shard` module), which this flat layout
//! makes cheap.

use crate::entry::{DirEntry, Fig1State};
use crate::outcome::{ReadResolution, ReadStep, WriteResolution, WriteStep};
use crate::rules;
use crate::DirStats;
use ccsim_types::{BlockAddr, NodeId, ProtocolConfig, ProtocolKind};
use ccsim_util::Slab;

/// All directory entries of a machine, dense by block index, with
/// statistics split by home node.
pub struct DirTable {
    cfg: ProtocolConfig,
    block_bytes: u64,
    /// `log2(block_bytes)`: the shift from a block address to its index.
    block_shift: u32,
    entries: Slab<Option<DirEntry>>,
    stats: Vec<DirStats>,
}

impl DirTable {
    pub fn new(cfg: ProtocolConfig, block_bytes: u64, homes: u16) -> Self {
        assert!(block_bytes.is_power_of_two() && block_bytes > 0);
        DirTable {
            cfg,
            block_bytes,
            block_shift: block_bytes.trailing_zeros(),
            entries: Slab::new(),
            stats: vec![DirStats::default(); homes.max(1) as usize],
        }
    }

    pub fn protocol(&self) -> ProtocolKind {
        self.cfg.kind
    }

    /// Block index of `block` in the dense slab.
    #[inline]
    pub fn index(&self, block: BlockAddr) -> usize {
        (block.0 >> self.block_shift) as usize
    }

    /// Statistics accumulated for blocks homed at `home`.
    pub fn stats(&self, home: NodeId) -> &DirStats {
        &self.stats[home.idx()]
    }

    /// Machine-wide aggregate statistics.
    pub fn merged_stats(&self) -> DirStats {
        let mut total = DirStats::default();
        for s in &self.stats {
            total.merge(s);
        }
        total
    }

    /// Inspect a block's entry (tests/diagnostics); `None` = never touched.
    pub fn entry(&self, block: BlockAddr) -> Option<&DirEntry> {
        self.entries.get(self.index(block)).and_then(|e| e.as_ref())
    }

    /// Figure 1 state of a block (untouched blocks are Uncached).
    pub fn fig1(&self, block: BlockAddr) -> Fig1State {
        self.entry(block)
            .map(|e| e.fig1())
            .unwrap_or(Fig1State::Uncached)
    }

    // --- transactions (delegating to crate::rules) -------------------------

    /// A global read action from `p` arrives at `home`. See [`rules::read`].
    // ccsim-lint: allow(panic-path): the per-home set index is bounded by the geometry DirTable::new validated
    pub fn read(&mut self, home: NodeId, block: BlockAddr, p: NodeId) -> ReadStep {
        let i = self.index(block);
        let fresh = rules::fresh_entry(&self.cfg);
        let e = self.entries.entry(i).get_or_insert(fresh);
        rules::read(&self.cfg, &mut self.stats[home.idx()], e, p)
    }

    /// Conclude a forwarded read once the owner's cache state is known.
    /// See [`rules::read_forward_result`].
    // ccsim-lint: allow(panic-path): the per-home set index is bounded by the geometry DirTable::new validated
    pub fn read_forward_result(
        &mut self,
        home: NodeId,
        block: BlockAddr,
        p: NodeId,
        owner_wrote: bool,
        owner_dirty: bool,
    ) -> ReadResolution {
        let i = self.index(block);
        let e = self
            .entries
            .entry(i)
            .as_mut()
            // ccsim-lint: allow(unwrap): read() created this entry when it returned Forward
            .expect("forwarded read on unknown block");
        rules::read_forward_result(
            &self.cfg,
            &mut self.stats[home.idx()],
            e,
            p,
            owner_wrote,
            owner_dirty,
        )
    }

    /// A global write action (ownership acquisition) from `p` arrives at
    /// `home`. See [`rules::write`].
    // ccsim-lint: allow(panic-path): the per-home set index is bounded by the geometry DirTable::new validated
    pub fn write(&mut self, home: NodeId, block: BlockAddr, p: NodeId) -> WriteStep {
        let i = self.index(block);
        let fresh = rules::fresh_entry(&self.cfg);
        let e = self.entries.entry(i).get_or_insert(fresh);
        rules::write(&self.cfg, &mut self.stats[home.idx()], e, p)
    }

    /// Conclude a forwarded write. See [`rules::write_forward_result`].
    // ccsim-lint: allow(panic-path): the per-home set index is bounded by the geometry DirTable::new validated
    pub fn write_forward_result(
        &mut self,
        home: NodeId,
        block: BlockAddr,
        p: NodeId,
        owner_modified: bool,
    ) -> WriteResolution {
        let i = self.index(block);
        let e = self
            .entries
            .entry(i)
            .as_mut()
            // ccsim-lint: allow(unwrap): write() created this entry when it returned Forward
            .expect("forwarded write on unknown block");
        rules::write_forward_result(&mut self.stats[home.idx()], e, p, owner_modified)
    }

    /// A cache evicted its copy of `block` (homed at `home`).
    /// See [`rules::replacement`].
    // ccsim-lint: allow(panic-path): the per-home set index is bounded by the geometry DirTable::new validated
    pub fn replacement(&mut self, home: NodeId, block: BlockAddr, node: NodeId) {
        let i = self.index(block);
        // An untouched block has nothing to evict; don't materialize it.
        let Some(Some(e)) = self.entries.get_mut(i) else {
            return;
        };
        rules::replacement(&self.cfg, &mut self.stats[home.idx()], e, node);
    }

    /// Test-only: deliberately break a block's entry so the engine's
    /// invariant checker has something to catch. Mirrors
    /// [`crate::Directory::corrupt_entry_for_test`].
    #[cfg(feature = "testing")]
    #[doc(hidden)]
    pub fn corrupt_entry_for_test(&mut self, block: BlockAddr) {
        let i = self.index(block);
        let fresh = rules::fresh_entry(&self.cfg);
        let e = self.entries.entry(i).get_or_insert(fresh);
        e.state = crate::entry::HomeState::Shared;
        if e.sharers.is_empty() {
            e.sharers.insert(NodeId(0));
        }
    }

    /// Check every entry's internal consistency (test support).
    pub fn check_invariants(&self) -> Result<(), String> {
        for (i, slot) in self.entries.iter() {
            let Some(e) = slot else { continue };
            let block = BlockAddr(i as u64 * self.block_bytes);
            e.check().map_err(|m| format!("{block}: {m}"))?;
            if self.cfg.kind == ProtocolKind::Baseline && e.tagged {
                return Err(format!("{block}: Baseline must never tag"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::Directory;
    use crate::outcome::GrantKind;
    use ccsim_types::Addr;
    use ccsim_util::Xoshiro256pp;

    const BLOCK: u64 = 32;

    fn blk(a: u64) -> BlockAddr {
        Addr(a).block(BLOCK)
    }

    /// Drive the same pseudo-random transaction mix through a [`Directory`]
    /// and a [`DirTable`]; entries and statistics must agree exactly —
    /// they share the rule functions, so any divergence is a plumbing bug
    /// in the slab layer.
    #[test]
    fn table_matches_directory_on_random_traffic() {
        for kind in ProtocolKind::ALL {
            let cfg = ProtocolConfig::new(kind);
            let mut map = Directory::new(cfg);
            let mut tab = DirTable::new(cfg, BLOCK, 4);
            let home = NodeId(0);
            let mut rng = Xoshiro256pp::seed_from_u64(0xD1D1 + kind as u64);
            let blocks: Vec<BlockAddr> = (0..16).map(|i| blk(i * BLOCK)).collect();
            for _ in 0..4000 {
                let b = blocks[(rng.next_u64() % 16) as usize];
                let p = NodeId((rng.next_u64() % 4) as u16);
                // Contract of the rules layer: a node owning a block never
                // issues a global action for it (its cache hits locally).
                let owns = matches!(
                    map.entry(b).map(|e| e.state),
                    Some(crate::entry::HomeState::Owned(q)) if q == p
                );
                match if owns { 2 } else { rng.next_u64() % 4 } {
                    0 => {
                        let a = map.read(b, p);
                        let t = tab.read(home, b, p);
                        assert_eq!(a, t);
                        if let ReadStep::Forward { .. } = a {
                            let wrote = rng.next_u64().is_multiple_of(2);
                            let r1 = map.read_forward_result(b, p, wrote, true);
                            let r2 = tab.read_forward_result(home, b, p, wrote, true);
                            assert_eq!(r1, r2);
                        }
                    }
                    1 => {
                        let a = map.write(b, p);
                        let t = tab.write(home, b, p);
                        assert_eq!(a, t);
                        if let WriteStep::Forward { .. } = a {
                            let dirty = rng.next_u64().is_multiple_of(2);
                            let r1 = map.write_forward_result(b, p, dirty);
                            let r2 = tab.write_forward_result(home, b, p, dirty);
                            assert_eq!(r1, r2);
                        }
                    }
                    _ => {
                        map.replacement(b, p);
                        tab.replacement(home, b, p);
                    }
                }
                assert_eq!(map.entry(b).copied(), tab.entry(b).copied());
                assert_eq!(map.fig1(b), tab.fig1(b));
            }
            assert_eq!(*map.stats(), tab.merged_stats(), "{kind:?} stats diverge");
            map.check_invariants().expect("map invariants");
            tab.check_invariants().expect("table invariants");
        }
    }

    #[test]
    fn stats_split_by_home() {
        let cfg = ProtocolConfig::new(ProtocolKind::Baseline);
        let mut tab = DirTable::new(cfg, BLOCK, 2);
        // Two blocks, attributed to different homes by the caller.
        let (h0, h1) = (NodeId(0), NodeId(1));
        assert!(matches!(
            tab.read(h0, blk(0), NodeId(1)),
            ReadStep::Memory {
                grant: GrantKind::Shared,
                ..
            }
        ));
        tab.read(h1, blk(BLOCK), NodeId(0));
        tab.read(h1, blk(BLOCK), NodeId(1));
        assert_eq!(tab.stats(h0).global_reads, 1);
        assert_eq!(tab.stats(h1).global_reads, 2);
        assert_eq!(tab.merged_stats().global_reads, 3);
    }

    #[test]
    fn replacement_on_untouched_block_is_a_noop() {
        let cfg = ProtocolConfig::new(ProtocolKind::Ls);
        let mut tab = DirTable::new(cfg, BLOCK, 1);
        tab.replacement(NodeId(0), blk(64), NodeId(0));
        assert!(tab.entry(blk(64)).is_none());
        assert_eq!(tab.merged_stats(), DirStats::default());
    }
}
