//! Per-layer timings: calls into each crate's public functions, made from
//! the benchmark's own code.
//!
//! Trace-driven layers take one run's captured access stream and time the
//! layers an access passes through, one layer at a time:
//!
//! 1. a walk drives per-node `Hierarchy` caches and one `DirTable` with the
//!    stream (loads miss into `read`, stores on non-exclusive copies into
//!    `write`, forwards, invalidations and evictions applied as the engine
//!    does) and logs every cache and directory call it made;
//! 2. the cache log is replayed on fresh caches (`cache.probe`), the
//!    directory log on a fresh table (`core.dir_op`), and every request
//!    through `Network::send_request`, fault-free (`network.send`) and under
//!    the chaos fault plan (`network.send_faulty`).
//!
//! Replaying logs keeps each timed loop free of the other layers' work.

use std::hint::black_box;

use ccsim_cache::{Hierarchy, LineState, Probe};
use ccsim_core::{DirTable, GrantKind, OwnerAction, ReadStep, WriteStep};
use ccsim_engine::{Trace, TraceOp};
use ccsim_mem::pages::home_of_block;
use ccsim_network::Network;
use ccsim_serve::{ArrivalGen, ServeConfig, Zipf};
use ccsim_types::{BlockAddr, MachineConfig, MsgKind, NodeId};
use ccsim_util::Xoshiro256pp;

use crate::span::Tracer;

#[derive(Clone, Copy, Debug)]
enum CacheOp {
    Probe(BlockAddr),
    Fill(BlockAddr, LineState),
    SetState(BlockAddr, LineState),
    Invalidate(BlockAddr),
}

#[derive(Clone, Copy, Debug)]
enum DirOp {
    Read {
        home: NodeId,
        block: BlockAddr,
        p: NodeId,
    },
    ReadForward {
        home: NodeId,
        block: BlockAddr,
        p: NodeId,
        wrote: bool,
        dirty: bool,
    },
    Write {
        home: NodeId,
        block: BlockAddr,
        p: NodeId,
    },
    WriteForward {
        home: NodeId,
        block: BlockAddr,
        p: NodeId,
        modified: bool,
    },
    Replacement {
        home: NodeId,
        block: BlockAddr,
        node: NodeId,
    },
}

/// Cache hit counts of one walk.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HitCounts {
    pub probes: u64,
    pub l1: u64,
    pub l2: u64,
}

struct Walk {
    cfg: MachineConfig,
    caches: Vec<Hierarchy>,
    dir: DirTable,
    cache_log: Vec<(u16, CacheOp)>,
    dir_log: Vec<DirOp>,
    requests: Vec<(NodeId, NodeId, MsgKind)>,
    hits: HitCounts,
}

impl Walk {
    fn new(cfg: MachineConfig) -> Walk {
        Walk {
            cfg,
            caches: (0..cfg.nodes).map(|_| Hierarchy::new(&cfg)).collect(),
            dir: DirTable::new(cfg.protocol, cfg.block_bytes(), cfg.nodes),
            cache_log: Vec::new(),
            dir_log: Vec::new(),
            requests: Vec::new(),
            hits: HitCounts::default(),
        }
    }

    fn home(&self, block: BlockAddr) -> NodeId {
        home_of_block(block, self.cfg.page_bytes, self.cfg.nodes)
    }

    fn cache(&mut self, node: NodeId, op: CacheOp) -> Option<LineState> {
        self.cache_log.push((node.0, op));
        let c = &mut self.caches[node.0 as usize];
        match op {
            CacheOp::Probe(b) => c.probe(b).state(),
            CacheOp::Fill(b, s) => {
                if let Some(ev) = c.fill(b, s) {
                    let home = self.home(ev.block);
                    self.dir_log.push(DirOp::Replacement {
                        home,
                        block: ev.block,
                        node,
                    });
                    self.dir.replacement(home, ev.block, node);
                }
                None
            }
            CacheOp::SetState(b, s) => {
                c.set_state(b, s);
                None
            }
            CacheOp::Invalidate(b) => c.invalidate(b),
        }
    }

    fn access(&mut self, p: NodeId, block: BlockAddr, store: bool) {
        self.cache_log.push((p.0, CacheOp::Probe(block)));
        let probe = self.caches[p.0 as usize].probe(block);
        self.hits.probes += 1;
        match probe {
            Probe::L1(_) => self.hits.l1 += 1,
            Probe::L2(_) => self.hits.l2 += 1,
            Probe::Miss => {}
        }
        let held = probe.state();
        let home = self.home(block);
        if !store {
            if held.is_none() {
                self.read_miss(home, block, p);
            }
            return;
        }
        if held.is_some_and(LineState::is_exclusive) {
            self.cache(p, CacheOp::SetState(block, LineState::Modified));
            return;
        }
        let kind = if held.is_some() {
            MsgKind::UpgradeReq
        } else {
            MsgKind::WriteMissReq
        };
        self.requests.push((p, home, kind));
        self.dir_log.push(DirOp::Write { home, block, p });
        match self.dir.write(home, block, p) {
            WriteStep::Memory { invalidate, .. } => {
                for n in invalidate {
                    self.cache(n, CacheOp::Invalidate(block));
                }
            }
            WriteStep::Forward { owner } => {
                let was = self.cache(owner, CacheOp::Invalidate(block));
                let modified = was.is_some_and(LineState::is_dirty);
                self.dir_log.push(DirOp::WriteForward {
                    home,
                    block,
                    p,
                    modified,
                });
                self.dir.write_forward_result(home, block, p, modified);
            }
        }
        let op = if held.is_some() {
            CacheOp::SetState(block, LineState::Modified)
        } else {
            CacheOp::Fill(block, LineState::Modified)
        };
        self.cache(p, op);
    }

    fn read_miss(&mut self, home: NodeId, block: BlockAddr, p: NodeId) {
        self.requests.push((p, home, MsgKind::ReadReq));
        self.dir_log.push(DirOp::Read { home, block, p });
        let (grant, dirty) = match self.dir.read(home, block, p) {
            ReadStep::Memory { grant, .. } => (grant, false),
            ReadStep::Forward { owner } => {
                let held = self.caches[owner.0 as usize].state(block);
                let wrote = held == Some(LineState::Modified);
                let dirty = held.is_some_and(LineState::is_dirty);
                self.dir_log.push(DirOp::ReadForward {
                    home,
                    block,
                    p,
                    wrote,
                    dirty,
                });
                let res = self.dir.read_forward_result(home, block, p, wrote, dirty);
                let op = match res.owner_action {
                    OwnerAction::Downgrade => CacheOp::SetState(block, LineState::Shared),
                    OwnerAction::Invalidate => CacheOp::Invalidate(block),
                };
                self.cache(owner, op);
                (res.grant, res.requester_dirty)
            }
        };
        let state = match grant {
            GrantKind::Shared => LineState::Shared,
            GrantKind::Exclusive if dirty => LineState::ExclDirty,
            GrantKind::Exclusive => LineState::Excl,
            GrantKind::TearOff => return,
        };
        self.cache(p, CacheOp::Fill(block, state));
    }
}

/// Loads, stores and load-exclusives in a trace (not its `Busy` and
/// `SetComponent` bookkeeping).
pub fn trace_accesses(trace: &Trace) -> u64 {
    trace
        .events()
        .iter()
        .filter(|e| {
            matches!(
                e.op,
                TraceOp::Load(_) | TraceOp::Store(..) | TraceOp::LoadExclusive(_)
            )
        })
        .count() as u64
}

/// Time the cache, directory and network layers over one captured access
/// stream, recording `cache.probe`, `core.dir_op`, `network.send` and
/// `network.send_faulty` spans. `faults` is the chaos plan for the faulty
/// sends.
pub fn trace_layers(
    t: &Tracer,
    cfg: MachineConfig,
    trace: &Trace,
    faults: ccsim_types::FaultConfig,
) -> HitCounts {
    let mut walk = Walk::new(cfg);
    for e in trace.events() {
        let (addr, store) = match e.op {
            TraceOp::Load(a) => (a, false),
            TraceOp::Store(a, _) | TraceOp::LoadExclusive(a) => (a, true),
            TraceOp::Busy(_) | TraceOp::SetComponent(_) => continue,
        };
        walk.access(NodeId(e.proc), addr.block(cfg.block_bytes()), store);
    }
    let Walk {
        cache_log,
        dir_log,
        requests,
        hits,
        ..
    } = walk;

    t.span_items(t.current(), "cache", "cache.probe", || {
        let mut caches: Vec<Hierarchy> = (0..cfg.nodes).map(|_| Hierarchy::new(&cfg)).collect();
        for &(n, op) in &cache_log {
            let c = &mut caches[n as usize];
            match op {
                CacheOp::Probe(b) => {
                    black_box(c.probe(b));
                }
                CacheOp::Fill(b, s) => {
                    black_box(c.fill(b, s));
                }
                CacheOp::SetState(b, s) => {
                    black_box(c.set_state(b, s));
                }
                CacheOp::Invalidate(b) => {
                    black_box(c.invalidate(b));
                }
            }
        }
        ((), cache_log.len() as u64)
    });

    t.span_items(t.current(), "core", "core.dir_op", || {
        let mut dir = DirTable::new(cfg.protocol, cfg.block_bytes(), cfg.nodes);
        for &op in &dir_log {
            match op {
                DirOp::Read { home, block, p } => {
                    black_box(dir.read(home, block, p));
                }
                DirOp::ReadForward {
                    home,
                    block,
                    p,
                    wrote,
                    dirty,
                } => {
                    black_box(dir.read_forward_result(home, block, p, wrote, dirty));
                }
                DirOp::Write { home, block, p } => {
                    black_box(dir.write(home, block, p));
                }
                DirOp::WriteForward {
                    home,
                    block,
                    p,
                    modified,
                } => {
                    black_box(dir.write_forward_result(home, block, p, modified));
                }
                DirOp::Replacement { home, block, node } => dir.replacement(home, block, node),
            }
        }
        ((), dir_log.len() as u64)
    });

    let send_all = |net: &mut Network| {
        let mut now = 0u64;
        for &(from, to, kind) in &requests {
            black_box(net.send_request(now, from, to, kind));
            now += 50;
        }
        ((), requests.len() as u64)
    };
    let network = || Network::new(cfg.nodes, cfg.latency, cfg.block_bytes());
    t.span_items(t.current(), "network", "network.send", || {
        send_all(&mut network())
    });
    t.span_items(t.current(), "network", "network.send_faulty", || {
        let mut net = network();
        net.install_faults(faults);
        send_all(&mut net)
    });
    hits
}

/// Time `Zipf::sample` and `ArrivalGen::take` standalone on the serve
/// configuration (`serve.zipf`, `serve.arrival`).
pub fn serve_generators(t: &Tracer, cfg: &ServeConfig) {
    const SAMPLES: u64 = 200_000;
    t.span_items(t.current(), "serve", "serve.zipf", || {
        let zipf = Zipf::new(cfg.clients, cfg.skew_per_mille);
        let mut rng = Xoshiro256pp::seed_from_u64(cfg.seed);
        for _ in 0..SAMPLES {
            black_box(zipf.sample(&mut rng));
        }
        ((), SAMPLES)
    });
    t.span_items(t.current(), "serve", "serve.arrival", || {
        let mut gen = ArrivalGen::new(cfg, 0, 4);
        for _ in 0..SAMPLES {
            black_box(gen.take());
        }
        ((), SAMPLES)
    });
}
