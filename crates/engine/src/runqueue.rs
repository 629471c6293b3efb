//! The scheduler's run queue: a tournament tree over the processors'
//! scheduling keys.
//!
//! The window rule (see [`crate::run`]) admits the lowest-numbered active
//! processor whose clock lies in the scheduling window of the minimum
//! active clock, `[min / q * q, min / q * q + q)` for quantum `q`. Every
//! active clock is at least `min`, so a clock lies in that window exactly
//! when `clock / q == min / q`. The rule therefore picks the minimum of the
//! key `(clock / q, id)` over the active processors: the smallest window
//! number, ties to the lowest id.
//!
//! [`RunQueue`] keeps one leaf per processor holding its window number
//! (`u64::MAX` for a retired processor or a padding leaf) and, in every
//! inner node, the leaf that wins its subtree. Ids grow left to right, so
//! a tie goes to the left child and the root holds the minimum key. A
//! pick reads the root in O(1); a changed clock or a retirement replays
//! the matches on one leaf-to-root path, O(log n).

/// Key of a processor that cannot run: retired, never spawned, or padding.
const IDLE: u64 = u64::MAX;

/// Tournament tree over `(clock / quantum, id)` keys.
pub(crate) struct RunQueue {
    /// Window number of each leaf; `IDLE` when the leaf cannot run. The
    /// length is the leaf count, a power of two.
    keys: Vec<u64>,
    /// Heap-ordered tree of match winners: node `k` has children `2k` and
    /// `2k + 1`, leaf `i` sits at `keys.len() + i`, and `win[1]` is the
    /// overall winner. `win[0]` is unused.
    win: Vec<u32>,
    /// The scheduling window width, at least 1.
    quantum: u64,
    /// `log2(quantum)` when the quantum is a power of two, so a window
    /// number is a shift rather than a division on every turn. Every paper
    /// configuration has quantum 1.
    shift: Option<u32>,
}

impl RunQueue {
    /// A queue for `slots` processors with windows `quantum` cycles wide,
    /// the first `active` of them runnable at clock 0 and the rest idle.
    pub(crate) fn new(slots: usize, active: usize, quantum: u64) -> Self {
        assert!(quantum > 0, "the scheduling quantum is at least 1");
        let leaves = slots.max(1).next_power_of_two();
        let keys: Vec<u64> = (0..leaves)
            .map(|i| if i < active { 0 } else { IDLE })
            .collect();
        let mut win = vec![0u32; 2 * leaves];
        for (i, w) in win[leaves..].iter_mut().enumerate() {
            *w = i as u32;
        }
        let mut q = RunQueue {
            keys,
            win,
            quantum,
            shift: quantum.is_power_of_two().then(|| quantum.trailing_zeros()),
        };
        for k in (1..leaves).rev() {
            q.replay(k);
        }
        q
    }

    /// The processor the window rule admits next, or `None` when every
    /// processor has retired.
    // ccsim-lint: allow(panic-path): the tree has 2 * leaves nodes, leaves >= 1, and every winner and processor id is below leaves
    #[inline]
    pub(crate) fn first(&self) -> Option<usize> {
        let w = self.win[1] as usize;
        (self.keys[w] != IDLE).then_some(w)
    }

    /// Processor `p` now runs in window `clock / quantum`.
    #[inline]
    pub(crate) fn update(&mut self, p: usize, clock: u64) {
        let window = match self.shift {
            Some(shift) => clock >> shift,
            None => clock / self.quantum,
        };
        self.set(p, window);
    }

    /// The window width the queue was built with.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn quantum(&self) -> u64 {
        self.quantum
    }

    /// Processor `p` retired; it is never picked again.
    pub(crate) fn retire(&mut self, p: usize) {
        self.set(p, IDLE);
    }

    // ccsim-lint: allow(panic-path): the tree has 2 * leaves nodes, leaves >= 1, and every winner and processor id is below leaves
    fn set(&mut self, p: usize, key: u64) {
        self.keys[p] = key;
        let mut k = (self.keys.len() + p) >> 1;
        while k > 0 {
            self.replay(k);
            k >>= 1;
        }
    }

    /// Recompute node `k`'s winner from its children's winners.
    // ccsim-lint: allow(panic-path): the tree has 2 * leaves nodes, leaves >= 1, and every winner and processor id is below leaves
    #[inline]
    fn replay(&mut self, k: usize) {
        let (l, r) = (self.win[2 * k], self.win[2 * k + 1]);
        self.win[k] = if self.keys[r as usize] < self.keys[l as usize] {
            r
        } else {
            l
        };
    }
}

/// The window rule as a direct O(n) scan over every processor's clock: the
/// reference the run queue is checked against, by a debug assertion on
/// every pick and by the randomized test below.
#[cfg(any(test, debug_assertions))]
pub(crate) fn window_scan(clocks: &[u64], active: &[bool], quantum: u64) -> Option<usize> {
    let min = clocks
        .iter()
        .zip(active)
        .filter(|(_, &a)| a)
        .map(|(&c, _)| c)
        .min()?;
    let window_end = (min / quantum) * quantum + quantum;
    (0..clocks.len()).find(|&q| active[q] && clocks[q] < window_end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim_util::check::cases;

    #[test]
    fn picks_lowest_id_in_the_earliest_window() {
        let mut q = RunQueue::new(3, 3, 4);
        assert_eq!(q.first(), Some(0));
        q.update(0, 10); // window 2
        q.update(1, 9); // window 2
        q.update(2, 7); // window 1
        assert_eq!(q.first(), Some(2));
        q.update(2, 8); // window 2: tie, lowest id wins
        assert_eq!(q.first(), Some(0));
        q.retire(0);
        assert_eq!(q.first(), Some(1));
        q.retire(1);
        q.retire(2);
        assert_eq!(q.first(), None);
    }

    #[test]
    fn idle_slots_and_padding_never_run() {
        let q = RunQueue::new(6, 0, 1);
        assert_eq!(q.first(), None);
        let mut q = RunQueue::new(6, 2, 1);
        assert_eq!(q.first(), Some(0));
        q.retire(0);
        assert_eq!(q.first(), Some(1));
        q.retire(1);
        assert_eq!(q.first(), None, "slots 2..6 and padding 6..8 are idle");
        assert_eq!(RunQueue::new(1, 1, 1).first(), Some(0));
    }

    /// Random clocks, active sets and quanta: after every update the run
    /// queue picks exactly what the window scan picks.
    #[test]
    fn run_queue_matches_the_window_scan() {
        cases(256, |g| {
            let n = g.urange(1, 40);
            let quantum = match g.below(3) {
                0 => *g.pick(&[1u64, 7, 64]),
                1 => g.range(1, 1000),
                _ => 1 << g.below(12),
            };
            let spawned = g.urange(0, n + 1);
            let mut clocks = vec![0u64; n];
            let mut active: Vec<bool> = (0..n).map(|p| p < spawned).collect();
            let mut q = RunQueue::new(n, spawned, quantum);
            assert_eq!(q.first(), window_scan(&clocks, &active, quantum));
            for _ in 0..200 {
                let p = g.urange(0, n);
                if !active[p] {
                    continue;
                }
                if g.chance(0.05) {
                    active[p] = false;
                    q.retire(p);
                } else {
                    // Clocks only move forward; small steps make window
                    // ties common, large ones skip whole windows.
                    clocks[p] += if g.bool() {
                        g.below(3 * quantum)
                    } else {
                        g.below(1 << 20)
                    };
                    q.update(p, clocks[p]);
                }
                assert_eq!(
                    q.first(),
                    window_scan(&clocks, &active, quantum),
                    "n={n} quantum={quantum} clocks={clocks:?} active={active:?}"
                );
            }
        });
    }
}
