//! Collectives built from point-to-point messages: binomial broadcast and
//! reduce, butterfly all-reduce (the communication pattern of TSLU), and a flat
//! gather.
//!
//! A [`Group`] names a subset of ranks (a grid row, a grid column, or the
//! world), the link class its traffic uses, and a tag namespace. Every rank
//! of the group constructs an identical `Group` value, and collective calls
//! must be made in the same order by all members (MPI semantics).
//!
//! The reduction `op` always combines `(low, high)` — the accumulator for
//! the lower-indexed side first — so that the combination *tree* is
//! deterministic: the butterfly all-reduce produces exactly the pairwise
//! halving tree over member indices, which is what the paper's TSLU
//! tournament prescribes and what `calu-core`'s sequential tournament
//! mirrors.

use crate::comm::{Payload, SimComm};
use crate::machine::Link;
use std::cell::Cell;

/// A communicator subset with its own tag namespace and link class.
#[derive(Debug)]
pub struct Group {
    /// Global ranks of the members, in index order.
    ranks: Vec<usize>,
    /// My index within `ranks`.
    me: usize,
    /// Link class used for this group's traffic.
    link: Link,
    base_tag: u64,
    seq: Cell<u64>,
}

impl Group {
    /// Creates a group descriptor. `my_rank` must appear in `ranks`;
    /// `base_tag` must be non-zero and unique per distinct group within one
    /// simulation (tag namespaces must not collide).
    ///
    /// # Panics
    /// If `my_rank` is not a member or `base_tag == 0`.
    pub fn new(ranks: Vec<usize>, my_rank: usize, link: Link, base_tag: u64) -> Self {
        assert!(base_tag != 0, "base_tag 0 is reserved for point-to-point traffic");
        let me = ranks
            .iter()
            .position(|&r| r == my_rank)
            .unwrap_or_else(|| panic!("rank {my_rank} not in group {ranks:?}"));
        Self { ranks, me, link, base_tag, seq: Cell::new(0) }
    }

    /// Number of members.
    pub(crate) fn size(&self) -> usize {
        self.ranks.len()
    }

    /// My index within the group.
    pub fn my_index(&self) -> usize {
        self.me
    }

    fn next_op_tag(&self) -> u64 {
        let s = self.seq.get();
        self.seq.set(s + 1);
        (self.base_tag << 32) | (s << 8)
    }

    /// Binomial-tree broadcast from member index `root`. Every member calls
    /// this; the root passes the payload, others pass `Payload::Empty` and
    /// receive the data. Returns the broadcast payload on every member.
    ///
    /// Critical-path cost: `ceil(log2 p)` message steps of `words` each.
    pub fn bcast(&self, cm: &mut SimComm, root: usize, payload: Payload, words: usize) -> Payload {
        let p = self.size();
        let tag = self.next_op_tag();
        if p == 1 {
            return payload;
        }
        let rel = (self.me + p - root) % p;
        let mut have = if rel == 0 { payload } else { Payload::Empty };

        // Receive phase: my parent is rel minus my lowest set bit.
        let mut mask = 1usize;
        if rel != 0 {
            while mask < p {
                if rel & mask != 0 {
                    let src_rel = rel - mask;
                    let src = self.ranks[(src_rel + root) % p];
                    let (pl, _w) = cm.recv(src, tag);
                    have = pl;
                    break;
                }
                mask <<= 1;
            }
        } else {
            while mask < p {
                mask <<= 1;
            }
        }
        // Forward phase: halve the mask and send to rel + mask.
        mask >>= 1;
        while mask >= 1 {
            if rel & (mask - 1) == rel % mask && rel & mask == 0 && rel + mask < p {
                let dst = self.ranks[(rel + mask + root) % p];
                cm.send(dst, tag, words, have.clone(), self.link);
            }
            if mask == 1 {
                break;
            }
            mask >>= 1;
        }
        have
    }

    /// Binomial-tree reduce to member index 0. `op(cm, low, high)` combines
    /// the accumulator of the lower-indexed subtree with the higher-indexed
    /// one (and may charge compute time on `cm`). Returns `Some(result)` at
    /// index 0, `None` elsewhere.
    ///
    /// Critical-path cost: `ceil(log2 p)` message steps of `words` each.
    pub fn reduce<F>(
        &self,
        cm: &mut SimComm,
        mine: Payload,
        words: usize,
        mut op: F,
    ) -> Option<Payload>
    where
        F: FnMut(&mut SimComm, Payload, Payload) -> Payload,
    {
        let p = self.size();
        let tag = self.next_op_tag();
        let r = self.me;
        let mut acc = mine;
        let mut mask = 1usize;
        while mask < p {
            if r & mask == 0 {
                let peer = r | mask;
                if peer < p {
                    let (theirs, _w) = cm.recv(self.ranks[peer], tag);
                    acc = op(cm, acc, theirs);
                }
            } else {
                let peer = r & !mask;
                cm.send(self.ranks[peer], tag, words, acc, self.link);
                return None;
            }
            mask <<= 1;
        }
        Some(acc)
    }

    /// Butterfly all-reduce — the communication pattern of TSLU (paper
    /// Section 3). Every member ends with the same combined value.
    ///
    /// For non-power-of-two groups the extra members fold their value into
    /// a partner first and receive the final result afterwards (a standard
    /// pre/post step; the paper assumes powers of two).
    ///
    /// Critical-path cost: `floor(log2 p)` exchange steps of `words` each
    /// (+2 steps when `p` is not a power of two), with the combining `op`
    /// executed redundantly by both partners, exactly as TSLU prescribes.
    pub fn allreduce<F>(&self, cm: &mut SimComm, mine: Payload, words: usize, mut op: F) -> Payload
    where
        F: FnMut(&mut SimComm, Payload, Payload) -> Payload,
    {
        let p = self.size();
        let tag = self.next_op_tag();
        if p == 1 {
            return mine;
        }
        let p2 = prev_pow2(p);
        let extra = p - p2;
        let r = self.me;

        let mut acc = mine;
        // Fold-in: high ranks donate to their low partner.
        if r >= p2 {
            cm.send(self.ranks[r - p2], tag | 1, words, acc, self.link);
            let (result, _w) = cm.recv(self.ranks[r - p2], tag | 2);
            return result;
        }
        if r < extra {
            let (theirs, _w) = cm.recv(self.ranks[r + p2], tag | 1);
            acc = op(cm, acc, theirs);
        }

        // Butterfly over the power-of-two core.
        let mut level = 0u64;
        let mut mask = 1usize;
        while mask < p2 {
            let partner = r ^ mask;
            let (theirs, _w) =
                cm.sendrecv(self.ranks[partner], tag | (8 + level), words, acc.clone(), self.link);
            acc = if r < partner { op(cm, acc, theirs) } else { op(cm, theirs, acc) };
            mask <<= 1;
            level += 1;
        }

        // Fold-out.
        if r < extra {
            cm.send(self.ranks[r + p2], tag | 2, words, acc.clone(), self.link);
        }
        acc
    }

    /// Flat gather to member index `root`: every other member sends its
    /// payload straight to the root. Returns `Some(items)` at the root
    /// (indexed by member), `None` elsewhere.
    ///
    /// Under the postal model, senders serialize their own injections but
    /// the root only waits for the latest arrival; a flat gather's `O(p)`
    /// pain therefore shows up in whatever serial *combine* the root does
    /// next (as in the flat-tournament strawman), not in the wire time.
    pub fn gather(
        &self,
        cm: &mut SimComm,
        root: usize,
        mine: Payload,
        words: usize,
    ) -> Option<Vec<Payload>> {
        let p = self.size();
        let tag = self.next_op_tag();
        if self.me == root {
            let mut items: Vec<Payload> = Vec::with_capacity(p);
            for idx in 0..p {
                if idx == root {
                    items.push(mine.clone());
                } else {
                    let (pl, _w) = cm.recv(self.ranks[idx], tag);
                    items.push(pl);
                }
            }
            Some(items)
        } else {
            cm.send(self.ranks[root], tag, words, mine, self.link);
            None
        }
    }
}

/// Largest power of two `<= n` (`n >= 1`).
pub fn prev_pow2(n: usize) -> usize {
    assert!(n >= 1);
    1 << (usize::BITS - 1 - n.leading_zeros())
}

/// `ceil(log2 n)` (`n >= 1`) — the number of tree levels a collective over
/// `n` ranks traverses, i.e. the paper's `log2 P` message count per step.
pub fn ceil_log2(n: usize) -> usize {
    assert!(n >= 1);
    (usize::BITS - (n - 1).leading_zeros()) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;
    use crate::runner::run_sim;

    fn world(cm: &SimComm) -> Group {
        Group::new((0..cm.size()).collect(), cm.rank(), Link::Col, 3_000_000)
    }

    fn scalar(v: f64) -> Payload {
        Payload::Data(vec![v])
    }

    #[test]
    fn bcast_reaches_all_ranks_any_root() {
        for p in [1usize, 2, 3, 4, 5, 7, 8, 16] {
            for root in [0, p / 2, p - 1] {
                let (_r, results) = run_sim(p, MachineConfig::ideal(), |cm| {
                    let g = world(cm);
                    let mine = if g.my_index() == root { scalar(42.0) } else { Payload::Empty };
                    g.bcast(cm, root, mine, 1).into_data()[0]
                });
                assert!(results.iter().all(|&v| v == 42.0), "p={p} root={root}: {results:?}");
            }
        }
    }

    #[test]
    fn reduce_sums_to_root() {
        for p in [1usize, 2, 3, 5, 8, 13] {
            let (_r, results) = run_sim(p, MachineConfig::ideal(), |cm| {
                let g = world(cm);
                let r = g.reduce(cm, scalar(cm.rank() as f64), 1, |_cm, a, b| {
                    scalar(a.into_data()[0] + b.into_data()[0])
                });
                r.map(|p| p.into_data()[0])
            });
            let expect = (p * (p - 1) / 2) as f64;
            assert_eq!(results[0], Some(expect), "p={p}");
            assert!(results[1..].iter().all(Option::is_none));
        }
    }

    #[test]
    fn allreduce_every_rank_gets_total() {
        for p in [1usize, 2, 3, 4, 6, 8, 12, 16] {
            let (_r, results) = run_sim(p, MachineConfig::ideal(), |cm| {
                let g = world(cm);
                g.allreduce(cm, scalar((cm.rank() + 1) as f64), 1, |_cm, a, b| {
                    scalar(a.into_data()[0] + b.into_data()[0])
                })
                .into_data()[0]
            });
            let expect = (p * (p + 1) / 2) as f64;
            assert!(results.iter().all(|&v| v == expect), "p={p}: {results:?}");
        }
    }

    #[test]
    fn allreduce_combination_tree_is_index_ordered() {
        // With a non-commutative op (string-like concatenation encoded as
        // digit sequences) the result must equal the pairwise-halving tree.
        // op(low, high) concatenates, so any ordering bug changes digits.
        let p = 8;
        let (_r, results) = run_sim(p, MachineConfig::ideal(), |cm| {
            let g = world(cm);
            let out = g.allreduce(cm, Payload::Data(vec![cm.rank() as f64]), 1, |_cm, a, b| {
                let mut v = a.into_data();
                v.extend(b.into_data());
                Payload::Data(v)
            });
            out.into_data()
        });
        for r in &results {
            assert_eq!(r, &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        }
    }

    #[test]
    fn butterfly_costs_log_p_steps() {
        let m = MachineConfig::power5();
        let alpha = m.alpha_col;
        let beta = m.beta_col;
        let words = 64usize;
        let (report, _) = run_sim(8, m, |cm| {
            let g = world(cm);
            g.allreduce(cm, Payload::Empty, 64, |_cm, a, _b| a);
        });
        // Each of the 3 butterfly levels is one synchronized exchange step:
        // both partners send (charging α+wβ) and the partner's message
        // arrives at the same instant, so the level costs one message time
        // — the paper's "log2 P identical steps" approximation.
        let per_msg = alpha + words as f64 * beta;
        let expect = 3.0 * per_msg;
        let got = report.makespan();
        assert!(
            (got - expect).abs() < per_msg * 0.51,
            "makespan {got} not within one step of {expect}"
        );
    }

    #[test]
    fn prev_pow2_values() {
        assert_eq!(prev_pow2(1), 1);
        assert_eq!(prev_pow2(2), 2);
        assert_eq!(prev_pow2(3), 2);
        assert_eq!(prev_pow2(8), 8);
        assert_eq!(prev_pow2(9), 8);
        assert_eq!(prev_pow2(1023), 512);
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(64), 6);
        assert_eq!(ceil_log2(65), 7);
    }

    #[test]
    fn gather_collects_in_member_order() {
        for p in [1usize, 2, 3, 5, 8] {
            for root in [0, p - 1] {
                let (_r, results) = run_sim(p, MachineConfig::ideal(), |cm| {
                    let g = world(cm);
                    let items = g.gather(cm, root, scalar(cm.rank() as f64 + 1.0), 1);
                    items.map(|v| v.into_iter().map(|pl| pl.into_data()[0]).collect::<Vec<_>>())
                });
                for (rank, res) in results.into_iter().enumerate() {
                    if rank == root {
                        let want: Vec<f64> = (0..p).map(|i| i as f64 + 1.0).collect();
                        assert_eq!(res, Some(want), "p={p} root={root}");
                    } else {
                        assert_eq!(res, None);
                    }
                }
            }
        }
    }
}
