//! The queue store: a shard's buffered packets and the FIFOs that order
//! them.

use super::super::packet::Packet;
use std::ops::Range;

const NIL: u32 = u32::MAX;

/// `head` and `tail` mean something only while `len > 0`.
#[derive(Clone, Copy, Default)]
struct Fifo {
    head: u32,
    tail: u32,
    len: u32,
}

/// The packet arena and intrusive FIFOs over its slots. A slot is in
/// exactly one list at a time — one queue, or the stack of vacant slots
/// — so a single `next` link per slot threads them all, and the store's
/// size follows what is buffered, not what the buffers could hold.
pub(super) struct QueueStore {
    packets: Vec<Packet>,
    /// Successor of each arena slot in the list that holds it.
    next: Vec<u32>,
    /// Most recently vacated slot.
    free: u32,
    fifos: Vec<Fifo>,
    /// Bit `qi` ⇔ queue `qi` is non-empty; one spare word so a range
    /// may start at `queues`.
    nonempty: Vec<u64>,
}

impl QueueStore {
    pub(super) fn new(queues: usize) -> Self {
        QueueStore {
            packets: Vec::new(),
            next: Vec::new(),
            free: NIL,
            fifos: vec![Fifo::default(); queues],
            nonempty: vec![0; queues / 64 + 1],
        }
    }

    #[inline]
    pub(super) fn len(&self, qi: usize) -> u32 {
        self.fifos[qi].len
    }

    /// The packet at the front of non-empty queue `qi`.
    #[inline]
    pub(super) fn front(&self, qi: usize) -> &Packet {
        debug_assert!(self.fifos[qi].len > 0);
        &self.packets[self.fifos[qi].head as usize]
    }

    /// Append `p` to queue `qi`, in the most recently vacated slot.
    #[inline]
    pub(super) fn push(&mut self, qi: usize, p: Packet) {
        let mut pid = self.free;
        if pid == NIL {
            pid = self.packets.len() as u32;
            self.packets.push(p);
            self.next.push(NIL);
        } else {
            self.free = self.next[pid as usize];
            self.packets[pid as usize] = p;
        }
        self.link(qi, pid);
    }

    /// Move the front packet of non-empty queue `qi` out of the store.
    #[inline]
    pub(super) fn pop(&mut self, qi: usize) -> Packet {
        let pid = self.unlink(qi);
        self.next[pid as usize] = self.free;
        self.free = pid;
        std::mem::replace(&mut self.packets[pid as usize], Packet::vacant())
    }

    /// Move the front packet of non-empty queue `from` to the back of
    /// queue `to`; the packet stays in its slot.
    #[inline]
    pub(super) fn shift(&mut self, from: usize, to: usize) {
        let pid = self.unlink(from);
        self.link(to, pid);
    }

    #[inline]
    fn link(&mut self, qi: usize, pid: u32) {
        let q = &mut self.fifos[qi];
        if q.len == 0 {
            q.head = pid;
            self.nonempty[qi / 64] |= 1 << (qi % 64);
        } else {
            self.next[q.tail as usize] = pid;
        }
        q.tail = pid;
        q.len += 1;
    }

    #[inline]
    fn unlink(&mut self, qi: usize) -> u32 {
        let q = &mut self.fifos[qi];
        debug_assert!(q.len > 0);
        let pid = q.head;
        q.head = self.next[pid as usize];
        q.len -= 1;
        if q.len == 0 {
            self.nonempty[qi / 64] &= !(1 << (qi % 64));
        }
        pid
    }

    /// The non-empty queues of `range`, in ascending index order.
    #[inline]
    pub(super) fn nonempty(&self, range: Range<usize>) -> impl Iterator<Item = usize> + '_ {
        let mut w = range.start / 64;
        let mut bits = self.nonempty[w] & (!0 << (range.start % 64));
        std::iter::from_fn(move || {
            while bits == 0 {
                w += 1;
                if w * 64 >= range.end {
                    return None;
                }
                bits = self.nonempty[w];
            }
            let qi = w * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            (qi < range.end).then_some(qi)
        })
    }

    /// Queue `qi`'s slots, front to back.
    fn slots(&self, qi: usize) -> impl Iterator<Item = u32> + '_ {
        let q = self.fifos[qi];
        let mut pid = q.head;
        (0..q.len).map(move |_| {
            let at = pid;
            pid = self.next[at as usize];
            at
        })
    }

    /// Queue `qi`'s packets, front to back.
    pub(super) fn iter(&self, qi: usize) -> impl Iterator<Item = &Packet> {
        self.slots(qi).map(|pid| &self.packets[pid as usize])
    }

    /// Structural invariants: a bitmap bit is set exactly for the
    /// non-empty queues; `len` links lead from `head` to `tail`; and
    /// every arena slot is in exactly one queue or vacant. Panics on
    /// violation.
    pub(super) fn check(&self) {
        let mut seen = vec![false; self.packets.len()];
        let mut claim = |pid: u32| {
            let was = std::mem::replace(&mut seen[pid as usize], true);
            assert!(!was, "arena slot {pid} is in two lists");
        };
        let mut pid = self.free;
        while pid != NIL {
            claim(pid);
            pid = self.next[pid as usize];
        }
        for (qi, q) in self.fifos.iter().enumerate() {
            let bit = self.nonempty[qi / 64] >> (qi % 64) & 1;
            assert_eq!(bit == 1, q.len > 0, "bitmap bit of queue {qi}");
            let last = self.slots(qi).inspect(|&pid| claim(pid)).last();
            assert!(q.len == 0 || last == Some(q.tail), "queue {qi} tail");
        }
        assert!(seen.iter().all(|&s| s), "arena slot in no list");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    fn tagged(tag: u64) -> Packet {
        Packet {
            gen_cycle: tag,
            ..Packet::vacant()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The store against `Vec<VecDeque<u64>>` of packet tags under
        /// random push / pop / front / shift / drain-and-re-push (the
        /// epoch switch: every packet popped once, an arbitrary subset
        /// dropped, the rest re-pushed behind the drained prefix).
        /// Vacated slots are reused at once, so a stale link surviving
        /// in one would show as a neighbour's order or length changing.
        #[test]
        fn store_matches_a_vecdeque_model(
            queues in 1usize..150,
            ops in collection::vec((0u8..10, 0usize..150, 0u64..u64::MAX), 1..400),
        ) {
            let mut store = QueueStore::new(queues);
            let mut model: Vec<VecDeque<u64>> = vec![VecDeque::new(); queues];
            let mut tag = 0u64;
            for (op, qi, bits) in ops {
                let qi = qi % queues;
                match op {
                    0..=3 => {
                        tag += 1;
                        store.push(qi, tagged(tag));
                        model[qi].push_back(tag);
                    }
                    4 | 5 => {
                        if let Some(want) = model[qi].pop_front() {
                            prop_assert_eq!(store.front(qi).gen_cycle, want);
                            prop_assert_eq!(store.pop(qi).gen_cycle, want);
                        }
                    }
                    6 | 7 => {
                        let to = bits as usize % queues;
                        if let Some(moved) = model[qi].pop_front() {
                            store.shift(qi, to);
                            model[to].push_back(moved);
                        }
                    }
                    _ => {
                        for k in 0..store.len(qi) {
                            let p = store.pop(qi);
                            prop_assert_eq!(Some(p.gen_cycle), model[qi].pop_front());
                            if bits >> (k % 64) & 1 == 1 {
                                model[qi].push_back(p.gen_cycle);
                                store.push(qi, p);
                            }
                        }
                    }
                }
                store.check();
                for (qi, m) in model.iter().enumerate() {
                    prop_assert_eq!(store.len(qi) as usize, m.len());
                    let tags = store.iter(qi).map(|p| p.gen_cycle);
                    prop_assert!(tags.eq(m.iter().copied()), "queue {}", qi);
                }
                let lo = bits as usize % (queues + 1);
                for range in [0..queues, lo..queues, 0..lo, lo..(lo + 70).min(queues)] {
                    let want = range.clone().filter(|&qi| !model[qi].is_empty());
                    prop_assert!(store.nonempty(range.clone()).eq(want), "{:?}", range);
                }
            }
        }
    }
}
