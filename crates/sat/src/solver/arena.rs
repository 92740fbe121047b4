//! Flat storage for the long clauses (three or more literals).
//!
//! Every long clause lives in one `Vec<Lit>`: a [`HEADER`]-word header
//! followed by its literals. A clause is named by the offset of its header
//! (a [`CRef`]), so a watch or a reason reaches the literals with one load
//! from one allocation instead of a pointer chase into a per-clause `Vec`.
//!
//! Header words, stored as raw literal codes:
//!
//! | word | contents                                              |
//! |------|-------------------------------------------------------|
//! | 0    | length (bits 0–29), learnt (bit 30), deleted (bit 31) |
//! | 1    | capacity: literal slots reserved (≥ length)           |
//! | 2    | LBD                                                   |
//! | 3    | activity (`f32` bits)                                 |
//!
//! The capacity word lets a walk step from header to header after a clause
//! shrank in place. Offset 0 holds a permanently deleted, empty stub: a
//! reference to a clause that compaction dropped is redirected there, so
//! stale watches keep their list position and are removed lazily by
//! propagation exactly as if the clause were still in place.
//!
//! Clauses are allocated at the end and compaction keeps their relative
//! order, so walking the arena visits clauses in creation order — the order
//! `reduce_db`'s stable sort and vivification's rotation depend on.

use crate::Lit;

/// A long clause's name: the offset of its header in the arena.
pub(super) type CRef = u32;

/// Words in a clause header.
const HEADER: usize = 4;
const LEARNT: u32 = 1 << 30;
const DELETED: u32 = 1 << 31;
const LEN_MASK: u32 = LEARNT - 1;

/// The deleted stub at offset 0 (see the module docs).
pub(super) const STUB: CRef = 0;

/// Share of the arena that deleted clauses and shrunk-away slots may hold
/// before [`ClauseArena::is_fragmented`] asks for a compaction.
const MAX_WASTE: f64 = 0.2;

#[derive(Debug)]
pub(super) struct ClauseArena {
    words: Vec<Lit>,
    /// Words held by deleted clauses and by literal slots freed by
    /// shrinking: what compaction would reclaim.
    wasted: usize,
}

#[inline]
fn raw(x: u32) -> Lit {
    Lit::from_code(x)
}

impl ClauseArena {
    pub(super) fn new() -> Self {
        Self {
            words: vec![raw(DELETED), raw(0), raw(0), raw(0)],
            wasted: 0,
        }
    }

    #[inline]
    fn head(&self, c: CRef) -> u32 {
        self.words[c as usize].code()
    }

    #[inline]
    fn cap(&self, c: CRef) -> usize {
        self.words[c as usize + 1].code() as usize
    }

    /// Appends a clause; returns its reference.
    pub(super) fn alloc(&mut self, lits: &[Lit], learnt: bool, lbd: u32, activity: f32) -> CRef {
        debug_assert!(lits.len() as u32 <= LEN_MASK);
        let c = self.words.len() as CRef;
        let flags = if learnt { LEARNT } else { 0 };
        self.words.extend_from_slice(&[
            raw(lits.len() as u32 | flags),
            raw(lits.len() as u32),
            raw(lbd),
            raw(activity.to_bits()),
        ]);
        self.words.extend_from_slice(lits);
        c
    }

    /// One past the last clause: every clause allocated from now on has a
    /// reference at least this large.
    pub(super) fn end(&self) -> CRef {
        self.words.len() as CRef
    }

    /// Whether compaction would reclaim more than [`MAX_WASTE`] of the
    /// arena.
    pub(super) fn is_fragmented(&self) -> bool {
        self.wasted as f64 > MAX_WASTE * self.words.len() as f64
    }

    /// Every clause, deleted ones included, in creation order.
    pub(super) fn refs(&self) -> impl Iterator<Item = CRef> + '_ {
        let mut c = HEADER;
        std::iter::from_fn(move || {
            if c >= self.words.len() {
                return None;
            }
            let this = c as CRef;
            c += HEADER + self.cap(this);
            Some(this)
        })
    }

    #[inline]
    pub(super) fn len(&self, c: CRef) -> usize {
        (self.head(c) & LEN_MASK) as usize
    }

    #[inline]
    pub(super) fn lits(&self, c: CRef) -> &[Lit] {
        let start = c as usize + HEADER;
        &self.words[start..start + self.len(c)]
    }

    /// Literal `k` of clause `c`.
    #[inline]
    pub(super) fn lit(&self, c: CRef, k: usize) -> Lit {
        self.words[c as usize + HEADER + k]
    }

    /// The literals of clause `c`, or `None` if it is deleted: one header
    /// load for propagation's two questions.
    #[inline]
    pub(super) fn live_lits_mut(&mut self, c: CRef) -> Option<&mut [Lit]> {
        let head = self.head(c);
        if head & DELETED != 0 {
            return None;
        }
        let start = c as usize + HEADER;
        Some(&mut self.words[start..start + (head & LEN_MASK) as usize])
    }

    #[inline]
    pub(super) fn is_deleted(&self, c: CRef) -> bool {
        self.head(c) & DELETED != 0
    }

    #[inline]
    pub(super) fn is_learnt(&self, c: CRef) -> bool {
        self.head(c) & LEARNT != 0
    }

    /// Turns a learnt clause into an irredundant one.
    pub(super) fn make_irredundant(&mut self, c: CRef) {
        self.words[c as usize] = raw(self.head(c) & !LEARNT);
    }

    /// Marks a clause deleted; its words stay until the next compaction.
    pub(super) fn delete(&mut self, c: CRef) {
        debug_assert!(!self.is_deleted(c));
        // Slots freed by an earlier `shrink` are already counted.
        self.wasted += HEADER + self.len(c);
        self.words[c as usize] = raw(self.head(c) | DELETED);
    }

    #[inline]
    pub(super) fn lbd(&self, c: CRef) -> u32 {
        self.words[c as usize + 2].code()
    }

    pub(super) fn set_lbd(&mut self, c: CRef, lbd: u32) {
        self.words[c as usize + 2] = raw(lbd);
    }

    #[inline]
    pub(super) fn activity(&self, c: CRef) -> f32 {
        f32::from_bits(self.words[c as usize + 3].code())
    }

    #[inline]
    pub(super) fn set_activity(&mut self, c: CRef, activity: f32) {
        self.words[c as usize + 3] = raw(activity.to_bits());
    }

    /// Multiplies every clause's activity by `factor`.
    pub(super) fn scale_activities(&mut self, factor: f32) {
        let mut c = HEADER;
        while c < self.words.len() {
            let r = c as CRef;
            self.set_activity(r, self.activity(r) * factor);
            c += HEADER + self.cap(r);
        }
    }

    /// Rewrites clause `c` in place to `lits`, which must be no longer than
    /// it; the freed slots stay reserved until the next compaction.
    pub(super) fn shrink(&mut self, c: CRef, lits: &[Lit]) {
        let old = self.len(c);
        debug_assert!(lits.len() <= old);
        let start = c as usize + HEADER;
        self.words[start..start + lits.len()].copy_from_slice(lits);
        self.words[c as usize] = raw((self.head(c) & !LEN_MASK) | lits.len() as u32);
        self.wasted += old - lits.len();
    }

    /// Moves the live clauses, in order, into fresh storage without slack
    /// and returns where each old reference went.
    pub(super) fn compact(&mut self) -> Relocation {
        let mut words = Vec::with_capacity(self.words.len() - self.wasted);
        words.extend_from_slice(&self.words[..HEADER]);
        let mut c = HEADER;
        while c < self.words.len() {
            let r = c as CRef;
            let next = c + HEADER + self.cap(r);
            if !self.is_deleted(r) {
                let len = self.len(r);
                let to = words.len() as u32;
                words.extend_from_slice(&[
                    self.words[c],
                    raw(len as u32),
                    self.words[c + 2],
                    self.words[c + 3],
                ]);
                words.extend_from_slice(&self.words[c + HEADER..c + HEADER + len]);
                // The old capacity word is spent: it now forwards.
                self.words[c + 1] = raw(to);
            }
            c = next;
        }
        let new_end = words.len() as CRef;
        self.wasted = 0;
        Relocation {
            old: std::mem::replace(&mut self.words, words),
            new_end,
        }
    }
}

/// Forwarding table of one compaction: the old arena, whose live headers
/// now hold their clause's new reference.
pub(super) struct Relocation {
    old: Vec<Lit>,
    new_end: CRef,
}

impl Relocation {
    /// Where clause `c` moved; `None` if it was deleted (or is the stub).
    #[inline]
    pub(super) fn get(&self, c: CRef) -> Option<CRef> {
        let c = c as usize;
        (self.old[c].code() & DELETED == 0).then(|| self.old[c + 1].code())
    }

    /// The new reference of the first live clause at or after old offset
    /// `boundary` (a clause start or the old end), or the new end.
    pub(super) fn boundary(&self, boundary: CRef) -> CRef {
        let mut c = boundary as usize;
        while c < self.old.len() {
            if let Some(to) = self.get(c as CRef) {
                return to;
            }
            // Deleted headers keep their capacity word.
            c += HEADER + self.old[c + 1].code() as usize;
        }
        self.new_end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(codes: &[u32]) -> Vec<Lit> {
        codes.iter().map(|&c| Lit::from_code(c)).collect()
    }

    #[test]
    fn compaction_keeps_order_and_forwards_references() {
        let mut a = ClauseArena::new();
        let c1 = a.alloc(&lits(&[2, 4, 6]), false, 3, 0.0);
        let c2 = a.alloc(&lits(&[8, 10, 12, 14]), true, 4, 1.5);
        let c3 = a.alloc(&lits(&[1, 3, 5, 7, 9]), true, 2, 2.5);
        let c4 = a.alloc(&lits(&[16, 18, 20]), true, 3, 0.5);
        a.shrink(c3, &lits(&[1, 3, 5]));
        a.delete(c2);
        assert_eq!(a.refs().collect::<Vec<_>>(), vec![c1, c2, c3, c4]);
        assert_eq!(a.wasted, 4 + 4 + 2);

        let moved = a.compact();
        assert_eq!(a.wasted, 0);
        assert_eq!(moved.get(c2), None);
        assert_eq!(moved.get(STUB), None);
        let live: Vec<CRef> = a.refs().collect();
        assert_eq!(
            live,
            vec![
                moved.get(c1).unwrap(),
                moved.get(c3).unwrap(),
                moved.get(c4).unwrap()
            ]
        );
        assert_eq!(a.lits(live[1]), &lits(&[1, 3, 5])[..]);
        assert!(a.is_learnt(live[1]) && !a.is_learnt(live[0]));
        assert_eq!((a.lbd(live[1]), a.activity(live[1])), (2, 2.5));
        assert_eq!(moved.boundary(c2), live[1]);
        assert_eq!(moved.boundary(c4 + 4 + 3), a.end());
        assert!(a.is_deleted(STUB) && a.len(STUB) == 0);
    }

    #[test]
    fn a_shrunk_clause_is_wasted_once_when_deleted() {
        let mut a = ClauseArena::new();
        let c1 = a.alloc(&lits(&[2, 4, 6, 8, 10, 12]), true, 3, 0.0);
        a.alloc(&lits(&[14, 16, 18]), false, 3, 0.0);
        a.shrink(c1, &lits(&[2, 4, 6]));
        a.delete(c1);
        assert_eq!(a.wasted, 4 + 6);
        let expected = a.words.len() - a.wasted;
        a.compact();
        assert_eq!(a.words.len(), expected);
    }
}
