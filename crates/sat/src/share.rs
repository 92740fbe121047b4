//! Learnt-clause sharing between portfolio workers.
//!
//! Parallel portfolio solvers (ManySAT, Glucose-syrup) gain most of their
//! cooperative speedup by exchanging short, low-LBD learnt clauses between
//! workers attacking the same formula. [`ClauseBus`] is the in-tree
//! equivalent: an append-only log of exported clauses behind a mutex, with
//! a per-solver cursor so each importer sees every foreign clause exactly
//! once.
//!
//! Soundness rests on one invariant that the *caller* must uphold: every
//! solver attached to one bus must have been built from the **same CNF**
//! (the ladder workers all clone one shared base encoding). A learnt
//! clause is a logical consequence of that formula, so importing it into a
//! sibling preserves satisfiability. The bus itself never inspects clause
//! content.
//!
//! Proof logging and clause import are mutually exclusive: an imported
//! clause is not RUP with respect to the importer's own derivation, so a
//! solver with a DRAT log installed ([`DratProof`](crate::DratProof))
//! silently skips imports (see `Solver::with_clause_bus`).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::Lit;

/// A shared, append-only log of exported learnt clauses.
///
/// Cloning is cheap (an `Arc` bump); all clones refer to the same log.
#[derive(Debug, Clone)]
pub struct ClauseBus {
    inner: Arc<BusInner>,
}

#[derive(Debug)]
struct BusInner {
    /// Export quality filter: only clauses with LBD at or below this are
    /// accepted by the exporting solver.
    max_lbd: u32,
    /// The shared log as `(owner, clause)` pairs. Entries are only ever
    /// appended, so a cursor into the log stays valid forever; the owner
    /// tag lets an importer skip its own publications.
    log: Mutex<Vec<(usize, Vec<Lit>)>>,
    next_owner: AtomicUsize,
    exported: AtomicU64,
    imported: AtomicU64,
}

impl ClauseBus {
    /// Creates an empty bus accepting exports with LBD ≤ `max_lbd`.
    pub fn new(max_lbd: u32) -> Self {
        Self {
            inner: Arc::new(BusInner {
                max_lbd,
                log: Mutex::new(Vec::new()),
                next_owner: AtomicUsize::new(0),
                exported: AtomicU64::new(0),
                imported: AtomicU64::new(0),
            }),
        }
    }

    /// The LBD export threshold this bus was created with.
    pub fn max_lbd(&self) -> u32 {
        self.inner.max_lbd
    }

    /// Hands out a fresh owner id for a solver joining the bus.
    pub fn register(&self) -> usize {
        self.inner.next_owner.fetch_add(1, Ordering::Relaxed)
    }

    /// Number of clauses published so far.
    pub fn len(&self) -> usize {
        self.inner.log.lock().expect("clause bus poisoned").len()
    }

    /// Whether no clause has been published yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Publishes a clause, tagged with the publisher's owner id.
    pub fn publish(&self, owner: usize, lits: &[Lit]) {
        self.inner
            .log
            .lock()
            .expect("clause bus poisoned")
            .push((owner, lits.to_vec()));
        self.inner.exported.fetch_add(1, Ordering::Relaxed);
    }

    /// Copies out every clause published after `cursor` by solvers other
    /// than `owner`, and advances the cursor to the end of the log.
    pub fn collect_since(&self, owner: usize, cursor: &mut usize) -> Vec<Vec<Lit>> {
        let log = self.inner.log.lock().expect("clause bus poisoned");
        let fresh = log[(*cursor).min(log.len())..]
            .iter()
            .filter(|(by, _)| *by != owner)
            .map(|(_, lits)| lits.clone())
            .collect();
        *cursor = log.len();
        fresh
    }

    /// Records that an importer consumed `n` clauses (for telemetry).
    pub fn note_imported(&self, n: u64) {
        self.inner.imported.fetch_add(n, Ordering::Relaxed);
    }

    /// Total clauses published across all solvers.
    pub fn exported(&self) -> u64 {
        self.inner.exported.load(Ordering::Relaxed)
    }

    /// Total clause imports consumed across all solvers.
    pub fn imported(&self) -> u64 {
        self.inner.imported.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Var;

    fn lit(i: u32) -> Lit {
        Var::from_index(i).positive()
    }

    #[test]
    fn cursor_sees_each_foreign_clause_exactly_once() {
        let bus = ClauseBus::new(4);
        assert!(bus.is_empty());
        let me = bus.register();
        let peer = bus.register();
        assert_ne!(me, peer);
        bus.publish(peer, &[lit(0), lit(1)]);
        bus.publish(peer, &[lit(2)]);

        let mut cursor = 0;
        let first = bus.collect_since(me, &mut cursor);
        assert_eq!(first, vec![vec![lit(0), lit(1)], vec![lit(2)]]);
        assert!(bus.collect_since(me, &mut cursor).is_empty());

        bus.publish(peer, &[lit(3)]);
        assert_eq!(bus.collect_since(me, &mut cursor), vec![vec![lit(3)]]);
        assert_eq!(bus.exported(), 3);
    }

    #[test]
    fn own_publications_are_not_reimported() {
        let bus = ClauseBus::new(4);
        let me = bus.register();
        let peer = bus.register();
        bus.publish(me, &[lit(0)]);
        bus.publish(peer, &[lit(1)]);
        bus.publish(me, &[lit(2)]);
        let mut cursor = 0;
        assert_eq!(bus.collect_since(me, &mut cursor), vec![vec![lit(1)]]);
        assert_eq!(cursor, 3, "cursor passes over skipped own clauses");
    }

    #[test]
    fn clones_share_one_log() {
        let bus = ClauseBus::new(4);
        let other = bus.clone();
        let peer = other.register();
        other.publish(peer, &[lit(7)]);
        let mut cursor = 0;
        assert_eq!(bus.collect_since(peer + 1, &mut cursor), vec![vec![lit(7)]]);
        other.note_imported(1);
        assert_eq!(bus.imported(), 1);
    }

    #[test]
    fn stale_cursor_is_clamped() {
        let bus = ClauseBus::new(4);
        bus.publish(0, &[lit(0)]);
        let mut cursor = 100;
        assert!(bus.collect_since(1, &mut cursor).is_empty());
        assert_eq!(cursor, 1);
    }
}
