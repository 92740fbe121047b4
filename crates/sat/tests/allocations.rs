//! The conflict path does not allocate.
//!
//! A counting global allocator tallies the heap allocations (fresh blocks
//! and reallocations) this test's thread makes while the solver runs. With
//! clauses in one arena, conflicts reported and analysed in place and
//! analysis buffers reused, allocations come only from amortized growth —
//! of the arena, the watch lists and the scratch buffers — and from the
//! rare database reductions and inprocessing passes, so a solve makes far
//! fewer allocations than conflicts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mm_sat::{Budget, CnfFormula, Lit, Solver};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot may already be gone while the thread exits.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Tseitin's parity formula on a cubic graph of `n` vertices (a
/// Hamiltonian cycle plus a seeded perfect matching), with odd charge on
/// one vertex: unsatisfiable, tiny, and hard enough for CDCL to make many
/// conflicts per variable.
fn tseitin(n: usize, seed: u64) -> CnfFormula {
    let mut state = seed;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    let mut perm: Vec<usize> = (0..n).collect();
    loop {
        for i in (1..n).rev() {
            perm.swap(i, (rng() % (i as u64 + 1)) as usize);
        }
        let adjacent = |a: usize, b: usize| (a + 1) % n == b || (b + 1) % n == a;
        if perm.chunks(2).all(|p| !adjacent(p[0], p[1])) {
            break;
        }
    }
    edges.extend(perm.chunks(2).map(|p| (p[0], p[1])));
    let mut cnf = CnfFormula::new();
    let e = cnf.new_lits(edges.len());
    for v in 0..n {
        let incident: Vec<Lit> = (0..edges.len())
            .filter(|&i| edges[i].0 == v || edges[i].1 == v)
            .map(|i| e[i])
            .collect();
        let charge = u32::from(v == 0);
        // Forbid every assignment of the incident edges with the wrong
        // parity.
        for mask in 0..1u32 << incident.len() {
            if mask.count_ones() % 2 != charge {
                cnf.add_clause(incident.iter().enumerate().map(|(k, &l)| {
                    if mask >> k & 1 == 1 {
                        !l
                    } else {
                        l
                    }
                }));
            }
        }
    }
    cnf
}

#[test]
fn a_solve_allocates_far_less_often_than_it_conflicts() {
    // Long enough for database reductions, arena compactions and several
    // inprocessing passes to run inside the measured window.
    let solver = Solver::new(tseitin(40, 7));
    let before = allocations();
    let (result, stats) = solver.solve_with_budget(Budget::new());
    let made = allocations() - before;
    assert!(result.is_unsat());
    assert!(stats.conflicts >= 5_000, "{stats}");
    assert!(
        stats.deleted_clauses > 0 && stats.vivified_clauses > 0,
        "{stats}"
    );
    assert!(
        made < stats.conflicts / 10,
        "{made} allocations for {} conflicts",
        stats.conflicts
    );
}
