use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cooperative cancellation handle shared between a solver call and the
/// code that launched it.
///
/// Cloning the token is cheap (an [`Arc`] bump) and every clone observes the
/// same flag. The solver polls [`is_cancelled`](Self::is_cancelled) inside
/// its propagate/decide loop — far more often than its restart-based budget
/// checks — so a [`cancel`](Self::cancel) from another thread aborts the
/// call promptly with [`SatResult::Unknown`](crate::SatResult::Unknown).
///
/// This is the primitive behind the portfolio minimality search: once one
/// budget point answers, sibling calls whose outcome is already implied by
/// the monotone budget lattice are cancelled instead of running to
/// completion.
///
/// # Example
///
/// ```
/// use mm_sat::CancellationToken;
///
/// let token = CancellationToken::new();
/// let observer = token.clone();
/// assert!(!observer.is_cancelled());
/// token.cancel();
/// assert!(observer.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancellationToken(Arc<AtomicBool>);

impl CancellationToken {
    /// A fresh, un-tripped token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trips the token. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether [`cancel`](Self::cancel) has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// A wall-clock deadline: the one time bound a solve can carry.
///
/// A deadline is an *absolute* instant, anchored once where the work is
/// admitted: one `Deadline` threaded through many sequential or parallel
/// solver calls bounds the whole run, and a caller that wants a per-call
/// bound attaches `Deadline::after(d)` where that call starts. The solver
/// polls it in the same hot loop as the [`CancellationToken`], so an
/// expired deadline aborts in-flight calls promptly with
/// [`SatResult::Unknown`](crate::SatResult::Unknown), and callers can check
/// [`expired`](Self::expired) to skip launching work that could never
/// finish.
///
/// # Example
///
/// ```
/// use std::time::Duration;
/// use mm_sat::Deadline;
///
/// let d = Deadline::after(Duration::from_secs(3600));
/// assert!(!d.expired());
/// assert!(Deadline::after(Duration::ZERO).expired());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline `d` from now.
    pub fn after(d: Duration) -> Self {
        Self {
            at: Instant::now().checked_add(d).unwrap_or_else(far_future),
        }
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        Instant::now() >= self.at
    }

    /// Time left before expiry (zero once expired).
    pub fn remaining(&self) -> Duration {
        self.at.saturating_duration_since(Instant::now())
    }
}

/// An instant far enough out to never expire in practice (used when
/// `now + d` overflows the platform's `Instant` range).
fn far_future() -> Instant {
    Instant::now() + Duration::from_secs(60 * 60 * 24 * 365 * 30)
}

/// Resource limits for a single [`Solver::solve`](crate::Solver::solve) call.
///
/// When a limit is exceeded the solver returns
/// [`SatResult::Unknown`](crate::SatResult::Unknown) instead of an answer.
/// This mirrors how the paper reports "≤" rows in Table IV where the
/// optimality proof (an UNSAT instance) timed out.
///
/// A budget may also carry a [`CancellationToken`]; tripping it aborts the
/// call from outside, again yielding `Unknown`.
///
/// # Example
///
/// ```
/// use std::time::Duration;
/// use mm_sat::{Budget, Deadline};
///
/// let b = Budget::new()
///     .with_max_conflicts(100_000)
///     .with_deadline(Deadline::after(Duration::from_secs(60)));
/// assert_eq!(b.max_conflicts(), Some(100_000));
/// ```
#[derive(Debug, Clone)]
pub struct Budget {
    max_conflicts: Option<u64>,
    deadline: Option<Deadline>,
    cancel: Option<CancellationToken>,
    inprocess: bool,
}

impl Default for Budget {
    fn default() -> Self {
        Self {
            max_conflicts: None,
            deadline: None,
            cancel: None,
            inprocess: true,
        }
    }
}

impl Budget {
    /// An unlimited budget: the solver runs to completion.
    pub fn new() -> Self {
        Self::default()
    }

    /// Limits the number of conflicts before giving up.
    pub fn with_max_conflicts(mut self, conflicts: u64) -> Self {
        self.max_conflicts = Some(conflicts);
        self
    }

    /// Attaches an absolute wall-clock [`Deadline`].
    ///
    /// The deadline does not reset between calls, so one deadline shared by
    /// many calls bounds the whole run. It is polled in the solver's hot
    /// loop (like a [`CancellationToken`]), so expiry aborts promptly rather
    /// than waiting for a restart boundary.
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches a cancellation token; tripping it aborts the call.
    pub fn with_cancellation(mut self, token: CancellationToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Enables or disables formula inprocessing (subsumption,
    /// self-subsuming resolution, vivification) for calls made under this
    /// budget. On by default; the `--no-inprocess` CLI flag turns it off.
    ///
    /// Inprocessing never changes a verdict — it only rewrites the clause
    /// database between restarts — so this knob exists for differential
    /// testing and for isolating the effect when benchmarking.
    pub fn with_inprocess(mut self, enabled: bool) -> Self {
        self.inprocess = enabled;
        self
    }

    /// The conflict limit, if any.
    pub fn max_conflicts(&self) -> Option<u64> {
        self.max_conflicts
    }

    /// The attached deadline, if any.
    pub fn deadline(&self) -> Option<Deadline> {
        self.deadline
    }

    /// The attached cancellation token, if any.
    pub fn cancellation(&self) -> Option<&CancellationToken> {
        self.cancel.as_ref()
    }

    /// Whether inprocessing is enabled for calls under this budget.
    pub fn inprocess(&self) -> bool {
        self.inprocess
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_clones_share_state() {
        let t = CancellationToken::new();
        let c = t.clone();
        assert!(!t.is_cancelled());
        c.cancel();
        assert!(t.is_cancelled());
        assert!(
            !CancellationToken::new().is_cancelled(),
            "a fresh token is its own"
        );
    }

    #[test]
    fn deadline_expiry_and_remaining() {
        let d = Deadline::after(Duration::from_secs(3600));
        assert!(!d.expired());
        assert!(d.remaining() > Duration::from_secs(3000));

        let past = Deadline::after(Duration::ZERO);
        assert!(past.expired());
        assert_eq!(past.remaining(), Duration::ZERO);

        // Absurd durations saturate instead of panicking.
        let far = Deadline::after(Duration::from_secs(u64::MAX));
        assert!(!far.expired());
    }

    #[test]
    fn budget_limits_round_trip() {
        let b = Budget::new();
        assert!(b.inprocess(), "inprocessing defaults on");
        assert_eq!(b.max_conflicts(), None);
        assert_eq!(b.deadline(), None);
        assert!(b.cancellation().is_none());

        let token = CancellationToken::new();
        let d = Deadline::after(Duration::from_secs(10));
        let b = Budget::new()
            .with_inprocess(false)
            .with_max_conflicts(7)
            .with_deadline(d)
            .with_cancellation(token.clone());
        assert!(!b.inprocess());
        assert_eq!(b.max_conflicts(), Some(7));
        assert_eq!(b.deadline(), Some(d));
        token.cancel();
        assert!(b
            .cancellation()
            .is_some_and(CancellationToken::is_cancelled));
        assert!(b.with_inprocess(true).inprocess());
    }
}
