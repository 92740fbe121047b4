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

    /// Whether `self` and `other` share one underlying flag.
    pub fn same_token(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// A wall-clock deadline shared by every call of one run.
///
/// Unlike [`Budget::with_max_time`], which is a *per-call* duration measured
/// from the start of each solve, a deadline is an *absolute* instant: one
/// `Deadline` threaded through many sequential or parallel solver calls
/// bounds the whole minimization run. The solver polls it in the same hot
/// loop as the [`CancellationToken`], so an expired deadline aborts
/// in-flight calls promptly with
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
/// use mm_sat::Budget;
///
/// let b = Budget::new()
///     .with_max_conflicts(100_000)
///     .with_max_time(Duration::from_secs(60));
/// assert_eq!(b.max_conflicts(), Some(100_000));
/// ```
#[derive(Debug, Clone)]
pub struct Budget {
    max_conflicts: Option<u64>,
    max_time: Option<Duration>,
    deadline: Option<Deadline>,
    cancel: Option<CancellationToken>,
    inprocess: bool,
}

impl Default for Budget {
    fn default() -> Self {
        Self {
            max_conflicts: None,
            max_time: None,
            deadline: None,
            cancel: None,
            inprocess: true,
        }
    }
}

impl PartialEq for Budget {
    fn eq(&self, other: &Self) -> bool {
        let tokens_match = match (&self.cancel, &other.cancel) {
            (None, None) => true,
            (Some(a), Some(b)) => a.same_token(b),
            _ => false,
        };
        self.max_conflicts == other.max_conflicts
            && self.max_time == other.max_time
            && self.deadline == other.deadline
            && self.inprocess == other.inprocess
            && tokens_match
    }
}

impl Eq for Budget {}

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

    /// Limits the wall-clock time before giving up.
    ///
    /// The limit is checked between restarts, so the overshoot is bounded by
    /// one restart interval.
    pub fn with_max_time(mut self, time: Duration) -> Self {
        self.max_time = Some(time);
        self
    }

    /// Attaches an absolute wall-clock [`Deadline`].
    ///
    /// Unlike [`with_max_time`](Self::with_max_time) the deadline does not
    /// reset between calls, so one deadline shared by many calls bounds the
    /// whole run. It is polled in the solver's hot loop (like a
    /// [`CancellationToken`]), so expiry aborts promptly rather than waiting
    /// for a restart boundary.
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

    /// The time limit, if any.
    pub fn max_time(&self) -> Option<Duration> {
        self.max_time
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

    /// Whether no limit is set and no cancellation token is attached.
    pub fn is_unlimited(&self) -> bool {
        self.max_conflicts.is_none()
            && self.max_time.is_none()
            && self.deadline.is_none()
            && self.cancel.is_none()
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
        assert!(t.same_token(&c));
        assert!(!t.same_token(&CancellationToken::new()));
    }

    #[test]
    fn budget_equality_is_token_identity() {
        let t = CancellationToken::new();
        let a = Budget::new().with_cancellation(t.clone());
        let b = Budget::new().with_cancellation(t);
        assert_eq!(a, b);
        let c = Budget::new().with_cancellation(CancellationToken::new());
        assert_ne!(a, c);
        assert_eq!(Budget::new(), Budget::new());
        assert!(!a.is_unlimited());
        assert!(Budget::new().is_unlimited());
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
    fn inprocess_knob_defaults_on_and_round_trips() {
        assert!(Budget::new().inprocess());
        let off = Budget::new().with_inprocess(false);
        assert!(!off.inprocess());
        assert!(off.is_unlimited(), "the knob is not a resource limit");
        assert_ne!(off, Budget::new());
        assert_eq!(off.clone(), off);
        assert!(off.with_inprocess(true).inprocess());
    }

    #[test]
    fn budget_deadline_round_trips() {
        let d = Deadline::after(Duration::from_secs(10));
        let b = Budget::new().with_deadline(d);
        assert_eq!(b.deadline(), Some(d));
        assert!(!b.is_unlimited());
        assert_eq!(b.clone(), b);
        assert_ne!(b, Budget::new());
    }
}
