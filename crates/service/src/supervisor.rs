//! The job supervisor: a bounded admission queue in front of a fixed
//! worker pool, with panic isolation and deterministic retry.
//!
//! * **Bounded admission** — [`submit`](Supervisor::submit) refuses work
//!   beyond `queue_depth` with [`Submission::Overloaded`] instead of
//!   queueing without bound; the daemon turns that into the `overloaded`
//!   wire response.
//! * **Isolation** — every attempt runs under
//!   [`catch_unwind`]; a panic costs one
//!   attempt, never a worker thread.
//! * **Retry** — inconclusive attempts (panic, or the job reporting
//!   [`AttemptResult::Retry`]) are retried on the spot with the
//!   [`RetryPolicy`]'s escalating conflict budgets and deterministically
//!   jittered backoff. When the schedule is exhausted the job resolves
//!   [`JobVerdict::Degraded`] — the service-side analogue of exit code 2.
//! * **Deadlines** — a job whose deadline has already passed when a
//!   worker picks it up degrades immediately instead of launching a
//!   doomed solve. Mid-run expiry is the solver's own deadline handling.
//! * **Drain** — [`shutdown`](Supervisor::shutdown) stops admission,
//!   lets every accepted job finish (skipping any remaining backoff),
//!   and joins the workers, so an accepted job always gets exactly one
//!   verdict: its reply callback is called once, with
//!   [`JobVerdict::Dropped`] if the job is lost before it resolves.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::backoff::{Attempt, RetryPolicy};
use crate::metrics::ServiceMetrics;

/// What one attempt of a job concluded.
pub enum AttemptResult<R> {
    /// Final answer; no further attempts.
    Done(R),
    /// Inconclusive — ask the schedule for another attempt. `partial`
    /// (the best known answer so far) is served if the schedule is
    /// exhausted.
    Retry {
        /// Best-known partial answer, kept across attempts.
        partial: Option<R>,
        /// Why the attempt was inconclusive.
        reason: String,
    },
}

/// The supervisor's final word on a job.
#[derive(Debug, PartialEq, Eq)]
pub enum JobVerdict<R> {
    /// The job completed.
    Done(R),
    /// The retry schedule ran out (or the deadline passed) before a
    /// conclusive answer; `partial` is the best known.
    Degraded {
        /// Best-known partial answer from the last inconclusive attempt.
        partial: Option<R>,
        /// The last inconclusive reason.
        reason: String,
    },
    /// The job was dropped before it resolved: its worker died outside
    /// the attempt's `catch_unwind`.
    Dropped,
}

/// One unit of queued work. Boxed `FnMut` so a retry re-invokes the same
/// closure with the next attempt's budget.
type JobFn<R> = Box<dyn FnMut(&Attempt) -> AttemptResult<R> + Send>;

struct QueuedJob<R> {
    job: JobFn<R>,
    /// Seed for deterministic backoff jitter (e.g. a hash of the job id).
    seed: u64,
    /// The request's own conflict limit (escalation base).
    base_conflicts: Option<u64>,
    /// Absolute deadline; jobs past it degrade without launching.
    deadline: Option<Instant>,
    /// Taken when the verdict is sent; still here when the job is
    /// dropped unresolved, so [`Drop`] answers [`JobVerdict::Dropped`].
    reply: Option<ReplyFn<R>>,
}

/// Receives a job's verdict, exactly once.
type ReplyFn<R> = Box<dyn FnOnce(JobVerdict<R>) + Send>;

impl<R> Drop for QueuedJob<R> {
    fn drop(&mut self) {
        if let Some(reply) = self.reply.take() {
            reply(JobVerdict::Dropped);
        }
    }
}

/// Admission decision for one [`submit`](Supervisor::submit) call.
pub enum Submission {
    /// Accepted; its reply will be called exactly once.
    Queued,
    /// The queue is full — shed instead of buffering.
    Overloaded,
    /// The supervisor is draining and admits nothing new.
    ShuttingDown,
}

/// Tunables for a [`Supervisor`].
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Concurrent jobs (worker threads).
    pub workers: usize,
    /// Jobs that may wait beyond the ones in flight.
    pub queue_depth: usize,
    /// Retry schedule for inconclusive attempts.
    pub retry: RetryPolicy,
    /// Live-metrics handles (queue depth, admissions, sheds, retries,
    /// panics). Detached by default so standalone supervisors stay cheap.
    pub metrics: Arc<ServiceMetrics>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_depth: 16,
            retry: RetryPolicy::default(),
            metrics: ServiceMetrics::detached(),
        }
    }
}

struct Shared<R> {
    queue: Mutex<VecDeque<QueuedJob<R>>>,
    wake: Condvar,
    draining: AtomicBool,
    config: SupervisorConfig,
}

/// A fixed pool of supervised workers. Dropping without
/// [`shutdown`](Self::shutdown) also drains (workers are joined).
pub struct Supervisor<R: Send + 'static> {
    shared: Arc<Shared<R>>,
    handles: Vec<JoinHandle<()>>,
}

impl<R: Send + 'static> Supervisor<R> {
    /// Starts `config.workers` worker threads.
    pub fn start(config: SupervisorConfig) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
            draining: AtomicBool::new(false),
            config,
        });
        let handles = (0..shared.config.workers.max(1))
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("mmsynthd-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();
        Self { shared, handles }
    }

    /// Offers a job to the queue. `seed` feeds the deterministic backoff
    /// jitter; `base_conflicts` is the request's own conflict limit;
    /// `deadline`, when given, degrades the job if it is still queued
    /// past that instant. An accepted job's `reply` is called exactly
    /// once, on the worker thread, with its verdict; a refused job's
    /// `reply` is dropped uncalled.
    pub fn submit(
        &self,
        seed: u64,
        base_conflicts: Option<u64>,
        deadline: Option<Instant>,
        job: impl FnMut(&Attempt) -> AttemptResult<R> + Send + 'static,
        reply: impl FnOnce(JobVerdict<R>) + Send + 'static,
    ) -> Submission {
        if self.shared.draining.load(Ordering::SeqCst) {
            return Submission::ShuttingDown;
        }
        let mut queue = self.shared.queue.lock().expect("queue poisoned");
        if queue.len() >= self.shared.config.queue_depth {
            self.shared.config.metrics.sheds.inc();
            return Submission::Overloaded;
        }
        queue.push_back(QueuedJob {
            job: Box::new(job),
            seed,
            base_conflicts,
            deadline,
            reply: Some(Box::new(reply)),
        });
        self.shared.config.metrics.admissions.inc();
        self.shared
            .config
            .metrics
            .queue_depth
            .set(queue.len() as i64);
        drop(queue);
        self.shared.wake.notify_one();
        Submission::Queued
    }

    /// Stops admission, waits for every accepted job to resolve, and
    /// joins the workers.
    pub fn shutdown(mut self) {
        self.drain();
    }

    fn drain(&mut self) {
        // Set the flag under the queue lock: an idle worker checks it and
        // parks while holding that lock, so a flag set (and notified)
        // between its check and its wait would leave it parked forever.
        // The guard is held even if the lock is poisoned; this runs in Drop.
        {
            let _queue = self.shared.queue.lock();
            self.shared.draining.store(true, Ordering::SeqCst);
        }
        self.shared.wake.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl<R: Send + 'static> Drop for Supervisor<R> {
    fn drop(&mut self) {
        self.drain();
    }
}

fn worker_loop<R: Send + 'static>(shared: &Shared<R>) {
    loop {
        let mut job = {
            let mut queue = shared.queue.lock().expect("queue poisoned");
            loop {
                if let Some(job) = queue.pop_front() {
                    shared.config.metrics.queue_depth.set(queue.len() as i64);
                    break job;
                }
                if shared.draining.load(Ordering::SeqCst) {
                    return;
                }
                queue = shared.wake.wait(queue).expect("queue poisoned");
            }
        };
        shared.config.metrics.jobs_inflight.add(1);
        let verdict = run_job(shared, &mut job);
        shared.config.metrics.jobs_inflight.sub(1);
        if let Some(reply) = job.reply.take() {
            reply(verdict);
        }
    }
}

fn run_job<R>(shared: &Shared<R>, job: &mut QueuedJob<R>) -> JobVerdict<R> {
    let deadline = job.deadline;
    let policy = &shared.config.retry;
    let mut partial: Option<R> = None;
    let mut reason = String::from("retry schedule exhausted");
    for index in 0.. {
        let Some(attempt) = policy.attempt(index, job.base_conflicts, job.seed) else {
            return JobVerdict::Degraded { partial, reason };
        };
        if index > 0 {
            shared.config.metrics.retries.inc();
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return JobVerdict::Degraded {
                partial,
                reason: "deadline expired".into(),
            };
        }
        // Backoff between attempts; a drain waives the wait so shutdown
        // never blocks on politeness.
        if attempt.backoff > Duration::ZERO && !shared.draining.load(Ordering::SeqCst) {
            let capped = deadline
                .map(|d| {
                    d.saturating_duration_since(Instant::now())
                        .min(attempt.backoff)
                })
                .unwrap_or(attempt.backoff);
            std::thread::sleep(capped);
        }
        match catch_unwind(AssertUnwindSafe(|| (job.job)(&attempt))) {
            Ok(AttemptResult::Done(r)) => return JobVerdict::Done(r),
            Ok(AttemptResult::Retry {
                partial: p,
                reason: r,
            }) => {
                if p.is_some() {
                    partial = p;
                }
                reason = r;
            }
            Err(payload) => {
                shared.config.metrics.panics.inc();
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                reason = format!("worker panicked: {message}");
            }
        }
    }
    unreachable!("loop exits via the schedule");
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicU32;
    use std::sync::mpsc::{channel, Receiver};

    use super::*;

    fn quick_policy(max_attempts: u32) -> SupervisorConfig {
        SupervisorConfig {
            workers: 2,
            queue_depth: 4,
            retry: RetryPolicy {
                max_attempts,
                base_backoff: Duration::ZERO,
                max_backoff: Duration::ZERO,
                ..RetryPolicy::default()
            },
            ..SupervisorConfig::default()
        }
    }

    /// Submits with a reply that forwards the verdict into a channel.
    fn submit<R: Send + 'static>(
        sup: &Supervisor<R>,
        seed: u64,
        base_conflicts: Option<u64>,
        deadline: Option<Instant>,
        job: impl FnMut(&Attempt) -> AttemptResult<R> + Send + 'static,
    ) -> (Submission, Receiver<JobVerdict<R>>) {
        let (tx, rx) = channel();
        let submission = sup.submit(seed, base_conflicts, deadline, job, move |v| {
            tx.send(v).expect("test holds the receiver");
        });
        (submission, rx)
    }

    fn recv<R>((s, rx): (Submission, Receiver<JobVerdict<R>>)) -> JobVerdict<R> {
        assert!(matches!(s, Submission::Queued), "expected admission");
        rx.recv().expect("verdict")
    }

    #[test]
    fn jobs_complete_and_report() {
        let sup = Supervisor::start(quick_policy(1));
        let v = recv(submit(&sup, 0, None, None, |_| AttemptResult::Done(7)));
        assert_eq!(v, JobVerdict::Done(7));
        sup.shutdown();
    }

    #[test]
    fn panics_cost_an_attempt_not_a_worker() {
        let sup = Supervisor::start(quick_policy(2));
        let tries = Arc::new(AtomicU32::new(0));
        let t = tries.clone();
        let v = recv(submit(&sup, 1, None, None, move |_| {
            if t.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("first attempt explodes");
            }
            AttemptResult::Done(99)
        }));
        assert_eq!(v, JobVerdict::Done(99));
        assert_eq!(tries.load(Ordering::SeqCst), 2);
        // The pool still serves after the panic.
        let v = recv(submit(&sup, 2, None, None, |_| AttemptResult::Done(1)));
        assert_eq!(v, JobVerdict::Done(1));
        sup.shutdown();
    }

    #[test]
    fn exhausted_schedule_degrades_with_best_partial() {
        let sup = Supervisor::start(quick_policy(3));
        let v = recv(submit(&sup, 3, Some(10), None, |attempt| {
            AttemptResult::Retry {
                partial: Some(attempt.max_conflicts),
                reason: format!("attempt {} exhausted", attempt.index),
            }
        }));
        let JobVerdict::Degraded { partial, reason } = v else {
            panic!("expected degraded");
        };
        // The last attempt's escalated budget made it through as partial:
        // 10 * 4^2 with the default escalation factor.
        assert_eq!(partial, Some(Some(160)));
        assert_eq!(reason, "attempt 2 exhausted");
        sup.shutdown();
    }

    #[test]
    fn budgets_escalate_across_attempts() {
        let sup: Supervisor<()> = Supervisor::start(quick_policy(3));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s = seen.clone();
        let _ = recv(submit(&sup, 4, Some(100), None, move |attempt| {
            s.lock().unwrap().push(attempt.max_conflicts);
            AttemptResult::Retry {
                partial: None,
                reason: "keep going".into(),
            }
        }));
        assert_eq!(
            *seen.lock().unwrap(),
            vec![Some(100), Some(400), Some(1600)]
        );
        sup.shutdown();
    }

    #[test]
    fn full_queue_sheds_with_overloaded() {
        // One worker, depth 1: occupy the worker, fill the queue, then
        // the next submit must shed.
        let config = SupervisorConfig {
            workers: 1,
            queue_depth: 1,
            ..quick_policy(1)
        };
        let sup = Supervisor::start(config);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        // Open the gate even if an assertion below panics — otherwise the
        // supervisor's drain-on-drop joins a worker parked on it forever.
        struct OpenOnDrop(Arc<(Mutex<bool>, Condvar)>);
        impl Drop for OpenOnDrop {
            fn drop(&mut self) {
                *self.0 .0.lock().unwrap() = true;
                self.0 .1.notify_all();
            }
        }
        let opener = OpenOnDrop(gate.clone());
        let started = Arc::new(AtomicU32::new(0));
        let (g, st) = (gate.clone(), started.clone());
        let busy = submit(&sup, 0, None, None, move |_| {
            st.store(1, Ordering::SeqCst);
            let (lock, cv) = &*g;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
            AttemptResult::Done(0)
        });
        assert!(matches!(busy.0, Submission::Queued));
        // Wait until the worker has actually *popped* the job.
        while started.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        let queued = submit(&sup, 1, None, None, |_| AttemptResult::Done(1));
        assert!(matches!(queued.0, Submission::Queued));
        let shed = submit(&sup, 2, None, None, |_| AttemptResult::Done(2));
        assert!(matches!(shed.0, Submission::Overloaded));
        drop(opener);
        assert_eq!(recv(busy), JobVerdict::Done(0));
        assert_eq!(recv(queued), JobVerdict::Done(1));
        sup.shutdown();
    }

    #[test]
    fn expired_deadline_degrades_without_running() {
        let sup: Supervisor<u8> = Supervisor::start(quick_policy(3));
        let past = Instant::now() - Duration::from_secs(1);
        let v = recv(submit(&sup, 5, None, Some(past), |_| {
            panic!("must not launch");
        }));
        assert_eq!(
            v,
            JobVerdict::Degraded {
                partial: None,
                reason: "deadline expired".into()
            }
        );
        sup.shutdown();
    }

    #[test]
    fn metrics_count_admissions_retries_and_panics() {
        let config = quick_policy(2);
        let metrics = config.metrics.clone();
        let sup = Supervisor::start(config);
        let tries = Arc::new(AtomicU32::new(0));
        let t = tries.clone();
        let v = recv(submit(&sup, 0, None, None, move |_| {
            if t.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("first attempt explodes");
            }
            AttemptResult::Done(1)
        }));
        assert_eq!(v, JobVerdict::Done(1));
        sup.shutdown();
        assert_eq!(metrics.admissions.get(), 1);
        assert_eq!(metrics.panics.get(), 1);
        assert_eq!(metrics.retries.get(), 1, "the second attempt is a retry");
        assert_eq!(metrics.sheds.get(), 0);
        assert_eq!(metrics.queue_depth.get(), 0, "queue drains back to zero");
        assert_eq!(metrics.jobs_inflight.get(), 0);
    }

    #[test]
    fn shutdown_drains_accepted_jobs() {
        let sup = Supervisor::start(SupervisorConfig {
            workers: 1,
            queue_depth: 8,
            ..quick_policy(1)
        });
        let receivers: Vec<_> = (0..4)
            .map(|i| {
                let (s, rx) = submit(&sup, i, None, None, move |_| AttemptResult::Done(i));
                assert!(matches!(s, Submission::Queued), "admission");
                rx
            })
            .collect();
        sup.shutdown();
        for (i, rx) in receivers.into_iter().enumerate() {
            assert_eq!(
                rx.recv().expect("drained verdict"),
                JobVerdict::Done(i as u64)
            );
        }
    }

    #[test]
    fn a_job_whose_worker_dies_still_replies_once() {
        // A panic payload that panics again when dropped escapes the
        // attempt's `catch_unwind` and kills the worker mid-job.
        struct PanicsOnDrop;
        impl Drop for PanicsOnDrop {
            fn drop(&mut self) {
                panic!("payload drop panics");
            }
        }
        let sup: Supervisor<u8> = Supervisor::start(SupervisorConfig {
            workers: 1,
            ..quick_policy(1)
        });
        let (s, rx) = submit(&sup, 0, None, None, |_| std::panic::panic_any(PanicsOnDrop));
        assert!(matches!(s, Submission::Queued));
        assert_eq!(rx.recv().expect("one verdict"), JobVerdict::Dropped);
        sup.shutdown();
        assert!(rx.recv().is_err(), "exactly one verdict");
    }
}
