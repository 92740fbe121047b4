//! The job supervisor: a bounded admission queue in front of a fixed
//! worker pool, with panic isolation.
//!
//! * **Bounded admission** — [`submit`](Supervisor::submit) refuses work
//!   beyond `queue_depth` with [`Submission::Overloaded`] instead of
//!   queueing without bound; the daemon turns that into the `overloaded`
//!   wire response.
//! * **One attempt** — every job runs once, at the budget its request
//!   states, as `mmsynth` runs it. An inconclusive answer is the job's
//!   own `degraded` reply, never a reason to run it again.
//! * **Isolation** — the job runs under [`catch_unwind`]; a panic
//!   resolves it [`JobVerdict::Degraded`] and never costs a worker thread.
//! * **Drain** — [`shutdown`](Supervisor::shutdown) stops admission,
//!   lets every accepted job finish, and joins the workers, so an
//!   accepted job always gets exactly one verdict: its reply callback is
//!   called once, with [`JobVerdict::Dropped`] if the job is lost before
//!   it resolves.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::metrics::ServiceMetrics;

/// The supervisor's final word on a job.
#[derive(Debug, PartialEq, Eq)]
pub enum JobVerdict<R> {
    /// The job ran and answered.
    Done(R),
    /// The job gave no answer: it panicked.
    Degraded {
        /// Why there is no answer.
        reason: String,
    },
    /// The job was dropped before it resolved: its worker died outside
    /// the job's `catch_unwind`.
    Dropped,
}

/// One unit of queued work.
type JobFn<R> = Box<dyn FnOnce() -> R + Send>;

struct QueuedJob<R> {
    /// Taken when a worker runs the job.
    job: Option<JobFn<R>>,
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
    /// Live-metrics handles (queue depth, admissions, sheds, panics).
    /// Detached by default so standalone supervisors stay cheap.
    pub metrics: Arc<ServiceMetrics>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_depth: 16,
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

    /// Offers a job to the queue. An accepted job's `reply` is called
    /// exactly once, on the worker thread, with its verdict; a refused
    /// job's `reply` is dropped uncalled. The supervisor keeps no
    /// deadlines: a job that has one measures it from its own admission.
    pub fn submit(
        &self,
        job: impl FnOnce() -> R + Send + 'static,
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
            job: Some(Box::new(job)),
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
        let run = job.job.take().expect("a queued job runs once");
        let verdict = run_job(shared, run);
        shared.config.metrics.jobs_inflight.sub(1);
        if let Some(reply) = job.reply.take() {
            reply(verdict);
        }
    }
}

fn run_job<R>(shared: &Shared<R>, job: JobFn<R>) -> JobVerdict<R> {
    match catch_unwind(AssertUnwindSafe(job)) {
        Ok(r) => JobVerdict::Done(r),
        Err(payload) => {
            shared.config.metrics.panics.inc();
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            JobVerdict::Degraded {
                reason: format!("worker panicked: {message}"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicU32;
    use std::sync::mpsc::{channel, Receiver};

    use super::*;

    fn config(workers: usize, queue_depth: usize) -> SupervisorConfig {
        SupervisorConfig {
            workers,
            queue_depth,
            ..SupervisorConfig::default()
        }
    }

    /// Submits with a reply that forwards the verdict into a channel.
    fn submit<R: Send + 'static>(
        sup: &Supervisor<R>,
        job: impl FnOnce() -> R + Send + 'static,
    ) -> (Submission, Receiver<JobVerdict<R>>) {
        let (tx, rx) = channel();
        let submission = sup.submit(job, move |v| {
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
        let sup = Supervisor::start(config(2, 4));
        let v = recv(submit(&sup, || 7));
        assert_eq!(v, JobVerdict::Done(7));
        sup.shutdown();
    }

    #[test]
    fn panics_degrade_the_job_not_the_worker() {
        let config = config(1, 4);
        let metrics = config.metrics.clone();
        let sup = Supervisor::start(config);
        let runs = Arc::new(AtomicU32::new(0));
        let r = runs.clone();
        let v = recv(submit(&sup, move || -> u8 {
            r.fetch_add(1, Ordering::SeqCst);
            panic!("the job explodes");
        }));
        assert_eq!(runs.load(Ordering::SeqCst), 1, "a job runs exactly once");
        assert_eq!(
            v,
            JobVerdict::Degraded {
                reason: "worker panicked: the job explodes".into()
            }
        );
        // The pool's only worker still serves after the panic.
        assert_eq!(recv(submit(&sup, || 1)), JobVerdict::Done(1));
        sup.shutdown();
        assert_eq!(metrics.admissions.get(), 2);
        assert_eq!(metrics.panics.get(), 1);
        assert_eq!(metrics.sheds.get(), 0);
        assert_eq!(metrics.queue_depth.get(), 0, "queue drains back to zero");
        assert_eq!(metrics.jobs_inflight.get(), 0);
    }

    #[test]
    fn full_queue_sheds_with_overloaded() {
        // One worker, depth 1: occupy the worker, fill the queue, then
        // the next submit must shed.
        let sup = Supervisor::start(config(1, 1));
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
        let busy = submit(&sup, move || {
            st.store(1, Ordering::SeqCst);
            let (lock, cv) = &*g;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
            0
        });
        assert!(matches!(busy.0, Submission::Queued));
        // Wait until the worker has actually *popped* the job.
        while started.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        let queued = submit(&sup, || 1);
        assert!(matches!(queued.0, Submission::Queued));
        let shed = submit(&sup, || 2);
        assert!(matches!(shed.0, Submission::Overloaded));
        drop(opener);
        assert_eq!(recv(busy), JobVerdict::Done(0));
        assert_eq!(recv(queued), JobVerdict::Done(1));
        sup.shutdown();
    }

    #[test]
    fn shutdown_drains_accepted_jobs() {
        let sup = Supervisor::start(config(1, 8));
        let receivers: Vec<_> = (0..4)
            .map(|i| {
                let (s, rx) = submit(&sup, move || i);
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
        // job's `catch_unwind` and kills the worker mid-job.
        struct PanicsOnDrop;
        impl Drop for PanicsOnDrop {
            fn drop(&mut self) {
                panic!("payload drop panics");
            }
        }
        let sup: Supervisor<u8> = Supervisor::start(config(1, 4));
        let (s, rx) = submit(&sup, || std::panic::panic_any(PanicsOnDrop));
        assert!(matches!(s, Submission::Queued));
        assert_eq!(rx.recv().expect("one verdict"), JobVerdict::Dropped);
        sup.shutdown();
        assert!(rx.recv().is_err(), "exactly one verdict");
    }
}
