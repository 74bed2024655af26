//! Admission control: bounded priority lanes, SLO deadlines, and
//! deadline-aware batch formation.
//!
//! The serving front door is *open-loop*: arrivals are not bounded by the
//! number of in-flight callers (TGN-style streams keep coming whether or
//! not the server is keeping up), so the intake must bound its own queues.
//! [`AdmissionQueue`] admits each [`LinkQuery`] into one of a fixed set of
//! priority **lanes** (lane 0 drains first), each a bounded FIFO: when a
//! lane sits at `queue_cap` the submit is rejected immediately with a typed
//! [`Overloaded::QueueFull`] — load is shed at the door instead of growing
//! an unbounded backlog whose tail latency diverges under overload.
//!
//! Every admitted ticket carries an SLO deadline (`submitted + slo`), and
//! batch formation is deadline-aware: a batch closes when it is full, when
//! the oldest ticket has waited [`BatchPolicy::max_wait`], or when the
//! oldest ticket is within `slo_margin` of its deadline — whichever comes
//! first — so a near-deadline query is never held hostage by batch
//! filling. Tickets that expire while queued are shed at drain time with
//! [`Overloaded::DeadlineExceeded`]: scoring them would burn capacity
//! producing answers the SLO already voided.
//!
//! Lingering only pays while somebody can still join the batch: when
//! every queued ticket's submitter is blocked on it
//! ([`AdmissionQueue::submit_blocking`]) the batch closes at once. One
//! *streaming* ticket ([`AdmissionQueue::submit`]) restores the timers.
//!
//! A third typed shed covers worker failure: when a scoring worker
//! panics mid-batch, the supervisor resolves every query it was holding
//! with [`Overloaded::WorkerFailed`] (see [`AdmissionQueue::fail_batch`])
//! — waiters get a typed error, never a panic or an unbounded hang, and
//! the admission identity stays exact through the failure.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// One link-prediction question: "will `src` interact with `dst` at `t`?"
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkQuery {
    /// Query source node.
    pub src: u32,
    /// Query destination node.
    pub dst: u32,
    /// Query time (scores use interactions strictly before `t`).
    pub t: f64,
}

/// A fulfilled score.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScoreResult {
    /// Interaction probability in (0, 1) (sigmoid of the predictor logit).
    pub prob: f32,
    /// Generation of the graph snapshot that produced the score.
    pub generation: u64,
}

/// Typed load-shedding rejection: the engine declined to score a query
/// rather than queue it without bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Overloaded {
    /// The lane's admission queue was at capacity when the query arrived.
    QueueFull {
        /// Lane the query targeted.
        lane: usize,
    },
    /// The query was admitted but its SLO deadline passed before a worker
    /// reached it; it was dropped from the queue unscored.
    DeadlineExceeded {
        /// Lane the query waited in.
        lane: usize,
    },
    /// The query was drained into a batch whose scoring worker panicked
    /// (or the engine shut down around it) before producing a score.
    /// Retryable: the supervisor respawns the worker.
    WorkerFailed {
        /// Lane the query was drained from.
        lane: usize,
    },
}

impl Overloaded {
    /// Lane the rejection applies to.
    pub fn lane(&self) -> usize {
        match *self {
            Overloaded::QueueFull { lane }
            | Overloaded::DeadlineExceeded { lane }
            | Overloaded::WorkerFailed { lane } => lane,
        }
    }
}

impl fmt::Display for Overloaded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Overloaded::QueueFull { lane } => write!(f, "queue_full lane={lane}"),
            Overloaded::DeadlineExceeded { lane } => write!(f, "deadline lane={lane}"),
            Overloaded::WorkerFailed { lane } => write!(f, "worker_failed lane={lane}"),
        }
    }
}

/// What a ticket resolves to: a score, or a typed shed.
pub type ScoreOutcome = Result<ScoreResult, Overloaded>;

/// Size/latency bounds for batch formation.
#[derive(Clone, Copy, Debug)]
pub struct BatchPolicy {
    /// Maximum queries per batch.
    pub max_batch: usize,
    /// Maximum time the oldest query waits for a batch to fill.
    pub max_wait: Duration,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_batch: 64,
            max_wait: Duration::from_millis(2),
        }
    }
}

/// Admission-control knobs: lane count, per-lane capacity, SLO budget.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionPolicy {
    /// Batch-formation bounds.
    pub batch: BatchPolicy,
    /// Priority lanes (lane 0 drains first). At least 1.
    pub lanes: usize,
    /// Bounded per-lane queue depth; a full lane sheds with
    /// [`Overloaded::QueueFull`].
    pub queue_cap: usize,
    /// Per-query latency budget (submit → score). Admitted tickets carry
    /// `submitted + slo` as their deadline.
    pub slo: Duration,
    /// Close a forming batch once the oldest ticket is within this margin
    /// of its deadline, even if the batch is not full and `max_wait` has
    /// not elapsed.
    pub slo_margin: Duration,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        let slo = Duration::from_secs(5);
        AdmissionPolicy {
            batch: BatchPolicy::default(),
            lanes: 2,
            queue_cap: 4096,
            slo,
            slo_margin: slo / 4,
        }
    }
}

enum SlotState {
    Waiting,
    Done(ScoreOutcome),
}

struct Oneshot {
    slot: Mutex<SlotState>,
    cv: Condvar,
}

/// Caller's handle to an in-flight query.
pub struct ScoreTicket(Arc<Oneshot>);

impl fmt::Debug for ScoreTicket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ScoreTicket(..)")
    }
}

impl ScoreTicket {
    /// Blocks until the query resolves: a score, or a typed shed
    /// ([`Overloaded::DeadlineExceeded`] when it expired in the queue,
    /// [`Overloaded::WorkerFailed`] when its scoring worker died). Every
    /// drained ticket is guaranteed an outcome — a `Pending` dropped
    /// without one resolves as `WorkerFailed`, so `wait` cannot hang on a
    /// dead worker and never panics.
    pub fn wait(self) -> ScoreOutcome {
        let mut slot = self.0.slot.lock().expect("ticket lock poisoned");
        loop {
            match *slot {
                SlotState::Done(r) => return r,
                SlotState::Waiting => slot = self.0.cv.wait(slot).expect("ticket lock poisoned"),
            }
        }
    }

    /// Blocks up to `timeout`; `None` when the query is still in flight.
    /// Non-destructive: on timeout the ticket remains valid, so callers can
    /// poll again or fall back to a blocking [`ScoreTicket::wait`].
    pub fn wait_timeout(&self, timeout: Duration) -> Option<ScoreOutcome> {
        let deadline = Instant::now() + timeout;
        let mut slot = self.0.slot.lock().expect("ticket lock poisoned");
        loop {
            if let SlotState::Done(r) = *slot {
                return Some(r);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (s, _) = self
                .0
                .cv
                .wait_timeout(slot, deadline - now)
                .expect("ticket lock poisoned");
            slot = s;
        }
    }
}

/// A query waiting in (or drained from) the admission queue.
pub struct Pending {
    /// The question.
    pub query: LinkQuery,
    /// Submission time (latency accounting).
    pub submitted: Instant,
    /// SLO deadline (`submitted + slo`); workers use it for met/missed
    /// accounting, the queue for expiry shedding.
    pub deadline: Instant,
    /// Priority lane the query was admitted to.
    pub lane: usize,
    /// The submitter may submit more before it waits on this ticket.
    streaming: bool,
    ticket: Arc<Oneshot>,
    fulfilled: bool,
}

impl Pending {
    /// Delivers the score to the waiting caller.
    pub fn fulfill(self, result: ScoreResult) {
        self.resolve(Ok(result));
    }

    /// Delivers a typed shed to the waiting caller.
    pub fn reject(self, why: Overloaded) {
        self.resolve(Err(why));
    }

    fn resolve(mut self, outcome: ScoreOutcome) {
        self.fulfilled = true;
        let mut slot = self.ticket.slot.lock().unwrap_or_else(|p| p.into_inner());
        *slot = SlotState::Done(outcome);
        drop(slot);
        self.ticket.cv.notify_all();
    }
}

impl Drop for Pending {
    fn drop(&mut self) {
        if self.fulfilled {
            return;
        }
        // Dropped without an outcome (a worker panic unwound the batch, or
        // the engine was torn down around it): resolve the waiter with the
        // typed worker-failure shed so it cannot hang forever. This is the
        // last-resort path — the supervisor's `fail_batch` normally gets
        // there first *and* keeps the shed counters exact; this one only
        // guarantees liveness.
        let mut slot = self.ticket.slot.lock().unwrap_or_else(|p| p.into_inner());
        if matches!(*slot, SlotState::Waiting) {
            *slot = SlotState::Done(Err(Overloaded::WorkerFailed { lane: self.lane }));
        }
        drop(slot);
        self.ticket.cv.notify_all();
    }
}

/// Point-in-time admission counters for one lane.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LaneAdmission {
    /// Queries admitted into the lane.
    pub admitted: u64,
    /// Queries rejected at the door (lane at capacity).
    pub shed_full: u64,
    /// Admitted queries dropped unscored after their deadline passed.
    pub shed_deadline: u64,
    /// Drained queries resolved as [`Overloaded::WorkerFailed`] because
    /// their scoring worker panicked mid-batch.
    pub shed_worker_failed: u64,
    /// Queries currently waiting in the lane.
    pub queued: u64,
    /// Queries drained into a batch but not yet recorded as scored.
    pub in_flight: u64,
}

struct LaneCounters {
    admitted: AtomicU64,
    shed_full: AtomicU64,
    shed_deadline: AtomicU64,
    /// Bumped (with the matching `in_flight` decrement) under the shared
    /// admission lock in [`AdmissionQueue::fail_batch`], so the failure
    /// transition is atomic from a snapshot reader's point of view.
    shed_worker_failed: AtomicU64,
    /// Drained-but-not-yet-recorded queries. Incremented under the shared
    /// lock at drain; decremented by the scoring worker while it holds its
    /// own metrics shard lock (see [`AdmissionQueue::mark_done`]) — which
    /// is exactly what lets [`ServeEngine::stats`] take a skew-free
    /// snapshot where `admitted == scored + shed_deadline +
    /// shed_worker_failed + queued + in_flight` holds as an identity, not
    /// just eventually.
    ///
    /// [`ServeEngine::stats`]: crate::engine::ServeEngine::stats
    in_flight: AtomicU64,
    /// Registry gauges mirroring the lane's queue depth and in-flight
    /// count, resolved once at construction and updated with relaxed
    /// stores on the admission path. Counter totals in a `metrics` scrape
    /// cannot show buildup *between* stats snapshots; these gauges can.
    /// (Named `taser_admission_*` — the stats renderer already emits
    /// `taser_serve_queue_depth`/`taser_serve_in_flight` from its own
    /// snapshot, and the two sources must not collide in one scrape.)
    depth_gauge: Arc<taser_obs::Gauge>,
    in_flight_gauge: Arc<taser_obs::Gauge>,
}

struct Shared {
    lanes: Vec<VecDeque<Pending>>,
    /// Queued streaming tickets; batches wait on a timer only while this
    /// is non-zero. [`Shared::pop`], the one way out of a lane, keeps it.
    streaming: usize,
    closed: bool,
}

impl Shared {
    fn pop(&mut self, lane: usize) -> Option<Pending> {
        let p = self.lanes[lane].pop_front()?;
        self.streaming -= usize::from(p.streaming);
        Some(p)
    }
}

/// Why `next_batch` stopped waiting; indexes [`CLOSE_REASONS`].
#[derive(Clone, Copy)]
enum Close {
    Full,
    Blocking,
    Timer,
    SloMargin,
    Closed,
}

const CLOSE_REASONS: [&str; 5] = ["full", "blocking", "timer", "slo_margin", "closed"];

/// MPMC admission queue: bounded priority lanes in, deadline-aware batches
/// out.
pub struct AdmissionQueue {
    shared: Mutex<Shared>,
    notify: Condvar,
    policy: AdmissionPolicy,
    counters: Vec<LaneCounters>,
    /// `taser_admission_batch_close_total{reason=...}`, indexed by
    /// [`Close`], bumped once per drained batch: why `mean_batch` is what
    /// it is.
    closes: [Arc<taser_obs::Counter>; CLOSE_REASONS.len()],
}

impl AdmissionQueue {
    /// An open queue under `policy`.
    pub fn new(policy: AdmissionPolicy) -> Self {
        assert!(policy.batch.max_batch >= 1, "max_batch must be positive");
        assert!(policy.lanes >= 1, "need at least one lane");
        assert!(policy.queue_cap >= 1, "queue_cap must be positive");
        AdmissionQueue {
            shared: Mutex::new(Shared {
                lanes: (0..policy.lanes).map(|_| VecDeque::new()).collect(),
                streaming: 0,
                closed: false,
            }),
            notify: Condvar::new(),
            policy,
            counters: (0..policy.lanes)
                .map(|lane| LaneCounters {
                    admitted: AtomicU64::new(0),
                    shed_full: AtomicU64::new(0),
                    shed_deadline: AtomicU64::new(0),
                    shed_worker_failed: AtomicU64::new(0),
                    in_flight: AtomicU64::new(0),
                    depth_gauge: taser_obs::global()
                        .gauge(&format!("taser_admission_queue_depth{{lane=\"{lane}\"}}")),
                    in_flight_gauge: taser_obs::global()
                        .gauge(&format!("taser_admission_in_flight{{lane=\"{lane}\"}}")),
                })
                .collect(),
            closes: CLOSE_REASONS.map(|reason| {
                taser_obs::global().counter(&format!(
                    "taser_admission_batch_close_total{{reason=\"{reason}\"}}"
                ))
            }),
        }
    }

    /// The active policy.
    pub fn policy(&self) -> AdmissionPolicy {
        self.policy
    }

    /// Tries to admit a query into `lane` (clamped to the configured lane
    /// count). Returns the caller's ticket, or sheds immediately when the
    /// lane is at capacity. A closed queue (engine shutting down) sheds at
    /// the door with [`Overloaded::QueueFull`] — a draining server must
    /// answer late clients with typed backpressure, not a panic.
    ///
    /// The ticket is *streaming*: the caller may submit more before it
    /// waits, so a forming batch lingers for the rest of the stream.
    pub fn submit(&self, query: LinkQuery, lane: usize) -> Result<ScoreTicket, Overloaded> {
        self.admit(query, lane, true)
    }

    /// [`AdmissionQueue::submit`] for a caller that waits on this ticket
    /// before it submits anything else: no batch lingers on its account.
    pub fn submit_blocking(
        &self,
        query: LinkQuery,
        lane: usize,
    ) -> Result<ScoreTicket, Overloaded> {
        self.admit(query, lane, false)
    }

    pub(crate) fn admit(
        &self,
        query: LinkQuery,
        lane: usize,
        streaming: bool,
    ) -> Result<ScoreTicket, Overloaded> {
        let lane = lane.min(self.policy.lanes - 1);
        let mut q = self.shared.lock().expect("admission lock poisoned");
        if q.closed {
            self.counters[lane]
                .shed_full
                .fetch_add(1, Ordering::Relaxed);
            return Err(Overloaded::QueueFull { lane });
        }
        if q.lanes[lane].len() >= self.policy.queue_cap {
            self.counters[lane]
                .shed_full
                .fetch_add(1, Ordering::Relaxed);
            return Err(Overloaded::QueueFull { lane });
        }
        let submitted = Instant::now();
        let ticket = Arc::new(Oneshot {
            slot: Mutex::new(SlotState::Waiting),
            cv: Condvar::new(),
        });
        q.lanes[lane].push_back(Pending {
            query,
            submitted,
            deadline: submitted + self.policy.slo,
            lane,
            streaming,
            ticket: ticket.clone(),
            fulfilled: false,
        });
        q.streaming += usize::from(streaming);
        self.counters[lane].admitted.fetch_add(1, Ordering::Relaxed);
        self.counters[lane]
            .depth_gauge
            .set(q.lanes[lane].len() as i64);
        drop(q);
        self.notify.notify_one();
        Ok(ScoreTicket(ticket))
    }

    /// Queries currently waiting across all lanes.
    pub fn backlog(&self) -> usize {
        self.shared
            .lock()
            .expect("admission lock poisoned")
            .lanes
            .iter()
            .map(VecDeque::len)
            .sum()
    }

    /// Queued streaming tickets (see [`AdmissionQueue::submit`]); at zero
    /// the next batch closes without waiting on a timer.
    pub fn streaming_queued(&self) -> usize {
        self.freeze().shared.streaming
    }

    /// Per-lane admission counters (admitted / shed at door / shed expired
    /// / queued / in flight), read under the shared lock so the lanes are
    /// mutually consistent.
    pub fn lane_admission(&self) -> Vec<LaneAdmission> {
        self.freeze().lanes()
    }

    /// [`AdmissionQueue::lane_admission`] into caller-owned storage
    /// (`out.len()` must equal the lane count). Allocation-free: the health
    /// watchdog samples lanes on a fixed period and must not allocate in
    /// steady state.
    pub fn lane_admission_into(&self, out: &mut [LaneAdmission]) {
        self.freeze().lanes_into(out);
    }

    /// Takes the admission lock and holds it for the guard's lifetime,
    /// freezing submits, door sheds, expiry sheds, and batch drains.
    ///
    /// The guard does **not** sample the counters at freeze time — call
    /// [`FrozenAdmission::lanes`] when every lock the snapshot depends on
    /// is held. The scoring side (`in_flight` decrement + scored recording)
    /// runs under per-worker metrics shard locks, not this lock, so a
    /// caller wanting the exact identity
    /// `admitted = scored + shed_deadline + shed_worker_failed + queued +
    /// in_flight` must freeze first, acquire *all* shard locks,
    /// and only then read the lanes; sampling before the shard locks are
    /// held would let a worker book a score (and decrement `in_flight`)
    /// between the read and the shard freeze, counting the same query as
    /// both in-flight and scored.
    pub fn freeze(&self) -> FrozenAdmission<'_> {
        FrozenAdmission {
            queue: self,
            shared: self.shared.lock().expect("admission lock poisoned"),
        }
    }

    /// Marks one drained query as finished (scored). Workers call this
    /// while holding their own metrics shard lock, in the same critical
    /// section that records the score — keeping the in-flight counter and
    /// the scored histogram in lockstep for snapshot readers.
    pub fn mark_done(&self, lane: usize) {
        let c = &self.counters[lane.min(self.policy.lanes - 1)];
        c.in_flight.fetch_sub(1, Ordering::Relaxed);
        c.in_flight_gauge.add(-1);
    }

    /// Resolves every drained-but-unscored query in `batch` with
    /// [`Overloaded::WorkerFailed`], moving each from `in_flight` to
    /// `shed_worker_failed` under the shared admission lock — a single
    /// atomic transition from a snapshot reader's point of view, so the
    /// identity `admitted == scored + shed_deadline + shed_worker_failed +
    /// queued + in_flight` survives a worker panic exactly. Called by the
    /// worker's `catch_unwind` recovery site with whatever the batch still
    /// held when the panic unwound it.
    pub fn fail_batch(&self, batch: &mut Vec<Pending>) {
        if batch.is_empty() {
            return;
        }
        let _freeze = self.shared.lock().expect("admission lock poisoned");
        for p in batch.drain(..) {
            let lane = p.lane.min(self.policy.lanes - 1);
            let c = &self.counters[lane];
            c.shed_worker_failed.fetch_add(1, Ordering::Relaxed);
            c.in_flight.fetch_sub(1, Ordering::Relaxed);
            c.in_flight_gauge.add(-1);
            p.reject(Overloaded::WorkerFailed { lane });
        }
    }

    /// True once [`AdmissionQueue::close`] has been called. The supervisor
    /// uses this to tell a crashed worker (respawn) from one that exited
    /// because the queue drained at shutdown (leave down).
    pub fn is_closed(&self) -> bool {
        self.shared.lock().expect("admission lock poisoned").closed
    }

    /// Drops every queued ticket whose deadline has passed, resolving each
    /// with [`Overloaded::DeadlineExceeded`]. Lanes are FIFO with a uniform
    /// SLO, so expired tickets are always a prefix of each lane.
    fn shed_expired(&self, q: &mut Shared, now: Instant) {
        for lane_no in 0..q.lanes.len() {
            let before = q.lanes[lane_no].len();
            while q.lanes[lane_no].front().is_some_and(|p| p.deadline <= now) {
                let p = q.pop(lane_no).expect("checked nonempty");
                self.counters[lane_no]
                    .shed_deadline
                    .fetch_add(1, Ordering::Relaxed);
                p.reject(Overloaded::DeadlineExceeded { lane: lane_no });
            }
            let left = q.lanes[lane_no].len();
            if left != before {
                self.counters[lane_no].depth_gauge.set(left as i64);
            }
        }
    }

    /// Earliest instant at which the forming batch must close, and which
    /// bound set it: per lane front (its oldest ticket), the sooner of
    /// `submitted + max_wait` and `deadline - slo_margin`, minimized across
    /// lanes.
    fn close_deadline(&self, q: &Shared) -> (Instant, Close) {
        let bounds = q.lanes.iter().filter_map(VecDeque::front).map(|p| {
            let by_wait = p.submitted + self.policy.batch.max_wait;
            let by_slo = p
                .deadline
                .checked_sub(self.policy.slo_margin)
                .unwrap_or(p.submitted);
            if by_slo < by_wait {
                (by_slo, Close::SloMargin)
            } else {
                (by_wait, Close::Timer)
            }
        });
        bounds
            .min_by_key(|&(at, _)| at)
            .expect("close_deadline on an empty queue")
    }

    /// Blocks for the next batch and drains it into `batch` (the caller's
    /// recycled buffer, passed in empty): returns as soon as `max_batch`
    /// queries are waiting, no queued ticket is streaming (nobody is left
    /// to join), `max_wait` after the oldest arrived, or when the oldest
    /// nears its SLO deadline — whichever is earliest. Higher-priority
    /// lanes drain first (FIFO within a lane). Expired tickets are shed
    /// (never returned). Returns `false` only when the queue is closed
    /// *and* drained — workers use that as their exit signal.
    pub fn next_batch(&self, batch: &mut Vec<Pending>) -> bool {
        let mut q = self.shared.lock().expect("admission lock poisoned");
        let why = loop {
            self.shed_expired(&mut q, Instant::now());
            let total: usize = q.lanes.iter().map(VecDeque::len).sum();
            if total == 0 {
                if q.closed {
                    return false;
                }
                q = self.notify.wait(q).expect("admission lock poisoned");
                continue;
            }
            if total >= self.policy.batch.max_batch {
                break Close::Full;
            }
            if q.closed {
                break Close::Closed;
            }
            if q.streaming == 0 {
                break Close::Blocking;
            }
            let (close_at, bound) = self.close_deadline(&q);
            let now = Instant::now();
            if now >= close_at {
                break bound;
            }
            let (guard, _) = self
                .notify
                .wait_timeout(q, close_at - now)
                .expect("admission lock poisoned");
            q = guard;
        };
        self.closes[why as usize].inc();
        for lane_no in 0..q.lanes.len() {
            let before = q.lanes[lane_no].len();
            while batch.len() < self.policy.batch.max_batch {
                let Some(p) = q.pop(lane_no) else { break };
                // still under the shared lock: queued → in_flight is one
                // atomic transition from a snapshot reader's point of view
                let c = &self.counters[lane_no];
                c.in_flight.fetch_add(1, Ordering::Relaxed);
                c.in_flight_gauge.add(1);
                batch.push(p);
            }
            let left = q.lanes[lane_no].len();
            if left != before {
                self.counters[lane_no].depth_gauge.set(left as i64);
            }
        }
        true
    }

    /// Closes the queue: wakes every waiter; `next_batch` drains what is
    /// queued and then reports `false`.
    pub fn close(&self) {
        self.shared.lock().expect("admission lock poisoned").closed = true;
        self.notify.notify_all();
    }
}

/// The admission lock, held: submits, door sheds, expiry sheds, and batch
/// drains are frozen until the guard drops. See [`AdmissionQueue::freeze`]
/// for the locking discipline that makes [`FrozenAdmission::lanes`] an
/// exact cross-shard snapshot.
pub struct FrozenAdmission<'a> {
    queue: &'a AdmissionQueue,
    shared: std::sync::MutexGuard<'a, Shared>,
}

impl FrozenAdmission<'_> {
    /// Samples the per-lane counters *now*, under the frozen admission
    /// lock. Exactness of `in_flight` additionally requires the caller to
    /// hold every worker metrics shard lock at the moment of this call.
    pub fn lanes(&self) -> Vec<LaneAdmission> {
        let mut out = vec![LaneAdmission::default(); self.queue.counters.len()];
        self.lanes_into(&mut out);
        out
    }

    /// [`FrozenAdmission::lanes`] into caller-owned storage (allocation
    /// free; `out.len()` must equal the lane count).
    pub fn lanes_into(&self, out: &mut [LaneAdmission]) {
        assert_eq!(out.len(), self.queue.counters.len(), "lane count mismatch");
        for (i, (slot, c)) in out.iter_mut().zip(self.queue.counters.iter()).enumerate() {
            *slot = LaneAdmission {
                admitted: c.admitted.load(Ordering::Relaxed),
                shed_full: c.shed_full.load(Ordering::Relaxed),
                shed_deadline: c.shed_deadline.load(Ordering::Relaxed),
                shed_worker_failed: c.shed_worker_failed.load(Ordering::Relaxed),
                queued: self.shared.lanes[i].len() as u64,
                in_flight: c.in_flight.load(Ordering::Relaxed),
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(src: u32) -> LinkQuery {
        LinkQuery {
            src,
            dst: 100,
            t: 1.0,
        }
    }

    /// One `next_batch` into a fresh buffer; `None` is the exit signal.
    fn next(b: &AdmissionQueue) -> Option<Vec<Pending>> {
        let mut batch = Vec::new();
        b.next_batch(&mut batch).then_some(batch)
    }

    /// Process-wide close counter for `reason`. Other tests in this binary
    /// bump it concurrently, so assertions on it are lower bounds.
    fn closes(reason: &str) -> u64 {
        taser_obs::global()
            .counter(&format!(
                "taser_admission_batch_close_total{{reason=\"{reason}\"}}"
            ))
            .get()
    }

    fn policy(max_batch: usize, max_wait: Duration) -> AdmissionPolicy {
        AdmissionPolicy {
            batch: BatchPolicy {
                max_batch,
                max_wait,
            },
            ..AdmissionPolicy::default()
        }
    }

    #[test]
    fn full_batch_returns_without_waiting_out_the_clock() {
        let b = AdmissionQueue::new(policy(4, Duration::from_secs(60)));
        for i in 0..4 {
            b.submit(q(i), 0).unwrap();
        }
        let start = Instant::now();
        let batch = next(&b).unwrap();
        assert_eq!(batch.len(), 4);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "a full batch must not linger"
        );
        assert_eq!(batch[0].query.src, 0, "FIFO order");
    }

    #[test]
    fn partial_batch_released_by_latency_bound() {
        let b = AdmissionQueue::new(policy(1000, Duration::from_millis(20)));
        b.submit(q(7), 0).unwrap();
        let batch = next(&b).unwrap();
        assert_eq!(batch.len(), 1, "latency bound must release the batch");
    }

    #[test]
    fn blocking_only_queue_closes_without_the_timer() {
        // nobody queued can add to the batch, so an hour-long max_wait
        // (and a far-off SLO margin) must not hold it
        let b = AdmissionQueue::new(policy(1000, Duration::from_secs(3600)));
        for i in 0..3 {
            b.submit_blocking(q(i), 0).unwrap();
        }
        assert_eq!(b.streaming_queued(), 0);
        let closed_before = closes("blocking");
        let start = Instant::now();
        let batch = next(&b).unwrap();
        assert!(
            closes("blocking") > closed_before,
            "close reason is counted"
        );
        assert!(
            start.elapsed() < Duration::from_millis(50),
            "blocking tickets waited {:?} for company that cannot come",
            start.elapsed()
        );
        assert_eq!(batch.len(), 3, "everything queued rides along, FIFO");
        assert_eq!(batch[0].query.src, 0);
    }

    #[test]
    fn one_streaming_ticket_restores_timer_and_max_batch_close() {
        // timer: the streaming ticket's submitter may still be sending, so
        // the batch lingers for max_wait even beside blocking tickets
        let b = AdmissionQueue::new(policy(4, Duration::from_millis(40)));
        b.submit_blocking(q(0), 0).unwrap();
        b.submit(q(1), 0).unwrap();
        assert_eq!(b.streaming_queued(), 1);
        let closed_before = closes("timer");
        let start = Instant::now();
        assert_eq!(next(&b).unwrap().len(), 2);
        assert!(closes("timer") > closed_before, "close reason is counted");
        assert!(
            start.elapsed() >= Duration::from_millis(20),
            "a streaming ticket must hold the batch open ({:?})",
            start.elapsed()
        );
        assert_eq!(b.streaming_queued(), 0, "drained tickets leave the count");

        // max_batch: an hour-long timer, closed by the fourth ticket
        let b = Arc::new(AdmissionQueue::new(policy(4, Duration::from_secs(3600))));
        b.submit(q(0), 0).unwrap();
        let worker = {
            let b = b.clone();
            std::thread::spawn(move || next(&b).unwrap().len())
        };
        for i in 1..4 {
            b.submit_blocking(q(i), 0).unwrap();
        }
        assert_eq!(
            worker.join().unwrap(),
            4,
            "held until full, not closed early"
        );
    }

    #[test]
    fn streaming_count_returns_to_zero_through_every_exit() {
        // expiry shed
        let b = AdmissionQueue::new(AdmissionPolicy {
            slo: Duration::ZERO,
            ..policy(10, Duration::from_secs(3600))
        });
        let t = b.submit(q(1), 0).unwrap();
        assert_eq!(b.streaming_queued(), 1);
        b.close();
        assert!(next(&b).is_none());
        assert_eq!(t.wait(), Err(Overloaded::DeadlineExceeded { lane: 0 }));
        assert_eq!(b.streaming_queued(), 0, "shed_expired");

        // close, drain in max_batch pieces across lanes, fail_batch, and a
        // batch dropped unresolved (a worker that died holding it)
        let b = AdmissionQueue::new(policy(2, Duration::from_secs(3600)));
        let tickets: Vec<_> = (0..5)
            .map(|i| b.submit(q(i), (i % 2) as usize).unwrap())
            .collect();
        assert_eq!(b.streaming_queued(), 5);
        b.close();
        assert_eq!(b.streaming_queued(), 5, "close alone drops nothing");
        let mut first = next(&b).unwrap();
        assert_eq!(b.streaming_queued(), 3);
        b.fail_batch(&mut first);
        assert_eq!(b.streaming_queued(), 3, "fail_batch holds no queued ticket");
        drop(next(&b).unwrap());
        assert_eq!(b.streaming_queued(), 1);
        assert_eq!(next(&b).unwrap().len(), 1);
        assert_eq!(b.streaming_queued(), 0);
        assert!(next(&b).is_none());
        for t in tickets {
            assert!(matches!(t.wait(), Err(Overloaded::WorkerFailed { .. })));
        }
    }

    #[test]
    fn deadline_close_preempts_max_wait() {
        // max_wait is an hour, but the single ticket's SLO budget is 90ms
        // with a 50ms margin: the batch must close ~40ms after submission.
        let b = AdmissionQueue::new(AdmissionPolicy {
            batch: BatchPolicy {
                max_batch: 1000,
                max_wait: Duration::from_secs(3600),
            },
            slo: Duration::from_millis(90),
            slo_margin: Duration::from_millis(50),
            ..AdmissionPolicy::default()
        });
        let t = b.submit(q(1), 0).unwrap();
        let start = Instant::now();
        let batch = next(&b).unwrap();
        let waited = start.elapsed();
        assert_eq!(batch.len(), 1);
        assert!(
            waited < Duration::from_secs(30),
            "SLO margin must close the batch long before max_wait ({waited:?})"
        );
        assert!(
            waited >= Duration::from_millis(20),
            "the batch should linger up to deadline - margin ({waited:?})"
        );
        batch.into_iter().next().unwrap().fulfill(ScoreResult {
            prob: 0.5,
            generation: 0,
        });
        assert!(t.wait().is_ok());
    }

    #[test]
    fn queue_cap_rejects_per_lane_and_high_lane_still_admits() {
        let b = AdmissionQueue::new(AdmissionPolicy {
            lanes: 2,
            queue_cap: 2,
            ..policy(1000, Duration::from_secs(60))
        });
        // fill the low-priority lane to its cap
        b.submit(q(10), 1).unwrap();
        b.submit(q(11), 1).unwrap();
        assert_eq!(
            b.submit(q(12), 1).unwrap_err(),
            Overloaded::QueueFull { lane: 1 },
            "third low-lane submit must shed"
        );
        // the high-priority lane has its own budget
        b.submit(q(0), 0).unwrap();
        let counters = b.lane_admission();
        assert_eq!(counters[0].admitted, 1);
        assert_eq!(counters[0].shed_full, 0);
        assert_eq!(counters[1].admitted, 2);
        assert_eq!(counters[1].shed_full, 1);
        // priority order: lane 0 drains before lane 1 despite arriving last
        let batch = next(&b).unwrap();
        let srcs: Vec<u32> = batch.iter().map(|p| p.query.src).collect();
        assert_eq!(srcs, vec![0, 10, 11], "lane 0 first, then lane 1 FIFO");
    }

    #[test]
    fn lane_out_of_range_clamps_to_last() {
        let b = AdmissionQueue::new(AdmissionPolicy {
            lanes: 2,
            ..policy(10, Duration::from_millis(1))
        });
        b.submit(q(1), 99).unwrap();
        assert_eq!(b.lane_admission()[1].admitted, 1);
    }

    #[test]
    fn expired_tickets_are_shed_with_typed_outcome() {
        let b = AdmissionQueue::new(AdmissionPolicy {
            slo: Duration::ZERO, // every ticket is born expired
            ..policy(10, Duration::from_millis(1))
        });
        let t = b.submit(q(1), 0).unwrap();
        b.close();
        // the drain sheds the expired ticket and then reports exhaustion
        assert!(next(&b).is_none());
        assert_eq!(t.wait(), Err(Overloaded::DeadlineExceeded { lane: 0 }));
        assert_eq!(b.lane_admission()[0].shed_deadline, 1);
    }

    #[test]
    fn oversized_backlog_splits_into_batches() {
        let b = AdmissionQueue::new(policy(3, Duration::from_millis(1)));
        for i in 0..7 {
            b.submit(q(i), 0).unwrap();
        }
        let sizes: Vec<usize> = (0..3).map(|_| next(&b).unwrap().len()).collect();
        assert_eq!(sizes, vec![3, 3, 1]);
    }

    #[test]
    fn tickets_deliver_across_threads() {
        let b = Arc::new(AdmissionQueue::new(AdmissionPolicy::default()));
        let worker = {
            let b = b.clone();
            std::thread::spawn(move || {
                let batch = next(&b).unwrap();
                for (i, p) in batch.into_iter().enumerate() {
                    p.fulfill(ScoreResult {
                        prob: 0.25 + i as f32,
                        generation: 9,
                    });
                }
            })
        };
        let t1 = b.submit(q(1), 0).unwrap();
        let t2 = b.submit(q(2), 0).unwrap();
        let r1 = t1.wait().expect("scored");
        let r2 = t2
            .wait_timeout(Duration::from_secs(10))
            .expect("fulfilled")
            .expect("scored");
        assert_eq!(r1.generation, 9);
        assert!(r2.prob > r1.prob, "FIFO fulfillment order");
        worker.join().unwrap();
    }

    #[test]
    fn close_drains_then_signals_exit() {
        let b = AdmissionQueue::new(policy(10, Duration::from_millis(1)));
        b.submit(q(1), 0).unwrap();
        b.close();
        assert_eq!(next(&b).unwrap().len(), 1);
        assert!(next(&b).is_none(), "closed + drained = exit signal");
        assert_eq!(b.backlog(), 0);
    }

    #[test]
    fn wait_timeout_expires_on_unfulfilled_ticket() {
        let b = AdmissionQueue::new(AdmissionPolicy::default());
        let t = b.submit(q(1), 0).unwrap();
        assert!(t.wait_timeout(Duration::from_millis(10)).is_none());
    }

    #[test]
    fn wait_timeout_is_retryable_then_resolves() {
        let b = Arc::new(AdmissionQueue::new(policy(1, Duration::from_millis(1))));
        let t = b.submit(q(1), 0).unwrap();
        assert!(t.wait_timeout(Duration::from_millis(5)).is_none());
        let worker = {
            let b = b.clone();
            std::thread::spawn(move || {
                for p in next(&b).unwrap() {
                    p.fulfill(ScoreResult {
                        prob: 0.5,
                        generation: 1,
                    });
                }
            })
        };
        // the timed-out ticket is still live and eventually resolves
        assert_eq!(t.wait().expect("scored").generation, 1);
        worker.join().unwrap();
    }

    /// The registry gauges mirror queue depth and in-flight through the
    /// whole admit → drain → done cycle. Uses a 5-lane queue so lane 4's
    /// gauge names are not shared with the 2-lane queues other tests run
    /// concurrently against the process-global registry.
    #[test]
    fn registry_gauges_track_depth_and_in_flight() {
        let depth = taser_obs::global().gauge("taser_admission_queue_depth{lane=\"4\"}");
        let in_flight = taser_obs::global().gauge("taser_admission_in_flight{lane=\"4\"}");
        let b = AdmissionQueue::new(AdmissionPolicy {
            lanes: 5,
            ..policy(8, Duration::from_millis(1))
        });
        let tickets: Vec<_> = (0..3).map(|i| b.submit(q(i), 4).unwrap()).collect();
        assert_eq!(depth.get(), 3, "three queued after three submits");
        assert_eq!(in_flight.get(), 0);
        let batch = next(&b).unwrap();
        assert_eq!(depth.get(), 0, "drain empties the lane");
        assert_eq!(in_flight.get(), 3, "drained queries are in flight");
        for p in batch {
            let lane = p.lane;
            p.fulfill(ScoreResult {
                prob: 0.5,
                generation: 0,
            });
            b.mark_done(lane);
        }
        assert_eq!(in_flight.get(), 0, "mark_done returns the gauge to zero");
        for t in tickets {
            assert!(t.wait().is_ok());
        }
    }

    #[test]
    fn dropped_batch_resolves_waiters_as_worker_failed() {
        let b = AdmissionQueue::new(policy(4, Duration::from_millis(1)));
        let t = b.submit(q(1), 0).unwrap();
        // simulate a worker that drained the batch and then died without
        // reaching the fail_batch recovery site
        drop(next(&b));
        assert_eq!(t.wait(), Err(Overloaded::WorkerFailed { lane: 0 }));
    }

    #[test]
    fn fail_batch_moves_in_flight_to_shed_worker_failed() {
        let b = AdmissionQueue::new(policy(8, Duration::from_millis(1)));
        let tickets: Vec<_> = (0..3).map(|i| b.submit(q(i), 0).unwrap()).collect();
        let mut batch = next(&b).unwrap();
        assert_eq!(b.lane_admission()[0].in_flight, 3);
        b.fail_batch(&mut batch);
        assert!(batch.is_empty());
        let lane = b.lane_admission()[0];
        assert_eq!(lane.shed_worker_failed, 3);
        assert_eq!(lane.in_flight, 0);
        assert_eq!(
            lane.admitted,
            lane.shed_deadline + lane.shed_worker_failed + lane.queued + lane.in_flight,
            "identity holds through the failure"
        );
        for t in tickets {
            assert_eq!(t.wait(), Err(Overloaded::WorkerFailed { lane: 0 }));
        }
    }
}
