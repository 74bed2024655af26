//! The serving engine: snapshot store + admission control + worker pool.
//!
//! One [`ServeEngine`] owns the whole online subsystem. Callers on any
//! thread [`ServeEngine::submit`] link queries and [`ServeEngine::ingest`]
//! streaming events concurrently; `workers` scoring threads drain the
//! admission queue in deadline-aware batches, pin the latest published
//! snapshot for the duration of a batch, and run the frozen pipeline.
//! The front end is admission-controlled: per-priority lanes are bounded,
//! and under overload queries are shed with a typed
//! [`Overloaded`] outcome instead of queueing
//! without bound. Shutdown is graceful: dropping the engine closes the
//! queue, lets the workers drain what is admitted, and joins them.
//!
//! The engine is **self-healing**: each worker runs its batches under
//! `catch_unwind`, and a panic mid-batch resolves every query the batch
//! still held with [`Overloaded::WorkerFailed`] (via
//! `AdmissionQueue::fail_batch`, which keeps the admission identity
//! exact), then exits the thread crash-only — its scratch state may be
//! poisoned, so it is never reused. The watchdog doubles as supervisor:
//! it detects the dead worker and respawns a fresh one, bumping
//! `taser_worker_restarts_total` and the worker-restart health gate.
//! Fault injection for all of this is declarative via
//! [`ServeConfig::faults`] (a [`FaultPlan`]).
//!
//! Boot [`ServeEngine::new_durable`] instead of [`ServeEngine::new`] to
//! make ingest crash-safe: events are framed into a WAL and periodically
//! checkpointed, and a restart recovers the pre-crash graph + index
//! bit-identically (see [`crate::snapshot::DurabilityConfig`]).

use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use taser_graph::events::{Event, EventLog};
use taser_models::artifact::ModelArtifact;
use taser_obs::{Stage, StageNanos};
use taser_sample::SamplePolicy;

use crate::admission::{
    AdmissionPolicy, AdmissionQueue, BatchPolicy, LaneAdmission, LinkQuery, Overloaded, Pending,
    ScoreOutcome, ScoreResult, ScoreTicket,
};
use crate::fault::{FaultPlan, FaultState};
use crate::features::ServeFeatureCache;
use crate::health::{HealthConfig, HealthMonitor, HealthSample, LaneSampleTotals};
use crate::pipeline::{ScorePath, ScorePipeline, ScoreScratch};
use crate::replication::{Applied, ReplicationHub};
use crate::snapshot::{DurabilityConfig, IndexBackend, RecoveryReport, SnapshotStore};
use crate::stats::{LaneStats, LatencyHistogram, ServeStats};

/// Engine construction knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Scoring worker threads.
    pub workers: usize,
    /// Micro-batch bounds.
    pub batch: BatchPolicy,
    /// Per-query latency budget (submit → score). Queries that would blow
    /// it are shed instead of queued; batches close early as the oldest
    /// ticket approaches it.
    pub slo: Duration,
    /// Deadline-close margin; `None` derives `slo / 4`.
    pub slo_margin: Option<Duration>,
    /// Bounded per-lane admission queue depth (overload sheds beyond it).
    pub queue_cap: usize,
    /// Priority lanes (lane 0 drains first).
    pub lanes: usize,
    /// Ingests between automatic snapshot publishes (0 = manual only).
    pub publish_every: usize,
    /// Cached fraction of the edge-feature table (Algorithm 3 as a serving
    /// cache; `<= 0` disables the cache tier).
    pub cache_ratio: f64,
    /// Cache replacement threshold ε.
    pub cache_epsilon: f64,
    /// Scored queries per cache maintenance pass (0 = never).
    pub cache_epoch_requests: u64,
    /// Overrides the backbone's default neighbor-finding policy.
    pub policy_override: Option<SamplePolicy>,
    /// Which index implementation backs snapshot publishes (`Rebuild` =
    /// O(E) full rebuild, `Incremental` = O(Δ) sharded chunk index).
    pub index_backend: IndexBackend,
    /// Seed for the cache's random initial content.
    pub seed: u64,
    /// Health watchdog: windowed rates, burn-rate alerts, stall/queue/lag
    /// detection, and the stage-occupancy sampler.
    pub health: HealthConfig,
    /// Unified fault injection (worker stall, panic-at-Nth-batch, slow
    /// WAL flush, corrupt WAL record). All off by default; exists so the
    /// chaos suite can exercise the supervisor, the typed worker-failure
    /// shed, and WAL recovery against real injected failures.
    pub faults: FaultPlan,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            batch: BatchPolicy::default(),
            // generous default: admission control only bites when an
            // operator dials in a real budget (closed-loop callers and the
            // test suite keep their pre-admission behavior)
            slo: Duration::from_secs(5),
            slo_margin: None,
            queue_cap: 4096,
            lanes: 2,
            publish_every: 256,
            cache_ratio: 0.2,
            cache_epsilon: 0.7,
            cache_epoch_requests: 4096,
            policy_override: None,
            index_backend: IndexBackend::default(),
            seed: 0x5EE7,
            health: HealthConfig::default(),
            faults: FaultPlan::default(),
        }
    }
}

impl ServeConfig {
    fn admission_policy(&self) -> AdmissionPolicy {
        AdmissionPolicy {
            batch: self.batch,
            lanes: self.lanes.max(1),
            queue_cap: self.queue_cap.max(1),
            slo: self.slo,
            slo_margin: self.slo_margin.unwrap_or(self.slo / 4),
        }
    }
}

/// Per-lane latency + SLO accounting, one per worker per lane (merged on
/// read, so recording never contends across workers).
#[derive(Default)]
struct LaneLatency {
    hist: LatencyHistogram,
    slo_met: u64,
    slo_missed: u64,
}

struct WorkerMetrics {
    batches: u64,
    queries: u64,
    stages: StageNanos,
    lanes: Vec<LaneLatency>,
}

impl WorkerMetrics {
    fn new(lanes: usize) -> Self {
        WorkerMetrics {
            batches: 0,
            queries: 0,
            stages: StageNanos::default(),
            lanes: (0..lanes).map(|_| LaneLatency::default()).collect(),
        }
    }
}

/// Per-worker liveness beat the watchdog reads: nanoseconds since the
/// engine epoch when the worker went busy on its current batch, offset by
/// one so `0` can mean idle. Relaxed ordering throughout — a beat stale by
/// an evaluation period is noise against `stall_after`.
struct WorkerBeat {
    busy_since_ns: AtomicU64,
}

impl WorkerBeat {
    fn new() -> Self {
        WorkerBeat {
            busy_since_ns: AtomicU64::new(0),
        }
    }

    fn set_busy(&self, epoch: Instant) {
        let ns = Instant::now()
            .saturating_duration_since(epoch)
            .as_nanos()
            .min(u64::MAX as u128 - 1) as u64;
        self.busy_since_ns.store(ns + 1, Ordering::Relaxed);
    }

    fn set_idle(&self) {
        self.busy_since_ns.store(0, Ordering::Relaxed);
    }

    fn busy_for(&self, epoch: Instant) -> Option<Duration> {
        match self.busy_since_ns.load(Ordering::Relaxed) {
            0 => None,
            ns => Some(
                Instant::now()
                    .saturating_duration_since(epoch)
                    .saturating_sub(Duration::from_nanos(ns - 1)),
            ),
        }
    }
}

/// Everything a scoring worker (or its respawned replacement) needs,
/// behind one `Arc` so the supervisor can spawn replacements without
/// re-threading a dozen handles.
struct WorkerHost {
    snapshots: Arc<SnapshotStore>,
    admission: Arc<AdmissionQueue>,
    pipeline: Arc<ScorePipeline>,
    features: Arc<ServeFeatureCache>,
    worker_metrics: Vec<Mutex<WorkerMetrics>>,
    beats: Vec<WorkerBeat>,
    epoch: Instant,
    ingests: AtomicU64,
    plan: FaultPlan,
    fault_state: FaultState,
    /// Lifetime worker respawns (mirrored into the registry counter).
    restarts: AtomicU64,
    restart_counter: Arc<taser_obs::Counter>,
    /// Replication role + feed progress (always present; idle and
    /// allocation-free on a standalone engine).
    repl: ReplState,
    /// The primary-side replication hub, once `enable_replication` ran.
    hub: Mutex<Option<Arc<ReplicationHub>>>,
    /// Set by [`ServeEngine::shutdown`]: admission is frozen and no
    /// ingest (client or feed) is accepted anymore.
    sealed: AtomicBool,
    /// Set once shutdown has drained workers and persisted the final
    /// checkpoint (late `shutdown` callers wait on this).
    drained: AtomicBool,
}

/// Replication-role state and feed progress counters, engine-wide.
struct ReplState {
    /// True while the engine is a read-only replica applying a feed.
    role_replica: AtomicBool,
    /// Sticky once `promote` ran: the engine can never become a replica
    /// again (a pushing ex-primary must not demote it back).
    promoted: AtomicBool,
    /// Feed events applied (fresh, not deduped) — also exported as
    /// `taser_repl_applied_total`.
    applied: AtomicU64,
    /// Feed events deduped by eid (re-sent after resync, or duplicated
    /// in transit).
    duplicates: AtomicU64,
    /// Eid gaps observed (each forces a reconnect + resync).
    gaps: AtomicU64,
    /// Snapshot bootstraps consumed.
    snapshot_loads: AtomicU64,
    /// Primary's next eid, per its latest heartbeat/snapshot.
    primary_next: AtomicU32,
    /// When the feed last spoke (event, heartbeat, or snapshot); drives
    /// the staleness half of the repl health gate.
    last_feed: Mutex<Option<Instant>>,
    applied_counter: Arc<taser_obs::Counter>,
    lag_gauge: Arc<taser_obs::Gauge>,
}

impl ReplState {
    fn new() -> Self {
        let registry = taser_obs::global();
        ReplState {
            role_replica: AtomicBool::new(false),
            promoted: AtomicBool::new(false),
            applied: AtomicU64::new(0),
            duplicates: AtomicU64::new(0),
            gaps: AtomicU64::new(0),
            snapshot_loads: AtomicU64::new(0),
            primary_next: AtomicU32::new(0),
            last_feed: Mutex::new(None),
            applied_counter: registry.counter("taser_repl_applied_total"),
            lag_gauge: registry.gauge("taser_repl_lag_events"),
        }
    }
}

/// Point-in-time replication status (the `repl` protocol verb).
#[derive(Clone, Debug)]
pub struct ReplStatus {
    /// `"primary"` (hub enabled), `"replica"`, `"promoted"`, or
    /// `"standalone"`.
    pub role: &'static str,
    /// Next eid this engine will assign/apply.
    pub next_eid: u32,
    /// Replica side: feed events applied / deduped / gaps seen /
    /// snapshot bootstraps consumed.
    pub applied: u64,
    /// Feed events deduped by eid.
    pub duplicates: u64,
    /// Eid gaps observed on the feed.
    pub gaps: u64,
    /// Snapshot bootstraps consumed.
    pub snapshot_loads: u64,
    /// Primary's next eid per its latest heartbeat (replica side).
    pub primary_next: u32,
    /// Events this engine is behind its primary (replica side), or the
    /// slowest peer's lag (primary side).
    pub lag: u64,
    /// Time since the feed last spoke (replica side).
    pub last_feed: Option<Duration>,
    /// Connected replicas (primary side).
    pub peers: usize,
    /// Snapshot bootstraps served (primary side).
    pub snapshots_sent: u64,
}

impl ReplStatus {
    /// The `repl` verb's one-line JSON rendering.
    pub fn to_json(&self) -> String {
        let last_feed_ms = self
            .last_feed
            .map_or("null".to_string(), |d| (d.as_millis() as u64).to_string());
        format!(
            concat!(
                "{{\"role\":\"{}\",\"next_eid\":{},\"applied\":{},",
                "\"duplicates\":{},\"gaps\":{},\"snapshot_loads\":{},",
                "\"primary_next\":{},\"lag\":{},\"last_feed_ms\":{},",
                "\"peers\":{},\"snapshots_sent\":{}}}"
            ),
            self.role,
            self.next_eid,
            self.applied,
            self.duplicates,
            self.gaps,
            self.snapshot_loads,
            self.primary_next,
            self.lag,
            last_feed_ms,
            self.peers,
            self.snapshots_sent,
        )
    }
}

impl WorkerHost {
    fn spawn_worker(self: &Arc<Self>, id: usize) -> JoinHandle<()> {
        let host = self.clone();
        std::thread::spawn(move || worker_loop(&host, id))
    }
}

/// The online inference engine.
pub struct ServeEngine {
    host: Arc<WorkerHost>,
    health: Arc<HealthMonitor>,
    watchdog_stop: Arc<AtomicBool>,
    watchdog: Option<JoinHandle<()>>,
    /// Worker table, shared with the supervisor so it can swap in
    /// replacements for crashed workers. Slots are `None` only
    /// transiently (mid-respawn) or after shutdown join.
    workers: Arc<Mutex<Vec<Option<JoinHandle<()>>>>>,
}

impl ServeEngine {
    /// Boots an engine serving `artifact` over the interaction history in
    /// `seed_log` (typically the log the model was trained on; an empty log
    /// cold-starts the server).
    pub fn new(artifact: ModelArtifact, seed_log: EventLog, cfg: ServeConfig) -> io::Result<Self> {
        let num_nodes = Self::num_nodes_for(&artifact, &seed_log);
        let snapshots = Arc::new(SnapshotStore::with_backend(
            seed_log,
            num_nodes,
            cfg.publish_every,
            cfg.index_backend,
        ));
        Self::boot(artifact, cfg, snapshots)
    }

    /// Boots a **durable** engine: ingest is WAL-framed and checkpointed
    /// under `durability.dir`, and any state already in that directory is
    /// recovered first — checkpoint load + WAL tail replay, deduplicated
    /// by event id. When the directory holds recovered events they *are*
    /// the seed (the passed `seed_log` only cold-starts an empty
    /// directory, after which it is persisted as the initial checkpoint).
    /// Returns the engine plus a [`RecoveryReport`] describing what was
    /// recovered and how long replay took.
    pub fn new_durable(
        artifact: ModelArtifact,
        seed_log: EventLog,
        cfg: ServeConfig,
        durability: DurabilityConfig,
    ) -> io::Result<(Self, RecoveryReport)> {
        let num_nodes = Self::num_nodes_for(&artifact, &seed_log);
        let (snapshots, report) = SnapshotStore::durable(
            seed_log,
            num_nodes,
            cfg.publish_every,
            cfg.index_backend,
            durability,
            cfg.faults.wal_faults(),
        )?;
        let engine = Self::boot(artifact, cfg, Arc::new(snapshots))?;
        Ok((engine, report))
    }

    fn num_nodes_for(artifact: &ModelArtifact, seed_log: &EventLog) -> usize {
        seed_log
            .num_nodes()
            .max(artifact.node_feats.as_ref().map_or(0, |f| f.rows()))
            .max(1)
    }

    fn boot(
        artifact: ModelArtifact,
        cfg: ServeConfig,
        snapshots: Arc<SnapshotStore>,
    ) -> io::Result<Self> {
        assert!(cfg.workers >= 1, "engine needs at least one worker");
        // opt-in span tracing via TASER_TRACE=1 (a relaxed flag read when
        // off; the CLI's --trace-out enables it explicitly instead)
        taser_obs::init_tracing_from_env();
        let (pipeline, edge_feats) = ScorePipeline::new(artifact, cfg.policy_override)?;
        let pipeline = Arc::new(pipeline);
        let features = Arc::new(ServeFeatureCache::new(
            edge_feats,
            cfg.cache_ratio,
            cfg.cache_epsilon,
            cfg.cache_epoch_requests,
            cfg.seed,
        ));
        let policy = cfg.admission_policy();
        let admission = Arc::new(AdmissionQueue::new(policy));
        let host = Arc::new(WorkerHost {
            snapshots,
            admission,
            pipeline,
            features,
            worker_metrics: (0..cfg.workers)
                .map(|_| Mutex::new(WorkerMetrics::new(policy.lanes)))
                .collect(),
            beats: (0..cfg.workers).map(|_| WorkerBeat::new()).collect(),
            epoch: Instant::now(),
            ingests: AtomicU64::new(0),
            plan: cfg.faults,
            fault_state: FaultState::new(),
            restarts: AtomicU64::new(0),
            restart_counter: taser_obs::global().counter("taser_worker_restarts_total"),
            repl: ReplState::new(),
            hub: Mutex::new(None),
            sealed: AtomicBool::new(false),
            drained: AtomicBool::new(false),
        });
        let health = Arc::new(HealthMonitor::new(
            cfg.health,
            policy.lanes,
            cfg.workers,
            policy.queue_cap,
            cfg.publish_every,
        ));
        let workers = Arc::new(Mutex::new(
            (0..cfg.workers)
                .map(|id| Some(host.spawn_worker(id)))
                .collect::<Vec<_>>(),
        ));
        let watchdog_stop = Arc::new(AtomicBool::new(false));
        // The watchdog thread always runs: it is also the supervisor that
        // respawns crashed workers. Health *evaluation* stays gated on
        // cfg.health.enabled (with it off, the monitor is never fed and
        // the health verb reports watchdog:"off" as before).
        let watchdog = {
            let host = host.clone();
            let workers = workers.clone();
            let health = health.clone();
            let stop = watchdog_stop.clone();
            Some(std::thread::spawn(move || {
                watchdog_loop(cfg.health, &host, &workers, &health, &stop)
            }))
        };
        Ok(ServeEngine {
            host,
            health,
            watchdog_stop,
            watchdog,
            workers,
        })
    }

    /// The health watchdog's monitor: overall level, firing alerts,
    /// windowed rates, and the stage-occupancy profile. Always present;
    /// with [`HealthConfig::enabled`] off nothing feeds it and the
    /// `health` verb reports `watchdog:"off"`.
    pub fn health(&self) -> &HealthMonitor {
        &self.health
    }

    /// The pipeline being served (spec/policy introspection).
    pub fn pipeline(&self) -> &ScorePipeline {
        &self.host.pipeline
    }

    /// The active admission policy (lanes, caps, SLO).
    pub fn admission_policy(&self) -> AdmissionPolicy {
        self.host.admission.policy()
    }

    /// Appends a streaming interaction; visible to scoring after the next
    /// publish (automatic every `publish_every` ingests). On a durable
    /// engine the event is WAL-framed before this returns. Rejected on a
    /// sealed (shutting-down) engine and on a read-only replica — replica
    /// state mutates only through its feed until [`ServeEngine::promote`].
    pub fn ingest(&self, src: u32, dst: u32, t: f64) -> Result<Event, String> {
        if self.is_sealed() {
            return Err("engine is sealed (shutting down)".to_string());
        }
        if self.is_replica() {
            return Err("read-only replica: promote before writing".to_string());
        }
        let e = self.host.snapshots.ingest(src, dst, t)?;
        self.host.ingests.fetch_add(1, Ordering::Relaxed);
        Ok(e)
    }

    /// Forces a snapshot publish; returns the current generation.
    pub fn publish(&self) -> u64 {
        self.host.snapshots.publish()
    }

    /// Generation of the latest published snapshot.
    pub fn generation(&self) -> u64 {
        self.host.snapshots.generation()
    }

    /// Content digest of the latest published snapshot's index (see
    /// `taser_graph::content_digest`): two engines presenting the same
    /// digest answer every temporal-neighbor query identically. This is
    /// the equality crash recovery is held to.
    pub fn snapshot_digest(&self) -> u64 {
        let snap = self.host.snapshots.snapshot();
        taser_graph::content_digest(snap.csr.as_ref())
    }

    /// Flush + fsync the WAL (durable engines; no-op otherwise). Makes
    /// every ingest accepted so far crash-durable right now, independent
    /// of the batched flush cadence.
    pub fn wal_sync(&self) -> io::Result<()> {
        self.host.snapshots.wal_sync()
    }

    /// Write a checkpoint now and reset the WAL (durable engines; no-op
    /// otherwise), independent of the checkpoint cadence.
    pub fn checkpoint_now(&self) -> io::Result<()> {
        self.host.snapshots.checkpoint_now()
    }

    /// Lifetime count of workers the supervisor has respawned after a
    /// panic (also exported as `taser_worker_restarts_total`).
    pub fn worker_restarts(&self) -> u64 {
        self.host.restarts.load(Ordering::Relaxed)
    }

    // -- replication ------------------------------------------------------

    /// Turns this engine into a replicating primary: creates a
    /// [`ReplicationHub`] (armed with the plan's link faults), seeds it
    /// with the engine's full history, and hooks it into the ingest path.
    /// Requires an event history to seed from (durable, or the rebuild
    /// backend); errors if already enabled or the engine is a replica.
    pub fn enable_replication(&self) -> Result<Arc<ReplicationHub>, String> {
        let mut slot = self.host.hub.lock().expect("hub slot lock poisoned");
        if slot.is_some() {
            return Err("replication already enabled".to_string());
        }
        if self.is_replica() {
            return Err("cannot enable replication on a replica (promote first)".to_string());
        }
        let hub = ReplicationHub::new(self.host.plan.link_faults());
        self.host.snapshots.attach_replication(&hub)?;
        *slot = Some(hub.clone());
        Ok(hub)
    }

    /// The replication hub, when [`ServeEngine::enable_replication`] ran.
    pub fn repl_hub(&self) -> Option<Arc<ReplicationHub>> {
        self.host
            .hub
            .lock()
            .expect("hub slot lock poisoned")
            .clone()
    }

    /// Marks this engine a read-only replica: external `ingest` is
    /// rejected and state mutates only via [`ServeEngine::apply_replicated`].
    /// Idempotent; refused once promoted or sealed, and on a replicating
    /// primary.
    pub fn make_replica(&self) -> Result<(), String> {
        if self.is_sealed() {
            return Err("engine is sealed".to_string());
        }
        if self.host.repl.promoted.load(Ordering::SeqCst) {
            return Err("engine was promoted: it stays a primary".to_string());
        }
        if self.repl_hub().is_some() {
            return Err("engine is a replicating primary".to_string());
        }
        self.host.repl.role_replica.store(true, Ordering::SeqCst);
        Ok(())
    }

    /// Whether this engine is currently a read-only replica.
    pub fn is_replica(&self) -> bool {
        self.host.repl.role_replica.load(Ordering::SeqCst)
    }

    /// Applies one feed event on a replica, deduplicating by eid exactly
    /// like WAL replay: events below the replica's next eid are
    /// [`Applied::Duplicate`], events above it are [`Applied::Gap`] (lost
    /// frames — the feed must resync), and the one event *at* it is
    /// applied (and WAL-framed, on a durable replica).
    pub fn apply_replicated(&self, e: Event) -> Applied {
        if self.is_sealed() || !self.is_replica() {
            return Applied::Rejected;
        }
        let next = self.host.snapshots.num_events() as u32;
        if e.eid < next {
            self.host.repl.duplicates.fetch_add(1, Ordering::Relaxed);
            return Applied::Duplicate;
        }
        if e.eid > next {
            self.host.repl.gaps.fetch_add(1, Ordering::Relaxed);
            return Applied::Gap;
        }
        match self.host.snapshots.ingest(e.src, e.dst, e.t) {
            Ok(stored) => {
                debug_assert_eq!(stored.eid, e.eid, "dense eids");
                self.host.repl.applied.fetch_add(1, Ordering::Relaxed);
                self.host.repl.applied_counter.inc();
                self.host
                    .repl
                    .primary_next
                    .fetch_max(e.eid + 1, Ordering::Relaxed);
                *self
                    .host
                    .repl
                    .last_feed
                    .lock()
                    .expect("last_feed lock poisoned") = Some(Instant::now());
                Applied::Fresh
            }
            Err(_) => Applied::Rejected,
        }
    }

    /// Records the primary's next eid (heartbeat/snapshot metadata) and
    /// freshens the feed-staleness clock.
    pub fn note_primary_next(&self, next_eid: u32) {
        self.host
            .repl
            .primary_next
            .fetch_max(next_eid, Ordering::Relaxed);
        *self
            .host
            .repl
            .last_feed
            .lock()
            .expect("last_feed lock poisoned") = Some(Instant::now());
    }

    /// Records one consumed snapshot bootstrap of `events` events.
    pub fn note_snapshot_load(&self, events: usize) {
        let _ = events;
        self.host
            .repl
            .snapshot_loads
            .fetch_add(1, Ordering::Relaxed);
    }

    /// The next event id this engine will assign (primary) or apply
    /// (replica) — its replication position.
    pub fn repl_next_eid(&self) -> u32 {
        self.host.snapshots.num_events() as u32
    }

    /// Feed events applied fresh on this replica (`taser_repl_applied_total`).
    pub fn repl_applied(&self) -> u64 {
        self.host.repl.applied.load(Ordering::Relaxed)
    }

    /// Events appended to this engine's WAL over its lifetime (0 on a
    /// non-durable engine) — the primary-side counter replica-applied
    /// totals reconcile against.
    pub fn wal_appended(&self) -> u64 {
        self.host.snapshots.wal_appended()
    }

    /// Promotes a replica to primary: the replica role ends (sticky — a
    /// pushing ex-primary can never demote it back), its WAL position is
    /// sealed durably (flush + checkpoint), and `ingest` starts accepting
    /// writes. Returns the sealed position (next eid).
    pub fn promote(&self) -> Result<u32, String> {
        if !self.is_replica() {
            return Err("not a replica".to_string());
        }
        if self
            .host
            .repl
            .promoted
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return Err("already promoted".to_string());
        }
        // order matters: `promoted` is visible before the role flips, so a
        // concurrent TPSH dial-in can never re-make us a replica
        self.host.repl.role_replica.store(false, Ordering::SeqCst);
        let sealed_at = self.repl_next_eid();
        self.host
            .snapshots
            .wal_sync()
            .map_err(|e| format!("promote wal sync: {e}"))?;
        self.host
            .snapshots
            .checkpoint_now()
            .map_err(|e| format!("promote checkpoint: {e}"))?;
        Ok(sealed_at)
    }

    /// Point-in-time replication status (the `repl` protocol verb).
    pub fn repl_status(&self) -> ReplStatus {
        let hub = self.repl_hub();
        let role = if self.is_replica() {
            "replica"
        } else if self.host.repl.promoted.load(Ordering::SeqCst) {
            "promoted"
        } else if hub.is_some() {
            "primary"
        } else {
            "standalone"
        };
        let next_eid = self.repl_next_eid();
        let lag = match (&hub, role) {
            (Some(h), _) => h.lag(),
            (None, "replica") => {
                (self
                    .host
                    .repl
                    .primary_next
                    .load(Ordering::Relaxed)
                    .saturating_sub(next_eid)) as u64
            }
            _ => 0,
        };
        ReplStatus {
            role,
            next_eid,
            applied: self.host.repl.applied.load(Ordering::Relaxed),
            duplicates: self.host.repl.duplicates.load(Ordering::Relaxed),
            gaps: self.host.repl.gaps.load(Ordering::Relaxed),
            snapshot_loads: self.host.repl.snapshot_loads.load(Ordering::Relaxed),
            primary_next: self.host.repl.primary_next.load(Ordering::Relaxed),
            lag,
            last_feed: self
                .host
                .repl
                .last_feed
                .lock()
                .expect("last_feed lock poisoned")
                .map(|t| t.elapsed()),
            peers: hub.as_ref().map_or(0, |h| h.peer_count()),
            snapshots_sent: hub.as_ref().map_or(0, |h| h.snapshots_sent()),
        }
    }

    // -- graceful shutdown ------------------------------------------------

    /// Whether [`ServeEngine::shutdown`] has sealed the engine.
    pub fn is_sealed(&self) -> bool {
        self.host.sealed.load(Ordering::SeqCst)
    }

    /// Graceful shutdown: seals the engine (no further ingest), stops the
    /// replication feeds, freezes admission, drains and joins every
    /// in-flight scoring batch, then flushes the buffered WAL tail and
    /// writes a final checkpoint — nothing accepted before the seal is
    /// ever lost on a clean exit. Idempotent; late callers block until
    /// the first one has drained.
    pub fn shutdown(&self) -> io::Result<()> {
        if self
            .host
            .sealed
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            while !self.host.drained.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(5));
            }
            return Ok(());
        }
        if let Some(hub) = self.repl_hub() {
            hub.stop();
        }
        // freeze admission and drain: workers exit once the closed queue
        // is empty, resolving everything already admitted
        self.host.admission.close();
        {
            let mut slots = self.workers.lock().expect("worker table lock poisoned");
            for slot in slots.iter_mut() {
                if let Some(h) = slot.take() {
                    let _ = h.join();
                }
            }
        }
        // durable tail: whatever the flush_every batching still buffers
        // goes to disk, then the final checkpoint makes restart O(1)
        let persisted = self
            .host
            .snapshots
            .wal_sync()
            .and_then(|()| self.host.snapshots.checkpoint_now());
        self.host.drained.store(true, Ordering::SeqCst);
        persisted
    }

    /// Tries to admit a link query into the highest-priority lane; the
    /// ticket resolves to a probability plus the generation that scored it,
    /// or a typed shed. A full lane rejects immediately with
    /// [`Overloaded::QueueFull`] — backpressure, not unbounded queueing.
    ///
    /// The forming batch lingers (up to `max_wait` / the SLO margin) for
    /// whatever else the caller submits before it waits; one that waits on
    /// each ticket in turn wants [`ServeEngine::submit_blocking`].
    pub fn submit(&self, src: u32, dst: u32, t: f64) -> Result<ScoreTicket, Overloaded> {
        self.submit_lane(src, dst, t, 0)
    }

    /// [`ServeEngine::submit`] into an explicit priority lane (clamped to
    /// the configured lane count; lane 0 drains first).
    pub fn submit_lane(
        &self,
        src: u32,
        dst: u32,
        t: f64,
        lane: usize,
    ) -> Result<ScoreTicket, Overloaded> {
        self.admit(LinkQuery { src, dst, t }, lane, true)
    }

    /// [`ServeEngine::submit_lane`] for a caller that waits on this ticket
    /// before it submits anything else (a protocol session, a closed-loop
    /// client): it can add nothing to the batch, so the batch closes as
    /// soon as every queued ticket is of this kind, not after `max_wait`.
    pub fn submit_blocking(
        &self,
        src: u32,
        dst: u32,
        t: f64,
        lane: usize,
    ) -> Result<ScoreTicket, Overloaded> {
        self.admit(LinkQuery { src, dst, t }, lane, false)
    }

    fn admit(&self, q: LinkQuery, lane: usize, streaming: bool) -> Result<ScoreTicket, Overloaded> {
        if self.is_sealed() {
            // sealed engines shed at the door instead of panicking on the
            // closed queue — a draining server must answer late clients
            let lanes = self.host.admission.policy().lanes;
            return Err(Overloaded::QueueFull {
                lane: lane.min(lanes - 1),
            });
        }
        self.host.admission.admit(q, lane, streaming)
    }

    /// Queued [`ServeEngine::submit`] tickets; batches wait on a timer
    /// only while this is non-zero.
    pub fn streaming_queued(&self) -> usize {
        self.host.admission.streaming_queued()
    }

    /// Convenience: submit into lane 0 and block for the outcome.
    pub fn score(&self, src: u32, dst: u32, t: f64) -> ScoreOutcome {
        self.score_lane(src, dst, t, 0)
    }

    /// Convenience: submit into `lane` and block for the outcome.
    pub fn score_lane(&self, src: u32, dst: u32, t: f64, lane: usize) -> ScoreOutcome {
        match self.submit_blocking(src, dst, t, lane) {
            Ok(ticket) => ticket.wait(),
            Err(shed) => Err(shed),
        }
    }

    /// Point-in-time engine counters: global + per-lane latency quantiles
    /// (merged across the per-worker histograms), admission/shed counters,
    /// queue depths, SLO attainment, the six-stage time breakdown, and
    /// cache tiers.
    ///
    /// The snapshot is **skew-free**: the admission queue's lock is taken
    /// first (freezing submits, door sheds, expiry sheds, and drains), then
    /// every worker metrics shard is locked (freezing scored/SLO recording
    /// and the paired in-flight decrement, which workers perform inside
    /// their shard's critical section), and only once *both* lock sets are
    /// held are the lane counters sampled. Lock order is admission →
    /// shards, and workers never take them in the opposite order, so the
    /// identity `admitted == scored + shed_deadline + queued + in_flight`
    /// holds exactly per lane in every snapshot — not just at quiescence
    /// (with `shed_worker_failed` in the scored side of the split; worker
    /// failures move queries from in-flight to shed under the admission
    /// lock, so the identity survives panics too).
    ///
    /// The frozen section is kept short: only counter reads and raw
    /// histogram accumulation happen under the locks; quantile computation
    /// and stat assembly run after both are released, so a metrics scrape
    /// injects minimal latency into the admission path.
    pub fn stats(&self) -> ServeStats {
        let policy = self.host.admission.policy();
        // merge targets allocated before any lock is taken
        let mut batches = 0u64;
        let mut queries = 0u64;
        let mut stages = StageNanos::default();
        let mut lane_hists: Vec<LatencyHistogram> = (0..policy.lanes)
            .map(|_| LatencyHistogram::default())
            .collect();
        let mut lane_met = vec![0u64; policy.lanes];
        let mut lane_missed = vec![0u64; policy.lanes];
        let mut shards = Vec::with_capacity(self.host.worker_metrics.len());

        let frozen = self.host.admission.freeze();
        for m in self.host.worker_metrics.iter() {
            shards.push(m.lock().expect("metrics lock poisoned"));
        }
        // Both lock sets held: no worker can be mid-booking, so in_flight
        // and the scored histograms cannot move between these reads.
        let admission = frozen.lanes();
        for m in shards.iter() {
            batches += m.batches;
            queries += m.queries;
            stages.merge(&m.stages);
            for (lane, l) in m.lanes.iter().enumerate() {
                lane_hists[lane].merge(&l.hist);
                lane_met[lane] += l.slo_met;
                lane_missed[lane] += l.slo_missed;
            }
        }
        drop(shards);
        drop(frozen);

        // locks released: quantiles, lane views, and cache stats are
        // computed from the frozen copies
        let mut global = LatencyHistogram::default();
        for h in &lane_hists {
            global.merge(h);
        }
        let lanes: Vec<LaneStats> = admission
            .iter()
            .enumerate()
            .map(|(i, &a)| LaneStats::from_parts(i, a, &lane_hists[i], lane_met[i], lane_missed[i]))
            .collect();
        let cache = self.host.features.stats();
        ServeStats {
            queries,
            batches,
            ingests: self.host.ingests.load(Ordering::Relaxed),
            generation: self.host.snapshots.generation(),
            graph_events: self.host.snapshots.num_events() as u64,
            mean_batch: if batches == 0 {
                0.0
            } else {
                queries as f64 / batches as f64
            },
            p50_us: global.quantile_us(0.5),
            p99_us: global.quantile_us(0.99),
            p999_us: global.quantile_us(0.999),
            mean_us: global.mean_us(),
            max_us: global.max_us(),
            admitted: lanes.iter().map(|l| l.admitted).sum(),
            shed_full: lanes.iter().map(|l| l.shed_full).sum(),
            shed_deadline: lanes.iter().map(|l| l.shed_deadline).sum(),
            shed_worker_failed: lanes.iter().map(|l| l.shed_worker_failed).sum(),
            in_queue: lanes.iter().map(|l| l.queued).sum(),
            in_flight: lanes.iter().map(|l| l.in_flight).sum(),
            slo_met: lane_met.iter().sum(),
            slo_missed: lane_missed.iter().sum(),
            stages,
            lanes,
            cache,
        }
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        // watchdog/supervisor first: it reads worker state and respawns
        // workers, so it must be gone before the workers are joined
        self.watchdog_stop.store(true, Ordering::Relaxed);
        if let Some(w) = self.watchdog.take() {
            let _ = w.join();
        }
        self.host.admission.close();
        let mut slots = self.workers.lock().expect("worker table lock poisoned");
        for slot in slots.iter_mut() {
            if let Some(h) = slot.take() {
                let _ = h.join();
            }
        }
    }
}

/// The supervisor pass: detect workers whose threads have exited while
/// the queue is still open (i.e. they panicked and took the crash-only
/// exit) and spawn replacements. Allocation-free until a respawn
/// actually happens — `is_finished` is a plain atomic read.
fn supervise(host: &Arc<WorkerHost>, workers: &Mutex<Vec<Option<JoinHandle<()>>>>) {
    let mut slots = workers.lock().expect("worker table lock poisoned");
    for (id, slot) in slots.iter_mut().enumerate() {
        if !slot.as_ref().is_some_and(|h| h.is_finished()) {
            continue;
        }
        if host.admission.is_closed() {
            // normal shutdown exit: leave it for Drop to join
            continue;
        }
        if let Some(old) = slot.take() {
            let _ = old.join(); // collects the (already-caught) exit
        }
        host.restarts.fetch_add(1, Ordering::Relaxed);
        host.restart_counter.inc();
        *slot = Some(host.spawn_worker(id));
    }
}

/// The watchdog thread: worker supervision every sample tick, occupancy
/// sweeps every `sample_every`, a full counter snapshot + gate
/// evaluation every `eval_every`. Steady-state allocation-free — every
/// buffer below is preallocated, and [`HealthMonitor::observe`] writes
/// into preallocated ring slots.
///
/// This thread always runs (it is the supervisor); with
/// [`HealthConfig::enabled`] off, only supervision happens and the
/// monitor is never fed.
///
/// Unlike [`ServeEngine::stats`] this does **not** freeze the world: it
/// takes the admission lock briefly, then each worker shard in turn.
/// Windowed rates tolerate a batch of cross-shard skew, and the watchdog
/// must never stall the serving path to get its numbers.
fn watchdog_loop(
    cfg: HealthConfig,
    host: &Arc<WorkerHost>,
    workers: &Mutex<Vec<Option<JoinHandle<()>>>>,
    monitor: &HealthMonitor,
    stop: &AtomicBool,
) {
    let health_on = cfg.enabled;
    let lanes = host.admission.policy().lanes;
    let mut lane_adm = vec![LaneAdmission::default(); lanes];
    let mut lane_tot = vec![LaneSampleTotals::default(); lanes];
    let mut busy: Vec<Option<Duration>> = vec![None; host.beats.len()];
    let mut merged = LatencyHistogram::default();
    let sample_every = if health_on {
        cfg.sample_every.max(Duration::from_micros(100))
    } else {
        // supervision-only cadence: fast enough that a crashed worker is
        // replaced within a few milliseconds
        Duration::from_millis(5)
    };
    let eval_every = cfg.eval_every.max(sample_every);
    let mut next_eval = Instant::now() + eval_every;
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(sample_every);
        supervise(host, workers);
        if !health_on {
            continue;
        }
        monitor.sweep_occupancy();
        let now = Instant::now();
        if now < next_eval {
            continue;
        }
        next_eval = now + eval_every;
        host.admission.lane_admission_into(&mut lane_adm);
        for (t, a) in lane_tot.iter_mut().zip(lane_adm.iter()) {
            *t = LaneSampleTotals {
                admitted: a.admitted,
                // deadline sheds burned their budget just like missed
                // scores; the shard loop below adds the latter
                missed: a.shed_deadline,
                scored: 0,
                shed: a.shed_full + a.shed_deadline + a.shed_worker_failed,
                queued: a.queued,
            };
        }
        merged.clear();
        let mut scored = 0u64;
        for m in &host.worker_metrics {
            let m = m.lock().expect("metrics lock poisoned");
            scored += m.queries;
            for (lane, l) in m.lanes.iter().enumerate() {
                merged.merge(&l.hist);
                lane_tot[lane].scored += l.hist.count();
                lane_tot[lane].missed += l.slo_missed;
            }
        }
        for (b, beat) in busy.iter_mut().zip(host.beats.iter()) {
            *b = beat.busy_for(host.epoch);
        }
        let lag = host.snapshots.publish_lag();
        let (repl_lag_events, repl_stale) = repl_probe(host);
        host.repl.lag_gauge.set(repl_lag_events as i64);
        monitor.observe(
            now,
            &HealthSample {
                lanes: &lane_tot,
                latency: &merged,
                scored,
                ingests: host.ingests.load(Ordering::Relaxed),
                generation: host.snapshots.generation(),
                publish_pending: lag.pending_events,
                worker_busy: &busy,
                worker_restarts: host.restarts.load(Ordering::Relaxed),
                repl_lag_events,
                repl_stale,
            },
        );
    }
}

/// The watchdog's replication probe: how far behind the slowest party
/// is, and (replica side) how long since the feed last spoke. On a
/// replica the lag is `primary_next - next_eid` (heartbeats keep
/// `primary_next` fresh even when no events flow); on a replicating
/// primary it is the hub's slowest-peer lag; elsewhere it is 0 with no
/// staleness — the repl health gate stays quiet on standalone engines.
fn repl_probe(host: &WorkerHost) -> (u64, Option<Duration>) {
    if host.repl.role_replica.load(Ordering::SeqCst) {
        let next = host.snapshots.num_events() as u32;
        let behind = host
            .repl
            .primary_next
            .load(Ordering::Relaxed)
            .saturating_sub(next) as u64;
        let stale = host
            .repl
            .last_feed
            .lock()
            .expect("last_feed lock poisoned")
            .map(|t| t.elapsed());
        (behind, stale)
    } else if let Some(hub) = host.hub.lock().expect("hub slot lock poisoned").as_ref() {
        (hub.lag(), None)
    } else {
        (0, None)
    }
}

fn worker_loop(host: &WorkerHost, id: usize) {
    // Per-worker reusable state: the fast path's arena + assembly buffers
    // plus the query/probability staging vectors. After warmup the scoring
    // section of this loop performs no heap allocations — stage timing is
    // plain `Instant` reads into fixed arrays, span recording (when
    // tracing is on) writes into a pre-registered fixed-capacity ring, and
    // the occupancy cell registered here is a single atomic the sampler
    // reads from outside.
    taser_obs::profile::warm_stage_cell();
    let mut scratch = ScoreScratch::new();
    let mut queries: Vec<LinkQuery> = Vec::new();
    let mut probs: Vec<f32> = Vec::new();
    let mut meta: Vec<(usize, Instant, Instant)> = Vec::new();
    // The batch buffer, recycled too (scoring drains it), lives *outside*
    // the unwind boundary: a panic inside the scoring pass leaves its
    // unresolved tickets reachable in `held`, and the recovery site below
    // turns every one of them into a typed `WorkerFailed` shed with exact
    // counter accounting.
    let mut held: Vec<Pending> = Vec::new();
    let metrics = &host.worker_metrics[id];
    let beat = &host.beats[id];
    loop {
        beat.set_idle();
        taser_obs::profile::idle();
        if !host.admission.next_batch(&mut held) {
            break;
        }
        beat.set_busy(host.epoch);
        let scored = catch_unwind(AssertUnwindSafe(|| {
            score_one_batch(
                host,
                metrics,
                &mut held,
                &mut scratch,
                &mut queries,
                &mut probs,
                &mut meta,
            );
        }));
        if scored.is_err() {
            host.admission.fail_batch(&mut held);
            beat.set_idle();
            taser_obs::profile::idle();
            // Crash-only exit: the scratch arena / staging buffers may be
            // mid-mutation, so this thread never scores again. The
            // supervisor observes the dead thread and spawns a fresh
            // worker with fresh state.
            return;
        }
    }
}

/// One drained batch end to end: stall/panic fault points, stage
/// accounting, snapshot pin, scoring, SLO booking (with the paired
/// in-flight decrements), and ticket fulfillment. Runs under the
/// worker's `catch_unwind`; fulfillment `drain`s `batch` so whatever a
/// panic leaves behind is exactly the set of unresolved tickets.
fn score_one_batch(
    host: &WorkerHost,
    metrics: &Mutex<WorkerMetrics>,
    batch: &mut Vec<Pending>,
    scratch: &mut ScoreScratch,
    queries: &mut Vec<LinkQuery>,
    probs: &mut Vec<f32>,
    meta: &mut Vec<(usize, Instant, Instant)>,
) {
    let drained = Instant::now();
    if !host.plan.worker_stall.is_zero() {
        // injected fault: a wedged scoring thread (drives the stall gate)
        std::thread::sleep(host.plan.worker_stall);
    }
    if host.fault_state.should_panic(&host.plan) {
        // injected fault: die mid-batch, after draining it — exactly the
        // window where queries are in flight and waiters are blocked
        panic!(
            "fault injection: worker panic at batch {}",
            host.fault_state.batches_seen()
        );
    }
    // admission wait = submit → drain, summed exactly per query; the
    // span covers the batch's longest wait
    let mut batch_stages = StageNanos::default();
    let mut oldest = drained;
    for p in batch.iter() {
        batch_stages.add(
            Stage::AdmissionWait,
            drained
                .saturating_duration_since(p.submitted)
                .as_nanos()
                .min(u64::MAX as u128) as u64,
        );
        oldest = oldest.min(p.submitted);
    }
    taser_obs::record(Stage::AdmissionWait.name(), oldest, drained);
    let staging = Instant::now();
    taser_obs::profile::enter(Stage::BatchAssembly);
    let snap = host.snapshots.snapshot();
    queries.clear();
    queries.extend(batch.iter().map(|p| p.query));
    meta.clear();
    meta.extend(batch.iter().map(|p| (p.lane, p.submitted, p.deadline)));
    batch_stages.close_region(Stage::BatchAssembly, staging);
    // the feature cache synchronizes internally, so concurrent workers
    // overlap on the encoder forward and only serialize on bookkeeping
    match host.pipeline.score_path() {
        ScorePath::Fast => {
            host.pipeline.score_batch_into(
                snap.csr.as_ref(),
                snap.generation,
                queries,
                &host.features,
                scratch,
                probs,
            );
            batch_stages.merge(scratch.stage_ns());
        }
        ScorePath::Tape => {
            // the tape oracle is unattributed internally: book it all
            // under the forward stage
            let t0 = Instant::now();
            taser_obs::profile::enter(Stage::PackedForward);
            probs.clear();
            probs.extend(host.pipeline.score_batch_tape(
                snap.csr.as_ref(),
                snap.generation,
                queries,
                &host.features,
            ));
            batch_stages.close_region(Stage::PackedForward, t0);
        }
    }
    // latency/SLO are judged at scoring completion (as before), and the
    // score is booked *before* the tickets are fulfilled so a caller
    // that observed its result always finds itself counted in `stats()`
    let scored_at = Instant::now();
    taser_obs::profile::enter(Stage::Respond);
    {
        // this worker's own shard: no cross-worker contention. The
        // in-flight decrement rides inside the same critical section
        // that records the score, so snapshot readers holding every
        // shard lock see the two move together.
        let mut m = metrics.lock().expect("metrics lock poisoned");
        m.batches += 1;
        m.queries += meta.len() as u64;
        m.stages.merge(&batch_stages);
        for &(lane_no, submitted, deadline) in meta.iter() {
            let lane = &mut m.lanes[lane_no];
            lane.hist.record(scored_at.duration_since(submitted));
            if scored_at <= deadline {
                lane.slo_met += 1;
            } else {
                lane.slo_missed += 1;
            }
            host.admission.mark_done(lane_no);
        }
    }
    // the respond stage covers waking the submitters; it lands in the
    // shard with a second (uncontended) lock because the tickets must
    // be fulfilled after the booking above
    for (pending, &prob) in batch.drain(..).zip(probs.iter()) {
        pending.fulfill(ScoreResult {
            prob,
            generation: snap.generation,
        });
    }
    let mut respond = StageNanos::default();
    respond.close_region(Stage::Respond, scored_at);
    let mut m = metrics.lock().expect("metrics lock poisoned");
    m.stages.merge(&respond);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use taser_graph::feats::FeatureMatrix;
    use taser_models::artifact::{ArtifactBackbone, ArtifactPolicy, ModelSpec};

    fn tiny_artifact() -> ModelArtifact {
        ModelArtifact::init(
            ModelSpec {
                backbone: ArtifactBackbone::GraphMixer,
                in_dim: 4,
                edge_dim: 3,
                hidden: 8,
                time_dim: 6,
                heads: 2,
                n_neighbors: 4,
                dropout: 0.1,
                policy: ArtifactPolicy::MostRecent,
            },
            Some(FeatureMatrix::from_vec(
                (0..80).map(|x| x as f32 * 0.01).collect(),
                4,
            )),
            Some(FeatureMatrix::from_vec(
                (0..90).map(|x| x as f32 * 0.02).collect(),
                3,
            )),
            5,
        )
    }

    fn seed_log() -> EventLog {
        EventLog::from_unsorted(
            (0..30u32)
                .map(|i| (i % 6, 6 + (i % 6), 1.0 + i as f64))
                .collect(),
        )
    }

    fn quick_cfg() -> ServeConfig {
        ServeConfig {
            workers: 2,
            batch: BatchPolicy {
                max_batch: 8,
                max_wait: Duration::from_millis(1),
            },
            publish_every: 0,
            cache_epoch_requests: 16,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn scores_resolve_with_probabilities() {
        let engine = ServeEngine::new(tiny_artifact(), seed_log(), quick_cfg()).unwrap();
        let tickets: Vec<_> = (0..20)
            .map(|i| engine.submit(i % 6, 6 + (i % 6), 40.0).expect("admitted"))
            .collect();
        for t in tickets {
            let r = t.wait().expect("scored");
            assert!(r.prob > 0.0 && r.prob < 1.0, "{}", r.prob);
            assert_eq!(r.generation, 0);
        }
        let stats = engine.stats();
        assert_eq!(stats.queries, 20);
        assert_eq!(stats.admitted, 20);
        assert_eq!(stats.shed(), 0);
        assert_eq!(stats.slo_met, 20, "5s SLO is never missed here");
        assert!(stats.batches >= 3, "max_batch=8 forces >= 3 batches");
        assert!(stats.p99_us >= stats.p50_us);
        assert!(stats.p999_us >= stats.p99_us);
        assert_eq!(stats.lanes.len(), 2);
        assert_eq!(stats.lanes[0].admitted, 20);
        assert_eq!(stats.lanes[1].admitted, 0);
    }

    #[test]
    fn lanes_track_their_own_stats() {
        let engine = ServeEngine::new(tiny_artifact(), seed_log(), quick_cfg()).unwrap();
        for i in 0..6u32 {
            engine
                .score_lane(i % 6, 6 + (i % 6), 40.0, (i % 2) as usize)
                .expect("admitted");
        }
        let stats = engine.stats();
        assert_eq!(stats.lanes[0].admitted, 3);
        assert_eq!(stats.lanes[1].admitted, 3);
        assert_eq!(stats.lanes[0].scored, 3);
        assert_eq!(stats.lanes[1].scored, 3);
        assert_eq!(stats.slo_met, 6);
    }

    #[test]
    fn stats_snapshot_identity_holds_under_load() {
        use std::sync::atomic::{AtomicBool, Ordering};
        // The PR-7 skew fix: `stats()` freezes admission and merges every
        // worker shard under one snapshot, so admitted splits exactly into
        // scored + shed + queued + in-flight at EVERY instant — not just at
        // quiescence. Hammer submissions from one thread while another
        // snapshots continuously.
        let engine = ServeEngine::new(tiny_artifact(), seed_log(), quick_cfg()).unwrap();
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let eng = &engine;
            let stop = &stop;
            s.spawn(move || {
                let mut tickets = Vec::new();
                for i in 0..300u32 {
                    if let Ok(t) = eng.submit(i % 6, 6 + (i % 6), 40.0) {
                        tickets.push(t);
                    }
                }
                for t in tickets {
                    let _ = t.wait();
                }
                stop.store(true, Ordering::Release);
            });
            while !stop.load(Ordering::Acquire) {
                let st = eng.stats();
                for lane in &st.lanes {
                    assert_eq!(
                        lane.admitted,
                        lane.scored
                            + lane.shed_deadline
                            + lane.shed_worker_failed
                            + lane.queued
                            + lane.in_flight,
                        "lane {} snapshot skewed: {:?}",
                        lane.lane,
                        lane
                    );
                }
            }
        });
        // at quiescence the transients are zero and totals reconcile
        let st = engine.stats();
        assert_eq!(st.in_queue, 0);
        assert_eq!(st.in_flight, 0);
        assert_eq!(st.admitted, st.queries + st.shed_deadline);
    }

    #[test]
    fn full_lane_sheds_with_typed_overload() {
        // one worker held busy forming a huge batch: with max_wait large
        // and max_batch unreachable, admitted queries sit in the lane until
        // the SLO margin closes the batch — so a tiny queue_cap sheds
        // deterministically.
        let engine = ServeEngine::new(
            tiny_artifact(),
            seed_log(),
            ServeConfig {
                workers: 1,
                batch: BatchPolicy {
                    max_batch: 1024,
                    max_wait: Duration::from_secs(60),
                },
                slo: Duration::from_secs(2),
                slo_margin: Some(Duration::from_millis(1900)),
                queue_cap: 4,
                lanes: 2,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let mut admitted = Vec::new();
        let mut shed = 0usize;
        for i in 0..20u32 {
            match engine.submit(i % 6, 6 + (i % 6), 40.0) {
                Ok(t) => admitted.push(t),
                Err(o) => {
                    assert_eq!(o, Overloaded::QueueFull { lane: 0 });
                    shed += 1;
                }
            }
        }
        assert!(shed >= 1, "queue_cap=4 must shed some of 20 rapid submits");
        assert!(!admitted.is_empty());
        for t in admitted {
            assert!(t.wait().is_ok(), "admitted queries still score");
        }
        let stats = engine.stats();
        assert_eq!(stats.shed_full as usize, shed);
        assert_eq!(stats.admitted + stats.shed_full, 20);
    }

    #[test]
    fn ingest_then_publish_advances_generation() {
        let engine = ServeEngine::new(tiny_artifact(), seed_log(), quick_cfg()).unwrap();
        let before = engine.score(0, 7, 50.0).expect("admitted");
        assert_eq!(before.generation, 0);
        for i in 0..10 {
            engine.ingest(0, 7, 31.0 + i as f64).unwrap();
        }
        let generation = engine.publish();
        assert_eq!(generation, 1);
        let after = engine.score(0, 7, 50.0).expect("admitted");
        assert_eq!(after.generation, 1);
        assert_eq!(engine.stats().ingests, 10);
        // 10 fresh (0,7) interactions should move the score; at minimum the
        // engine must keep answering with a valid probability
        assert!(after.prob > 0.0 && after.prob < 1.0);
    }

    #[test]
    fn identical_queries_same_generation_are_deterministic() {
        let engine = ServeEngine::new(tiny_artifact(), seed_log(), quick_cfg()).unwrap();
        let a = engine.score(2, 8, 40.0).expect("admitted");
        let tickets: Vec<_> = (0..10u32)
            .map(|i| {
                engine
                    .submit(i % 6, 6 + (i % 6), 40.0 + f64::from(i) * 0.01)
                    .expect("admitted")
            })
            .collect();
        let b = engine.score(2, 8, 40.0).expect("admitted");
        for t in tickets {
            t.wait().expect("scored");
        }
        assert_eq!(a.generation, b.generation);
        assert_eq!(a.prob.to_bits(), b.prob.to_bits());
    }

    #[test]
    fn rejects_bad_ingest_but_keeps_serving() {
        let engine = ServeEngine::new(tiny_artifact(), seed_log(), quick_cfg()).unwrap();
        assert!(engine.ingest(0, 1, 5.0).is_err(), "t precedes the seed log");
        let r = engine.score(1, 7, 40.0).expect("admitted");
        assert!(r.prob > 0.0 && r.prob < 1.0);
    }

    #[test]
    fn incremental_backend_scores_identically_per_generation() {
        // boot one engine per backend over the same seed log; generation-0
        // scores must agree bit-for-bit (the pipeline is deterministic and
        // both indexes answer queries identically)
        let mk = |backend| {
            ServeEngine::new(
                tiny_artifact(),
                seed_log(),
                ServeConfig {
                    index_backend: backend,
                    ..quick_cfg()
                },
            )
            .unwrap()
        };
        let rebuild = mk(IndexBackend::Rebuild);
        let incremental = mk(IndexBackend::Incremental);
        for (src, dst) in [(0, 7), (2, 9), (5, 6)] {
            let a = rebuild.score(src, dst, 50.0).expect("admitted");
            let b = incremental.score(src, dst, 50.0).expect("admitted");
            assert_eq!(a.generation, b.generation);
            assert_eq!(a.prob.to_bits(), b.prob.to_bits(), "({src},{dst})");
        }
        // and the incremental engine keeps agreeing after a live publish
        for i in 0..10 {
            rebuild.ingest(0, 7, 31.0 + i as f64).unwrap();
            incremental.ingest(0, 7, 31.0 + i as f64).unwrap();
        }
        assert_eq!(rebuild.publish(), incremental.publish());
        let a = rebuild.score(0, 7, 60.0).expect("admitted");
        let b = incremental.score(0, 7, 60.0).expect("admitted");
        assert_eq!(a.prob.to_bits(), b.prob.to_bits());
    }

    #[test]
    fn watchdog_flags_a_stalled_worker_and_recovers() {
        use taser_obs::AlertLevel;
        // the injected fault holds the single worker busy well past
        // stall_after; the watchdog (evaluating every 10ms) must flag it,
        // and once the worker drains and idles, the alert must clear
        let engine = ServeEngine::new(
            tiny_artifact(),
            seed_log(),
            ServeConfig {
                workers: 1,
                health: HealthConfig {
                    sample_every: Duration::from_millis(1),
                    eval_every: Duration::from_millis(10),
                    fast_window: Duration::from_millis(40),
                    slow_window: Duration::from_millis(120),
                    stall_after: Duration::from_millis(40),
                    hold_down: 2,
                    ..HealthConfig::default()
                },
                faults: FaultPlan {
                    worker_stall: Duration::from_millis(150),
                    ..FaultPlan::default()
                },
                ..quick_cfg()
            },
        )
        .unwrap();
        let t = engine.submit(0, 6, 40.0).expect("admitted");
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut firing = Vec::new();
        loop {
            engine.health().firing_into(&mut firing);
            if firing
                .iter()
                .any(|a| a.signal == "worker_stall" && a.to >= AlertLevel::Warning)
            {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "stall never flagged: {}",
                engine.health().health_json()
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        t.wait().expect("scored despite the stall");
        let deadline = Instant::now() + Duration::from_secs(30);
        while engine.health().level() != AlertLevel::Ok {
            assert!(
                Instant::now() < deadline,
                "stall never cleared: {}",
                engine.health().health_json()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        // the worker's occupancy cell registered and the sampler swept it
        assert!(engine.health().occupancy().sweeps() > 0);
    }

    #[test]
    fn injected_worker_panics_are_survived_and_typed() {
        // panic_every=1, max_panics=2: the first two batches kill their
        // workers. Every ticket must still resolve (scored or typed
        // WorkerFailed — never a hang, never a waiter panic), the
        // supervisor must respawn both workers, and the engine must score
        // normally once the fault budget is spent.
        let engine = ServeEngine::new(
            tiny_artifact(),
            seed_log(),
            ServeConfig {
                faults: FaultPlan {
                    panic_every: 1,
                    max_panics: 2,
                    ..FaultPlan::default()
                },
                ..quick_cfg()
            },
        )
        .unwrap();
        let mut failed = 0usize;
        let mut scored = 0usize;
        let deadline = Instant::now() + Duration::from_secs(60);
        while engine.worker_restarts() < 2 {
            assert!(
                Instant::now() < deadline,
                "supervisor never respawned both workers (restarts={})",
                engine.worker_restarts()
            );
            let t = engine.submit(0, 6, 40.0).expect("admitted");
            match t.wait() {
                Ok(_) => scored += 1,
                Err(Overloaded::WorkerFailed { lane }) => {
                    assert_eq!(lane, 0);
                    failed += 1;
                }
                Err(other) => panic!("unexpected shed: {other}"),
            }
        }
        assert_eq!(failed, 2, "each injected panic fails exactly one query");
        assert_eq!(engine.worker_restarts(), 2);
        // faults exhausted: the respawned workers score normally
        let r = engine.score(0, 6, 40.0).expect("scored after recovery");
        assert!(r.prob > 0.0 && r.prob < 1.0);
        let st = engine.stats();
        assert_eq!(st.shed_worker_failed, 2);
        assert_eq!(st.in_queue, 0);
        assert_eq!(st.in_flight, 0);
        assert_eq!(
            st.admitted,
            st.queries + st.shed_deadline + st.shed_worker_failed,
            "identity reconciles at quiescence: scored={} failed={}",
            scored,
            failed
        );
    }

    #[test]
    fn drop_joins_workers_cleanly() {
        let engine = ServeEngine::new(tiny_artifact(), seed_log(), quick_cfg()).unwrap();
        let t = engine.submit(0, 6, 40.0).expect("admitted");
        drop(engine); // close → drain → join
        assert!(
            t.wait_timeout(Duration::from_secs(30)).is_some(),
            "queued query must be drained on shutdown"
        );
    }

    #[test]
    fn shutdown_seals_ingest_and_sheds_late_queries_typed() {
        let engine = ServeEngine::new(tiny_artifact(), seed_log(), quick_cfg()).unwrap();
        engine.ingest(0, 7, 40.0).unwrap();
        engine.shutdown().unwrap();
        assert!(engine.is_sealed());
        assert!(
            engine.ingest(0, 7, 41.0).is_err(),
            "sealed engines reject writes"
        );
        // late queries get typed backpressure, never a panic or a hang
        match engine.submit(0, 6, 40.0) {
            Err(Overloaded::QueueFull { lane: 0 }) => {}
            other => panic!("expected a door shed, got {other:?}"),
        }
        // idempotent: a second shutdown returns once the first drained
        engine.shutdown().unwrap();
    }

    #[test]
    fn replica_role_blocks_ingest_until_promote() {
        use crate::replication::Applied;
        let engine = ServeEngine::new(tiny_artifact(), seed_log(), quick_cfg()).unwrap();
        engine.make_replica().unwrap();
        assert!(engine.is_replica());
        assert!(
            engine.ingest(0, 7, 40.0).is_err(),
            "replicas reject client writes"
        );
        // the feed path applies with exact eid dedup (seed holds 30 events)
        let next = engine.repl_next_eid();
        assert_eq!(next, 30);
        let fresh = Event {
            src: 0,
            dst: 7,
            t: 40.0,
            eid: next,
        };
        assert_eq!(engine.apply_replicated(fresh), Applied::Fresh);
        assert_eq!(
            engine.apply_replicated(fresh),
            Applied::Duplicate,
            "re-sent frames dedup by eid"
        );
        let skipped = Event {
            src: 1,
            dst: 8,
            t: 41.0,
            eid: next + 5,
        };
        assert_eq!(engine.apply_replicated(skipped), Applied::Gap);
        assert_eq!(engine.repl_applied(), 1);

        // promote: role ends, writes open, position is sealed
        let sealed_at = engine.promote().unwrap();
        assert_eq!(sealed_at, 31);
        assert!(!engine.is_replica());
        assert!(engine.promote().is_err(), "promote is one-shot");
        assert!(
            engine.make_replica().is_err(),
            "a promoted engine can never be demoted"
        );
        engine.ingest(2, 9, 50.0).unwrap();
        assert_eq!(
            engine.apply_replicated(fresh),
            Applied::Rejected,
            "feed events bounce off a promoted engine"
        );
        let st = engine.repl_status();
        assert_eq!(st.role, "promoted");
        assert_eq!(st.applied, 1);
        assert_eq!(st.duplicates, 1);
        assert_eq!(st.gaps, 1);
    }

    #[test]
    fn enable_replication_seeds_the_hub_and_feeds_it_ingests() {
        let engine = ServeEngine::new(tiny_artifact(), seed_log(), quick_cfg()).unwrap();
        let hub = engine.enable_replication().unwrap();
        assert_eq!(hub.next_eid(), 30, "hub seeded with the full history");
        assert!(engine.enable_replication().is_err(), "enable is one-shot");
        engine.ingest(0, 7, 40.0).unwrap();
        assert_eq!(hub.next_eid(), 31, "live ingests reach the hub");
        assert_eq!(engine.repl_status().role, "primary");
        assert!(
            engine.make_replica().is_err(),
            "a replicating primary cannot become a replica"
        );
    }
}
