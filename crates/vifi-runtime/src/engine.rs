//! The epoch-synchronized simulation engine behind every coupled run.
//!
//! One engine executes one experiment as a set of **shards**, each owning
//! a disjoint subset of the nodes (its *lanes*): the shard holds those
//! nodes' endpoints, workload hosts and pending events in its own
//! [`Scheduler`], plus its own lazily-populated link-model instance. Time
//! is divided into epochs by an [`EpochSchedule`]; within an epoch every
//! shard dispatches only its own lanes' events, and **all inter-node
//! effects cross at the epoch barrier** in canonically sorted batches:
//!
//! * transmission requests → [`SharedMediumService::place_batch`] in
//!   `(request time, sender)` order (global carrier sense + backoff);
//! * reception resolution → each shard samples *its own* receivers of
//!   every ending frame through the pure MAC kernel and per-link
//!   sampling streams;
//! * backplane sends → one [`Backplane::send_batch`] per instant in
//!   sender order (drops deterministic);
//! * wired hops and anchor hand-offs → routed with timestamps no earlier
//!   than the barrier;
//! * packet-log mutations → buffered as timestamped ops and replayed in
//!   one canonical order at the end of the run.
//!
//! Because every cross-lane channel is mediated this way **even when both
//! lanes share a shard**, the outcome is a pure function of
//! `(config, seed, schedule)` — never of the partition or of how many
//! worker threads execute it. `shards = 1` is literally the same machine
//! with one shard; that is the bit-identity `tests/shard_equivalence.rs`
//! pins for every sharded run.
//!
//! Relative to the pre-PR-5 per-event loop this changes the observable
//! semantics in one bounded way: a frame requested during an epoch airs
//! from the next epoch edge (at most one sync quantum of extra access
//! latency — 1 ms at the default — plus normal contention queueing), and
//! wired/backplane deliveries never land before the barrier that routes
//! them. Contention physics — deferral, half duplex, hidden-terminal
//! collisions, the shared serializer — is exactly the global model, which
//! is the point: sharded coupled runs keep it.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, RwLock};
use std::thread::ScopedJoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use vifi_core::endpoint::BackplaneMsg;
use vifi_core::{
    AckView, Action, DataView, Direction, Endpoint, PacketId, Role, StatEvent, VifiPayload,
};
use vifi_mac::medium::kernel;
use vifi_mac::{
    Backplane, BeaconSchedule, Frame, PartitionProbes, PlacedGroup, PlacementGroup, ResolvableTx,
    SharedMediumService, TxHandle, TxRequest, WireFrame,
};
use vifi_phy::{LinkModel, NodeId};
use vifi_sim::{
    EpochBarrier, EpochSchedule, FastMap, HierarchicalSchedule, NestedEpochBarrier, Rng, Scheduler,
    SimTime, TimerToken, PEER_PANICKED,
};

use crate::logging::{LogSink, RunLog};
use crate::sim::{FaultStats, RunConfig, RunOutcome, ScheduleMode, VehicleOutcome};
use crate::workload::{build_driver, Driver, HostApi, HostCmd};

/// A link model the engine can hand to worker threads.
pub(crate) type EngineLink = Box<dyn LinkModel + Send>;

/// Per-lane events. The lane (owning node) travels alongside in the
/// scheduler payload.
enum Ev {
    /// The lane's beacon is due.
    Beacon,
    /// The lane's transmission finished airing; its interface is free.
    TxDone,
    /// A frame reached this lane (resolved by the reception kernel),
    /// still in packed wire form; decoded at dispatch.
    Rx(WireFrame),
    /// The lane's protocol timer fired.
    Wakeup,
    /// A backplane message arrived at this lane.
    BackplaneArrive { from: NodeId, msg: BackplaneMsg },
    /// A downstream app payload reached this vehicle's wired side.
    WiredDownArrive { payload: Bytes },
    /// A vehicle's downstream payload handed to this lane (its anchor).
    AnchorDown { vehicle: NodeId, payload: Bytes },
    /// An upstream payload reached this vehicle's Internet peer.
    WiredUpArrive { payload: Bytes, radio_exit: SimTime },
    /// Workload tick for this vehicle's driver.
    AppTick { chan: u8 },
    /// End of a fault-plan crash window: this lane's node restarts with a
    /// fresh endpoint (crashed state is lost, like a real reboot).
    FaultUp,
}

/// One vehicle's workload host: its driver, RNG stream, and counters.
struct VehicleHost {
    /// Taken out while the driver runs (so the host API can borrow `rng`).
    driver: Option<Box<dyn Driver>>,
    rng: Rng,
    anchor_switches: u64,
    unroutable_down: u64,
}

/// Everything one lane owns.
struct NodeCell {
    endpoint: Endpoint,
    iface_busy: bool,
    pending_beacon: Option<(VifiPayload, u32)>,
    wakeup_token: Option<TimerToken>,
    host: Option<VehicleHost>,
    /// Per-lane sequence for buffered cross-barrier emissions (canonical
    /// tie-break: a lane's emissions replay in emission order).
    emit_seq: u64,
    /// How many times this node restarted after a crash window (also the
    /// fork label of the next restart's RNG stream).
    restarts: u64,
    /// Blacklist evictions accumulated by endpoints this cell already
    /// discarded on restart.
    carried_evictions: u64,
}

/// A buffered packet-log mutation, replayed in `(at, lane, seq)` order at
/// the end of the run — the canonical order every partition produces.
struct LogOp {
    at: SimTime,
    lane: u64,
    seq: u64,
    op: LogOpKind,
}

enum LogOpKind {
    SourceTx {
        id: PacketId,
        dir: Direction,
        aux_set: Vec<NodeId>,
        aux_heard: Vec<NodeId>,
        dst_heard: bool,
    },
    AckHeard {
        id: PacketId,
        heard_by: Vec<NodeId>,
        dir: Direction,
    },
    Relay {
        id: PacketId,
        by: NodeId,
        via_backplane: bool,
        reached: bool,
    },
    Decision {
        id: PacketId,
        aux: NodeId,
        prob: f64,
        relayed: bool,
    },
    Delivered {
        id: PacketId,
        dir: Direction,
    },
    WirelessTx {
        dir: Direction,
    },
    BackplaneTx,
    BackplaneDrop {
        relay: Option<(PacketId, NodeId)>,
    },
    AuxSample {
        sec: u64,
        size: usize,
    },
}

/// Sequence-number namespaces for coordinator-emitted ops, so they order
/// deterministically against (and after) same-instant lane ops.
const SEQ_RESOLUTION: u64 = 1 << 32;
const SEQ_BARRIER: u64 = 1 << 33;

/// A backplane send buffered during an epoch.
struct BpSend {
    t: SimTime,
    from: NodeId,
    to: NodeId,
    bytes: u32,
    msg: BackplaneMsg,
    lane_seq: u64,
    /// Which delivery attempt this is (0 = the original send; bumped by
    /// the bounded-retry machinery when a partition or spike eats it).
    attempt: u32,
}

/// A cross-lane message buffered during an epoch.
enum XMsg {
    AnchorDown {
        anchor: NodeId,
        vehicle: NodeId,
        payload: Bytes,
        lane_seq: u64,
    },
    WiredUp {
        vehicle: NodeId,
        from: NodeId,
        payload: Bytes,
        radio_exit: SimTime,
        at: SimTime,
        lane_seq: u64,
    },
}

impl XMsg {
    /// Canonical routing order: by target lane, then time, then source
    /// lane and its emission sequence.
    fn key(&self) -> (u64, SimTime, u64, u64) {
        match self {
            XMsg::AnchorDown {
                vehicle, lane_seq, ..
            } => (vehicle.label(), SimTime::ZERO, vehicle.label(), *lane_seq),
            XMsg::WiredUp {
                vehicle,
                from,
                at,
                lane_seq,
                ..
            } => (vehicle.label(), *at, from.label(), *lane_seq),
        }
    }
}

/// One shard: a disjoint set of lanes plus their scheduler, link-model
/// instance, and epoch outboxes.
struct Shard {
    /// Lanes owned by this shard, in node-id order.
    nodes: Vec<NodeId>,
    sched: Scheduler<(NodeId, Ev)>,
    /// Lane cells indexed by `NodeId::index()`; `None` for nodes other
    /// shards own. Boxed so the slots of foreign nodes cost a pointer.
    cells: Vec<Option<Box<NodeCell>>>,
    link: EngineLink,
    /// Host-command buffer lent to every driver callback, so a workload
    /// tick allocates nothing.
    cmds: Vec<HostCmd>,
    // ---- epoch outboxes, drained at every barrier ----
    tx_requests: Vec<TxRequest<WireFrame>>,
    bp_sends: Vec<BpSend>,
    x_msgs: Vec<XMsg>,
    log_ops: Vec<LogOp>,
    /// Reception reports of the current resolution phase:
    /// `(frame handle, receiver)`.
    reports: Vec<(TxHandle, NodeId)>,
    salvaged: u64,
    /// Fault-degradation counters for events on this shard's own lanes
    /// (summed across shards at the end; each event belongs to exactly
    /// one lane, so the sum is partition-invariant).
    faults: FaultStats,
    /// Wall-clock this shard spent executing epochs + resolving
    /// receptions — the per-shard cost a dedicated core would bear.
    wall: Duration,
}

impl Shard {
    /// True if this shard owns lane `n`.
    fn owns(&self, n: NodeId) -> bool {
        self.cells.get(n.index()).is_some_and(Option::is_some)
    }

    fn cell(&self, n: NodeId) -> &NodeCell {
        self.cells[n.index()].as_deref().expect("cell")
    }

    fn cell_mut(&mut self, n: NodeId) -> &mut NodeCell {
        self.cells[n.index()].as_deref_mut().expect("cell")
    }

    /// The cell of lane `n`, if this shard owns it.
    fn try_cell_mut(&mut self, n: NodeId) -> Option<&mut NodeCell> {
        self.cells.get_mut(n.index()).and_then(|c| c.as_deref_mut())
    }
}

/// Frame metadata the coordinator keeps from placement to resolution.
struct FrameMeta {
    /// Aux-set snapshot for the instrumented vehicle's source data frames
    /// (read from the vehicle's endpoint at the placement barrier).
    aux_set: Option<Vec<NodeId>>,
}

/// Barrier products the shards read during the parallel resolution phase.
#[derive(Default)]
struct Staged {
    /// `(sender, end)` of every window placed at this barrier, in batch
    /// order — each shard schedules `TxDone` for its own senders.
    placements: Vec<(NodeId, SimTime)>,
    /// Frames whose airtime ends before the next boundary, canonical
    /// `(end, src)` order, with complete overlap snapshots.
    resolvable: Vec<ResolvableTx<WireFrame>>,
}

/// Staging area the parallel barrier phases hand work through. The
/// leader fills it in the collect/split phases (behind the write lock);
/// workers read it concurrently to evaluate audibility probes and place
/// groups, claiming work through the engine's shared cursor.
#[derive(Default)]
struct BarrierScratch {
    /// The epoch's sorted transmission batch, awaiting the split phase.
    requests: Vec<TxRequest<WireFrame>>,
    /// Frame metas in batch order (consumed by the merge phase).
    metas: Vec<FrameMeta>,
    /// Batch senders in batch order (for the staged placements).
    senders: Vec<NodeId>,
    /// Backplane sends and cross-lane messages awaiting the route phase.
    bp: Vec<BpSend>,
    xs: Vec<XMsg>,
    /// The barrier instant the batch places at.
    at: SimTime,
    /// Audibility probe plan for the batch partition (collect → probe
    /// phase), and the workers' answers (probe → split phase).
    probes: Option<PartitionProbes>,
    audible: Vec<AtomicBool>,
    /// Placement jobs (split → place phase); each taken exactly once.
    jobs: Vec<Mutex<Option<PlacementGroup<WireFrame>>>>,
}

/// The node partition of an engine run: per shard, the lanes it owns.
#[derive(Clone, Debug)]
pub(crate) struct EnginePartition {
    /// One entry per shard: all owned nodes (vehicles and basestations),
    /// each node appearing in exactly one shard.
    pub lanes: Vec<Vec<NodeId>>,
}

impl EnginePartition {
    /// Everything in one shard — the `shards = 1` machine.
    pub fn single(mut nodes: Vec<NodeId>) -> Self {
        nodes.sort_by_key(|n| n.index());
        EnginePartition { lanes: vec![nodes] }
    }
}

/// Wall-clock accounting of one coupled run: per-shard epoch work and the
/// coordinator's serial barrier work. The critical path of the plan is
/// `serial + max(per_shard)` — what the run costs once every shard has
/// its own core.
#[derive(Clone, Debug)]
pub struct CoupledTiming {
    /// Per-shard wall-clock (epoch execution + reception resolution), in
    /// shard order.
    pub per_shard: Vec<Duration>,
    /// Serial coordinator wall-clock (placement, backplane, routing).
    pub serial: Duration,
    /// The epoch schedule the run synchronized on, and why.
    pub schedule: ScheduleMode,
    /// Barriers the run crossed: flat barriers in flat mode, cluster
    /// pipelines in nested mode.
    pub epochs: u64,
    /// Of those, the ones skipped as idle (see `Engine::epoch_is_idle`):
    /// no transmission request, backplane or cross-lane traffic, due
    /// retry or resolvable frame. Never part of the outcome.
    pub idle_epochs: u64,
}

impl CoupledTiming {
    /// The plan's critical path: serial work plus the slowest shard.
    pub fn critical_path(&self) -> Duration {
        self.serial
            + self
                .per_shard
                .iter()
                .copied()
                .max()
                .unwrap_or(Duration::ZERO)
    }
}

/// Inputs of an engine run, assembled by `Simulation`.
pub(crate) struct EngineSetup {
    pub cfg: RunConfig,
    pub vehicles: Vec<NodeId>,
    pub bs_ids: Vec<NodeId>,
    /// Builds one link-model instance; called once per shard plus once
    /// for the coordinator. Instances built from the same config agree
    /// link-for-link (per-link forked streams), which is what makes the
    /// partition irrelevant.
    pub link_factory: Box<dyn Fn() -> EngineLink>,
    pub schedule: EpochSchedule,
    /// Hierarchical epoch schedule for multi-cluster scenarios; `Some`
    /// switches the engine into nested-barrier mode (see the module
    /// docs). Must come with a matching `clusters` decomposition.
    pub hierarchy: Option<HierarchicalSchedule>,
    /// The contact-cluster decomposition behind `hierarchy`: every node
    /// in exactly one cluster, clusters radio-disjoint. Empty when the
    /// run is flat.
    pub clusters: Vec<Vec<NodeId>>,
    /// The schedule decision behind `hierarchy`, reported in the timing.
    pub mode: ScheduleMode,
    pub partition: EnginePartition,
    /// Worker threads to execute the shards on (clamped to shard count).
    pub workers: usize,
}

/// Drop guard held by every worker of a threaded executor: if the worker
/// unwinds, it poisons the epoch barrier so its peers panic instead of
/// waiting forever for a participant that will never arrive.
struct PoisonOnUnwind<F: Fn()>(F);

impl<F: Fn()> Drop for PoisonOnUnwind<F> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            (self.0)();
        }
    }
}

/// Join a threaded executor's workers. If any panicked, re-raise the root
/// cause on the calling thread: the first panic that is not a peer woken
/// by the poisoned barrier ([`PEER_PANICKED`]).
fn join_workers(handles: Vec<ScopedJoinHandle<'_, ()>>) {
    let mut root = None;
    for h in handles {
        if let Err(payload) = h.join() {
            let peer = payload.downcast_ref::<&str>() == Some(&PEER_PANICKED);
            if root
                .as_ref()
                .map_or(true, |&(was_peer, _)| was_peer && !peer)
            {
                root = Some((peer, payload));
            }
        }
    }
    if let Some((_, payload)) = root {
        std::panic::resume_unwind(payload);
    }
}

/// Run the engine to completion.
pub(crate) fn run(setup: EngineSetup) -> (RunOutcome, CoupledTiming) {
    Engine::build(setup).run()
}

/// Per-cluster radio runtime of a nested (hierarchical) run: the
/// cluster's own shared-medium service, link-model instance, frame metas
/// and buffered instrumentation ops. Clusters are radio-disjoint, so each
/// cluster's fine barriers only ever touch its own `ClusterRt` — that is
/// what lets clusters synchronize without stalling each other. Every
/// cluster's medium forks its backoff streams from the same `"mac"` root
/// (per-node streams are keyed by node label, so the split changes
/// nothing), and handles are namespaced per cluster via
/// [`SharedMediumService::with_handle_base`] so they stay globally
/// unique.
struct ClusterRt {
    medium: SharedMediumService<WireFrame>,
    link: EngineLink,
    meta: FastMap<TxHandle, FrameMeta>,
    /// Resolution ops of this cluster's frames, appended to the global
    /// log stream (cluster-index order) at outcome assembly — canonical
    /// because the final `(at, lane, seq)` sort is partition-blind.
    log_ops: Vec<LogOp>,
}

/// Globally shared, barrier-serial state.
struct Coordinator {
    medium: SharedMediumService<WireFrame>,
    backplane: Backplane,
    link: EngineLink,
    meta: FastMap<TxHandle, FrameMeta>,
    log_ops: Vec<LogOp>,
    serial_wall: Duration,
    /// Monotone namespace counter for coordinator-emitted drop ops.
    drop_seq: u64,
    /// Loss draws for backplane spike windows. Only consumed while a
    /// spike is active, in canonical batch order, in the single-threaded
    /// barrier section — so the stream is identical for every partition
    /// and untouched by unfaulted runs.
    fault_rng: Rng,
    /// Backplane messages awaiting their retry instant.
    retries: Vec<BpSend>,
    /// Coordinator-side fault counters (backplane drops and retries).
    tally: FaultStats,
}

struct Engine {
    cfg: RunConfig,
    vehicles: Vec<NodeId>,
    bs_ids: Vec<NodeId>,
    beacons: BeaconSchedule,
    schedule: EpochSchedule,
    shards: Vec<Mutex<Shard>>,
    /// Which shard owns each node, indexed by `NodeId::index()`.
    owner: Vec<usize>,
    coord: Mutex<Coordinator>,
    staged: RwLock<Staged>,
    /// Parallel-barrier staging (probe plan, placement jobs).
    scratch: RwLock<BarrierScratch>,
    /// Work-claim cursor for the probe and place phases (reset by the
    /// leader while every other worker is parked at the next wait).
    cursor: AtomicUsize,
    /// Placed groups accumulated by the place phase, merged canonically.
    placed: Mutex<Vec<(usize, PlacedGroup<WireFrame>)>>,
    /// The threaded flat executor's idle verdict for the current barrier,
    /// published by the leader for every worker to read.
    skip: AtomicBool,
    /// Barriers crossed and barriers skipped as idle (reported in
    /// [`CoupledTiming`]).
    epochs: AtomicU64,
    idle_epochs: AtomicU64,
    workers: usize,
    /// The instrumented vehicle (first vehicle; owns the packet log).
    v0: NodeId,
    /// Fast path: true when the fault plan schedules anything at all.
    faulted: bool,
    /// The run's root RNG (restart streams fork from it on demand).
    rng: Rng,
    /// Nested mode (multi-cluster scenarios): the two-level schedule and
    /// the cluster machinery. `None` runs the flat single-level barrier
    /// loop, byte-for-byte the pre-hierarchy engine.
    hierarchy: Option<HierarchicalSchedule>,
    /// The schedule decision, reported in the run's timing.
    mode: ScheduleMode,
    /// Which cluster owns each node, indexed by `NodeId::index()`
    /// (nested mode only).
    cluster_of: Vec<usize>,
    /// Per-cluster radio runtimes (nested mode only).
    cluster_rts: Vec<Mutex<ClusterRt>>,
    /// Shards hosting each cluster, ascending, each with its lanes in the
    /// cluster (nested mode only).
    cluster_hosts: Vec<Vec<ClusterHost>>,
    /// Test-only fault hook: shard `.0` panics in the first epoch that
    /// reaches `.1` (see `tests::PANIC_AT`).
    #[cfg(test)]
    panic_at: Option<(u32, SimTime)>,
}

/// One shard's share of a cluster (nested mode): the shard, and its lanes
/// in the cluster in lane order — the receivers the cluster's frames are
/// sampled at on that shard.
struct ClusterHost {
    shard: usize,
    lanes: Vec<NodeId>,
}

impl Engine {
    fn build(setup: EngineSetup) -> Engine {
        let EngineSetup {
            cfg,
            vehicles,
            bs_ids,
            link_factory,
            schedule,
            hierarchy,
            clusters,
            mode,
            partition,
            workers,
        } = setup;
        assert!(!vehicles.is_empty() && !bs_ids.is_empty());
        let rng = Rng::new(cfg.seed);
        let beacons = BeaconSchedule::new(cfg.vifi.beacon_period, &rng);
        let v0 = vehicles[0];

        // Workload hosts: the instrumented vehicle alone by default,
        // every vehicle in fleet mode. The first vehicle keeps the
        // historical "driver" stream; fleet members fork per-vehicle
        // streams (same derivation as the pre-engine loop).
        let driver_rng = rng.fork_named("driver");
        let mut hosts: HashMap<NodeId, VehicleHost> = HashMap::new();
        if cfg.fleet_workloads.is_empty() {
            hosts.insert(
                v0,
                VehicleHost {
                    driver: Some(build_driver(&cfg.workload, SimTime::ZERO)),
                    rng: driver_rng,
                    anchor_switches: 0,
                    unroutable_down: 0,
                },
            );
        } else {
            for (i, &v) in vehicles.iter().enumerate() {
                let spec = &cfg.fleet_workloads[i % cfg.fleet_workloads.len()];
                hosts.insert(
                    v,
                    VehicleHost {
                        driver: Some(build_driver(spec, SimTime::ZERO)),
                        rng: if i == 0 {
                            driver_rng.fork(0)
                        } else {
                            driver_rng.fork(v.label())
                        },
                        anchor_switches: 0,
                        unroutable_down: 0,
                    },
                );
            }
        }

        let n_ids = partition
            .lanes
            .iter()
            .flatten()
            .map(|n| n.index() + 1)
            .max()
            .unwrap_or(0);
        let mut owner = vec![usize::MAX; n_ids];
        let mut shards = Vec::with_capacity(partition.lanes.len());
        for (s, lane_nodes) in partition.lanes.iter().enumerate() {
            let mut nodes = lane_nodes.clone();
            nodes.sort_by_key(|n| n.index());
            let mut cells: Vec<Option<Box<NodeCell>>> = Vec::new();
            cells.resize_with(n_ids, || None);
            for &n in &nodes {
                assert_eq!(
                    owner[n.index()],
                    usize::MAX,
                    "node {n:?} assigned to two shards"
                );
                owner[n.index()] = s;
                let role = if bs_ids.contains(&n) {
                    Role::Bs
                } else {
                    Role::Vehicle
                };
                // Same per-endpoint stream derivation as the historical
                // assemble(): position-independent forks keyed by label.
                let ep_rng = rng.fork(
                    if role == Role::Vehicle {
                        0x5EED_0000
                    } else {
                        0x5EED_1000
                    } + n.label(),
                );
                cells[n.index()] = Some(Box::new(NodeCell {
                    endpoint: Endpoint::new(n, role, cfg.vifi.clone(), bs_ids.clone(), ep_rng),
                    iface_busy: false,
                    pending_beacon: None,
                    wakeup_token: None,
                    host: hosts.remove(&n),
                    emit_seq: 0,
                    restarts: 0,
                    carried_evictions: 0,
                }));
            }
            shards.push(Mutex::new(Shard {
                nodes,
                sched: Scheduler::with_shard(s as u32),
                cells,
                link: link_factory(),
                cmds: Vec::new(),
                tx_requests: Vec::new(),
                bp_sends: Vec::new(),
                x_msgs: Vec::new(),
                log_ops: Vec::new(),
                reports: Vec::new(),
                salvaged: 0,
                faults: FaultStats::default(),
                wall: Duration::ZERO,
            }));
        }
        assert!(
            hosts.is_empty(),
            "every workload vehicle must be assigned to a shard"
        );

        let coord = Coordinator {
            medium: SharedMediumService::new(cfg.mac, &rng.fork_named("mac")),
            backplane: Backplane::new(cfg.backplane),
            link: link_factory(),
            meta: FastMap::default(),
            log_ops: Vec::new(),
            serial_wall: Duration::ZERO,
            drop_seq: 0,
            fault_rng: rng.fork_named("fault-bp"),
            retries: Vec::new(),
            tally: FaultStats::default(),
        };
        // Nested-mode cluster machinery. The decomposition and schedule
        // are pure functions of the scenario, so the sequential run and
        // every sharded run build identical cluster runtimes — the
        // medium split is invisible to placement because clusters are
        // radio-disjoint and per-node backoff streams fork by label from
        // the same root as the flat medium.
        let mut cluster_of = Vec::new();
        let mut cluster_rts = Vec::with_capacity(clusters.len());
        let mut cluster_hosts: Vec<Vec<ClusterHost>> =
            (0..clusters.len()).map(|_| Vec::new()).collect();
        if let Some(h) = &hierarchy {
            assert_eq!(
                h.clusters(),
                clusters.len(),
                "hierarchy and decomposition must agree"
            );
            cluster_of = vec![usize::MAX; n_ids];
            for (c, members) in clusters.iter().enumerate() {
                for &n in members {
                    let slot = &mut cluster_of[n.index()];
                    assert_eq!(*slot, usize::MAX, "node {n:?} in two clusters");
                    *slot = c;
                }
                cluster_rts.push(Mutex::new(ClusterRt {
                    medium: SharedMediumService::new(cfg.mac, &rng.fork_named("mac"))
                        .with_handle_base((c as u64) << 48),
                    link: link_factory(),
                    meta: FastMap::default(),
                    log_ops: Vec::new(),
                }));
            }
            for (s, shard) in shards.iter_mut().enumerate() {
                for &n in &shard.get_mut().expect("shard").nodes {
                    let c = cluster_of[n.index()];
                    assert_ne!(c, usize::MAX, "node {n:?} has no cluster");
                    let hosts = &mut cluster_hosts[c];
                    match hosts.last_mut() {
                        Some(h) if h.shard == s => h.lanes.push(n),
                        _ => hosts.push(ClusterHost {
                            shard: s,
                            lanes: vec![n],
                        }),
                    }
                }
            }
        }
        let workers = workers.clamp(1, partition.lanes.len());
        let faulted = !cfg.faults.is_empty();
        Engine {
            cfg,
            vehicles,
            bs_ids,
            beacons,
            schedule,
            shards,
            owner,
            coord: Mutex::new(coord),
            staged: RwLock::new(Staged::default()),
            scratch: RwLock::new(BarrierScratch::default()),
            cursor: AtomicUsize::new(0),
            placed: Mutex::new(Vec::new()),
            skip: AtomicBool::new(false),
            epochs: AtomicU64::new(0),
            idle_epochs: AtomicU64::new(0),
            workers,
            v0,
            faulted,
            rng,
            hierarchy,
            mode,
            cluster_of,
            cluster_rts,
            cluster_hosts,
            #[cfg(test)]
            panic_at: tests::PANIC_AT.with(std::cell::Cell::get),
        }
    }

    fn run(self) -> (RunOutcome, CoupledTiming) {
        if self.hierarchy.is_some() {
            return self.run_nested();
        }
        let horizon = SimTime::ZERO + self.cfg.duration;
        let boundaries = self.schedule.boundaries(horizon);
        // Drain floor for the final barrier: only frames whose airtime
        // ends within the horizon resolve (and get logged) — a frame
        // still in the air when the run ends leaves no record, matching
        // the per-event loop's behavior at the tail.
        let final_next = SimTime::from_micros(horizon.as_micros() + 1);
        self.seed_shards(horizon);

        if self.workers <= 1 {
            // Serial executor: identical phases, no thread handoff. The
            // per-shard walls measured here are what each shard would cost
            // on a core of its own — the parallel probe/place phases are
            // therefore timed in per-shard slices rotated by epoch index,
            // exactly the work each shard's core would absorb in a
            // threaded run with balanced assignment.
            for (bi, &b) in boundaries.iter().enumerate() {
                for shard in &self.shards {
                    let mut sh = shard.lock().expect("shard");
                    let t0 = Instant::now();
                    self.exec_epoch(&mut sh, b.min(horizon), false);
                    sh.wall += t0.elapsed();
                }
                let next = boundaries
                    .get(bi + 1)
                    .map_or(final_next, |&n| n.min(horizon));
                if self.epoch_is_idle(None, b, next) {
                    continue;
                }
                self.barrier_collect(b);
                {
                    let scratch = self.scratch.read().expect("scratch");
                    if let Some(probes) = scratch.probes.as_ref() {
                        let (total, n) = (probes.len(), self.shards.len());
                        for j in 0..n {
                            let (lo, hi) = (j * total / n, (j + 1) * total / n);
                            if lo == hi {
                                continue;
                            }
                            // Rotate wall attribution by epoch so small
                            // batches don't pile onto shard 0's core.
                            let mut sh = self.shards[(j + bi) % n].lock().expect("shard");
                            let t0 = Instant::now();
                            self.eval_probes(&scratch, lo..hi, sh.link.as_ref());
                            sh.wall += t0.elapsed();
                        }
                    }
                }
                self.barrier_split(b);
                {
                    let scratch = self.scratch.read().expect("scratch");
                    for i in 0..scratch.jobs.len() {
                        let n = self.shards.len();
                        let mut sh = self.shards[(i + bi) % n].lock().expect("shard");
                        let t0 = Instant::now();
                        self.place_job(&scratch, i);
                        sh.wall += t0.elapsed();
                    }
                }
                self.barrier_merge_route(b, next);
                for shard in &self.shards {
                    let mut sh = shard.lock().expect("shard");
                    let t0 = Instant::now();
                    self.resolution_phase(&mut sh);
                    sh.wall += t0.elapsed();
                }
                self.barrier_serial_post();
            }
            for shard in &self.shards {
                let mut sh = shard.lock().expect("shard");
                let t0 = Instant::now();
                self.exec_epoch(&mut sh, horizon, true);
                sh.wall += t0.elapsed();
            }
        } else {
            // Threaded executor: workers own interleaved shard subsets;
            // each barrier's leader runs the coordinator sections while
            // the rest wait — the conservative lock-step the schedule
            // prescribes. The first leader section also decides whether
            // the barrier is idle and publishes the verdict, so an idle
            // barrier costs two crossings instead of eight.
            let barrier = EpochBarrier::new(self.workers);
            let engine = &self;
            let boundaries = &boundaries;
            std::thread::scope(|scope| {
                let mut handles = Vec::new();
                for w in 0..engine.workers {
                    let barrier = &barrier;
                    handles.push(scope.spawn(move || {
                        let _poison = PoisonOnUnwind(|| barrier.poison());
                        let my_shards: Vec<usize> =
                            (w..engine.shards.len()).step_by(engine.workers).collect();
                        for (bi, &b) in boundaries.iter().enumerate() {
                            for &si in &my_shards {
                                let mut sh = engine.shards[si].lock().expect("shard");
                                let t0 = Instant::now();
                                engine.exec_epoch(&mut sh, b.min(horizon), false);
                                sh.wall += t0.elapsed();
                            }
                            let next = boundaries
                                .get(bi + 1)
                                .map_or(final_next, |&n| n.min(horizon));
                            if barrier.wait() {
                                let idle = engine.epoch_is_idle(None, b, next);
                                engine.skip.store(idle, Ordering::SeqCst);
                                if !idle {
                                    engine.barrier_collect(b);
                                }
                            }
                            barrier.wait();
                            if engine.skip.load(Ordering::SeqCst) {
                                continue;
                            }
                            // Parallel audibility probes, then parallel
                            // group placement — each worker drains the
                            // shared cursor with its own shard's link
                            // (quality_hint is pure and
                            // instance-independent, so any instance
                            // gives bit-identical answers).
                            {
                                let mut sh = engine.shards[my_shards[0]].lock().expect("shard");
                                let t0 = Instant::now();
                                engine.drain_probes(sh.link.as_ref());
                                sh.wall += t0.elapsed();
                            }
                            if barrier.wait() {
                                engine.barrier_split(b);
                            }
                            barrier.wait();
                            {
                                let mut sh = engine.shards[my_shards[0]].lock().expect("shard");
                                let t0 = Instant::now();
                                engine.drain_jobs();
                                sh.wall += t0.elapsed();
                            }
                            if barrier.wait() {
                                engine.barrier_merge_route(b, next);
                            }
                            barrier.wait();
                            for &si in &my_shards {
                                let mut sh = engine.shards[si].lock().expect("shard");
                                let t0 = Instant::now();
                                engine.resolution_phase(&mut sh);
                                sh.wall += t0.elapsed();
                            }
                            if barrier.wait() {
                                engine.barrier_serial_post();
                            }
                            barrier.wait();
                        }
                        for &si in &my_shards {
                            let mut sh = engine.shards[si].lock().expect("shard");
                            let t0 = Instant::now();
                            engine.exec_epoch(&mut sh, horizon, true);
                            sh.wall += t0.elapsed();
                        }
                    }));
                }
                join_workers(handles);
            });
        }

        self.assemble_outcome(horizon)
    }

    /// Seed every shard: beacons for every lane, then fault-plan
    /// restarts, then drivers — all in lane order. A restart fires at
    /// the end of each crash window: while the window is open the pure
    /// fault predicates keep the node inert, and the `FaultUp` event
    /// is the single stateful step (a fresh endpoint).
    fn seed_shards(&self, horizon: SimTime) {
        for shard in &self.shards {
            let mut sh = shard.lock().expect("shard");
            for i in 0..sh.nodes.len() {
                let n = sh.nodes[i];
                let at = self.beacons.next_after(n, SimTime::ZERO);
                sh.sched.at(at, (n, Ev::Beacon));
            }
            if self.faulted {
                for i in 0..sh.nodes.len() {
                    let n = sh.nodes[i];
                    for w in self.cfg.faults.crash_windows(n) {
                        if w.end < horizon {
                            sh.sched.at(w.end, (n, Ev::FaultUp));
                        }
                    }
                }
            }
            for i in 0..sh.nodes.len() {
                let n = sh.nodes[i];
                if sh.cell(n).host.is_some() {
                    self.with_driver(&mut sh, n, SimTime::ZERO, |d, api| d.start(api));
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Nested executor (multi-cluster scenarios)
    // ------------------------------------------------------------------

    /// The nested-barrier run loop: each cluster walks its own fine
    /// schedule against its own radio runtime, and the whole fleet
    /// rendezvouses only at coarse boundaries, where the thin backplane
    /// coupling (wired hops, partitions, spikes) resolves in canonical
    /// order. Outcomes are a pure function of `(config, seed, hierarchy)`
    /// — identical at every shard and worker count — because every phase
    /// below runs at schedule-determined instants in schedule-determined
    /// order, exactly like the flat loop.
    fn run_nested(self) -> (RunOutcome, CoupledTiming) {
        let horizon = SimTime::ZERO + self.cfg.duration;
        let hierarchy = self.hierarchy.as_ref().expect("nested run");
        let bounds = hierarchy.boundaries(horizon);
        let final_next = SimTime::from_micros(horizon.as_micros() + 1);
        let cluster_bounds: Vec<Vec<SimTime>> = (0..hierarchy.clusters())
            .map(|c| hierarchy.cluster_boundaries(c, horizon))
            .collect();
        self.seed_shards(horizon);

        if self.workers <= 1 {
            // Serial nested executor: every shard executes to each union
            // boundary, then the due clusters' pipelines run in cluster
            // order, then (at coarse instants) the global rendezvous —
            // the same per-shard event interleaving the threaded
            // executor produces.
            for (i, &(t, mask, is_coarse)) in bounds.iter().enumerate() {
                let coarse = is_coarse || i + 1 == bounds.len();
                for shard in &self.shards {
                    let mut sh = shard.lock().expect("shard");
                    let t0 = Instant::now();
                    self.exec_epoch(&mut sh, t.min(horizon), false);
                    sh.wall += t0.elapsed();
                }
                for (c, cb) in cluster_bounds.iter().enumerate() {
                    if mask & (1 << c) != 0 {
                        self.cluster_pipeline(c, t, next_boundary(cb, t, horizon, final_next));
                    }
                }
                if coarse {
                    self.global_coarse(t);
                }
            }
        } else {
            self.run_nested_threaded(&bounds, &cluster_bounds, horizon, final_next);
        }

        for shard in &self.shards {
            let mut sh = shard.lock().expect("shard");
            let t0 = Instant::now();
            self.exec_epoch(&mut sh, horizon, true);
            sh.wall += t0.elapsed();
        }
        self.assemble_outcome(horizon)
    }

    /// The threaded nested executor. Clusters that share a shard are
    /// grouped (a shard's events must be executed by exactly one worker);
    /// groups are packed into `min(workers, groups)` supergroups, each
    /// with its own slice of the worker pool and its own cluster barrier
    /// in a [`NestedEpochBarrier`] — so a supergroup's fine boundaries
    /// never stall the others, and only coarse boundaries synchronize the
    /// whole pool.
    fn run_nested_threaded(
        &self,
        bounds: &[(SimTime, u64, bool)],
        cluster_bounds: &[Vec<SimTime>],
        horizon: SimTime,
        final_next: SimTime,
    ) {
        let nc = cluster_bounds.len();
        // Group clusters that share a shard (union-find over clusters).
        let mut parent: Vec<usize> = (0..nc).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        let mut shard_cluster: HashMap<usize, usize> = HashMap::new();
        for (c, hosts) in self.cluster_hosts.iter().enumerate() {
            for s in hosts.iter().map(|h| h.shard) {
                match shard_cluster.get(&s) {
                    Some(&d) => {
                        let (a, b) = (find(&mut parent, c), find(&mut parent, d));
                        if a != b {
                            parent[a.max(b)] = a.min(b);
                        }
                    }
                    None => {
                        shard_cluster.insert(s, c);
                    }
                }
            }
        }
        // Groups in order of their smallest cluster.
        let mut group_of_root: HashMap<usize, usize> = HashMap::new();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for c in 0..nc {
            let r = find(&mut parent, c);
            let g = *group_of_root.entry(r).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[g].push(c);
        }
        // Pack groups into supergroups (LPT by node count, deterministic
        // tie-breaks), then split the worker pool proportionally.
        let group_w: Vec<usize> = groups
            .iter()
            .map(|g| {
                g.iter()
                    .flat_map(|&c| &self.cluster_hosts[c])
                    .map(|h| h.lanes.len())
                    .sum()
            })
            .collect();
        let nsg = self.workers.min(groups.len());
        let mut order: Vec<usize> = (0..groups.len()).collect();
        order.sort_by_key(|&g| (std::cmp::Reverse(group_w[g]), g));
        let mut sg_clusters: Vec<Vec<usize>> = vec![Vec::new(); nsg];
        let mut sg_load = vec![0usize; nsg];
        for g in order {
            let lightest = (0..nsg).min_by_key(|&k| (sg_load[k], k)).expect(">=1");
            sg_load[lightest] += group_w[g];
            sg_clusters[lightest].extend(groups[g].iter().copied());
        }
        for cs in &mut sg_clusters {
            cs.sort_unstable();
        }
        // Worker counts per supergroup: largest remainder on load, each
        // at least one, summing to the pool.
        let total: usize = sg_load.iter().sum::<usize>().max(1);
        let extra = self.workers - nsg;
        let mut counts = vec![1usize; nsg];
        let mut given = 0usize;
        let mut rem: Vec<(usize, usize)> = Vec::with_capacity(nsg);
        for k in 0..nsg {
            let exact = extra * sg_load[k];
            counts[k] += exact / total;
            given += exact / total;
            rem.push((exact % total, k));
        }
        rem.sort_by_key(|&(r, k)| (std::cmp::Reverse(r), k));
        for &(_, k) in rem.iter().take(extra - given) {
            counts[k] += 1;
        }
        // Shards of each supergroup: every hosting shard of its clusters,
        // plus empty shards round-robined across supergroups.
        let mut sg_of_shard: Vec<Option<usize>> = vec![None; self.shards.len()];
        for (k, cs) in sg_clusters.iter().enumerate() {
            for &c in cs {
                for h in &self.cluster_hosts[c] {
                    sg_of_shard[h.shard] = Some(k);
                }
            }
        }
        let mut sg_shards: Vec<Vec<usize>> = vec![Vec::new(); nsg];
        let mut spare = 0usize;
        for (s, k) in sg_of_shard.iter().enumerate() {
            match k {
                Some(k) => sg_shards[*k].push(s),
                None => {
                    sg_shards[spare % nsg].push(s);
                    spare += 1;
                }
            }
        }
        let sg_mask: Vec<u64> = sg_clusters
            .iter()
            .map(|cs| cs.iter().fold(0u64, |m, &c| m | (1 << c)))
            .collect();

        let barrier = NestedEpochBarrier::new(&counts);
        let engine = &self;
        let counts = &counts;
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for sg in 0..nsg {
                for k in 0..counts[sg] {
                    let barrier = &barrier;
                    let (sg_shards, sg_clusters, sg_mask) = (&sg_shards, &sg_clusters, &sg_mask);
                    handles.push(scope.spawn(move || {
                        let _poison = PoisonOnUnwind(|| barrier.poison());
                        let my_shards: Vec<usize> = sg_shards[sg]
                            .iter()
                            .copied()
                            .skip(k)
                            .step_by(counts[sg])
                            .collect();
                        for (i, &(t, mask, is_coarse)) in bounds.iter().enumerate() {
                            let coarse = is_coarse || i + 1 == bounds.len();
                            if !coarse && mask & sg_mask[sg] == 0 {
                                // None of this supergroup's clusters has a
                                // boundary here: free-run past it. Event
                                // execution is chunk-invariant, so the
                                // skipped span is absorbed by the next
                                // participating boundary.
                                continue;
                            }
                            for &si in &my_shards {
                                let mut sh = engine.shards[si].lock().expect("shard");
                                let t0 = Instant::now();
                                engine.exec_epoch(&mut sh, t.min(horizon), false);
                                sh.wall += t0.elapsed();
                            }
                            if barrier.wait_cluster(sg) {
                                for &c in &sg_clusters[sg] {
                                    if mask & (1 << c) != 0 {
                                        engine.cluster_pipeline(
                                            c,
                                            t,
                                            next_boundary(
                                                &cluster_bounds[c],
                                                t,
                                                horizon,
                                                final_next,
                                            ),
                                        );
                                    }
                                }
                            }
                            barrier.wait_cluster(sg);
                            if coarse {
                                if barrier.wait_global() {
                                    engine.global_coarse(t);
                                }
                                barrier.wait_global();
                            }
                        }
                    }));
                }
            }
            join_workers(handles);
        });
    }

    /// One cluster's fine barrier: collect the cluster's transmission
    /// requests from its hosting shards, place them on the cluster's own
    /// medium, and resolve the frames ending before the cluster's next
    /// boundary — the leader-serial analogue of the flat barrier's
    /// collect/split/place/merge/resolve phases, confined to one
    /// radio-disjoint cluster. Backplane sends and cross-lane messages
    /// stay buffered in the shards until the coarse rendezvous. An idle
    /// pipeline ([`Self::epoch_is_idle`]) is skipped outright.
    fn cluster_pipeline(&self, c: usize, b: SimTime, next: SimTime) {
        if self.epoch_is_idle(Some(c), b, next) {
            return;
        }
        let t0 = Instant::now();
        let mut rt = self.cluster_rts[c].lock().expect("cluster rt");

        // ---- collect this cluster's requests, hosting shards in order --
        let mut requests: Vec<TxRequest<WireFrame>> = Vec::new();
        for host in &self.cluster_hosts[c] {
            let mut sh = self.shards[host.shard].lock().expect("shard");
            let (mine, rest): (Vec<_>, Vec<_>) = std::mem::take(&mut sh.tx_requests)
                .into_iter()
                .partition(|r| self.in_cluster(r, c));
            sh.tx_requests = rest;
            requests.extend(mine);
        }
        requests.sort_by_key(|r| (r.t_req, r.frame.src.label()));

        // ---- aux snapshots ----
        // The instrumented vehicle's source data frames are transmitted
        // by v0 itself or by a BS in radio contact with it, so they only
        // ever appear in v0's own cluster — the lock below never races
        // another cluster's pipeline.
        let metas: Vec<FrameMeta> = requests.iter().map(|r| self.frame_meta(r, b)).collect();
        let senders: Vec<NodeId> = requests.iter().map(|r| r.frame.src).collect();

        // ---- place on the cluster's own medium, drain resolvable ----
        let ClusterRt {
            medium,
            link,
            meta,
            log_ops,
        } = &mut *rt;
        let groups = medium.split_batch(requests, b, link.as_ref());
        let placed: Vec<PlacedGroup<WireFrame>> = groups.into_iter().map(|g| g.place(b)).collect();
        let placements = medium.merge_placed(placed, b, link.as_ref());
        for (p, m) in placements.iter().zip(metas) {
            meta.insert(p.handle, m);
        }
        let resolvable = medium.drain_resolvable(next);

        // ---- per hosting shard: TxDone + reception sampling ----
        // Each receiver samples on its owner shard's link instance, as in
        // flat mode; restricting to the cluster's own nodes is pure
        // stream hygiene (cross-cluster pairs have zero quality and never
        // consume link randomness).
        let sense = self.cfg.mac.sense_threshold;
        let mut by_handle: FastMap<TxHandle, Vec<NodeId>> = FastMap::default();
        for host in &self.cluster_hosts[c] {
            let mut sh = self.shards[host.shard].lock().expect("shard");
            for (src, p) in senders.iter().zip(&placements) {
                if sh.owns(*src) {
                    sh.sched.at(p.end, (*src, Ev::TxDone));
                }
            }
            for tx in &resolvable {
                for &rx in &host.lanes {
                    if self.faulted && self.cfg.faults.bs_down(rx, tx.end) {
                        sh.faults.rx_dropped_down += 1;
                        continue;
                    }
                    if kernel::sample_reception(sh.link.as_mut(), tx, rx, sense).is_some() {
                        sh.sched.at(tx.end, (rx, Ev::Rx(tx.frame.payload.clone())));
                        by_handle.entry(tx.handle).or_default().push(rx);
                    }
                }
            }
        }

        // ---- per-frame instrumentation, canonical order ----
        for (k, tx) in resolvable.iter().enumerate() {
            let mut rx_ids = by_handle.remove(&tx.handle).unwrap_or_default();
            rx_ids.sort_by_key(|n| n.index());
            let m = meta.remove(&tx.handle);
            self.emit_frame_ops(log_ops, tx, &rx_ids, m, SEQ_RESOLUTION + k as u64);
        }
        drop(rt);

        // Stall model: every hosting shard waits for its cluster's
        // pipeline, so the elapsed time lands on each of their walls (the
        // fleet-wide serial wall only accrues at coarse boundaries).
        let elapsed = t0.elapsed();
        for host in &self.cluster_hosts[c] {
            let mut sh = self.shards[host.shard].lock().expect("shard");
            sh.wall += elapsed;
        }
    }

    /// Lock the shard that owns lane `n`.
    fn owner_shard(&self, n: NodeId) -> MutexGuard<'_, Shard> {
        self.shards[self.owner[n.index()]].lock().expect("shard")
    }

    /// True if request `r` comes from a lane of cluster `c`.
    fn in_cluster(&self, r: &TxRequest<WireFrame>, c: usize) -> bool {
        self.cluster_of[r.frame.src.index()] == c
    }

    /// The idle-epoch rule, shared by the flat barrier (`cluster = None`)
    /// and each cluster's pipeline (`Some(c)`): true when the barrier at
    /// `b`, draining frames that end before `next`, has nothing to do. It
    /// is idle when
    ///
    /// * no shard holds a transmission request (of the cluster);
    /// * flat only: no shard holds a backplane send or cross-lane
    ///   message, and no backplane retry is due at or before `b` (a
    ///   nested run leaves these to the coarse rendezvous, which never
    ///   skips);
    /// * the medium (the cluster's) has nothing resolvable before `next`
    ///   ([`SharedMediumService::nothing_resolvable_before`]).
    ///
    /// Skipping every phase of an idle barrier is exact — each phase
    /// would have changed no state:
    ///
    /// * collect, probe, split, place and merge see an empty batch: no
    ///   handle, backoff draw or window moves;
    /// * the drain resolves nothing, and its prune keeps exactly what it
    ///   kept at the previous drain: every placement is drained at its
    ///   own barrier, so the resolved set and the prune bound (earliest
    ///   unresolved start) have not moved since;
    /// * resolution and the post phase see no frame; the routing tail
    ///   sees no send, no message and no due retry (retries not due stay
    ///   in order);
    /// * the one deferred effect is that shards' buffered log ops move to
    ///   the coordinator's log at a later barrier (or at outcome
    ///   assembly). Ops replay after a stable sort by `(at, lane, seq)`,
    ///   whose only equal keys are the op pairs one frame emits together
    ///   into one vector, so the replayed order is unchanged.
    ///
    /// Counts the barrier, and the skip, in the run's [`CoupledTiming`].
    /// Flat checks are coordinator work and land on the serial wall.
    fn epoch_is_idle(&self, cluster: Option<usize>, b: SimTime, next: SimTime) -> bool {
        self.epochs.fetch_add(1, Ordering::Relaxed);
        let idle = match cluster {
            Some(c) => {
                self.cluster_hosts[c].iter().all(|h| {
                    let sh = self.shards[h.shard].lock().expect("shard");
                    !sh.tx_requests.iter().any(|r| self.in_cluster(r, c))
                }) && self.cluster_rts[c]
                    .lock()
                    .expect("cluster rt")
                    .medium
                    .nothing_resolvable_before(next)
            }
            None => {
                let t0 = Instant::now();
                let quiet = self.shards.iter().all(|s| {
                    let sh = s.lock().expect("shard");
                    sh.tx_requests.is_empty() && sh.bp_sends.is_empty() && sh.x_msgs.is_empty()
                });
                let mut coord = self.coord.lock().expect("coordinator");
                let idle = quiet
                    && !coord.retries.iter().any(|r| r.t <= b)
                    && coord.medium.nothing_resolvable_before(next);
                coord.serial_wall += t0.elapsed();
                idle
            }
        };
        if idle {
            self.idle_epochs.fetch_add(1, Ordering::Relaxed);
        }
        idle
    }

    /// Frame metadata snapshot at placement: the instrumented vehicle's
    /// aux set for its own source data frames (a cross-lane read — legal
    /// at a barrier, where every shard is parked).
    fn frame_meta(&self, r: &TxRequest<WireFrame>, b: SimTime) -> FrameMeta {
        let aux_set = match DataView::of(&r.frame.payload) {
            Some(d)
                if d.relayed_by().is_none()
                    && self.flow_vehicle(d.flow_src(), d.flow_dst()) == self.v0 =>
            {
                let mut sh = self.owner_shard(self.v0);
                Some(sh.cell_mut(self.v0).endpoint.current_aux(b))
            }
            _ => None,
        };
        FrameMeta { aux_set }
    }

    /// The coarse rendezvous of a nested run: drain every shard's
    /// backplane sends and cross-lane messages (shard order) and resolve
    /// them through the same canonical routing tail the flat engine runs
    /// at every epoch. This is the only phase where clusters exchange
    /// effects — over the wired backplane, never over the air.
    fn global_coarse(&self, b: SimTime) {
        let t0 = Instant::now();
        let mut coord = self.coord.lock().expect("coordinator");
        let mut bp: Vec<BpSend> = Vec::new();
        let mut xs: Vec<XMsg> = Vec::new();
        for shard in &self.shards {
            let mut sh = shard.lock().expect("shard");
            bp.append(&mut sh.bp_sends);
            xs.append(&mut sh.x_msgs);
        }
        self.route_global(&mut coord, bp, xs, b);
        coord.serial_wall += t0.elapsed();
    }

    /// Dispatch one shard's events up to `limit` — exclusive between
    /// epochs, inclusive on the final pass (matching the historical
    /// `<= horizon` loop).
    fn exec_epoch(&self, sh: &mut Shard, limit: SimTime, inclusive: bool) {
        #[cfg(test)]
        if let Some((shard, at)) = self.panic_at {
            if sh.sched.shard_id() == shard && limit >= at {
                std::panic::panic_any(tests::INJECTED);
            }
        }
        while let Some(t) = sh.sched.peek_time() {
            if (inclusive && t > limit) || (!inclusive && t >= limit) {
                break;
            }
            let (now, (lane, ev)) = sh.sched.step().expect("peeked event vanished");
            self.dispatch(sh, lane, ev, now);
        }
    }

    // ------------------------------------------------------------------
    // Barrier phases
    // ------------------------------------------------------------------

    /// Leader phase 1: collect every shard's outbox, sort the epoch's
    /// transmission batch into canonical order, snapshot frame metas, and
    /// plan the audibility probes the batch partition needs. Publishes
    /// the batch in the scratch area and resets the work cursor — legal
    /// because every other worker is parked at the following wait.
    fn barrier_collect(&self, b: SimTime) {
        let t0 = Instant::now();
        let mut coord = self.coord.lock().expect("coordinator");

        // ---- collect outboxes in shard order ----
        let mut requests: Vec<TxRequest<WireFrame>> = Vec::new();
        let mut bp: Vec<BpSend> = Vec::new();
        let mut xs: Vec<XMsg> = Vec::new();
        for shard in &self.shards {
            let mut sh = shard.lock().expect("shard");
            requests.append(&mut sh.tx_requests);
            bp.append(&mut sh.bp_sends);
            xs.append(&mut sh.x_msgs);
            let mut ops = std::mem::take(&mut sh.log_ops);
            coord.log_ops.append(&mut ops);
        }

        // ---- canonical batch order + aux snapshots ----
        requests.sort_by_key(|r| (r.t_req, r.frame.src.label()));
        let metas: Vec<FrameMeta> = requests.iter().map(|r| self.frame_meta(r, b)).collect();
        let senders: Vec<NodeId> = requests.iter().map(|r| r.frame.src).collect();
        let probes = (!requests.is_empty()).then(|| coord.medium.partition_probes(&requests, b));
        let audible = probes
            .as_ref()
            .map(|p| (0..p.len()).map(|_| AtomicBool::new(false)).collect())
            .unwrap_or_default();
        *self.scratch.write().expect("scratch") = BarrierScratch {
            requests,
            metas,
            senders,
            bp,
            xs,
            at: b,
            probes,
            audible,
            jobs: Vec::new(),
        };
        self.cursor.store(0, Ordering::SeqCst);
        coord.serial_wall += t0.elapsed();
    }

    /// Parallel phase 2 helper: evaluate one range of audibility probes
    /// against `link` (any instance — `quality_hint` is pure and
    /// instance-independent) and record the audible ones.
    fn eval_probes(&self, scratch: &BarrierScratch, range: Range<usize>, link: &dyn LinkModel) {
        let probes = scratch.probes.as_ref().expect("probe plan published");
        let sense = self.cfg.mac.sense_threshold;
        for k in range {
            if probes.eval(k, scratch.at, link, sense) {
                scratch.audible[k].store(true, Ordering::SeqCst);
            }
        }
    }

    /// Parallel phase 2, threaded form: claim probe chunks through the
    /// shared cursor until the plan is exhausted.
    fn drain_probes(&self, link: &dyn LinkModel) {
        const CHUNK: usize = 8;
        let scratch = self.scratch.read().expect("scratch");
        let Some(probes) = scratch.probes.as_ref() else {
            return;
        };
        loop {
            let lo = self.cursor.fetch_add(CHUNK, Ordering::SeqCst);
            if lo >= probes.len() {
                break;
            }
            self.eval_probes(&scratch, lo..(lo + CHUNK).min(probes.len()), link);
        }
    }

    /// Leader phase 3: union the probe answers into the batch partition
    /// and split the batch into placement jobs. Resets the cursor for the
    /// place phase (workers are parked at the following wait).
    fn barrier_split(&self, b: SimTime) {
        let t0 = Instant::now();
        let mut coord = self.coord.lock().expect("coordinator");
        let mut scratch = self.scratch.write().expect("scratch");
        let requests = std::mem::take(&mut scratch.requests);
        if let Some(probes) = scratch.probes.take() {
            let audible: Vec<bool> = scratch
                .audible
                .iter()
                .map(|a| a.load(Ordering::SeqCst))
                .collect();
            let groups = coord
                .medium
                .split_batch_resolved(requests, b, &probes, &audible);
            scratch.jobs = groups.into_iter().map(|g| Mutex::new(Some(g))).collect();
        }
        self.cursor.store(0, Ordering::SeqCst);
        coord.serial_wall += t0.elapsed();
    }

    /// Parallel phase 4 helper: place one claimed job (pure window
    /// arithmetic — the probes already answered every carrier-sense
    /// question, so no link model is involved).
    fn place_job(&self, scratch: &BarrierScratch, i: usize) {
        let job = scratch.jobs[i]
            .lock()
            .expect("job")
            .take()
            .expect("each job claimed exactly once");
        let placed = job.place(scratch.at);
        self.placed.lock().expect("placed").push((i, placed));
    }

    /// Parallel phase 4, threaded form: claim placement jobs through the
    /// shared cursor until none remain.
    fn drain_jobs(&self) {
        let scratch = self.scratch.read().expect("scratch");
        loop {
            let i = self.cursor.fetch_add(1, Ordering::SeqCst);
            if i >= scratch.jobs.len() {
                break;
            }
            self.place_job(&scratch, i);
        }
    }

    /// Leader phase 5: merge the placed groups back into the medium in
    /// canonical order, drain resolvable frames, stage the resolution
    /// inputs, resolve the backplane batch, and route cross-lane
    /// messages — the serial tail of the old one-piece barrier.
    fn barrier_merge_route(&self, b: SimTime, next: SimTime) {
        let t0 = Instant::now();
        let mut coord = self.coord.lock().expect("coordinator");
        let mut scratch = self.scratch.write().expect("scratch");
        let metas = std::mem::take(&mut scratch.metas);
        let senders = std::mem::take(&mut scratch.senders);
        let bp = std::mem::take(&mut scratch.bp);
        let xs = std::mem::take(&mut scratch.xs);
        scratch.jobs.clear();
        drop(scratch);
        let mut placed_groups = std::mem::take(&mut *self.placed.lock().expect("placed"));
        placed_groups.sort_by_key(|(i, _)| *i);
        let placements = {
            let Coordinator { medium, link, .. } = &mut *coord;
            medium.merge_placed(
                placed_groups.into_iter().map(|(_, g)| g).collect(),
                b,
                link.as_ref(),
            )
        };
        for (p, m) in placements.iter().zip(metas) {
            coord.meta.insert(p.handle, m);
        }
        let resolvable = coord.medium.drain_resolvable(next);
        *self.staged.write().expect("staged") = Staged {
            placements: senders
                .into_iter()
                .zip(placements.iter().map(|p| p.end))
                .collect(),
            resolvable,
        };

        self.route_global(&mut coord, bp, xs, b);
        coord.serial_wall += t0.elapsed();
    }

    /// The global routing tail of a barrier: resolve the backplane batch
    /// in canonical sender order, apply backplane fault filtering, and
    /// route cross-lane messages. In flat mode this runs at every epoch;
    /// in nested mode only at coarse boundaries — the "thin backplane
    /// coupling" the hierarchy rendezvouses for.
    fn route_global(
        &self,
        coord: &mut Coordinator,
        mut bp: Vec<BpSend>,
        mut xs: Vec<XMsg>,
        b: SimTime,
    ) {
        // ---- backplane batch, canonical sender order per instant ----
        // Fault retries that came due during this epoch rejoin the batch
        // (their retry instant is the sort key, so ordering stays
        // canonical across partitions).
        if !coord.retries.is_empty() {
            let (due, later): (Vec<BpSend>, Vec<BpSend>) = std::mem::take(&mut coord.retries)
                .into_iter()
                .partition(|s| s.t <= b);
            coord.retries = later;
            bp.extend(due);
        }
        bp.sort_by_key(|s| (s.t, s.from.label(), s.lane_seq));
        let mut rest = bp;
        while !rest.is_empty() {
            let t = rest[0].t;
            let split = rest.iter().position(|s| s.t != t).unwrap_or(rest.len());
            let tail = rest.split_off(split);
            let batch = rest;
            rest = tail;
            // Fault filtering before capacity: a partition severs the
            // path outright; a latency/loss spike eats each message with
            // probability `loss` and delays the survivors. Losers go to
            // the bounded-retry machinery.
            let mut sends: Vec<(BpSend, Option<vifi_sim::SimDuration>)> =
                Vec::with_capacity(batch.len());
            if self.faulted {
                let spike = self.cfg.faults.spike_at(t);
                for send in batch {
                    if self.cfg.faults.partitioned(send.from, send.to, t) {
                        self.bp_fault_failure(coord, send, t, true);
                    } else if let Some(sp) = spike {
                        if coord.fault_rng.chance(sp.loss) {
                            self.bp_fault_failure(coord, send, t, false);
                        } else {
                            sends.push((send, Some(sp.extra_latency)));
                        }
                    } else {
                        sends.push((send, None));
                    }
                }
            } else {
                sends.extend(batch.into_iter().map(|s| (s, None)));
            }
            let sizes: Vec<(NodeId, NodeId, u32)> =
                sends.iter().map(|(s, _)| (s.from, s.to, s.bytes)).collect();
            let slots = coord.backplane.send_batch(&sizes, t);
            for ((send, extra), slot) in sends.into_iter().zip(slots) {
                match slot {
                    Some(arrival) => {
                        let arrival = match extra {
                            Some(d) => arrival + d,
                            None => arrival,
                        };
                        // Never earlier than the barrier that routes it
                        // (only reachable when the backplane latency is
                        // shorter than the epoch that buffered the send).
                        let at = arrival.max(b);
                        let mut sh = self.owner_shard(send.to);
                        sh.sched.at(
                            at,
                            (
                                send.to,
                                Ev::BackplaneArrive {
                                    from: send.from,
                                    msg: send.msg,
                                },
                            ),
                        );
                    }
                    None => self.log_bp_drop(coord, &send),
                }
            }
        }

        // ---- cross-lane messages, canonical order ----
        xs.sort_by_key(|x| x.key());
        for x in xs {
            match x {
                XMsg::AnchorDown {
                    anchor,
                    vehicle,
                    payload,
                    ..
                } => {
                    let mut sh = self.owner_shard(anchor);
                    sh.sched
                        .at(b, (anchor, Ev::AnchorDown { vehicle, payload }));
                }
                XMsg::WiredUp {
                    vehicle,
                    payload,
                    radio_exit,
                    at,
                    ..
                } => {
                    if self.faulted && self.cfg.faults.wired_out(vehicle, at) {
                        // Upstream wired outage: the anchor delivered the
                        // packet off the air, but the wired path toward
                        // this vehicle's Internet peer is out.
                        coord.tally.wired_drops += 1;
                        continue;
                    }
                    let deliver = (at + self.cfg.wired_delay).max(b);
                    let mut sh = self.owner_shard(vehicle);
                    sh.sched.at(
                        deliver,
                        (
                            vehicle,
                            Ev::WiredUpArrive {
                                payload,
                                radio_exit,
                            },
                        ),
                    );
                }
            }
        }
    }

    /// Parallel phase: each shard schedules TxDone for its own senders
    /// and resolves its own receivers of every ending frame through the
    /// pure MAC kernel and its own link-model instance.
    fn resolution_phase(&self, sh: &mut Shard) {
        let staged = self.staged.read().expect("staged");
        for &(src, end) in &staged.placements {
            if sh.owns(src) {
                sh.sched.at(end, (src, Ev::TxDone));
            }
        }
        let sense = self.cfg.mac.sense_threshold;
        for tx in &staged.resolvable {
            for idx in 0..sh.nodes.len() {
                let rx = sh.nodes[idx];
                if self.faulted && self.cfg.faults.bs_down(rx, tx.end) {
                    // A crashed node's radio hears nothing; skipping the
                    // sample is a pure decision of `(rx, end)`, so every
                    // partition consumes its per-link streams identically.
                    sh.faults.rx_dropped_down += 1;
                    continue;
                }
                if kernel::sample_reception(sh.link.as_mut(), tx, rx, sense).is_some() {
                    sh.sched.at(tx.end, (rx, Ev::Rx(tx.frame.payload.clone())));
                    sh.reports.push((tx.handle, rx));
                }
            }
        }
    }

    /// Serial post-resolution phase: merge reception reports and emit the
    /// instrumentation ops of every resolved frame.
    fn barrier_serial_post(&self) {
        let t0 = Instant::now();
        let mut coord = self.coord.lock().expect("coordinator");
        let mut by_handle: FastMap<TxHandle, Vec<NodeId>> = FastMap::default();
        for shard in &self.shards {
            let mut sh = shard.lock().expect("shard");
            for (h, rx) in sh.reports.drain(..) {
                by_handle.entry(h).or_default().push(rx);
            }
        }
        let staged = std::mem::take(&mut *self.staged.write().expect("staged"));
        for (k, tx) in staged.resolvable.iter().enumerate() {
            let mut rx_ids = by_handle.remove(&tx.handle).unwrap_or_default();
            rx_ids.sort_by_key(|n| n.index());
            let meta = coord.meta.remove(&tx.handle);
            self.emit_frame_ops(
                &mut coord.log_ops,
                tx,
                &rx_ids,
                meta,
                SEQ_RESOLUTION + k as u64,
            );
        }
        coord.serial_wall += t0.elapsed();
    }

    /// The per-frame instrumentation the per-event loop did in
    /// `on_tx_done`, emitted as canonical log ops at `(end, tx lane)`.
    /// The destination vector is the coordinator's op log in flat mode
    /// and the owning cluster's in nested mode.
    fn emit_frame_ops(
        &self,
        ops: &mut Vec<LogOp>,
        tx: &ResolvableTx<WireFrame>,
        rx_ids: &[NodeId],
        meta: Option<FrameMeta>,
        seq: u64,
    ) {
        let lane = tx.frame.src.label();
        let at = tx.end;
        // The frame stays packed: the fixed-offset views read the handful
        // of header fields instrumentation needs without decoding the
        // payload (beacons and other vehicles' data fall through).
        if let Some(d) = DataView::of(&tx.frame.payload) {
            if self.flow_vehicle(d.flow_src(), d.flow_dst()) != self.v0 {
                return;
            }
            let dir = self.dir_of_src(d.flow_src());
            ops.push(LogOp {
                at,
                lane,
                seq,
                op: LogOpKind::WirelessTx { dir },
            });
            let op = if let Some(relayer) = d.relayed_by() {
                LogOpKind::Relay {
                    id: d.id(),
                    by: relayer,
                    via_backplane: false,
                    reached: rx_ids.contains(&d.flow_dst()),
                }
            } else {
                let aux_set = meta.and_then(|m| m.aux_set).unwrap_or_default();
                let aux_heard: Vec<NodeId> = rx_ids
                    .iter()
                    .copied()
                    .filter(|n| aux_set.contains(n))
                    .collect();
                LogOpKind::SourceTx {
                    id: d.id(),
                    dir,
                    dst_heard: rx_ids.contains(&d.flow_dst()),
                    aux_set,
                    aux_heard,
                }
            };
            ops.push(LogOp { at, lane, seq, op });
        } else if let Some(a) = AckView::of(&tx.frame.payload) {
            let id = a.id();
            let veh = if self.is_bs(id.origin) {
                a.from()
            } else {
                id.origin
            };
            if veh == self.v0 {
                ops.push(LogOp {
                    at,
                    lane,
                    seq,
                    op: LogOpKind::AckHeard {
                        id,
                        heard_by: rx_ids.to_vec(),
                        dir: self.dir_of_src(id.origin),
                    },
                });
            }
        }
    }

    // ------------------------------------------------------------------
    // Dispatch (the per-event loop's logic; emissions go via outboxes)
    // ------------------------------------------------------------------

    fn dispatch(&self, sh: &mut Shard, lane: NodeId, ev: Ev, now: SimTime) {
        // Crashed nodes are inert: a pure predicate of `(lane, now)`, so
        // every partition gates identically without shared state.
        let down = self.faulted && self.cfg.faults.bs_down(lane, now);
        match ev {
            Ev::Beacon => self.on_beacon_due(sh, lane, now),
            Ev::TxDone => {
                let cell = sh.cell_mut(lane);
                cell.iface_busy = false;
                if down {
                    // A frame already in the air when the node crashed
                    // finishes airing, but nothing new starts.
                    cell.pending_beacon = None;
                    return;
                }
                if let Some((payload, bytes)) = cell.pending_beacon.take() {
                    self.start_tx(sh, lane, payload, bytes, now);
                }
                self.pump(sh, lane, now);
            }
            Ev::Rx(frame) => {
                // Decode at the receiver — the one place the typed payload
                // is needed; everything between tx and rx moved `Bytes`.
                let payload: VifiPayload = frame
                    .decode()
                    .expect("wire codec round-trips engine frames");
                let acts = sh.cell_mut(lane).endpoint.on_frame(&payload, now);
                self.handle_actions(sh, lane, acts, now);
                self.pump(sh, lane, now);
            }
            Ev::Wakeup => {
                let cell = sh.cell_mut(lane);
                cell.wakeup_token = None;
                if down {
                    return;
                }
                let acts = cell.endpoint.on_wakeup(now);
                self.handle_actions(sh, lane, acts, now);
                self.pump(sh, lane, now);
            }
            Ev::FaultUp => {
                // The crash window just closed: the node reboots with a
                // fresh endpoint (volatile protocol state is gone) on a
                // restart-specific RNG stream.
                let role = if self.is_bs(lane) {
                    Role::Bs
                } else {
                    Role::Vehicle
                };
                let cell = sh.cell_mut(lane);
                cell.carried_evictions += cell.endpoint.blacklist_evictions();
                cell.restarts += 1;
                let ep_rng = self
                    .rng
                    .fork(0x5EED_2000 + lane.label())
                    .fork(cell.restarts);
                cell.endpoint = Endpoint::new(
                    lane,
                    role,
                    self.cfg.vifi.clone(),
                    self.bs_ids.clone(),
                    ep_rng,
                );
                cell.iface_busy = false;
                cell.pending_beacon = None;
                if let Some(tok) = cell.wakeup_token.take() {
                    sh.sched.cancel(tok);
                }
                sh.faults.bs_restarts += 1;
                self.pump(sh, lane, now);
            }
            Ev::BackplaneArrive { from, msg } => {
                if down {
                    sh.faults.backplane_dropped_down += 1;
                    return;
                }
                if let BackplaneMsg::RelayData(d) = &msg {
                    // An upstream relay reaching the anchor's process
                    // counts as having reached the destination.
                    if self.flow_vehicle(d.flow_src, d.flow_dst) == self.v0 {
                        self.log_op(
                            sh,
                            lane,
                            now,
                            LogOpKind::Relay {
                                id: d.id,
                                by: from,
                                via_backplane: true,
                                reached: true,
                            },
                        );
                    }
                }
                if let BackplaneMsg::SalvageData { packets, .. } = &msg {
                    sh.salvaged += packets.len() as u64;
                }
                let acts = match sh.try_cell_mut(lane) {
                    Some(cell) => cell.endpoint.on_backplane(from, &msg, now),
                    None => Vec::new(),
                };
                self.handle_actions(sh, lane, acts, now);
                self.pump(sh, lane, now);
            }
            Ev::WiredDownArrive { payload } => {
                // Lane is the vehicle; its current anchor gets the payload
                // via the barrier (even when the anchor shares this shard —
                // the rule must not depend on the partition).
                let lane_seq = self.next_emit_seq(sh, lane);
                let cell = sh.cell_mut(lane);
                match cell.endpoint.anchor() {
                    Some(a) => sh.x_msgs.push(XMsg::AnchorDown {
                        anchor: a,
                        vehicle: lane,
                        payload,
                        lane_seq,
                    }),
                    None => {
                        if let Some(host) = cell.host.as_mut() {
                            host.unroutable_down += 1;
                        }
                    }
                }
            }
            Ev::AnchorDown { vehicle, payload } => {
                if down {
                    // Downstream payload handed to an anchor that crashed:
                    // lost, like a packet inside a dead basestation.
                    sh.faults.wired_drops += 1;
                    return;
                }
                sh.cell_mut(lane)
                    .endpoint
                    .send_app(payload, Some(vehicle), now);
                self.pump(sh, lane, now);
            }
            Ev::WiredUpArrive {
                payload,
                radio_exit,
            } => {
                self.with_driver(sh, lane, now, |d, api| {
                    d.on_internet_rx(&payload, radio_exit, api)
                });
            }
            Ev::AppTick { chan } => {
                self.with_driver(sh, lane, now, |d, api| d.on_tick(chan, api));
            }
        }
    }

    fn on_beacon_due(&self, sh: &mut Shard, lane: NodeId, now: SimTime) {
        if self.faulted && self.cfg.faults.beacon_suppressed(lane, now) {
            // Crashed or suppressed: no beacon airs and the endpoint's
            // beacon-side state is untouched, but the beacon clock keeps
            // ticking so the node resumes on schedule.
            sh.faults.beacons_suppressed += 1;
            let next = self.beacons.next_after(lane, now);
            sh.sched.at(next, (lane, Ev::Beacon));
            return;
        }
        let (payload, bytes, acts) = sh.cell_mut(lane).endpoint.make_beacon(now);
        self.handle_actions(sh, lane, acts, now);
        if lane == self.v0 {
            if let VifiPayload::Beacon(bc) = &payload {
                if let Some(v) = &bc.vehicle {
                    // A1 counts auxiliaries while connected.
                    if v.anchor.is_some() {
                        let size = v.aux.len();
                        self.log_op(
                            sh,
                            lane,
                            now,
                            LogOpKind::AuxSample {
                                sec: now.second_bin(),
                                size,
                            },
                        );
                    }
                }
            }
        }
        if sh.cell(lane).iface_busy {
            // Replace any stale pending beacon with the fresh one.
            sh.cell_mut(lane).pending_beacon = Some((payload, bytes));
        } else {
            self.start_tx(sh, lane, payload, bytes, now);
        }
        let next = self.beacons.next_after(lane, now);
        sh.sched.at(next, (lane, Ev::Beacon));
        self.pump(sh, lane, now);
    }

    /// Queue a transmission request: the interface goes busy now; the
    /// frame airs from the next epoch edge (see the module docs).
    fn start_tx(
        &self,
        sh: &mut Shard,
        lane: NodeId,
        payload: VifiPayload,
        bytes: u32,
        now: SimTime,
    ) {
        sh.cell_mut(lane).iface_busy = true;
        // Encode once at the transmitter; every hop after this — barrier
        // collect, placement, fan-out to receivers — clones an `Arc`ed
        // byte buffer instead of the owned payload.
        sh.tx_requests.push(TxRequest {
            frame: Frame::new(lane, bytes, WireFrame::encode(lane, bytes, &payload)),
            t_req: now,
        });
    }

    fn pump(&self, sh: &mut Shard, lane: NodeId, now: SimTime) {
        // Wakeup timer maintenance.
        let next = sh.cell(lane).endpoint.next_wakeup();
        if let Some(tok) = sh.cell_mut(lane).wakeup_token.take() {
            sh.sched.cancel(tok);
        }
        if let Some(at) = next {
            let at = at.max(now);
            let tok = sh.sched.at(at, (lane, Ev::Wakeup));
            sh.cell_mut(lane).wakeup_token = Some(tok);
        }
        // Interface.
        if !sh.cell(lane).iface_busy {
            let pulled = {
                let cell = sh.cell_mut(lane);
                if cell.endpoint.has_tx() {
                    cell.endpoint.pull_frame(now)
                } else {
                    None
                }
            };
            if let Some((payload, bytes)) = pulled {
                self.start_tx(sh, lane, payload, bytes, now);
            }
        }
    }

    fn handle_actions(&self, sh: &mut Shard, lane: NodeId, acts: Vec<Action>, now: SimTime) {
        for act in acts {
            match act {
                Action::Deliver { id, app, dir } => self.on_deliver(sh, lane, id, app, dir, now),
                Action::Backplane { to, msg } => {
                    let bytes = msg.wire_bytes();
                    if let BackplaneMsg::RelayData(d) = &msg {
                        if self.flow_vehicle(d.flow_src, d.flow_dst) == self.v0 {
                            self.log_op(sh, lane, now, LogOpKind::BackplaneTx);
                        }
                    }
                    let lane_seq = self.next_emit_seq(sh, lane);
                    sh.bp_sends.push(BpSend {
                        t: now,
                        from: lane,
                        to,
                        bytes,
                        msg,
                        lane_seq,
                        attempt: 0,
                    });
                }
                Action::Stat(ev) => self.on_stat(sh, lane, ev, now),
            }
        }
    }

    fn on_deliver(
        &self,
        sh: &mut Shard,
        lane: NodeId,
        id: PacketId,
        app: Bytes,
        dir: Direction,
        now: SimTime,
    ) {
        match dir {
            Direction::Downstream => {
                if lane == self.v0 {
                    self.log_op(sh, lane, now, LogOpKind::Delivered { id, dir });
                }
                self.with_driver(sh, lane, now, |d, api| d.on_vehicle_rx(&app, api));
            }
            Direction::Upstream => {
                // At the anchor: forward over the wired hop toward the
                // originating vehicle's Internet peer.
                if id.origin == self.v0 {
                    self.log_op(sh, lane, now, LogOpKind::Delivered { id, dir });
                }
                let lane_seq = self.next_emit_seq(sh, lane);
                sh.x_msgs.push(XMsg::WiredUp {
                    vehicle: id.origin,
                    from: lane,
                    payload: app,
                    radio_exit: now,
                    at: now,
                    lane_seq,
                });
            }
        }
    }

    fn on_stat(&self, sh: &mut Shard, lane: NodeId, ev: StatEvent, now: SimTime) {
        match ev {
            StatEvent::RelayDecision {
                id,
                dir: _,
                prob,
                relayed,
            } => {
                // Attaches only to packets already in the log, i.e. the
                // instrumented vehicle's flows.
                self.log_op(
                    sh,
                    lane,
                    now,
                    LogOpKind::Decision {
                        id,
                        aux: lane,
                        prob,
                        relayed,
                    },
                );
            }
            StatEvent::AnchorSwitch { .. } => {
                if let Some(host) = sh.try_cell_mut(lane).and_then(|c| c.host.as_mut()) {
                    host.anchor_switches += 1;
                }
            }
            StatEvent::Salvaged { .. } => {
                // Counted at BackplaneArrive (covers the transfer itself).
            }
            StatEvent::RelaySuppressed { .. } | StatEvent::SourceDrop { .. } => {}
        }
    }

    fn with_driver<F>(&self, sh: &mut Shard, lane: NodeId, now: SimTime, f: F)
    where
        F: FnOnce(&mut dyn Driver, &mut HostApi),
    {
        // Vehicles without a workload driver (background fleet members in
        // non-fleet runs) simply have no host.
        if sh.try_cell_mut(lane).map_or(true, |c| c.host.is_none()) {
            return;
        }
        // The shard's command buffer is lent to the driver and handed
        // back empty (capacity kept) after the commands ran.
        let cmds = std::mem::take(&mut sh.cmds);
        let host = sh.cell_mut(lane).host.as_mut().expect("host");
        let mut driver = host.driver.take().expect("driver present");
        let mut api = HostApi {
            now,
            rng: &mut host.rng,
            cmds,
        };
        f(driver.as_mut(), &mut api);
        let mut cmds = api.cmds;
        host.driver = Some(driver);
        for cmd in cmds.drain(..) {
            match cmd {
                HostCmd::SendUpstream(bytes) => {
                    sh.cell_mut(lane).endpoint.send_app(bytes, None, now);
                    self.pump(sh, lane, now);
                }
                HostCmd::SendDownstream(bytes) => {
                    if self.faulted && self.cfg.faults.wired_out(lane, now) {
                        // Wired outage toward this vehicle: the Internet
                        // side's packet never reaches the wired edge.
                        sh.faults.wired_drops += 1;
                        continue;
                    }
                    // Lane-local wired hop: the payload reaches this
                    // vehicle's wired side after the configured delay.
                    sh.sched.at(
                        now + self.cfg.wired_delay,
                        (lane, Ev::WiredDownArrive { payload: bytes }),
                    );
                }
                HostCmd::ScheduleTick { chan, at } => {
                    sh.sched.at(at.max(now), (lane, Ev::AppTick { chan }));
                }
            }
        }
        sh.cmds = cmds;
    }

    // ------------------------------------------------------------------
    // Helpers
    // ------------------------------------------------------------------

    /// A backplane message lost to a partition or spike: schedule a retry
    /// if the bounded-retry budget allows, else drop it for good.
    fn bp_fault_failure(&self, coord: &mut Coordinator, send: BpSend, t: SimTime, partition: bool) {
        if let Some(delay) = self.cfg.backplane.retry_delay(send.attempt + 1) {
            coord.tally.bp_retries += 1;
            coord.retries.push(BpSend {
                t: t + delay,
                attempt: send.attempt + 1,
                ..send
            });
            return;
        }
        if partition {
            coord.tally.bp_partition_drops += 1;
        } else {
            coord.tally.bp_spike_drops += 1;
        }
        self.log_bp_drop(coord, &send);
    }

    /// Account a finally-dropped backplane message in the packet log —
    /// scoped to the instrumented vehicle's traffic, like the per-event
    /// loop's capacity accounting.
    fn log_bp_drop(&self, coord: &mut Coordinator, send: &BpSend) {
        let veh = match &send.msg {
            BackplaneMsg::RelayData(d) => self.flow_vehicle(d.flow_src, d.flow_dst),
            BackplaneMsg::SalvageRequest { vehicle, .. }
            | BackplaneMsg::SalvageData { vehicle, .. } => *vehicle,
        };
        if veh != self.v0 {
            return;
        }
        let relay = match &send.msg {
            BackplaneMsg::RelayData(d) => Some((d.id, send.from)),
            _ => None,
        };
        coord.drop_seq += 1;
        let seq = SEQ_BARRIER + coord.drop_seq;
        coord.log_ops.push(LogOp {
            at: send.t,
            lane: send.from.label(),
            seq,
            op: LogOpKind::BackplaneDrop { relay },
        });
    }

    fn next_emit_seq(&self, sh: &mut Shard, lane: NodeId) -> u64 {
        let cell = sh.cell_mut(lane);
        cell.emit_seq += 1;
        cell.emit_seq
    }

    fn log_op(&self, sh: &mut Shard, lane: NodeId, at: SimTime, op: LogOpKind) {
        let seq = self.next_emit_seq(sh, lane);
        sh.log_ops.push(LogOp {
            at,
            lane: lane.label(),
            seq,
            op,
        });
    }

    fn is_bs(&self, n: NodeId) -> bool {
        self.bs_ids.contains(&n)
    }

    /// Traffic direction of a data frame by its logical source.
    fn dir_of_src(&self, flow_src: NodeId) -> Direction {
        if self.is_bs(flow_src) {
            Direction::Downstream
        } else {
            Direction::Upstream
        }
    }

    /// The vehicle a data flow belongs to: the mobile end of the transfer.
    fn flow_vehicle(&self, flow_src: NodeId, flow_dst: NodeId) -> NodeId {
        if self.is_bs(flow_src) {
            flow_dst
        } else {
            flow_src
        }
    }

    // ------------------------------------------------------------------
    // Outcome assembly
    // ------------------------------------------------------------------

    fn assemble_outcome(self, horizon: SimTime) -> (RunOutcome, CoupledTiming) {
        let mut coord = self.coord.into_inner().expect("coordinator");
        let mut shards: Vec<Shard> = self
            .shards
            .into_iter()
            .map(|m| m.into_inner().expect("shard"))
            .collect();

        // Per-vehicle outcomes in fleet order.
        let mut vehicles_out: Vec<VehicleOutcome> = Vec::new();
        for &v in &self.vehicles {
            for sh in &mut shards {
                if let Some(host) = sh.try_cell_mut(v).and_then(|c| c.host.as_mut()) {
                    vehicles_out.push(VehicleOutcome {
                        vehicle: v,
                        report: host
                            .driver
                            .as_mut()
                            .expect("driver present at run end")
                            .report(horizon),
                        anchor_switches: host.anchor_switches,
                        unroutable_down: host.unroutable_down,
                    });
                }
            }
        }
        assert!(!vehicles_out.is_empty(), "at least one workload vehicle");

        // Replay the buffered log ops in canonical order. Nested runs
        // also contribute each cluster's resolution ops and medium
        // transmissions (cluster order; the sort below interleaves all
        // streams by the partition-blind `(at, lane, seq)` key).
        for sh in &mut shards {
            coord.log_ops.append(&mut sh.log_ops);
        }
        let mut cluster_frames = 0u64;
        for m in self.cluster_rts {
            let mut rt = m.into_inner().expect("cluster rt");
            coord.log_ops.append(&mut rt.log_ops);
            cluster_frames += rt.medium.tx_count;
        }
        coord.log_ops.sort_by_key(|o| (o.at, o.lane, o.seq));
        let mut log = RunLog::new();
        for op in &coord.log_ops {
            apply_log_op(&mut log, op);
        }

        let events: u64 = shards.iter().map(|s| s.sched.dispatched()).sum();
        let salvaged: u64 = shards.iter().map(|s| s.salvaged).sum();
        let mut faults = coord.tally;
        for sh in &shards {
            faults.absorb(&sh.faults);
            for cell in sh.cells.iter().flatten() {
                faults.blacklist_evictions +=
                    cell.endpoint.blacklist_evictions() + cell.carried_evictions;
            }
        }
        let timing = CoupledTiming {
            per_shard: shards.iter().map(|s| s.wall).collect(),
            serial: coord.serial_wall,
            schedule: self.mode,
            epochs: self.epochs.into_inner(),
            idle_epochs: self.idle_epochs.into_inner(),
        };
        let outcome = RunOutcome {
            report: vehicles_out[0].report.clone(),
            anchor_switches: vehicles_out[0].anchor_switches,
            unroutable_down: vehicles_out.iter().map(|v| v.unroutable_down).sum(),
            vehicles: vehicles_out,
            salvaged,
            events,
            frames_tx: coord.medium.tx_count + cluster_frames,
            faults,
            log,
        };
        (outcome, timing)
    }
}

/// The first boundary of `cb` strictly after `t`, clamped to the horizon
/// — what a cluster's medium drains resolvable frames against. Past the
/// last boundary, `final_next` (horizon + 1 µs) lets frames ending
/// exactly at the horizon resolve, matching the flat loop's tail.
fn next_boundary(cb: &[SimTime], t: SimTime, horizon: SimTime, final_next: SimTime) -> SimTime {
    let i = cb.partition_point(|&x| x <= t);
    cb.get(i).map(|&n| n.min(horizon)).unwrap_or(final_next)
}

/// Apply one canonical log op through the [`LogSink`] event surface —
/// the same calls a streaming [`crate::binlog::BinaryRunLog`] would see,
/// so any sink observes the identical event sequence the in-memory
/// [`RunLog`] folds.
fn apply_log_op<S: LogSink>(log: &mut S, op: &LogOp) {
    match &op.op {
        LogOpKind::SourceTx {
            id,
            dir,
            aux_set,
            aux_heard,
            dst_heard,
        } => log.source_tx(
            op.at,
            *id,
            *dir,
            aux_set.clone(),
            aux_heard.clone(),
            *dst_heard,
        ),
        LogOpKind::AckHeard { id, heard_by, dir } => {
            log.ack_attach(op.at, *id, heard_by);
            log.ack_tx(op.at, *dir);
        }
        LogOpKind::Relay {
            id,
            by,
            via_backplane,
            reached,
        } => log.relay(op.at, *id, *by, *via_backplane, *reached),
        LogOpKind::Decision {
            id,
            aux,
            prob,
            relayed,
        } => log.decision(op.at, *id, *aux, *prob, *relayed),
        LogOpKind::Delivered { id, dir } => {
            log.deliver_mark(op.at, *id);
            log.ledger_delivered(op.at, *dir);
        }
        LogOpKind::WirelessTx { dir } => log.wireless_tx(op.at, *dir),
        LogOpKind::BackplaneTx => log.backplane_tx(op.at),
        LogOpKind::BackplaneDrop { relay } => {
            log.backplane_drop_count(op.at);
            if let Some((id, by)) = relay {
                log.relay(op.at, *id, *by, true, false);
            }
        }
        LogOpKind::AuxSample { sec, size } => log.aux_sample(op.at, *sec, *size),
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::time::Duration;

    use vifi_sim::{SimDuration, SimTime};
    use vifi_testbeds::{dieselnet_fleet, metro, vanlan, Scenario};

    use crate::sim::{RunConfig, ScheduleMode, Simulation};
    use crate::workload::WorkloadSpec;

    thread_local! {
        /// Fault hook for the panic regressions below: an engine built on
        /// this thread panics with [`INJECTED`] when shard `.0` starts an
        /// epoch reaching `.1`. Test builds only; no run option sets it.
        pub(super) static PANIC_AT: Cell<Option<(u32, SimTime)>> = const { Cell::new(None) };
    }

    /// The injected panic's payload.
    pub(super) const INJECTED: &str = "injected shard panic";

    fn cfg(secs: u64, shards: usize) -> RunConfig {
        RunConfig {
            workload: WorkloadSpec::paper_cbr(),
            duration: SimDuration::from_secs(secs),
            seed: 5,
            shards,
            ..RunConfig::default()
        }
    }

    /// Run `scenario` threaded (2 shards, 2 workers) with shard 1 set to
    /// panic at t = 1 s, on a thread of its own under a 10 s watchdog.
    /// Returns the panic payload `catch_unwind` saw, if any.
    fn run_with_injected_panic(scenario: Scenario) -> Option<String> {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            PANIC_AT.with(|p| p.set(Some((1, SimTime::from_secs(1)))));
            let result = std::panic::catch_unwind(|| {
                Simulation::run_coupled_timed(&scenario, cfg(3, 2), Some(2))
            });
            let payload = result.err().map(|p| {
                p.downcast_ref::<&str>()
                    .map(|m| m.to_string())
                    .or_else(|| p.downcast_ref::<String>().cloned())
                    .unwrap_or_default()
            });
            tx.send(payload).expect("watchdog is listening");
        });
        rx.recv_timeout(Duration::from_secs(10))
            .expect("a threaded run hung after one of its shards panicked")
    }

    #[test]
    fn threaded_flat_run_surfaces_a_shard_panic() {
        assert_eq!(
            run_with_injected_panic(dieselnet_fleet(16, 42)).as_deref(),
            Some(INJECTED)
        );
    }

    #[test]
    fn threaded_nested_run_surfaces_a_shard_panic() {
        assert_eq!(
            run_with_injected_panic(metro(4, 4, 42)).as_deref(),
            Some(INJECTED)
        );
    }

    #[test]
    fn idle_epochs_are_counted_and_skipped() {
        // Flat: one van beaconing at 10 Hz leaves most 1 ms barriers with
        // nothing to place, route or resolve.
        let (_, flat) = Simulation::run_coupled_timed(&vanlan(1), cfg(20, 1), Some(1));
        assert_eq!(flat.schedule, ScheduleMode::Flat);
        assert!(
            0 < flat.idle_epochs && flat.idle_epochs < flat.epochs,
            "flat: {} idle of {}",
            flat.idle_epochs,
            flat.epochs
        );
        // Nested: the count is per cluster pipeline.
        let (_, nested) = Simulation::run_coupled_timed(&metro(4, 4, 42), cfg(10, 2), Some(1));
        assert!(matches!(nested.schedule, ScheduleMode::Nested { .. }));
        assert!(
            0 < nested.idle_epochs && nested.idle_epochs < nested.epochs,
            "nested: {} idle of {}",
            nested.idle_epochs,
            nested.epochs
        );
    }
}
