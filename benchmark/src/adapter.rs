//! The one place the benchmark calls into the simulator. Every other
//! module goes through these functions, so an API change in the
//! workspace crates (for example collapsing the run entry points into
//! one `Simulation::run` with an execution knob) is an edit here alone.

use std::time::Duration;

use vifi_faults::FaultPlan;
use vifi_metrics::SessionDef;
use vifi_phy::PhysicalLinkModel;
use vifi_runtime::workload::WorkloadReport;
use vifi_runtime::{
    aggregate_cbr, read_stream, RunConfig, RunLog, ShardMode, Simulation, StreamFold,
    StreamSummary, Table1, WorkloadSpec,
};
use vifi_sim::{Rng, SimDuration};
use vifi_testbeds::Scenario;

pub use vifi_runtime::RunOutcome;
pub use vifi_testbeds::{dieselnet_fleet, metro, vanlan};

/// The paper's CBR probe workload.
pub fn paper_cbr() -> WorkloadSpec {
    WorkloadSpec::paper_cbr()
}

/// The paper's short-TCP-transfer workload.
pub fn paper_tcp() -> WorkloadSpec {
    WorkloadSpec::paper_tcp()
}

/// Everything one run is given: the generated scenario and config, and
/// how many worker threads execute it.
#[derive(Clone)]
pub struct Inputs {
    pub scenario: Scenario,
    pub cfg: RunConfig,
    pub workers: usize,
}

/// Knobs a workload sets; everything else is the default `RunConfig`.
pub struct ConfigSpec {
    pub workload: Option<WorkloadSpec>,
    pub fleet_workload: Option<WorkloadSpec>,
    pub duration_s: u64,
    pub seed: u64,
    pub shards: usize,
    pub fault_intensity: f64,
}

/// Build the run config (and its fault plan) for `scenario`.
pub fn make_config(scenario: &Scenario, spec: &ConfigSpec) -> RunConfig {
    let duration = SimDuration::from_secs(spec.duration_s);
    let faults = if spec.fault_intensity > 0.0 {
        FaultPlan::synthesize(
            spec.fault_intensity,
            spec.seed,
            &scenario.bs_ids(),
            &scenario.vehicle_ids(),
            duration,
        )
    } else {
        FaultPlan::default()
    };
    let mut cfg = RunConfig {
        fleet_workloads: spec.fleet_workload.iter().cloned().collect(),
        duration,
        seed: spec.seed,
        shards: spec.shards,
        shard_mode: ShardMode::Coupled,
        faults,
        ..RunConfig::default()
    };
    if let Some(w) = &spec.workload {
        cfg.workload = w.clone();
    }
    cfg
}

/// The config's run seed.
pub fn run_seed(inputs: &Inputs) -> u64 {
    inputs.cfg.seed
}

/// Vehicles in the scenario.
pub fn vehicle_count(scenario: &Scenario) -> usize {
    scenario.vehicle_ids().len()
}

/// The engine's own wall-clock breakdown of a run.
pub struct EngineTiming {
    /// Epoch execution and reception resolution, per shard.
    pub per_shard: Vec<Duration>,
    /// Serial coordinator work at the barriers.
    pub serial: Duration,
    /// Serial work plus the slowest shard.
    pub critical_path: Duration,
}

/// One coupled run on the epoch engine.
pub fn run(inputs: &Inputs) -> (RunOutcome, EngineTiming) {
    let (outcome, t) =
        Simulation::run_coupled_timed(&inputs.scenario, inputs.cfg.clone(), Some(inputs.workers));
    let timing = EngineTiming {
        critical_path: t.critical_path(),
        per_shard: t.per_shard,
        serial: t.serial,
    };
    (outcome, timing)
}

/// Table 1, derived from the run's packet log.
pub fn table1(log: &RunLog) -> Table1 {
    Table1::from_log(log)
}

/// Source-transmission records in the packet log.
pub fn log_records(log: &RunLog) -> usize {
    log.records.len()
}

/// The run log serialized as a binary trace.
pub fn write_binary(log: &RunLog) -> Vec<u8> {
    log.write_binary(Vec::new())
        .expect("writing into a Vec cannot fail")
}

/// Stream a binary trace back through the constant-memory fold.
pub fn fold(trace: &[u8]) -> Result<StreamSummary, String> {
    let mut fold = StreamFold::new();
    read_stream(trace, &mut fold).map_err(|e| format!("trace replay failed: {e}"))?;
    Ok(fold.finish())
}

/// Canonical digest of the packet log alone (what the fold reproduces).
pub fn log_fingerprint(log: &RunLog) -> u64 {
    vifi_runtime::Fingerprintable::fingerprint(log)
}

/// The simulated outputs the benchmark pins across commits.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelOutputs {
    pub fingerprint: u64,
    pub delivery_ratio: f64,
    pub tcp_transfers_per_session: f64,
    /// Mean simulated seconds each CBR vehicle spent in sessions (§3.1:
    /// at least 50% of probes delivered over every 1 s interval).
    pub session_s_per_vehicle: f64,
    pub salvaged: u64,
    pub anchor_switches: u64,
    /// Wireless frames transmitted per application packet delivered.
    pub frames_per_delivered: f64,
    pub table1_b2_false_pos: f64,
    pub events: u64,
    pub frames_tx: u64,
}

/// Derive the session, TCP and delivery statistics of one outcome, the
/// way the figure and table bins do.
pub fn derive(outcome: &RunOutcome, cfg: &RunConfig, t1: &Table1) -> ModelOutputs {
    let cbr = aggregate_cbr(outcome.vehicles.iter().map(|v| &v.report));
    let session_s: Vec<f64> = outcome
        .vehicles
        .iter()
        .filter_map(|v| v.report.as_cbr())
        .map(|c| {
            let ratios = c.combined_ratios(SimDuration::from_secs(1), cfg.duration);
            vifi_metrics::sessions_from_ratios(&ratios, SessionDef::paper_default())
                .total_time()
                .as_secs_f64()
        })
        .collect();
    let (delivered, delivery_ratio) = if cbr.total_sent() > 0 {
        (cbr.total_delivered(), cbr.delivery_ratio())
    } else {
        // No probes: count the instrumented vehicle's distinct packets.
        let log = &outcome.log;
        let delivered = log.ledger_up.delivered + log.ledger_down.delivered;
        let mut ids: Vec<_> = log.records.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        let ratio = if ids.is_empty() {
            0.0
        } else {
            delivered as f64 / ids.len() as f64
        };
        (delivered, ratio)
    };
    let per_session: Vec<f64> = outcome
        .vehicles
        .iter()
        .filter_map(|v| match &v.report {
            WorkloadReport::Tcp(t) => Some(t),
            _ => None,
        })
        .flat_map(|t| {
            t.down
                .transfers_per_session
                .iter()
                .chain(t.up.transfers_per_session.iter())
        })
        .filter(|&&x| x > 0)
        .map(|&x| x as f64)
        .collect();
    ModelOutputs {
        fingerprint: outcome.fingerprint(),
        delivery_ratio,
        tcp_transfers_per_session: vifi_metrics::mean(&per_session),
        session_s_per_vehicle: vifi_metrics::mean(&session_s),
        salvaged: outcome.salvaged,
        anchor_switches: outcome.vehicles.iter().map(|v| v.anchor_switches).sum(),
        frames_per_delivered: if delivered == 0 {
            0.0
        } else {
            outcome.frames_tx as f64 / delivered as f64
        },
        table1_b2_false_pos: t1.down.b2_false_positive,
        events: outcome.events,
        frames_tx: outcome.frames_tx,
    }
}

/// Whether two Table 1 derivations agree bit for bit.
pub fn table1_equal(a: &Table1, b: &Table1) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

// ---------------------------------------------------------------------
// Scenario analysis and planning, called from outside the engine. The
// engine repeats this work internally (planner, then engine setup); the
// benchmark calls it separately only in the traced pass, to attribute
// time to the `vifi-testbeds::scenario` and `vifi-runtime::sim` layers.
// ---------------------------------------------------------------------

/// Contact-probability threshold the planner uses for its load weights.
const PLAN_MIN_PROB: f64 = 0.1;

/// The link model the planner and the engine build from the run seed.
pub fn link_model(inputs: &Inputs) -> PhysicalLinkModel {
    inputs.scenario.build_link_model(&Rng::new(inputs.cfg.seed))
}

/// `(horizon, margin)` in seconds, as the engine derives its activity
/// schedule: one second past the run, dilated by one second of motion
/// plus a beacon period.
fn activity_window(cfg: &RunConfig) -> (u64, u64) {
    (
        cfg.duration.as_secs() + 1,
        1 + cfg.vifi.beacon_period.as_secs().max(1),
    )
}

/// Seconds in which any pair of nodes may hear each other.
pub fn active_seconds(inputs: &Inputs, link: &PhysicalLinkModel) -> Vec<(u64, u64)> {
    let (horizon, margin) = activity_window(&inputs.cfg);
    inputs.scenario.active_seconds(link, horizon, margin)
}

/// The radio-disjoint contact clusters.
pub fn contact_clusters(inputs: &Inputs, link: &PhysicalLinkModel) -> Vec<Vec<vifi_phy::NodeId>> {
    inputs.scenario.contact_clusters(link)
}

/// One cluster's activity schedule.
pub fn cluster_active_seconds(
    inputs: &Inputs,
    link: &PhysicalLinkModel,
    members: &[vifi_phy::NodeId],
) -> Vec<(u64, u64)> {
    let (horizon, margin) = activity_window(&inputs.cfg);
    inputs
        .scenario
        .cluster_active_seconds(link, horizon, margin, members)
}

/// Per-basestation contact seconds (the planner's load weights).
pub fn bs_contact_seconds(inputs: &Inputs, link: &PhysicalLinkModel) -> usize {
    inputs
        .scenario
        .bs_contact_seconds(link, PLAN_MIN_PROB)
        .len()
}

/// The coupled shard plan (configs are coupled, see [`make_config`]);
/// returns the shard count.
pub fn plan_shards(inputs: &Inputs) -> usize {
    vifi_runtime::plan_shards(&inputs.scenario, &inputs.cfg)
        .assignments
        .len()
}

/// Whether the engine runs this scenario on the nested hierarchy (the
/// engine's own rule: 2 to 64 clusters, unless forced flat).
pub fn nested(inputs: &Inputs, clusters: usize) -> bool {
    !inputs.cfg.flat_epochs && (2..=64).contains(&clusters)
}
