//! The four driving workloads. Each is a closed loop: one client runs
//! one simulation at a time and starts the next when the previous one
//! returns. The benchmark seed derives a few run seeds (channel, traffic
//! and fault draws), which the loop cycles through; the topologies are
//! fixed so that every seed simulates the same fleet on the same roads.

use crate::adapter::{self, ConfigSpec, Inputs};

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One ViFi van on VanLAN with the paper's TCP transfers; Table 1
    /// from every run's log. Per-packet protocol work and the heaviest
    /// packet log.
    PaperDrive,
    /// 64 VanLAN vans with CBR, one dense radio cluster on the flat
    /// schedule: epoch execution and barrier placement. Its host time
    /// swings with the load other guests put on a shared host more than
    /// the canary's does, so it is not gated.
    CityFleet,
    /// Four metro districts of 16 vans with CBR and synthesized faults on
    /// the nested hierarchy: scenario analysis and planning dominate.
    MetroNested,
    /// 16 DieselNet buses with CBR on two worker threads: the only
    /// workload that crosses the threaded epoch barrier. Its host time is
    /// too erratic on a shared two-core host to be gated.
    BusThreaded,
}

impl Workload {
    /// Every workload. `BENCHMARK.json` lists, in this order, the ones
    /// whose run-to-run spread fits its bounds; `city_fleet` and
    /// `bus_threaded` are left out (see `design.json`).
    pub const ALL: [Workload; 4] = [
        Workload::PaperDrive,
        Workload::CityFleet,
        Workload::MetroNested,
        Workload::BusThreaded,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperDrive => "paper_drive",
            Workload::CityFleet => "city_fleet",
            Workload::MetroNested => "metro_nested",
            Workload::BusThreaded => "bus_threaded",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated seconds per run.
    pub fn horizon_s(self) -> u64 {
        match self {
            // Half a VanLAN lap (704 s), so that one invocation covers
            // many run seeds.
            Workload::PaperDrive => 352,
            Workload::CityFleet | Workload::BusThreaded => 20,
            Workload::MetroNested => 15,
        }
    }

    /// Worker threads the engine runs on.
    pub fn workers(self) -> usize {
        match self {
            Workload::BusThreaded => 2,
            _ => 1,
        }
    }

    /// Run seeds the closed loop cycles through: few enough that every
    /// one runs within the default budget, so the median covers the same
    /// set of drives on a slow host as on a fast one. The first one always
    /// repeats (the reference run, then the first timed run). A lap's work
    /// varies most between run seeds (14% in events), so `paper_drive`
    /// spreads its runs widest; the fleets' work varies by about 2%.
    pub fn run_seeds(self) -> u64 {
        match self {
            Workload::PaperDrive => 20,
            Workload::CityFleet | Workload::BusThreaded => 6,
            Workload::MetroNested => 3,
        }
    }

    /// Build the inputs of every run seed of benchmark seed `seed`: the
    /// scenario, the fault plans and the configs. This is the work
    /// `setup_s` times.
    pub fn inputs(self, seed: u64) -> Vec<Inputs> {
        (0..self.run_seeds())
            .map(|k| self.inputs_for(run_seed(seed, k)))
            .collect()
    }

    fn inputs_for(self, seed: u64) -> Inputs {
        let duration_s = self.horizon_s();
        let (scenario, spec) = match self {
            Workload::PaperDrive => (
                adapter::vanlan(1),
                ConfigSpec {
                    workload: Some(adapter::paper_tcp()),
                    fleet_workload: None,
                    duration_s,
                    seed,
                    shards: 1,
                    fault_intensity: 0.0,
                },
            ),
            Workload::CityFleet => (adapter::vanlan(64), fleet(duration_s, seed, 0.0)),
            Workload::MetroNested => (adapter::metro(4, 16, 7), fleet(duration_s, seed, 0.6)),
            Workload::BusThreaded => (
                adapter::dieselnet_fleet(16, 42),
                fleet(duration_s, seed, 0.0),
            ),
        };
        let cfg = adapter::make_config(&scenario, &spec);
        Inputs {
            scenario,
            cfg,
            workers: self.workers(),
        }
    }
}

/// Run seed `k` of benchmark seed `seed` (SplitMix64 of the pair), so
/// nearby benchmark seeds share no run seed.
pub fn run_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(64)
        .wrapping_add(k)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Paper CBR on every vehicle, coupled on two shards.
fn fleet(duration_s: u64, seed: u64, fault_intensity: f64) -> ConfigSpec {
    ConfigSpec {
        workload: None,
        fleet_workload: Some(adapter::paper_cbr()),
        duration_s,
        seed,
        shards: 2,
        fault_intensity,
    }
}
