//! Turning a [`RunResult`] into the benchmark's output lines.

use serde_json::Value;

use crate::run::{RunRecord, RunResult};
use crate::stats::{self, median};
use crate::trace;
use crate::Args;

/// One reported metric: name, unit, value.
type Metric = (&'static str, &'static str, f64);

/// Spans that hold scenario analysis and planning work; the engine
/// repeats the same work inside every run.
const ANALYSIS_SPANS: [&str; 5] = [
    "testbeds.link_build",
    "testbeds.active_seconds",
    "testbeds.contact_clusters",
    "testbeds.cluster_active",
    "runtime.plan",
];

fn med(xs: &[f64]) -> f64 {
    median(xs).unwrap_or(0.0)
}

fn med_of(runs: &[RunRecord], f: impl Fn(&RunRecord) -> f64) -> f64 {
    med(&runs.iter().map(f).collect::<Vec<_>>())
}

/// Walls of the untraced runs.
fn walls(r: &RunResult) -> Vec<f64> {
    r.untraced.iter().map(|t| t.wall).collect()
}

/// Canary CPU seconds the normalized run times are scaled to: about what
/// one [`crate::host::Canary`] walk takes on the reference host (Intel
/// Xeon, 2 vCPU) when its neighbours are quiet.
pub const CANARY_REF_S: f64 = 0.2;

/// Each untraced run's CPU time over the canary walked around it, in
/// seconds on a host whose canary takes [`CANARY_REF_S`].
fn normalized(r: &RunResult) -> Vec<f64> {
    r.untraced
        .iter()
        .map(|t| t.cpu / t.canary * CANARY_REF_S)
        .collect()
}

/// End-to-end metrics (`--trace 0`), from the untraced runs.
///
/// Set-up and run times are CPU time normalized by the canary: other
/// guests on a shared host slow the same run by up to half for tens of
/// seconds to minutes at a time, and slow a memory-bound loop walked
/// between runs with it. The raw medians and the tail are on the summary
/// line.
fn end_to_end(r: &RunResult, args: &Args) -> Vec<Metric> {
    let setup: Vec<f64> = r
        .setup
        .iter()
        .map(|x| x.cpu / x.canary * CANARY_REF_S)
        .collect();
    let run = med(&normalized(r));
    let sim_rate = if run > 0.0 {
        r.vehicles as f64 * args.workload.horizon_s() as f64 / run
    } else {
        0.0
    };
    vec![
        ("setup_s", "s", med(&setup)),
        ("run_s_p50_norm", "s", run),
        ("sim_rate_norm", "veh.s/s", sim_rate),
        ("peak_rss_mib", "MiB", r.peak_rss_mib),
        (
            "ok_ratio",
            "ratio",
            (r.attempted - r.failed) as f64 / r.attempted as f64,
        ),
    ]
}

/// Per-layer metrics (`--trace 1`): layer times are host seconds per run,
/// median over the traced runs; `model.*` are simulated outputs of the
/// reference run.
fn per_layer(r: &RunResult) -> Vec<Metric> {
    let by_name = trace::self_time_by_name(&r.spans);
    let layer = |name: &str| by_name.get(name).map_or(0.0, |v| med(v));
    let t = &r.traced;
    let exec_busy = |x: &RunRecord| {
        x.timing
            .per_shard
            .iter()
            .map(|d| d.as_secs_f64())
            .sum::<f64>()
    };
    let exec_max = |x: &RunRecord| {
        x.timing
            .per_shard
            .iter()
            .map(|d| d.as_secs_f64())
            .fold(0.0, f64::max)
    };
    let workers = r.workers;
    let unaccounted = |x: &RunRecord| {
        let accounted = if workers == 1 {
            exec_busy(x) + x.timing.serial.as_secs_f64()
        } else {
            x.timing.critical_path.as_secs_f64()
        };
        x.engine_wall - accounted
    };
    let reference = r.reference.as_ref();
    let of_ref = |f: &dyn Fn(&RunRecord) -> f64| reference.map_or(0.0, f);
    let engine_wall = med_of(t, |x| x.engine_wall);
    let untraced = med(&walls(r));
    let traced = med_of(t, |x| x.wall);
    let analysis: f64 = ANALYSIS_SPANS.iter().map(|s| layer(s)).sum();
    vec![
        ("testbeds.link_build_s", "s", layer("testbeds.link_build")),
        (
            "testbeds.active_seconds_s",
            "s",
            layer("testbeds.active_seconds"),
        ),
        (
            "testbeds.contact_clusters_s",
            "s",
            layer("testbeds.contact_clusters"),
        ),
        (
            "testbeds.cluster_active_s",
            "s",
            layer("testbeds.cluster_active"),
        ),
        ("testbeds.bs_contact_s", "s", layer("testbeds.bs_contact")),
        ("testbeds.clusters", "count", r.analysis.clusters as f64),
        ("runtime.plan_s", "s", layer("runtime.plan")),
        ("runtime.shards", "count", r.analysis.shards as f64),
        ("engine.wall_s", "s", engine_wall),
        ("engine.exec_busy_s", "s", med_of(t, exec_busy)),
        ("engine.exec_max_s", "s", med_of(t, exec_max)),
        (
            "engine.serial_s",
            "s",
            med_of(t, |x| x.timing.serial.as_secs_f64()),
        ),
        (
            "engine.critical_path_s",
            "s",
            med_of(t, |x| x.timing.critical_path.as_secs_f64()),
        ),
        ("engine.unaccounted_s", "s", med_of(t, unaccounted)),
        (
            "engine.critical_over_wall",
            "ratio",
            med_of(t, |x| x.timing.critical_path.as_secs_f64() / x.engine_wall),
        ),
        ("engine.events", "count", of_ref(&|x| x.model.events as f64)),
        (
            "engine.frames_tx",
            "count",
            of_ref(&|x| x.model.frames_tx as f64),
        ),
        (
            "engine.ns_per_event",
            "ns",
            med_of(t, |x| exec_busy(x) * 1e9 / x.model.events as f64),
        ),
        ("engine.workers1_ref_s", "s", of_ref(&|x| x.engine_wall)),
        ("logging.records", "count", of_ref(&|x| x.records as f64)),
        (
            "logging.trace_bytes",
            "bytes",
            of_ref(&|x| x.trace_bytes as f64),
        ),
        ("logging.table1_s", "s", layer("logging.table1")),
        ("logging.binary_write_s", "s", layer("logging.binary_write")),
        ("logging.fold_s", "s", layer("logging.fold")),
        ("metrics.derive_s", "s", layer("metrics.derive")),
        (
            "model.fingerprint",
            "hash53",
            // The low 53 bits, so the value is exact as a JSON number.
            of_ref(&|x| (x.model.fingerprint & ((1u64 << 53) - 1)) as f64),
        ),
        (
            "model.delivery_ratio",
            "ratio",
            of_ref(&|x| x.model.delivery_ratio),
        ),
        (
            "model.tcp_transfers_per_session",
            "transfers",
            of_ref(&|x| x.model.tcp_transfers_per_session),
        ),
        (
            "model.session_s_per_vehicle",
            "sim_s",
            of_ref(&|x| x.model.session_s_per_vehicle),
        ),
        (
            "model.salvaged",
            "count",
            of_ref(&|x| x.model.salvaged as f64),
        ),
        (
            "model.anchor_switches",
            "count",
            of_ref(&|x| x.model.anchor_switches as f64),
        ),
        (
            "model.frames_per_delivered",
            "frames/pkt",
            of_ref(&|x| x.model.frames_per_delivered),
        ),
        (
            "model.table1_b2_false_pos",
            "ratio",
            of_ref(&|x| x.model.table1_b2_false_pos),
        ),
        ("trace.untraced_run_s_p50", "s", untraced),
        ("trace.traced_run_s_p50", "s", traced),
        ("trace.overhead_s", "s", traced - untraced),
        (
            "trace.analysis_share",
            "ratio",
            if engine_wall > 0.0 {
                analysis / engine_wall
            } else {
                0.0
            },
        ),
    ]
}

fn metrics_object(metrics: Vec<Metric>) -> Value {
    Value::Object(
        metrics
            .into_iter()
            .map(|(name, unit, v)| {
                let v = if v.is_finite() { v } else { 0.0 };
                (
                    name.to_string(),
                    Value::Object(vec![
                        ("value".to_string(), Value::Float(v)),
                        ("unit".to_string(), Value::Str(unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

/// The result object: the last line of standard output.
pub fn result_line(args: &Args, r: &RunResult) -> String {
    let metrics = metrics_object(if args.trace {
        per_layer(r)
    } else {
        end_to_end(r, args)
    });
    let v = Value::Object(vec![
        ("correct".to_string(), Value::Bool(r.failed == 0)),
        ("attempted".to_string(), Value::UInt(r.attempted)),
        ("failed".to_string(), Value::UInt(r.failed)),
        ("metrics".to_string(), metrics),
    ]);
    serde_json::to_string(&v).expect("rendering a Value cannot fail")
}

/// `(nproc, CPU model)` of this host.
fn host() -> (usize, String) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    (nproc, cpu)
}

fn s(x: impl ToString) -> Value {
    Value::Str(x.to_string())
}

/// The description line printed before the result: host, workload
/// design, run counts, the supported tail percentile, failures.
pub fn summary_line(args: &Args, r: &RunResult) -> String {
    let (nproc, cpu) = host();
    let walls = walls(r);
    let cpus: Vec<f64> = r.untraced.iter().map(|t| t.cpu).collect();
    let tail = match stats::tail(&walls, 10) {
        Some(t) => Value::Object(vec![
            ("percentile".to_string(), Value::UInt(t.percentile as u64)),
            ("value_s".to_string(), Value::Float(t.value)),
            ("beyond".to_string(), Value::UInt(t.beyond as u64)),
        ]),
        None => s(format!(
            "not reported: {} runs support no percentile above the median with 10 beyond it",
            walls.len()
        )),
    };
    let v = Value::Object(vec![
        ("workload".to_string(), s(args.workload.name())),
        ("seed".to_string(), Value::UInt(args.seed)),
        ("trace".to_string(), Value::Bool(args.trace)),
        (
            "host".to_string(),
            Value::Object(vec![
                ("nproc".to_string(), Value::UInt(nproc as u64)),
                ("cpu".to_string(), s(cpu)),
            ]),
        ),
        (
            "design".to_string(),
            Value::Object(vec![
                ("loop".to_string(), s("closed, 1 client")),
                ("threads".to_string(), Value::UInt(r.workers as u64)),
                ("vehicles".to_string(), Value::UInt(r.vehicles as u64)),
                (
                    "horizon_sim_s".to_string(),
                    Value::UInt(args.workload.horizon_s()),
                ),
            ]),
        ),
        (
            "runs_untraced".to_string(),
            Value::UInt(r.untraced.len() as u64),
        ),
        (
            "runs_traced".to_string(),
            Value::UInt(r.traced.len() as u64),
        ),
        (
            "setup_cpu_s_p50".to_string(),
            Value::Float(med(&r.setup.iter().map(|x| x.cpu).collect::<Vec<_>>())),
        ),
        ("run_s_p50".to_string(), Value::Float(med(&walls))),
        ("run_cpu_s_p50".to_string(), Value::Float(med(&cpus))),
        (
            "canary_s".to_string(),
            Value::Array(r.untraced.iter().map(|t| Value::Float(t.canary)).collect()),
        ),
        (
            "run_walls_s".to_string(),
            Value::Array(walls.iter().map(|&w| Value::Float(w)).collect()),
        ),
        (
            "run_cpu_s".to_string(),
            Value::Array(cpus.iter().map(|&c| Value::Float(c)).collect()),
        ),
        (
            "run_seed_index".to_string(),
            Value::Array(
                r.untraced
                    .iter()
                    .map(|t| Value::UInt(t.seed as u64))
                    .collect(),
            ),
        ),
        ("steal_ticks".to_string(), Value::UInt(r.steal_ticks)),
        ("run_s_tail".to_string(), tail),
        (
            "fail_ratio".to_string(),
            Value::Float(r.failed as f64 / r.attempted as f64),
        ),
        (
            "per_run_seed".to_string(),
            Value::Array(
                r.run_seeds
                    .iter()
                    .zip(&r.per_seed)
                    .map(|(&seed, seen)| {
                        let (fp, events) = match seen {
                            Some((fp, events)) => (s(format!("{fp:016x}")), Value::UInt(*events)),
                            None => (Value::Null, Value::Null),
                        };
                        Value::Object(vec![
                            ("seed".to_string(), Value::UInt(seed)),
                            ("fingerprint".to_string(), fp),
                            ("events".to_string(), events),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "failures".to_string(),
            Value::Array(r.failures.iter().map(s).collect()),
        ),
    ]);
    serde_json::to_string(&v).expect("rendering a Value cannot fail")
}

/// Write the traced pass's spans, one JSON object per line.
pub fn write_spans(args: &Args, spans: &[trace::Span]) -> std::io::Result<()> {
    let dir = std::path::Path::new("benchmark/out");
    std::fs::create_dir_all(dir)?;
    std::fs::write(
        dir.join(format!(
            "spans-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        )),
        trace::to_json_lines(spans),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::{EngineTiming, ModelOutputs};
    use crate::run::{AnalysisCounts, SetupSample, Timed};
    use crate::workloads::Workload;
    use std::time::Duration;

    fn record(wall: f64) -> RunRecord {
        RunRecord {
            wall,
            cpu: wall * 0.95,
            engine_wall: wall * 0.9,
            timing: EngineTiming {
                per_shard: vec![Duration::from_millis(300), Duration::from_millis(400)],
                serial: Duration::from_millis(50),
                critical_path: Duration::from_millis(450),
            },
            model: ModelOutputs {
                fingerprint: u64::MAX,
                delivery_ratio: 0.5,
                tcp_transfers_per_session: 0.0,
                session_s_per_vehicle: 12.0,
                salvaged: 3,
                anchor_switches: 4,
                frames_per_delivered: 2.5,
                table1_b2_false_pos: 0.01,
                events: 1000,
                frames_tx: 500,
            },
            records: 10,
            trace_bytes: 100,
        }
    }

    fn result(traced: bool) -> RunResult {
        let mut t = trace::Tracer::new(traced, 2, std::time::Instant::now());
        t.span("run", |t| t.span("engine.run", |_| ()));
        RunResult {
            run_seeds: vec![11, 12],
            per_seed: vec![Some((u64::MAX, 1000)), None],
            vehicles: 16,
            workers: 2,
            // Normalized set-up times 1e-5, 2e-5 and 3e-5 s.
            setup: [(1e-5, 0.2), (1e-5, 0.1), (3e-5, 0.2)]
                .into_iter()
                .map(|(cpu, canary)| SetupSample { cpu, canary })
                .collect(),
            reference: Some(record(1.0)),
            // Normalized run times 1.0, 1.2 and 1.1 s.
            untraced: [(0, 1.0, 0.5), (1, 1.2, 1.2), (0, 1.1, 0.22)]
                .into_iter()
                .map(|(seed, wall, cpu)| Timed {
                    seed,
                    wall,
                    cpu,
                    canary: cpu / wall * CANARY_REF_S,
                })
                .collect(),
            peak_rss_mib: 42.0,
            steal_ticks: 3,
            traced: if traced {
                vec![record(1.3)]
            } else {
                Vec::new()
            },
            analysis: AnalysisCounts {
                clusters: 4,
                shards: 2,
            },
            spans: t.into_spans(),
            attempted: 5,
            failed: 1,
            failures: vec!["run 3: \"quoted\" failure".to_string()],
            hung: false,
        }
    }

    fn args(trace: bool) -> Args {
        Args {
            workload: Workload::BusThreaded,
            seed: 1,
            seconds: 1.0,
            trace,
        }
    }

    /// Parse `line` and return its metric names and units, checking the
    /// result object's shape on the way.
    fn parsed_metrics(line: &str) -> Vec<(String, String)> {
        let v: Value = serde_json::from_str(line).expect("result line is JSON");
        let keys: Vec<&str> = v
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(v.get("attempted").and_then(Value::as_u64), Some(5));
        assert_eq!(v.get("failed").and_then(Value::as_u64), Some(1));
        v.get("metrics")
            .and_then(Value::as_object)
            .expect("metrics object")
            .iter()
            .map(|(name, m)| {
                assert!(
                    m.get("value").and_then(Value::as_f64).is_some(),
                    "{name} has no numeric value"
                );
                let unit = m.get("unit").and_then(Value::as_str).expect("unit");
                (name.clone(), unit.to_string())
            })
            .collect()
    }

    fn benchmark_json() -> Value {
        serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json")
    }

    #[test]
    fn result_lines_parse_and_name_every_metric() {
        // Exactly the metrics BENCHMARK.json declares, in its order and
        // with its units.
        let doc = benchmark_json();
        assert_eq!(
            parsed_metrics(&result_line(&args(false), &result(false))),
            declared(&doc, "end_to_end")
        );
        assert_eq!(
            parsed_metrics(&result_line(&args(true), &result(true))),
            declared(&doc, "per_layer")
        );
        let summary: Value =
            serde_json::from_str(&summary_line(&args(true), &result(true))).expect("JSON");
        for key in [
            "host",
            "design",
            "run_s_p50",
            "run_s_tail",
            "fail_ratio",
            "per_run_seed",
            "failures",
        ] {
            assert!(summary.get(key).is_some(), "summary lacks {key}");
        }
    }

    #[test]
    fn end_to_end_values() {
        let v: Value =
            serde_json::from_str(&result_line(&args(false), &result(false))).expect("JSON");
        let value = |name: &str| {
            v.get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
                .expect("metric")
        };
        assert!((value("setup_s") - 2e-5).abs() < 1e-18);
        assert!((value("run_s_p50_norm") - 1.1).abs() < 1e-12);
        // 16 vehicles x 20 simulated s over the median 1.1 normalized s.
        assert!((value("sim_rate_norm") - 16.0 * 20.0 / 1.1).abs() < 1e-9);
        assert_eq!(value("peak_rss_mib"), 42.0);
        assert_eq!(value("ok_ratio"), 0.8);
    }

    /// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
    fn declared(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).expect(f).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn names(doc: &Value, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(Value::as_array)
            .expect("workload list")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_and_design_match_the_code() {
        let doc = benchmark_json();
        let code: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        // BENCHMARK.json gates a subset of the workloads, in code order.
        let gated = names(&doc, "workloads");
        assert!(gated.len() >= 2);
        let mut rest = code.iter();
        for g in &gated {
            assert!(
                rest.any(|c| c == g),
                "{g} is not a workload, or out of order"
            );
        }

        let design: Value =
            serde_json::from_str(include_str!("../design.json")).expect("design.json");
        assert_eq!(names(&design, "workloads"), code);
        for (w, d) in Workload::ALL.iter().zip(
            design
                .get("workloads")
                .and_then(Value::as_array)
                .expect("list"),
        ) {
            assert_eq!(
                d.get("threads").and_then(Value::as_u64),
                Some(w.workers() as u64)
            );
            assert_eq!(
                d.get("run_seeds_per_invocation").and_then(Value::as_u64),
                Some(w.run_seeds())
            );
        }
        let listed: Vec<String> = design
            .get("per_layer")
            .and_then(|p| p.get("interactions"))
            .and_then(Value::as_array)
            .expect("interactions")
            .iter()
            .flat_map(|i| {
                i.get("metrics")
                    .and_then(Value::as_array)
                    .expect("metrics")
                    .iter()
                    .map(|m| m.as_str().expect("name").to_string())
            })
            .collect();
        for (name, _) in declared(&doc, "per_layer")
            .iter()
            .filter(|(n, _)| !n.starts_with("trace."))
        {
            assert!(
                listed.iter().any(|l| l == name),
                "{name} has no interaction entry"
            );
        }
    }
}
