//! The closed loop: build the inputs, run a one-worker reference, then
//! run the workload back to back for the wall-clock budget. Every run
//! executes on a run thread under `catch_unwind` and a wall deadline, and
//! is checked against the earlier runs of its run seed.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::adapter::{self, EngineTiming, Inputs, ModelOutputs};
use crate::host::{self, Canary};
use crate::trace::{Span, Tracer};
use crate::Args;

/// `setup_s` samples taken before the first run; one more is taken before
/// every timed run, so that the samples span the whole invocation and a
/// momentary stall of the host cannot set the median.
const SETUP_SAMPLES: usize = 5;

/// Input constructions averaged into one `setup_s` sample. One takes
/// tens of microseconds, and the first after a run finds the caches cold;
/// the mean of many is the steady cost.
const SETUP_BATCH: u32 = 50;

/// A run that has not returned after this long counts as failed.
const RUN_DEADLINE: Duration = Duration::from_secs(60);

/// What one successful run measured.
pub struct RunRecord {
    /// Host seconds for the whole run: engine, log derivations, checks.
    pub wall: f64,
    /// Process CPU seconds the whole run used.
    pub cpu: f64,
    /// Host seconds inside the engine call.
    pub engine_wall: f64,
    pub timing: EngineTiming,
    pub model: ModelOutputs,
    pub records: usize,
    pub trace_bytes: usize,
}

/// One `setup_s` sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SetupSample {
    /// CPU seconds of one input construction (mean of [`SETUP_BATCH`]).
    pub cpu: f64,
    /// CPU seconds of the latest [`Canary`] walk before it.
    pub canary: f64,
}

/// One successful untraced timed run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timed {
    /// Index of its run seed in [`RunResult::run_seeds`].
    pub seed: usize,
    pub wall: f64,
    pub cpu: f64,
    /// CPU seconds of a [`Canary`] walk: the mean of the walks just before
    /// and just after the run.
    pub canary: f64,
}

/// Counts from the traced pass's outside analysis calls.
#[derive(Clone, Copy, Default)]
pub struct AnalysisCounts {
    pub clusters: usize,
    pub shards: usize,
}

/// Everything one invocation measured.
pub struct RunResult {
    /// The run seeds the loop cycled through.
    pub run_seeds: Vec<u64>,
    /// `(fingerprint, events)` of each run seed, once it has run.
    pub per_seed: Vec<Option<(u64, u64)>>,
    pub vehicles: usize,
    pub workers: usize,
    pub setup: Vec<SetupSample>,
    /// The untimed one-worker run every timed run is checked against.
    pub reference: Option<RunRecord>,
    /// The successful untraced timed runs.
    pub untraced: Vec<Timed>,
    /// Peak resident set after the reference run, less the canary's
    /// table, MiB.
    pub peak_rss_mib: f64,
    /// Jiffies the host stole from this guest during the timed runs.
    pub steal_ticks: u64,
    /// Successful traced runs (traced pass only).
    pub traced: Vec<RunRecord>,
    pub analysis: AnalysisCounts,
    pub spans: Vec<Span>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// A run passed its deadline and its thread is still running.
    pub hung: bool,
}

impl RunResult {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }
}

/// One run: the engine, then Table 1, the binary trace and its streaming
/// fold, and the derived statistics, each inside its own span.
pub fn run_once(inputs: &Inputs, t: &mut Tracer) -> Result<RunRecord, String> {
    let start = Instant::now();
    let cpu0 = host::process_cpu_s();
    let mut rec = t.span("run", |t| {
        let e0 = Instant::now();
        let (outcome, timing) = t.span("engine.run", |_| adapter::run(inputs));
        let engine_wall = e0.elapsed().as_secs_f64();
        let t1 = t.span("logging.table1", |_| adapter::table1(&outcome.log));
        let trace = t.span("logging.binary_write", |_| {
            adapter::write_binary(&outcome.log)
        });
        let summary = t.span("logging.fold", |_| adapter::fold(&trace))?;
        let model = t.span("metrics.derive", |_| {
            adapter::derive(&outcome, &inputs.cfg, &t1)
        });
        let records = adapter::log_records(&outcome.log);
        if summary.fingerprint != adapter::log_fingerprint(&outcome.log)
            || summary.records != records as u64
            || !adapter::table1_equal(&summary.table1, &t1)
        {
            return Err("binary trace fold disagrees with the in-memory log".to_string());
        }
        if model.events == 0 || model.frames_tx == 0 || model.delivery_ratio <= 0.0 {
            return Err(format!("degenerate outcome: {model:?}"));
        }
        Ok(RunRecord {
            wall: 0.0,
            cpu: 0.0,
            engine_wall,
            timing,
            model,
            records,
            trace_bytes: trace.len(),
        })
    })?;
    rec.wall = start.elapsed().as_secs_f64();
    rec.cpu = host::process_cpu_s() - cpu0;
    Ok(rec)
}

/// The scenario analysis and planning the engine performs internally,
/// called from outside so that each layer's time can be attributed.
/// Traced pass only: the work duplicates what the run already did.
pub fn analysis(inputs: &Inputs, t: &mut Tracer) -> AnalysisCounts {
    t.span("analysis", |t| {
        let link = t.span("testbeds.link_build", |_| adapter::link_model(inputs));
        t.span("testbeds.active_seconds", |_| {
            black_box(adapter::active_seconds(inputs, &link));
        });
        let clusters = t.span("testbeds.contact_clusters", |_| {
            adapter::contact_clusters(inputs, &link)
        });
        if adapter::nested(inputs, clusters.len()) {
            for members in &clusters {
                t.span("testbeds.cluster_active", |_| {
                    black_box(adapter::cluster_active_seconds(inputs, &link, members));
                });
            }
        }
        t.span("testbeds.bs_contact", |_| {
            black_box(adapter::bs_contact_seconds(inputs, &link));
        });
        let shards = t.span("runtime.plan", |_| adapter::plan_shards(inputs));
        AnalysisCounts {
            clusters: clusters.len(),
            shards,
        }
    })
}

/// What a job on the run thread returns: the run, the traced pass's
/// analysis counts, its spans, and the canary walked after it on the
/// same thread (untraced runs only).
type JobOutput = (RunRecord, Option<AnalysisCounts>, Vec<Span>, Option<f64>);
type Job = Box<dyn FnOnce() -> Result<JobOutput, String> + Send>;

/// One long-lived thread that executes the runs, so that every run starts
/// from the same allocator state. Each job runs under `catch_unwind`, and
/// the caller gives up on it after [`RUN_DEADLINE`].
struct RunThread {
    deadline: Duration,
    jobs: Sender<Job>,
    results: Receiver<Result<JobOutput, String>>,
    handle: JoinHandle<()>,
}

impl RunThread {
    fn spawn(deadline: Duration) -> RunThread {
        let (jobs, job_rx) = channel::<Job>();
        let (result_tx, results) = channel();
        let handle = std::thread::spawn(move || {
            for job in job_rx {
                let out = catch_unwind(AssertUnwindSafe(job)).unwrap_or_else(|payload| {
                    let msg = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_string());
                    Err(format!("panicked: {msg}"))
                });
                if result_tx.send(out).is_err() {
                    return;
                }
            }
        });
        RunThread {
            deadline,
            jobs,
            results,
            handle,
        }
    }

    /// Run `job`; `None` when it has not returned by the deadline.
    fn run(&self, job: Job) -> Option<Result<JobOutput, String>> {
        if self.jobs.send(job).is_err() {
            return Some(Err("run thread is gone".to_string()));
        }
        match self.results.recv_timeout(self.deadline) {
            Ok(out) => Some(out),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => {
                Some(Err("run thread ended without a result".to_string()))
            }
        }
    }

    /// Stop the thread and wait for it; only valid when no job hangs.
    fn join(self) {
        drop(self.jobs);
        let _ = self.handle.join();
    }
}

/// Build the inputs of `args` [`SETUP_BATCH`] times, recording the mean
/// CPU time of one build beside the latest canary walk.
fn timed_setup(args: &Args, canary: f64, samples: &mut Vec<SetupSample>) -> Vec<Inputs> {
    let c0 = host::process_cpu_s();
    let mut inputs = Vec::new();
    for _ in 0..SETUP_BATCH {
        inputs = black_box(args.workload.inputs(args.seed));
    }
    samples.push(SetupSample {
        cpu: (host::process_cpu_s() - c0) / f64::from(SETUP_BATCH),
        canary,
    });
    inputs
}

/// Run the workload for `budget` of wall-clock time.
pub fn execute(args: &Args, budget: Duration) -> RunResult {
    let canary = Arc::new(Canary::new());
    // The canary walked most recently: before the set-up samples, then
    // after each run.
    let mut last_canary = canary.measure();
    let mut setup = Vec::new();
    let mut built = Vec::new();
    for _ in 0..SETUP_SAMPLES {
        built = timed_setup(args, last_canary, &mut setup);
    }
    let configs: Vec<Arc<Inputs>> = built.into_iter().map(Arc::new).collect();
    let mut res = RunResult {
        run_seeds: configs.iter().map(|c| adapter::run_seed(c)).collect(),
        per_seed: vec![None; configs.len()],
        vehicles: adapter::vehicle_count(&configs[0].scenario),
        workers: configs[0].workers,
        setup,
        reference: None,
        untraced: Vec::new(),
        peak_rss_mib: 0.0,
        steal_ticks: 0,
        traced: Vec::new(),
        analysis: AnalysisCounts::default(),
        spans: Vec::new(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        hung: false,
    };

    // The reference run of the first run seed, untimed: warms caches and
    // the allocator, and fixes that seed's fingerprint. It runs on one
    // worker, so for a threaded workload the timed runs of that seed also
    // check that threading changed nothing.
    let runner = RunThread::spawn(RUN_DEADLINE);
    res.attempted += 1;
    let one_worker = Inputs {
        workers: 1,
        ..(*configs[0]).clone()
    };
    let walk = Arc::clone(&canary);
    let job: Job = Box::new(move || {
        let rec = run_once(&one_worker, &mut Tracer::new(false, 0, Instant::now()))?;
        Ok((rec, None, Vec::new(), Some(walk.measure())))
    });
    let reference = match runner.run(job) {
        Some(Ok((rec, _, _, walked))) => {
            last_canary = walked.unwrap_or(last_canary);
            // Start-up, set-up and one run in a fresh process; the
            // canary's table is resident throughout and not counted.
            res.peak_rss_mib = host::peak_rss_mib() - Canary::MIB;
            rec
        }
        Some(Err(e)) => {
            res.fail(format!("reference run: {e}"));
            runner.join();
            return res;
        }
        None => {
            res.fail(format!("reference run: no result after {RUN_DEADLINE:?}"));
            res.hung = true;
            return res;
        }
    };
    // The other run seeds' fingerprints are fixed by their first run;
    // every repeat must reproduce them.
    res.per_seed[0] = Some((reference.model.fingerprint, reference.model.events));
    res.reference = Some(reference);

    let epoch = Instant::now();
    let steal0 = host::steal_ticks();
    let phases: Vec<(bool, Duration)> = if args.trace {
        vec![(false, budget / 2), (true, budget / 2)]
    } else {
        vec![(false, budget)]
    };
    let mut next = 0;
    for (traced, phase_budget) in phases {
        let t0 = Instant::now();
        let mut runs = 0;
        while runs == 0 || t0.elapsed() < phase_budget {
            runs += 1;
            timed_setup(args, last_canary, &mut res.setup);
            res.attempted += 1;
            let run_id = res.attempted as u32;
            let k = next;
            next = (next + 1) % configs.len();
            let inputs = Arc::clone(&configs[k]);
            let walk = Arc::clone(&canary);
            let out = runner.run(Box::new(move || {
                let mut t = Tracer::new(traced, run_id, epoch);
                let rec = run_once(&inputs, &mut t)?;
                let counts = traced.then(|| analysis(&inputs, &mut t));
                let walked = (!traced).then(|| walk.measure());
                Ok((rec, counts, t.into_spans(), walked))
            }));
            match out {
                Some(Ok((rec, counts, spans, walked))) => {
                    let before = last_canary;
                    if let Some(c) = walked {
                        last_canary = c;
                    }
                    let fp = rec.model.fingerprint;
                    match res.per_seed[k] {
                        Some((want, _)) if want != fp => {
                            res.fail(format!(
                                "run {run_id}: run seed {k} gave fingerprint {fp:016x} on {} \
                                 worker(s), expected {want:016x}",
                                res.workers
                            ));
                            continue;
                        }
                        _ => res.per_seed[k] = Some((fp, rec.model.events)),
                    }
                    if traced {
                        res.analysis = counts.unwrap_or_default();
                        res.spans.extend(spans);
                        res.traced.push(rec);
                    } else {
                        res.untraced.push(Timed {
                            seed: k,
                            wall: rec.wall,
                            cpu: rec.cpu,
                            canary: (before + last_canary) / 2.0,
                        });
                    }
                }
                Some(Err(e)) => res.fail(format!("run {run_id}: {e}")),
                None => {
                    res.fail(format!("run {run_id}: no result after {RUN_DEADLINE:?}"));
                    // The run thread is stuck; ending the process ends it.
                    res.hung = true;
                    return res;
                }
            }
        }
    }
    res.steal_ticks = host::steal_ticks().saturating_sub(steal0);
    runner.join();
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::ConfigSpec;

    /// A short VanLAN drive, small enough for an unoptimized test build.
    fn tiny(workers: usize, shards: usize) -> Inputs {
        let scenario = adapter::vanlan(2);
        let cfg = adapter::make_config(
            &scenario,
            &ConfigSpec {
                workload: None,
                fleet_workload: Some(adapter::paper_cbr()),
                duration_s: 5,
                seed: 3,
                shards,
                fault_intensity: 0.0,
            },
        );
        Inputs {
            scenario,
            cfg,
            workers,
        }
    }

    #[test]
    fn runs_repeat_and_traced_spans_nest() {
        let epoch = Instant::now();
        let inputs = tiny(1, 2);
        let first = run_once(&inputs, &mut Tracer::new(false, 0, epoch)).expect("run");
        let mut t = Tracer::new(true, 1, epoch);
        let again = run_once(&inputs, &mut t).expect("run");
        let counts = analysis(&inputs, &mut t);
        assert_eq!(first.model, again.model, "a repeated run seed must repeat");
        assert!(first.model.events > 0 && first.records > 0 && first.trace_bytes > 0);
        assert!(counts.shards == 2 && counts.clusters >= 1);

        let spans = t.into_spans();
        let root = |name| spans.iter().find(|s| s.name == name).expect(name).id;
        let (run, analysis_root) = (root("run"), root("analysis"));
        for s in &spans {
            let want = match s.name {
                "run" | "analysis" => None,
                n if n.starts_with("testbeds.") || n == "runtime.plan" => Some(analysis_root),
                _ => Some(run),
            };
            assert_eq!(s.parent, want, "{}", s.name);
        }
    }

    #[test]
    fn run_thread_survives_panics_and_gives_up_on_hangs() {
        let runner = RunThread::spawn(Duration::from_millis(200));
        let panicked = runner.run(Box::new(|| panic!("boom")));
        assert_eq!(
            panicked.map(|r| r.err()),
            Some(Some("panicked: boom".to_string()))
        );
        let next = runner.run(Box::new(|| Err("next".to_string())));
        assert_eq!(
            next.map(|r| r.err()),
            Some(Some("next".to_string())),
            "the thread outlives a panic"
        );
        let hung = runner.run(Box::new(|| {
            std::thread::sleep(Duration::from_secs(2));
            Err("late".to_string())
        }));
        assert!(
            hung.is_none(),
            "a run past its deadline must not be waited for"
        );
    }

    #[test]
    fn threaded_runs_match_one_worker() {
        let one = run_once(&tiny(1, 2), &mut Tracer::new(false, 0, Instant::now())).expect("run");
        let two = run_once(&tiny(2, 2), &mut Tracer::new(false, 0, Instant::now())).expect("run");
        assert_eq!(one.model.fingerprint, two.model.fingerprint);
    }
}
