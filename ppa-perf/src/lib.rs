//! # ppa-perf — the repository's benchmark
//!
//! One process, one thread, closed loop: a single caller generates a
//! fixed list of ops from the seed and starts each op when the previous
//! one returns. Every op is timed from outside, around calls into the
//! crates' public functions, and every op's output is checked. See
//! `README.md` beside this crate for the metric catalog and the reasons
//! behind each workload.

pub mod burst_recover;
pub mod chaos_swarm;
pub mod cli;
pub mod probe;
pub mod stats;

use probe::Probe;
use stats::{mean, median, percentile, Digest};
use std::fmt;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    BurstRecover,
    ChaosSwarm,
}

impl WorkloadId {
    pub const ALL: [WorkloadId; 2] = [WorkloadId::BurstRecover, WorkloadId::ChaosSwarm];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::BurstRecover => "burst_recover",
            WorkloadId::ChaosSwarm => "chaos_swarm",
        }
    }

    pub fn parse(name: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Ops generated per second of `--seconds`. The op list is a function
    /// of the seed and this count only, never of the clock; the rates are
    /// set so an untraced run, set-up included, takes about `--seconds`
    /// of wall time on a 2-core x86-64 host with a release build.
    fn ops_per_second(self) -> u64 {
        match self {
            WorkloadId::BurstRecover => 18,
            WorkloadId::ChaosSwarm => 500,
        }
    }

    /// The run's op count for `seconds` of op work: never fewer than 40,
    /// so `op_tail_ms` always has a percentile with 10 samples beyond it.
    pub fn op_count(self, seconds: u64) -> usize {
        (seconds.saturating_mul(self.ops_per_second())).max(40) as usize
    }

    /// Builds the workload's op generator for `seed`.
    fn start(self, seed: u64) -> Box<dyn Workload> {
        match self {
            WorkloadId::BurstRecover => Box::new(burst_recover::BurstRecover::new(seed)),
            WorkloadId::ChaosSwarm => Box::new(chaos_swarm::ChaosSwarm::new(seed)),
        }
    }
}

/// What one op produced: fingerprints of its input and its deterministic
/// output, and the first check it violated, if any.
#[derive(Debug, Clone, PartialEq)]
pub struct OpResult {
    pub input: u64,
    pub output: u64,
    pub failure: Option<String>,
}

/// A workload generates and runs op `i` of its seeded list. An op builds
/// everything it needs and drops it before returning, so only samples and
/// digests outlive it.
trait Workload {
    /// Run-level set-up shared by every op, recorded as set-up time.
    fn prepare(&mut self, _probe: &mut Probe) -> Result<(), String> {
        Ok(())
    }

    fn op(&mut self, i: usize, probe: &mut Probe) -> OpResult;
}

/// Marks `result` failed with the op's index and the reason.
pub(crate) fn fail(mut result: OpResult, i: usize, e: String) -> OpResult {
    result.failure = Some(format!("op {i}: {e}"));
    result
}

/// Records the engine's own counters of a drive that took `drive_s`
/// seconds, and its wall time per event, on a traced run.
pub(crate) fn engine_counts(probe: &mut Probe, driven: &ppa_engine::DriveReport, drive_s: f64) {
    let c = |name| driven.metrics.counter(name) as f64;
    let opened = c("engine.outages.opened");
    let via_replica = c("engine.recoveries.via_replica");
    let events = driven.report.events;
    probe.add_ms("engine.us_per_event", drive_s * 1e6 / events.max(1) as f64);
    probe.count("engine.events", events as f64);
    probe.count("engine.tuples_moved", driven.report.tuples_moved as f64);
    probe.count("engine.outages.opened", opened);
    probe.count("engine.restores.started", c("engine.restores.started"));
    probe.count("engine.recoveries.via_replica", via_replica);
    probe.count(
        "engine.recoveries.via_restore",
        c("engine.recoveries.via_restore"),
    );
    probe.count(
        "engine.replica_share",
        if opened > 0.0 {
            via_replica / opened
        } else {
            0.0
        },
    );
}

/// The per-layer catalog: name and unit. Timings (`ms`, `us`) report the
/// median over the ops that recorded them, counts and ratios the mean. A
/// layer no op of the workload calls reads 0.
const PER_LAYER: [(&str, &str); 34] = [
    ("core.plan_context_ms", "ms"),
    ("core.mc_trees_ms", "ms"),
    ("core.sa_ms", "ms"),
    ("core.greedy_ms", "ms"),
    ("core.of_ms", "ms"),
    ("faults.generate_ms", "ms"),
    ("workloads.scenario_ms", "ms"),
    ("workloads.result_ms", "ms"),
    ("engine.new_ms", "ms"),
    ("engine.resolve_ms", "ms"),
    ("engine.drive_ms", "ms"),
    ("engine.us_per_event", "us"),
    ("engine.ckpt_ms", "ms"),
    ("engine.drive_ms.pre_failure", "ms"),
    ("engine.drive_ms.recovery", "ms"),
    ("obs.sink_ms", "ms"),
    ("obs.check_stream_ms", "ms"),
    ("chaos.build_ms", "ms"),
    ("chaos.resolve_ms", "ms"),
    ("chaos.check_ms", "ms"),
    ("engine.events", "count"),
    ("engine.tuples_moved", "count"),
    ("engine.outages.opened", "count"),
    ("engine.restores.started", "count"),
    ("engine.recoveries.via_replica", "count"),
    ("engine.recoveries.via_restore", "count"),
    ("engine.replica_share", "ratio"),
    ("faults.nodes_killed", "count"),
    ("core.mc_trees", "count"),
    ("core.mc_tree_limit_hits", "count"),
    ("obs.events", "count"),
    ("chaos.fired", "count"),
    ("chaos.suppressed_kills", "count"),
    ("trace.overhead_ms", "ms"),
];

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    pub attempted: usize,
    pub failed: usize,
    pub first_failure: Option<String>,
    /// Fingerprint of every op's generated input, in op order.
    pub fingerprint: u64,
    /// Digest of every op's deterministic output, in op order.
    pub digest: u64,
    /// The percentile behind `op_tail_ms`.
    pub tail_percentile: f64,
    pub metrics: Vec<Metric>,
}

impl RunOutcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line: one JSON object with the run's counts and metrics.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The op count leaves no tail percentile with 10 samples beyond it.
    TooFewOps(usize),
    /// Run-level set-up failed.
    Setup(String),
    /// A metric could not be measured.
    Measure(String),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::TooFewOps(n) => write!(f, "{n} ops leave no tail percentile"),
            RunError::Setup(e) => write!(f, "set-up failed: {e}"),
            RunError::Measure(e) => write!(f, "measurement failed: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

/// Per-op samples of one run.
#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    op_ms: Vec<f64>,
    work_units: Vec<f64>,
    work_s: Vec<f64>,
    layers: Vec<(&'static str, Vec<f64>)>,
}

impl Samples {
    fn add(&mut self, probe: &Probe) {
        self.setup_s.push(probe.setup_s);
        self.op_ms.push(probe.op_s * 1e3);
        self.work_units.push(probe.work_units as f64);
        self.work_s.push(probe.work_s);
        for &(name, v) in probe.layers.iter().chain(&probe.counts) {
            match self.layers.iter_mut().find(|(n, _)| *n == name) {
                Some((_, vs)) => vs.push(v),
                None => self.layers.push((name, vec![v])),
            }
        }
    }

    fn layer(&self, name: &str) -> &[f64] {
        self.layers
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(&[], |(_, vs)| vs.as_slice())
    }
}

/// Every this many ops, a traced run also runs a traced copy of the op.
/// Sampling keeps a traced run's wall time near an untraced run's: a
/// traced copy costs two to three untraced ones, with its reference
/// drives.
pub const TRACE_EVERY: usize = 4;

/// Runs `ops` ops of `workload` at `seed`. An untraced run reports the
/// end-to-end metrics. A traced run runs the same ops and, for every
/// [`TRACE_EVERY`]th one, a traced copy as well; it checks that both
/// copies produce the same output, and reports the per-layer metrics plus
/// the traced-minus-untraced `op_p50_ms` over the sampled ops.
pub fn run(
    workload: WorkloadId,
    seed: u64,
    ops: usize,
    traced: bool,
) -> Result<RunOutcome, RunError> {
    let tail_percentile = stats::tail_percentile(ops).ok_or(RunError::TooFewOps(ops))?;
    let mut w = workload.start(seed);
    let mut plain = Samples::default();
    let mut prepare = Probe::new(false);
    w.prepare(&mut prepare).map_err(RunError::Setup)?;

    let mut traced_samples = Samples::default();
    let mut sampled_plain_ms = Vec::new();
    let mut fingerprint = Digest::default();
    let mut digest = Digest::default();
    let mut failed = 0;
    let mut first_failure = None;
    for i in 0..ops {
        let sampled = traced && i % TRACE_EVERY == 0;
        // Alternate which copy of a sampled op goes first, so neither
        // copy always finds the caches the other one warmed.
        let traced_first = sampled && (i / TRACE_EVERY) % 2 == 1;
        let mut copy = traced_first.then(|| traced_op(w.as_mut(), i, &mut traced_samples));
        let mut probe = Probe::new(false);
        let mut result = w.op(i, &mut probe);
        if i == 0 {
            probe.setup_s += prepare.setup_s;
        }
        plain.add(&probe);
        if sampled {
            sampled_plain_ms.push(probe.op_s * 1e3);
            if copy.is_none() {
                copy = Some(traced_op(w.as_mut(), i, &mut traced_samples));
            }
        }
        if let Some(copy) = copy.filter(|_| result.failure.is_none()) {
            result.failure = copy.failure.or_else(|| {
                (copy.output != result.output)
                    .then(|| format!("op {i}: traced copy's output differs"))
            });
        }
        fingerprint.word(result.input);
        digest.word(result.output);
        if let Some(f) = result.failure {
            failed += 1;
            first_failure.get_or_insert(f);
        }
    }

    let metrics = if traced {
        per_layer(&sampled_plain_ms, &traced_samples)
    } else {
        end_to_end(&plain, tail_percentile)?
    };
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(RunError::Measure(format!("{} is not finite", m.name)));
    }
    Ok(RunOutcome {
        attempted: ops,
        failed,
        first_failure,
        fingerprint: fingerprint.value(),
        digest: digest.value(),
        tail_percentile,
        metrics,
    })
}

fn traced_op(w: &mut dyn Workload, i: usize, samples: &mut Samples) -> OpResult {
    let mut probe = Probe::new(true);
    let result = w.op(i, &mut probe);
    samples.add(&probe);
    result
}

/// The end-to-end metrics. The rates and `setup_s` are whole-run totals,
/// not medians over stretches of the run: the host's speed drifts in
/// phases of seconds, and a total over the whole run averages the phases
/// a run spans where a median would pick one of them.
fn end_to_end(s: &Samples, tail_percentile: f64) -> Result<Vec<Metric>, RunError> {
    let sum = |xs: &[f64]| xs.iter().sum::<f64>();
    let metric = |name, value, unit| Metric { name, value, unit };
    Ok(vec![
        metric("setup_s", sum(&s.setup_s), "s"),
        metric(
            "ops_per_s",
            s.op_ms.len() as f64 * 1e3 / sum(&s.op_ms),
            "1/s",
        ),
        metric("op_p50_ms", median(&s.op_ms), "ms"),
        metric("op_tail_ms", percentile(&s.op_ms, tail_percentile), "ms"),
        metric(
            "peak_rss_mb",
            stats::peak_rss_mb().map_err(RunError::Measure)?,
            "MiB",
        ),
        metric("events_per_s", sum(&s.work_units) / sum(&s.work_s), "1/s"),
    ])
}

fn per_layer(sampled_plain_ms: &[f64], traced: &Samples) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = if name == "trace.overhead_ms" {
                median(&traced.op_ms) - median(sampled_plain_ms)
            } else if unit == "ms" || unit == "us" {
                median(traced.layer(name))
            } else {
                mean(traced.layer(name))
            };
            Metric { name, value, unit }
        })
        .collect()
}
