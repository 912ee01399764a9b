//! `burst_recover`: the recovery path under seeded correlated bursts.
//!
//! Every op runs the Fig. 6 topology (31 tasks, dedicated placement) at
//! 300 tuples/s per source task with a 30 s window, protected by a PPA
//! plan: structure-aware at half budget against racks of 5 worker nodes,
//! checkpoints every 5 simulated seconds. Set-up builds the scenario,
//! generates the op's own cascade trace, plans and creates the
//! simulation. The op drives to 90 simulated seconds through heartbeat
//! detection, replica takeover, checkpoint restore, replay and catch-up,
//! then computes the completion latency and per-outage fidelity against a
//! failure-free run of the same plan.
//!
//! The traced copy of an op also times the planner calls the op's own
//! plan does not make (the MC-tree enumeration, Greedy at the same budget
//! and `of_plan`), and the checkpoint cost of the failure-free stretch
//! before the first kill, so every planner and engine layer has a timing.

use crate::probe::{ms, Probe};
use crate::stats::{mix, Digest};
use crate::{engine_counts, fail, OpResult, Workload};
use ppa_bench::stopwatch::Stopwatch;
use ppa_core::{GreedyPlanner, PlanContext, Planner, StructureAwarePlanner, TaskSet};
use ppa_engine::{
    DriveReport, EngineConfig, FaultFeed, FtMode, RunReport, Simulation, StaticPolicy,
};
use ppa_faults::{CascadeProcess, FailureProcess, FaultDomainTree};
use ppa_sim::{SimDuration, SimTime};
use ppa_workloads::{fig6_scenario, outage_fidelity, outage_windows, Fig6Config, Scenario};
use std::collections::BTreeMap;

const RATE: usize = 300;
const WINDOW_SECS: u64 = 30;
const RACK_SIZE: usize = 5;
const CHECKPOINT_SECS: u64 = 5;
/// Far past the horizon: the traced run's reference drive, which pays
/// for no checkpoint.
const NO_CHECKPOINT_SECS: u64 = 100_000;
const FAIL_AT_SECS: u64 = 40;
/// Window after `FAIL_AT_SECS` in which the cascade may spread.
const CASCADE_SECS: u64 = 50;
const HORIZON_SECS: u64 = 90;
/// Lateness a batch may have and still count as on time: one heartbeat.
const LATENESS_SECS: u64 = 5;

const CASCADE: CascadeProcess = CascadeProcess {
    level: 1,
    spread: 0.5,
    decay: 0.5,
    hop_delay: SimDuration::from_secs(2),
    fraction: 1.0,
    origin: None,
};

pub struct BurstRecover {
    seed: u64,
    cfg: Fig6Config,
    /// The failure-free run every op's fidelity is measured against.
    golden: Option<RunReport>,
}

impl BurstRecover {
    pub fn new(seed: u64) -> Self {
        BurstRecover {
            seed,
            cfg: Fig6Config {
                rate: RATE,
                window: SimDuration::from_secs(WINDOW_SECS),
                seed: mix(seed, 0x0f16),
                ..Fig6Config::default()
            },
            golden: None,
        }
    }
}

fn horizon() -> SimTime {
    SimTime::from_secs(HORIZON_SECS)
}

/// The PPA plan: structure-aware, half the tasks, against rack failures.
fn plan(scenario: &Scenario, tree: &FaultDomainTree, probe: &mut Probe) -> Result<TaskSet, String> {
    let topology = scenario.query.topology();
    let cx = probe.layer("core.plan_context_ms", || {
        PlanContext::with_fault_domains(topology, tree, &scenario.placement.primary)
    });
    let cx = cx.map_err(|e| e.to_string())?;
    let budget = cx.n_tasks() / 2;
    if probe.traced() {
        // The enumeration guard may trip; that is a measured outcome
        // (`core.mc_tree_limit_hits`), not a failure.
        let trees = probe.layer("core.mc_trees_ms", || cx.mc_trees().map(<[_]>::len));
        probe.count("core.mc_trees", trees.as_ref().map_or(0, |&t| t) as f64);
        probe.count(
            "core.mc_tree_limit_hits",
            f64::from(u8::from(trees.is_err())),
        );
    }
    let plan = probe.layer("core.sa_ms", || {
        StructureAwarePlanner::default().plan(&cx, budget)
    });
    let plan = plan.map_err(|e| e.to_string())?.tasks;
    if probe.traced() {
        let greedy = probe.layer("core.greedy_ms", || GreedyPlanner.plan(&cx, budget));
        let greedy = greedy.map_err(|e| e.to_string())?.tasks;
        for tasks in [&plan, &greedy] {
            let of = probe.layer("core.of_ms", || cx.of_plan(tasks));
            if tasks.len() > budget || !(0.0..=1.0).contains(&of) {
                return Err(format!(
                    "a plan of {} tasks for budget {budget} has output fidelity {of}",
                    tasks.len()
                ));
            }
        }
    }
    Ok(plan)
}

fn engine_config(plan: TaskSet, checkpoint_secs: u64, seed: u64) -> EngineConfig {
    EngineConfig {
        seed,
        mode: FtMode::ppa(plan, SimDuration::from_secs(checkpoint_secs)),
        ..EngineConfig::default()
    }
}

fn drive(sim: &mut Simulation, feed: &FaultFeed, until: SimTime) -> Result<DriveReport, String> {
    sim.drive(feed, &mut StaticPolicy, until)
        .map_err(|e| e.to_string())
}

impl Workload for BurstRecover {
    fn prepare(&mut self, probe: &mut Probe) -> Result<(), String> {
        let span = Stopwatch::start();
        let scenario = fig6_scenario(&self.cfg);
        let tree = scenario.worker_fault_domains(RACK_SIZE);
        let plan = plan(&scenario, &tree, probe)?;
        let config = engine_config(plan, CHECKPOINT_SECS, self.cfg.seed);
        let mut sim = Simulation::new(&scenario.query, scenario.placement, config);
        self.golden = Some(drive(&mut sim, &FaultFeed::new(), horizon())?.report);
        probe.end_setup(span);
        Ok(())
    }

    fn op(&mut self, i: usize, probe: &mut Probe) -> OpResult {
        let trace_seed = mix(self.seed, i as u64);
        let mut result = OpResult {
            input: 0,
            output: 0,
            failure: None,
        };
        let Some(golden) = &self.golden else {
            return fail(
                result,
                i,
                "run set-up did not produce the golden run".into(),
            );
        };

        let span = Stopwatch::start();
        let scenario = probe.layer("workloads.scenario_ms", || fig6_scenario(&self.cfg));
        let tree = scenario.worker_fault_domains(RACK_SIZE);
        let trace = probe.layer("faults.generate_ms", || {
            CASCADE.generate_seeded(
                &tree,
                SimTime::from_secs(FAIL_AT_SECS),
                SimDuration::from_secs(CASCADE_SECS),
                trace_seed,
            )
        });
        let plan = match plan(&scenario, &tree, probe) {
            Ok(plan) => plan,
            Err(e) => return fail(result, i, e),
        };
        // The traced run drives copies of the op up to the first failure.
        let reference = probe
            .traced()
            .then(|| (plan.clone(), scenario.placement.clone()));
        let config = engine_config(plan, CHECKPOINT_SECS, self.cfg.seed);
        let Scenario {
            query, placement, ..
        } = scenario;
        let mut sim = probe.layer("engine.new_ms", || {
            Simulation::new(&query, placement, config)
        });
        let feed = FaultFeed::from_trace(trace.clone());
        probe.end_setup(span);

        let mut input = Digest::default();
        input.bytes(trace.to_text().as_bytes());
        result.input = input.value();

        let span = Stopwatch::start();
        let (driven, drive_s) = probe.work("engine.drive_ms", || drive(&mut sim, &feed, horizon()));
        let driven = match driven {
            Ok(d) => d,
            Err(e) => return fail(result, i, e),
        };
        let (latency, fidelity) = probe.layer("workloads.result_ms", || {
            let report = &driven.report;
            let latency = report
                .recoveries
                .iter()
                .filter_map(|r| r.latency())
                .max()
                .unwrap_or(SimDuration::ZERO);
            let windows = outage_windows(report, SimDuration::from_secs(1), HORIZON_SECS);
            let fidelity = outage_fidelity(
                golden,
                report,
                &windows,
                SimDuration::from_secs(LATENESS_SECS),
            );
            (latency, fidelity)
        });
        probe.end_op(span);

        let report = &driven.report;
        probe.work_units(report.events);
        let mut out = Digest::default();
        out.word(report.events);
        out.word(report.tuples_moved);
        out.word(latency.as_micros());
        for f in &fidelity {
            out.float(*f);
        }
        for o in &report.outages {
            for r in &o.records {
                out.word(o.task.0 as u64);
                out.word(r.failed_at.as_micros());
                out.word(r.recovered_at.map_or(u64::MAX, |t| t.as_micros()));
            }
        }
        out.word(report.sink.len() as u64);
        result.output = out.value();
        result.failure = check(report).map(|e| format!("op {i}: {e}"));

        if probe.traced() {
            engine_counts(probe, &driven, drive_s);
            probe.count("faults.nodes_killed", trace.killed_nodes().len() as f64);
            let resolved = probe.layer("engine.resolve_ms", || feed.resolve(sim.placement()));
            if let Err(e) = resolved {
                return fail(result, i, e.to_string());
            }
            drop(driven);
            drop(sim);
            if let (Some((plan, placement)), Some(first)) = (reference, trace.first_at()) {
                // The same stretch with and without checkpoints: the
                // difference is their net cost, writing them less the
                // replay buffers they let the engine trim.
                let mut pre_ms = [0.0; 2];
                let intervals = [CHECKPOINT_SECS, NO_CHECKPOINT_SECS];
                for (out_ms, secs) in pre_ms.iter_mut().zip(intervals) {
                    let config = engine_config(plan.clone(), secs, self.cfg.seed);
                    let mut pre = Simulation::new(&query, placement.clone(), config);
                    let span = Stopwatch::start();
                    let pre_driven = drive(&mut pre, &FaultFeed::new(), first);
                    *out_ms = ms(span);
                    if let Err(e) = pre_driven {
                        return fail(result, i, e);
                    }
                }
                let [pre_ms, bare_ms] = pre_ms;
                probe.add_ms("engine.drive_ms.pre_failure", pre_ms);
                probe.add_ms("engine.drive_ms.recovery", drive_s * 1e3 - pre_ms);
                probe.add_ms("engine.ckpt_ms", pre_ms - bare_ms);
            }
        }
        result
    }
}

/// Every opened outage closes before the horizon, and no non-tentative
/// `(task, batch)` reaches the sink twice.
fn check(report: &RunReport) -> Option<String> {
    for o in &report.outages {
        for r in &o.records {
            match r.recovered_at {
                Some(at) if at <= horizon() => {}
                _ => {
                    return Some(format!(
                        "task {}'s outage from {} us is still open at the horizon",
                        o.task.0,
                        r.failed_at.as_micros()
                    ))
                }
            }
        }
    }
    let mut seen: BTreeMap<(usize, u64), usize> = BTreeMap::new();
    for b in report.sink.iter().filter(|b| !b.tentative) {
        let n = seen.entry((b.task.0, b.batch)).or_default();
        *n += 1;
        if *n > 1 {
            return Some(format!(
                "batch {} of sink task {} reached the sink twice",
                b.batch, b.task.0
            ));
        }
    }
    None
}
