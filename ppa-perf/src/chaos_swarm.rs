//! `chaos_swarm`: many small seeded chaos scenarios, each checked.
//!
//! Set-up derives one `ppa-chaos` scenario per op, builds it, resolves
//! its chaos feed (failures, re-kills and buggify points), and creates
//! the simulation with a `VecSink` and the chaos injections. The op
//! drives to the scenario's horizon, takes the event stream and runs the
//! cross-layer invariant checker over it. This is the only workload
//! where the obs event stream and the chaos checker sit on the hot path.

use crate::probe::{ms, Probe};
use crate::stats::{mix, Digest};
use crate::{engine_counts, fail, OpResult, Workload};
use ppa_bench::stopwatch::Stopwatch;
use ppa_chaos::{build, check_run, BuiltScenario, CheckInput, ResolvedChaos, ScenarioParams};
use ppa_engine::{EngineConfig, FaultFeed, Simulation, StaticPolicy, VecSink};
use ppa_obs::check_stream;

pub struct ChaosSwarm {
    root: u64,
}

impl ChaosSwarm {
    pub fn new(seed: u64) -> Self {
        ChaosSwarm {
            root: mix(seed, 0xc4a0),
        }
    }
}

/// A simulation of `built` with `resolved`'s chaos injected, with or
/// without an event sink.
fn simulation(
    built: &BuiltScenario,
    resolved: &ResolvedChaos,
    sink: bool,
) -> Result<Simulation, String> {
    let mut sim = Simulation::new(&built.query, built.placement.clone(), built.config.clone());
    sim.set_horizon(built.horizon);
    if sink {
        sim.set_trace_sink(Box::new(VecSink::new()));
    }
    for spec in resolved.schedule.events() {
        sim.inject_chaos(spec.clone()).map_err(|e| e.to_string())?;
    }
    Ok(sim)
}

impl Workload for ChaosSwarm {
    fn op(&mut self, i: usize, probe: &mut Probe) -> OpResult {
        let params = ScenarioParams::for_seed(self.root, i);
        let mut result = OpResult {
            input: params.seed,
            output: 0,
            failure: None,
        };

        let span = Stopwatch::start();
        let shards = EngineConfig::default().shards;
        let built = match probe.layer("chaos.build_ms", || build(&params, shards)) {
            Ok(built) => built,
            Err(e) => return fail(result, i, e.to_string()),
        };
        let resolved = probe.layer("chaos.resolve_ms", || {
            built.feed.resolve(&built.placement, built.horizon)
        });
        let resolved = match resolved {
            Ok(r) => r,
            Err(e) => return fail(result, i, e.to_string()),
        };
        let sim = probe.layer("engine.new_ms", || simulation(&built, &resolved, true));
        let mut sim = match sim {
            Ok(sim) => sim,
            Err(e) => return fail(result, i, e),
        };
        let feed = FaultFeed::from_trace(resolved.trace.clone());
        probe.end_setup(span);

        let span = Stopwatch::start();
        let (driven, drive_s) = probe.work("engine.drive_ms", || {
            sim.drive(&feed, &mut StaticPolicy, built.horizon)
        });
        let driven = match driven {
            Ok(d) => d,
            Err(e) => return fail(result, i, e.to_string()),
        };
        let events = sim
            .take_trace_sink()
            .map(|mut s| s.take_events())
            .unwrap_or_default();
        drop(sim);
        let violations = probe.layer("chaos.check_ms", || {
            check_run(&CheckInput {
                report: &driven.report,
                events: &events,
                metrics: &driven.metrics,
                resolved: &resolved,
                horizon: built.horizon,
                heartbeat: built.heartbeat,
            })
        });
        probe.end_op(span);

        let report = &driven.report;
        probe.work_units(report.events);
        let mut out = Digest::default();
        out.word(report.events);
        out.word(report.tuples_moved);
        out.word(events.len() as u64);
        out.word(report.sink.len() as u64);
        out.word(violations.len() as u64);
        result.output = out.value();
        if let Some(v) = violations.first() {
            result.failure = Some(format!(
                "op {i}: seed {} ({}) violates {} invariant(s), first: {} ({})",
                params.seed,
                params.label(),
                violations.len(),
                v.invariant,
                v.detail
            ));
        }

        if probe.traced() {
            engine_counts(probe, &driven, drive_s);
            probe.count("obs.events", events.len() as f64);
            probe.count("chaos.fired", resolved.schedule.len() as f64);
            probe.count("chaos.suppressed_kills", resolved.suppressed_kills as f64);
            probe.count(
                "faults.nodes_killed",
                resolved.trace.killed_nodes().len() as f64,
            );
            let stream = probe.layer("obs.check_stream_ms", || check_stream(&events));
            if !stream.ok() {
                return fail(result, i, "the event stream breaks its lifecycle".into());
            }
            drop(driven);
            drop(events);
            // The same drive without a sink: the difference is the cost of
            // recording the event stream.
            let mut plain = match simulation(&built, &resolved, false) {
                Ok(sim) => sim,
                Err(e) => return fail(result, i, e),
            };
            let span = Stopwatch::start();
            let plain_driven = plain.drive(&feed, &mut StaticPolicy, built.horizon);
            let plain_ms = ms(span);
            if let Err(e) = plain_driven {
                return fail(result, i, e.to_string());
            }
            probe.add_ms("obs.sink_ms", drive_s * 1e3 - plain_ms);
        }
        result
    }
}
