//! The benchmark's own guarantees: seeded inputs, deterministic outputs,
//! tracing that changes no result, and clean failures on bad arguments.
//! Run with `cargo test --release --manifest-path ppa-perf/Cargo.toml`.

use ppa_perf::{run, RunOutcome, WorkloadId};
use std::process::Command;

/// The smallest op count a run accepts.
const OPS: usize = 40;

fn outcome(w: WorkloadId, seed: u64, traced: bool) -> RunOutcome {
    let out = run(w, seed, OPS, traced).expect("the run is measurable");
    assert_eq!(out.failed, 0, "{}: {:?}", w.name(), out.first_failure);
    out
}

#[test]
fn same_seed_same_inputs_and_outputs_traced_or_not() {
    for w in WorkloadId::ALL {
        let a = outcome(w, 7, false);
        let b = outcome(w, 7, false);
        let traced = outcome(w, 7, true);
        assert_eq!(a.fingerprint, b.fingerprint, "{}", w.name());
        assert_eq!(a.digest, b.digest, "{}", w.name());
        assert_eq!(a.fingerprint, traced.fingerprint, "{}", w.name());
        assert_eq!(a.digest, traced.digest, "{}", w.name());
    }
}

#[test]
fn different_seeds_give_different_inputs() {
    for w in WorkloadId::ALL {
        let a = outcome(w, 1, false);
        let b = outcome(w, 2, false);
        assert_ne!(a.fingerprint, b.fingerprint, "{}", w.name());
    }
}

#[test]
fn runs_print_every_metric_of_their_kind() {
    let plain = outcome(WorkloadId::ChaosSwarm, 3, false);
    let names: Vec<&str> = plain.metrics.iter().map(|m| m.name).collect();
    assert_eq!(
        names,
        [
            "setup_s",
            "ops_per_s",
            "op_p50_ms",
            "op_tail_ms",
            "peak_rss_mb",
            "events_per_s"
        ]
    );
    assert!(plain.metrics.iter().all(|m| m.value > 0.0));
    let traced = outcome(WorkloadId::ChaosSwarm, 3, true);
    assert_eq!(traced.metrics.len(), 34);
    assert!(traced.metrics.iter().all(|m| m.value.is_finite()));
    let json = plain.to_json();
    assert!(json.starts_with("{\"correct\": true, \"attempted\": 40, \"failed\": 0, "));

    // BENCHMARK.json declares exactly the metrics the runs print.
    let declared =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json sits beside the benchmark's directory");
    let printed = plain.metrics.iter().chain(&traced.metrics);
    let workloads = WorkloadId::ALL.len();
    assert_eq!(
        declared.matches("\"name\":").count(),
        workloads + plain.metrics.len() + traced.metrics.len()
    );
    for m in printed {
        let entry = format!("\"name\": \"{}\",\n      \"unit\": \"{}\"", m.name, m.unit);
        assert!(declared.contains(&entry), "{} is not declared", m.name);
    }
}

#[test]
fn too_few_ops_is_an_error() {
    assert!(run(WorkloadId::ChaosSwarm, 1, 39, false).is_err());
}

#[test]
fn bad_command_lines_exit_nonzero_without_a_result() {
    let bin = env!("CARGO_BIN_EXE_ppa-perf");
    for args in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload burst_recover --seed x --seconds 1 --trace 0",
        "--workload burst_recover --seed 1 --seconds 1 --trace 3",
        "--workload burst_recover --seed 1 --seconds 1",
        "--workload burst_recover --seed 1 --seconds 1 --trace 0 --extra",
        "",
    ] {
        let out = Command::new(bin)
            .args(args.split_whitespace())
            .output()
            .expect("the benchmark binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args}: {stderr}");
        assert!(out.stdout.is_empty(), "{args}");
        assert!(stderr.starts_with("error: "), "{args}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args}: {stderr}");
    }
}
