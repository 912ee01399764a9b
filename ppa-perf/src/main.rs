//! `ppa-perf --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints a summary line, then the result as one JSON object on the last
//! line of stdout. Exits 0 when every op passed its checks, 1 when some
//! op failed (the result is still printed), and 2 on a malformed command
//! line or a run that could not be measured (nothing is printed).

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match ppa_perf::cli::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{}", ppa_perf::cli::USAGE);
            return ExitCode::from(2);
        }
    };
    let ops = args.workload.op_count(args.seconds);
    let outcome = match ppa_perf::run(args.workload, args.seed, ops, args.trace) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(f) = &outcome.first_failure {
        eprintln!("first failed op: {f}");
    }
    println!(
        "workload={} seed={} traced={} ops={} tail=p{} failed={} fingerprint={:016x} digest={:016x}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        outcome.attempted,
        outcome.tail_percentile,
        outcome.failed,
        outcome.fingerprint,
        outcome.digest,
    );
    println!("{}", outcome.to_json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
