//! Command-line parsing into checked values. Every malformed argument is
//! a typed [`ArgError`]; nothing here panics.

use crate::WorkloadId;
use std::fmt;

pub const USAGE: &str = "usage: ppa-perf --workload <burst_recover|chaos_swarm> \
--seed <u64> --seconds <1..=600> --trace <0|1>";

/// Longest run the command accepts, in seconds of op work.
pub const MAX_SECONDS: u64 = 600;

/// A checked command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: WorkloadId,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    UnknownFlag(String),
    MissingValue(&'static str),
    Repeated(&'static str),
    Missing(&'static str),
    BadNumber { flag: &'static str, value: String },
    OutOfRange { flag: &'static str, value: u64 },
    UnknownWorkload(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::UnknownFlag(a) => write!(f, "unknown argument `{a}`"),
            ArgError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            ArgError::Repeated(flag) => write!(f, "{flag} given more than once"),
            ArgError::Missing(flag) => write!(f, "{flag} is required"),
            ArgError::BadNumber { flag, value } => {
                write!(f, "{flag} takes a whole number, got `{value}`")
            }
            ArgError::OutOfRange { flag, value } => write!(f, "{flag} {value} is out of range"),
            ArgError::UnknownWorkload(w) => {
                let names: Vec<&str> = WorkloadId::ALL.iter().map(|w| w.name()).collect();
                write!(f, "unknown workload `{w}` (known: {})", names.join(", "))
            }
        }
    }
}

impl std::error::Error for ArgError {}

const FLAGS: [&str; 4] = ["--workload", "--seed", "--seconds", "--trace"];

/// Parses the arguments after the program name.
pub fn parse(args: &[String]) -> Result<Args, ArgError> {
    let mut values: [Option<&str>; 4] = [None; 4];
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let slot = FLAGS
            .iter()
            .position(|f| f == arg)
            .ok_or_else(|| ArgError::UnknownFlag(arg.clone()))?;
        let flag = FLAGS[slot];
        let value = it.next().ok_or(ArgError::MissingValue(flag))?;
        if values[slot].replace(value.as_str()).is_some() {
            return Err(ArgError::Repeated(flag));
        }
    }
    let [workload, seed, seconds, trace] = values;
    let workload = workload.ok_or(ArgError::Missing("--workload"))?;
    let workload =
        WorkloadId::parse(workload).ok_or_else(|| ArgError::UnknownWorkload(workload.into()))?;
    let seed = number("--seed", seed)?;
    let seconds = number("--seconds", seconds)?;
    if !(1..=MAX_SECONDS).contains(&seconds) {
        return Err(ArgError::OutOfRange {
            flag: "--seconds",
            value: seconds,
        });
    }
    let trace = match number("--trace", trace)? {
        0 => false,
        1 => true,
        value => {
            return Err(ArgError::OutOfRange {
                flag: "--trace",
                value,
            })
        }
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn number(flag: &'static str, value: Option<&str>) -> Result<u64, ArgError> {
    let value = value.ok_or(ArgError::Missing(flag))?;
    value.parse().map_err(|_| ArgError::BadNumber {
        flag,
        value: value.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse(&argv(
            "--workload chaos_swarm --seed 7 --seconds 10 --trace 1",
        ));
        assert_eq!(
            a,
            Ok(Args {
                workload: WorkloadId::ChaosSwarm,
                seed: 7,
                seconds: 10,
                trace: true,
            })
        );
    }

    #[test]
    fn malformed_arguments_are_typed_errors() {
        let base = "--workload burst_recover --seed 1 --seconds 5 --trace 0";
        assert_eq!(
            parse(&argv(&base.replace("burst_recover", "nope"))),
            Err(ArgError::UnknownWorkload("nope".into()))
        );
        assert_eq!(
            parse(&argv(&base.replace("--seed 1", "--seed -1"))),
            Err(ArgError::BadNumber {
                flag: "--seed",
                value: "-1".into()
            })
        );
        assert_eq!(
            parse(&argv(&base.replace("--trace 0", "--trace 2"))),
            Err(ArgError::OutOfRange {
                flag: "--trace",
                value: 2
            })
        );
        assert_eq!(
            parse(&argv(&base.replace("--seconds 5", "--seconds 0"))),
            Err(ArgError::OutOfRange {
                flag: "--seconds",
                value: 0
            })
        );
        assert_eq!(
            parse(&argv(&format!("{base} --seed"))),
            Err(ArgError::MissingValue("--seed"))
        );
        assert_eq!(
            parse(&argv(&format!("{base} --seed 2"))),
            Err(ArgError::Repeated("--seed"))
        );
        assert_eq!(
            parse(&argv(&format!("{base} --jobs 2"))),
            Err(ArgError::UnknownFlag("--jobs".into()))
        );
        assert_eq!(
            parse(&argv("--workload chaos_swarm --seed 1 --trace 0")),
            Err(ArgError::Missing("--seconds"))
        );
    }
}
