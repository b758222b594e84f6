//! The repo's benchmark: five scenario workloads driven through the
//! facade the CLI uses, end-to-end metrics from untraced runs (`bench`)
//! and per-layer metrics from a traced run (`bench-trace`). README.md in
//! this directory is the guide; BENCHMARK.json at the repo root is the
//! contract.

pub mod gen;
pub mod layers;
pub mod report;
pub mod stats;
pub mod store;
pub mod workloads;

use std::path::PathBuf;
use workloads::{Sizes, Workload};

/// The flags both binaries take: `--workload NAME|all --seed N --seconds S
/// --trace 0|1 --pass P --out DIR --quick`.
#[derive(Debug, Clone)]
pub struct Args {
    pub workloads: Vec<Workload>,
    pub seed: u64,
    /// How long to measure each workload.
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    /// Child mode of `bench`: run this one pass and print it.
    pub pass: Option<u64>,
    pub out_dir: PathBuf,
}

impl Args {
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut parsed = Args {
            workloads: Workload::ALL.to_vec(),
            seed: 2010,
            seconds: report::RUN_SECONDS as f64,
            trace: false,
            quick: false,
            pass: None,
            out_dir: PathBuf::from("benchmark/out"),
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--quick" {
                parsed.quick = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" if value == "all" => {}
                "--workload" => {
                    parsed.workloads = vec![Workload::from_name(value).ok_or_else(bad)?];
                }
                "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    parsed.seconds = value.parse().map_err(|_| bad())?;
                    if parsed.seconds.is_nan() || parsed.seconds <= 0.0 {
                        return Err(bad());
                    }
                }
                "--trace" => parsed.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
                "--pass" => parsed.pass = Some(value.parse().map_err(|_| bad())?),
                "--out" => parsed.out_dir = PathBuf::from(value),
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(parsed)
    }

    pub fn sizes(&self) -> &'static Sizes {
        if self.quick {
            &Sizes::QUICK
        } else {
            &Sizes::FULL
        }
    }
}

/// Threads the program's parallel matrix builds use: `PGDESIGN_THREADS`
/// is left unset, so this is the machine's available parallelism.
pub fn threads() -> usize {
    pgdesign::inum::build_threads()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        Args::parse(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_flags_parse() {
        let a = args(&[
            "--workload",
            "online-mem",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workloads, [Workload::OnlineMem]);
        assert_eq!((a.seed, a.seconds, a.trace, a.quick), (7, 3.0, true, false));
        assert_eq!(args(&[]).unwrap().workloads.len(), 5);
        assert!(args(&["--quick", "--workload", "all"]).unwrap().quick);
    }

    #[test]
    fn bad_flags_are_refused() {
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--frobnicate", "1"]).is_err());
    }
}
