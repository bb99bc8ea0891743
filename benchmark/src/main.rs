//! The repo benchmark (see `README.md` beside `Cargo.toml`).
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark run     [--seed 42] [--smoke] [--out FILE]
//! benchmark trace   [--seed 42] [--smoke] [--out-dir DIR]
//! benchmark compare A.json B.json
//! benchmark spec
//! ```
//!
//! The first form is what `BENCHMARK.json`'s `command` runs: one workload,
//! repeated in fresh child processes, its last line of standard output the
//! result object. `run` and `trace` do the same for all four workloads and
//! print every metric by name; `compare` judges two sets written by `run`.

mod compare;
mod driver;
mod host;
mod metrics;
mod probe;
mod replay;
mod spans;
mod workloads;

use std::process::ExitCode;

/// `--flag value` pairs and bare words of a command line.
struct Args {
    flags: Vec<(String, String)>,
    switches: Vec<String>,
    words: Vec<String>,
}

const SWITCHES: [&str; 1] = ["--smoke"];

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut args = Args {
            flags: Vec::new(),
            switches: Vec::new(),
            words: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            if SWITCHES.contains(&a.as_str()) {
                args.switches.push(a.clone());
            } else if a.starts_with("--") {
                let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                args.flags.push((a.clone(), v.clone()));
            } else {
                args.words.push(a.clone());
            }
        }
        Ok(args)
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{flag}: '{v}' is not a valid number")),
        }
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(f, _)| !allowed.contains(&f.as_str()))
        {
            Some((f, _)) => Err(format!("unknown option {f}")),
            None => Ok(()),
        }
    }
}

const USAGE: &str = "usage:
  benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  benchmark run     [--seed 42] [--smoke] [--out FILE]
  benchmark trace   [--seed 42] [--smoke] [--out-dir DIR]
  benchmark compare A.json B.json
  benchmark spec                      (prints BENCHMARK.json)";

impl Args {
    /// `--trace 0|1` (default 0).
    fn trace(&self) -> Result<bool, String> {
        match self.get("--trace") {
            Some("1") => Ok(true),
            Some("0") | None => Ok(false),
            Some(t) => Err(format!("--trace takes 0 or 1, not '{t}'")),
        }
    }

    fn workload(&self) -> Result<&str, String> {
        self.get("--workload")
            .ok_or_else(|| format!("--workload is required\n{USAGE}"))
    }
}

fn real_main() -> Result<bool, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&raw)?;
    let sub = args.words.first().map(String::as_str);
    match sub {
        // What the parent spawns for one repeat.
        Some("child") => {
            args.only(&["--workload", "--seed", "--trace", "--spans-out"])?;
            driver::child_main(
                args.workload()?,
                args.num("--seed", 42)?,
                args.trace()?,
                args.has("--smoke"),
                args.get("--spans-out"),
            )
        }
        Some("run") => {
            args.only(&["--seed", "--out"])?;
            driver::run_all(
                args.num("--seed", 42)?,
                args.has("--smoke"),
                args.get("--out"),
            )
        }
        Some("trace") => {
            args.only(&["--seed", "--out-dir"])?;
            driver::trace_all(
                args.num("--seed", 42)?,
                args.has("--smoke"),
                args.get("--out-dir"),
            )
        }
        Some("spec") => {
            print!("{}", driver::spec_text());
            Ok(true)
        }
        Some("compare") => match &args.words[1..] {
            [a, b] => compare::run(a, b),
            _ => Err("compare needs two set files".into()),
        },
        Some(other) => Err(format!("unknown subcommand '{other}'\n{USAGE}")),
        None => {
            args.only(&["--workload", "--seed", "--seconds", "--trace"])?;
            // A run's work is fixed by the seed (see `driver::RUN_SECONDS`).
            let seconds: f64 = args.num("--seconds", driver::RUN_SECONDS as f64)?;
            if seconds.is_nan() || seconds <= 0.0 {
                return Err(format!("--seconds must be positive, not {seconds}"));
            }
            driver::contract_run(args.workload()?, args.num("--seed", 42)?, args.trace()?)
        }
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}
