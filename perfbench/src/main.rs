//! The repository benchmark: three workloads that together exercise every
//! layer a performance change can target, measured end to end (tracing
//! off) or per layer (`--trace 1`). See `README.md` for the workloads, the
//! metrics and which layer metric should move which end-to-end metric.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload train|serve_read|serve_stream [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The last line of stdout is the summary `{"correct", "attempted",
//! "failed", "metrics"}`, holding the metrics `BENCHMARK.json` lists for
//! the mode; the line before it is the full report (provenance, gates,
//! every metric the run measured, raw samples, cost-model shapes).

mod client;
mod gen;
mod host;
mod kernels;
mod layers;
mod outcome;
mod serve;
mod stats;
mod train;

use outcome::Outcome;

/// The workloads, by name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Train,
    ServeRead,
    ServeStream,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "train" => Some(Workload::Train),
            "serve_read" => Some(Workload::ServeRead),
            "serve_stream" => Some(Workload::ServeStream),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Train => "train",
            Workload::ServeRead => "serve_read",
            Workload::ServeStream => "serve_stream",
        }
    }

    /// The profile's published generator seed.
    fn default_seed(self) -> u64 {
        let profile = match self {
            Workload::Train => train::PROFILE,
            Workload::ServeRead | Workload::ServeStream => serve::PROFILE,
        };
        retia_data::SyntheticConfig::profile(profile).seed
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: retia-perfbench --workload train|serve_read|serve_stream \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 30u64, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed: seed.unwrap_or_else(|| workload.default_seed()), seconds, trace })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut out = Outcome::default();
    match args.workload {
        Workload::Train => train::run(args.seed, args.trace, &mut out),
        Workload::ServeRead => serve::run_read(args.seed, args.seconds, args.trace, &mut out),
        Workload::ServeStream => serve::run_stream(args.seed, args.seconds, args.trace, &mut out),
    }
    let provenance = host::provenance(args.workload.name(), args.seed, args.seconds, args.trace);
    println!("{}", out.report(provenance).to_string_compact());
    println!("{}", out.summary(args.trace).to_string_compact());
}
