//! CLI entry point: regenerate the paper's figures.
//!
//! `vitis-experiments --help` prints the synopsis of the five
//! subcommands ([`USAGE`]); the default one regenerates the named figures.
//!
//! `--metrics-out` streams one JSONL record per measurement run (phase
//! timers, final stats with the per-kind traffic split, per-round
//! convergence samples, deterministic perf counters); `--trace-out`
//! streams the per-run event traces (round boundaries, churn, messages,
//! health probes, and the delivery forensics records that `analyze`
//! reads back). Records hit disk as each run finishes, so an aborted
//! sweep still leaves valid partial files. All schemas are documented in
//! `docs/METRICS.md`.

#![forbid(unsafe_code)]

use std::num::{NonZeroU64, NonZeroUsize};
use std::process::ExitCode;
use std::str::FromStr;
use vitis_experiments::obs::{Batch, FileSink, Obs};
use vitis_experiments::{
    ablations, clusters, fig10, fig11, fig12, fig4, fig5, fig6, fig7, fig8_9, headline, Figure,
    Scale,
};
use vitis_sim::perf;

/// Why a subcommand stopped early.
enum Stop {
    /// `--help`: print the usage, exit 0.
    Help,
    /// Bad command line: print the message and the usage, exit 2.
    Usage(String),
    /// The run itself failed (I/O, a strict audit): print the message,
    /// exit 1.
    Failed(String),
}

/// A file the run could not open or write.
fn io_failed(verb: &str, path: &str, e: std::io::Error) -> Stop {
    Stop::Failed(format!("could not {verb} {path}: {e}"))
}

/// The arguments of one subcommand, read left to right.
struct Args<'a>(std::slice::Iter<'a, String>);

impl<'a> Args<'a> {
    fn next(&mut self) -> Option<&'a str> {
        self.0.next().map(String::as_str)
    }

    /// The value following `flag`, parsed as `T`. A missing or
    /// unparsable value is a usage error that names the offending token.
    fn value<T: FromStr>(&mut self, flag: &str) -> Result<T, Stop>
    where
        T::Err: std::fmt::Display,
    {
        let raw = self
            .next()
            .ok_or_else(|| Stop::Usage(format!("{flag} needs a value")))?;
        raw.parse()
            .map_err(|e| Stop::Usage(format!("{flag} {raw:?}: {e}")))
    }
}

/// The `--nodes / --seed / --paper / --quick` block of every simulating
/// subcommand.
struct ScaleOpts {
    nodes: Option<NonZeroUsize>,
    seed: u64,
    preset: fn() -> Scale,
}

impl ScaleOpts {
    fn new() -> Self {
        ScaleOpts {
            nodes: None,
            seed: 42,
            preset: Scale::default_run,
        }
    }

    /// Take `flag` if it is one of the scale options; `Ok(false)` leaves
    /// it to the subcommand.
    fn accept(&mut self, flag: &str, args: &mut Args) -> Result<bool, Stop> {
        match flag {
            "--nodes" => self.nodes = Some(args.value(flag)?),
            "--seed" => self.seed = args.value(flag)?,
            "--paper" => self.preset = Scale::paper,
            "--quick" => self.preset = Scale::quick,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// `--nodes` wins over a preset; `--seed` applies to either.
    fn scale(&self) -> Scale {
        let mut scale = match self.nodes {
            Some(n) => Scale::proportional(n.get(), self.seed),
            None => (self.preset)(),
        };
        scale.seed = self.seed;
        scale
    }
}

/// The `--metrics-out / --trace-out / --trace-capacity` block
/// of the subcommands that run `measure_obs`: the figure runner and
/// `scale`.
#[derive(Default)]
struct SinkOpts {
    metrics_out: Option<String>,
    trace_out: Option<String>,
    trace_capacity: Option<NonZeroUsize>,
}

impl SinkOpts {
    /// Take `flag` if it is one of the sink options; `Ok(false)` leaves
    /// it to the subcommand.
    fn accept(&mut self, flag: &str, args: &mut Args) -> Result<bool, Stop> {
        match flag {
            "--metrics-out" => self.metrics_out = Some(args.value(flag)?),
            "--trace-out" => self.trace_out = Some(args.value(flag)?),
            "--trace-capacity" => self.trace_capacity = Some(args.value(flag)?),
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// A figure the default subcommand can regenerate: its name, whether `all`
/// includes it, and its runner (handed the scale and `--replicas`).
type FigureEntry = (&'static str, bool, fn(&Scale, usize) -> Vec<Figure>);

/// Every figure, in print order.
const FIGURES: [FigureEntry; 12] = [
    ("fig4", true, |s, _| fig4::run(s)),
    ("fig5", true, |s, _| fig5::run(s)),
    ("fig6", true, |s, _| fig6::run(s)),
    ("fig7", true, |s, _| fig7::run(s)),
    ("fig8", true, |s, _| vec![fig8_9::run_fig8(s)]),
    ("fig9", true, |s, _| vec![fig8_9::run_fig9(s).0]),
    ("fig10", true, |s, _| fig10::run(s)),
    ("fig11", true, |s, _| vec![fig11::run(s)]),
    ("fig12", true, |s, _| fig12::run(s)),
    ("headline", false, headline::run),
    ("clusters", true, |s, _| vec![clusters::run(s)]),
    ("ablations", true, |s, _| ablations::run(s)),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("analyze") => run_analyze(Args(args[1..].iter())),
        Some("resilience") => run_resilience(Args(args[1..].iter())),
        Some("scale") => run_scale(Args(args[1..].iter())),
        Some("topology") => run_topology(Args(args[1..].iter())),
        _ => run_figures(Args(args.iter())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(Stop::Help) => {
            eprintln!("{USAGE}");
            ExitCode::SUCCESS
        }
        Err(Stop::Usage(msg)) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            ExitCode::from(2)
        }
        Err(Stop::Failed(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::from(1)
        }
    }
}

/// The default subcommand: regenerate the named figures.
fn run_figures(mut args: Args) -> Result<(), Stop> {
    let mut named: Vec<&str> = Vec::new();
    let mut all = false;
    let mut scale = ScaleOpts::new();
    let mut sinks = SinkOpts::default();
    let mut replicas = NonZeroUsize::new(5).expect("nonzero");
    while let Some(a) = args.next() {
        match a {
            "--replicas" => replicas = args.value(a)?,
            "--help" | "-h" => return Err(Stop::Help),
            _ if scale.accept(a, &mut args)? || sinks.accept(a, &mut args)? => {}
            "all" => all = true,
            _ if FIGURES.iter().any(|(name, ..)| *name == a) => named.push(a),
            other => return Err(Stop::Usage(format!("unknown argument: {other}"))),
        }
    }
    open_sinks(&sinks)?;

    let scale = scale.scale();
    println!(
        "# Vitis reproduction — scale: {} nodes, {} topics, {} subs/node, seed {}\n",
        scale.nodes, scale.topics, scale.subs_per_node, scale.seed
    );
    let all = all || named.is_empty();
    for (name, in_all, run) in FIGURES {
        if named.contains(&name) || (all && in_all) {
            for fig in run(&scale, replicas.get()) {
                println!("{}", fig.render());
            }
        }
    }
    report_sinks();
    Ok(())
}

/// Open the sinks that were asked for, before the first run starts.
fn open_sinks(sinks: &SinkOpts) -> Result<(), Stop> {
    let obs = Obs::global();
    if let Some(path) = &sinks.metrics_out {
        obs.metrics.open(path).map_err(|e| io_failed("open", path, e))?;
    }
    if let Some(path) = &sinks.trace_out {
        obs.trace.open(path).map_err(|e| io_failed("open", path, e))?;
    }
    if let Some(capacity) = sinks.trace_capacity {
        obs.set_trace_capacity(capacity.get());
    }
    Ok(())
}

/// Write `batch` as the JSONL file `path`.
fn write_jsonl(path: &str, batch: &Batch) -> Result<(), Stop> {
    FileSink::create(path)
        .and_then(|mut sink| sink.write(batch))
        .map_err(|e| io_failed("write", path, e))
}

/// Report how many records each file-streaming sink wrote (they are
/// already on disk — flushed line by line as runs finished).
fn report_sinks() {
    if let Some((path, lines)) = Obs::global().metrics.status() {
        eprintln!("wrote {lines} metrics records to {path}");
    }
    if let Some((path, lines)) = Obs::global().trace.status() {
        eprintln!("wrote {lines} event-trace records to {path}");
    }
    if let Some((runs, evicted)) = Obs::global().trace_overflow_status() {
        eprintln!(
            "warning: trace ring overflowed in {runs} run(s), {evicted} events \
             evicted in total (raise --trace-capacity)"
        );
    }
    if let Some(dropped) = vitis_sim::antientropy::exhausted_pull_status() {
        eprintln!(
            "warning: anti-entropy gave up on {dropped} pull(s) after the fixed \
             retry budget of {} attempts",
            vitis_sim::antientropy::PULL_RETRIES
        );
    }
}

/// The `scale` subcommand: sweep the node-count ladder across all three
/// systems and write the results as a BENCH file (see `docs/METRICS.md`
/// §9). Build with `--features perf-alloc` to include real allocator
/// peak-memory entries.
fn run_scale(mut args: Args) -> Result<(), Stop> {
    use vitis_experiments::scalebench;
    let mut max_nodes = scalebench::DEFAULT_MAX_NODES;
    let mut seed: u64 = 42;
    let mut out = "BENCH_current.json".to_string();
    let mut sinks = SinkOpts::default();
    let mut budget_secs: Option<u64> = None;
    while let Some(a) = args.next() {
        match a {
            "--max-nodes" => max_nodes = args.value(a)?,
            "--budget-secs" => budget_secs = Some(args.value(a)?),
            "--seed" => seed = args.value(a)?,
            "--out" => out = args.value(a)?,
            "--help" | "-h" => return Err(Stop::Help),
            _ if sinks.accept(a, &mut args)? => {}
            other => return Err(Stop::Usage(format!("unexpected argument: {other}"))),
        }
    }
    open_sinks(&sinks)?;
    println!(
        "# Vitis scale sweep — up to {max_nodes} nodes, seed {seed}, allocator accounting {}",
        if perf::mem_snapshot().counting {
            "on"
        } else {
            "off (build with --features perf-alloc)"
        }
    );
    let entries = scalebench::run_sweep(max_nodes, seed, budget_secs, |point| {
        println!(
            "{}/{}: build {:.0} ms, warmup {:.0} ms, measure {:.0} ms, drain {:.0} ms, \
             {:.0} deliveries/s",
            point.system,
            point.nodes,
            point.ms.build,
            point.ms.warmup,
            point.ms.measure,
            point.ms.drain,
            point.deliveries_per_sec
        );
    });
    let text = vitis_experiments::benchfmt::render(&entries);
    std::fs::write(&out, text).map_err(|e| io_failed("write", &out, e))?;
    eprintln!("wrote {} BENCH entries to {out}", entries.len());
    report_sinks();
    Ok(())
}

/// The `resilience` subcommand: sweep partition-episode severity across
/// the three systems and print the hit-ratio and reconvergence curves.
/// Fully deterministic for a fixed `--nodes`/`--seed` pair.
fn run_resilience(mut args: Args) -> Result<(), Stop> {
    let mut scale = ScaleOpts::new();
    let mut metrics_out: Option<String> = None;
    let mut repair = false;
    while let Some(a) = args.next() {
        match a {
            "--metrics-out" => metrics_out = Some(args.value(a)?),
            "--repair" => repair = true,
            "--help" | "-h" => return Err(Stop::Help),
            _ if scale.accept(a, &mut args)? => {}
            other => return Err(Stop::Usage(format!("unexpected argument: {other}"))),
        }
    }
    open_sinks(&SinkOpts {
        metrics_out,
        ..SinkOpts::default()
    })?;
    let scale = scale.scale();
    println!(
        "# Vitis resilience sweep — scale: {} nodes, {} topics, {} subs/node, seed {}{}\n",
        scale.nodes,
        scale.topics,
        scale.subs_per_node,
        scale.seed,
        if repair {
            ", paired anti-entropy runs"
        } else {
            ""
        }
    );
    for fig in vitis_experiments::resilience::run(&scale, repair) {
        println!("{}", fig.render());
    }
    report_sinks();
    Ok(())
}

/// The `topology` subcommand: sample overlay structural health over a
/// fixed-seed run, audit relay-path invariants at the end, and export
/// the series as topology JSONL plus an optional Graphviz DOT of the
/// final overlay. `--strict` exits nonzero on any invariant violation
/// (the CI gate).
fn run_topology(mut args: Args) -> Result<(), Stop> {
    use vitis_experiments::topology::{self, TopologyOpts};
    let mut scale = ScaleOpts::new();
    let mut opts = TopologyOpts::default();
    let mut out: Option<String> = None;
    let mut dot: Option<String> = None;
    let mut strict = false;
    while let Some(a) = args.next() {
        match a {
            "--system" => opts.system = args.value(a)?,
            "--rounds" => opts.rounds = args.value(a)?,
            "--every" => opts.every = args.value::<NonZeroU64>(a)?.get(),
            "--out" => out = Some(args.value(a)?),
            "--dot" => dot = Some(args.value(a)?),
            "--strict" => strict = true,
            "--help" | "-h" => return Err(Stop::Help),
            _ if scale.accept(a, &mut args)? => {}
            other => return Err(Stop::Usage(format!("unexpected argument: {other}"))),
        }
    }
    let scale = scale.scale();
    println!(
        "# Vitis topology telemetry — {} @ {} nodes, seed {}, {} rounds sampled every {}\n",
        opts.system.name(),
        scale.nodes,
        scale.seed,
        opts.rounds,
        opts.every
    );
    let run = topology::run(&scale, &opts);
    if let Some(path) = &out {
        let mut batch = Batch::default();
        for sample in &run.samples {
            batch.push(None, sample);
        }
        write_jsonl(path, &batch)?;
        eprintln!("wrote {} topology records to {path}", run.samples.len());
    }
    if let Some(path) = &dot {
        std::fs::write(path, &run.dot).map_err(|e| io_failed("write", path, e))?;
        eprintln!("wrote overlay graph to {path}");
    }
    print!("{}", run.summary);
    if strict && !run.violations.is_empty() {
        return Err(Stop::Failed(format!(
            "--strict and the final audit found {} violation(s)",
            run.violations.len()
        )));
    }
    Ok(())
}

/// The `analyze` subcommand: offline delivery forensics over a
/// `--trace-out` dump (report to stdout, optional Graphviz export).
fn run_analyze(mut args: Args) -> Result<(), Stop> {
    let mut path: Option<&str> = None;
    let mut dot: Option<String> = None;
    while let Some(a) = args.next() {
        match a {
            "--dot" => dot = Some(args.value(a)?),
            "--help" | "-h" => return Err(Stop::Help),
            _ if path.is_none() && !a.starts_with('-') => path = Some(a),
            other => return Err(Stop::Usage(format!("unexpected argument: {other}"))),
        }
    }
    let path = path
        .ok_or_else(|| Stop::Usage("analyze needs a trace file (from --trace-out)".to_string()))?;
    let report = vitis_experiments::analyze::run_file(path, dot.as_deref())
        .map_err(|e| Stop::Failed(e.to_string()))?;
    print!("{report}");
    if let Some(d) = dot {
        eprintln!("wrote dissemination trees to {d}");
    }
    Ok(())
}

const USAGE: &str = "\
usage: vitis-experiments [fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 clusters headline ablations | all]
\t[--nodes N] [--seed S] [--replicas R] [--paper | --quick]
\t[--metrics-out FILE.jsonl] [--trace-out FILE.jsonl] [--trace-capacity N]
\t(schema: docs/METRICS.md)

\tvitis-experiments analyze TRACE.jsonl [--dot FILE.dot]
\t(delivery forensics: per-event trees, hop/latency percentiles, loss attribution)

\tvitis-experiments resilience [--nodes N] [--seed S] [--quick | --paper] [--metrics-out FILE.jsonl]
\t\t[--repair]
\t(partition-severity sweep: hit ratio during the episode + reconvergence time after heal;
\t --repair runs every point twice at identical seeds — anti-entropy off and on — and adds
\t the repair cost/effect figure)

\tvitis-experiments topology [--nodes N] [--seed S] [--system vitis|rvr|opt]
\t\t[--rounds R] [--every K] [--out TOPO.jsonl] [--dot FILE.dot] [--strict]
\t(overlay structural-health series + invariant audit; topo schema in docs/METRICS.md §10;
\t --strict exits nonzero on any audit violation)

\tvitis-experiments scale [--max-nodes N] [--budget-secs B] [--seed S] [--out BENCH.json]
\t\t[--metrics-out FILE.jsonl] [--trace-out FILE.jsonl] [--trace-capacity N]
\t(node-count ladder 2k..100k across vitis/rvr/opt; BENCH schema in docs/METRICS.md §9.
\t the three sink options are the figure runner's: each point is the run scale/<system>-<nodes>#<index>;
\t build with --features perf-alloc for allocator peak-memory entries;
\t compare two BENCH files with the bench-diff binary)";
