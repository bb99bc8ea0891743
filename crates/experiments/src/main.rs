//! CLI entry point: regenerate the paper's figures.
//!
//! ```text
//! vitis-experiments [FIGURES] [--nodes N] [--seed S] [--paper | --quick]
//!                   [--metrics-out FILE] [--trace-out FILE]
//!                   [--trace-capacity N] [--perf-out FILE]
//! vitis-experiments analyze TRACE.jsonl [--dot FILE.dot]
//! vitis-experiments topology [--nodes N] [--seed S] [--system vitis|rvr|opt]
//!                   [--rounds R] [--every K] [--out FILE] [--dot FILE] [--strict]
//! vitis-experiments scale [--max-nodes N] [--budget-secs B] [--seed S] [--out BENCH.json]
//!                   [--perf-out FILE] [--trace-out FILE]
//!
//! FIGURES: any of fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12
//!          ablations, or "all" (default)
//! ```
//!
//! `--metrics-out` streams one JSONL record per measurement run (phase
//! timers, final stats with the per-kind traffic split, per-round
//! convergence samples, deterministic perf counters); `--trace-out`
//! streams the per-run event traces (round boundaries, churn, messages,
//! health probes, and the delivery forensics records that `analyze`
//! reads back). Records hit disk as each run finishes, so an aborted
//! sweep still leaves valid partial files. `--perf-out` enables the span
//! profiler and writes its aggregate (plus memory accounting) as JSONL,
//! with a flamegraph-compatible `FILE.folded` companion. All schemas are
//! documented in `docs/METRICS.md`.

use std::process::ExitCode;
use vitis_experiments::obs::Obs;
use vitis_experiments::{
    ablations, clusters, fig10, fig11, fig12, fig4, fig5, fig6, fig7, fig8_9, headline, Scale,
};
use vitis_sim::perf;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("analyze") {
        return run_analyze(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("resilience") {
        return run_resilience(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("scale") {
        return run_scale(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("topology") {
        return run_topology(&args[1..]);
    }
    let mut figures: Vec<String> = Vec::new();
    let mut nodes: Option<usize> = None;
    let mut seed: u64 = 42;
    let mut replicas: usize = 5;
    let mut preset: Option<&str> = None;
    let mut metrics_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut perf_out: Option<String> = None;

    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--nodes" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => nodes = Some(n),
                None => return usage("--nodes needs an integer"),
            },
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(s) => seed = s,
                None => return usage("--seed needs an integer"),
            },
            "--replicas" => match it.next().and_then(|v| v.parse().ok()) {
                Some(r) => replicas = r,
                None => return usage("--replicas needs an integer"),
            },
            "--metrics-out" => match it.next() {
                Some(p) => metrics_out = Some(p.clone()),
                None => return usage("--metrics-out needs a file path"),
            },
            "--trace-out" => match it.next() {
                Some(p) => trace_out = Some(p.clone()),
                None => return usage("--trace-out needs a file path"),
            },
            "--perf-out" => match it.next() {
                Some(p) => perf_out = Some(p.clone()),
                None => return usage("--perf-out needs a file path"),
            },
            "--trace-capacity" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => Obs::global().set_trace_capacity(n),
                _ => return usage("--trace-capacity needs a positive integer"),
            },
            "--paper" => preset = Some("paper"),
            "--quick" => preset = Some("quick"),
            "--help" | "-h" => return usage(""),
            f if f.starts_with("fig")
                || f == "all"
                || f == "ablations"
                || f == "clusters"
                || f == "headline" =>
            {
                figures.push(f.to_string())
            }
            other => return usage(&format!("unknown argument: {other}")),
        }
    }
    if figures.is_empty() {
        figures.push("all".to_string());
    }
    Obs::global().enable(metrics_out.is_some(), trace_out.is_some());
    if let Some(path) = &metrics_out {
        if let Err(e) = Obs::global().set_metrics_file(path) {
            eprintln!("error: could not open {path}: {e}");
            return ExitCode::from(1);
        }
    }
    if let Some(path) = &trace_out {
        if let Err(e) = Obs::global().set_trace_file(path) {
            eprintln!("error: could not open {path}: {e}");
            return ExitCode::from(1);
        }
    }
    perf::set_enabled(perf_out.is_some());

    let mut scale = match preset {
        Some("paper") => Scale::paper(),
        Some("quick") => Scale::quick(),
        _ => Scale::default_run(),
    };
    if let Some(n) = nodes {
        scale = Scale::proportional(n, seed);
    }
    scale.seed = seed;

    println!(
        "# Vitis reproduction — scale: {} nodes, {} topics, {} subs/node, seed {}\n",
        scale.nodes, scale.topics, scale.subs_per_node, scale.seed
    );

    let want = |name: &str| figures.iter().any(|f| f == name || f == "all");

    if want("fig4") {
        let (a, b) = fig4::run(&scale);
        print!("{}\n{}\n", a.render(), b.render());
    }
    if want("fig5") {
        println!("{}", fig5::run(&scale).render());
    }
    if want("fig6") {
        let (a, b) = fig6::run(&scale);
        print!("{}\n{}\n", a.render(), b.render());
    }
    if want("fig7") {
        let (a, b) = fig7::run(&scale);
        print!("{}\n{}\n", a.render(), b.render());
    }
    if want("fig8") {
        println!("{}", fig8_9::run_fig8(&scale).render());
    }
    if want("fig9") {
        let (f, _, _) = fig8_9::run_fig9(&scale);
        println!("{}", f.render());
    }
    if want("fig10") {
        let (a, b, c) = fig10::run(&scale);
        print!("{}\n{}\n{}\n", a.render(), b.render(), c.render());
    }
    if want("fig11") {
        println!("{}", fig11::run(&scale).render());
    }
    if want("fig12") {
        let (a, b, c) = fig12::run(&scale);
        print!("{}\n{}\n{}\n", a.render(), b.render(), c.render());
    }
    if figures.iter().any(|f| f == "headline") {
        println!("{}", headline::run(&scale, replicas).render());
    }
    if want("clusters") {
        println!("{}", clusters::run(&scale).render());
    }
    if want("ablations") {
        println!("{}", ablations::gateway_election(&scale).render());
        println!("{}", ablations::utility_selection(&scale).render());
        println!("{}", ablations::sw_links(&scale).render());
    }
    report_sinks();
    if let Some(path) = &perf_out {
        if let Err(e) = write_perf_report(path) {
            eprintln!("error: could not write {path}: {e}");
            return ExitCode::from(1);
        }
    }
    ExitCode::SUCCESS
}

/// Report how many records each file-streaming sink wrote (they are
/// already on disk — flushed line by line as runs finished).
fn report_sinks() {
    if let Some((path, lines)) = Obs::global().metrics_file_status() {
        eprintln!("wrote {lines} metrics records to {path}");
    }
    if let Some((path, lines)) = Obs::global().trace_file_status() {
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
            "warning: anti-entropy gave up on {dropped} pull(s) after exhausting \
             their retry budget (raise pull_retries or cache_rounds)"
        );
    }
}

/// Write the span profiler's aggregate and the memory accounting snapshot
/// as JSONL to `path`, plus a flamegraph-compatible folded-stack
/// companion at `path.folded` (`flamegraph.pl FILE.folded > out.svg`).
fn write_perf_report(path: &str) -> std::io::Result<()> {
    use std::io::Write;
    let spans = perf::take_spans();
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (p, s) in &spans {
        writeln!(w, "{}", perf::span_jsonl_line(p, s))?;
    }
    writeln!(w, "{}", perf::mem_jsonl_line(&perf::mem_snapshot()))?;
    w.flush()?;
    let folded_path = format!("{path}.folded");
    let mut fw = std::io::BufWriter::new(std::fs::File::create(&folded_path)?);
    for (p, s) in &spans {
        writeln!(fw, "{}", perf::folded_line(p, s))?;
    }
    fw.flush()?;
    eprintln!(
        "wrote {} span aggregates to {path} (folded stacks: {folded_path})",
        spans.len()
    );
    Ok(())
}

/// The `scale` subcommand: sweep the node-count ladder across all three
/// systems and write the results as a BENCH file (see `docs/METRICS.md`
/// §9). Build with `--features perf-alloc` to include real allocator
/// peak-memory entries.
fn run_scale(args: &[String]) -> ExitCode {
    use vitis_experiments::scalebench;
    let mut max_nodes = scalebench::DEFAULT_MAX_NODES;
    let mut seed: u64 = 42;
    let mut out = "BENCH_current.json".to_string();
    let mut perf_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut budget_secs: Option<u64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--max-nodes" | "--max-n" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => max_nodes = n,
                None => return usage("--max-nodes needs an integer"),
            },
            "--budget-secs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(b) => budget_secs = Some(b),
                None => return usage("--budget-secs needs an integer"),
            },
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(s) => seed = s,
                None => return usage("--seed needs an integer"),
            },
            "--out" => match it.next() {
                Some(p) => out = p.clone(),
                None => return usage("--out needs a file path"),
            },
            "--perf-out" => match it.next() {
                Some(p) => perf_out = Some(p.clone()),
                None => return usage("--perf-out needs a file path"),
            },
            "--trace-out" => match it.next() {
                Some(p) => trace_out = Some(p.clone()),
                None => return usage("--trace-out needs a file path"),
            },
            "--help" | "-h" => return usage(""),
            other => return usage(&format!("unexpected argument: {other}")),
        }
    }
    perf::set_enabled(perf_out.is_some());
    let mut trace_w = match &trace_out {
        Some(path) => match std::fs::File::create(path) {
            Ok(f) => Some(std::io::BufWriter::new(f)),
            Err(e) => {
                eprintln!("error: could not open {path}: {e}");
                return ExitCode::from(1);
            }
        },
        None => None,
    };
    let streaming = trace_w.is_some();
    println!(
        "# Vitis scale sweep — up to {max_nodes} nodes, seed {seed}, allocator accounting {}",
        if perf::mem_snapshot().counting {
            "on"
        } else {
            "off (build with --features perf-alloc)"
        }
    );

    // Each point gets a fresh shared trace; its events stream to the
    // trace file the moment the point completes (Trace::write_jsonl), so
    // nothing is double-buffered and an aborted sweep keeps every
    // finished point's events.
    let pending: std::cell::RefCell<Option<vitis_sim::trace::TraceHandle>> =
        std::cell::RefCell::new(None);
    let mut make_trace = |_sys: &'static str, _nodes: usize| {
        let h = vitis_sim::trace::Trace::shared(Obs::global().trace_capacity());
        *pending.borrow_mut() = Some(h.clone());
        h
    };
    let entries = scalebench::run_sweep(
        max_nodes,
        seed,
        budget_secs,
        streaming.then_some(&mut make_trace as &mut dyn FnMut(&'static str, usize) -> _),
        |point| {
            println!(
                "{}/{}: build {:.0} ms, warmup {:.0} ms, measure {:.0} ms, drain {:.0} ms, \
                 {:.0} deliveries/s",
                point.system,
                point.nodes,
                point.build_ms,
                point.warmup_ms,
                point.measure_ms,
                point.drain_ms,
                point.deliveries_per_sec
            );
            if let (Some(w), Some(h)) = (trace_w.as_mut(), pending.borrow_mut().take()) {
                if let Err(e) = h.borrow().write_jsonl(w) {
                    eprintln!("warning: trace stream failed: {e}");
                }
            }
        },
    );
    if let Some(mut w) = trace_w {
        use std::io::Write;
        if let Err(e) = w.flush() {
            eprintln!("warning: trace stream flush failed: {e}");
        }
    }
    let text = vitis_experiments::benchfmt::render(&entries);
    if let Err(e) = std::fs::write(&out, text) {
        eprintln!("error: could not write {out}: {e}");
        return ExitCode::from(1);
    }
    eprintln!("wrote {} BENCH entries to {out}", entries.len());
    if let Some(path) = &perf_out {
        if let Err(e) = write_perf_report(path) {
            eprintln!("error: could not write {path}: {e}");
            return ExitCode::from(1);
        }
    }
    ExitCode::SUCCESS
}

/// The `resilience` subcommand: sweep partition-episode severity across
/// the three systems and print the hit-ratio and reconvergence curves.
/// Fully deterministic for a fixed `--nodes`/`--seed` pair.
fn run_resilience(args: &[String]) -> ExitCode {
    let mut nodes: Option<usize> = None;
    let mut seed: u64 = 42;
    let mut preset: Option<&str> = None;
    let mut metrics_out: Option<String> = None;
    let mut repair = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--nodes" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => nodes = Some(n),
                None => return usage("--nodes needs an integer"),
            },
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(s) => seed = s,
                None => return usage("--seed needs an integer"),
            },
            "--metrics-out" => match it.next() {
                Some(p) => metrics_out = Some(p.clone()),
                None => return usage("--metrics-out needs a file path"),
            },
            "--paper" => preset = Some("paper"),
            "--quick" => preset = Some("quick"),
            "--repair" => repair = true,
            "--no-repair" => repair = false,
            "--help" | "-h" => return usage(""),
            other => return usage(&format!("unexpected argument: {other}")),
        }
    }
    Obs::global().enable(metrics_out.is_some(), false);
    if let Some(path) = &metrics_out {
        if let Err(e) = Obs::global().set_metrics_file(path) {
            eprintln!("error: could not open {path}: {e}");
            return ExitCode::from(1);
        }
    }
    let mut scale = match preset {
        Some("paper") => Scale::paper(),
        Some("quick") => Scale::quick(),
        _ => Scale::default_run(),
    };
    if let Some(n) = nodes {
        scale = Scale::proportional(n, seed);
    }
    scale.seed = seed;
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
    ExitCode::SUCCESS
}

/// The `topology` subcommand: sample overlay structural health over a
/// fixed-seed run, audit relay-path invariants at the end, and export
/// the series as topology JSONL plus an optional Graphviz DOT of the
/// final overlay. `--strict` exits nonzero on any invariant violation
/// (the CI gate).
fn run_topology(args: &[String]) -> ExitCode {
    use vitis_experiments::topology::{self, SystemKind, TopologyOpts};
    let mut nodes: Option<usize> = None;
    let mut seed: u64 = 42;
    let mut preset: Option<&str> = None;
    let mut opts = TopologyOpts::default();
    let mut out: Option<String> = None;
    let mut dot: Option<String> = None;
    let mut strict = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--nodes" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => nodes = Some(n),
                None => return usage("--nodes needs an integer"),
            },
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(s) => seed = s,
                None => return usage("--seed needs an integer"),
            },
            "--system" => match it.next().and_then(|v| SystemKind::parse(v)) {
                Some(s) => opts.system = s,
                None => return usage("--system needs one of: vitis rvr opt"),
            },
            "--rounds" => match it.next().and_then(|v| v.parse().ok()) {
                Some(r) => opts.rounds = r,
                None => return usage("--rounds needs an integer"),
            },
            "--every" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(k) if k > 0 => opts.every = k,
                _ => return usage("--every needs a positive integer"),
            },
            "--out" => match it.next() {
                Some(p) => out = Some(p.clone()),
                None => return usage("--out needs a file path"),
            },
            "--dot" => match it.next() {
                Some(p) => dot = Some(p.clone()),
                None => return usage("--dot needs a file path"),
            },
            "--strict" => strict = true,
            "--paper" => preset = Some("paper"),
            "--quick" => preset = Some("quick"),
            "--help" | "-h" => return usage(""),
            other => return usage(&format!("unexpected argument: {other}")),
        }
    }
    let mut scale = match preset {
        Some("paper") => Scale::paper(),
        Some("quick") => Scale::quick(),
        _ => Scale::default_run(),
    };
    if let Some(n) = nodes {
        scale = Scale::proportional(n, seed);
    }
    scale.seed = seed;
    println!(
        "# Vitis topology telemetry — {} @ {} nodes, seed {}, {} rounds sampled every {}\n",
        opts.system.as_str(),
        scale.nodes,
        scale.seed,
        opts.rounds,
        opts.every
    );
    let run = topology::run(&scale, &opts);
    if let Some(path) = &out {
        let mut text = String::with_capacity(run.jsonl.iter().map(|l| l.len() + 1).sum());
        for line in &run.jsonl {
            text.push_str(line);
            text.push('\n');
        }
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("error: could not write {path}: {e}");
            return ExitCode::from(1);
        }
        eprintln!("wrote {} topology records to {path}", run.jsonl.len());
    }
    if let Some(path) = &dot {
        if let Err(e) = std::fs::write(path, &run.dot) {
            eprintln!("error: could not write {path}: {e}");
            return ExitCode::from(1);
        }
        eprintln!("wrote overlay graph to {path}");
    }
    print!("{}", run.summary);
    if strict && !run.violations.is_empty() {
        eprintln!(
            "error: --strict and the final audit found {} violation(s)",
            run.violations.len()
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

/// The `analyze` subcommand: offline delivery forensics over a
/// `--trace-out` dump (report to stdout, optional Graphviz export).
fn run_analyze(args: &[String]) -> ExitCode {
    let mut path: Option<&String> = None;
    let mut dot: Option<&String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--dot" => match it.next() {
                Some(p) => dot = Some(p),
                None => return usage("--dot needs a file path"),
            },
            "--help" | "-h" => return usage(""),
            _ if path.is_none() && !a.starts_with('-') => path = Some(a),
            other => return usage(&format!("unexpected argument: {other}")),
        }
    }
    let Some(path) = path else {
        return usage("analyze needs a trace file (from --trace-out)");
    };
    match vitis_experiments::analyze::run_file(path, dot.map(String::as_str)) {
        Ok(report) => {
            print!("{report}");
            if let Some(d) = dot {
                eprintln!("wrote dissemination trees to {d}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "usage: vitis-experiments [fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 clusters headline ablations | all]\n\
         \t[--nodes N] [--seed S] [--replicas R] [--paper | --quick]\n\
         \t[--metrics-out FILE.jsonl] [--trace-out FILE.jsonl] [--trace-capacity N]\n\
         \t[--perf-out FILE.jsonl] (span profiler + memory accounting; also writes FILE.jsonl.folded)\n\
         \t(schema: docs/METRICS.md)\n\
         \n\
         \tvitis-experiments analyze TRACE.jsonl [--dot FILE.dot]\n\
         \t(delivery forensics: per-event trees, hop/latency percentiles, loss attribution)\n\
         \n\
         \tvitis-experiments resilience [--nodes N] [--seed S] [--quick | --paper] [--metrics-out FILE.jsonl]\n\
         \t\t[--repair | --no-repair]\n\
         \t(partition-severity sweep: hit ratio during the episode + reconvergence time after heal;\n\
         \t --repair runs every point twice at identical seeds — anti-entropy off and on — and adds\n\
         \t the repair cost/effect figure)\n\
         \n\
         \tvitis-experiments topology [--nodes N] [--seed S] [--system vitis|rvr|opt]\n\
         \t\t[--rounds R] [--every K] [--out TOPO.jsonl] [--dot FILE.dot] [--strict]\n\
         \t(overlay structural-health series + invariant audit; topo schema in docs/METRICS.md §10;\n\
         \t --strict exits nonzero on any audit violation)\n\
         \n\
         \tvitis-experiments scale [--max-nodes N] [--budget-secs B] [--seed S] [--out BENCH.json]\n\
         \t\t[--perf-out FILE.jsonl] [--trace-out FILE.jsonl]\n\
         \t(node-count ladder 2k..100k across vitis/rvr/opt; BENCH schema in docs/METRICS.md §9.\n\
         \t build with --features perf-alloc for allocator peak-memory entries;\n\
         \t compare two BENCH files with the bench-diff binary)"
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
