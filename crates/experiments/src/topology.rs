//! The `topology` subcommand: overlay structural-health telemetry.
//!
//! Runs one fixed-seed system, samples [`vitis::topo`] snapshots every
//! few rounds, and exports three artifacts:
//!
//! * a JSONL time series of `topo` records (built by the function the
//!   runtime sampler records into event traces with,
//!   [`vitis::topo::sample`] — docs/METRICS.md §10);
//! * an optional Graphviz DOT rendering of the final overlay (per-kind
//!   links solid, relay paths dashed, rendezvous nodes double-circled);
//! * an end-of-run invariant audit summary with node/topic provenance.
//!
//! Everything is deterministic for a fixed `--nodes`/`--seed` pair: the
//! snapshot iterates nodes in slot order and topics in ascending order,
//! so two invocations produce byte-identical JSONL and DOT files.

use std::fmt::Write as _;

use crate::runner::synthetic_params;
use crate::scale::Scale;
use vitis::topo::{analyze, audit, OverlaySnapshot, TopoProbe, Violation, TOPO_SAMPLE_TOPICS};
use vitis_baselines::System;
use vitis_sim::trace::TraceEvent;
use vitis_workloads::Correlation;

/// Options of one `topology` invocation (paths and strictness are
/// handled by the CLI layer; this is the measurement core).
#[derive(Clone, Copy, Debug)]
pub struct TopologyOpts {
    /// System under observation (default Vitis).
    pub system: System,
    /// Sampled rounds after warmup.
    pub rounds: u64,
    /// Sampling period in rounds.
    pub every: u64,
}

impl Default for TopologyOpts {
    fn default() -> Self {
        TopologyOpts {
            system: System::Vitis,
            rounds: 30,
            every: 5,
        }
    }
}

/// Everything one `topology` run produces.
pub struct TopologyRun {
    /// One `topo` record per sample, in round order.
    pub samples: Vec<TraceEvent>,
    /// Structural metrics of the final snapshot.
    pub final_probe: TopoProbe,
    /// Invariant violations found in the final snapshot.
    pub violations: Vec<Violation>,
    /// Graphviz DOT rendering of the final overlay.
    pub dot: String,
    /// Human-readable end-of-run summary (includes the audit verdict).
    pub summary: String,
}

/// Build, warm up, and sample one system; audit the final snapshot.
pub fn run(scale: &Scale, opts: &TopologyOpts) -> TopologyRun {
    let params = synthetic_params(scale, Correlation::High);
    let period = params.round_period.ticks();
    let mut sys = opts.system.build(params);
    sys.run_rounds(scale.warmup_rounds);

    let every = opts.every.max(1);
    let mut round = scale.warmup_rounds;
    let mut snap = sys.overlay_snapshot();
    let mut samples = vec![vitis::topo::sample(&snap, period)];
    let mut sampled = 0;
    while sampled < opts.rounds {
        let step = every.min(opts.rounds - sampled);
        sys.run_rounds(step);
        sampled += step;
        round += step;
        snap = sys.overlay_snapshot();
        samples.push(vitis::topo::sample(&snap, period));
    }

    let final_probe = analyze(&snap, TOPO_SAMPLE_TOPICS);
    let violations = audit(&snap);
    let dot = render_dot(&snap);
    let summary = render_summary(opts.system, round, samples.len(), &final_probe, &violations);
    TopologyRun {
        samples,
        final_probe,
        violations,
        dot,
        summary,
    }
}

/// Render the final snapshot as deterministic Graphviz DOT. Overlay
/// links are solid (colored by kind), relay upstream paths are dashed
/// and labeled with their topic, and rendezvous holders get a double
/// circle.
pub fn render_dot(snap: &OverlaySnapshot) -> String {
    let mut s = String::new();
    s.push_str("digraph overlay {\n  rankdir=LR;\n  node [shape=circle fontsize=10];\n");
    for nt in &snap.nodes {
        let rdv = nt.relays.iter().any(|r| r.rendezvous);
        let _ = writeln!(
            s,
            "  n{} [label=\"{}\"{}];",
            nt.node.0,
            nt.node.0,
            if rdv { " peripheries=2" } else { "" }
        );
    }
    for nt in &snap.nodes {
        for l in &nt.links {
            if !snap.is_alive(l.peer) {
                continue;
            }
            let color = match l.kind {
                "succ" => "black",
                "pred" => "gray50",
                "sw" => "blue",
                "friend" => "forestgreen",
                _ => "gray30", // mesh and future kinds
            };
            let _ = writeln!(s, "  n{} -> n{} [color={}];", nt.node.0, l.peer.0, color);
        }
        for r in &nt.relays {
            if let Some(up) = r.upstream {
                let _ = writeln!(
                    s,
                    "  n{} -> n{} [style=dashed color=red label=\"T{}\"];",
                    nt.node.0, up.0, r.topic.0
                );
            }
        }
    }
    s.push_str("}\n");
    s
}

/// Render the human-readable end-of-run report.
fn render_summary(
    system: System,
    final_round: u64,
    samples: usize,
    p: &TopoProbe,
    violations: &[Violation],
) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "topology audit — {} @ round {} ({} samples)",
        system.name(),
        final_round,
        samples
    );
    let _ = writeln!(
        s,
        "  nodes {}  links {}  mean view age {}",
        p.nodes,
        p.links,
        p.mean_view_age.map_or("n/a".into(), |a| format!("{a:.2}")),
    );
    let _ = writeln!(
        s,
        "  sampled topics {}: components {} (stitched {}), largest-component frac {:.3}",
        p.sampled_topics, p.components, p.stitched_components, p.largest_component_frac
    );
    let _ = writeln!(
        s,
        "  rendezvous conflicts {}  headless topics {}  dead relay links {}",
        p.rendezvous_conflicts, p.headless_topics, p.dead_links
    );
    let _ = writeln!(
        s,
        "  max gateway load {}  mean relay stretch {}",
        p.max_gateway_load,
        p.mean_relay_stretch
            .map_or("n/a".into(), |x| format!("{x:.2}")),
    );
    if violations.is_empty() {
        let _ = writeln!(s, "  invariants: OK (0 violations)");
    } else {
        let _ = writeln!(s, "  invariants: {} VIOLATIONS", violations.len());
        for v in violations.iter().take(20) {
            let _ = writeln!(
                s,
                "    {} at node {}{}: {}",
                v.kind,
                v.node.0,
                v.topic.map_or(String::new(), |t| format!(" topic {}", t.0)),
                v.detail
            );
        }
        if violations.len() > 20 {
            let _ = writeln!(s, "    ... and {} more", violations.len() - 20);
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        let mut s = Scale::proportional(120, 11);
        s.warmup_rounds = 30;
        s
    }

    #[test]
    fn vitis_run_is_audit_clean_and_deterministic() {
        let sc = tiny();
        let opts = TopologyOpts {
            rounds: 10,
            every: 5,
            ..TopologyOpts::default()
        };
        let a = run(&sc, &opts);
        assert!(
            a.violations.is_empty(),
            "unexpected violations:\n{}",
            a.summary
        );
        // Warmup snapshot + 2 sampled, numbered by the rounds run so far.
        let rounds = a.samples.iter().map(|s| match s {
            TraceEvent::TopoSample { round, .. } => *round,
            other => panic!("not a topo record: {other:?}"),
        });
        assert_eq!(rounds.collect::<Vec<_>>(), [30, 35, 40]);
        let b = run(&sc, &opts);
        assert_eq!(
            a.samples, b.samples,
            "topology series must be bit-identical"
        );
        assert_eq!(a.dot, b.dot, "DOT export must be bit-identical");
    }

    #[test]
    fn baselines_run_and_export() {
        let sc = tiny();
        for system in [System::Rvr, System::Opt] {
            let opts = TopologyOpts {
                system,
                rounds: 5,
                every: 5,
            };
            let r = run(&sc, &opts);
            assert!(r.final_probe.nodes > 0);
            assert!(r.dot.starts_with("digraph overlay {"));
            assert!(r.dot.ends_with("}\n"));
            match system {
                // OPT has no relay layer, so nothing can dangle.
                System::Opt => assert!(r.violations.is_empty(), "opt violations:\n{}", r.summary),
                // RVR's hop-capped joins install an upstream belief
                // without ever sending the join onward (`join_hop`
                // sets upstream even at MAX_LOOKUP_HOPS), so the
                // auditor legitimately reports dangling upstream links
                // — and must report nothing else.
                System::Rvr => assert!(
                    r.violations.iter().all(|v| v.kind == "asymmetric_upstream"),
                    "rvr unexpected violations:\n{}",
                    r.summary
                ),
                System::Vitis => unreachable!(),
            }
        }
    }

    #[test]
    fn dot_marks_rendezvous_and_relay_edges() {
        let sc = tiny();
        let r = run(&sc, &TopologyOpts::default());
        assert!(r.dot.contains("peripheries=2"), "no rendezvous node found");
        assert!(r.dot.contains("style=dashed"), "no relay edge found");
    }
}
