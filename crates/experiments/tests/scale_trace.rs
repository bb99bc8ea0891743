//! A `scale` point's trace leaves through the run scope like any other
//! run's: headed by `trace_meta`, stamped with its run id, and with the
//! overflow warning armed — not through a private writer that did none of
//! the three.
//!
//! One test, alone in its process: it opens the process-wide trace sink.

use vitis_baselines::System;
use vitis_experiments::obs::Obs;
use vitis_experiments::scalebench::{bench_point, sweep_scale};
use vitis_sim::record::parse_line;
use vitis_sim::trace::TraceEvent;

#[test]
fn a_scale_point_trace_is_stamped_headed_and_overflow_checked() {
    let path = std::env::temp_dir().join(format!("scale_trace_{}.jsonl", std::process::id()));
    let obs = Obs::global();
    obs.set_trace_capacity(256); // deliberately small: the point must overflow it
    obs.trace.open(path.to_str().unwrap()).unwrap();

    let mut scale = sweep_scale(60, 42);
    scale.warmup_rounds = 5;
    scale.events = 10;
    scale.drain_rounds = 2;
    let point = bench_point(System::Vitis, &scale, 0);
    assert_eq!((point.system, point.nodes), ("vitis", 60));

    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 1 + 256, "trace_meta plus a full ring");
    let (_, first) = parse_line::<TraceEvent>(lines[0]).unwrap();
    assert!(
        matches!(first, TraceEvent::TraceMeta { capacity: 256, evicted, .. } if evicted > 0),
        "the point's first line is not an overflowed trace_meta: {first:?}"
    );
    for line in &lines {
        assert!(
            line.starts_with(r#"{"run":"scale/vitis-60#0","#),
            "unstamped line: {line}"
        );
    }
    let (runs, evicted) = obs
        .trace_overflow_status()
        .expect("the overflow is accounted");
    assert_eq!(runs, 1);
    assert!(evicted > 0);
}
