//! `PubSub::footprint_estimate` is held to the allocator.
//!
//! Built only with `--features perf-alloc` (the counting global allocator)
//! and alone in its binary: the one test below is the only thread
//! allocating while it reads the allocator's live bytes.

use vitis_baselines::System;
use vitis_experiments::runner::synthetic_params;
use vitis_experiments::scale::Scale;
use vitis_sim::perf::mem_snapshot;
use vitis_workloads::Correlation;

#[test]
fn footprint_estimate_is_within_half_of_the_allocators_live_bytes() {
    assert!(mem_snapshot().counting, "needs the counting allocator");
    for system in [System::Vitis, System::Rvr] {
        let params = synthetic_params(&Scale::proportional(500, 42), Correlation::High);
        let before = mem_snapshot().live_bytes;
        let mut sys = system.build(params);
        sys.run_rounds(20);
        let live = mem_snapshot().live_bytes - before;
        let split = sys.footprint();
        let estimate = sys.footprint_estimate();
        assert!(
            2 * estimate <= 3 * live && 2 * live <= 3 * estimate,
            "{}: footprint_estimate {estimate} B vs {live} B live since before the build \
             (must be within 1.5x either way); split {split:?}",
            system.name()
        );
    }
}
