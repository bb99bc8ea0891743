//! Fixed-seed determinism goldens for all three systems.
//!
//! Each system runs a short fixed-seed scenario (warmup, a publish batch,
//! churn while disseminating, recovery) and renders everything
//! deterministic it produced — every [`vitis::monitor::PubSubStats`]
//! field bit-exact, the loss report, the health probe, and a fingerprint
//! of the forensics trace JSONL — into one canonical snapshot string
//! compared byte-for-byte against the checked-in files under
//! `tests/golden/`.
//!
//! The snapshots pin two properties at once:
//!
//! * **refactor safety** — the `SystemRuntime` extraction (PR 4) must not
//!   change a single bit of any run, and
//! * **iteration-order bugs** — the HashMap-order class of
//!   nondeterminism fixed in PR 3 cannot silently come back.
//!
//! Wall-clock fields (the phase timers of the experiment metrics sink)
//! are inherently non-reproducible and are the only records excluded.
//!
//! Regenerate after an *intentional* behavior change with:
//! `UPDATE_GOLDEN=1 cargo test --test determinism_golden`.

mod common;

use common::{
    check_golden, faulted_params, golden_params, repair_params, run_repair_scenario, run_scenario,
};
use vitis::system::VitisSystem;
use vitis_baselines::{OptSystem, RvrSystem};

#[test]
fn vitis_fixed_seed_run_is_bit_identical() {
    let mut sys = VitisSystem::new(golden_params());
    check_golden("vitis", &run_scenario(&mut sys));
}

#[test]
fn rvr_fixed_seed_run_is_bit_identical() {
    let mut sys = RvrSystem::new(golden_params());
    check_golden("rvr", &run_scenario(&mut sys));
}

#[test]
fn opt_fixed_seed_run_is_bit_identical() {
    let mut sys = OptSystem::new(golden_params());
    check_golden("opt", &run_scenario(&mut sys));
}

/// The faulted counterpart: the same scenario under a fixed fault plan
/// exercising both episode kinds, with the Vitis hardening knobs on
/// (publisher retries, bounded TTL, gateway failover). Pins the entire
/// fault-injection path — the time-aware network wrapper, net-drop
/// tracing, and `LossReason::Network` attribution — to a bit-exact
/// snapshot.
#[test]
fn vitis_faulted_fixed_seed_run_is_bit_identical() {
    let mut sys = VitisSystem::new(faulted_params());
    check_golden("vitis_faulted", &run_scenario(&mut sys));
}

/// The faulted scenario with the anti-entropy repair layer on: digest
/// gossip, pull scheduling with backoff, recovery pushes and their
/// `recovered=true` delivery accounting are all deterministic. Compared
/// against its own snapshot (repair changes outcomes by design); the
/// repair-off goldens above staying byte-identical is what proves the
/// disabled layer is inert.
#[test]
fn vitis_repair_fixed_seed_run_is_bit_identical() {
    let mut sys = VitisSystem::new(repair_params());
    let got = run_repair_scenario(&mut sys);
    assert!(
        got.contains("kind ae_digest"),
        "repair-enabled run must send digests"
    );
    check_golden("vitis_repair", &got);
}

/// RVR's repair path under the same faulted scenario: its digests go to a
/// sample of its routing table and recovered copies are never re-sent down
/// the tree. Pinned so a change to the shared repair layer cannot move
/// RVR's runs unseen.
#[test]
fn rvr_repair_fixed_seed_run_is_bit_identical() {
    let mut sys = RvrSystem::new(repair_params());
    let got = run_repair_scenario(&mut sys);
    assert!(
        got.contains("kind ae_digest"),
        "repair-enabled run must send digests"
    );
    check_golden("rvr_repair", &got);
}

/// OPT's repair path under the same faulted scenario: digests go to a
/// sample of its negotiated links and recovered copies are never
/// re-flooded.
#[test]
fn opt_repair_fixed_seed_run_is_bit_identical() {
    let mut sys = OptSystem::new(repair_params());
    let got = run_repair_scenario(&mut sys);
    assert!(
        got.contains("kind ae_digest"),
        "repair-enabled run must send digests"
    );
    check_golden("opt_repair", &got);
}
