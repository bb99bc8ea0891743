//! Size budgets for the types the simulator holds by the million.
//!
//! **Messages.** Every message in flight is one event in the engine's
//! calendar queue, and the queue moves every one of them twice: into a
//! bucket and out with its batch. Eight bytes more per message (a fat
//! `Arc<[NodeIdx]>` path handle in `Notification`, tried in PR 15) measured
//! +4 % `cpu_s` on the benchmark's `publish_1k` — and +13 % peak RSS while
//! the buckets still kept the capacity of their busiest tick; since PR 23 a
//! drained bucket owns no memory and the queue is a few hundred bytes per
//! node (`mem/queue_bytes` on the `scale` ladder), so the budget now guards
//! time and cache lines rather than residency. A new field in a message
//! variant must fit the 24 payload bytes the largest variants already use,
//! or go behind the variant's existing `Arc`. The engine's own 8 bytes per
//! event are pinned in `vitis_sim::engine`'s tests.
//!
//! **Nodes.** Dispatch runs handlers on the node in place, so an
//! activation's cost does not depend on the node's size (a test in
//! `vitis_sim::engine` pins that). What is left is memory: N of them are
//! resident. The engine prefetches an activation's whole slot a few events
//! before it runs, so the cache lines a handler reads are mostly warm, and
//! node size costs ⌈size/64⌉ prefetch instructions per activation, not
//! as many misses. The budgets are the sizes the compact layout reached
//! (DESIGN §12), rounded up to a cache line; raise one knowingly, with
//! the `peak_rss_kb_per_node` rows beside it. Every node holds one
//! `Monitor` handle, which is one pointer.
#![cfg(target_pointer_width = "64")]

use std::mem::size_of;
use vitis::gateway::Proposal;
use vitis::monitor::{DeliverySlot, Monitor};
use vitis::msg::{DissemMsg, Notification, VitisMsg};
use vitis::node::{Neighbor, VitisNode};
use vitis::relay::{RelaySlot, SpilledLink};
use vitis::topic::TopicId;
use vitis_baselines::opt::OptMsg;
use vitis_baselines::rvr::RvrMsg;
use vitis_baselines::{OptNode, RvrNode};
use vitis_sim::antientropy::AntiEntropy;

fn within<T>(budget: usize) {
    let (name, size) = (std::any::type_name::<T>(), size_of::<T>());
    assert!(size <= budget, "{name} is {size} bytes, budget {budget}");
}

#[test]
fn messages_fit_their_queue_slot() {
    within::<Notification>(24);
    // The five data-plane messages are one nested enum, `DissemMsg`, held
    // in one `Dissem` variant of each wire enum. It is 32 B (its largest
    // payloads, the want's `Vec` and the copies' `Notification`, are
    // 24 B), and nesting it leaves each wire enum at 32 B: the outer tag
    // lives in values the inner tag leaves spare. A layout probe (rustc
    // 1.95) put the wire enums at 40 B once a second sub-enum was nested
    // the same way (the peer-sampling request and reply), so those stay
    // flat.
    within::<DissemMsg>(32);
    within::<VitisMsg>(32);
    within::<RvrMsg>(32);
    within::<OptMsg>(32);
}

#[test]
fn nodes_fit_their_cache_line_budget() {
    within::<Monitor>(8);
    // Both relay-table nodes grew by one `Vec` header (24 B) when the
    // table became two arrays, for −18.5 % `peak_rss_kb_per_node` on
    // `gossip_2k` (34.1 → 27.8 kB) and −11 % on `baselines` (RVR's tree
    // table; 24.9 → 22.2 kB), medians of ten pairs. Vitis's shrank by a
    // `Vec` and a `SmallMap` header (48 B) when its own proposals moved
    // into its advertisement and its two neighbor maps became one, to
    // 520 B. Both grew by the table's two fence arrays (64 B), which let
    // the relay hint prefetch the exact block a hop searches: `gossip_2k`
    // `cpu_s` −11.8 % / −14.1 % (seeds 42 / 7, medians of ten pairs,
    // 2.41 → 2.12 s and 2.37 → 2.04 s), `baselines` −5.5 % (six pairs);
    // `peak_rss_kb_per_node` on those pairs `gossip_2k` 24.23 → 24.26 kB
    // and 24.29 → 24.35 kB, `baselines` 19.20 → 19.27 kB. Both budgets
    // are the measured sizes. Vitis's then shrank by the Equation 1
    // memo's `Vec` header and merge clock (32 B), to 552 B, when ranking
    // began counting against the node's marked topics instead (DESIGN
    // §14, "The T-Man merge"); the memo's 2.3–2.5 KB of heap went with it.
    // It grew by one `Vec` header (24 B), to 576 B, when the neighbor
    // map's keys moved into an array of their own, for `gossip_2k`
    // `cpu_s` −6.3 % / −7.7 % (seeds 42 / 7, medians of ten pairs); the
    // 4 B of padding per 48-byte pair went, and `peak_rss_kb_per_node`
    // on those pairs fell 21.98 → 21.84 kB and 22.05 → 21.92 kB.
    within::<VitisNode>(576);
    within::<RvrNode>(392 + 64);
    within::<OptNode>(320);
}

#[test]
fn the_repair_layer_is_its_two_tables() {
    // Every node of all three systems holds one inside its
    // `Dissemination`, on or off: a switch, the cache, the pull table and
    // a counter. Its sizes and retry budget are constants, not a copy of a
    // configuration per node.
    within::<AntiEntropy<Notification>>(64);
}

#[test]
fn a_relay_entry_is_sixteen_bytes() {
    // One slot per (node, topic) whose relay path crosses the node, and one
    // spilled link per downstream link beyond an entry's first: together
    // the one per-node owner that grows with N (DESIGN §12).
    within::<RelaySlot>(16);
    within::<SpilledLink>(12);
}

#[test]
fn the_election_state_is_what_the_wire_charges() {
    // Every node remembers each neighbor's advertisement: one pair per
    // proposed topic, the 24 bytes `wire::profile_bytes` charges (the
    // natural layout padded it to 32). One neighbor-table entry holds the
    // advertisement's handle, its heartbeat's subscription handle, the
    // boxed common-topic pairs the election folds, two ages and the
    // reverse-link flag: 32 → 48 B when the election began caching the
    // pairs, for `churn_repair_300` `cpu_s` −17.4 % / −15.2 % (seeds 42 /
    // 7, medians of ten pairs). `peak_rss_kb_per_node`, entry and pairs
    // together: `churn_repair_300` 24.73 → 26.45 kB (+7.0 %) on those
    // pairs; in one `benchmark run` set `gossip_2k` 23.35 → 25.38 kB
    // (+8.7 %), `churn_repair_300` 24.21 → 26.85 kB (+10.9 %),
    // `publish_1k` and `baselines` flat (DESIGN §14, "Gateway election").
    // Since the map's keys and values are two arrays, the stored entry is
    // the 40-byte value beside a 4-byte key.
    within::<(TopicId, Proposal)>(24);
    within::<Neighbor>(40);
}

#[test]
fn a_delivery_slot_is_sixteen_bytes() {
    // One slot per expected subscriber of every event in the monitor's
    // window, allocated at the event's first delivery (DESIGN §12).
    within::<DeliverySlot>(16);
}
