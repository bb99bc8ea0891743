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
use vitis::msg::{Notification, VitisMsg};
use vitis::node::{MemoEntry, Neighbor, VitisNode};
use vitis::relay::{RelaySlot, SpilledLink};
use vitis::topic::TopicId;
use vitis_baselines::opt::OptMsg;
use vitis_baselines::rvr::RvrMsg;
use vitis_baselines::{OptNode, RvrNode};
use vitis_sim::antientropy::AntiEntropy;
use vitis_sim::event::NodeIdx;

fn within<T>(budget: usize) {
    let (name, size) = (std::any::type_name::<T>(), size_of::<T>());
    assert!(size <= budget, "{name} is {size} bytes, budget {budget}");
}

#[test]
fn messages_fit_their_queue_slot() {
    within::<Notification>(24);
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
    // into its advertisement and its two neighbor maps became one.
    within::<VitisNode>(576 + 24 - 48);
    // A node retains ≈ 60 remembered Equation 1 results (DESIGN §14, "The
    // T-Man merge"): eight bytes more per entry is half a kilobyte a node.
    within::<MemoEntry>(24);
    within::<RvrNode>(448 + 24);
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
    // advertisement's handle, the reverse link's and their two ages.
    within::<(TopicId, Proposal)>(24);
    within::<(NodeIdx, Neighbor)>(32);
}

#[test]
fn a_delivery_slot_is_sixteen_bytes() {
    // One slot per expected subscriber of every event in the monitor's
    // window, allocated at the event's first delivery (DESIGN §12).
    within::<DeliverySlot>(16);
}
