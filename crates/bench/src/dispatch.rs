//! The dispatch-cost case: what one activation costs the engine when the
//! handler does nothing, as a function of how big the node's state is.
//!
//! `Engine::dispatch` runs handlers on the protocol value in place, so the
//! three sizes below must cost the same to within cache effects. Until
//! PR 15 it moved the value out of its slot and back on every activation:
//! 17 / 41 / 119 ns at 64 B / 600 B / 2 KB where all three now take 13 ns
//! (2000 nodes, this box). The repo benchmark's
//! `sim.engine.null_activation_ns` drives a protocol of a few bytes and
//! cannot see that; this case can.

use std::time::Instant;
use vitis_sim::engine::{Engine, EngineConfig};
use vitis_sim::event::NodeIdx;
use vitis_sim::protocol::{Context, Protocol};

/// A protocol whose handlers only count, carrying `PAD` bytes of state it
/// never reads (`size_of::<NullNode<PAD>>() == PAD + 8`).
struct NullNode<const PAD: usize> {
    activations: u64,
    _pad: [u8; PAD],
}

impl<const PAD: usize> Protocol for NullNode<PAD> {
    type Msg = ();

    fn on_start(&mut self, _: &mut Context<'_, ()>) {}

    fn on_round(&mut self, _: &mut Context<'_, ()>) {
        self.activations += 1;
    }

    fn on_message(&mut self, _: &mut Context<'_, ()>, _: NodeIdx, _: ()) {}
}

/// An engine of `nodes` started [`NullNode`]s.
fn null_engine<const PAD: usize>(nodes: usize) -> Engine<NullNode<PAD>> {
    let mut engine = Engine::new(EngineConfig::default());
    for _ in 0..nodes {
        engine.add_node(NullNode {
            activations: 0,
            _pad: [0; PAD],
        });
    }
    engine
}

/// Nanoseconds per activation over `rounds` rounds of `engine` (one round
/// tick per node per round; the scheduler's share is the same at every
/// state size).
fn ns_per_activation<const PAD: usize>(engine: &mut Engine<NullNode<PAD>>, rounds: u64) -> f64 {
    let before = engine.perf_counters().total_activations();
    let t0 = Instant::now();
    engine.run_rounds(rounds);
    let ns = t0.elapsed().as_secs_f64() * 1e9;
    ns / (engine.perf_counters().total_activations() - before) as f64
}

/// `(state bytes, run)`: `run(rounds)` advances an engine of null nodes of
/// that size and returns the nanoseconds one activation took.
pub type Case = (usize, Box<dyn FnMut(u64) -> f64>);

/// One [`Case`] per state size, each over `nodes` nodes: 64 B (a toy
/// protocol), 600 B (a `VitisNode`) and 2 KB (well beyond any node type in
/// the repository).
pub fn cases(nodes: usize) -> [Case; 3] {
    fn case<const PAD: usize>(nodes: usize) -> Case {
        let mut engine = null_engine::<PAD>(nodes);
        engine.run_rounds(2); // past the start-up ticks
        (
            std::mem::size_of::<NullNode<PAD>>(),
            Box::new(move |rounds| ns_per_activation(&mut engine, rounds)),
        )
    }
    [case::<56>(nodes), case::<592>(nodes), case::<2040>(nodes)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_have_the_advertised_state_sizes_and_activate_every_node() {
        let mut cases = cases(10);
        let sizes: Vec<usize> = cases.iter().map(|(bytes, _)| *bytes).collect();
        assert_eq!(sizes, [64, 600, 2048]);
        for (_, run) in &mut cases {
            assert!(run(3) > 0.0);
        }
        let mut engine = null_engine::<56>(10);
        engine.run_rounds(4);
        assert!(engine.alive_nodes().all(|(_, n)| n.activations == 4));
    }
}
