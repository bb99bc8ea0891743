//! IPTV under churn: a hot streaming channel on a churning network.
//!
//! The motivating scenario from the paper's introduction: a user of IPTV
//! will abandon the overlay if it constantly relays a stream it does not
//! watch. This example runs a Skype-like availability trace (heavy-tailed
//! sessions, flash crowd) with one hot "channel" topic carrying most of
//! the events, and reports how much relay traffic uninterested nodes see.
//!
//! ```text
//! cargo run --release --example iptv_churn
//! ```

use vitis::prelude::*;
use vitis_sim::churn::ChurnKind;
use vitis_sim::time::Duration;
use vitis_workloads::SkypeModel;

fn main() {
    let num_nodes = 600usize;
    let num_topics = 60usize;
    let channel = TopicId(0);

    // 40% of the nodes watch the channel; everyone also has a few other
    // interests.
    let subs: Vec<TopicSet> = (0..num_nodes)
        .map(|i| {
            let mut topics: Vec<u32> = vec![1 + (i as u32 % 59), 1 + ((i as u32 * 7) % 59)];
            if i % 5 < 2 {
                topics.push(channel.0);
            }
            TopicSet::from_iter(topics)
        })
        .collect();

    // The channel carries 50x the event rate of every other topic.
    let mut rates = vec![1.0; num_topics];
    rates[0] = 50.0;

    let mut params = SystemParams::new(subs, num_topics);
    params.seed = 4;
    params.rates = RateTable::from_rates(rates);
    params.grace = Duration(2 * params.round_period.ticks());
    let mut sys = VitisSystem::new(params);

    // Availability: Skype-like sessions with a flash crowd at hour 60.
    let model = SkypeModel {
        num_nodes,
        horizon_hours: 100.0,
        flash_crowd_hour: 60.0,
        ticks_per_hour: 64, // one gossip round per trace hour
        ..SkypeModel::default()
    };
    let trace = model.generate(11);
    for logical in 0..num_nodes as u32 {
        sys.set_online(logical, false);
    }

    println!("hour  online  hit%   overhead%  hops");
    let window_hours = 10u64;
    let mut cursor = 0usize;
    let events = trace.events();
    for w in 1..=10u64 {
        let wend = w * window_hours * model.ticks_per_hour;
        sys.reset_metrics();
        // ~30 events per window, mostly on the hot channel.
        for _ in 0..30 {
            sys.publish_weighted();
        }
        while cursor < events.len() && events[cursor].time.ticks() < wend {
            let e = events[cursor];
            let now = sys.now().ticks();
            if e.time.ticks() > now {
                sys.run_ticks(e.time.ticks() - now);
            }
            sys.set_online(e.node, e.kind == ChurnKind::Join);
            cursor += 1;
        }
        let now = sys.now().ticks();
        if wend > now {
            sys.run_ticks(wend - now);
        }
        let s = sys.stats();
        println!(
            "{:>4}  {:>6}  {:>5.1}  {:>8.1}  {:>5.2}",
            w * window_hours,
            sys.alive_count(),
            100.0 * s.hit_ratio,
            s.overhead_pct,
            s.mean_hops
        );
    }
    println!(
        "flash crowd hit at hour {}; the overlay re-clusters and keeps serving the channel.",
        model.flash_crowd_hour
    );
}
