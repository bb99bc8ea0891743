//! A synthetic Skype-like churn trace (the paper's Section IV-F workload).
//!
//! **Substitution note** (see DESIGN.md §3): the Guha et al. 2005 Skype
//! superpeer measurement is not available offline. Figure 12 uses the trace
//! for: ~4000 monitored nodes over one month, a slowly varying online
//! population (hundreds to ~1200 concurrent), moderate steady churn, and
//! flash-crowd episodes where many nodes join nearly simultaneously. This
//! generator reproduces those regimes: session arrivals follow a diurnally
//! modulated Poisson process, session lengths are heavy-tailed
//! (log-normal, median a few hours), and an explicit flash crowd injects a
//! burst of joins at a configurable time.

use rand::rngs::SmallRng;
use rand::Rng;
use vitis_sim::churn::{ChurnEvent, ChurnKind, ChurnTrace};
use vitis_sim::rng::{domain, stream_rng};
use vitis_sim::time::SimTime;

/// Parameters of the synthetic churn-trace generator. Times are in *ticks*;
/// use [`SkypeModel::ticks_per_hour`] to relate them to the paper's hours.
#[derive(Clone, Copy, Debug)]
pub struct SkypeModel {
    /// Monitored population (paper: 4000).
    pub num_nodes: usize,
    /// Trace horizon in hours (paper: ~1 month ≈ 720 h).
    pub horizon_hours: f64,
    /// Simulation ticks per trace hour.
    pub ticks_per_hour: u64,
    /// Mean offline gap between sessions, in hours.
    pub mean_off_hours: f64,
    /// Log-normal session length: median, in hours.
    pub median_session_hours: f64,
    /// Log-normal session length: sigma of the underlying normal.
    pub session_sigma: f64,
    /// Diurnal modulation depth in `[0, 1)`: join pressure swings by this
    /// fraction around its mean over a 24 h cycle.
    pub diurnal_depth: f64,
    /// Fraction of the population reserved for the flash crowd.
    pub flash_crowd_frac: f64,
    /// Flash-crowd start, in hours from trace start.
    pub flash_crowd_hour: f64,
    /// Window over which the flash crowd's joins spread, in hours.
    pub flash_crowd_window_hours: f64,
}

impl Default for SkypeModel {
    fn default() -> Self {
        SkypeModel {
            num_nodes: 4000,
            horizon_hours: 720.0,
            ticks_per_hour: 64,
            mean_off_hours: 30.0,
            median_session_hours: 8.0,
            session_sigma: 1.4,
            diurnal_depth: 0.5,
            flash_crowd_frac: 0.15,
            flash_crowd_hour: 480.0,
            flash_crowd_window_hours: 2.0,
        }
    }
}

impl SkypeModel {
    /// Generate a validated churn trace. Deterministic in `seed`.
    pub fn generate(&self, seed: u64) -> ChurnTrace {
        assert!(self.num_nodes > 0 && self.horizon_hours > 0.0);
        assert!((0.0..1.0).contains(&self.diurnal_depth));
        assert!((0.0..1.0).contains(&self.flash_crowd_frac));
        let mut rng = stream_rng(seed, domain::WORKLOAD, 0x5C1E);
        let mut events = Vec::new();
        let n_flash = (self.num_nodes as f64 * self.flash_crowd_frac) as usize;
        let n_regular = self.num_nodes - n_flash;
        for node in 0..self.num_nodes as u32 {
            let flash = (node as usize) >= n_regular;
            self.generate_node(node, flash, &mut rng, &mut events);
        }
        ChurnTrace::new(events).expect("generator emits alternating join/leave")
    }

    fn generate_node(
        &self,
        node: u32,
        flash: bool,
        rng: &mut SmallRng,
        events: &mut Vec<ChurnEvent>,
    ) {
        let mut t = if flash {
            // Reserved nodes stay offline until the flash crowd fires, then
            // join inside the window.
            self.flash_crowd_hour + rng.gen::<f64>() * self.flash_crowd_window_hours
        } else {
            // First join: spread over the initial off period, thinned by
            // the diurnal cycle.
            self.next_offline_gap(0.0, rng)
        };
        loop {
            if t >= self.horizon_hours {
                return;
            }
            events.push(self.event(node, t, ChurnKind::Join));
            let session = self.session_length(rng);
            let leave = t + session;
            if leave >= self.horizon_hours {
                return; // stays online past the horizon
            }
            events.push(self.event(node, leave, ChurnKind::Leave));
            t = leave + self.next_offline_gap(leave, rng);
            // Guard against zero-length gaps producing join==leave ticks
            // out of order after rounding.
            t = t.max(leave + 2.0 / self.ticks_per_hour as f64);
        }
    }

    fn event(&self, node: u32, hour: f64, kind: ChurnKind) -> ChurnEvent {
        ChurnEvent {
            time: SimTime((hour * self.ticks_per_hour as f64) as u64),
            node,
            kind,
        }
    }

    /// Exponential offline gap, lengthened when the diurnal cycle is low so
    /// the online population oscillates with a 24 h period.
    fn next_offline_gap(&self, now_hours: f64, rng: &mut SmallRng) -> f64 {
        let phase = (now_hours / 24.0) * std::f64::consts::TAU;
        let pressure = 1.0 + self.diurnal_depth * phase.sin();
        let mean = self.mean_off_hours / pressure.max(1e-3);
        let u: f64 = rng.gen::<f64>().max(1e-12);
        -mean * u.ln()
    }

    /// Log-normal session length via Box–Muller.
    fn session_length(&self, rng: &mut SmallRng) -> f64 {
        let u1: f64 = rng.gen::<f64>().max(1e-12);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        let mu = self.median_session_hours.ln();
        (mu + self.session_sigma * z)
            .exp()
            .max(2.0 / self.ticks_per_hour as f64)
    }

    /// The flash-crowd start time in ticks (for experiment annotations).
    pub fn flash_crowd_time(&self) -> SimTime {
        SimTime((self.flash_crowd_hour * self.ticks_per_hour as f64) as u64)
    }

    /// Horizon in ticks.
    pub fn horizon(&self) -> SimTime {
        SimTime((self.horizon_hours * self.ticks_per_hour as f64) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SkypeModel {
        SkypeModel {
            num_nodes: 300,
            horizon_hours: 200.0,
            flash_crowd_hour: 120.0,
            ..SkypeModel::default()
        }
    }

    #[test]
    fn trace_is_valid_and_deterministic() {
        let a = small().generate(1);
        let b = small().generate(1);
        assert_eq!(a.events().len(), b.events().len());
        assert!(!a.events().is_empty());
        assert!(a.num_logical_nodes() <= 300);
    }

    #[test]
    fn population_is_moderate_and_positive() {
        let m = small();
        let tr = m.generate(2);
        let mid = SimTime(m.horizon().0 / 3);
        let online = tr.online_at(mid);
        assert!(online > 10, "online at mid-trace: {online}");
        assert!(online < 300, "not everyone online at once: {online}");
    }

    #[test]
    fn flash_crowd_spikes_population() {
        let m = small();
        let tr = m.generate(3);
        let before = tr.online_at(SimTime(m.flash_crowd_time().0 - 4 * m.ticks_per_hour));
        let after = tr.online_at(SimTime(
            m.flash_crowd_time().0
                + (m.flash_crowd_window_hours * m.ticks_per_hour as f64) as u64
                + 1,
        ));
        let burst = after as i64 - before as i64;
        let reserved = (300.0 * m.flash_crowd_frac) as i64;
        assert!(
            burst > reserved / 2,
            "flash crowd too weak: {before} -> {after} (reserved {reserved})"
        );
    }

    #[test]
    fn sessions_are_heavy_tailed() {
        let m = small();
        let mut rng = stream_rng(9, domain::WORKLOAD, 0);
        let lens: Vec<f64> = (0..5000).map(|_| m.session_length(&mut rng)).collect();
        let mean = lens.iter().sum::<f64>() / lens.len() as f64;
        let mut sorted = lens.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[lens.len() / 2];
        assert!((median - 8.0).abs() < 1.5, "median {median} ≈ 8h");
        assert!(
            mean > median * 1.3,
            "heavy tail: mean {mean} vs median {median}"
        );
    }

    #[test]
    fn diurnal_cycle_modulates_gaps() {
        let m = small();
        let mut rng = stream_rng(10, domain::WORKLOAD, 0);
        // Average gaps drawn at the peak vs the trough of the cycle.
        let peak: f64 = (0..3000)
            .map(|_| m.next_offline_gap(6.0, &mut rng))
            .sum::<f64>()
            / 3000.0;
        let trough: f64 = (0..3000)
            .map(|_| m.next_offline_gap(18.0, &mut rng))
            .sum::<f64>()
            / 3000.0;
        assert!(trough > peak * 1.5, "peak {peak} vs trough {trough}");
    }
}
