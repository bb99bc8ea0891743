//! Gossip-based peer sampling.
//!
//! The evaluation uses Newscast as the common sampling layer of all three
//! systems ("*they use the same peer sampling service (Newscast)*"), and
//! [`Newscast`] is the one implementation here; the [`PeerSampling`] trait
//! is the seam the paper names ("any of the existing implementations for
//! this service can be used").
//!
//! The service is a *passive* state machine: the owning protocol embeds
//! one, calls [`PeerSampling::initiate`] from its round handler, routes the
//! returned buffer through its own message enum, and feeds received buffers
//! back in.

use crate::entry::Entry;
use crate::view::View;
use rand::rngs::SmallRng;
use vitis_sim::event::NodeIdx;

/// Common interface of gossip peer-sampling implementations.
pub trait PeerSampling<P: Clone> {
    /// Advance one gossip round (ages descriptors).
    fn tick(&mut self);

    /// The current sample of known peers — `getSampleNodes()` in the
    /// paper's Algorithm 2.
    fn sample(&self) -> &[Entry<P>];

    /// Seed the view from bootstrap contacts.
    fn bootstrap(&mut self, contacts: &[Entry<P>], self_addr: NodeIdx);

    /// Begin an exchange: pick a partner and build the buffer to send.
    /// Returns `None` while the view is empty.
    fn initiate(
        &mut self,
        self_entry: &Entry<P>,
        rng: &mut SmallRng,
    ) -> Option<(NodeIdx, Vec<Entry<P>>)>;

    /// Handle an incoming exchange request: return the reply buffer and
    /// merge the received one.
    fn on_request(
        &mut self,
        self_entry: &Entry<P>,
        from: NodeIdx,
        incoming: &[Entry<P>],
        rng: &mut SmallRng,
    ) -> Vec<Entry<P>>;

    /// Handle the reply to an exchange this node initiated.
    fn on_response(&mut self, self_addr: NodeIdx, incoming: &[Entry<P>]);

    /// Drop a peer known to be dead (failure-detector feedback).
    fn remove(&mut self, addr: NodeIdx);
}

/// Newscast: on each exchange, both sides send their whole view plus a fresh
/// self-descriptor, and both keep the freshest `capacity` of the union.
#[derive(Clone, Debug)]
pub struct Newscast<P> {
    view: View<P>,
}

impl<P: Clone> Newscast<P> {
    /// Newscast with a view of `capacity` descriptors.
    pub fn new(capacity: usize) -> Self {
        Newscast {
            view: View::new(capacity),
        }
    }

    /// Heap bytes of the view.
    pub fn heap_bytes(&self) -> u64 {
        self.view.heap_bytes()
    }

    fn buffer(&self, self_entry: &Entry<P>) -> Vec<Entry<P>> {
        let mut buf = self.view.to_vec();
        buf.push(self_entry.refreshed());
        buf
    }
}

impl<P: Clone> PeerSampling<P> for Newscast<P> {
    fn tick(&mut self) {
        self.view.age_all();
    }

    fn sample(&self) -> &[Entry<P>] {
        self.view.entries()
    }

    fn bootstrap(&mut self, contacts: &[Entry<P>], self_addr: NodeIdx) {
        self.view.merge(contacts, self_addr);
    }

    fn initiate(
        &mut self,
        self_entry: &Entry<P>,
        rng: &mut SmallRng,
    ) -> Option<(NodeIdx, Vec<Entry<P>>)> {
        let partner = self.view.random(rng)?.addr;
        Some((partner, self.buffer(self_entry)))
    }

    fn on_request(
        &mut self,
        self_entry: &Entry<P>,
        _from: NodeIdx,
        incoming: &[Entry<P>],
        _rng: &mut SmallRng,
    ) -> Vec<Entry<P>> {
        let reply = self.buffer(self_entry);
        self.view.merge(incoming, self_entry.addr);
        reply
    }

    fn on_response(&mut self, self_addr: NodeIdx, incoming: &[Entry<P>]) {
        self.view.merge(incoming, self_addr);
    }

    fn remove(&mut self, addr: NodeIdx) {
        self.view.remove(addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::Id;
    use rand::SeedableRng;

    fn e(addr: u32, age: u16) -> Entry<()> {
        Entry {
            addr: NodeIdx(addr),
            id: Id(addr as u64),
            age,
            payload: (),
        }
    }

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(11)
    }

    #[test]
    fn newscast_exchange_spreads_fresh_self_entries() {
        let mut a: Newscast<()> = Newscast::new(4);
        let mut b: Newscast<()> = Newscast::new(4);
        let ea = e(0, 0);
        let eb = e(1, 0);
        a.bootstrap(std::slice::from_ref(&eb), ea.addr);
        let mut r = rng();
        let (to, buf) = a.initiate(&ea, &mut r).unwrap();
        assert_eq!(to, NodeIdx(1));
        let reply = b.on_request(&eb, ea.addr, &buf, &mut r);
        a.on_response(ea.addr, &reply);
        // b learned a fresh descriptor of a, and a did not store itself.
        assert!(b.sample().iter().any(|x| x.addr == ea.addr && x.age == 0));
        assert!(!a.sample().iter().any(|x| x.addr == ea.addr));
    }

    #[test]
    fn newscast_initiate_needs_nonempty_view() {
        let mut a: Newscast<()> = Newscast::new(4);
        assert!(a.initiate(&e(0, 0), &mut rng()).is_none());
    }

    #[test]
    fn newscast_tick_ages_view() {
        let mut a: Newscast<()> = Newscast::new(4);
        a.bootstrap(&[e(1, 0)], NodeIdx(0));
        a.tick();
        assert_eq!(a.sample()[0].age, 1);
    }

    /// Views must converge to fresh, live samples under repeated
    /// exchanges in a tiny fully-simulated loop.
    #[test]
    fn repeated_newscast_keeps_entries_fresh() {
        let n = 8u32;
        let mut svcs: Vec<Newscast<()>> = (0..n).map(|_| Newscast::new(4)).collect();
        let selfs: Vec<Entry<()>> = (0..n).map(|i| e(i, 0)).collect();
        // Ring bootstrap.
        for i in 0..n as usize {
            let next = selfs[(i + 1) % n as usize].clone();
            svcs[i].bootstrap(&[next], NodeIdx(i as u32));
        }
        let mut r = rng();
        for _round in 0..30 {
            for i in 0..n as usize {
                svcs[i].tick();
                if let Some((to, buf)) = {
                    let se = selfs[i].clone();
                    svcs[i].initiate(&se, &mut r)
                } {
                    let se_to = selfs[to.index()].clone();
                    let reply =
                        svcs[to.index()].on_request(&se_to, NodeIdx(i as u32), &buf, &mut r);
                    svcs[i].on_response(NodeIdx(i as u32), &reply);
                }
            }
        }
        // Every view is full and reasonably fresh.
        for (i, s) in svcs.iter().enumerate() {
            assert_eq!(s.sample().len(), 4, "node {i} view not full");
            assert!(
                s.sample().iter().all(|x| x.age < 10),
                "node {i} has stale entries"
            );
        }
    }
}
