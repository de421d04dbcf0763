//! Static system layout.
//!
//! Protocol processes need to know which simulated processes are the `n`
//! servers (in their agreed total order), how many crashes `f` must be
//! tolerated, and derived quantities such as the majority quorum size and the
//! set `D` of the first `f + 1` servers used by the message-disperse
//! primitives.

use soda_simnet::ProcessId;

/// The static layout of one emulated atomic object: the ordered server list
/// and the fault-tolerance parameter `f`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Layout {
    servers: Vec<ProcessId>,
    f: usize,
}

impl Layout {
    /// Creates a layout.
    ///
    /// # Panics
    /// Panics if `f > (n - 1) / 2` (SODA requires `f ≤ (n−1)/2` so that
    /// majorities intersect) or if the server list is empty.
    pub fn new(servers: Vec<ProcessId>, f: usize) -> Self {
        assert!(!servers.is_empty(), "layout requires at least one server");
        let n = servers.len();
        assert!(
            f <= (n - 1) / 2,
            "SODA requires f <= (n-1)/2, got f={f} with n={n}"
        );
        Layout { servers, f }
    }

    /// Number of servers `n`.
    pub fn n(&self) -> usize {
        self.servers.len()
    }

    /// Maximum number of server crashes tolerated.
    pub fn f(&self) -> usize {
        self.f
    }

    /// Majority quorum size `⌊n/2⌋ + 1`.
    pub fn majority(&self) -> usize {
        self.n() / 2 + 1
    }

    /// The ordered server list.
    pub fn servers(&self) -> &[ProcessId] {
        &self.servers
    }

    /// Every server but `id`, in the agreed order: the peers a server fans a
    /// request out to.
    pub fn peers_of(&self, id: ProcessId) -> impl Iterator<Item = ProcessId> + '_ {
        self.servers.iter().copied().filter(move |&s| s != id)
    }

    /// Process id of the server with the given rank (0-based position in the
    /// agreed order).
    pub fn server(&self, rank: usize) -> ProcessId {
        self.servers[rank]
    }

    /// The set `D`: ranks of the first `f + 1` servers, used as the relay
    /// backbone of the message-disperse primitives.
    pub fn relay_set(&self) -> std::ops::Range<usize> {
        0..(self.f + 1).min(self.n())
    }

    /// Whether the given rank belongs to the relay set `D`.
    pub fn in_relay_set(&self, rank: usize) -> bool {
        rank < (self.f + 1).min(self.n())
    }

    /// Maximum `f` for which SODA (and ABD) can be configured on `n` servers:
    /// `⌊(n−1)/2⌋` (`fmax` in Table I).
    pub fn fmax(n: usize) -> usize {
        (n.saturating_sub(1)) / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn servers(n: usize) -> Vec<ProcessId> {
        (0..n as u32).map(ProcessId).collect()
    }

    #[test]
    fn derived_quantities() {
        let l = Layout::new(servers(10), 4);
        assert_eq!(l.n(), 10);
        assert_eq!(l.f(), 4);
        assert_eq!(l.majority(), 6);
        assert_eq!(l.relay_set(), 0..5);
        assert!(l.in_relay_set(0));
        assert!(l.in_relay_set(4));
        assert!(!l.in_relay_set(5));
    }

    #[test]
    fn rank_lookup() {
        let l = Layout::new(vec![ProcessId(7), ProcessId(3), ProcessId(9)], 1);
        assert_eq!(l.server(2), ProcessId(9));
    }

    #[test]
    fn fmax_matches_paper() {
        assert_eq!(Layout::fmax(10), 4); // n even: n/2 - 1
        assert_eq!(Layout::fmax(11), 5);
        assert_eq!(Layout::fmax(1), 0);
        assert_eq!(Layout::fmax(2), 0);
    }

    #[test]
    #[should_panic(expected = "f <= (n-1)/2")]
    fn rejects_too_large_f() {
        let _ = Layout::new(servers(4), 2);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn rejects_empty_server_list() {
        let _ = Layout::new(vec![], 0);
    }

    #[test]
    fn majorities_intersect() {
        for n in 1..=20 {
            let l = Layout::new(servers(n), Layout::fmax(n));
            assert!(2 * l.majority() > l.n(), "n={n}");
            // A majority survives f crashes.
            assert!(l.majority() <= l.n() - l.f(), "n={n}");
        }
    }
}
