//! Fat-tree topologies and up/down routing (§4.1).
//!
//! The builder produces the 2- and 3-tier Clos fabrics the paper simulates:
//! hosts attach to top-of-rack (T0) switches; T0s connect to aggregation
//! (T1) switches; in 3-tier fabrics pods of T0/T1 switches connect to core
//! (T2) groups. Oversubscription `o:1` shrinks the ToR uplink count relative
//! to its host ports.
//!
//! Routing is standard fat-tree up/down: a packet climbs (ECMP-hashed on its
//! entropy value) until it reaches a switch that is an ancestor of its
//! destination, then descends deterministically.

use crate::ids::{HostId, LinkId, NodeRef, SwitchId};

/// Which tier a switch belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Top-of-rack.
    T0,
    /// Aggregation.
    T1,
    /// Core (3-tier fabrics only).
    T2,
}

/// Static description of one switch.
#[derive(Debug, Clone)]
pub struct SwitchMeta {
    /// Arena id.
    pub id: SwitchId,
    /// Tier.
    pub tier: Tier,
    /// Pod index (T0/T1; core group index for T2).
    pub pod: u32,
    /// Index within its tier, pod-local for 3-tier T0/T1.
    pub idx: u32,
    /// Uplinks, ordered.
    pub up_links: LinkRange,
    /// Downlinks, ordered by child index (host slot or child switch slot).
    pub down_links: LinkRange,
    /// Per-switch ECMP hash salt.
    pub salt: u64,
    /// False while the switch has failed.
    pub alive: bool,
}

/// A compact per-switch link table: an arithmetic progression of
/// [`LinkId`]s (`base`, `base + stride`, …).
///
/// The builder creates links in a fixed nested-loop order, which makes
/// every tier's uplink and downlink table an arithmetic progression — so
/// a 12-byte descriptor replaces a materialized `Vec<LinkId>` per switch.
/// That is what keeps a 100k-host fabric's route state in memory: the
/// tables are *computed*, not stored, and routing stays allocation-free
/// (a [`RouteChoice::Up`] carries the descriptor by value instead of
/// borrowing a slice). `topology_tables_match_link_scan` pins the
/// descriptors against tables rebuilt by scanning the links vec.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkRange {
    base: u32,
    stride: u32,
    count: u32,
}

impl LinkRange {
    /// The empty table (a leaf tier with no uplinks).
    pub const EMPTY: LinkRange = LinkRange {
        base: 0,
        stride: 0,
        count: 0,
    };

    /// A table of `count` links starting at `base`, `stride` ids apart.
    pub fn new(base: u32, stride: u32, count: u32) -> LinkRange {
        LinkRange {
            base,
            stride,
            count,
        }
    }

    /// Number of links in the table.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The `i`-th link.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len()`.
    pub fn at(&self, i: usize) -> LinkId {
        assert!(i < self.count as usize, "link table index out of range");
        LinkId(self.base + self.stride * i as u32)
    }

    /// Iterates the table in slot order.
    pub fn iter(self) -> impl Iterator<Item = LinkId> {
        (0..self.count).map(move |i| LinkId(self.base + self.stride * i))
    }
}

/// A unidirectional link endpoint description produced by the builder.
#[derive(Debug, Clone, Copy)]
pub struct LinkSpec {
    /// Transmitting node.
    pub from: NodeRef,
    /// Receiving node.
    pub to: NodeRef,
}

/// Fat-tree shape parameters.
///
/// `two_tier`/`three_tier` build the paper's canonical fabrics from a switch
/// radix; `two_tier_custom` supports irregular testbeds such as the FPGA
/// cluster (128 endpoints under 2 ToRs with 8 T1s, §4.4).
#[derive(Debug, Clone)]
pub struct FatTreeConfig {
    /// 2 or 3 tiers.
    pub tiers: u8,
    /// Hosts attached to each ToR.
    pub hosts_per_tor: u32,
    /// Uplinks per ToR (= T1 count in 2-tier, T1s per pod in 3-tier).
    pub tor_uplinks: u32,
    /// ToR count (total in 2-tier; per pod in 3-tier).
    pub tors: u32,
    /// Pod count (1 for 2-tier).
    pub pods: u32,
    /// Uplinks per T1 switch (3-tier only; cores per core-group).
    pub t1_uplinks: u32,
}

impl FatTreeConfig {
    /// A full 2-tier fat tree from switch radix `k` and oversubscription `o:1`.
    ///
    /// Hosts: `k * k * o / (o + 1)^2 * (o + 1) = k * hosts_per_tor`... more
    /// simply: each ToR has `k*o/(o+1)` host ports and `k/(o+1)` uplinks, and
    /// there are `k` ToRs (one per T1 port).
    ///
    /// # Panics
    ///
    /// Panics unless `k` is divisible by `o + 1`.
    pub fn two_tier(k: u32, oversubscription: u32) -> FatTreeConfig {
        let o = oversubscription.max(1);
        assert!(
            k.is_multiple_of(o + 1),
            "radix {k} not divisible by {}",
            o + 1
        );
        let tor_uplinks = k / (o + 1);
        let hosts_per_tor = k - tor_uplinks;
        FatTreeConfig {
            tiers: 2,
            hosts_per_tor,
            tor_uplinks,
            tors: k,
            pods: 1,
            t1_uplinks: 0,
        }
    }

    /// An arbitrary 2-tier fabric (e.g. the FPGA testbed shape).
    pub fn two_tier_custom(tors: u32, hosts_per_tor: u32, tor_uplinks: u32) -> FatTreeConfig {
        FatTreeConfig {
            tiers: 2,
            hosts_per_tor,
            tor_uplinks,
            tors,
            pods: 1,
            t1_uplinks: 0,
        }
    }

    /// A full 3-tier fat tree from radix `k` and ToR oversubscription `o:1`.
    ///
    /// With `o = 1` this is the classic k-ary fat tree: `k` pods, `k/2` ToRs
    /// and `k/2` T1s per pod, `(k/2)^2` cores, `k^3/4` hosts.
    pub fn three_tier(k: u32, oversubscription: u32) -> FatTreeConfig {
        let o = oversubscription.max(1);
        assert!(
            k.is_multiple_of(o + 1),
            "radix {k} not divisible by {}",
            o + 1
        );
        assert!(k.is_multiple_of(2), "radix must be even");
        let tor_uplinks = k / (o + 1);
        let hosts_per_tor = k - tor_uplinks;
        FatTreeConfig {
            tiers: 3,
            hosts_per_tor,
            tor_uplinks,
            tors: k / 2,
            pods: k,
            t1_uplinks: k / 2,
        }
    }

    /// Total number of hosts.
    pub fn n_hosts(&self) -> u32 {
        self.hosts_per_tor * self.tors * self.pods
    }

    /// Total ToR count.
    pub fn n_tors(&self) -> u32 {
        self.tors * self.pods
    }

    /// Total T1 count.
    pub fn n_t1(&self) -> u32 {
        self.tor_uplinks * self.pods
    }

    /// Total core count (0 for 2-tier).
    pub fn n_cores(&self) -> u32 {
        if self.tiers == 2 {
            0
        } else {
            self.tor_uplinks * self.t1_uplinks
        }
    }

    /// Switch-to-switch cables, as many as [`Topology::cable_pairs`] will
    /// list: every ToR's uplinks plus, in a 3-tier fabric, every T1's.
    pub fn n_cables(&self) -> u64 {
        let t1_up = if self.tiers == 2 { 0 } else { self.t1_uplinks };
        (u64::from(self.pods) * u64::from(self.tor_uplinks))
            .saturating_mul(u64::from(self.tors) + u64::from(t1_up))
    }
}

/// The routing decision at a switch.
///
/// Answering a routing query never allocates: `Up` hands back the
/// switch's uplink table as a 12-byte [`LinkRange`] descriptor by value
/// and the caller picks an index (see
/// [`RoutingView::select_uplink`](crate::engine::RoutingView::select_uplink)).
#[derive(Debug, Clone, Copy)]
pub enum RouteChoice {
    /// Descend on this specific link.
    Down(LinkId),
    /// Ascend; pick among these equal-cost uplinks.
    Up(LinkRange),
}

/// A built topology: switches, link endpoints, host attachments.
#[derive(Debug)]
pub struct Topology {
    /// Shape parameters.
    pub cfg: FatTreeConfig,
    /// Host count.
    pub n_hosts: u32,
    /// Switch metadata (T0s first, then T1s, then T2s).
    pub switches: Vec<SwitchMeta>,
    /// Link endpoint specs, indexed by `LinkId`.
    pub links: Vec<LinkSpec>,
    /// Per-host uplink (host → ToR).
    pub host_up: Vec<LinkId>,
    /// Per-host downlink (ToR → host).
    pub host_down: Vec<LinkId>,
}

impl Topology {
    /// Builds the fabric described by `cfg`, salting switches from `seed`.
    pub fn build(cfg: FatTreeConfig, seed: u64) -> Topology {
        let mut sm = seed ^ 0x7070_1057_BADC_AB1E;
        Builder::new(cfg, &mut sm).build()
    }

    /// The ToR switch a host hangs off.
    pub fn tor_of(&self, host: HostId) -> SwitchId {
        SwitchId(host.0 / self.cfg.hosts_per_tor)
    }

    /// Routes a packet for `dst` arriving at `sw`.
    ///
    /// Allocation-free: `Down` carries the link id, `Up` carries the
    /// switch's uplink-table descriptor by value. Returns `None` if the
    /// switch cannot make progress (should not happen in a well-formed
    /// fabric).
    pub fn route(&self, sw: SwitchId, dst: HostId) -> Option<RouteChoice> {
        let meta = &self.switches[sw.index()];
        let cfg = &self.cfg;
        let dst_tor_global = dst.0 / cfg.hosts_per_tor;
        match meta.tier {
            Tier::T0 => {
                let my_tor_global = meta.pod * cfg.tors + meta.idx;
                if dst_tor_global == my_tor_global {
                    let slot = (dst.0 % cfg.hosts_per_tor) as usize;
                    Some(RouteChoice::Down(meta.down_links.at(slot)))
                } else {
                    Some(RouteChoice::Up(meta.up_links))
                }
            }
            Tier::T1 => {
                let dst_pod = dst_tor_global / cfg.tors;
                if cfg.tiers == 2 || dst_pod == meta.pod {
                    let slot = (dst_tor_global % cfg.tors) as usize;
                    Some(RouteChoice::Down(meta.down_links.at(slot)))
                } else {
                    Some(RouteChoice::Up(meta.up_links))
                }
            }
            Tier::T2 => {
                let dst_pod = (dst_tor_global / cfg.tors) as usize;
                Some(RouteChoice::Down(meta.down_links.at(dst_pod)))
            }
        }
    }

    /// All bidirectional switch-to-switch cables, as `(up_link, down_link)`
    /// unidirectional pairs, for the failure experiments.
    pub fn cable_pairs(&self) -> Vec<(LinkId, LinkId)> {
        // Each switch's uplinks pair with the peer switch's downlink back.
        self.switches
            .iter()
            .flat_map(|meta| meta.up_links.iter())
            .map(|up| (up, Topology::reverse(up)))
            .collect()
    }

    /// The `(up, down)` cable pairs from one specific ToR to its T1s.
    pub fn tor_uplink_pairs(&self, tor: SwitchId) -> Vec<(LinkId, LinkId)> {
        let meta = &self.switches[tor.index()];
        assert!(matches!(meta.tier, Tier::T0), "not a ToR: {tor}");
        meta.up_links
            .iter()
            .map(|up| (up, Topology::reverse(up)))
            .collect()
    }

    /// The other direction of `l`'s cable. The builder creates every cable
    /// as two consecutive ids from an even one, `a → b` then `b → a`.
    pub fn reverse(l: LinkId) -> LinkId {
        LinkId(l.0 ^ 1)
    }

    /// All links adjacent to a switch (both directions), in id order, for
    /// switch failures: its own links and their reverses.
    pub fn switch_links(&self, sw: SwitchId) -> Vec<LinkId> {
        let meta = &self.switches[sw.index()];
        let mut out: Vec<LinkId> = meta
            .up_links
            .iter()
            .chain(meta.down_links.iter())
            .flat_map(|l| [l, Topology::reverse(l)])
            .collect();
        out.sort_unstable();
        out
    }

    /// T1 switches (useful for targeted failures).
    pub fn t1_switches(&self) -> Vec<SwitchId> {
        self.switches
            .iter()
            .filter(|m| matches!(m.tier, Tier::T1))
            .map(|m| m.id)
            .collect()
    }

    /// T0 switches.
    pub fn t0_switches(&self) -> Vec<SwitchId> {
        self.switches
            .iter()
            .filter(|m| matches!(m.tier, Tier::T0))
            .map(|m| m.id)
            .collect()
    }
}

struct Builder {
    cfg: FatTreeConfig,
    salts: Vec<u64>,
    switches: Vec<SwitchMeta>,
    links: Vec<LinkSpec>,
    host_up: Vec<LinkId>,
    host_down: Vec<LinkId>,
}

impl Builder {
    fn new(cfg: FatTreeConfig, seed: &mut u64) -> Builder {
        let n_switches = (cfg.n_tors() + cfg.n_t1() + cfg.n_cores()) as usize;
        let salts = (0..n_switches)
            .map(|_| crate::rng::splitmix64(seed))
            .collect();
        Builder {
            cfg,
            salts,
            switches: Vec::new(),
            links: Vec::new(),
            host_up: Vec::new(),
            host_down: Vec::new(),
        }
    }

    fn add_link(&mut self, from: NodeRef, to: NodeRef) -> LinkId {
        let id = LinkId(self.links.len() as u32);
        self.links.push(LinkSpec { from, to });
        id
    }

    fn build(mut self) -> Topology {
        let cfg = self.cfg.clone();
        let n_tors = cfg.n_tors();
        let n_t1 = cfg.n_t1();
        let n_cores = cfg.n_cores();
        // Switch ids: [0, n_tors) T0, [n_tors, n_tors+n_t1) T1, rest T2.
        for pod in 0..cfg.pods {
            for t in 0..cfg.tors {
                let id = SwitchId(pod * cfg.tors + t);
                self.switches.push(SwitchMeta {
                    id,
                    tier: Tier::T0,
                    pod,
                    idx: t,
                    up_links: LinkRange::EMPTY,
                    down_links: LinkRange::EMPTY,
                    salt: self.salts[id.index()],
                    alive: true,
                });
            }
        }
        for pod in 0..cfg.pods {
            for g in 0..cfg.tor_uplinks {
                let id = SwitchId(n_tors + pod * cfg.tor_uplinks + g);
                self.switches.push(SwitchMeta {
                    id,
                    tier: Tier::T1,
                    pod,
                    idx: g,
                    up_links: LinkRange::EMPTY,
                    down_links: LinkRange::EMPTY,
                    salt: self.salts[id.index()],
                    alive: true,
                });
            }
        }
        for g in 0..cfg.tor_uplinks {
            for c in 0..cfg.t1_uplinks {
                let id = SwitchId(n_tors + n_t1 + g * cfg.t1_uplinks + c);
                self.switches.push(SwitchMeta {
                    id,
                    tier: Tier::T2,
                    pod: g,
                    idx: c,
                    up_links: LinkRange::EMPTY,
                    down_links: LinkRange::EMPTY,
                    salt: self.salts[id.index()],
                    alive: true,
                });
            }
        }
        debug_assert_eq!(self.switches.len(), (n_tors + n_t1 + n_cores) as usize);

        // Hosts <-> ToRs.
        let n_hosts = cfg.n_hosts();
        for h in 0..n_hosts {
            let host = HostId(h);
            let tor = SwitchId(h / cfg.hosts_per_tor);
            let up = self.add_link(NodeRef::Host(host), NodeRef::Switch(tor));
            let down = self.add_link(NodeRef::Switch(tor), NodeRef::Host(host));
            self.host_up.push(up);
            self.host_down.push(down);
        }

        // ToRs <-> T1s (within pod for 3-tier; global for 2-tier).
        for pod in 0..cfg.pods {
            for t in 0..cfg.tors {
                let tor = SwitchId(pod * cfg.tors + t);
                for g in 0..cfg.tor_uplinks {
                    let t1 = SwitchId(n_tors + pod * cfg.tor_uplinks + g);
                    self.add_link(NodeRef::Switch(tor), NodeRef::Switch(t1));
                    self.add_link(NodeRef::Switch(t1), NodeRef::Switch(tor));
                }
            }
        }

        // T1s <-> cores (3-tier only).
        if cfg.tiers == 3 {
            for pod in 0..cfg.pods {
                for g in 0..cfg.tor_uplinks {
                    let t1 = SwitchId(n_tors + pod * cfg.tor_uplinks + g);
                    for c in 0..cfg.t1_uplinks {
                        let core = SwitchId(n_tors + n_t1 + g * cfg.t1_uplinks + c);
                        self.add_link(NodeRef::Switch(t1), NodeRef::Switch(core));
                        self.add_link(NodeRef::Switch(core), NodeRef::Switch(t1));
                    }
                }
            }
        }

        // Link tables as closed-form descriptors. The creation loops above
        // lay links out so every table is an arithmetic progression of ids;
        // the formulas below reproduce exactly the tables the loops used to
        // materialize per switch (including the T1 slot-per-ToR and core
        // slot-per-pod invariants the `route` method relies on). With
        // `l0 = 2·hosts` and `l1 = l0 + 2·tors·K` (K = ToR uplinks,
        // C = T1 uplinks):
        //
        //   T0 T:      down = 2·T·H + 1           stride 2    len H
        //              up   = l0 + 2·T·K          stride 2    len K
        //   T1 (p,g):  down = l0 + 2(p·tors·K+g)+1 stride 2K  len tors
        //              up   = l1 + 2(p·K+g)·C     stride 2    len C
        //   T2 (g,c):  down = l1 + 2(g·C+c)+1     stride 2KC  len pods
        let l0 = 2 * n_hosts;
        let l1 = l0 + 2 * n_tors * cfg.tor_uplinks;
        let (k, c) = (cfg.tor_uplinks, cfg.t1_uplinks);
        for meta in &mut self.switches {
            match meta.tier {
                Tier::T0 => {
                    let t = meta.pod * cfg.tors + meta.idx;
                    meta.down_links =
                        LinkRange::new(2 * t * cfg.hosts_per_tor + 1, 2, cfg.hosts_per_tor);
                    meta.up_links = LinkRange::new(l0 + 2 * t * k, 2, k);
                }
                Tier::T1 => {
                    meta.down_links = LinkRange::new(
                        l0 + 2 * (meta.pod * cfg.tors * k + meta.idx) + 1,
                        2 * k,
                        cfg.tors,
                    );
                    meta.up_links = if cfg.tiers == 3 {
                        LinkRange::new(l1 + 2 * (meta.pod * k + meta.idx) * c, 2, c)
                    } else {
                        LinkRange::EMPTY
                    };
                }
                Tier::T2 => {
                    meta.down_links =
                        LinkRange::new(l1 + 2 * (meta.pod * c + meta.idx) + 1, 2 * k * c, cfg.pods);
                    meta.up_links = LinkRange::EMPTY;
                }
            }
        }

        Topology {
            n_hosts,
            cfg,
            switches: self.switches,
            links: self.links,
            host_up: self.host_up,
            host_down: self.host_down,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_tier_counts_match_paper_128() {
        // Radix-16, 1:1 — the paper's 128-node microbenchmark fabric with
        // 8 uplinks per ToR.
        let cfg = FatTreeConfig::two_tier(16, 1);
        assert_eq!(cfg.n_hosts(), 128);
        assert_eq!(cfg.hosts_per_tor, 8);
        assert_eq!(cfg.tor_uplinks, 8);
        assert_eq!(cfg.n_tors(), 16);
        assert_eq!(cfg.n_t1(), 8);
    }

    #[test]
    fn two_tier_8192_nodes() {
        let cfg = FatTreeConfig::two_tier(128, 1);
        assert_eq!(cfg.n_hosts(), 8192);
    }

    #[test]
    fn three_tier_1024_nodes() {
        let cfg = FatTreeConfig::three_tier(16, 1);
        assert_eq!(cfg.n_hosts(), 1024);
        assert_eq!(cfg.n_cores(), 64);
    }

    #[test]
    fn oversubscription_shrinks_uplinks() {
        let cfg = FatTreeConfig::two_tier(16, 3);
        assert_eq!(cfg.tor_uplinks, 4);
        assert_eq!(cfg.hosts_per_tor, 12);
    }

    fn walk(topo: &Topology, src: HostId, dst: HostId, ev: u16) -> (usize, bool) {
        // Follow the route, always taking the hash choice on Up.
        let mut hops = 0;
        let mut at = topo.links[topo.host_up[src.index()].index()].to;
        loop {
            hops += 1;
            assert!(hops < 16, "routing loop detected");
            match at {
                NodeRef::Host(h) => return (hops, h == dst),
                NodeRef::Switch(sw) => {
                    let choice = topo.route(sw, dst).expect("route");
                    let link = match choice {
                        RouteChoice::Down(l) => l,
                        RouteChoice::Up(candidates) => {
                            let meta = &topo.switches[sw.index()];
                            let i =
                                crate::hash::ecmp_select(src, dst, ev, meta.salt, candidates.len());
                            candidates.at(i)
                        }
                    };
                    at = topo.links[link.index()].to;
                }
            }
        }
    }

    #[test]
    fn two_tier_all_pairs_reachable() {
        let topo = Topology::build(FatTreeConfig::two_tier(8, 1), 1);
        let n = topo.n_hosts;
        for s in 0..n {
            for d in 0..n {
                if s == d {
                    continue;
                }
                for ev in [0u16, 7, 999] {
                    let (hops, ok) = walk(&topo, HostId(s), HostId(d), ev);
                    assert!(ok, "h{s} -> h{d} failed");
                    let same_tor = s / topo.cfg.hosts_per_tor == d / topo.cfg.hosts_per_tor;
                    if same_tor {
                        assert_eq!(hops, 2, "same-rack path must be 2 hops");
                    } else {
                        assert_eq!(hops, 4, "cross-rack path must be 4 hops");
                    }
                }
            }
        }
    }

    #[test]
    fn three_tier_all_pairs_reachable() {
        let topo = Topology::build(FatTreeConfig::three_tier(4, 1), 1);
        let n = topo.n_hosts;
        assert_eq!(n, 16);
        for s in 0..n {
            for d in 0..n {
                if s == d {
                    continue;
                }
                for ev in [0u16, 3, 12345] {
                    let (hops, ok) = walk(&topo, HostId(s), HostId(d), ev);
                    assert!(ok, "h{s} -> h{d} (ev {ev}) failed");
                    assert!(hops <= 6, "path too long: {hops}");
                }
            }
        }
    }

    #[test]
    fn different_evs_reach_different_t1s() {
        let topo = Topology::build(FatTreeConfig::two_tier(16, 1), 3);
        // From the first ToR, count distinct uplinks chosen across EVs.
        let tor = topo.tor_of(HostId(0));
        let meta = &topo.switches[tor.index()];
        let mut used = std::collections::BTreeSet::new();
        for ev in 0..512u16 {
            let i = crate::hash::ecmp_select(HostId(0), HostId(127), ev, meta.salt, 8);
            used.insert(i);
        }
        assert_eq!(used.len(), 8, "EVs must cover all uplinks");
    }

    #[test]
    fn cable_pairs_are_symmetric() {
        let topo = Topology::build(FatTreeConfig::two_tier(8, 1), 5);
        let pairs = topo.cable_pairs();
        // 8 ToRs x 4 uplinks = 32 cables.
        assert_eq!(pairs.len(), 32);
        for cfg in [
            FatTreeConfig::two_tier(8, 1),
            FatTreeConfig::two_tier(9, 2),
            FatTreeConfig::two_tier_custom(2, 64, 8),
            FatTreeConfig::three_tier(4, 1),
            FatTreeConfig::three_tier(6, 2),
        ] {
            let cables = Topology::build(cfg.clone(), 5).cable_pairs().len();
            assert_eq!(cfg.n_cables() as usize, cables, "{cfg:?}");
        }
        for (up, down) in pairs {
            let u = &topo.links[up.index()];
            let d = &topo.links[down.index()];
            assert_eq!(u.from, d.to);
            assert_eq!(u.to, d.from);
        }
    }

    #[test]
    fn tor_uplink_pairs_count() {
        let topo = Topology::build(FatTreeConfig::two_tier(16, 1), 5);
        let pairs = topo.tor_uplink_pairs(SwitchId(0));
        assert_eq!(pairs.len(), 8);
    }

    #[test]
    fn switch_links_cover_both_directions() {
        let topo = Topology::build(FatTreeConfig::two_tier(8, 1), 5);
        // A T1 switch has 8 down links and 8 incoming links (no ups).
        let t1 = topo.t1_switches()[0];
        let links = topo.switch_links(t1);
        assert_eq!(links.len(), 16);
    }

    /// Rebuilds every switch's link tables by scanning the links vec (the
    /// representation the pre-descriptor builder materialized) and checks
    /// the closed-form [`LinkRange`] descriptors reproduce them exactly —
    /// including the T1 slot-per-ToR and core slot-per-pod orderings.
    fn assert_tables_match_link_scan(topo: &Topology) {
        // Every link's reverse is its cable's other direction.
        for (i, spec) in topo.links.iter().enumerate() {
            let back = &topo.links[Topology::reverse(LinkId(i as u32)).index()];
            assert_eq!((back.from, back.to), (spec.to, spec.from), "link {i}");
        }
        for meta in &topo.switches {
            let me = NodeRef::Switch(meta.id);
            let mut up_scan: Vec<LinkId> = Vec::new();
            let mut down_scan: Vec<LinkId> = Vec::new();
            for (i, spec) in topo.links.iter().enumerate() {
                if spec.from != me {
                    continue;
                }
                let id = LinkId(i as u32);
                match spec.to {
                    NodeRef::Host(_) => down_scan.push(id),
                    NodeRef::Switch(peer) => {
                        let peer_meta = &topo.switches[peer.index()];
                        let ascending = matches!(
                            (meta.tier, peer_meta.tier),
                            (Tier::T0, _) | (Tier::T1, Tier::T2)
                        );
                        if ascending {
                            up_scan.push(id);
                        } else {
                            down_scan.push(id);
                        }
                    }
                }
            }
            // Down tables are slot-ordered by child index, which for the
            // switch tiers means destination switch id order (the old
            // builder sorted T1 tables to guarantee this).
            down_scan.sort_by_key(|l| match topo.links[l.index()].to {
                NodeRef::Host(h) => h.0,
                NodeRef::Switch(s) => s.0,
            });
            let up: Vec<LinkId> = meta.up_links.iter().collect();
            let down: Vec<LinkId> = meta.down_links.iter().collect();
            assert_eq!(up, up_scan, "uplink table mismatch at {}", meta.id);
            assert_eq!(down, down_scan, "downlink table mismatch at {}", meta.id);
        }
    }

    #[test]
    fn topology_tables_match_link_scan() {
        assert_tables_match_link_scan(&Topology::build(FatTreeConfig::two_tier(8, 1), 1));
        assert_tables_match_link_scan(&Topology::build(FatTreeConfig::two_tier(16, 3), 2));
        assert_tables_match_link_scan(&Topology::build(
            FatTreeConfig::two_tier_custom(2, 64, 8),
            3,
        ));
        assert_tables_match_link_scan(&Topology::build(FatTreeConfig::three_tier(4, 1), 4));
        assert_tables_match_link_scan(&Topology::build(FatTreeConfig::three_tier(8, 3), 5));
    }

    #[test]
    fn hundred_k_host_topology_fits_in_memory() {
        // 1600 ToRs × 64 hosts = 102 400 hosts, 307 200 links, 1632
        // switches. With materialized per-switch Vec tables this held
        // ~1600·(64+32) + 32·1600 link ids in Vecs; with descriptors it is
        // 24 bytes of table state per switch, and building stays cheap
        // enough to run in a unit test.
        let cfg = FatTreeConfig::two_tier_custom(1600, 64, 32);
        let topo = Topology::build(cfg, 7);
        assert_eq!(topo.n_hosts, 102_400);
        assert_eq!(topo.links.len(), 2 * 102_400 + 2 * 1600 * 32);
        assert_eq!(topo.switches.len(), 1632);
        // Spot-check routing across the fabric.
        let (hops, ok) = walk(&topo, HostId(0), HostId(102_399), 17);
        assert!(ok);
        assert_eq!(hops, 4);
        let (hops, ok) = walk(&topo, HostId(5), HostId(60), 0);
        assert!(ok);
        assert_eq!(hops, 2, "same-rack path must be 2 hops");
        // The descriptor of the last ToR points at real links.
        let last_tor = &topo.switches[1599];
        assert_eq!(last_tor.down_links.len(), 64);
        assert_eq!(last_tor.up_links.len(), 32);
        for l in last_tor.up_links.iter() {
            assert_eq!(topo.links[l.index()].from, NodeRef::Switch(last_tor.id));
        }
    }

    #[test]
    fn fpga_testbed_shape() {
        // 128 endpoints, 2 ToRs, 8 T1s (§4.4.3).
        let cfg = FatTreeConfig::two_tier_custom(2, 64, 8);
        let topo = Topology::build(cfg, 9);
        assert_eq!(topo.n_hosts, 128);
        assert_eq!(topo.t0_switches().len(), 2);
        assert_eq!(topo.t1_switches().len(), 8);
        let (hops, ok) = walk(&topo, HostId(0), HostId(64), 17);
        assert!(ok);
        assert_eq!(hops, 4);
    }
}
