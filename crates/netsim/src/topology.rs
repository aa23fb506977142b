//! Parametric 3-tier Clos topologies and their link-length inventories.

use mosaic_units::Length;

/// One class of links in the fabric: same tier, same length.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkClass {
    /// Human-readable tier name ("server-tor" etc.).
    pub tier: String,
    /// Number of links of this class.
    pub count: usize,
    /// Physical span each link must cover.
    pub length: Length,
}

/// A folded-Clos (fat-tree-style) fabric described by its radixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClosTopology {
    /// Servers per rack (= server-facing ToR ports).
    pub servers_per_rack: usize,
    /// Racks per row/pod.
    pub racks_per_pod: usize,
    /// Number of pods.
    pub pods: usize,
    /// Uplinks per ToR into the aggregation tier.
    pub tor_uplinks: usize,
    /// Uplinks per aggregation switch into the spine.
    pub agg_uplinks: usize,
    /// Aggregation switches per pod.
    pub aggs_per_pod: usize,
}

impl ClosTopology {
    /// A small cluster: 1024 servers (32 racks × 32 servers, 2 pods).
    pub fn small() -> Self {
        ClosTopology {
            servers_per_rack: 32,
            racks_per_pod: 16,
            pods: 2,
            tor_uplinks: 8,
            agg_uplinks: 8,
            aggs_per_pod: 8,
        }
    }

    /// A large cluster: 65536 servers.
    pub fn large() -> Self {
        ClosTopology {
            servers_per_rack: 32,
            racks_per_pod: 64,
            pods: 32,
            tor_uplinks: 16,
            agg_uplinks: 16,
            aggs_per_pod: 16,
        }
    }

    /// A hyperscale region: 786,432 servers across 192 pods — about
    /// 1.28 M links, the scale where spare exhaustion and ticket rates
    /// diverge from small-fleet extrapolation (experiment F18).
    pub fn hyperscale() -> Self {
        ClosTopology {
            servers_per_rack: 32,
            racks_per_pod: 128,
            pods: 192,
            tor_uplinks: 16,
            agg_uplinks: 16,
            aggs_per_pod: 32,
        }
    }

    /// Total servers.
    pub fn servers(&self) -> usize {
        self.servers_per_rack * self.racks_per_pod * self.pods
    }

    /// The fabric's link inventory with representative lengths:
    /// server↔ToR 2 m (intra-rack), ToR↔agg 20 m (in-row/pod),
    /// agg↔spine 100 m (cross-hall).
    pub fn link_classes(&self) -> Vec<LinkClass> {
        let racks = self.racks_per_pod * self.pods;
        let aggs = self.aggs_per_pod * self.pods;
        vec![
            LinkClass {
                tier: "server-tor".into(),
                count: self.servers(),
                length: Length::from_m(2.0),
            },
            LinkClass {
                tier: "tor-agg".into(),
                count: racks * self.tor_uplinks,
                length: Length::from_m(20.0),
            },
            LinkClass {
                tier: "agg-spine".into(),
                count: aggs * self.agg_uplinks,
                length: Length::from_m(100.0),
            },
        ]
    }

    /// Total links.
    pub fn total_links(&self) -> usize {
        self.link_classes().iter().map(|c| c.count).sum()
    }
}

/// A rail-optimized AI training fabric (the GPU back-end network that
/// motivates much of the paper's power math): every GPU gets one NIC per
/// rail, same-index NICs across a pod connect to one rail switch, and
/// rail switches uplink to a spine for cross-pod traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RailTopology {
    /// GPUs per server.
    pub gpus_per_server: usize,
    /// Servers per pod (= ports per rail switch).
    pub servers_per_pod: usize,
    /// Number of pods.
    pub pods: usize,
    /// Rails (= NICs per GPU-server position; typically = GPUs/server).
    pub rails: usize,
    /// Spine uplinks per rail switch.
    pub rail_uplinks: usize,
}

impl RailTopology {
    /// A 16k-GPU training cluster: 8-GPU servers, 8 rails, 64-server pods.
    pub fn gpu_16k() -> Self {
        RailTopology {
            gpus_per_server: 8,
            servers_per_pod: 64,
            pods: 32,
            rails: 8,
            rail_uplinks: 16,
        }
    }

    /// Total GPUs.
    pub fn gpus(&self) -> usize {
        self.gpus_per_server * self.servers_per_pod * self.pods
    }

    /// The fabric's link inventory. GPU↔rail-switch runs are in-row
    /// (~15 m — squarely Mosaic's band, and today served by expensive
    /// optics because copper cannot span a row); rail↔spine crosses the
    /// hall (~100 m).
    pub fn link_classes(&self) -> Vec<LinkClass> {
        let gpu_links = self.gpus(); // one back-end NIC per GPU
        let rail_switches = self.rails * self.pods;
        vec![
            LinkClass {
                tier: "gpu-rail".into(),
                count: gpu_links,
                length: Length::from_m(15.0),
            },
            LinkClass {
                tier: "rail-spine".into(),
                count: rail_switches * self.rail_uplinks,
                length: Length::from_m(100.0),
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rail_cluster_counts() {
        let t = RailTopology::gpu_16k();
        assert_eq!(t.gpus(), 16384);
        let classes = t.link_classes();
        assert_eq!(classes[0].count, 16384); // one NIC link per GPU
        assert_eq!(classes[1].count, 8 * 32 * 16);
    }

    #[test]
    fn rail_fabric_is_dominated_by_mosaic_band_links() {
        // The motivation: in AI clusters the *majority* of links are
        // in-row runs that copper cannot reach — today's optics tax.
        let t = RailTopology::gpu_16k();
        let classes = t.link_classes();
        let in_band: usize = classes
            .iter()
            .filter(|c| c.length.as_m() > 2.0 && c.length.as_m() <= 50.0)
            .map(|c| c.count)
            .sum();
        let total: usize = classes.iter().map(|c| c.count).sum();
        let frac = in_band as f64 / total as f64;
        assert!(frac > 0.7, "in-band fraction {frac}");
    }

    #[test]
    fn small_cluster_counts() {
        let t = ClosTopology::small();
        assert_eq!(t.servers(), 1024);
        let classes = t.link_classes();
        assert_eq!(classes.len(), 3);
        assert_eq!(classes[0].count, 1024); // server-tor
        assert_eq!(classes[1].count, 32 * 8); // tor-agg
        assert_eq!(classes[2].count, 16 * 8); // agg-spine
    }

    #[test]
    fn short_links_dominate() {
        // The fleet argument: the overwhelming majority of links live in
        // the ≤20 m band where Mosaic plays.
        for t in [ClosTopology::small(), ClosTopology::large()] {
            let classes = t.link_classes();
            let short: usize = classes
                .iter()
                .filter(|c| c.length.as_m() <= 50.0)
                .map(|c| c.count)
                .sum();
            let frac = short as f64 / t.total_links() as f64;
            assert!(frac > 0.8, "short-link fraction {frac}");
        }
    }

    #[test]
    fn large_cluster_scales() {
        let t = ClosTopology::large();
        assert_eq!(t.servers(), 65536);
        assert!(t.total_links() > 90_000);
    }

    #[test]
    fn hyperscale_cluster_exceeds_one_million_links() {
        let t = ClosTopology::hyperscale();
        assert_eq!(t.servers(), 786_432);
        assert!(
            t.total_links() > 1_000_000,
            "links {} must exceed 1M for F18",
            t.total_links()
        );
        // tor-agg (the Mosaic band at 20 m) is the dominant non-server tier.
        let classes = t.link_classes();
        assert_eq!(classes[1].count, 128 * 192 * 16);
    }
}
