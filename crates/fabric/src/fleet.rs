//! Deterministic fleet-scale topology generator.
//!
//! The paper's testbed is four ECDs around one integrated switch; a
//! deployed vehicle fleet backend aggregates hundreds to thousands of
//! ECDs behind a switched backbone. [`FleetTopology`] generates that
//! backbone — a line, ring, balanced tree, or three-stage fat-tree of
//! TSN switches with every ECD attached to an edge switch and a
//! per-switch store-and-forward residence drawn statically — as a
//! *pure function* of `(nodes, shape, seed)`. Generation allocates no
//! global state and reads no ambient randomness, so two workers on
//! different threads (or the same worker re-running after a resume)
//! produce byte-identical topologies; [`FleetTopology::fingerprint`]
//! pins exactly that.
//!
//! The generated fleet is *condensed* into a [`FabricConfig`] for
//! simulation ([`FleetTopology::condense`]): the graph's diameter
//! becomes the fabric depth (clamped to the fabric's 1..=64 hop
//! budget), the drawn residence spread becomes the residence range,
//! and the shape maps onto the nearest [`FabricTopology`] distance
//! metric. The paper-scale world keeps its 4–16 synchronization
//! domains; the fleet models the *network* between them at scale, not
//! 1024 gPTP state machines.

use crate::{FabricConfig, FabricTopology};
use tsn_time::Nanos;

/// ECDs attached per edge switch (automotive TSN edge switches
/// commonly expose 8–16 end-station ports; 16 keeps switch counts —
/// and therefore diameter growth — conservative).
pub const ECDS_PER_SWITCH: u32 = 16;

/// Per-switch residence draw range (lower bound, ns): covers fast
/// cut-through-class store-and-forward silicon.
const RESIDENCE_DRAW_MIN_NS: i64 = 400;
/// Per-switch residence draw range (upper bound, ns).
const RESIDENCE_DRAW_MAX_NS: i64 = 900;

/// Shape of the generated switch fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetShape {
    /// Switches in a path: worst-case diameter, the depth stressor.
    Line,
    /// Switches in a cycle: halves the line's diameter.
    Ring,
    /// Balanced binary tree (heap-shaped): logarithmic diameter.
    Tree,
    /// Three-stage edge/aggregation/core fat-tree. As wired by
    /// [`FleetTopology::generate`] its diameter is ≈ edge switches / 4
    /// (4 hops at 256 ECDs, 16 at 1 024, 64 at 4 096), not constant.
    FatTree,
}

impl FleetShape {
    /// Every shape, in the stable campaign-axis order.
    pub const ALL: [FleetShape; 4] = [
        FleetShape::Line,
        FleetShape::Ring,
        FleetShape::Tree,
        FleetShape::FatTree,
    ];

    /// The stable textual name (campaign-axis spelling).
    pub fn name(self) -> &'static str {
        match self {
            FleetShape::Line => "line",
            FleetShape::Ring => "ring",
            FleetShape::Tree => "tree",
            FleetShape::FatTree => "fat-tree",
        }
    }

    /// Parses a shape name.
    pub fn parse(name: &str) -> Option<FleetShape> {
        FleetShape::ALL.into_iter().find(|s| s.name() == name)
    }
}

/// One switch of the generated fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetSwitch {
    /// Dense identifier (`0..switch_count`).
    pub id: u32,
    /// Statically drawn store-and-forward residence, in nanoseconds.
    pub residence_ns: i64,
}

/// An undirected inter-switch link (`a < b`; hairpins are impossible
/// by construction and rejected by [`FleetTopology::validate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetLink {
    /// Lower switch id.
    pub a: u32,
    /// Higher switch id.
    pub b: u32,
}

/// A generated fleet topology: switches, inter-switch links, and the
/// edge switch each ECD attaches to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetTopology {
    /// The shape this fleet was generated with.
    pub shape: FleetShape,
    /// Number of attached ECDs.
    pub nodes: u32,
    /// The generator seed (splittable-seed discipline: derived from
    /// the grid seed and the fleet axes only).
    pub seed: u64,
    /// The switches, dense by id, each with its drawn residence.
    pub switches: Vec<FleetSwitch>,
    /// Undirected inter-switch links, sorted `(a, b)`.
    pub links: Vec<FleetLink>,
    /// `attachments[ecd]` = id of the edge switch the ECD hangs off.
    pub attachments: Vec<u32>,
}

/// FNV-1a over a label with the seed folded in, finalized with a
/// splitmix64 avalanche — the same splittable-seed discipline the
/// workspace's `SeedSplitter` uses, duplicated locally so this crate
/// keeps its minimal dependency set.
fn split(seed: u64, label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for &byte in label.as_bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // splitmix64 finalizer: avalanches the low-entropy FNV tail.
    h = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

impl FleetTopology {
    /// Generates the fleet for `nodes` ECDs in the given shape.
    ///
    /// Pure: the result (and its [`FleetTopology::fingerprint`]) is a
    /// function of the three arguments alone — no thread-locals, no
    /// ambient RNG, no iteration-order dependence.
    ///
    /// `nodes` is clamped to at least 2 (a fleet of one ECD has no
    /// inter-node traffic to carry).
    pub fn generate(nodes: u32, shape: FleetShape, seed: u64) -> FleetTopology {
        let nodes = nodes.max(2);
        let edge_count = nodes.div_ceil(ECDS_PER_SWITCH).max(1);
        let (switch_count, links) = match shape {
            FleetShape::Line => {
                let links = (1..edge_count)
                    .map(|i| FleetLink { a: i - 1, b: i })
                    .collect();
                (edge_count, links)
            }
            FleetShape::Ring => {
                if edge_count < 3 {
                    // A 2-switch "ring" is a doubled line edge; degrade
                    // to the line so links stay simple (no multi-edges).
                    let links = (1..edge_count)
                        .map(|i| FleetLink { a: i - 1, b: i })
                        .collect();
                    (edge_count, links)
                } else {
                    let mut links: Vec<FleetLink> = (1..edge_count)
                        .map(|i| FleetLink { a: i - 1, b: i })
                        .collect();
                    links.push(FleetLink {
                        a: 0,
                        b: edge_count - 1,
                    });
                    links.sort_by_key(|l| (l.a, l.b));
                    (edge_count, links)
                }
            }
            FleetShape::Tree => {
                // Heap-shaped binary tree over the edge switches
                // themselves (interior switches also carry ECDs, like a
                // daisy-chained zonal architecture).
                let links = (1..edge_count)
                    .map(|i| FleetLink {
                        a: (i - 1) / 2,
                        b: i,
                    })
                    .collect();
                (edge_count, links)
            }
            FleetShape::FatTree => {
                // Three-stage Clos: the ECD-bearing edge switches, an
                // aggregation tier of half as many, a core tier of a
                // quarter. Each edge dual-homes into two aggregation
                // switches; each aggregation switch homes into two
                // cores. Edge `e` only reaches aggregation switches
                // `e % agg` and `e + 1`, so the tiers are rings of
                // neighbours and the diameter grows like edge / 4.
                let agg = (edge_count / 2).max(1);
                let core = (agg / 2).max(1);
                let agg_base = edge_count;
                let core_base = edge_count + agg;
                let mut links = Vec::new();
                for e in 0..edge_count {
                    links.push(FleetLink {
                        a: e,
                        b: agg_base + e % agg,
                    });
                    if agg > 1 {
                        links.push(FleetLink {
                            a: e,
                            b: agg_base + (e + 1) % agg,
                        });
                    }
                }
                for a in 0..agg {
                    links.push(FleetLink {
                        a: agg_base + a,
                        b: core_base + a % core,
                    });
                    if core > 1 {
                        links.push(FleetLink {
                            a: agg_base + a,
                            b: core_base + (a + 1) % core,
                        });
                    }
                }
                links.sort_by_key(|l| (l.a, l.b));
                links.dedup();
                (edge_count + agg + core, links)
            }
        };
        let switches = (0..switch_count)
            .map(|id| {
                let span = (RESIDENCE_DRAW_MAX_NS - RESIDENCE_DRAW_MIN_NS + 1) as u64;
                let draw = split(seed, &format!("switch/{id}/residence")) % span;
                FleetSwitch {
                    id,
                    residence_ns: RESIDENCE_DRAW_MIN_NS + draw as i64,
                }
            })
            .collect();
        let attachments = (0..nodes).map(|ecd| ecd % edge_count).collect();
        FleetTopology {
            shape,
            nodes,
            seed,
            switches,
            links,
            attachments,
        }
    }

    /// Number of switches in the fleet.
    pub fn switch_count(&self) -> u32 {
        self.switches.len() as u32
    }

    /// The graph diameter in inter-switch hops (exact, by BFS from
    /// every switch). A single-switch fleet has diameter 0.
    pub fn diameter(&self) -> u32 {
        let n = self.switches.len();
        let mut adjacency = vec![Vec::new(); n];
        for l in &self.links {
            adjacency[l.a as usize].push(l.b as usize);
            adjacency[l.b as usize].push(l.a as usize);
        }
        let mut diameter = 0u32;
        let mut dist = vec![u32::MAX; n];
        let mut queue = std::collections::VecDeque::new();
        for start in 0..n {
            dist.iter_mut().for_each(|d| *d = u32::MAX);
            dist[start] = 0;
            queue.clear();
            queue.push_back(start);
            while let Some(u) = queue.pop_front() {
                for &v in &adjacency[u] {
                    if dist[v] == u32::MAX {
                        dist[v] = dist[u] + 1;
                        queue.push_back(v);
                    }
                }
            }
            let ecc = dist.iter().copied().max().unwrap_or(0);
            assert!(ecc != u32::MAX, "fleet graph is disconnected");
            diameter = diameter.max(ecc);
        }
        diameter
    }

    /// Checks structural invariants.
    ///
    /// # Panics
    ///
    /// Panics on a malformed topology: non-dense switch ids, hairpin
    /// or duplicate links, out-of-range attachments, or a disconnected
    /// graph (via [`FleetTopology::diameter`]).
    pub fn validate(&self) {
        assert!(!self.switches.is_empty(), "fleet has no switches");
        assert!(self.nodes >= 2, "fleet needs at least 2 ECDs");
        for (i, s) in self.switches.iter().enumerate() {
            assert_eq!(s.id as usize, i, "switch ids must be dense");
            assert!(
                (RESIDENCE_DRAW_MIN_NS..=RESIDENCE_DRAW_MAX_NS).contains(&s.residence_ns),
                "residence outside the draw range"
            );
        }
        let count = self.switch_count();
        for w in self.links.windows(2) {
            assert!(
                (w[0].a, w[0].b) < (w[1].a, w[1].b),
                "links must be strictly sorted (no duplicates)"
            );
        }
        for l in &self.links {
            assert!(l.a < l.b, "hairpin or unnormalized link {l:?}");
            assert!(l.b < count, "link references unknown switch {l:?}");
        }
        assert_eq!(self.attachments.len(), self.nodes as usize);
        for &sw in &self.attachments {
            assert!(sw < count, "attachment references unknown switch");
        }
        self.diameter(); // panics if disconnected
    }

    /// Condenses the fleet into a [`FabricConfig`] the simulator can
    /// run: the diameter becomes the fabric depth (clamped to the
    /// fabric's 1..=64 hop budget — a 4096-switch line condenses to
    /// the deepest representable fabric), the drawn residence spread
    /// becomes the residence range, and the shape maps to the nearest
    /// [`FabricTopology`] distance metric (a fat-tree condenses to the
    /// tree metric). Everything else is taken from `base`.
    pub fn condense(&self, base: &FabricConfig) -> FabricConfig {
        let residence_min = self
            .switches
            .iter()
            .map(|s| s.residence_ns)
            .min()
            .unwrap_or(RESIDENCE_DRAW_MIN_NS);
        let residence_max = self
            .switches
            .iter()
            .map(|s| s.residence_ns)
            .max()
            .unwrap_or(RESIDENCE_DRAW_MAX_NS);
        FabricConfig {
            topology: match self.shape {
                FleetShape::Line => FabricTopology::Line,
                FleetShape::Ring => FabricTopology::Ring,
                FleetShape::Tree | FleetShape::FatTree => FabricTopology::Tree,
            },
            hops: self.diameter().clamp(1, 64),
            residence_min: Nanos::from_nanos(residence_min),
            residence_max: Nanos::from_nanos(residence_max),
            ..*base
        }
    }

    /// The canonical byte encoding (the fingerprint's preimage):
    /// every structural field in a fixed order.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(self.shape.name().as_bytes());
        out.push(b'|');
        out.extend_from_slice(&self.nodes.to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        for s in &self.switches {
            out.extend_from_slice(&s.id.to_le_bytes());
            out.extend_from_slice(&s.residence_ns.to_le_bytes());
        }
        for l in &self.links {
            out.extend_from_slice(&l.a.to_le_bytes());
            out.extend_from_slice(&l.b.to_le_bytes());
        }
        for &a in &self.attachments {
            out.extend_from_slice(&a.to_le_bytes());
        }
        out
    }

    /// A 64-bit FNV-1a fingerprint of [`FleetTopology::canonical_bytes`]
    /// — two byte-identical topologies (and only those) share it.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &byte in &self.canonical_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_a_pure_function_of_its_inputs() {
        for shape in FleetShape::ALL {
            let a = FleetTopology::generate(256, shape, 0xDEAD_BEEF);
            let b = FleetTopology::generate(256, shape, 0xDEAD_BEEF);
            assert_eq!(a, b);
            assert_eq!(a.fingerprint(), b.fingerprint());
            let other_seed = FleetTopology::generate(256, shape, 0xDEAD_BEF0);
            assert_ne!(a.fingerprint(), other_seed.fingerprint());
        }
    }

    #[test]
    fn shapes_have_the_expected_structure() {
        // 256 ECDs → 16 edge switches.
        let line = FleetTopology::generate(256, FleetShape::Line, 1);
        assert_eq!(line.switch_count(), 16);
        assert_eq!(line.diameter(), 15);
        let ring = FleetTopology::generate(256, FleetShape::Ring, 1);
        assert_eq!(ring.switch_count(), 16);
        assert_eq!(ring.diameter(), 8);
        let tree = FleetTopology::generate(256, FleetShape::Tree, 1);
        assert_eq!(tree.switch_count(), 16);
        assert!(tree.diameter() <= 2 * 4, "heap of 16 has depth 4");
        let fat = FleetTopology::generate(256, FleetShape::FatTree, 1);
        assert_eq!(fat.switch_count(), 16 + 8 + 4);
        assert_eq!(fat.diameter(), 4, "16 edge switches: edge / 4");
        for t in [line, ring, tree, fat] {
            t.validate();
        }
    }

    #[test]
    fn tiny_and_huge_fleets_validate_and_condense() {
        let base = FabricConfig::default();
        for shape in FleetShape::ALL {
            for nodes in [1u32, 2, 3, 16, 17, 33, 1024, 65_536] {
                let fleet = FleetTopology::generate(nodes, shape, 42);
                fleet.validate();
                let cfg = fleet.condense(&base);
                cfg.validate();
                assert!((1..=64).contains(&cfg.hops));
                assert!(cfg.residence_min <= cfg.residence_max);
            }
        }
    }

    #[test]
    fn condense_clamps_the_deep_line_to_the_hop_budget() {
        // 4096 ECDs → 256 edge switches → line diameter 255, clamped.
        let fleet = FleetTopology::generate(4096, FleetShape::Line, 9);
        assert_eq!(fleet.diameter(), 255);
        let cfg = fleet.condense(&FabricConfig::default());
        assert_eq!(cfg.hops, 64);
        cfg.validate();
    }

    /// What each fleet condenses to — `(hops, residence_min_ns,
    /// residence_max_ns)` per shape, seed 42. The fat-tree's depth
    /// grows like edge/4 (each edge switch only reaches aggregation
    /// switches `e % agg` and `e + 1`), so it hits the 64-hop clamp at
    /// 4 096 ECDs just as the line and the ring do. This table is the
    /// safety net for replacing the generator with closed forms.
    #[test]
    fn condensed_depth_and_residence_are_pinned_per_size_and_shape() {
        // Columns in `FleetShape::ALL` order: line, ring, tree, fat-tree.
        type Condensed = (u32, i64, i64);
        #[rustfmt::skip]
        const TABLE: [(u32, [Condensed; 4]); 8] = [
            (2,      [(1, 602, 602),  (1, 602, 602),  (1, 602, 602),  (2, 486, 602)]),
            (16,     [(1, 602, 602),  (1, 602, 602),  (1, 602, 602),  (2, 486, 602)]),
            (17,     [(1, 598, 602),  (1, 598, 602),  (1, 598, 602),  (2, 486, 602)]),
            (33,     [(2, 486, 602),  (1, 486, 602),  (2, 486, 602),  (2, 464, 602)]),
            (256,    [(15, 410, 783), (8, 410, 783),  (7, 410, 783),  (4, 409, 899)]),
            (1_024,  [(63, 406, 899), (32, 406, 899), (11, 406, 899), (16, 400, 899)]),
            (4_096,  [(64, 400, 899), (64, 400, 899), (15, 400, 899), (64, 400, 899)]),
            (65_536, [(64, 400, 900), (64, 400, 900), (23, 400, 900), (64, 400, 900)]),
        ];
        let base = FabricConfig::default();
        for (nodes, row) in TABLE {
            for (shape, expected) in FleetShape::ALL.into_iter().zip(row) {
                let cfg = FleetTopology::generate(nodes, shape, 42).condense(&base);
                let got = (
                    cfg.hops,
                    cfg.residence_min.as_nanos(),
                    cfg.residence_max.as_nanos(),
                );
                assert_eq!(got, expected, "{nodes} ECDs, {}", shape.name());
            }
        }
    }

    #[test]
    fn shape_names_roundtrip() {
        for shape in FleetShape::ALL {
            assert_eq!(FleetShape::parse(shape.name()), Some(shape));
        }
        assert_eq!(FleetShape::parse("torus"), None);
    }
}
