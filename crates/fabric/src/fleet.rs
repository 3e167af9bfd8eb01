//! A fleet of TSN switches, condensed in closed form.
//!
//! The paper's testbed is four ECDs around one integrated switch; a
//! deployed vehicle fleet backend aggregates hundreds to thousands of
//! ECDs behind a switched backbone ([`FleetShape`], 16 ECDs per edge
//! switch). What reaches a timestamp from that backbone is how many
//! switches a frame crosses and how long each holds it, so [`condense`]
//! computes exactly that, as a pure function of `(nodes, shape, seed)`
//! and without building a graph: the backbone's diameter from the
//! shape's closed form, the residence range from one static draw per
//! switch, and the shape's nearest [`FabricTopology`] distance metric.
//! The paper-scale world keeps its 4–16 synchronization domains; the
//! fleet models the *network* between them at scale, not 1024 gPTP
//! state machines.

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

/// Shape of the switch fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetShape {
    /// Switches in a path: worst-case diameter, the depth stressor.
    Line,
    /// Switches in a cycle: halves the line's diameter.
    Ring,
    /// Balanced binary tree (heap-shaped) over the edge switches
    /// themselves — interior switches also carry ECDs, like a
    /// daisy-chained zonal architecture: logarithmic diameter.
    Tree,
    /// Three-stage edge/aggregation/core fat-tree: an aggregation tier
    /// of half as many switches as the edge, a core tier of a quarter.
    /// Edge switch `e` homes into aggregation switches `e % agg` and
    /// `e + 1` only (and aggregation into core likewise), so the tiers
    /// are rings of neighbours and the diameter is ≈ edge switches / 4
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

    /// Switches in a fleet of this shape with `edge` ECD-bearing edge
    /// switches: only the fat-tree adds tiers above them.
    fn switch_count(self, edge: u32) -> u32 {
        let aggregation = (edge / 2).max(1);
        match self {
            FleetShape::FatTree => edge + aggregation + (aggregation / 2).max(1),
            _ => edge,
        }
    }

    /// The diameter, in inter-switch hops, of a fleet of this shape
    /// with `edge ≥ 1` edge switches.
    fn diameter(self, edge: u32) -> u32 {
        match self {
            FleetShape::Line => edge - 1,
            FleetShape::Ring => edge / 2,
            // Heap numbering: the last switch sits `d` levels down, the
            // deepest leaf of the root's other subtree `d` or `d − 1`,
            // depending on whether the bottom level reaches that half.
            FleetShape::Tree => match edge.ilog2() {
                0 => 0,
                d if edge < (3 << (d - 1)) => 2 * d - 1,
                d => 2 * d,
            },
            // As wired (see [`FleetShape::FatTree`]) both upper tiers
            // are rings of neighbours. Fitted to an all-pairs BFS of
            // that wiring and equal to it for every edge count up to
            // 4 096 (CHANGES.md, PR 24).
            FleetShape::FatTree => match edge {
                ..=5 => 2,
                6 | 7 => 3,
                _ => ((edge + 2) / 4).max(4),
            },
        }
    }
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

/// Condenses a fleet of `nodes` ECDs (at least 2: a fleet of one has no
/// inter-node traffic to carry) behind switches in the given shape into
/// the [`FabricConfig`] the simulator runs: the diameter becomes the
/// fabric depth (a 256-switch line condenses to the deepest
/// representable fabric), the extremes of the per-switch residence
/// draws the residence range, a fat-tree takes the tree metric.
/// Everything else is taken from `base`.
///
/// Pure: no thread-locals, no ambient RNG — any worker on any thread
/// derives the same configuration from the same arguments.
pub fn condense(nodes: u32, shape: FleetShape, seed: u64, base: &FabricConfig) -> FabricConfig {
    let edge = nodes.max(2).div_ceil(ECDS_PER_SWITCH);
    let span = (RESIDENCE_DRAW_MAX_NS - RESIDENCE_DRAW_MIN_NS + 1) as u64;
    let (residence_min, residence_max) = (0..shape.switch_count(edge))
        .map(|id| split(seed, &format!("switch/{id}/residence")) % span)
        .map(|draw| RESIDENCE_DRAW_MIN_NS + draw as i64)
        .fold((i64::MAX, i64::MIN), |(lo, hi), ns| {
            (lo.min(ns), hi.max(ns))
        });
    FabricConfig {
        topology: match shape {
            FleetShape::Line => FabricTopology::Line,
            FleetShape::Ring => FabricTopology::Ring,
            FleetShape::Tree | FleetShape::FatTree => FabricTopology::Tree,
        },
        hops: shape.diameter(edge).clamp(1, 64),
        residence_min: Nanos::from_nanos(residence_min),
        residence_max: Nanos::from_nanos(residence_max),
        ..*base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Diameters the all-pairs BFS of the generated graph measured,
    /// recorded before the generator was deleted, at the edge counts
    /// on either side of every branch and rounding step of the closed
    /// forms. Columns in `FleetShape::ALL` order.
    #[test]
    fn shapes_have_the_expected_structure() {
        const DIAMETERS: [(u32, [u32; 4]); 14] = [
            (1, [0, 0, 0, 2]),
            (2, [1, 1, 1, 2]),
            (3, [2, 1, 2, 2]),
            (5, [4, 2, 3, 2]),
            (6, [5, 3, 4, 3]),
            (7, [6, 3, 4, 3]),
            (8, [7, 4, 5, 4]),
            (11, [10, 5, 5, 4]),
            (12, [11, 6, 6, 4]),
            (16, [15, 8, 7, 4]),
            (18, [17, 9, 7, 5]),
            (21, [20, 10, 7, 5]),
            (22, [21, 11, 7, 6]),
            (100, [99, 50, 12, 25]),
        ];
        for (edge, row) in DIAMETERS {
            for (shape, expected) in FleetShape::ALL.into_iter().zip(row) {
                assert_eq!(shape.diameter(edge), expected, "{edge} {}", shape.name());
            }
        }
        // Only the fat-tree adds switches above the edge tier: half as
        // many aggregation switches, a quarter as many core, one at least.
        assert_eq!(FleetShape::Tree.switch_count(16), 16);
        assert_eq!(FleetShape::FatTree.switch_count(16), 16 + 8 + 4);
        assert_eq!(FleetShape::FatTree.switch_count(1), 1 + 1 + 1);
    }

    #[test]
    fn tiny_and_huge_fleets_validate_and_condense() {
        let base = FabricConfig::default();
        for shape in FleetShape::ALL {
            for nodes in [1u32, 2, 3, 16, 17, 33, 1024, 65_536] {
                let cfg = condense(nodes, shape, 42, &base);
                cfg.validate();
                assert!((1..=64).contains(&cfg.hops));
                assert!(cfg.residence_min <= cfg.residence_max);
            }
        }
    }

    #[test]
    fn condense_clamps_the_deep_line_to_the_hop_budget() {
        // 4096 ECDs → 256 edge switches → line diameter 255, clamped.
        assert_eq!(FleetShape::Line.diameter(256), 255);
        let cfg = condense(4096, FleetShape::Line, 9, &FabricConfig::default());
        assert_eq!(cfg.hops, 64);
        cfg.validate();
    }

    /// What each fleet condenses to — `(hops, residence_min_ns,
    /// residence_max_ns)` per shape, seed 42. The fat-tree's depth
    /// grows like edge/4 (each edge switch only reaches aggregation
    /// switches `e % agg` and `e + 1`), so it hits the 64-hop clamp at
    /// 4 096 ECDs just as the line and the ring do. The values are
    /// what the graph generator the closed forms replaced produced.
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
                let cfg = condense(nodes, shape, 42, &base);
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
