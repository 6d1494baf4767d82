//! Property tests for the fleet-scale scenario generators: determinism
//! per seed, per-vehicle route distinctness, contact-window validity
//! (sorted, disjoint, inside the lap), the contact-cluster decomposition
//! the hierarchical coupled engine synchronizes by, and the one-pass grid
//! analysis against the all-pairs reference in `reference/`.

mod reference;

use proptest::prelude::*;
use vifi_phy::link::MobilitySource;
use vifi_phy::{NodeId, NodeKind, Point, RadioParams};
use vifi_sim::{Rng, SimDuration, SimTime};
use vifi_testbeds::{
    dieselnet_fleet, metro, vanlan, AnalysisSpec, NodeSpec, Scenario, ScenarioAnalysis,
};

/// Sample instants spread over the first lap (and beyond, to catch wrap
/// bugs in closed routes).
const SAMPLE_SECS: [u64; 6] = [0, 17, 61, 149, 403, 997];

fn positions_fingerprint(s: &Scenario) -> Vec<(f64, f64)> {
    let mut out = Vec::new();
    for &v in &s.vehicle_ids() {
        for &sec in &SAMPLE_SECS {
            let p = s.position(v, SimTime::from_secs(sec));
            out.push((p.x, p.y));
        }
    }
    out
}

fn assert_routes_distinct(s: &Scenario) {
    let vs = s.vehicle_ids();
    for i in 0..vs.len() {
        for j in i + 1..vs.len() {
            let distinct = SAMPLE_SECS.iter().any(|&sec| {
                let t = SimTime::from_secs(sec);
                s.position(vs[i], t).distance(s.position(vs[j], t)) > 1.0
            });
            assert!(distinct, "vehicles {i} and {j} share a trajectory");
        }
    }
}

fn assert_windows_valid(s: &Scenario, link_seed: u64) {
    let link = s.build_link_model(&Rng::new(link_seed));
    let lap_s = s.lap.as_secs();
    for &v in &s.vehicle_ids() {
        let windows = s.contact_windows(v, &link, 0.1);
        let mut prev_end = 0u64;
        for (k, &(start, end)) in windows.iter().enumerate() {
            assert!(start < end, "window {k} is non-empty: [{start}, {end})");
            assert!(end <= lap_s, "window {k} ends inside the lap");
            if k > 0 {
                assert!(
                    start > prev_end,
                    "window {k} [{start}, {end}) overlaps or touches the previous \
                     (maximal windows are separated by at least one dead second)"
                );
            }
            prev_end = end;
        }
    }
}

proptest! {
    // Scenario construction is cheap; the channel sampling in the window
    // checks is the cost, so keep case counts modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `vanlan(n)` is deterministic and its n vans ride distinct routes.
    #[test]
    fn vanlan_fleet_properties(n in 2u32..10) {
        let a = vanlan(n);
        let b = vanlan(n);
        prop_assert_eq!(a.vehicle_ids().len(), n as usize);
        prop_assert_eq!(positions_fingerprint(&a), positions_fingerprint(&b));
        assert_routes_distinct(&a);
    }

    /// `dieselnet_fleet(n, seed)` reproduces per seed, differs across
    /// seeds, and its n buses ride distinct routes.
    #[test]
    fn dieselnet_fleet_properties(n in 2u32..10, seed in 0u64..1_000) {
        let a = dieselnet_fleet(n, seed);
        let b = dieselnet_fleet(n, seed);
        let c = dieselnet_fleet(n, seed ^ 0xDEAD_BEEF);
        prop_assert_eq!(a.vehicle_ids().len(), n as usize);
        prop_assert_eq!(positions_fingerprint(&a), positions_fingerprint(&b));
        prop_assert_ne!(positions_fingerprint(&a), positions_fingerprint(&c));
        assert_routes_distinct(&a);
    }

    /// Contact windows of every fleet vehicle are non-empty intervals,
    /// sorted, disjoint, and inside the lap — on both testbeds.
    #[test]
    fn fleet_contact_windows_valid(n in 2u32..6, seed in 0u64..100) {
        assert_windows_valid(&vanlan(n), seed + 1);
        assert_windows_valid(&dieselnet_fleet(n, seed), seed + 2);
    }

    /// The contact-cluster decomposition is sound on every generator:
    /// clusters exactly cover the fleet (each node in exactly one,
    /// members sorted, clusters ordered by smallest member), and nodes
    /// of different clusters are contact-disjoint — zero delivery
    /// probability in both directions at every sampled instant of the
    /// lap, so no coarse window can carry cross-cluster radio traffic.
    #[test]
    fn contact_clusters_cover_and_are_radio_disjoint(
        districts in 2u32..5,
        vans in 1u32..4,
        seed in 0u64..1_000,
    ) {
        for s in [metro(districts, vans, seed), vanlan(vans + 1), dieselnet_fleet(vans + 1, seed)] {
            let link = s.build_link_model(&Rng::new(seed ^ 0x5A5A));
            let clusters = s.contact_clusters(&link);
            // Exact cover with dense ids: sorted concatenation is 0..n.
            let mut all: Vec<NodeId> = clusters.iter().flatten().copied().collect();
            all.sort_by_key(|n| n.index());
            prop_assert_eq!(all.len(), s.nodes.len(), "{}", s.name);
            for (i, n) in all.iter().enumerate() {
                prop_assert_eq!(n.index(), i, "each node in exactly one cluster");
            }
            for c in &clusters {
                prop_assert!(c.windows(2).all(|w| w[0] < w[1]), "members sorted");
            }
            prop_assert!(
                clusters.windows(2).all(|w| w[0][0] < w[1][0]),
                "clusters ordered by smallest member"
            );
            // Cross-cluster pairs never hear each other. Sample a grid of
            // seconds over the lap (the decomposition itself sweeps all).
            let lap_s = s.lap.as_secs().max(1);
            for (i, a) in clusters.iter().enumerate() {
                for b in clusters.iter().skip(i + 1) {
                    for &x in a {
                        for &y in b {
                            for k in 0..8u64 {
                                let t = SimTime::from_secs(k * lap_s / 8);
                                prop_assert!(
                                    link.slow_prob(x, y, t) == 0.0
                                        && link.slow_prob(y, x, t) == 0.0,
                                    "{}: cross-cluster contact {:?}-{:?} at {:?}",
                                    s.name, x, y, t
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// The decomposition is a pure function of `(scenario, link
    /// geometry)`: independently rebuilt scenarios and link models give
    /// identical clusters, and restricting the schedule-relevant inputs
    /// that a sharded run varies — shard count, worker count — never
    /// enters the function at all, so per-cluster active ranges derived
    /// from it are identical too.
    #[test]
    fn contact_clusters_are_a_pure_function_of_the_scenario(
        districts in 2u32..4,
        vans in 1u32..3,
        seed in 0u64..1_000,
    ) {
        let a = metro(districts, vans, seed);
        let b = metro(districts, vans, seed);
        let link_a = a.build_link_model(&Rng::new(7));
        let link_b = b.build_link_model(&Rng::new(7));
        let ca = a.contact_clusters(&link_a);
        let cb = b.contact_clusters(&link_b);
        prop_assert_eq!(&ca, &cb, "independent rebuilds agree");
        // Per-cluster active ranges reproduce as well, and their union
        // covers the fleet-level active ranges (no lost active second).
        let horizon_s = 30u64;
        let fleet: Vec<(u64, u64)> = a.active_seconds(&link_a, horizon_s, 2);
        let mut covered = vec![false; horizon_s as usize];
        for c in &ca {
            let ranges = a.cluster_active_seconds(&link_a, horizon_s, 2, c);
            prop_assert_eq!(
                &ranges,
                &b.cluster_active_seconds(&link_b, horizon_s, 2, c),
                "per-cluster ranges reproduce"
            );
            for (lo, hi) in ranges {
                for sec in lo..hi.min(horizon_s) {
                    covered[sec as usize] = true;
                }
            }
        }
        for (lo, hi) in fleet {
            for sec in lo..hi.min(horizon_s) {
                prop_assert!(
                    covered[sec as usize],
                    "active second {} lost by the per-cluster split", sec
                );
            }
        }
    }
}

/// Every output of one [`ScenarioAnalysis`] — and of the [`Scenario`]
/// wrappers, which build narrower analyses that stop early — equals the
/// all-pairs reference.
fn assert_matches_reference(
    s: &Scenario,
    link_seed: u64,
    horizon_s: u64,
    margin_s: u64,
    min_prob: f64,
) -> Result<(), TestCaseError> {
    let link = s.build_link_model(&Rng::new(link_seed));
    let spec = AnalysisSpec {
        clusters: true,
        contact_min_prob: Some(min_prob),
        horizon_s,
        margin_s,
    };
    let a = ScenarioAnalysis::new(s, &link, &spec);
    let clusters = reference::contact_clusters(s, &link);
    prop_assert_eq!(a.clusters(), &clusters[..], "{} clusters", s.name);
    prop_assert_eq!(&s.contact_clusters(&link), &clusters, "{} wrapper", s.name);
    let bs = reference::bs_contact_seconds(s, &link, min_prob);
    prop_assert_eq!(a.bs_contact_seconds(), &bs[..], "{} BS contact", s.name);
    prop_assert_eq!(&s.bs_contact_seconds(&link, min_prob), &bs);
    for &v in &s.vehicle_ids() {
        let windows = reference::contact_windows(s, v, &link, min_prob);
        prop_assert_eq!(a.contact_windows(v), &windows[..], "{} {:?}", s.name, v);
    }
    let v0 = s.vehicle_ids()[0];
    prop_assert_eq!(
        s.contact_windows(v0, &link, min_prob),
        reference::contact_windows(s, v0, &link, min_prob)
    );
    let active = reference::active_seconds(s, &link, horizon_s, margin_s);
    prop_assert_eq!(a.active_seconds(), &active[..], "{} activity", s.name);
    prop_assert_eq!(&s.active_seconds(&link, horizon_s, margin_s), &active);
    prop_assert_eq!(a.cluster_active_seconds().len(), clusters.len());
    for (c, members) in clusters.iter().enumerate() {
        let want = reference::cluster_active_seconds(s, &link, horizon_s, margin_s, members);
        prop_assert_eq!(
            &a.cluster_active_seconds()[c],
            &want,
            "{} cluster {}",
            s.name,
            c
        );
    }
    // An arbitrary member set, not a cluster: every other node.
    let members: Vec<NodeId> = s.nodes.iter().map(|n| n.id).step_by(2).collect();
    prop_assert_eq!(
        s.cluster_active_seconds(&link, horizon_s, margin_s, &members),
        reference::cluster_active_seconds(s, &link, horizon_s, margin_s, &members)
    );
    Ok(())
}

proptest! {
    // The reference is all-pairs and this copy runs in debug builds, so
    // fleets stay small and cases few.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The grid analysis equals the all-pairs reference on every
    /// generator, for random link seeds, horizons (some past the lap),
    /// margins and contact thresholds.
    #[test]
    fn analysis_matches_all_pairs_reference(
        n in 1u32..4,
        districts in 1u32..4,
        seed in 0u64..1_000,
        link_seed in 0u64..1_000_000,
        horizon_s in 0u64..1_000,
        margin_s in 0u64..4,
        min_prob in 0.0f64..0.5,
    ) {
        let min_prob = if seed % 3 == 0 { 0.1 } else { min_prob };
        for s in [vanlan(n), dieselnet_fleet(n, seed), metro(districts, n, seed)] {
            assert_matches_reference(&s, link_seed, horizon_s, margin_s, min_prob)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The same oracle at `metro(4, 16)` scale, where the grid prunes
    /// most pairs. Release builds only (CI leg `analysis-oracle`):
    /// `cargo test --release -p vifi-testbeds --test fleet_properties --
    /// --ignored`.
    #[test]
    #[ignore = "all-pairs reference at metro(4, 16) scale; run in release"]
    fn analysis_matches_all_pairs_reference_at_metro_scale(
        seed in 0u64..1_000,
        link_seed in 0u64..1_000_000,
        horizon_s in 1u64..120,
    ) {
        assert_matches_reference(&metro(4, 16, seed), link_seed, horizon_s, 3, 0.1)?;
    }
}

/// A scenario of parked nodes: `(kind, x, y)` each.
fn parked(nodes: &[(NodeKind, f64, f64)]) -> Scenario {
    Scenario {
        name: "parked".into(),
        nodes: nodes
            .iter()
            .enumerate()
            .map(|(i, &(kind, x, y))| NodeSpec {
                id: NodeId(i as u32),
                kind,
                mobility: MobilitySource::Fixed(Point::new(x, y)),
                name: format!("n{i}"),
            })
            .collect(),
        radio: RadioParams::default(),
        lap: SimDuration::from_secs(3),
        visits_per_day: 1,
    }
}

/// Grid boundaries: pairs exactly `max_range_m` apart (in range), pairs
/// a hair beyond it, pairs straddling cell edges, and all of it at
/// negative coordinates too. The analysis must agree with the all-pairs
/// reference, and the cluster split must be the one geometry dictates.
#[test]
fn analysis_is_exact_at_grid_boundaries() {
    use NodeKind::{Basestation as B, Vehicle as V};
    let r = RadioParams::default().max_range_m;
    let s = parked(&[
        // Exactly one range apart along x, across a cell edge.
        (B, 0.0, 0.0),
        (V, r, 0.0),
        // Straddling the x = r cell edge, a metre apart.
        (B, r - 0.5, 3.0 * r),
        (V, r + 0.5, 3.0 * r),
        // Negative coordinates: exactly one range apart, and a hair more.
        (B, -2.0 * r, -2.0 * r),
        (V, -r, -2.0 * r),
        (V, -2.0 * r, -3.0 * r - 1e-6),
        // Diagonal neighbours around the origin of the negative quadrant.
        (V, -6.0 * r - 0.1, -6.0 * r - 0.1),
        (B, -6.0 * r + 0.1, -6.0 * r + 0.1),
        // Anti-diagonal neighbours across a cell corner.
        (V, 10.0 * r - 0.1, -10.0 * r + 0.1),
        (B, 10.0 * r + 0.1, -10.0 * r - 0.1),
        // Exactly one range apart along the diagonal.
        (V, 8.0 * r, 8.0 * r),
        (V, 8.0 * r + r / 2f64.sqrt(), 8.0 * r + r / 2f64.sqrt()),
    ]);
    let link = s.build_link_model(&Rng::new(3));
    let clusters = s.contact_clusters(&link);
    assert_eq!(clusters, reference::contact_clusters(&s, &link));
    let ids = |v: &[u32]| v.iter().map(|&i| NodeId(i)).collect::<Vec<_>>();
    let expect_joined = [&[0, 1][..], &[2, 3], &[4, 5], &[7, 8], &[9, 10]];
    for pair in expect_joined {
        assert!(clusters.contains(&ids(pair)), "{pair:?} in {clusters:?}");
    }
    assert!(
        clusters.contains(&ids(&[6])),
        "a hair past range: {clusters:?}"
    );
    assert_matches_reference(&s, 3, 5, 1, 0.0).unwrap();
    assert_matches_reference(&s, 9, 5, 0, 0.1).unwrap();
}
