//! All-pairs reference implementations of the scenario analysis: every
//! node pair checked with `slow_prob` at every sampled second, with no
//! spatial pruning. Slow, obviously correct, and the oracle the one-pass
//! grid analysis ([`vifi_testbeds::ScenarioAnalysis`]) must agree with
//! exactly.

use std::collections::BTreeMap;

use vifi_phy::{NodeId, NodeKind, PhysicalLinkModel};
use vifi_sim::SimTime;
use vifi_testbeds::Scenario;

/// Per-vehicle contact windows over one lap at `min_prob`.
pub fn contact_windows(
    s: &Scenario,
    vehicle: NodeId,
    link: &PhysicalLinkModel,
    min_prob: f64,
) -> Vec<(u64, u64)> {
    let bs = s.bs_ids();
    let lap_s = s.lap.as_secs();
    let mut windows = Vec::new();
    let mut open: Option<u64> = None;
    for sec in 0..lap_s {
        let t = SimTime::from_secs(sec);
        let covered = bs.iter().any(|&b| link.slow_prob(b, vehicle, t) > min_prob);
        match (covered, open) {
            (true, None) => open = Some(sec),
            (false, Some(start)) => {
                windows.push((start, sec));
                open = None;
            }
            _ => {}
        }
    }
    if let Some(start) = open {
        windows.push((start, lap_s));
    }
    windows
}

/// Per-basestation contact seconds over one lap at `min_prob`, plus one.
pub fn bs_contact_seconds(
    s: &Scenario,
    link: &PhysicalLinkModel,
    min_prob: f64,
) -> Vec<(NodeId, u64)> {
    let vehicles = s.vehicle_ids();
    let lap_s = s.lap.as_secs();
    s.bs_ids()
        .into_iter()
        .map(|bs| {
            let mut covered = 0u64;
            for sec in 0..lap_s {
                let t = SimTime::from_secs(sec);
                if vehicles
                    .iter()
                    .any(|&v| link.slow_prob(bs, v, t) > min_prob)
                {
                    covered += 1;
                }
            }
            (bs, covered + 1)
        })
        .collect()
}

/// Fleet activity over `[0, horizon_s)`, dilated by ±`margin_s`.
pub fn active_seconds(
    s: &Scenario,
    link: &PhysicalLinkModel,
    horizon_s: u64,
    margin_s: u64,
) -> Vec<(u64, u64)> {
    active_seconds_for(link, horizon_s, margin_s, &s.vehicle_ids(), &s.bs_ids())
}

/// Activity among `members` only.
pub fn cluster_active_seconds(
    s: &Scenario,
    link: &PhysicalLinkModel,
    horizon_s: u64,
    margin_s: u64,
    members: &[NodeId],
) -> Vec<(u64, u64)> {
    let of_kind = |kind| -> Vec<NodeId> {
        members
            .iter()
            .copied()
            .filter(|&n| s.node(n).kind == kind)
            .collect()
    };
    active_seconds_for(
        link,
        horizon_s,
        margin_s,
        &of_kind(NodeKind::Vehicle),
        &of_kind(NodeKind::Basestation),
    )
}

fn active_seconds_for(
    link: &PhysicalLinkModel,
    horizon_s: u64,
    margin_s: u64,
    vehicles: &[NodeId],
    bs: &[NodeId],
) -> Vec<(u64, u64)> {
    let mut ranges: Vec<(u64, u64)> = Vec::new();
    for sec in 0..horizon_s {
        let t = SimTime::from_secs(sec);
        let active = vehicles.iter().enumerate().any(|(i, &v)| {
            bs.iter().any(|&b| link.slow_prob(b, v, t) > 0.0)
                || vehicles[i + 1..]
                    .iter()
                    .any(|&w| link.slow_prob(v, w, t) > 0.0)
        });
        if !active {
            continue;
        }
        let lo = sec.saturating_sub(margin_s);
        let hi = (sec + margin_s + 1).min(horizon_s.max(1));
        match ranges.last_mut() {
            Some(last) if lo <= last.1 => last.1 = last.1.max(hi),
            _ => ranges.push((lo, hi)),
        }
    }
    ranges
}

/// Connected components of the ever-audible graph: vehicle pairs at
/// 1 Hz over one lap, basestation pairs at `t = 0`. Pairs already in one
/// component are not re-checked.
pub fn contact_clusters(s: &Scenario, link: &PhysicalLinkModel) -> Vec<Vec<NodeId>> {
    let n = s.nodes.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let union = |parent: &mut [usize], a: usize, b: usize| {
        let (ra, rb) = (find(parent, a), find(parent, b));
        if ra != rb {
            parent[ra.max(rb)] = ra.min(rb);
        }
    };
    let audible = |a: NodeId, b: NodeId, t: SimTime| {
        link.slow_prob(a, b, t) > 0.0 || link.slow_prob(b, a, t) > 0.0
    };
    let vehicles = s.vehicle_ids();
    let bs = s.bs_ids();
    for i in 0..bs.len() {
        for j in i + 1..bs.len() {
            let (a, b) = (bs[i].index(), bs[j].index());
            if find(&mut parent, a) != find(&mut parent, b) && audible(bs[i], bs[j], SimTime::ZERO)
            {
                union(&mut parent, bs[i].index(), bs[j].index());
            }
        }
    }
    for sec in 0..s.lap.as_secs().max(1) {
        let t = SimTime::from_secs(sec);
        for (i, &v) in vehicles.iter().enumerate() {
            for &w in bs.iter().chain(&vehicles[i + 1..]) {
                if find(&mut parent, v.index()) != find(&mut parent, w.index()) && audible(v, w, t)
                {
                    union(&mut parent, v.index(), w.index());
                }
            }
        }
    }
    let mut by_root: BTreeMap<usize, Vec<NodeId>> = BTreeMap::new();
    for node in &s.nodes {
        by_root
            .entry(find(&mut parent, node.id.index()))
            .or_default()
            .push(node.id);
    }
    by_root.into_values().collect()
}
