//! One-pass scenario analysis: who can hear whom, second by second.
//!
//! Everything the coupled runtime needs to know about a scenario's radio
//! geometry before it runs — the contact clusters, the activity
//! schedules, and the planner's load weights — comes from the same
//! question asked at every simulated second: which node pairs are within
//! radio range? [`ScenarioAnalysis`] answers it once per (scenario, link
//! seed) in a single sweep over the seconds. At each second it places
//! every radio node once, buckets the nodes into a uniform grid whose
//! cells are [`RadioParams::max_range_m`] wide, and evaluates the
//! slow-fading predicate ([`PhysicalLinkModel::slow_prob_at`]) only on
//! pairs in the same or adjacent cells.
//!
//! The pruning is exact. Two nodes whose cells are neither equal nor
//! adjacent are more than one cell width apart along some axis, hence
//! beyond `max_range_m`, and the link model's geometry already yields a
//! delivery probability of exactly 0 there. The cell width is widened by
//! one part in a million so that float rounding in the cell index can
//! never separate a pair sitting exactly at `max_range_m`.
//!
//! [`RadioParams::max_range_m`]: vifi_phy::RadioParams::max_range_m

use std::cmp::Reverse;

use vifi_phy::{NodeId, NodeKind, PhysicalLinkModel, Point};
use vifi_sim::SimTime;

use crate::scenario::Scenario;

/// What one [`ScenarioAnalysis`] pass computes. Each output costs only
/// when asked for, and the pass stops at the last second any requested
/// output still needs.
#[derive(Clone, Copy, Debug, Default)]
pub struct AnalysisSpec {
    /// Decompose the nodes into contact clusters over one lap
    /// ([`ScenarioAnalysis::clusters`]). When false the cluster list is
    /// empty and so is the per-cluster activity.
    pub clusters: bool,
    /// The planner's contact threshold: when set, compute every vehicle's
    /// contact windows and every basestation's contact seconds over one
    /// lap at this slow-fading delivery probability.
    pub contact_min_prob: Option<f64>,
    /// Activity horizon, seconds: the fleet (and, with `clusters`, each
    /// cluster) is scanned for radio contact over `[0, horizon_s)`. Zero
    /// skips activity.
    pub horizon_s: u64,
    /// Each active second is dilated by ±`margin_s` before ranges merge.
    pub margin_s: u64,
}

/// The radio-contact analysis of one scenario against one link model:
/// contact clusters, per-vehicle contact windows, per-basestation contact
/// seconds, and fleet and per-cluster activity, all from one sweep (see
/// the module docs). The [`Scenario`] methods of the same names are thin
/// wrappers over it; the coupled runtime builds one per run and hands it
/// to both the shard planner and the engine.
#[derive(Clone, Debug)]
pub struct ScenarioAnalysis {
    clusters: Vec<Vec<NodeId>>,
    /// Index-aligned with `clusters` (empty without clusters).
    cluster_active: Vec<Vec<(u64, u64)>>,
    active: Vec<(u64, u64)>,
    /// Per vehicle in id order (empty without a contact threshold).
    windows: Vec<(NodeId, Vec<(u64, u64)>)>,
    /// Per basestation in id order, plus one (empty without a contact
    /// threshold).
    bs_contact: Vec<(NodeId, u64)>,
    contact: bool,
}

impl ScenarioAnalysis {
    /// Analyse every radio node of `scenario` against `link` (built with
    /// [`Scenario::build_link_model`]).
    pub fn new(scenario: &Scenario, link: &PhysicalLinkModel, spec: &AnalysisSpec) -> Self {
        let all: Vec<NodeId> = scenario.nodes.iter().map(|n| n.id).collect();
        Self::of_members(scenario, link, spec, &all)
    }

    /// Analyse only the radio nodes among `members`: every other node is
    /// treated as absent (and, with clusters, is a singleton).
    pub(crate) fn of_members(
        scenario: &Scenario,
        link: &PhysicalLinkModel,
        spec: &AnalysisSpec,
        members: &[NodeId],
    ) -> Self {
        let mut radio: Vec<NodeId> = members
            .iter()
            .copied()
            .filter(|&n| scenario.node(n).kind != NodeKind::Wired)
            .collect();
        radio.sort_unstable();
        radio.dedup();
        let n = radio.len();
        let vehicle: Vec<bool> = radio
            .iter()
            .map(|&id| scenario.node(id).kind == NodeKind::Vehicle)
            .collect();
        let lap_s = scenario.lap.as_secs();
        let cluster_secs = if spec.clusters { lap_s.max(1) } else { 0 };
        let contact_secs = if spec.contact_min_prob.is_some() {
            lap_s
        } else {
            0
        };
        let min_prob = spec.contact_min_prob.unwrap_or(0.0);
        // A negative threshold is met by every pair, in range or not: each
        // node is covered whenever a node of the other kind exists.
        let covered_init: Vec<bool> = {
            let any_vehicle = vehicle.iter().any(|&v| v);
            let any_bs = vehicle.iter().any(|&v| !v);
            vehicle
                .iter()
                .map(|&v| min_prob < 0.0 && if v { any_bs } else { any_vehicle })
                .collect()
        };

        // Union-find over radio indices; roots are the smallest index.
        let mut parent: Vec<usize> = (0..n).collect();
        let mut components = n;
        // Contact state, per radio index.
        let mut covered = covered_init.clone();
        let mut open: Vec<Option<u64>> = vec![None; n];
        let mut windows: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n];
        let mut contact_secs_of = vec![0u64; n];
        // Activity state. One active pair per second makes the fleet
        // active, and one per component makes its cluster active: `hit`
        // flags the components (by root) already known active this
        // second, so their other pairs need no activity check.
        let mut active = Vec::new();
        let mut sec_active: bool;
        let mut hit = vec![false; n];
        let mut hit_roots: Vec<usize> = Vec::new();
        let mut cluster_hits: Vec<(u64, usize)> = Vec::new();

        let mut grid = Grid::new(link.radio_params().max_range_m);
        let mut pos: Vec<Point> = Vec::with_capacity(n);
        let end = cluster_secs.max(contact_secs).max(spec.horizon_s);
        for sec in 0..end {
            let clustering = sec < cluster_secs && components > 1;
            let contacting = sec < contact_secs;
            let activity = sec < spec.horizon_s;
            if !(clustering || contacting || activity) {
                // Only clustering was left, and every radio node already
                // shares one component.
                break;
            }
            let t = SimTime::from_secs(sec);
            pos.clear();
            pos.extend(radio.iter().map(|&id| link.position(id, t)));
            covered.copy_from_slice(&covered_init);
            sec_active = false;
            grid.rebuild(&pos);
            grid.for_each_pair(|a, b| {
                // `lo` precedes `hi` in id order.
                let (lo, hi) = (a.min(b), a.max(b));
                let slow = |tx: usize, rx: usize| {
                    link.slow_prob_at(radio[tx], radio[rx], pos[tx], pos[rx])
                };
                let cluster = clustering && find(&mut parent, lo) != find(&mut parent, hi);
                let activity = activity
                    && if spec.clusters {
                        !hit[find(&mut parent, lo)]
                    } else {
                        !sec_active
                    };
                let (edge, active_pair) = match (vehicle[lo], vehicle[hi]) {
                    // Fixed infrastructure: sampled once, at t = 0.
                    (false, false) => (
                        sec == 0 && cluster && (slow(lo, hi) > 0.0 || slow(hi, lo) > 0.0),
                        false,
                    ),
                    (true, true) => {
                        if !(cluster || activity) {
                            return;
                        }
                        let forward = slow(lo, hi) > 0.0;
                        (
                            cluster && (forward || slow(hi, lo) > 0.0),
                            activity && forward,
                        )
                    }
                    (v_lo, _) => {
                        let (v, b) = if v_lo { (lo, hi) } else { (hi, lo) };
                        let cover = contacting && !(covered[v] && covered[b]);
                        if !(cover || cluster || activity) {
                            return;
                        }
                        // Basestation to vehicle: the direction contact
                        // and activity are defined on.
                        let p = slow(b, v);
                        if cover && p > min_prob {
                            covered[v] = true;
                            covered[b] = true;
                        }
                        (
                            cluster && (p > 0.0 || slow(v, b) > 0.0),
                            activity && p > 0.0,
                        )
                    }
                };
                if edge {
                    components -= union(&mut parent, lo, hi);
                }
                if active_pair {
                    sec_active = true;
                    // Past the lap an active pair may join two clusters;
                    // it then counts for the fleet alone.
                    let r = find(&mut parent, lo);
                    if spec.clusters && r == find(&mut parent, hi) && !hit[r] {
                        hit[r] = true;
                        hit_roots.push(r);
                    }
                }
            });
            if contacting {
                for i in 0..n {
                    if !vehicle[i] {
                        contact_secs_of[i] += u64::from(covered[i]);
                        continue;
                    }
                    match (covered[i], open[i]) {
                        (true, None) => open[i] = Some(sec),
                        (false, Some(start)) => {
                            windows[i].push((start, sec));
                            open[i] = None;
                        }
                        _ => {}
                    }
                }
            }
            if sec_active {
                push_active(&mut active, sec, spec.margin_s, spec.horizon_s);
            }
            for r in hit_roots.drain(..) {
                hit[r] = false;
                cluster_hits.push((sec, r));
            }
        }

        // Clusters over every scenario node, in id order: radio nodes by
        // component, everything else a singleton. A cluster opens at its
        // smallest member, so clusters come out ordered by it.
        let mut clusters: Vec<Vec<NodeId>> = Vec::new();
        let mut cluster_active = Vec::new();
        if spec.clusters {
            let mut cluster_of = vec![usize::MAX; n];
            let mut next_radio = 0;
            for node in &scenario.nodes {
                if radio.get(next_radio) != Some(&node.id) {
                    clusters.push(vec![node.id]);
                    continue;
                }
                let r = find(&mut parent, next_radio);
                next_radio += 1;
                if cluster_of[r] == usize::MAX {
                    cluster_of[r] = clusters.len();
                    clusters.push(Vec::new());
                }
                clusters[cluster_of[r]].push(node.id);
            }
            // Hits arrive in second order; a repeated second is a no-op.
            cluster_active = vec![Vec::new(); clusters.len()];
            for (sec, r) in cluster_hits {
                let c = cluster_of[find(&mut parent, r)];
                push_active(&mut cluster_active[c], sec, spec.margin_s, spec.horizon_s);
            }
        }

        let contact = spec.contact_min_prob.is_some();
        let (mut vehicle_windows, mut bs_contact) = (Vec::new(), Vec::new());
        if contact {
            for i in 0..n {
                if vehicle[i] {
                    if let Some(start) = open[i] {
                        windows[i].push((start, lap_s));
                    }
                    vehicle_windows.push((radio[i], std::mem::take(&mut windows[i])));
                } else {
                    bs_contact.push((radio[i], contact_secs_of[i] + 1));
                }
            }
        }
        ScenarioAnalysis {
            clusters,
            cluster_active,
            active,
            windows: vehicle_windows,
            bs_contact,
            contact,
        }
    }

    /// The contact clusters: the connected components of the audibility
    /// graph, whose edges are the node pairs ever within radio range
    /// (`slow_prob > 0` in either direction) — vehicle pairs at 1 Hz over
    /// one lap, basestation pairs once at `t = 0`. See
    /// [`Scenario::contact_clusters`] for the contract. Empty unless
    /// [`AnalysisSpec::clusters`] was set.
    pub fn clusters(&self) -> &[Vec<NodeId>] {
        &self.clusters
    }

    /// Each cluster's own activity ranges, index-aligned with
    /// [`Self::clusters`]: a second is active for a cluster when two of
    /// its members are in contact (see [`Self::active_seconds`]).
    pub fn cluster_active_seconds(&self) -> &[Vec<(u64, u64)>] {
        &self.cluster_active
    }

    /// The seconds of `[0, horizon_s)` with radio contact anywhere: some
    /// basestation reaches a vehicle, or a vehicle reaches a higher-id
    /// vehicle (`slow_prob > 0`). Each active second is dilated by
    /// ±`margin_s` and the result merged into sorted, disjoint
    /// `[start, end)` ranges.
    pub fn active_seconds(&self) -> &[(u64, u64)] {
        &self.active
    }

    /// The contact windows of `vehicle` over one lap: maximal, sorted,
    /// disjoint `[start, end)` second intervals in which some basestation
    /// reaches it above the contact threshold. Panics unless the analysis
    /// was built with [`AnalysisSpec::contact_min_prob`] and `vehicle` is
    /// one of its vehicles.
    pub fn contact_windows(&self, vehicle: NodeId) -> &[(u64, u64)] {
        assert!(self.contact, "analysis built without a contact threshold");
        let i = self
            .windows
            .binary_search_by_key(&vehicle, |(v, _)| *v)
            .unwrap_or_else(|_| panic!("{vehicle:?} is not an analysed vehicle"));
        &self.windows[i].1
    }

    /// Total length of [`Self::contact_windows`], seconds.
    pub fn contact_seconds(&self, vehicle: NodeId) -> u64 {
        self.contact_windows(vehicle)
            .iter()
            .map(|(a, b)| b - a)
            .sum()
    }

    /// Per basestation in id order: the seconds of one lap in which it
    /// reaches some vehicle above the contact threshold, plus one. Panics
    /// unless the analysis was built with
    /// [`AnalysisSpec::contact_min_prob`].
    pub fn bs_contact_seconds(&self) -> &[(NodeId, u64)] {
        assert!(self.contact, "analysis built without a contact threshold");
        &self.bs_contact
    }

    /// The vehicles split into `shards` groups by contact load: each
    /// weighs its [`Self::contact_seconds`] plus one, placed by
    /// [`lpt_assign`]. See [`Scenario::shard_partition_by_contact`].
    pub fn vehicle_partition(&self, shards: usize) -> Vec<Vec<NodeId>> {
        assert!(self.contact, "analysis built without a contact threshold");
        let weighted = self
            .windows
            .iter()
            .map(|(v, w)| (w.iter().map(|(a, b)| b - a).sum::<u64>() + 1, *v))
            .collect();
        lpt_assign(weighted, shards)
    }
}

/// Longest-processing-time placement: items go heaviest first (ties by
/// item) each onto the bin with the smallest load so far (ties by bin
/// index). Returns each bin's items in placement order; trailing bins
/// stay empty when there are fewer items than bins. Deterministic.
pub fn lpt_assign<T: Ord + Copy>(mut items: Vec<(u64, T)>, bins: usize) -> Vec<Vec<T>> {
    assert!(bins >= 1, "need at least one bin");
    items.sort_by_key(|&(w, t)| (Reverse(w), t));
    let mut groups: Vec<Vec<T>> = vec![Vec::new(); bins];
    let mut loads = vec![0u64; bins];
    for (w, t) in items {
        let lightest = (0..bins).min_by_key(|&b| (loads[b], b)).expect(">=1 bin");
        loads[lightest] += w;
        groups[lightest].push(t);
    }
    groups
}

/// Dilate `sec` by ±`margin` (clipped to the horizon) and merge it into
/// the sorted, disjoint `ranges`; seconds arrive in increasing order.
fn push_active(ranges: &mut Vec<(u64, u64)>, sec: u64, margin: u64, horizon: u64) {
    let lo = sec.saturating_sub(margin);
    let hi = (sec + margin + 1).min(horizon.max(1));
    match ranges.last_mut() {
        Some(last) if lo <= last.1 => last.1 = last.1.max(hi),
        _ => ranges.push((lo, hi)),
    }
}

fn find(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        parent[x] = parent[parent[x]]; // path halving
        x = parent[x];
    }
    x
}

/// Join the components of `a` and `b`, rooted at the smaller index;
/// returns how many components disappeared (0 or 1).
fn union(parent: &mut [usize], a: usize, b: usize) -> usize {
    let (ra, rb) = (find(parent, a), find(parent, b));
    if ra == rb {
        return 0;
    }
    parent[ra.max(rb)] = ra.min(rb);
    1
}

/// Uniform spatial grid over one instant's node positions.
struct Grid {
    /// Cell width; `None` puts every node into one cell (a range that is
    /// infinite, zero or not a number cannot bound a cell).
    cell: Option<f64>,
    /// `(cell, node)` sorted, so each cell's nodes form one run.
    keys: Vec<((i64, i64), usize)>,
}

impl Grid {
    fn new(max_range_m: f64) -> Self {
        let cell = max_range_m * (1.0 + 1e-6);
        Grid {
            cell: (cell.is_finite() && cell > 0.0).then_some(cell),
            keys: Vec::new(),
        }
    }

    fn cell_of(&self, p: Point) -> (i64, i64) {
        match self.cell {
            Some(c) => ((p.x / c).floor() as i64, (p.y / c).floor() as i64),
            None => (0, 0),
        }
    }

    fn rebuild(&mut self, pos: &[Point]) {
        self.keys.clear();
        for (i, &p) in pos.iter().enumerate() {
            let key = self.cell_of(p);
            self.keys.push((key, i));
        }
        self.keys.sort_unstable();
    }

    /// The nodes of cell `key`, as a range of `keys`.
    fn run(&self, key: (i64, i64)) -> std::ops::Range<usize> {
        let lo = self.keys.partition_point(|&(k, _)| k < key);
        let hi = lo + self.keys[lo..].partition_point(|&(k, _)| k == key);
        lo..hi
    }

    /// Visit every unordered pair of nodes in the same or adjacent cells
    /// exactly once.
    fn for_each_pair(&self, mut f: impl FnMut(usize, usize)) {
        let mut start = 0;
        while start < self.keys.len() {
            let key = self.keys[start].0;
            let end = start + self.keys[start..].partition_point(|&(k, _)| k == key);
            for a in start..end {
                for b in a + 1..end {
                    f(self.keys[a].1, self.keys[b].1);
                }
            }
            // Half of the eight neighbours, so each adjacent cell pair is
            // visited from one side only.
            for (dx, dy) in [(0, 1), (1, -1), (1, 0), (1, 1)] {
                let other = self.run((key.0.wrapping_add(dx), key.1.wrapping_add(dy)));
                for a in start..end {
                    for b in other.clone() {
                        f(self.keys[a].1, self.keys[b].1);
                    }
                }
            }
            start = end;
        }
    }
}
