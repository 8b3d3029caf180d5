//! Data-placement planning: the paper's **Algorithm 2** (P3 items → hot
//! enclosures) and **Algorithm 3** (P0/P1/P2 items evicted from hot
//! enclosures to cold ones), plus the `N_hot`-increase retry loop of
//! §IV.C/§IV.D.
//!
//! The planner works on a projected model of the array: per-enclosure used
//! bytes and summed item IOPS, updated as assignments are made, so every
//! accepted migration respects the IOPS cap `O` and capacity `S` *after*
//! the moves that precede it in the plan. The returned migration list is
//! ordered for execution: each eviction precedes the P3 move that needed
//! its space (§V.A migrates P0/P1/P2 items off hot enclosures first).

use crate::analysis::ItemReport;
use crate::hotcold::{hot_demand, split_hot_cold, HotColdSplit};
use ees_iotrace::{DataItemId, EnclosureId, Micros};
use ees_policy::{EnclosureView, Migration};
use std::collections::BTreeMap;

/// Projected state of one enclosure while planning.
#[derive(Debug, Clone)]
struct Projected {
    capacity: u64,
    max_iops: f64,
    used: u64,
    iops: f64,
    /// Cold-compatible items still resident (eviction candidates),
    /// as (item, size, avg_iops).
    evictable: Vec<(DataItemId, u64, f64)>,
}

/// Outcome of one placement attempt at a fixed hot set.
enum Attempt {
    Ok(Vec<Migration>),
    NeedMoreHot,
}

/// The full placement decision for a period.
#[derive(Debug, Clone)]
pub struct PlacementPlan {
    /// The hot/cold split actually used (after any `N_hot` increases).
    pub split: HotColdSplit,
    /// Ordered migrations.
    pub migrations: Vec<Migration>,
}

/// Plans placement for the period: determines the hot/cold split, then
/// assigns P3 items off cold enclosures onto hot ones, evicting
/// cold-compatible items when a hot enclosure lacks space. Retries with a
/// larger hot set when the P3 load cannot be absorbed (§IV.D).
pub fn plan_placement(
    reports: &[ItemReport],
    enclosures: &[EnclosureView],
    _period_start: Micros,
) -> PlacementPlan {
    let (_, n_hot) = hot_demand(reports, enclosures);
    plan_placement_with_floor(reports, enclosures, n_hot, 0)
}

/// Like [`plan_placement`], but from an `N_hot` the caller already
/// computed (§IV.C step 2) and with a lower bound on the hot-set size.
///
/// The policy uses the bound for **shrink hysteresis**: when the computed
/// `N_hot` drops by exactly one between periods, demoting a hot enclosure
/// would migrate its whole P3 load only to promote a fresh enclosure the
/// next time the one-second peak wobbles back up. Passing the previous
/// `N_hot − 1` as the floor damps that churn while still letting a real
/// load drop shrink the hot set over successive periods.
pub fn plan_placement_with_floor(
    reports: &[ItemReport],
    enclosures: &[EnclosureView],
    n_hot: usize,
    min_n_hot: usize,
) -> PlacementPlan {
    let mut n = n_hot.max(min_n_hot.min(enclosures.len()));
    if n_hot == 0 {
        // No P3 items at all: nothing needs a hot enclosure.
        n = 0;
    }
    loop {
        let split = split_hot_cold(reports, enclosures, n);
        match attempt(reports, enclosures, &split) {
            Attempt::Ok(migrations) => {
                return PlacementPlan { split, migrations };
            }
            Attempt::NeedMoreHot => {
                if n >= enclosures.len() {
                    // Everything is hot: no cold enclosures, nothing moves.
                    let split = split_hot_cold(reports, enclosures, enclosures.len());
                    return PlacementPlan {
                        split,
                        migrations: Vec::new(),
                    };
                }
                n += 1;
            }
        }
    }
}

fn attempt(reports: &[ItemReport], enclosures: &[EnclosureView], split: &HotColdSplit) -> Attempt {
    let mut state: BTreeMap<EnclosureId, Projected> = enclosures
        .iter()
        .map(|e| {
            (
                e.id,
                Projected {
                    capacity: e.capacity,
                    max_iops: e.max_iops,
                    used: 0,
                    iops: 0.0,
                    evictable: Vec::new(),
                },
            )
        })
        .collect();

    // Project the current placement from the item reports.
    for r in reports {
        let s = state
            .get_mut(&r.enclosure)
            .expect("item placed on unknown enclosure");
        s.used += r.size;
        s.iops += r.rand_equiv_iops();
        if !r.is_placement_p3() && split.is_hot(r.enclosure) {
            s.evictable.push((r.id, r.size, r.rand_equiv_iops()));
        }
    }
    // Largest evictables first: fewer moves to free the needed space.
    for s in state.values_mut() {
        s.evictable
            .sort_by_key(|&(id, size, _)| (std::cmp::Reverse(size), id));
    }

    // Algorithm 2's M: P3 items on cold enclosures, by IOPS density desc.
    let mut m: Vec<&ItemReport> = reports
        .iter()
        .filter(|r| r.is_placement_p3() && !split.is_hot(r.enclosure))
        .collect();
    m.sort_by(|a, b| {
        let da = a.rand_equiv_iops() / a.size.max(1) as f64;
        let db = b.rand_equiv_iops() / b.size.max(1) as f64;
        db.partial_cmp(&da).unwrap().then(a.id.cmp(&b.id))
    });

    let mut migrations = Vec::new();
    for d in m {
        if !place_p3(d, split, &mut state, &mut migrations) {
            return Attempt::NeedMoreHot;
        }
    }
    Attempt::Ok(migrations)
}

/// Places one P3 item onto a hot enclosure, evicting cold-compatible items
/// if necessary. Returns `false` when even the least-loaded hot enclosure
/// cannot absorb the item's IOPS (the paper's "increase `N_hot`" signal).
fn place_p3(
    d: &ItemReport,
    split: &HotColdSplit,
    state: &mut BTreeMap<EnclosureId, Projected>,
    migrations: &mut Vec<Migration>,
) -> bool {
    // Hot enclosures by projected IOPS ascending (Algorithm 2 tries the
    // minimum first, then "next minimum" on capacity misses).
    let mut hot: Vec<EnclosureId> = split.hot.clone();
    if hot.is_empty() {
        return false;
    }
    hot.sort_by(|a, b| {
        let ia = state[a].iops;
        let ib = state[b].iops;
        ia.partial_cmp(&ib).unwrap().then(a.cmp(b))
    });

    // Condition i: the minimum-IOPS hot enclosure must have IOPS headroom;
    // if it does not, none do.
    let d_iops = d.rand_equiv_iops();
    if d_iops + state[&hot[0]].iops >= state[&hot[0]].max_iops {
        return false;
    }

    // First pass: a hot enclosure with both IOPS and capacity headroom.
    for id in &hot {
        let s = &state[id];
        if d_iops + s.iops < s.max_iops && d.size + s.used < s.capacity {
            commit_move(d.id, d.size, d_iops, d.enclosure, *id, state, migrations);
            return true;
        }
    }

    // Second pass: capacity is tight everywhere — evict cold-compatible
    // items (Algorithm 3) from IOPS-feasible hot enclosures to make room.
    for id in &hot {
        if d_iops + state[id].iops >= state[id].max_iops {
            continue;
        }
        if evict_until_fits(d.size, *id, split, state, migrations) {
            commit_move(d.id, d.size, d_iops, d.enclosure, *id, state, migrations);
            return true;
        }
    }
    false
}

/// Algorithm 3: moves cold-compatible items off hot enclosure `host` onto
/// cold enclosures until `needed` extra bytes fit, preferring the cold
/// enclosure with the **highest** projected IOPS that still satisfies the
/// capacity and IOPS conditions (concentrating the displaced noise on
/// already-busy cold enclosures keeps the quiet ones quiet).
fn evict_until_fits(
    needed: u64,
    host: EnclosureId,
    split: &HotColdSplit,
    state: &mut BTreeMap<EnclosureId, Projected>,
    migrations: &mut Vec<Migration>,
) -> bool {
    loop {
        {
            let h = &state[&host];
            if needed + h.used < h.capacity {
                return true;
            }
        }
        let Some((item, size, iops)) = state.get_mut(&host).and_then(|h| {
            if h.evictable.is_empty() {
                None
            } else {
                Some(h.evictable.remove(0))
            }
        }) else {
            return false;
        };

        // Cold enclosures by projected IOPS descending.
        let mut cold: Vec<EnclosureId> = split.cold.clone();
        cold.sort_by(|a, b| {
            let ia = state[a].iops;
            let ib = state[b].iops;
            ib.partial_cmp(&ia).unwrap().then(a.cmp(b))
        });
        let mut placed = false;
        for cid in cold {
            let c = &state[&cid];
            if size + c.used < c.capacity && iops + c.iops < c.max_iops {
                commit_move(item, size, iops, host, cid, state, migrations);
                placed = true;
                break;
            }
        }
        if !placed {
            // This evictee fits nowhere; try the next candidate.
            continue;
        }
    }
}

fn commit_move(
    item: DataItemId,
    size: u64,
    iops: f64,
    from: EnclosureId,
    to: EnclosureId,
    state: &mut BTreeMap<EnclosureId, Projected>,
    migrations: &mut Vec<Migration>,
) {
    debug_assert_ne!(from, to);
    {
        let f = state.get_mut(&from).expect("unknown source enclosure");
        f.used = f.used.saturating_sub(size);
        f.iops = (f.iops - iops).max(0.0);
    }
    {
        let t = state.get_mut(&to).expect("unknown target enclosure");
        t.used += size;
        t.iops += iops;
    }
    migrations.push(Migration { item, to });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::LogicalIoPattern;
    use ees_iotrace::{IopsSeries, ItemIntervalStats, Span};

    fn view(id: u16, capacity: u64) -> EnclosureView {
        EnclosureView {
            id: EnclosureId(id),
            capacity,
            used: 0,
            max_iops: 900.0,
            max_seq_iops: 2800.0,
            served_ios: 0,
            spin_ups: 0,
        }
    }

    /// Builds a report with a controllable average IOPS: `ios_total` I/Os
    /// over a 100 s period.
    fn report(
        item: u32,
        enc: u16,
        size: u64,
        pattern: LogicalIoPattern,
        ios_total: u64,
    ) -> ItemReport {
        let period = Span {
            start: Micros::ZERO,
            end: Micros::from_secs(100),
        };
        ItemReport {
            id: DataItemId(item),
            enclosure: EnclosureId(enc),
            size,
            pattern,
            stats: ItemIntervalStats {
                item: DataItemId(item),
                period,
                long_intervals: Vec::new(),
                sequences: Vec::new(),
                reads: ios_total,
                writes: 0,
                bytes_read: 0,
                bytes_written: 0,
            },
            iops: IopsSeries::from_timestamps(
                (0..ios_total.min(100)).map(Micros::from_secs),
                period,
            ),
            sequential: false,
            seq_factor: 900.0 / 2800.0,
        }
    }

    #[test]
    fn p3_on_cold_moves_to_hot() {
        // Enclosure 0 holds the P3 mass (hot); enclosure 1 has one stray
        // P3 item that must move to 0.
        let reports = vec![
            report(1, 0, 4000, LogicalIoPattern::P3, 1000),
            report(2, 1, 100, LogicalIoPattern::P3, 1_000),
            report(3, 1, 100, LogicalIoPattern::P1, 10),
        ];
        let views = vec![view(0, 10_000), view(1, 10_000)];
        let plan = plan_placement(&reports, &views, Micros::ZERO);
        assert_eq!(plan.split.hot, vec![EnclosureId(0)]);
        assert_eq!(
            plan.migrations,
            vec![Migration {
                item: DataItemId(2),
                to: EnclosureId(0)
            }]
        );
    }

    #[test]
    fn p3_on_hot_stays_put() {
        let reports = vec![report(1, 0, 4000, LogicalIoPattern::P3, 1000)];
        let views = vec![view(0, 10_000), view(1, 10_000)];
        let plan = plan_placement(&reports, &views, Micros::ZERO);
        assert!(plan.migrations.is_empty());
    }

    #[test]
    fn capacity_pressure_triggers_eviction_first() {
        // Hot enclosure 0 is nearly full of P3 plus a big P1 item; the
        // stray P3 item from enclosure 1 only fits if the P1 item is
        // evicted to a cold enclosure first.
        let reports = vec![
            report(1, 0, 6000, LogicalIoPattern::P3, 2000),
            report(2, 0, 3500, LogicalIoPattern::P1, 10),
            report(3, 1, 1000, LogicalIoPattern::P3, 1_000),
        ];
        let views = vec![view(0, 10_000), view(1, 10_000)];
        let plan = plan_placement(&reports, &views, Micros::ZERO);
        assert_eq!(plan.split.hot, vec![EnclosureId(0)]);
        assert_eq!(plan.migrations.len(), 2);
        // Eviction precedes the dependent P3 move (§V.A ordering).
        assert_eq!(plan.migrations[0].item, DataItemId(2));
        assert_eq!(plan.migrations[0].to, EnclosureId(1));
        assert_eq!(plan.migrations[1].item, DataItemId(3));
        assert_eq!(plan.migrations[1].to, EnclosureId(0));
    }

    #[test]
    fn iops_pressure_grows_the_hot_set() {
        // Two P3 items of ~600 peak IOPS each cannot share one 900-IOPS
        // enclosure: N_hot grows to 2 and no migration is needed since
        // both enclosures end up hot.
        let mut a = report(1, 0, 100, LogicalIoPattern::P3, 60_000);
        let mut b = report(2, 1, 100, LogicalIoPattern::P3, 60_000);
        // avg IOPS 600 each (60000 I/Os over 100 s).
        assert!((a.avg_iops() - 600.0).abs() < 1e-9);
        a.iops = IopsSeries::from_timestamps(Vec::new(), a.stats.period);
        b.iops = IopsSeries::from_timestamps(Vec::new(), b.stats.period);
        let views = vec![view(0, 10_000), view(1, 10_000)];
        let plan = plan_placement(&[a, b], &views, Micros::ZERO);
        assert_eq!(plan.split.hot.len(), 2, "hot set grew to absorb the IOPS");
        assert!(plan.migrations.is_empty());
    }

    #[test]
    fn everything_hot_when_nothing_fits() {
        // One oversized P3 item per enclosure: the planner saturates at
        // all-hot and plans no migrations.
        let reports = vec![
            report(1, 0, 9_999, LogicalIoPattern::P3, 50_000),
            report(2, 1, 9_999, LogicalIoPattern::P3, 50_000),
        ];
        let views = vec![view(0, 10_000), view(1, 10_000)];
        let plan = plan_placement(&reports, &views, Micros::ZERO);
        assert_eq!(plan.split.cold.len(), 0);
        assert!(plan.migrations.is_empty());
    }

    #[test]
    fn no_p3_plans_no_migrations_and_all_cold() {
        let reports = vec![
            report(1, 0, 100, LogicalIoPattern::P1, 10),
            report(2, 1, 100, LogicalIoPattern::P2, 10),
        ];
        let views = vec![view(0, 10_000), view(1, 10_000)];
        let plan = plan_placement(&reports, &views, Micros::ZERO);
        assert!(plan.split.hot.is_empty());
        assert_eq!(plan.split.cold.len(), 2);
        assert!(plan.migrations.is_empty());
    }

    #[test]
    fn densest_p3_items_place_first() {
        // Two P3 strays compete for one hot slot; the denser (higher
        // IOPS/size) item is placed first and both ultimately fit.
        let reports = vec![
            report(1, 0, 5000, LogicalIoPattern::P3, 1000),
            report(2, 1, 100, LogicalIoPattern::P3, 4_000), // density 0.4/B·s
            report(3, 1, 4000, LogicalIoPattern::P3, 4_000), // density 0.01
        ];
        let views = vec![view(0, 10_000), view(1, 10_000)];
        let plan = plan_placement(&reports, &views, Micros::ZERO);
        let moved: Vec<DataItemId> = plan.migrations.iter().map(|m| m.item).collect();
        assert_eq!(moved, vec![DataItemId(2), DataItemId(3)]);
    }

    #[test]
    fn migration_bytes_stay_small_when_hot_set_matches_p3_mass() {
        // The paper's headline (Fig. 10): only stray P3 items move. 10
        // enclosures, P3 concentrated on 2, one small stray.
        let mut reports = vec![
            report(1, 0, 8000, LogicalIoPattern::P3, 30_000),
            report(2, 1, 8000, LogicalIoPattern::P3, 30_000),
            report(3, 2, 500, LogicalIoPattern::P3, 2_000),
        ];
        for e in 0..10u16 {
            reports.push(report(100 + e as u32, e, 1000, LogicalIoPattern::P1, 10));
        }
        let views: Vec<EnclosureView> = (0..10).map(|i| view(i, 10_000)).collect();
        let plan = plan_placement(&reports, &views, Micros::ZERO);
        let moved_bytes: u64 = plan
            .migrations
            .iter()
            .map(|m| reports.iter().find(|r| r.id == m.item).unwrap().size)
            .sum();
        assert_eq!(moved_bytes, 500, "only the stray P3 item moves");
        assert_eq!(plan.split.cold.len(), 10 - plan.split.hot.len());
    }
}
