//! The storage-side half of the replay engine, reusable record-at-a-time.
//!
//! [`StreamHarness`] owns everything the run-time power-saving method of
//! §V needs between and at management invocations: the simulated storage
//! controller, the placement map and its dense mirrors, the cache
//! routing, and plan execution (migrations, extent redirects, write-delay
//! and preload swaps, power-off eligibility). The batch
//! [`Engine`](crate::engine) drives it from a full in-memory trace; the
//! `ees-online` colocated daemon drives the *same* harness from an NDJSON
//! event stream — so both execute plans and serve I/O identically, and
//! their per-enclosure power meters agree on the same input.

use ees_iotrace::{DataItemId, EnclosureId, IoKind, LogicalIoRecord, Micros};
use ees_policy::{EnclosureView, ManagementPlan, REDIRECT_EXTENT_BYTES};
use ees_simstorage::{Access, PlacementMap, StorageConfig, StorageController};
use std::collections::{BTreeSet, HashMap};

/// Sentinel in the dense item → enclosure mirror for unplaced items.
const NO_HOME: u16 = u16::MAX;

/// One data item as the harness needs it: identity, footprint, initial
/// home, and access hint. (A projection of richer catalogs such as
/// `ees_workloads::DataItemSpec`.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CatalogItem {
    /// Item identifier (dense `u32` within a catalog).
    pub id: DataItemId,
    /// Size in bytes.
    pub size: u64,
    /// Initial home enclosure.
    pub enclosure: EnclosureId,
    /// Whether the Storage Monitor reports this item as a sequential
    /// stream.
    pub access: Access,
}

/// Outcome of serving one logical record.
#[derive(Debug, Clone, Copy)]
pub struct ServedIo {
    /// Enclosure the record resolved to (home or redirected extent).
    pub enclosure: EnclosureId,
    /// Response time, stall-coalesced: only the I/O that *triggered* a
    /// spin-up is charged the power wait (open-loop replay stacks every
    /// I/O arriving during a spin-up behind the same 15 s stall; a real
    /// closed-loop application would simply issue them later).
    pub response: Micros,
    /// Whether this I/O spun the enclosure up.
    pub spun_up: bool,
    /// Whether the record reached the enclosure (false on a cache hit).
    pub physical: bool,
}

/// Storage-side replay state, driven one [`LogicalIoRecord`] at a time.
pub struct StreamHarness {
    controller: StorageController,
    placement: PlacementMap,
    /// Dense item-id → access pattern (item ids are dense `u32`s within
    /// a catalog), replacing a per-record `BTreeMap` lookup.
    item_access: Vec<Access>,
    /// Dense item-id → home enclosure mirror of `placement`, kept in
    /// sync at migration time; `NO_HOME` marks unplaced ids.
    item_home: Vec<u16>,
    /// Items the Storage Monitor reports as sequential streams.
    sequential: BTreeSet<DataItemId>,
    break_even: Micros,

    /// Dense enclosure-id → I/Os served this period.
    served_in_period: Vec<u64>,
    spin_up_baseline: Vec<u64>,
    /// Snapshot views, reused across period boundaries.
    views_buf: Vec<EnclosureView>,

    // Extent redirects installed by block-granular policies:
    // (item, extent) → (current enclosure, bytes moved there).
    redirects: HashMap<(DataItemId, u64), (EnclosureId, u64)>,
}

impl StreamHarness {
    /// Builds the harness: a storage unit from `cfg` with
    /// `num_enclosures` enclosures (overriding `cfg.num_enclosures`), and
    /// every catalog item placed on its initial home.
    pub fn new(items: &[CatalogItem], num_enclosures: u16, cfg: &StorageConfig) -> Self {
        let mut cfg = *cfg;
        cfg.num_enclosures = num_enclosures;
        let mut controller = StorageController::new(&cfg);
        let mut placement = PlacementMap::new();
        for item in items {
            controller
                .enclosure_mut(item.enclosure)
                .place_bytes(item.size);
            placement.insert(item.id, item.enclosure, item.size);
        }
        let sequential: BTreeSet<DataItemId> = items
            .iter()
            .filter(|i| i.access == Access::Sequential)
            .map(|i| i.id)
            .collect();
        let max_item = items.iter().map(|i| i.id.0 as usize).max();
        let dense_len = max_item.map_or(0, |m| m + 1);
        let mut item_access = vec![Access::Random; dense_len];
        let mut item_home = vec![NO_HOME; dense_len];
        for item in items {
            item_access[item.id.0 as usize] = item.access;
            item_home[item.id.0 as usize] = item.enclosure.0;
        }
        StreamHarness {
            controller,
            placement,
            item_access,
            item_home,
            sequential,
            break_even: cfg.enclosure.power.break_even_time(),
            served_in_period: vec![0; num_enclosures as usize],
            spin_up_baseline: vec![0; num_enclosures as usize],
            views_buf: Vec::with_capacity(num_enclosures as usize),
            redirects: HashMap::new(),
        }
    }

    /// The current placement map.
    pub fn placement(&self) -> &PlacementMap {
        &self.placement
    }

    /// The sequential-stream item set.
    pub fn sequential(&self) -> &BTreeSet<DataItemId> {
        &self.sequential
    }

    /// The storage unit's break-even time.
    pub fn break_even(&self) -> Micros {
        self.break_even
    }

    /// Read access to the simulated storage unit (power meters, cache
    /// counters, enclosure stats).
    pub fn controller(&self) -> &StorageController {
        &self.controller
    }

    /// The cache partition available to preload plans (for plan
    /// validation).
    pub fn preload_budget(&self) -> u64 {
        self.controller.cache().config().preload_bytes
    }

    /// Refills the reusable per-enclosure view buffer for the current
    /// period; read the result with [`views`](Self::views).
    pub fn refresh_views(&mut self) {
        self.views_buf.clear();
        for id in self.controller.enclosure_ids() {
            let e = self.controller.enclosure(id);
            self.views_buf.push(EnclosureView {
                id,
                capacity: e.config().capacity_bytes,
                used: e.used_bytes(),
                max_iops: e.config().service.max_random_iops,
                max_seq_iops: e.config().service.max_seq_iops,
                served_ios: self.served_in_period[id.0 as usize],
                spin_ups: e
                    .stats()
                    .spin_ups
                    .saturating_sub(self.spin_up_baseline[id.0 as usize]),
            });
        }
    }

    /// The per-enclosure views as of the last
    /// [`refresh_views`](Self::refresh_views).
    pub fn views(&self) -> &[EnclosureView] {
        &self.views_buf
    }

    /// Whether `item` has a home enclosure: the O(1) check to make
    /// before [`serve`](Self::serve) on untrusted input.
    pub fn is_placed(&self, item: DataItemId) -> bool {
        self.item_home
            .get(item.0 as usize)
            .is_some_and(|&h| h != NO_HOME)
    }

    /// Serves one logical record through cache and placement to an
    /// enclosure, accounting it against the current period.
    ///
    /// # Panics
    /// Panics when `rec.item` is not placed (see
    /// [`is_placed`](Self::is_placed)).
    pub fn serve(&mut self, rec: LogicalIoRecord) -> ServedIo {
        let t = rec.ts;
        // Dense home lookup; the redirect map is only consulted while a
        // block-granular policy actually has redirects installed.
        let home = self
            .item_home
            .get(rec.item.0 as usize)
            .copied()
            .filter(|&h| h != NO_HOME)
            .expect("trace references an unplaced item");
        let enclosure = if self.redirects.is_empty() {
            EnclosureId(home)
        } else {
            let extent = rec.offset / REDIRECT_EXTENT_BYTES;
            self.redirects
                .get(&(rec.item, extent))
                .map(|&(loc, _)| loc)
                .unwrap_or(EnclosureId(home))
        };

        // Route through the cache; fall through to a physical I/O.
        let mut response: Option<Micros> = None;
        let mut spun_up = false;
        let mut physical = false;
        match rec.kind {
            IoKind::Read => {
                if self
                    .controller
                    .cache_mut()
                    .read_lookup(rec.item, rec.offset)
                {
                    response = Some(self.controller.cache().hit_latency());
                }
            }
            IoKind::Write => {
                if self.controller.cache().is_write_delayed(rec.item) {
                    let flush = self.controller.cache_mut().buffer_write(rec.item, rec.len);
                    response = Some(self.controller.cache().hit_latency());
                    if let Some(set) = flush {
                        self.run_flush(t, set);
                    }
                }
            }
        }
        let response = response.unwrap_or_else(|| {
            physical = true;
            let acc = self.item_access[rec.item.0 as usize];
            let out = self.controller.submit(t, enclosure, rec.len, rec.kind, acc);
            self.served_in_period[enclosure.0 as usize] += 1;
            spun_up = out.triggered_spin_up;
            if out.triggered_spin_up {
                out.response
            } else {
                out.response.saturating_sub(out.power_wait)
            }
        });
        ServedIo {
            enclosure,
            response,
            spun_up,
            physical,
        }
    }

    /// Executes one management plan at `t_end` — the run-time power-saving
    /// method of §V: power-off eligibility, item migrations, extent
    /// redirects, then the write-delay and preload swaps with their
    /// implied bulk I/O.
    pub fn apply_plan(&mut self, t_end: Micros, plan: &ManagementPlan) {
        // 1. Power-off eligibility.
        for (id, eligible) in &plan.power_off_eligible {
            self.controller
                .enclosure_mut(*id)
                .set_eligible_off(t_end, *eligible);
        }
        // 2. Item migrations, in plan order (§V.A). A migration whose
        // target lacks free capacity *right now* is dropped — a policy
        // whose plan ordering is infeasible (PDC recomputes a global
        // layout without sequencing the moves) simply converges over more
        // periods, as a real array would defer the transfer.
        for m in &plan.migrations {
            let Some(from) = self.placement.enclosure_of(m.item) else {
                continue;
            };
            if from == m.to {
                continue;
            }
            let size = self.placement.size_of(m.item).unwrap_or(0);
            // Extent bytes already redirected onto the target are
            // resident there and need no new free space; counting them
            // against the target would wrongly drop a move that merely
            // consolidates the item's own redirected extents.
            let already_on_target: u64 = self
                .redirects
                .iter()
                .filter(|(&(item, _), &(loc, _))| item == m.item && loc == m.to)
                .map(|(_, &(_, bytes))| bytes)
                .sum();
            if size.saturating_sub(already_on_target) > self.controller.enclosure(m.to).free_bytes()
            {
                continue;
            }
            // Extents previously redirected elsewhere travel from their
            // actual homes; the remainder comes from the item's home
            // enclosure. A whole-item move supersedes the redirects.
            let mut redirected_total: u64 = 0;
            let mut extent_moves: Vec<(EnclosureId, u64)> = Vec::new();
            self.redirects.retain(|&(item, _), &mut (loc, bytes)| {
                if item == m.item {
                    redirected_total += bytes;
                    extent_moves.push((loc, bytes));
                    false
                } else {
                    true
                }
            });
            for (loc, bytes) in extent_moves {
                if loc != m.to && bytes > 0 {
                    self.controller.migrate(t_end, loc, m.to, bytes);
                }
            }
            let remainder = size.saturating_sub(redirected_total);
            if remainder > 0 {
                self.controller.migrate(t_end, from, m.to, remainder);
            }
            self.placement.move_item(m.item, m.to);
            self.item_home[m.item.0 as usize] = m.to.0;
        }
        // 3. Extent redirects (block-granular policies).
        for r in &plan.extent_redirects {
            let current = self
                .redirects
                .get(&(r.item, r.extent))
                .map(|&(loc, _)| loc)
                .or_else(|| self.placement.enclosure_of(r.item));
            let Some(from) = current else { continue };
            if from == r.to || r.bytes == 0 {
                continue;
            }
            if r.bytes > self.controller.enclosure(r.to).free_bytes() {
                continue;
            }
            self.controller.migrate(t_end, from, r.to, r.bytes);
            self.redirects.insert((r.item, r.extent), (r.to, r.bytes));
        }
        // 4. Write-delay set; departing items' dirty bytes flush now.
        let flush = self
            .controller
            .cache_mut()
            .set_write_delay(plan.write_delay.clone());
        self.run_flush(t_end, flush);
        // 5. Preload set; newly selected items load from their enclosures.
        let to_load = self
            .controller
            .cache_mut()
            .set_preload(plan.preload.clone());
        for (item, size) in to_load {
            if let Some(enc) = self.placement.enclosure_of(item) {
                self.controller
                    .enclosure_mut(enc)
                    .bulk_transfer(t_end, size, IoKind::Read);
            }
        }
    }

    /// Resets the per-period counters (served I/Os, spin-up baselines) at
    /// a period boundary, after the plan has been applied.
    pub fn begin_period(&mut self) {
        self.served_in_period.fill(0);
        for i in 0..self.spin_up_baseline.len() {
            self.spin_up_baseline[i] = self
                .controller
                .enclosure(EnclosureId(i as u16))
                .stats()
                .spin_ups;
        }
    }

    /// Flushes buffered dirty bytes back to the items' home enclosures.
    pub fn run_flush(&mut self, t: Micros, flush: Vec<(DataItemId, u64)>) {
        for (item, bytes) in flush {
            if let Some(enc) = self.placement.enclosure_of(item) {
                self.controller
                    .enclosure_mut(enc)
                    .bulk_transfer(t, bytes, IoKind::Write);
            }
        }
    }

    /// Advances every enclosure's energy meter to `t` without ending the
    /// run (no cache flush). Endurance runs call this at each period
    /// boundary so per-period energy deltas are exact; `t` must not
    /// precede the last served record.
    pub fn settle_meters(&mut self, t: Micros) {
        self.controller.finish(t);
    }

    /// Ends the run at `end`: flushes the whole cache and settles every
    /// power meter.
    pub fn finish(&mut self, end: Micros) {
        let final_flush = self.controller.cache_mut().flush_all();
        self.run_flush(end, final_flush);
        self.controller.finish(end);
    }
}
