//! Crash-safety and fault-tolerance properties (DESIGN.md §11): for
//! arbitrary streams, crash points, and shard counts {1, 2, 4},
//!
//! * restart-from-checkpoint (through the full `ees.checkpoint.v1`
//!   codec) yields a plan sequence byte-identical to the uninterrupted
//!   fault-free serial run — even when the restore switches the shard
//!   count mid-stream;
//! * worker panics + supervisor respawns leave the plan sequence
//!   byte-identical too;
//! * a crash that lands *during an in-flight overlapped cut* (between
//!   `rollover_begin` and `rollover_finish`, while the async merge is
//!   pending) restores from the last checkpoint to the same plans;
//! * the checkpoint codec round-trips exactly.

use ees_core::ProposedConfig;
use ees_iotrace::{DataItemId, EnclosureId, IoKind, LogicalIoRecord, Micros};
use ees_online::{
    decode_checkpoint, encode_checkpoint, silence_injected_panics, OnlineController, PanicSchedule,
    PlanEnvelope, RolloverReason, ShardOptions, ShardedController,
};
use ees_replay::{CatalogItem, StreamHarness};
use ees_simstorage::{Access, StorageConfig};
use proptest::prelude::*;

const ENCLOSURES: u16 = 3;
const ITEMS: u32 = 8;

fn catalog() -> Vec<CatalogItem> {
    (0..ITEMS)
        .map(|i| CatalogItem {
            id: DataItemId(i),
            size: 32 << 20,
            enclosure: EnclosureId((i % ENCLOSURES as u32) as u16),
            access: Access::Random,
        })
        .collect()
}

fn policy() -> ProposedConfig {
    ProposedConfig {
        initial_period: Micros::from_secs(60),
        ..ProposedConfig::default()
    }
}

/// Strictly increasing timestamps from per-record deltas: several 60 s
/// period rollovers across a stream of a few hundred events.
fn stream_from(raw: Vec<(u64, u32, bool, u32)>) -> Vec<LogicalIoRecord> {
    let mut ts = 0u64;
    raw.into_iter()
        .map(|(dt, item, is_read, len)| {
            ts += 1 + dt;
            LogicalIoRecord {
                ts: Micros(ts),
                item: DataItemId(item % ITEMS),
                offset: 0,
                len: len.max(1),
                kind: if is_read { IoKind::Read } else { IoKind::Write },
            }
        })
        .collect()
}

fn arb_stream() -> impl Strategy<Value = Vec<LogicalIoRecord>> {
    prop::collection::vec(
        (
            0u64..2_000_000u64,
            0u32..ITEMS,
            prop::bool::ANY,
            1u32..65_536u32,
        ),
        1..300,
    )
    .prop_map(stream_from)
}

/// The fault-free reference: serial controller, monitor-mode flow
/// (boundary rollovers, §V.D trigger (i) sweep), one uninterrupted pass.
fn serial_plans(records: &[LogicalIoRecord]) -> Vec<PlanEnvelope> {
    let catalog = catalog();
    let storage = StorageConfig::ams2500(ENCLOSURES);
    let mut harness = StreamHarness::new(&catalog, ENCLOSURES, &storage);
    let break_even = harness.break_even();
    let mut ctl = OnlineController::new(policy(), break_even);
    let mut plans = Vec::new();
    for rec in records {
        while ctl.needs_rollover(rec.ts) {
            let t = ctl.boundary();
            harness.refresh_views();
            let env = ctl.rollover(
                t,
                RolloverReason::Boundary,
                harness.placement(),
                harness.sequential(),
                harness.views(),
            );
            harness.apply_plan(t, &env.plan);
            harness.begin_period();
            plans.push(env);
        }
        ctl.observe(rec);
        if let Some(enclosure) = harness.placement().enclosure_of(rec.item) {
            if ctl.observe_io_event(rec.ts, enclosure) && rec.ts > ctl.period_start() {
                harness.refresh_views();
                let env = ctl.rollover(
                    rec.ts,
                    RolloverReason::Trigger,
                    harness.placement(),
                    harness.sequential(),
                    harness.views(),
                );
                harness.apply_plan(rec.ts, &env.plan);
                harness.begin_period();
                plans.push(env);
            }
        }
    }
    plans
}

/// Same flow through a [`ShardedController`], crash-restoring through
/// the full checkpoint codec after the `crash_after[i]`-th record, each
/// restore onto the next shard count in `shard_seq` (so a run can hop
/// 1 → 4 → 2 workers mid-stream).
fn sharded_plans_with_crashes(
    records: &[LogicalIoRecord],
    shard_seq: &[usize],
    crash_after: &[u64],
    options: ShardOptions,
) -> Vec<PlanEnvelope> {
    let catalog = catalog();
    let storage = StorageConfig::ams2500(ENCLOSURES);
    let mut harness = StreamHarness::new(&catalog, ENCLOSURES, &storage);
    let break_even = harness.break_even();
    let mut shard_at = 0usize;
    let mut ctl =
        ShardedController::with_options(policy(), break_even, shard_seq[shard_at], options.clone());
    let mut plans = Vec::new();
    let mut folded = 0u64;
    for rec in records {
        while ctl.needs_rollover(rec.ts) {
            let t = ctl.boundary();
            harness.refresh_views();
            let env = ctl
                .rollover(
                    t,
                    RolloverReason::Boundary,
                    harness.placement(),
                    harness.sequential(),
                    harness.views(),
                )
                .expect("boundary rollover");
            harness.apply_plan(t, &env.plan);
            harness.begin_period();
            plans.push(env);
        }
        ctl.observe(rec);
        folded += 1;
        if let Some(enclosure) = harness.placement().enclosure_of(rec.item) {
            if ctl.observe_io_event(rec.ts, enclosure) && rec.ts > ctl.period_start() {
                harness.refresh_views();
                let env = ctl
                    .rollover(
                        rec.ts,
                        RolloverReason::Trigger,
                        harness.placement(),
                        harness.sequential(),
                        harness.views(),
                    )
                    .expect("trigger rollover");
                harness.apply_plan(rec.ts, &env.plan);
                harness.begin_period();
                plans.push(env);
            }
        }
        if crash_after.contains(&folded) {
            let cp = ctl
                .checkpoint(folded, rec.ts, harness.placement(), harness.sequential())
                .expect("checkpoint");
            let decoded = decode_checkpoint(&encode_checkpoint(&cp)).expect("decode");
            assert_eq!(decoded, cp, "codec must round-trip exactly");
            shard_at = (shard_at + 1) % shard_seq.len();
            ctl = ShardedController::from_checkpoint(
                policy(),
                shard_seq[shard_at],
                options.clone(),
                &decoded,
            )
            .expect("restore");
        }
    }
    ctl.sync().expect("final sync");
    plans
}

/// Like [`sharded_plans_with_crashes`], but each crash lands *mid-cut*:
/// at the `crash_at_cut[i]`-th boundary rollover the driver checkpoints
/// (the last durable state a real daemon would have), calls
/// `rollover_begin` so the cut is genuinely in flight across the shard
/// channels, then drops the controller before `rollover_finish` — workers
/// die with the merge pending — and restores from the checkpoint onto
/// the next shard count. The restored controller still owes the same
/// boundary rollover, so the plan sequence must not change.
fn sharded_plans_with_midcut_crashes(
    records: &[LogicalIoRecord],
    shard_seq: &[usize],
    crash_at_cut: &[u64],
    options: ShardOptions,
) -> Vec<PlanEnvelope> {
    let catalog = catalog();
    let storage = StorageConfig::ams2500(ENCLOSURES);
    let mut harness = StreamHarness::new(&catalog, ENCLOSURES, &storage);
    let break_even = harness.break_even();
    let mut shard_at = 0usize;
    let mut ctl =
        ShardedController::with_options(policy(), break_even, shard_seq[shard_at], options.clone());
    let mut plans = Vec::new();
    let mut folded = 0u64;
    let mut last_ts = Micros::ZERO;
    let mut boundaries = 0u64;
    let mut crashed = std::collections::BTreeSet::new();
    for rec in records {
        while ctl.needs_rollover(rec.ts) {
            let t = ctl.boundary();
            harness.refresh_views();
            if crash_at_cut.contains(&boundaries) && crashed.insert(boundaries) {
                let cp = ctl
                    .checkpoint(folded, last_ts, harness.placement(), harness.sequential())
                    .expect("pre-cut checkpoint");
                let decoded = decode_checkpoint(&encode_checkpoint(&cp)).expect("decode");
                ctl.rollover_begin(
                    t,
                    RolloverReason::Boundary,
                    harness.placement(),
                    harness.sequential(),
                    harness.views(),
                )
                .expect("rollover_begin");
                // Crash: drop the controller with the merge in flight,
                // then restore. `needs_rollover` is still true on the
                // restored state, so the loop redoes this cut cleanly.
                shard_at = (shard_at + 1) % shard_seq.len();
                ctl = ShardedController::from_checkpoint(
                    policy(),
                    shard_seq[shard_at],
                    options.clone(),
                    &decoded,
                )
                .expect("restore mid-cut");
                continue;
            }
            let env = ctl
                .rollover(
                    t,
                    RolloverReason::Boundary,
                    harness.placement(),
                    harness.sequential(),
                    harness.views(),
                )
                .expect("boundary rollover");
            harness.apply_plan(t, &env.plan);
            harness.begin_period();
            plans.push(env);
            boundaries += 1;
        }
        ctl.observe(rec);
        folded += 1;
        last_ts = rec.ts;
        if let Some(enclosure) = harness.placement().enclosure_of(rec.item) {
            if ctl.observe_io_event(rec.ts, enclosure) && rec.ts > ctl.period_start() {
                harness.refresh_views();
                let env = ctl
                    .rollover(
                        rec.ts,
                        RolloverReason::Trigger,
                        harness.placement(),
                        harness.sequential(),
                        harness.views(),
                    )
                    .expect("trigger rollover");
                harness.apply_plan(rec.ts, &env.plan);
                harness.begin_period();
                plans.push(env);
            }
        }
    }
    ctl.sync().expect("final sync");
    plans
}

fn assert_same(serial: &[PlanEnvelope], hardened: &[PlanEnvelope], label: &str) {
    assert_eq!(serial.len(), hardened.len(), "plan count ({label})");
    for (i, (a, b)) in serial.iter().zip(hardened).enumerate() {
        assert_eq!(a, b, "plan #{i} ({label})");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Restart-from-checkpoint at arbitrary crash points — including
    /// restores that change the shard count — never changes a plan.
    #[test]
    fn checkpoint_restart_plans_equal_uninterrupted_serial(
        recs in arb_stream(),
        crashes in prop::collection::vec(1u64..300u64, 0..4),
        rotate in 0usize..3usize,
    ) {
        let serial = serial_plans(&recs);
        let seqs: [&[usize]; 3] = [&[1, 2, 4], &[4, 1, 2], &[2, 4, 1]];
        let hardened = sharded_plans_with_crashes(
            &recs,
            seqs[rotate],
            &crashes,
            ShardOptions::default(),
        );
        assert_same(&serial, &hardened, "checkpoint restart");
    }

    /// Worker panics + respawn (with crash/restore cycles layered on
    /// top) never change a plan either.
    #[test]
    fn worker_respawn_plans_equal_uninterrupted_serial(
        recs in arb_stream(),
        crashes in prop::collection::vec(1u64..300u64, 0..2),
        panic_seed in 0u64..1_000u64,
        shards in 1usize..5usize,
    ) {
        silence_injected_panics();
        let serial = serial_plans(&recs);
        let options = ShardOptions {
            panic_schedule: Some(PanicSchedule::seeded(
                panic_seed,
                shards,
                recs.len() as u64 + 1,
                3,
            )),
            ..ShardOptions::default()
        };
        let shard_seq = [shards];
        let hardened = sharded_plans_with_crashes(&recs, &shard_seq, &crashes, options);
        assert_same(&serial, &hardened, "worker respawn");
    }

    /// A crash landing *during an in-flight overlapped merge* — after
    /// `rollover_begin` shipped the cut to every shard channel, before
    /// `rollover_finish` collected it — restores from the last
    /// checkpoint to the exact fault-free serial plans, even when the
    /// restore changes the shard count and worker panics are layered on
    /// top of the in-flight cut.
    #[test]
    fn crash_during_in_flight_merge_plans_equal_serial(
        recs in arb_stream(),
        crash_cuts in prop::collection::vec(0u64..6u64, 1..3),
        rotate in 0usize..3usize,
        panic_seed in 0u64..1_000u64,
    ) {
        silence_injected_panics();
        let serial = serial_plans(&recs);
        let seqs: [&[usize]; 3] = [&[1, 2, 4], &[4, 1, 2], &[2, 4, 1]];
        // Half the cases layer injected worker panics on top of the
        // mid-cut crash; the other half crash on healthy workers.
        let options = ShardOptions {
            panic_schedule: (panic_seed % 2 == 0).then(|| PanicSchedule::seeded(
                panic_seed,
                4,
                recs.len() as u64 + 1,
                2,
            )),
            ..ShardOptions::default()
        };
        let hardened = sharded_plans_with_midcut_crashes(
            &recs,
            seqs[rotate],
            &crash_cuts,
            options,
        );
        assert_same(&serial, &hardened, "crash during in-flight merge");
    }

    /// The checkpoint codec round-trips arbitrary mid-stream states
    /// bit-for-bit (floats travel as IEEE-754 bit patterns).
    #[test]
    fn checkpoint_codec_roundtrips(
        recs in arb_stream(),
        cut in 1u64..300u64,
        shards in 1usize..5usize,
    ) {
        let catalog = catalog();
        let storage = StorageConfig::ams2500(ENCLOSURES);
        let harness = StreamHarness::new(&catalog, ENCLOSURES, &storage);
        let mut ctl = ShardedController::new(policy(), harness.break_even(), shards);
        let mut last_ts = Micros::ZERO;
        let mut folded = 0u64;
        for rec in &recs {
            ctl.observe(rec);
            folded += 1;
            last_ts = rec.ts;
            if folded == cut {
                break;
            }
        }
        let cp = ctl
            .checkpoint(folded, last_ts, harness.placement(), harness.sequential())
            .expect("checkpoint");
        let text = encode_checkpoint(&cp);
        let decoded = decode_checkpoint(&text).expect("decode");
        prop_assert_eq!(&decoded, &cp);
        // And the rendering itself is deterministic.
        prop_assert_eq!(encode_checkpoint(&decoded), text);
    }
}
