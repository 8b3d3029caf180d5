//! Seed-deterministic fault injection for the online ingest path.
//!
//! The chaos harness (DESIGN.md §11) needs faults that are (a) *realistic*
//! — the things a colocated controller actually sees: garbage lines from
//! a half-written log, duplicated and transposed events from a racy
//! shipper, a reader that momentarily blocks — and (b) *reproducible*,
//! so a failing seed replays exactly. Everything here derives from a u64
//! seed through the workspace's one generator, [`SplitMix64`]; no global
//! RNG, no time, no thread-dependence.
//!
//! The injector only *inserts* noise (malformed/truncated/duplicate
//! lines), *transposes* adjacent lines, or *stalls* the reader — it never
//! rewrites or drops a clean line. Under that fault model the
//! [`Sanitizer`] provably reconstructs the clean stream for any input
//! whose genuine records have strictly increasing timestamps (which the
//! chaos generator guarantees): parse failures discard the inserted
//! garbage, a bounded reorder window restores transposed order, and the
//! released-timestamp watermark identifies duplicates. That reconstruction
//! is why the chaos suite can demand **zero** plan divergence rather than
//! "approximately equal" outcomes.

use ees_iotrace::{LogicalIoRecord, Micros};
use ees_workloads::SplitMix64;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, BufRead, Read};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Once};

/// Marker embedded in injected worker-panic payloads, so the quiet panic
/// hook (and nothing else) can recognize them.
pub const INJECTED_PANIC_MARKER: &str = "injected worker panic";

/// Per-mille rates for each fault class, rolled once per clean input
/// line. At most one fault fires per line (the rolls share a single
/// draw against cumulative thresholds), so rates must sum to ≤ 1000.
#[derive(Debug, Clone, Copy)]
pub struct FaultSpec {
    /// Insert a syntactically broken JSON line before the clean line.
    pub malformed_per_mille: u32,
    /// Insert a truncated copy of the clean line before it.
    pub truncated_per_mille: u32,
    /// Emit the clean line twice.
    pub duplicate_per_mille: u32,
    /// Transpose the clean line with its successor.
    pub swap_per_mille: u32,
    /// Fail the next read with `WouldBlock` before serving the line.
    pub stall_per_mille: u32,
}

impl FaultSpec {
    /// The chaos suite's default mix: every class active, aggressive
    /// enough that a 2k-event stream sees dozens of each fault.
    pub fn default_mix() -> Self {
        FaultSpec {
            malformed_per_mille: 40,
            truncated_per_mille: 30,
            duplicate_per_mille: 40,
            swap_per_mille: 40,
            stall_per_mille: 20,
        }
    }

    /// No faults at all (baseline runs).
    pub fn none() -> Self {
        FaultSpec {
            malformed_per_mille: 0,
            truncated_per_mille: 0,
            duplicate_per_mille: 0,
            swap_per_mille: 0,
            stall_per_mille: 0,
        }
    }

    fn total(&self) -> u32 {
        self.malformed_per_mille
            + self.truncated_per_mille
            + self.duplicate_per_mille
            + self.swap_per_mille
            + self.stall_per_mille
    }
}

/// Shared counters of faults actually injected, for reporting and for
/// asserting a schedule was exercised at all.
#[derive(Debug, Default)]
pub struct FaultTally {
    /// Malformed lines inserted.
    pub malformed: AtomicU64,
    /// Truncated copies inserted.
    pub truncated: AtomicU64,
    /// Lines duplicated.
    pub duplicated: AtomicU64,
    /// Adjacent transpositions applied.
    pub swapped: AtomicU64,
    /// Reader stalls injected.
    pub stalls: AtomicU64,
}

impl FaultTally {
    /// Total faults injected across all classes.
    pub fn total(&self) -> u64 {
        self.malformed.load(Ordering::Relaxed)
            + self.truncated.load(Ordering::Relaxed)
            + self.duplicated.load(Ordering::Relaxed)
            + self.swapped.load(Ordering::Relaxed)
            + self.stalls.load(Ordering::Relaxed)
    }
}

/// A `BufRead` adapter that injects faults from a seeded schedule into a
/// line-oriented stream. See the module docs for the fault model.
pub struct FaultyReader<R> {
    inner: R,
    rng: SplitMix64,
    spec: FaultSpec,
    tally: Arc<FaultTally>,
    /// Bytes staged for the consumer.
    buf: Vec<u8>,
    pos: usize,
    /// A clean line held back by a transposition (served after its
    /// successor) or by a stall (served on the retry).
    held: Option<Vec<u8>>,
    /// Set when the held line's fault roll was already spent on a stall:
    /// the retry serves it verbatim instead of rolling again (which
    /// could stall forever at high rates).
    stall_spent: bool,
    inner_done: bool,
}

impl<R: BufRead> FaultyReader<R> {
    /// Wraps `inner`, injecting the `spec` mix from `seed`. Counts land
    /// in the returned tally (shared, so the harness can read it while
    /// the reader lives on another thread).
    pub fn new(inner: R, seed: u64, spec: FaultSpec) -> (Self, Arc<FaultTally>) {
        assert!(spec.total() <= 1000, "fault rates exceed 1000 per mille");
        let tally = Arc::new(FaultTally::default());
        (
            FaultyReader {
                inner,
                rng: SplitMix64::new(seed),
                spec,
                tally: Arc::clone(&tally),
                buf: Vec::new(),
                pos: 0,
                held: None,
                stall_spent: false,
                inner_done: false,
            },
            tally,
        )
    }

    /// Pulls one raw line (with trailing newline) from the source.
    fn next_clean_line(&mut self) -> io::Result<Option<Vec<u8>>> {
        if let Some(l) = self.held.take() {
            return Ok(Some(l));
        }
        if self.inner_done {
            return Ok(None);
        }
        let mut line = Vec::new();
        let n = self.inner.read_until(b'\n', &mut line)?;
        if n == 0 {
            self.inner_done = true;
            return Ok(None);
        }
        if !line.ends_with(b"\n") {
            line.push(b'\n');
        }
        Ok(Some(line))
    }

    /// Refills `buf` with the next clean line plus any faults rolled for
    /// it. Returns false at end of stream.
    fn refill(&mut self) -> io::Result<bool> {
        self.buf.clear();
        self.pos = 0;
        let Some(line) = self.next_clean_line()? else {
            return Ok(false);
        };
        if self.stall_spent {
            // This line already paid its roll with the stall; serve it.
            self.stall_spent = false;
            self.buf.extend_from_slice(&line);
            return Ok(true);
        }
        let roll = self.rng.gen_range(0..1000u32);
        let s = &self.spec;
        let mut edge = s.malformed_per_mille;
        if roll < edge {
            self.tally.malformed.fetch_add(1, Ordering::Relaxed);
            self.buf
                .extend_from_slice(b"{\"ts\":garbage,\"item\":?? oops\n");
            self.buf.extend_from_slice(&line);
            return Ok(true);
        }
        edge += s.truncated_per_mille;
        if roll < edge {
            self.tally.truncated.fetch_add(1, Ordering::Relaxed);
            // Half the line, no terminator: never a parseable event, and
            // never empty because event lines are tens of bytes long.
            let cut = (line.len() / 2).max(1);
            self.buf.extend_from_slice(&line[..cut]);
            self.buf.push(b'\n');
            self.buf.extend_from_slice(&line);
            return Ok(true);
        }
        edge += s.duplicate_per_mille;
        if roll < edge {
            self.tally.duplicated.fetch_add(1, Ordering::Relaxed);
            self.buf.extend_from_slice(&line);
            self.buf.extend_from_slice(&line);
            return Ok(true);
        }
        edge += s.swap_per_mille;
        if roll < edge {
            // Serve the successor first; `line` waits in `held`. At end
            // of stream there is no successor and the swap degenerates to
            // identity (not counted).
            debug_assert!(self.held.is_none());
            self.held = Some(line);
            let Some(next) = self.next_clean_line()? else {
                let line = self.held.take().expect("held line just stored");
                self.buf.extend_from_slice(&line);
                return Ok(true);
            };
            self.tally.swapped.fetch_add(1, Ordering::Relaxed);
            self.buf.extend_from_slice(&next);
            return Ok(true);
        }
        edge += s.stall_per_mille;
        if roll < edge {
            // Fail *this* refill; the line is served on the retry.
            // `held` is empty here (`next_clean_line` just drained it),
            // so the slot is free for the stalled line.
            self.tally.stalls.fetch_add(1, Ordering::Relaxed);
            debug_assert!(self.held.is_none());
            self.held = Some(line);
            self.stall_spent = true;
            return Err(io::Error::new(
                io::ErrorKind::WouldBlock,
                "injected reader stall",
            ));
        }
        self.buf.extend_from_slice(&line);
        Ok(true)
    }
}

impl<R: BufRead> Read for FaultyReader<R> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(out.len());
        out[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl<R: BufRead> BufRead for FaultyReader<R> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos >= self.buf.len() && !self.refill()? {
            return Ok(&[]);
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, amt: usize) {
        self.pos = (self.pos + amt).min(self.buf.len());
    }
}

/// Bounded-reorder repair for streams whose genuine records have strictly
/// increasing timestamps (the chaos generator's contract). Records enter
/// in possibly transposed, possibly duplicated order; they leave in
/// timestamp order with duplicates dropped. The window is a hard bound on
/// how far displaced a record may be — 16 comfortably covers the
/// injector's adjacent transpositions, including pile-ups.
#[derive(Debug)]
pub struct Sanitizer {
    window: BTreeMap<Micros, LogicalIoRecord>,
    /// Timestamp of the last released record.
    watermark: Option<Micros>,
    cap: usize,
    /// Duplicates dropped.
    pub dropped_dups: u64,
}

impl Sanitizer {
    /// Window capacity used by the chaos harness.
    pub const DEFAULT_WINDOW: usize = 16;

    /// Creates a sanitizer holding at most `cap` pending records.
    pub fn new(cap: usize) -> Self {
        Sanitizer {
            window: BTreeMap::new(),
            watermark: None,
            cap: cap.max(1),
            dropped_dups: 0,
        }
    }

    /// Accepts one record; returns a record released from the window (in
    /// timestamp order) once the window is full, else `None`.
    pub fn push(&mut self, rec: LogicalIoRecord) -> Option<LogicalIoRecord> {
        if self.watermark.is_some_and(|w| rec.ts <= w) || self.window.contains_key(&rec.ts) {
            // Genuine records have strictly increasing timestamps, so a
            // timestamp at or before the watermark — or already pending —
            // can only be an injected duplicate.
            self.dropped_dups += 1;
            return None;
        }
        self.window.insert(rec.ts, rec);
        if self.window.len() > self.cap {
            return self.pop_front();
        }
        None
    }

    /// Releases all pending records, oldest first. Call at end of stream.
    pub fn drain(&mut self) -> Vec<LogicalIoRecord> {
        let mut out = Vec::with_capacity(self.window.len());
        while let Some(r) = self.pop_front() {
            out.push(r);
        }
        out
    }

    fn pop_front(&mut self) -> Option<LogicalIoRecord> {
        let (&ts, _) = self.window.iter().next()?;
        let rec = self.window.remove(&ts)?;
        self.watermark = Some(ts);
        Some(rec)
    }
}

/// A seeded set of `(shard, fold index)` points at which a shard worker
/// panics — once each. One-shot semantics matter: after the supervisor
/// respawns the worker and replays its journal, the same fold index
/// passes again, and a re-fire would loop the revival forever.
#[derive(Debug, Default)]
pub struct PanicSchedule {
    points: Mutex<BTreeSet<(usize, u64)>>,
}

impl PanicSchedule {
    /// Builds a schedule from explicit points.
    pub fn new(points: impl IntoIterator<Item = (usize, u64)>) -> Arc<Self> {
        Arc::new(PanicSchedule {
            points: Mutex::new(points.into_iter().collect()),
        })
    }

    /// Draws `count` panic points for `shards` shards over a stream of
    /// roughly `events` records, deterministically from `seed`.
    pub fn seeded(seed: u64, shards: usize, events: u64, count: usize) -> Arc<Self> {
        let mut rng = SplitMix64::new(seed ^ 0xC4A5_5EED);
        let mut points = BTreeSet::new();
        // Each shard folds only its share of the stream; aim inside it.
        let per_shard = (events / shards.max(1) as u64).max(2);
        while points.len() < count {
            let shard = rng.gen_range(0..shards.max(1));
            let idx = rng.gen_range(1..per_shard);
            points.insert((shard, idx));
        }
        Arc::new(PanicSchedule {
            points: Mutex::new(points),
        })
    }

    /// True exactly once per scheduled `(shard, fold_idx)` point.
    pub fn should_fire(&self, shard: usize, fold_idx: u64) -> bool {
        self.points
            .lock()
            .map(|mut p| p.remove(&(shard, fold_idx)))
            .unwrap_or(false)
    }

    /// Points not yet fired.
    pub fn remaining(&self) -> usize {
        self.points.lock().map(|p| p.len()).unwrap_or(0)
    }
}

/// Installs (once, process-wide) a panic hook that swallows the default
/// stderr backtrace for *injected* worker panics — recognized by
/// [`INJECTED_PANIC_MARKER`] in the payload — and delegates everything
/// else to the previous hook. Without this, every chaos run spews
/// hundreds of intentional panic reports into test output.
pub fn silence_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(|s| s.contains(INJECTED_PANIC_MARKER))
                .or_else(|| {
                    info.payload()
                        .downcast_ref::<&str>()
                        .map(|s| s.contains(INJECTED_PANIC_MARKER))
                })
                .unwrap_or(false);
            if !injected {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ees_iotrace::{DataItemId, IoKind};
    use std::io::Cursor;

    fn rec(ts: u64, item: u32) -> LogicalIoRecord {
        LogicalIoRecord {
            ts: Micros(ts),
            item: DataItemId(item),
            offset: 0,
            len: 4096,
            kind: IoKind::Read,
        }
    }

    fn drain_lines(mut r: impl BufRead) -> Vec<String> {
        let mut out = Vec::new();
        let mut line = String::new();
        loop {
            line.clear();
            match r.read_line(&mut line) {
                Ok(0) => break,
                Ok(_) => out.push(line.trim_end().to_string()),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => continue,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        out
    }

    #[test]
    fn faulty_reader_is_deterministic_and_preserves_clean_lines() {
        let input: String = (0..200).map(|i| format!("line-{i}\n")).collect();
        let spec = FaultSpec::default_mix();
        let (r1, t1) = FaultyReader::new(Cursor::new(input.clone()), 42, spec);
        let (r2, _) = FaultyReader::new(Cursor::new(input), 42, spec);
        let a = drain_lines(r1);
        let b = drain_lines(r2);
        assert_eq!(a, b, "same seed, same output");
        assert!(t1.total() > 0, "schedule injected nothing");
        // Every clean line survives (insert/transpose-only fault model).
        for i in 0..200 {
            let needle = format!("line-{i}");
            assert!(a.iter().any(|l| l == &needle), "lost clean line {i}");
        }
    }

    #[test]
    fn stall_is_surfaced_then_line_served() {
        // Force stalls only.
        let spec = FaultSpec {
            malformed_per_mille: 0,
            truncated_per_mille: 0,
            duplicate_per_mille: 0,
            swap_per_mille: 0,
            stall_per_mille: 1000,
        };
        let (mut r, tally) = FaultyReader::new(Cursor::new("a\nb\n".to_string()), 1, spec);
        let mut line = String::new();
        let err = r.read_line(&mut line).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        line.clear();
        // Retry succeeds: the stalled line was staged, and its own
        // fault roll was already spent on the stall.
        assert!(r.read_line(&mut line).unwrap() > 0);
        assert_eq!(line, "a\n");
        assert!(tally.stalls.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn sanitizer_heals_swap_and_dup() {
        let mut s = Sanitizer::new(4);
        let mut out = Vec::new();
        // Stream with an adjacent swap (20 before 10) and a duplicate 30.
        for r in [rec(20, 1), rec(10, 2), rec(30, 3), rec(30, 3), rec(40, 4)] {
            out.extend(s.push(r));
        }
        out.extend(s.drain());
        let ts: Vec<u64> = out.iter().map(|r| r.ts.0).collect();
        assert_eq!(ts, vec![10, 20, 30, 40]);
        assert_eq!(s.dropped_dups, 1);
    }

    #[test]
    fn sanitizer_drops_late_duplicate_past_watermark() {
        let mut s = Sanitizer::new(2);
        let mut out = Vec::new();
        for r in [rec(10, 1), rec(20, 2), rec(30, 3), rec(10, 1), rec(40, 4)] {
            out.extend(s.push(r));
        }
        out.extend(s.drain());
        let ts: Vec<u64> = out.iter().map(|r| r.ts.0).collect();
        assert_eq!(ts, vec![10, 20, 30, 40]);
        assert_eq!(s.dropped_dups, 1);
    }

    #[test]
    fn panic_schedule_fires_once() {
        let sched = PanicSchedule::new([(0, 5), (1, 7)]);
        assert!(!sched.should_fire(0, 4));
        assert!(sched.should_fire(0, 5));
        assert!(!sched.should_fire(0, 5), "one-shot");
        assert_eq!(sched.remaining(), 1);
    }

    #[test]
    fn seeded_schedule_is_deterministic() {
        let a = PanicSchedule::seeded(9, 4, 1000, 3);
        let b = PanicSchedule::seeded(9, 4, 1000, 3);
        assert_eq!(*a.points.lock().unwrap(), *b.points.lock().unwrap());
        assert_eq!(a.remaining(), 3);
    }
}
