//! Bounded-queue event ingestion: a reader thread turning a byte stream
//! into batches of records for one consumer, through an explicit
//! backpressure policy.
//!
//! Parsing runs on the parallel front end ([`ParallelScanner`], one or
//! more parser threads); the thread spawned here re-sequences its chunks
//! and batches the records into a bounded queue. When the consumer (the
//! daemon applying plans, or a migration stalling it) falls behind, the
//! queue fills and the configured [`OverflowPolicy`] decides: **block**
//! the producer (lossless, the default — correct when replaying a file)
//! or **drop the newest** events (bounded memory and latency — what a
//! live tap must do, since blocking the tapped application would defeat
//! the point of *cooperating* with it). Drops are counted per *event*,
//! never silent.
//!
//! Two entry points, one behaviour:
//!
//! * [`spawn_reader_parallel`] — any byte stream (a pipe, stdin, a file
//!   that cannot be mapped);
//! * [`spawn_reader_parallel_mapped`] — an in-memory trace, typically an
//!   mmap'd file, handed to the parsers zero-copy.
//!
//! Both hand back a [`BatchPool`] for recycling drained batch buffers and
//! expose **live** progress through a shared [`IngestCounters`]: the
//! consumer (or a status thread) can read accepted/dropped totals while
//! the producer is still running, not just from the join-handle stats
//! after the stream ends. The producer half — batching, delivery under
//! the policy, and the exact per-event accounting — is one private sink
//! that the `--listen` merger ([`crate::net`]) shares.

use crate::frontend::ParallelScanner;
use ees_iotrace::LogicalIoRecord;
use std::io::{BufRead, Read};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Transient-error retries before a read is declared failed.
const RETRY_ATTEMPTS: u32 = 8;
/// First retry backoff; doubles per attempt (50µs … 6.4ms ≈ 12.75ms
/// total worst case).
const RETRY_BASE: Duration = Duration::from_micros(50);

/// A [`BufRead`] adapter that absorbs transient read errors
/// (`WouldBlock` / `TimedOut` — what a live tap over a non-blocking pipe
/// or a stalling FUSE mount surfaces) with bounded exponential backoff,
/// instead of letting one stall kill the whole ingest thread. After
/// [`RETRY_ATTEMPTS`] consecutive failures the last error propagates;
/// any successful read resets the budget.
///
/// `std`'s readers auto-retry only [`ErrorKind::Interrupted`](std::io::ErrorKind::Interrupted),
/// so without this adapter a single `EAGAIN` aborts the stream.
#[derive(Debug)]
pub struct RetryingReader<R> {
    inner: R,
    /// Transient errors absorbed so far (for diagnostics).
    retried: u64,
}

impl<R: BufRead> RetryingReader<R> {
    /// Wraps `inner` with transient-error retry.
    pub fn new(inner: R) -> Self {
        RetryingReader { inner, retried: 0 }
    }

    /// Transient read errors absorbed so far.
    pub fn retries(&self) -> u64 {
        self.retried
    }

    fn with_retry<T>(
        retried: &mut u64,
        mut op: impl FnMut() -> std::io::Result<T>,
    ) -> std::io::Result<T> {
        let mut backoff = RETRY_BASE;
        let mut last_err = None;
        for attempt in 0..=RETRY_ATTEMPTS {
            match op() {
                Ok(v) => return Ok(v),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) && attempt < RETRY_ATTEMPTS =>
                {
                    *retried += 1;
                    std::thread::sleep(backoff);
                    backoff *= 2;
                    last_err = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(last_err.expect("loop exits early unless a transient error was seen"))
    }
}

impl<R: BufRead> Read for RetryingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let inner = &mut self.inner;
        Self::with_retry(&mut self.retried, || inner.read(buf))
    }
}

impl<R: BufRead> BufRead for RetryingReader<R> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        // Polonius-shaped workaround: probe with retry (dropping the
        // borrow each round), then hand out the buffer once it is known
        // to be ready.
        Self::with_retry(&mut self.retried, || self.inner.fill_buf().map(|_| ()))?;
        self.inner.fill_buf()
    }

    fn consume(&mut self, amt: usize) {
        self.inner.consume(amt)
    }
}

/// What the producer does when the queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// Wait for the consumer: every event is delivered, the producer
    /// stalls.
    #[default]
    Block,
    /// Discard the incoming event(s) and count them: the producer never
    /// stalls, the consumer sees a gap.
    DropNewest,
}

/// Producer-side counters, returned when the reader thread finishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestStats {
    /// Events parsed and delivered into the queue.
    pub accepted: u64,
    /// Events discarded by [`OverflowPolicy::DropNewest`].
    pub dropped: u64,
}

/// Live, shared ingest counters: the producer bumps them as events flow,
/// so any holder of the `Arc` can watch progress mid-run. The counts are
/// per **event** — a dropped batch of 64 records adds 64 to `dropped`.
#[derive(Debug, Default)]
pub struct IngestCounters {
    accepted: AtomicU64,
    dropped: AtomicU64,
    recycled: AtomicU64,
    chunks: AtomicU64,
}

impl IngestCounters {
    /// Events parsed and delivered so far.
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// Events discarded by [`OverflowPolicy::DropNewest`] so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Batch buffers refilled from the recycle pool instead of freshly
    /// allocated. Timing-dependent:
    /// how many returns arrive before the producer needs a buffer varies
    /// run to run, so this is diagnostics, not part of [`IngestStats`].
    pub fn recycled(&self) -> u64 {
        self.recycled.load(Ordering::Relaxed)
    }

    /// Chunks the parallel front end's sequencer has re-ordered so far —
    /// newline chunks for NDJSON, framed blocks for blocked binary,
    /// serial batches for unframed binary. Zero for the `--listen` merger.
    pub fn chunks(&self) -> u64 {
        self.chunks.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of both counters.
    pub fn snapshot(&self) -> IngestStats {
        IngestStats {
            accepted: self.accepted(),
            dropped: self.dropped(),
        }
    }
}

/// Consumer-side handle for returning drained batch buffers to the
/// producer. Recycling is strictly an optimization: dropping the handle
/// (or never calling [`recycle`](Self::recycle)) just means the producer
/// allocates fresh buffers.
#[derive(Debug, Clone)]
pub struct BatchPool {
    returns: Sender<Vec<LogicalIoRecord>>,
}

impl BatchPool {
    /// Hands a drained batch buffer back for reuse. The producer clears
    /// it before refilling, so returning a non-empty buffer is safe (its
    /// leftover records are discarded, not re-delivered).
    pub fn recycle(&self, buf: Vec<LogicalIoRecord>) {
        // A closed return channel means the producer exited; the buffer
        // just deallocates.
        let _ = self.returns.send(buf);
    }
}

/// What the reader spawns hand back: the batch stream, the recycle
/// pool, the live counters, and the reader-thread handle, whose result
/// carries the final counters (or the first I/O / parse error, with its
/// line or record number).
pub type PooledReader = (
    Receiver<Vec<LogicalIoRecord>>,
    BatchPool,
    Arc<IngestCounters>,
    JoinHandle<std::io::Result<IngestStats>>,
);

/// The most batches one delivery grows to under `Block` backpressure:
/// at the CLI defaults (`--queue 1024 --batch 64`, a queue of 16
/// deliveries) one grown delivery holds the whole queue.
const GROWTH_BATCHES: usize = 16;

/// The producer half of a bounded batch queue, shared by the file
/// sequencer and the `--listen` merger. It batches records, delivers
/// them under the [`OverflowPolicy`], refills recycled buffers, and
/// keeps the accounting exact: every record pushed ends up in exactly
/// one counter — accepted once its delivery is in the queue; dropped on
/// overflow, on consumer hang-up (the pending delivery), or when a
/// stream error strands the pending delivery.
///
/// A delivery is `batch` records while the consumer keeps up. Under
/// [`OverflowPolicy::Block`] a full queue does not park the producer
/// at once: it keeps filling the pending delivery, offers it again at
/// each further multiple of `batch`, and blocks only once the delivery
/// holds `cap = batch × min(capacity, 16)` records. One wake-up then
/// moves up to `cap` records instead of `batch`. At most
/// `(capacity + 1) × cap` records wait in the queue and the pending
/// delivery (17,408 records, 557 KB, at the CLI defaults).
pub(crate) struct BatchSink {
    tx: SyncSender<Vec<LogicalIoRecord>>,
    returns: Receiver<Vec<LogicalIoRecord>>,
    live: Arc<IngestCounters>,
    batch: usize,
    /// Most records one `Block` delivery holds before a blocking send.
    cap: usize,
    /// Pending length at which delivery is next attempted.
    due: usize,
    policy: OverflowPolicy,
    buf: Vec<LogicalIoRecord>,
    hung_up: bool,
}

impl BatchSink {
    /// Opens a queue of `capacity` deliveries of `batch` records or more
    /// (up to the cap): the producer's sink, then the consumer's
    /// receiver, recycle pool, and live counters.
    pub(crate) fn open(
        capacity: usize,
        batch: usize,
        policy: OverflowPolicy,
    ) -> (
        BatchSink,
        Receiver<Vec<LogicalIoRecord>>,
        BatchPool,
        Arc<IngestCounters>,
    ) {
        let capacity = capacity.max(1);
        let batch = batch.max(1);
        let (tx, rx) = sync_channel(capacity);
        let (return_tx, returns) = channel();
        let live = Arc::new(IngestCounters::default());
        let sink = BatchSink {
            tx,
            returns,
            live: Arc::clone(&live),
            batch,
            cap: batch.saturating_mul(capacity.min(GROWTH_BATCHES)),
            due: batch,
            policy,
            buf: Vec::with_capacity(batch),
            hung_up: false,
        };
        (sink, rx, BatchPool { returns: return_tx }, live)
    }

    /// Queues one record, attempting delivery at each multiple of
    /// `batch`. `false` once the consumer has hung up: the caller stops
    /// producing and [`discards`](Self::discard) what it already pulled.
    pub(crate) fn push(&mut self, rec: LogicalIoRecord) -> bool {
        self.buf.push(rec);
        if self.buf.len() >= self.due {
            self.deliver(false);
        }
        !self.hung_up
    }

    /// Counts `n` records that were pulled upstream but will never be
    /// pushed (the consumer hung up first) as dropped.
    fn discard(&self, n: u64) {
        self.live.dropped.fetch_add(n, Ordering::Relaxed);
    }

    /// Attempts delivery of the pending records: a blocking send under
    /// `Block` once the delivery has reached its cap (or the stream
    /// ends, `last`), otherwise a `try_send`. A full queue drops the
    /// delivery under `DropNewest` and keeps it growing under `Block`.
    fn deliver(&mut self, last: bool) {
        if self.buf.is_empty() {
            return;
        }
        let n = self.buf.len() as u64;
        if self.hung_up {
            self.buf.clear();
            self.discard(n);
            return;
        }
        let full = std::mem::take(&mut self.buf);
        let blocking = self.policy == OverflowPolicy::Block && (last || full.len() >= self.cap);
        let sent = if blocking {
            self.tx.send(full).map_err(|_| None)
        } else {
            self.tx.try_send(full).map_err(|e| match e {
                TrySendError::Full(rejected) => Some(rejected),
                TrySendError::Disconnected(_) => None,
            })
        };
        match sent {
            Ok(()) => {
                self.live.accepted.fetch_add(n, Ordering::Relaxed);
            }
            // Queue full: the rejected buffer comes straight back.
            Err(Some(mut rejected)) => match self.policy {
                // Keep it growing; offer it again one batch later.
                OverflowPolicy::Block => {
                    self.buf = rejected;
                    self.due = self.buf.len().saturating_add(self.batch);
                    return;
                }
                // Overflow: reuse it as the next batch.
                OverflowPolicy::DropNewest => {
                    rejected.clear();
                    self.buf = rejected;
                    self.discard(n);
                }
            },
            Err(None) => {
                self.hung_up = true;
                self.discard(n);
            }
        }
        self.due = self.batch;
        if self.buf.capacity() == 0 {
            self.buf = match self.returns.try_recv() {
                Ok(mut recycled) => {
                    self.live.recycled.fetch_add(1, Ordering::Relaxed);
                    recycled.clear();
                    recycled
                }
                Err(_) => Vec::with_capacity(self.batch),
            };
        }
    }

    /// Ends the stream cleanly: delivers the pending records and returns
    /// the final counters.
    pub(crate) fn finish(mut self) -> IngestStats {
        self.deliver(true);
        self.live.snapshot()
    }

    /// Ends the stream on `err`: the pending delivery dies with it and
    /// counts dropped.
    pub(crate) fn fail(self, err: std::io::Error) -> std::io::Error {
        self.discard(self.buf.len() as u64);
        err
    }
}

/// Spawns the reader over any byte stream: the parallel front end parses
/// on `readers` threads (`1` is a single parser thread; `0` is clamped
/// to it), and the spawned thread re-sequences the chunks and feeds a
/// queue of `capacity` deliveries under `policy`.
/// Delivery is in exact stream order, a parse failure surfaces as the
/// serial reader's `line N: …` (or `record N: …`) error, and transient
/// `WouldBlock`/`TimedOut` reads are retried ([`RetryingReader`]).
/// `chunk_bytes == 0` selects the default chunk target.
///
/// A delivery is `batch` records while the consumer keeps up. Under
/// [`OverflowPolicy::Block`] backpressure it grows, in steps of `batch`,
/// up to `batch × min(capacity, 16)` records before the reader parks, so
/// a full queue costs one wake-up per grown delivery, not one per batch.
/// At most `capacity + 1` such deliveries wait, queued or pending:
/// 17,408 records (557 KB) at `ees online`'s defaults (`capacity` 16,
/// `batch` 64).
///
/// Under [`OverflowPolicy::DropNewest`] deliveries stay `batch` records
/// and a rejected batch counts
/// `batch.len()` dropped **events** (not one dropped batch); a partial
/// batch at end of stream is flushed; on consumer hang-up every record
/// the sequencer already pulled counts dropped, so
/// `accepted + dropped` always equals the records parsed.
pub fn spawn_reader_parallel<R>(
    input: R,
    capacity: usize,
    batch: usize,
    policy: OverflowPolicy,
    readers: usize,
    chunk_bytes: usize,
) -> PooledReader
where
    R: BufRead + Send + 'static,
{
    let (sink, rx, pool, counters) = BatchSink::open(capacity, batch, policy);
    let handle = std::thread::spawn(move || {
        // The parser pool lives inside this thread's scope: the input
        // only needs to be `Send`, and the pool winds down when the
        // sequencer returns (clean end, error, or consumer hang-up).
        std::thread::scope(|scope| {
            let mut scanner =
                ParallelScanner::spawn(scope, RetryingReader::new(input), readers, chunk_bytes);
            sequence_batches(&mut scanner, sink)
        })
    });
    (rx, pool, counters, handle)
}

/// [`spawn_reader_parallel`] over an in-memory trace — anything that
/// derefs to `[u8]`, typically an [`Mmap`](ees_iotrace::mmap::Mmap) —
/// so the splitter hands parser threads borrowed chunks (or framed
/// binary blocks) straight out of the mapping, zero-copy. Semantics,
/// ordering, delivery sizes, and accounting are identical to the
/// streamed variant.
pub fn spawn_reader_parallel_mapped<B>(
    bytes: B,
    capacity: usize,
    batch: usize,
    policy: OverflowPolicy,
    readers: usize,
    chunk_bytes: usize,
) -> PooledReader
where
    B: std::ops::Deref<Target = [u8]> + Send + 'static,
{
    let (sink, rx, pool, counters) = BatchSink::open(capacity, batch, policy);
    let handle = std::thread::spawn(move || {
        // The mapping moves into this thread whole; the scope below
        // lets the parser pool borrow slices of it.
        std::thread::scope(|scope| {
            let mut scanner = ParallelScanner::spawn_slice(scope, &bytes, readers, chunk_bytes);
            sequence_batches(&mut scanner, sink)
        })
    });
    (rx, pool, counters, handle)
}

/// The sequencer both reader spawns run: walks the re-sequenced chunk
/// stream and pushes every record through the sink.
fn sequence_batches(
    scanner: &mut ParallelScanner<'_>,
    mut sink: BatchSink,
) -> std::io::Result<IngestStats> {
    loop {
        let chunk = match scanner.next_ordered() {
            Ok(Some(chunk)) => chunk,
            Ok(None) => break,
            Err(e) => return Err(sink.fail(e)),
        };
        sink.live.chunks.fetch_add(1, Ordering::Relaxed);
        let mut records = chunk.records.into_iter();
        if !records.by_ref().all(|rec| sink.push(rec)) {
            // Consumer hang-up mid-chunk: the records the sequencer
            // already pulled but will never deliver count dropped, like
            // the in-flight batch.
            sink.discard(records.len() as u64);
            break;
        }
        if let Some(err) = chunk.error {
            return Err(sink.fail(err.to_io_error()));
        }
    }
    Ok(sink.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ees_iotrace::ndjson::EventReader;
    use std::io::Cursor;
    use std::sync::mpsc::RecvTimeoutError;

    fn line(ts: u64) -> String {
        format!("{{\"ts\":{ts},\"item\":1,\"offset\":0,\"len\":4096,\"kind\":\"Read\"}}\n")
    }

    /// One parser thread, default chunking: the shape `ees online` takes
    /// for a pipe at `--readers 1`.
    fn one_reader<R: BufRead + Send + 'static>(
        input: R,
        capacity: usize,
        batch: usize,
        policy: OverflowPolicy,
    ) -> PooledReader {
        spawn_reader_parallel(input, capacity, batch, policy, 1, 0)
    }

    /// Record `i` of a sink test: its timestamp names its position.
    fn nth(i: u64) -> LogicalIoRecord {
        LogicalIoRecord {
            ts: ees_iotrace::Micros(i),
            item: ees_iotrace::DataItemId(1),
            offset: 0,
            len: 4096,
            kind: ees_iotrace::IoKind::Read,
        }
    }

    /// Pushes records `range` into `sink` on a helper thread and hands
    /// the sink back, failing the test if the pushes park: a push that
    /// waits on a full queue never returns.
    fn push_without_blocking(mut sink: BatchSink, range: std::ops::Range<u64>) -> BatchSink {
        let (done_tx, done_rx) = channel();
        let pusher = std::thread::spawn(move || {
            for i in range {
                assert!(sink.push(nth(i)), "consumer still attached");
            }
            done_tx.send(sink).ok();
        });
        match done_rx.recv_timeout(Duration::from_secs(20)) {
            Ok(sink) => {
                pusher.join().expect("the pusher returned the sink");
                sink
            }
            Err(RecvTimeoutError::Timeout) => panic!("a push parked on the full queue"),
            Err(RecvTimeoutError::Disconnected) => {
                panic!("the pusher panicked: {:?}", pusher.join().err())
            }
        }
    }

    fn timestamps(delivery: &[LogicalIoRecord]) -> Vec<u64> {
        delivery.iter().map(|r| r.ts.0).collect()
    }

    #[test]
    fn blocked_sink_grows_the_pending_delivery_up_to_its_cap() {
        // Capacity 3, batch 4: the cap is 12 records. The test holds the
        // receiver and drains only where it says so, so every try and
        // every blocking send below is forced.
        let (sink, rx, _pool, live) = BatchSink::open(3, 4, OverflowPolicy::Block);
        // Three batches fill the queue; 7 more records past it park
        // nothing (tried at 4, full), and the next try is due at 8.
        let sink = push_without_blocking(sink, 0..19);
        assert_eq!(live.accepted(), 12);
        // One slot frees: the try due at 8 records succeeds with a
        // delivery of 8, between the batch and the cap.
        assert_eq!(timestamps(&rx.recv().unwrap()), (0..4).collect::<Vec<_>>());
        let sink = push_without_blocking(sink, 19..20);
        assert_eq!(live.accepted(), 20);
        // Queue full again: 11 more records grow the next delivery
        // without parking. The 12th reaches the cap, so it may only go
        // in once a slot is free.
        let mut sink = push_without_blocking(sink, 20..31);
        assert_eq!(live.accepted(), 20);
        assert_eq!(timestamps(&rx.recv().unwrap()), (4..8).collect::<Vec<_>>());
        assert!(sink.push(nth(31)));
        assert_eq!(live.accepted(), 32);
        let sink = push_without_blocking(sink, 32..35);
        assert_eq!(timestamps(&rx.recv().unwrap()), (8..12).collect::<Vec<_>>());
        let stats = sink.finish();
        let rest: Vec<Vec<LogicalIoRecord>> = rx.iter().collect();
        let sizes: Vec<usize> = rest.iter().map(Vec::len).collect();
        assert_eq!(sizes, [8, 12, 3], "grown deliveries, then the tail");
        // Exact order, nothing lost or repeated.
        let tail: Vec<u64> = rest.iter().flat_map(|d| timestamps(d)).collect();
        assert_eq!(tail, (12..35).collect::<Vec<_>>());
        assert_eq!(
            stats,
            IngestStats {
                accepted: 35,
                dropped: 0
            }
        );
    }

    #[test]
    fn hang_up_with_a_grown_delivery_pending_counts_every_record() {
        // Queue of 2 full, 6 records pending (grown past the batch of 4)
        // when the consumer hangs up: the next try finds it gone.
        let (sink, rx, _pool, live) = BatchSink::open(2, 4, OverflowPolicy::Block);
        let mut sink = push_without_blocking(sink, 0..14);
        drop(rx);
        let mut pushed = 14;
        while sink.push(nth(pushed)) {
            pushed += 1;
        }
        pushed += 1; // the push that reported the hang-up
        let stats = sink.finish();
        assert_eq!(stats.accepted, 8);
        assert_eq!(stats.accepted + stats.dropped, pushed);
        assert_eq!(live.snapshot(), stats);
    }

    #[test]
    fn stream_error_with_a_grown_delivery_pending_drops_it() {
        let (sink, rx, _pool, live) = BatchSink::open(2, 4, OverflowPolicy::Block);
        let sink = push_without_blocking(sink, 0..14);
        let err = sink.fail(std::io::Error::other("line 15: bad"));
        assert_eq!(err.to_string(), "line 15: bad");
        assert_eq!(live.accepted(), 8);
        assert_eq!(live.dropped(), 6, "the grown delivery dies with the stream");
        let delivered: Vec<u64> = rx.iter().flat_map(|d| timestamps(&d)).collect();
        assert_eq!(delivered, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn blocking_ingest_delivers_everything_in_order() {
        let input: String = (0..100).map(|i| line(i * 1000)).collect();
        let (rx, _pool, counters, handle) =
            one_reader(Cursor::new(input), 2, 8, OverflowPolicy::Block);
        let got: Vec<LogicalIoRecord> = rx.iter().flatten().collect();
        assert_eq!(got.len(), 100);
        assert!(got.windows(2).all(|w| w[0].ts <= w[1].ts));
        let stats = handle.join().unwrap().unwrap();
        assert_eq!(
            stats,
            IngestStats {
                accepted: 100,
                dropped: 0
            }
        );
        assert_eq!(counters.snapshot(), stats, "live counters match finals");
    }

    #[test]
    fn drop_newest_counts_dropped_events_not_batches() {
        // Regression pin: 100 events in batches of 8 against a 4-batch
        // queue the consumer never drains. The first 4 batches (32
        // events) are accepted; the remaining 8 full batches and the
        // final partial batch of 4 are dropped — 68 *events*, which a
        // per-batch count would have reported as 9. The sequencer is the
        // only thread touching the queue, so the split is deterministic
        // at any reader count.
        let input: String = (0..100).map(|i| line(i * 1000)).collect();
        for (readers, chunk) in [(1, 0), (4, 32)] {
            let (rx, pool, counters, handle) = spawn_reader_parallel(
                Cursor::new(input.clone()),
                4,
                8,
                OverflowPolicy::DropNewest,
                readers,
                chunk,
            );
            let stats = handle.join().unwrap().unwrap();
            assert_eq!(stats.accepted, 32, "readers={readers}");
            assert_eq!(stats.dropped, 68, "readers={readers}");
            let mut delivered = 0;
            for batch in rx.iter() {
                delivered += batch.len() as u64;
                pool.recycle(batch);
            }
            assert_eq!(delivered, 32);
            assert_eq!(counters.snapshot(), stats);
        }
    }

    #[test]
    fn consumer_hangup_counts_every_pulled_event_dropped() {
        // Capacity 1 and a consumer that never drains: the first batch
        // fills the queue slot, the second blocks in `send`. Dropping the
        // receiver fails that blocked send — the in-flight batch must be
        // counted dropped, not lost, and so must the rest of the chunk
        // the sequencer already pulled (all 20 lines are one chunk), so
        // accepted + dropped == parsed.
        let input: String = (0..20).map(|i| line(i * 1000)).collect();
        let (rx, _pool, counters, handle) =
            one_reader(Cursor::new(input), 1, 8, OverflowPolicy::Block);
        // Wait for batch 1 to be accepted so batch 2 is the one that
        // hits the hang-up; otherwise the outcome races with `drop`.
        while counters.accepted() < 8 {
            std::thread::yield_now();
        }
        drop(rx);
        let stats = handle.join().unwrap().unwrap();
        assert_eq!(stats.accepted, 8);
        assert_eq!(stats.dropped, 12, "in-flight batch and chunk tail counted");
        assert_eq!(counters.snapshot(), stats);
    }

    #[test]
    fn parse_error_counts_the_partial_batch_dropped() {
        // Five good events, then a malformed line, with batch = 8: the
        // five buffered records never flush. They must be counted
        // dropped, not silently discarded.
        let mut input: String = (0..5).map(|i| line(i * 1000)).collect();
        input.push_str("not json\n");
        let (rx, _pool, counters, handle) =
            one_reader(Cursor::new(input), 4, 8, OverflowPolicy::Block);
        assert_eq!(rx.iter().count(), 0);
        let err = handle.join().unwrap().unwrap_err();
        assert!(err.to_string().starts_with("line 6: "), "{err}");
        assert_eq!(counters.accepted(), 0);
        assert_eq!(counters.dropped(), 5);
    }

    /// A reader that surfaces `WouldBlock` before every buffer refill —
    /// the shape of a live tap over a non-blocking pipe: bytes already
    /// buffered never stall, fetching fresh bytes (after a `consume`)
    /// may.
    struct StallingReader {
        inner: Cursor<String>,
        stall_next: bool,
    }

    impl std::io::Read for StallingReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let available = self.fill_buf()?;
            let n = available.len().min(buf.len());
            buf[..n].copy_from_slice(&available[..n]);
            self.consume(n);
            Ok(n)
        }
    }

    impl BufRead for StallingReader {
        fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
            if self.stall_next {
                self.stall_next = false;
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WouldBlock,
                    "injected reader stall",
                ));
            }
            self.inner.fill_buf()
        }

        fn consume(&mut self, amt: usize) {
            self.stall_next = true;
            self.inner.consume(amt)
        }
    }

    #[test]
    fn retrying_reader_absorbs_transient_stalls() {
        let input: String = (0..50).map(|i| line(i * 1000)).collect();
        let stalling = StallingReader {
            inner: Cursor::new(input),
            stall_next: true,
        };
        let (rx, _pool, _counters, handle) = one_reader(stalling, 16, 8, OverflowPolicy::Block);
        assert_eq!(
            rx.iter().flatten().count(),
            50,
            "stalls must not lose events"
        );
        let stats = handle.join().unwrap().unwrap();
        assert_eq!(stats.accepted, 50);
    }

    /// A reader that never becomes ready.
    struct DeadReader;

    impl std::io::Read for DeadReader {
        fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
            Err(std::io::Error::new(
                std::io::ErrorKind::WouldBlock,
                "stuck forever",
            ))
        }
    }

    impl BufRead for DeadReader {
        fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
            Err(std::io::Error::new(
                std::io::ErrorKind::WouldBlock,
                "stuck forever",
            ))
        }

        fn consume(&mut self, _amt: usize) {}
    }

    #[test]
    fn retrying_reader_gives_up_after_bounded_attempts() {
        let mut r = RetryingReader::new(DeadReader);
        let err = r.fill_buf().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
        assert_eq!(r.retries(), RETRY_ATTEMPTS as u64, "budget is bounded");
    }

    #[test]
    fn parallel_reader_matches_serial_on_unterminated_crlf_input() {
        // CRLF endings, comments, blank lines, and no trailing newline —
        // the chunk-boundary edge cases. Every reader count must deliver
        // exactly the serial parser's records and exact counters: the
        // unterminated final line parsed once, never dropped or doubled.
        let mut input = String::from("# header\r\n");
        for i in 0..97 {
            input.push_str(line(i * 1000).trim_end());
            input.push_str(if i % 3 == 0 { "\r\n" } else { "\n" });
            if i % 10 == 0 {
                input.push_str("\r\n");
            }
        }
        input.push_str(line(97_000).trim_end()); // no trailing newline
        let serial: Vec<LogicalIoRecord> = EventReader::new(Cursor::new(input.clone()))
            .collect::<std::io::Result<_>>()
            .unwrap();
        for (readers, chunk) in [(1, 0), (2, 48), (4, 17)] {
            let (rx, pool, counters, handle) = spawn_reader_parallel(
                Cursor::new(input.clone()),
                64,
                8,
                OverflowPolicy::Block,
                readers,
                chunk,
            );
            let mut got = Vec::new();
            for mut batch in rx.iter() {
                got.append(&mut batch);
                pool.recycle(batch);
            }
            let stats = handle.join().unwrap().unwrap();
            assert_eq!(got, serial, "readers={readers} chunk={chunk}");
            assert_eq!(stats.accepted, 98, "unterminated last line counted once");
            assert_eq!(stats.dropped, 0);
            assert_eq!(counters.snapshot(), stats);
        }
    }

    #[test]
    fn parallel_reader_reports_the_serial_error_line() {
        // The error line number must be absolute and identical to the
        // serial reader's, no matter how chunks split around it.
        let mut input: String = (0..37).map(|i| line(i * 1000)).collect();
        input.push_str("not json\n");
        input.push_str(&line(38_000));
        for (readers, chunk) in [(1, 0), (2, 16), (4, 64), (4, 1)] {
            let (rx, _pool, counters, handle) = spawn_reader_parallel(
                Cursor::new(input.clone()),
                64,
                8,
                OverflowPolicy::Block,
                readers,
                chunk,
            );
            let delivered = rx.iter().map(|b| b.len() as u64).sum::<u64>();
            let err = handle.join().unwrap().unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(
                err.to_string().starts_with("line 38: "),
                "readers={readers} chunk={chunk}: {err}"
            );
            // The 37 good records split between delivered batches and
            // the stranded partial batch — every one counted.
            assert_eq!(delivered, counters.accepted());
            assert_eq!(counters.accepted() + counters.dropped(), 37);
        }
    }

    #[test]
    fn parallel_reader_recycles_buffers() {
        // Lock-step consumption: drain one batch, hand the buffer back,
        // repeat. The producer must refill recycled buffers, and delivery
        // must stay lossless and ordered.
        let input: String = (0..400).map(|i| line(i * 1000)).collect();
        for readers in [1, 2] {
            let (rx, pool, counters, handle) = spawn_reader_parallel(
                Cursor::new(input.clone()),
                2,
                8,
                OverflowPolicy::Block,
                readers,
                256,
            );
            let mut got = Vec::new();
            for mut batch in rx.iter() {
                got.append(&mut batch);
                pool.recycle(batch);
            }
            assert_eq!(got.len(), 400);
            assert!(got.windows(2).all(|w| w[0].ts <= w[1].ts));
            handle.join().unwrap().unwrap();
            assert!(counters.recycled() > 0, "pool must see round trips");
        }
    }
}
