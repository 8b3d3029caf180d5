//! A lock-free single-producer / single-consumer ring for the shard
//! transport.
//!
//! A bounded `std::sync::mpsc::sync_channel` is itself a lock-free
//! array channel (rustc 1.95), so the ring is not here to dodge a lock,
//! and its end-to-end edge over `sync_channel` is small and unsettled.
//! Swapped for `sync_channel` on the coordinator → worker path, the
//! `cloudblock-restart` benchmark (seed 7, 20 s alternating runs, 2-CPU
//! boxes) once measured median `plan_latency_p50_ms` 5.89 → 6.55 ms
//! (+11%; all 6 std-channel runs above all 5 ring runs) and
//! `events_per_s` −6%; a later set of 11 runs per side measured
//! 5.88 → 5.76 ms and 2.01M → 1.95M ev/s, inside the run-to-run spread.
//! It is the classic Lamport SPSC queue:
//!
//! * a power-of-two slot array indexed by free-running `head`/`tail`
//!   counters, so full/empty tests are two relaxed-ish atomic loads and
//!   a subtraction — no locks, no CAS;
//! * `head` and `tail` on separate cache lines ([`CachePadded`]) so the
//!   producer and consumer don't false-share;
//! * spin-then-park blocking: a handful of spins and yields absorb the
//!   common transient full/empty states, after which the waiter parks
//!   with a bounded timeout (so a lost wakeup costs microseconds, not a
//!   hang) and the other side unparks it on the next transition.
//!
//! Disconnect semantics match `sync_channel`'s, which the shard
//! supervisor relies on:
//!
//! * [`RingSender::send`] returns the message back inside
//!   [`RingSendError`] when the receiver is gone — the coordinator's
//!   death detector;
//! * dropping the [`RingReceiver`] (a panicking worker unwinds its
//!   stack) marks the channel dead **and drains queued messages**, so
//!   payloads carrying reply-channel senders don't keep a rollover
//!   barrier waiting on a thread that no longer exists.
//!
//! Safety rests on the SPSC contract: exactly one producer handle and
//! one consumer handle exist (neither is `Clone`, and both are `!Sync`),
//! so each index has a single writer and the usual acquire/release
//! pairing on `tail` (producer publishes) and `head` (consumer frees)
//! transfers slot ownership.

use std::cell::{Cell, UnsafeCell};
use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::Thread;
use std::time::Duration;

/// Pads (and aligns) a value to a 64-byte cache line so the producer's
/// and consumer's hot counters never share one.
#[repr(align(64))]
struct CachePadded<T>(T);

/// Spins before the first yield, yields before parking.
const SPINS: usize = 64;
const YIELDS: usize = 16;
/// Park timeout: an unpark can race the flag check, so parking is always
/// bounded — a lost wakeup self-heals within this window.
const PARK: Duration = Duration::from_micros(100);

/// One side's parked-thread slot: the waiter registers itself before
/// re-checking the condition; the other side unparks whoever is
/// registered after every state transition it makes.
struct Waiter {
    parked: AtomicBool,
    thread: Mutex<Option<Thread>>,
}

impl Waiter {
    fn new() -> Self {
        Waiter {
            parked: AtomicBool::new(false),
            thread: Mutex::new(None),
        }
    }

    /// Registers the current thread as parked. The caller must re-check
    /// its wait condition *after* this, then park.
    fn register(&self) {
        *self.thread.lock().expect("waiter lock") = Some(std::thread::current());
        self.parked.store(true, Ordering::SeqCst);
    }

    fn unregister(&self) {
        self.parked.store(false, Ordering::SeqCst);
    }

    /// Wakes the registered thread, if any side is parked.
    fn wake(&self) {
        if self.parked.load(Ordering::SeqCst) {
            if let Some(t) = self.thread.lock().expect("waiter lock").as_ref() {
                t.unpark();
            }
        }
    }
}

struct RingShared<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
    /// Next slot the consumer will pop. Written by the consumer only.
    head: CachePadded<AtomicUsize>,
    /// Next slot the producer will push. Written by the producer only.
    tail: CachePadded<AtomicUsize>,
    tx_alive: AtomicBool,
    rx_alive: AtomicBool,
    /// Producer waiting for space.
    tx_waiter: Waiter,
    /// Consumer waiting for data.
    rx_waiter: Waiter,
}

// The slots are handed across threads under the head/tail acquire/release
// protocol; `T: Send` is all that transfer needs.
unsafe impl<T: Send> Sync for RingShared<T> {}
unsafe impl<T: Send> Send for RingShared<T> {}

impl<T> RingShared<T> {
    fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Producer-side push attempt; returns the value back when full.
    fn try_push(&self, value: T) -> Result<(), T> {
        let tail = self.tail.0.load(Ordering::Relaxed);
        let head = self.head.0.load(Ordering::Acquire);
        if tail.wrapping_sub(head) >= self.capacity() {
            return Err(value);
        }
        unsafe {
            (*self.buf[tail & self.mask].get()).write(value);
        }
        self.tail.0.store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Consumer-side pop attempt; `None` when empty.
    fn try_pop(&self) -> Option<T> {
        let head = self.head.0.load(Ordering::Relaxed);
        let tail = self.tail.0.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        let value = unsafe { (*self.buf[head & self.mask].get()).assume_init_read() };
        self.head.0.store(head.wrapping_add(1), Ordering::Release);
        Some(value)
    }
}

impl<T> Drop for RingShared<T> {
    fn drop(&mut self) {
        // Both handles are gone: no concurrent access. Drop whatever is
        // still in flight.
        let mut head = *self.head.0.get_mut();
        let tail = *self.tail.0.get_mut();
        while head != tail {
            unsafe {
                (*self.buf[head & self.mask].get()).assume_init_drop();
            }
            head = head.wrapping_add(1);
        }
    }
}

/// The send failed because the receiver is gone; the message comes back.
#[derive(Debug)]
pub struct RingSendError<T>(pub T);

/// The receive failed because the sender is gone and the ring is empty.
#[derive(Debug, PartialEq, Eq)]
pub struct RingRecvError;

/// The producing half of an SPSC ring. Not `Clone` (single producer) and
/// not `Sync` (one thread at a time).
pub struct RingSender<T> {
    shared: Arc<RingShared<T>>,
    _not_sync: PhantomData<Cell<()>>,
}

/// The consuming half of an SPSC ring. Not `Clone` (single consumer) and
/// not `Sync` (one thread at a time).
pub struct RingReceiver<T> {
    shared: Arc<RingShared<T>>,
    _not_sync: PhantomData<Cell<()>>,
}

/// Creates an SPSC ring holding at least `capacity` messages (rounded up
/// to the next power of two, minimum 1).
pub fn ring_channel<T: Send>(capacity: usize) -> (RingSender<T>, RingReceiver<T>) {
    let cap = capacity.max(1).next_power_of_two();
    let buf: Box<[UnsafeCell<MaybeUninit<T>>]> = (0..cap)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect();
    let shared = Arc::new(RingShared {
        buf,
        mask: cap - 1,
        head: CachePadded(AtomicUsize::new(0)),
        tail: CachePadded(AtomicUsize::new(0)),
        tx_alive: AtomicBool::new(true),
        rx_alive: AtomicBool::new(true),
        tx_waiter: Waiter::new(),
        rx_waiter: Waiter::new(),
    });
    (
        RingSender {
            shared: Arc::clone(&shared),
            _not_sync: PhantomData,
        },
        RingReceiver {
            shared,
            _not_sync: PhantomData,
        },
    )
}

impl<T: Send> RingSender<T> {
    /// Blocks until the message is queued, or returns it back when the
    /// receiver has hung up (mirroring `SyncSender::send`'s
    /// `SendError(msg)` contract that the shard supervisor keys on).
    pub fn send(&self, value: T) -> Result<(), RingSendError<T>> {
        let mut value = value;
        let mut spins = 0usize;
        loop {
            if !self.shared.rx_alive.load(Ordering::SeqCst) {
                return Err(RingSendError(value));
            }
            match self.shared.try_push(value) {
                Ok(()) => {
                    self.shared.rx_waiter.wake();
                    return Ok(());
                }
                Err(back) => value = back,
            }
            spins += 1;
            if spins <= SPINS {
                std::hint::spin_loop();
            } else if spins <= SPINS + YIELDS {
                std::thread::yield_now();
            } else {
                self.shared.tx_waiter.register();
                // Re-check after registering so a concurrent pop (or a
                // receiver death) can't slip between check and park.
                let full = {
                    let tail = self.shared.tail.0.load(Ordering::Relaxed);
                    let head = self.shared.head.0.load(Ordering::Acquire);
                    tail.wrapping_sub(head) >= self.shared.capacity()
                };
                if full && self.shared.rx_alive.load(Ordering::SeqCst) {
                    std::thread::park_timeout(PARK);
                }
                self.shared.tx_waiter.unregister();
            }
        }
    }
}

impl<T> Drop for RingSender<T> {
    fn drop(&mut self) {
        self.shared.tx_alive.store(false, Ordering::SeqCst);
        self.shared.rx_waiter.wake();
    }
}

impl<T: Send> RingReceiver<T> {
    /// Blocks until a message arrives, or reports disconnection once the
    /// sender is gone *and* the ring is drained.
    pub fn recv(&self) -> Result<T, RingRecvError> {
        let mut spins = 0usize;
        loop {
            if let Some(v) = self.shared.try_pop() {
                self.shared.tx_waiter.wake();
                return Ok(v);
            }
            if !self.shared.tx_alive.load(Ordering::SeqCst) {
                // The sender may have pushed between our pop and its
                // death-flag store; drain before giving up.
                return match self.shared.try_pop() {
                    Some(v) => Ok(v),
                    None => Err(RingRecvError),
                };
            }
            spins += 1;
            if spins <= SPINS {
                std::hint::spin_loop();
            } else if spins <= SPINS + YIELDS {
                std::thread::yield_now();
            } else {
                self.shared.rx_waiter.register();
                let empty = {
                    let head = self.shared.head.0.load(Ordering::Relaxed);
                    let tail = self.shared.tail.0.load(Ordering::Acquire);
                    head == tail
                };
                if empty && self.shared.tx_alive.load(Ordering::SeqCst) {
                    std::thread::park_timeout(PARK);
                }
                self.shared.rx_waiter.unregister();
            }
        }
    }
}

impl<T> Drop for RingReceiver<T> {
    fn drop(&mut self) {
        self.shared.rx_alive.store(false, Ordering::SeqCst);
        // Drain queued messages so payloads holding reply senders (the
        // rollover barrier's death detector) are released now, not when
        // the producer eventually drops its handle.
        while self.shared.try_pop().is_some() {}
        self.shared.tx_waiter.wake();
    }
}

impl<T: Send> Iterator for RingReceiver<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.recv().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_capacity() {
        let (tx, rx) = ring_channel::<u32>(4);
        for i in 0..4 {
            tx.send(i).unwrap();
        }
        for i in 0..4 {
            assert_eq!(rx.recv(), Ok(i));
        }
    }

    #[test]
    fn capacity_rounds_up_and_blocks_at_full() {
        let (tx, rx) = ring_channel::<u64>(3); // rounds to 4
        let producer = std::thread::spawn(move || {
            for i in 0..10_000u64 {
                tx.send(i).unwrap();
            }
        });
        let mut expect = 0u64;
        while let Ok(v) = rx.recv() {
            assert_eq!(v, expect);
            expect += 1;
        }
        assert_eq!(expect, 10_000);
        producer.join().unwrap();
    }

    #[test]
    fn send_returns_message_after_receiver_drop() {
        let (tx, rx) = ring_channel::<String>(2);
        tx.send("queued".to_string()).unwrap();
        drop(rx);
        let RingSendError(back) = tx.send("bounced".to_string()).unwrap_err();
        assert_eq!(back, "bounced");
    }

    #[test]
    fn recv_drains_then_disconnects() {
        let (tx, rx) = ring_channel::<u8>(8);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Err(RingRecvError));
    }

    #[test]
    fn receiver_drop_releases_queued_payloads() {
        // A queued message holding a sync_channel sender must be dropped
        // with the receiver, so the side channel closes.
        let (side_tx, side_rx) = std::sync::mpsc::sync_channel::<u8>(1);
        let (tx, rx) = ring_channel::<std::sync::mpsc::SyncSender<u8>>(2);
        tx.send(side_tx).unwrap();
        drop(rx);
        assert!(matches!(side_rx.recv(), Err(std::sync::mpsc::RecvError)));
    }

    #[test]
    fn cross_thread_stress_keeps_order() {
        for cap in [1usize, 2, 8, 64] {
            let (tx, rx) = ring_channel::<u64>(cap);
            let consumer = std::thread::spawn(move || {
                let mut expect = 0u64;
                for v in rx {
                    assert_eq!(v, expect);
                    expect += 1;
                }
                expect
            });
            for i in 0..50_000u64 {
                tx.send(i).unwrap();
            }
            drop(tx);
            assert_eq!(consumer.join().unwrap(), 50_000);
        }
    }
}
