//! Offline stand-in for `crossbeam`: a facade over `std::sync::mpsc`.
//!
//! Since Rust 1.67 std's channel *is* crossbeam-channel's list flavour:
//! lock-free, allocating a block at a time as the queue fills, waking a
//! receiver only when one is parked. Storage, FIFO order (per producer),
//! parking, wake-ups and disconnection are std's. This crate adds the
//! two things std's unbounded channel lacks and the workspace uses:
//! the **bound** of `channel::bounded` and `len()`, both kept in one
//! shared depth counter.
//!
//! What it no longer offers: `Receiver` is not `Clone` — the channels
//! are multi-producer **single**-consumer, which is all any caller in
//! the workspace ever used.

/// Bounded multi-producer single-consumer channels.
pub mod channel {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    pub use std::sync::mpsc::{RecvError, RecvTimeoutError, SendError, TrySendError};
    use TrySendError::{Disconnected, Full};

    /// The bound and the occupancy gauge. `Relaxed` throughout: the
    /// counter publishes no data (the message itself crosses on mpsc's
    /// own synchronisation, which also orders a slot's reservation
    /// before its release), and read-modify-writes on one atomic are
    /// totally ordered whatever the ordering.
    struct Depth {
        /// Slots reserved: messages queued plus sends between reserving
        /// and pushing. Never above `cap`.
        len: AtomicUsize,
        cap: usize,
        /// Set when the receiver drops, so a sender that finds the
        /// channel full can still tell `Disconnected` from `Full`.
        receiver_gone: AtomicBool,
    }

    /// The sending half of a channel.
    pub struct Sender<T> {
        tx: mpsc::Sender<T>,
        depth: Arc<Depth>,
    }

    /// The receiving half of a channel.
    pub struct Receiver<T> {
        rx: mpsc::Receiver<T>,
        depth: Arc<Depth>,
    }

    /// Creates a bounded channel holding at most `cap` messages.
    ///
    /// Built on `mpsc::channel()`, not `sync_channel(cap)`: the latter
    /// allocates and writes all `cap` slots up front (megabytes per
    /// worker at the runtime's 65 536), the former grows as it fills.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        let depth = Arc::new(Depth {
            len: AtomicUsize::new(0),
            cap: cap.max(1),
            receiver_gone: AtomicBool::new(false),
        });
        let d = depth.clone();
        (Sender { tx, depth: d }, Receiver { rx, depth })
    }

    impl<T> Sender<T> {
        /// Sends `msg`, blocking while the channel is full.
        ///
        /// # Errors
        ///
        /// Returns the message if the receiver was dropped.
        pub fn send(&self, mut msg: T) -> Result<(), SendError<T>> {
            // Sleep-and-retry rather than a `not_full` condvar: the one
            // blocking caller is harness injection, which fills a queue
            // only when it outruns a worker by the whole capacity, and a
            // condvar would put a wake-up check on every `recv`.
            loop {
                match self.try_send(msg) {
                    Ok(()) => return Ok(()),
                    Err(Disconnected(m)) => return Err(SendError(m)),
                    Err(Full(m)) => msg = m,
                }
                std::thread::sleep(Duration::from_micros(50));
            }
        }

        /// Sends `msg` without blocking.
        ///
        /// # Errors
        ///
        /// Returns the message if the channel is full or disconnected.
        pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
            let depth = &*self.depth;
            let reserve = |n| (n < depth.cap).then_some(n + 1);
            if depth.len.fetch_update(Relaxed, Relaxed, reserve).is_err() {
                let gone = depth.receiver_gone.load(Relaxed);
                return Err(if gone { Disconnected(msg) } else { Full(msg) });
            }
            self.tx.send(msg).map_err(|SendError(m)| {
                depth.len.fetch_sub(1, Relaxed);
                Disconnected(m)
            })
        }

        /// Messages currently queued (a momentary occupancy snapshot —
        /// telemetry probes sample this as channel queue depth).
        pub fn len(&self) -> usize {
            self.depth.len.load(Relaxed)
        }

        /// `true` when no messages are queued right now.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Receiver<T> {
        /// Messages currently queued (a momentary occupancy snapshot —
        /// telemetry probes sample this as channel queue depth).
        pub fn len(&self) -> usize {
            self.depth.len.load(Relaxed)
        }

        /// `true` when no messages are queued right now.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Receives a message, blocking until one arrives.
        ///
        /// # Errors
        ///
        /// Returns an error once the channel is empty and senderless.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.rx.recv().inspect(|_| self.release())
        }

        /// Receives a message, waiting at most `timeout`.
        ///
        /// # Errors
        ///
        /// [`RecvTimeoutError::Timeout`] if the wait elapsed, or
        /// [`RecvTimeoutError::Disconnected`] once empty and senderless.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.rx.recv_timeout(timeout).inspect(|_| self.release())
        }

        /// Gives back the slot of a message just popped.
        fn release(&self) {
            self.depth.len.fetch_sub(1, Relaxed);
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender {
                tx: self.tx.clone(),
                depth: self.depth.clone(),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.depth.receiver_gone.store(true, Relaxed);
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn send_recv_fifo() {
            let (tx, rx) = bounded(4);
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
        }

        #[test]
        fn len_tracks_occupancy() {
            let (tx, rx) = bounded(4);
            assert_eq!(tx.len(), 0);
            assert!(rx.is_empty());
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(tx.len(), 2);
            assert_eq!(rx.len(), 2);
            rx.recv().unwrap();
            assert_eq!(rx.len(), 1);
            assert!(!tx.is_empty());
        }

        #[test]
        fn try_send_full_and_disconnected() {
            let (tx, rx) = bounded(1);
            tx.try_send(1).unwrap();
            assert!(matches!(tx.try_send(2), Err(TrySendError::Full(2))));
            drop(rx);
            let _ = tx.try_send(3); // queue full, but receiver gone wins? full checked after
            let (tx2, rx2) = bounded(8);
            drop(rx2);
            assert!(matches!(
                tx2.try_send(9),
                Err(TrySendError::Disconnected(9))
            ));
        }

        #[test]
        fn recv_timeout_reports_timeout_then_disconnect() {
            let (tx, rx) = bounded::<u32>(1);
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(10)),
                Err(RecvTimeoutError::Timeout)
            );
            drop(tx);
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(10)),
                Err(RecvTimeoutError::Disconnected)
            );
        }

        #[test]
        fn cross_thread_round_trip() {
            let (tx, rx) = bounded(2);
            let h = std::thread::spawn(move || {
                for i in 0..100 {
                    tx.send(i).unwrap();
                }
            });
            let mut got = Vec::new();
            while let Ok(v) = rx.recv_timeout(Duration::from_secs(5)) {
                got.push(v);
                if got.len() == 100 {
                    break;
                }
            }
            h.join().unwrap();
            assert_eq!(got, (0..100).collect::<Vec<_>>());
        }

        #[test]
        fn racing_producers_never_exceed_the_bound() {
            const CAP: usize = 8;
            const PRODUCERS: usize = 4;
            const EACH: usize = 2_000;
            let (tx, rx) = bounded::<(usize, usize)>(CAP);
            let saw_full = AtomicBool::new(false);
            let got = std::thread::scope(|s| {
                for p in 0..PRODUCERS {
                    let (tx, saw_full) = (tx.clone(), &saw_full);
                    s.spawn(move || {
                        for i in 0..EACH {
                            while let Err(e) = tx.try_send((p, i)) {
                                assert!(matches!(e, Full(m) if m == (p, i)));
                                saw_full.store(true, Relaxed);
                                std::thread::yield_now();
                            }
                            assert!(tx.len() <= CAP);
                        }
                    });
                }
                drop(tx);
                // Drain only once a producer has been refused, so the
                // bound is known to have been hit, and then slowly.
                while !saw_full.load(Relaxed) {
                    std::thread::yield_now();
                }
                assert_eq!(rx.len(), CAP);
                let mut got = vec![Vec::new(); PRODUCERS];
                while let Ok((p, i)) = rx.recv() {
                    assert!(rx.len() <= CAP);
                    got[p].push(i);
                    std::thread::yield_now();
                }
                got
            });
            // Exactly once, and in each producer's own order.
            for seq in got {
                assert_eq!(seq, (0..EACH).collect::<Vec<_>>());
            }
            assert_eq!(rx.len(), 0);
        }

        #[test]
        fn blocked_send_completes_after_one_recv() {
            let (tx, rx) = bounded(1);
            tx.send(1).unwrap();
            let returned = AtomicBool::new(false);
            let (started, sender_started) = mpsc::channel();
            std::thread::scope(|s| {
                let blocked = s.spawn(|| {
                    started.send(()).unwrap();
                    let sent = tx.send(2);
                    returned.store(true, Relaxed);
                    sent
                });
                sender_started.recv().unwrap();
                assert!(!returned.load(Relaxed), "no slot is free yet");
                assert_eq!(rx.recv(), Ok(1));
                assert_eq!(blocked.join().unwrap(), Ok(()));
            });
            assert_eq!(rx.recv(), Ok(2));
        }

        #[test]
        fn blocked_send_returns_the_message_when_the_receiver_drops() {
            let (tx, rx) = bounded(1);
            tx.send(1).unwrap();
            std::thread::scope(|s| {
                let blocked = s.spawn(|| tx.send(2));
                // Full until the receiver goes: whether the drop lands
                // before the send's first try or between two retries, the
                // message must come back.
                drop(rx);
                assert_eq!(blocked.join().unwrap(), Err(SendError(2)));
            });
        }
    }
}
