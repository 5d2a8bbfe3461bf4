//! Posted Interrupt Vector (PIV) support.
//!
//! Posted interrupts are the second of the paper's two IPI-protection
//! implementations: instead of trapping every incoming interrupt, the
//! sender (hypervisor/controller side) records the vector in an in-memory
//! *posted-interrupt descriptor* registered with the guest's VMCS, and only
//! sends a single physical *notification vector* if the outstanding-
//! notification (ON) bit was clear. A core running in PIV-enabled guest
//! mode harvests the descriptor without a VM exit.

use crate::interconnect::VectorBitmap;
use std::sync::atomic::{AtomicBool, Ordering};

/// The in-memory posted-interrupt descriptor (Intel SDM Vol. 3, 29.6).
pub struct PostedIntDescriptor {
    /// Posted-interrupt requests: one bit per vector.
    pir: VectorBitmap,
    /// Outstanding-notification bit.
    on: AtomicBool,
    /// Suppress-notification bit (SDM 29.6 / VT-d PID "SN"): the consumer
    /// sets it while it is actively polling the descriptor at safe
    /// points, telling posters to skip the physical notification IPI —
    /// the poll loop will see the PIR anyway. Cleared (default) for
    /// consumers that rely on the interrupt to learn about posts.
    sn: AtomicBool,
    /// The physical vector used to notify the target core.
    notification_vector: u8,
}

impl PostedIntDescriptor {
    /// Create a descriptor using `notification_vector` for doorbells.
    pub fn new(notification_vector: u8) -> Self {
        PostedIntDescriptor {
            pir: VectorBitmap::default(),
            on: AtomicBool::new(false),
            sn: AtomicBool::new(false),
            notification_vector,
        }
    }

    /// Set or clear the suppress-notification bit. While set, `post()`
    /// never requests a physical notification — ON still tracks posts, so
    /// pollers (and the controller's bounded NMI fallback, which watches
    /// the completion counter rather than the interrupt) are unaffected.
    pub fn set_suppress(&self, suppress: bool) {
        self.sn.store(suppress, Ordering::Release);
    }

    /// The notification vector registered with the VMCS.
    pub fn notification_vector(&self) -> u8 {
        self.notification_vector
    }

    /// Post `vector` into the PIR. Returns `true` if the caller must send a
    /// physical notification IPI (ON transitioned 0 → 1); `false` means a
    /// notification is already outstanding and the vector piggy-backs.
    ///
    /// Ordering contract (paired with [`Self::harvest`]): the PIR bit is
    /// set **before** ON is swapped. A racing harvester that already
    /// cleared ON therefore either picks the bit up in its drain, or —
    /// if the drain completed first — this `swap` observes `false` and
    /// the caller re-sends the notification. Either way the vector is
    /// seen; posting in the opposite order could set ON while the bit
    /// lands after the drain, losing the wakeup.
    ///
    /// When the suppress-notification bit is set the function always
    /// returns `false` (no IPI), but ON is still tracked so pollers and
    /// the quiescent invariant behave identically.
    pub fn post(&self, vector: u8) -> bool {
        self.pir.set(vector);
        let was_outstanding = self.on.swap(true, Ordering::AcqRel);
        !was_outstanding && !self.sn.load(Ordering::Acquire)
    }

    /// Harvest all posted vectors (what the core does on receiving the
    /// notification vector while in guest mode — no VM exit involved).
    ///
    /// Ordering contract (paired with [`Self::post`]): ON is cleared
    /// **before** the PIR is drained, matching the hardware ordering. A
    /// vector posted concurrently with the harvest then either lands in
    /// this drain (its bit was set before the drain swept it) or, having
    /// missed the drain, finds ON already clear and re-requests a
    /// notification — so no vector is ever stranded in the PIR with ON
    /// still set and no doorbell coming. Clearing ON *after* the drain
    /// would open exactly that lost-wakeup window. At quiescence the
    /// invariant is: `has_pending()` implies `notification_outstanding()`
    /// (checked by the `no_vector_lost_across_harvest_window` proptest).
    pub fn harvest(&self) -> Vec<u8> {
        self.on.store(false, Ordering::Release);
        self.pir.drain()
    }

    /// Acknowledge all posted vectors without materialising the vector
    /// list — same ordering contract as [`Self::harvest`] (ON cleared
    /// before the PIR is wiped), but allocation-free. For consumers that
    /// treat any post as a single doorbell meaning "drain your queue"
    /// and never inspect which vectors arrived; a vector posted
    /// concurrently re-raises ON per the `post` protocol, so no wakeup
    /// is lost even if its PIR bit is swept.
    pub fn acknowledge(&self) {
        self.on.store(false, Ordering::Release);
        self.pir.clear_all();
    }

    /// True if any vector is pending in the PIR.
    pub fn has_pending(&self) -> bool {
        !self.pir.is_empty()
    }

    /// True if a notification is outstanding.
    pub fn notification_outstanding(&self) -> bool {
        self.on.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_post_requests_notification() {
        let d = PostedIntDescriptor::new(0xf2);
        assert!(d.post(0x41));
        assert!(d.notification_outstanding());
        assert!(!d.post(0x42), "second post must piggy-back");
        assert!(!d.post(0x41), "re-post of same vector piggy-backs too");
    }

    #[test]
    fn harvest_returns_all_and_resets() {
        let d = PostedIntDescriptor::new(0xf2);
        d.post(0x10);
        d.post(0x80);
        let mut got = d.harvest();
        got.sort();
        assert_eq!(got, vec![0x10, 0x80]);
        assert!(!d.notification_outstanding());
        assert!(!d.has_pending());
        // Next post needs a fresh notification.
        assert!(d.post(0x11));
    }

    #[test]
    fn suppressed_post_skips_notification_but_tracks_on() {
        let d = PostedIntDescriptor::new(0xf3);
        d.set_suppress(true);
        assert!(!d.post(0x21), "SN set: no physical notification");
        assert!(d.notification_outstanding(), "ON still tracks the post");
        assert!(d.has_pending());
        assert_eq!(d.harvest(), vec![0x21]);
        // Clearing SN restores the notify-on-first-post behaviour.
        d.set_suppress(false);
        assert!(d.post(0x21));
    }

    #[test]
    fn harvest_empty_is_empty() {
        let d = PostedIntDescriptor::new(0xf2);
        assert!(d.harvest().is_empty());
    }

    #[test]
    fn vector_merging_under_concurrency() {
        use std::sync::Arc;
        let d = Arc::new(PostedIntDescriptor::new(0xf2));
        let mut notifications = 0u64;
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let d = Arc::clone(&d);
                std::thread::spawn(move || {
                    let mut n = 0u64;
                    for _ in 0..1000 {
                        if d.post(0x33) {
                            n += 1;
                        }
                    }
                    n
                })
            })
            .collect();
        for h in handles {
            notifications += h.join().unwrap();
        }
        // At least one notification, far fewer than 4000 posts.
        assert!(notifications >= 1);
        assert!(notifications < 4000);
        assert_eq!(d.harvest(), vec![0x33]);
    }

    mod race {
        use super::super::*;
        use proptest::prelude::*;
        use std::collections::HashSet;
        use std::sync::Arc;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]
            /// Race `post()` against `harvest()` across the ON-clear/drain
            /// window: every posted vector must surface either in one of
            /// the concurrent harvest batches or in the final drain, and
            /// at quiescence a non-empty PIR implies ON is set (so a
            /// doorbell-aware core will come back for it) — no lost
            /// vectors, no lost wakeups.
            #[test]
            fn no_vector_lost_across_harvest_window(
                threads in 1usize..5,
                vectors in proptest::collection::vec(0u8..0xf0, 1..24),
                harvests in 1usize..65,
            ) {
                let d = Arc::new(PostedIntDescriptor::new(0xf3));
                let posters: Vec<_> = (0..threads)
                    .map(|t| {
                        let d = Arc::clone(&d);
                        let vs: Vec<u8> =
                            vectors.iter().skip(t).step_by(threads).copied().collect();
                        std::thread::spawn(move || {
                            for v in vs {
                                d.post(v);
                            }
                        })
                    })
                    .collect();
                // Harvester side: race drains against the in-flight posts.
                let mut seen: HashSet<u8> = HashSet::new();
                for _ in 0..harvests {
                    seen.extend(d.harvest());
                }
                for p in posters {
                    p.join().unwrap();
                }
                // Quiescent lost-wakeup check: anything still pending must
                // have re-raised the notification when its post missed a
                // concurrent drain.
                prop_assert!(
                    !d.has_pending() || d.notification_outstanding(),
                    "pending vectors with ON clear: lost wakeup"
                );
                seen.extend(d.harvest());
                let posted: HashSet<u8> = vectors.iter().copied().collect();
                prop_assert_eq!(&seen & &posted, posted.clone(), "vector lost in the race");
            }
        }
    }
}
