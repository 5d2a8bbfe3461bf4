//! The memory-reconfiguration protocol end-to-end: ordering guarantees,
//! asynchronous grants, blocking reclaims, and XEMEM integration — the
//! heart of Covirt's controller design.

use covirt_suite::covirt::config::CovirtConfig;
use covirt_suite::covirt::{CovirtController, GuestCore};
use covirt_suite::hobbes::MasterControl;
use covirt_suite::pisces::resources::ResourceRequest;
use covirt_suite::simhw::addr::{PhysRange, PAGE_SIZE_2M};
use covirt_suite::simhw::node::{NodeConfig, SimNode};
use covirt_suite::simhw::paging::{Access, DirectLoad};
use covirt_suite::simhw::tlb::TlbParams;
use covirt_suite::simhw::topology::{CoreId, ZoneId};
use std::sync::Arc;

fn world() -> (Arc<SimNode>, Arc<MasterControl>, Arc<CovirtController>) {
    let node = SimNode::new(NodeConfig::paper_testbed());
    let master = MasterControl::new(Arc::clone(&node));
    let ctl = CovirtController::new(Arc::clone(&node), CovirtConfig::MEM);
    ctl.attach_hobbes(&master);
    (node, master, ctl)
}

#[test]
fn grant_is_ept_mapped_before_guest_notification() {
    let (node, master, ctl) = world();
    let req = ResourceRequest::new(vec![CoreId(2)], vec![(ZoneId(0), 64 * 1024 * 1024)]);
    let (e, k) = master.bring_up_enclave("g", &req).unwrap();
    let vctx = ctl.context(e.id.0).unwrap();
    let ept = vctx.ept.as_ref().unwrap();

    let range = master
        .pisces()
        .add_memory(&e, ZoneId(0), 4 * 1024 * 1024)
        .unwrap();
    // Invariant: at the moment the grant message is in flight (guest has
    // not polled), the EPT already maps the region...
    assert!(ept
        .translate(
            covirt_suite::simhw::addr::GuestPhysAddr::new(range.start.raw()),
            Access::Write,
            &DirectLoad(&node.mem)
        )
        .is_ok());
    // ...while the guest cannot yet *name* it.
    assert!(k.translate(range.start.raw()).is_err());
    k.poll_ctrl().unwrap();
    assert!(k.translate(range.start.raw()).is_ok());
}

#[test]
fn grants_are_asynchronous_wrt_running_guest() {
    // The guest keeps executing while the host grants memory; nothing
    // needs to stop ("configuration updates are handled asynchronously").
    let (node, master, ctl) = world();
    let req = ResourceRequest::new(vec![CoreId(2)], vec![(ZoneId(0), 64 * 1024 * 1024)]);
    let (e, k) = master.bring_up_enclave("a", &req).unwrap();
    let mut g = GuestCore::launch_covirt(
        Arc::clone(&node),
        Arc::clone(&k),
        Arc::clone(&ctl),
        2,
        TlbParams::default(),
    )
    .unwrap();

    let host = Arc::clone(master.pisces());
    let e2 = Arc::clone(&e);
    let granter = std::thread::spawn(move || {
        (0..8)
            .map(|_| host.add_memory(&e2, ZoneId(0), 2 * 1024 * 1024).unwrap())
            .collect::<Vec<PhysRange>>()
    });

    // Guest busy-works while the grants land; zero exits are required for
    // mapping growth.
    let mut cursor = 0;
    let a = k.alloc_contiguous(1024 * 1024, &mut cursor).unwrap();
    let exits_before = g.exit_count();
    while !granter.is_finished() {
        for i in 0..64u64 {
            g.write_u64(a + i * 8, i).unwrap();
        }
        g.poll().unwrap();
    }
    let ranges = granter.join().unwrap();
    assert_eq!(g.exit_count(), exits_before, "grants must not force exits");

    // After polling, every granted range is usable through the data path.
    k.poll_ctrl().unwrap();
    master.pisces().process_acks(&e).unwrap();
    for r in ranges {
        g.write_u64(r.start.raw(), 0x5a).unwrap();
        assert_eq!(g.read_u64(r.start.raw()).unwrap(), 0x5a);
    }
}

#[test]
fn reclaim_blocks_until_live_cores_flush() {
    let (node, master, ctl) = world();
    let req = ResourceRequest::new(
        vec![CoreId(2), CoreId(3)],
        vec![(ZoneId(0), 64 * 1024 * 1024)],
    );
    let (e, k) = master.bring_up_enclave("r", &req).unwrap();
    let mk = |core: usize| {
        GuestCore::launch_covirt(
            Arc::clone(&node),
            Arc::clone(&k),
            Arc::clone(&ctl),
            core,
            TlbParams::default(),
        )
        .unwrap()
    };
    let mut g2 = mk(2);
    let mut g3 = mk(3);

    let range = master
        .pisces()
        .add_memory(&e, ZoneId(0), 2 * 1024 * 1024)
        .unwrap();
    k.poll_ctrl().unwrap();
    master.pisces().process_acks(&e).unwrap();
    // Both cores cache the translation.
    g2.write_u64(range.start.raw(), 1).unwrap();
    g3.write_u64(range.start.raw() + 8, 2).unwrap();

    master.pisces().request_remove_memory(&e, range).unwrap();
    k.poll_ctrl().unwrap();

    let host = Arc::clone(master.pisces());
    let e2 = Arc::clone(&e);
    let reclaim = std::thread::spawn(move || {
        let t0 = std::time::Instant::now();
        loop {
            host.process_acks(&e2).unwrap();
            if !e2.resources().mem.contains(&range) {
                return t0.elapsed();
            }
            assert!(t0.elapsed().as_secs() < 30, "reclaim wedged");
            std::thread::yield_now();
        }
    });
    // Both cores must service their flush NMIs before reclaim finishes.
    while !reclaim.is_finished() {
        g2.poll().unwrap();
        g3.poll().unwrap();
        std::thread::yield_now();
    }
    reclaim.join().unwrap();

    // Each live core's TLB saw exactly one commanded flush — a range
    // flush, since a 2 MiB reclaim sits under the controller's threshold
    // and must not discard the cores' unrelated translations.
    assert_eq!(g2.tlb_stats().range_flushes, 1);
    assert_eq!(g3.tlb_stats().range_flushes, 1);
    assert_eq!(g2.tlb_stats().full_flushes, 0);
    assert_eq!(g3.tlb_stats().full_flushes, 0);
    // And the memory is genuinely gone from both the EPT and the host.
    let vctx = ctl.context(e.id.0).unwrap();
    assert!(vctx
        .ept
        .as_ref()
        .unwrap()
        .translate(
            covirt_suite::simhw::addr::GuestPhysAddr::new(range.start.raw()),
            Access::Read,
            &DirectLoad(&node.mem)
        )
        .is_err());
}

#[test]
fn xemem_attach_detach_under_covirt_with_live_consumer() {
    let (node, master, ctl) = world();
    let mk_req =
        |c: usize| ResourceRequest::new(vec![CoreId(c)], vec![(ZoneId(0), 64 * 1024 * 1024)]);
    let (e1, _k1) = master.bring_up_enclave("prod", &mk_req(2)).unwrap();
    let (e2, k2) = master.bring_up_enclave("cons", &mk_req(3)).unwrap();
    let mut g2 = GuestCore::launch_covirt(
        Arc::clone(&node),
        Arc::clone(&k2),
        Arc::clone(&ctl),
        3,
        TlbParams::default(),
    )
    .unwrap();

    let r1 = e1.resources().mem[0];
    let seg = PhysRange::new(r1.start.add(r1.len - 2 * 1024 * 1024), 2 * 1024 * 1024);
    master.export_segment(e1.id.0, "ring", seg).unwrap();
    master.attach_segment(e2.id.0, "ring").unwrap();
    g2.write_u64(seg.start.raw(), 0x77).unwrap();
    assert_eq!(g2.read_u64(seg.start.raw()).unwrap(), 0x77);

    // Detach while the consumer core is live: the controller unmaps and
    // flushes through the command queue.
    let master2 = Arc::clone(&master);
    let who = e2.id.0;
    let detach = std::thread::spawn(move || master2.detach_segment(who, "ring").unwrap());
    while !detach.is_finished() {
        g2.poll().unwrap();
        std::thread::yield_now();
    }
    detach.join().unwrap();
    let stats = g2.tlb_stats();
    assert!(
        stats.full_flushes + stats.range_flushes >= 1,
        "detach must flush the consumer"
    );
    // A post-detach access through the stale path is contained.
    let fault = covirt_suite::kitten::faults::stale_shared_mapping(&k2, seg);
    match g2.execute_fault(fault) {
        covirt_suite::covirt::exec::FaultOutcome::Contained(_) => {}
        o => panic!("expected containment, got {o:?}"),
    }
}

#[test]
fn ept_uses_large_pages_for_enclave_memory() {
    let (_node, master, ctl) = world();
    let req = ResourceRequest::new(vec![CoreId(2)], vec![(ZoneId(0), 64 * 1024 * 1024)]);
    let (e, _k) = master.bring_up_enclave("lp", &req).unwrap();
    let vctx = ctl.context(e.id.0).unwrap();
    let (c4k, c2m, c1g) = vctx.ept.as_ref().unwrap().leaf_counts().unwrap();
    // 64 MiB of 2 MiB-aligned memory coalesces into 32 large pages; only
    // the 256 KiB management region needs 4 KiB entries.
    assert_eq!(c2m + c1g * 512, 32, "enclave memory must coalesce");
    assert_eq!(c4k, 64, "management region maps with 4 KiB pages");
}

#[test]
fn regranted_memory_reads_zero_in_the_guest() {
    // Zero-on-grant isolation end to end: memory the guest filled, gave
    // back and is granted again reads as zeros through the guest's own
    // data path (no stale TLB entry, region cache or host backing).
    let (node, master, ctl) = world();
    let req = ResourceRequest::new(vec![CoreId(2)], vec![(ZoneId(0), 64 * 1024 * 1024)]);
    let (e, k) = master.bring_up_enclave("z", &req).unwrap();
    let mut g = GuestCore::launch_covirt(
        Arc::clone(&node),
        Arc::clone(&k),
        Arc::clone(&ctl),
        2,
        TlbParams::default(),
    )
    .unwrap();
    let host = master.pisces();

    // One 2 MiB grant (a plain host mapping) and one spanning three 2 MiB
    // pages (a huge-page host mapping).
    for len in [PAGE_SIZE_2M, 3 * PAGE_SIZE_2M] {
        let range = host.add_memory(&e, ZoneId(0), len).unwrap();
        k.poll_ctrl().unwrap();
        host.process_acks(&e).unwrap();
        for off in (0..len).step_by(8) {
            g.write_u64(range.start.raw() + off, !off).unwrap();
        }
        assert_eq!(g.read_u64(range.end().raw() - 8).unwrap(), !(len - 8));

        host.request_remove_memory(&e, range).unwrap();
        k.poll_ctrl().unwrap();
        // The reclaim blocks until the live core services its flush.
        let reclaim = {
            let host = Arc::clone(host);
            let e = Arc::clone(&e);
            std::thread::spawn(move || {
                while e.resources().mem.contains(&range) {
                    host.process_acks(&e).unwrap();
                    std::thread::yield_now();
                }
            })
        };
        while !reclaim.is_finished() {
            g.poll().unwrap();
            std::thread::yield_now();
        }
        reclaim.join().unwrap();

        let again = host.add_memory(&e, ZoneId(0), len).unwrap();
        assert_eq!(again, range, "first fit must regrant the reclaimed range");
        k.poll_ctrl().unwrap();
        host.process_acks(&e).unwrap();
        for off in (0..len).step_by(8) {
            assert_eq!(
                g.read_u64(again.start.raw() + off).unwrap(),
                0,
                "guest reads the previous owner's word at {off:#x} of a {len:#x}-byte grant"
            );
        }
    }
}
