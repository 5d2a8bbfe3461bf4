//! The RandomAccess arm (paper Fig. 5b): one covirt-mem+ipi world and one
//! native world, each with a table and a guest core, measured in
//! interleaved rounds so host drift hits both sides alike.

use crate::datapath::{run_updates, Stream};
use crate::spans::SpanLog;
use covirt::config::CovirtConfig;
use covirt::{CovirtError, CovirtResult, ExecMode, GuestCore};
use covirt_simhw::node::SimNode;
use covirt_simhw::topology::HwLayout;
use std::sync::Arc;
use std::time::Instant;
use workloads::randomaccess::RandomAccess;
use workloads::World;

/// HPCC polls at its lookahead granularity.
const POLL_EVERY: u64 = 128;

/// Updates in the library self-test run during set-up.
const SELF_TEST_UPDATES: u64 = 1 << 14;

/// One side of the comparison.
struct Side {
    world: World,
    g: GuestCore,
    table: u64,
    stream: Stream,
}

impl Side {
    fn setup(mode: ExecMode, log2n: u32, seed: u64) -> CovirtResult<Side> {
        let bytes = 8u64 << log2n;
        let world = World::build(
            mode,
            HwLayout { cores: 1, zones: 1 },
            bytes + 64 * 1024 * 1024,
        );
        let mut g = world.guest_core(world.cores[0])?;
        // The library's own HPCC check (replay restores `table[i] = i`)
        // on a small table: proves the translation path before timing.
        let ra = RandomAccess::setup(&world, 12);
        ra.init(&mut g)?;
        ra.run(&mut g, SELF_TEST_UPDATES)?;
        let bad = ra.verify(&mut g, SELF_TEST_UPDATES)?;
        if bad != 0 {
            return Err(CovirtError::EnclaveTerminated(format!(
                "RandomAccess::verify: {bad} mismatches"
            )));
        }
        let table = world.alloc_array(bytes);
        let stream = Stream::new(seed, log2n);
        stream.init(&mut g, table)?;
        Ok(Side {
            world,
            g,
            table,
            stream,
        })
    }

    fn run(&mut self, n: u64, log: &mut SpanLog) -> CovirtResult<f64> {
        let t = Instant::now();
        run_updates(
            &mut self.g,
            self.table,
            &mut self.stream,
            n,
            POLL_EVERY,
            log,
        )?;
        Ok(t.elapsed().as_secs_f64())
    }
}

/// Results of one measuring pass.
#[derive(Clone, Debug, Default)]
pub struct GupsPass {
    /// Covirt throughput per round, Mupdates/s.
    pub covirt_mups: Vec<f64>,
    /// Native ÷ covirt throughput per round (paired).
    pub slowdown: Vec<f64>,
    /// Counter deltas of the covirt core over the pass.
    pub dp: crate::DpStats,
}

impl GupsPass {
    /// Append another pass of the same arm.
    pub fn absorb(&mut self, o: GupsPass) {
        self.covirt_mups.extend(o.covirt_mups);
        self.slowdown.extend(o.slowdown);
        self.dp.add(&o.dp);
    }
}

/// The arm.
pub struct GupsArm {
    covirt: Side,
    native: Side,
    round: u64,
    rounds: u64,
}

impl GupsArm {
    /// Build both worlds, run the library self-test, initialize the
    /// tables and warm both cores with one round.
    pub fn setup(log2n: u32, round: u64, seed: u64) -> CovirtResult<GupsArm> {
        let mut arm = GupsArm {
            covirt: Side::setup(ExecMode::Covirt(CovirtConfig::MEM_IPI), log2n, seed)?,
            native: Side::setup(ExecMode::Native, log2n, seed)?,
            round,
            rounds: 0,
        };
        let mut off = SpanLog::new(Instant::now(), false);
        arm.covirt.run(round, &mut off)?;
        arm.native.run(round, &mut off)?;
        Ok(arm)
    }

    /// Nodes of both worlds.
    pub fn nodes(&self) -> Vec<Arc<SimNode>> {
        vec![
            Arc::clone(&self.covirt.world.node),
            Arc::clone(&self.native.world.node),
        ]
    }

    /// Interleaved rounds for at least `secs` (and at least one round).
    /// The order within a round alternates. Spans are recorded on the
    /// covirt side only when `log` is on.
    pub fn measure(&mut self, secs: f64, log: &mut SpanLog) -> CovirtResult<GupsPass> {
        let mut off = SpanLog::new(Instant::now(), false);
        let before = crate::DpSnap::take(&self.covirt.g, self.covirt.stream.updates);
        if log.on() {
            self.covirt.g.profile_begin();
        }
        let mut pass = GupsPass::default();
        let start = Instant::now();
        while pass.slowdown.is_empty() || start.elapsed().as_secs_f64() < secs {
            let (tc, tn) = if self.rounds.is_multiple_of(2) {
                let tc = self.covirt.run(self.round, log)?;
                (tc, self.native.run(self.round, &mut off)?)
            } else {
                let tn = self.native.run(self.round, &mut off)?;
                (self.covirt.run(self.round, log)?, tn)
            };
            self.rounds += 1;
            pass.covirt_mups.push(self.round as f64 / tc / 1e6);
            pass.slowdown.push(tc / tn);
        }
        if log.on() {
            self.covirt.g.profile_finish();
        }
        let after = crate::DpSnap::take(&self.covirt.g, self.covirt.stream.updates);
        pass.dp = after.since(&before);
        Ok(pass)
    }

    /// Table checksums of both sides: mismatching folds (0 = pass) and
    /// the updates they cover.
    pub fn verify(&mut self) -> CovirtResult<(u64, u64)> {
        let bad = self
            .covirt
            .stream
            .check(&mut self.covirt.g, self.covirt.table)?
            + self
                .native
                .stream
                .check(&mut self.native.g, self.native.table)?;
        Ok((bad, self.covirt.stream.updates + self.native.stream.updates))
    }
}
