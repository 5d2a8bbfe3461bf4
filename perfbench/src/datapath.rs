//! The guest data path shared by the `gups` arm and the memchurn reader:
//! a seeded HPCC RandomAccess update stream with safe-point polls, plus
//! the table checksum that proves every update landed.

use crate::spans::{SpanLog, NO_PARENT};
use covirt::{CovirtResult, GuestCore};
use workloads::randomaccess::hpcc_next;

/// One update span is kept per this many updates, and one no-work poll
/// span per this many polls (harvesting polls are always kept): enough
/// samples for stable medians without holding every update in memory.
pub const SAMPLE_EVERY: u64 = 256;

/// A seeded HPCC update stream over a `2^log2n`-entry table, folding
/// every update into two checksums as it goes.
///
/// With `table[i] = i` initially and `table[idx] ^= ran` per update, the
/// xor of `table[i] ^ i` over the table equals the xor of every `ran`,
/// and the xor of `rotl(table[i] ^ i, i % 64)` equals the xor of
/// `rotl(ran, idx % 64)`. [`Stream::check`] compares both folds against
/// a scan of the table, so a lost, duplicated or misdirected update is
/// detected without replaying the stream.
#[derive(Clone, Debug)]
pub struct Stream {
    ran: u64,
    mask: u64,
    fold: u64,
    fold_rot: u64,
    /// Updates generated so far.
    pub updates: u64,
}

impl Stream {
    /// Start the stream at a point derived from `seed`.
    pub fn new(seed: u64, log2n: u32) -> Stream {
        Stream {
            ran: splitmix64(seed) | 1,
            mask: (1u64 << log2n) - 1,
            fold: 0,
            fold_rot: 0,
            updates: 0,
        }
    }

    /// Entries in the table.
    pub fn entries(&self) -> u64 {
        self.mask + 1
    }

    /// Next `(index, value)` pair.
    #[inline]
    pub fn step(&mut self) -> (u64, u64) {
        self.ran = hpcc_next(self.ran);
        let idx = self.ran & self.mask;
        self.fold ^= self.ran;
        self.fold_rot ^= self.ran.rotate_left((idx & 63) as u32);
        self.updates += 1;
        (idx, self.ran)
    }

    /// Initialize `table[i] = i` (the HPCC convention).
    pub fn init(&self, g: &mut GuestCore, table: u64) -> CovirtResult<()> {
        g.with_chunks_mut::<u64>(table, self.entries() as usize, |off, ch| {
            for (i, v) in ch.iter_mut().enumerate() {
                *v = (off + i) as u64;
            }
        })
    }

    /// Scan the table and return how many of the two checksums disagree
    /// with the stream (0 = every update landed exactly once).
    pub fn check(&self, g: &mut GuestCore, table: u64) -> CovirtResult<u64> {
        let (mut fold, mut fold_rot) = (0u64, 0u64);
        g.with_chunks::<u64>(table, self.entries() as usize, |off, ch| {
            for (i, &v) in ch.iter().enumerate() {
                let idx = (off + i) as u64;
                let x = v ^ idx;
                fold ^= x;
                fold_rot ^= x.rotate_left((idx & 63) as u32);
            }
        })?;
        Ok(u64::from(fold != self.fold) + u64::from(fold_rot != self.fold_rot))
    }
}

/// SplitMix64 finalizer: spreads a small seed over all 64 bits.
pub fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Run `n` updates of `stream` over `table`, polling every `poll_every`
/// updates (a power of two). When `log` is recording, sampled updates become
/// `exec.update_hit` / `exec.update_miss` spans (by whether the core's
/// walk counter moved) and polls become `exec.poll` / `exec.poll_harvest`
/// spans (by whether commands were harvested).
pub fn run_updates(
    g: &mut GuestCore,
    table: u64,
    stream: &mut Stream,
    n: u64,
    poll_every: u64,
    log: &mut SpanLog,
) -> CovirtResult<()> {
    debug_assert!(poll_every.is_power_of_two());
    let poll_mask = poll_every - 1;
    if !log.on() {
        for _ in 0..n {
            let (idx, ran) = stream.step();
            let a = table + idx * 8;
            let v = g.read_u64(a)?;
            g.write_u64(a, v ^ ran)?;
            if stream.updates & poll_mask == 0 {
                g.poll()?;
            }
        }
        return Ok(());
    }
    for _ in 0..n {
        let (idx, ran) = stream.step();
        let a = table + idx * 8;
        if stream.updates.is_multiple_of(SAMPLE_EVERY) {
            let walks = g.counters.walks;
            let t0 = log.now();
            let v = g.read_u64(a)?;
            g.write_u64(a, v ^ ran)?;
            let t1 = log.now();
            let name = if g.counters.walks == walks {
                "exec.update_hit"
            } else {
                "exec.update_miss"
            };
            log.push(name, t0, t1, NO_PARENT);
        } else {
            let v = g.read_u64(a)?;
            g.write_u64(a, v ^ ran)?;
        }
        if stream.updates & poll_mask == 0 {
            let harvested = g.counters.cmd_harvested;
            let t0 = log.now();
            g.poll()?;
            let t1 = log.now();
            if g.counters.cmd_harvested != harvested {
                log.push("exec.poll_harvest", t0, t1, NO_PARENT);
            } else if g.counters.polls.is_multiple_of(SAMPLE_EVERY) {
                log.push("exec.poll", t0, t1, NO_PARENT);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_seeded_and_masked() {
        let mut a = Stream::new(1, 10);
        let mut b = Stream::new(1, 10);
        let mut c = Stream::new(2, 10);
        let xa: Vec<_> = (0..100).map(|_| a.step()).collect();
        let xb: Vec<_> = (0..100).map(|_| b.step()).collect();
        let xc: Vec<_> = (0..100).map(|_| c.step()).collect();
        assert_eq!(xa, xb);
        assert_ne!(xa, xc);
        assert!(xa.iter().all(|&(i, _)| i < 1024));
        assert_eq!(a.updates, 100);
    }

    #[test]
    fn folds_match_a_host_table() {
        let mut s = Stream::new(7, 8);
        let mut table: Vec<u64> = (0..256).collect();
        for _ in 0..10_000 {
            let (i, r) = s.step();
            table[i as usize] ^= r;
        }
        let (mut f, mut fr) = (0u64, 0u64);
        for (i, &v) in table.iter().enumerate() {
            let x = v ^ i as u64;
            f ^= x;
            fr ^= x.rotate_left((i as u64 & 63) as u32);
        }
        assert_eq!((f, fr), (s.fold, s.fold_rot));
        // An update the table never saw breaks both folds.
        s.step();
        assert_ne!((f, fr).0, s.fold);
        assert_ne!((f, fr).1, s.fold_rot);
    }
}
