//! A serialized transfer channel: one direction of the PCI-e link.

use uvm_types::rng::{Rng, SmallRng};
use uvm_types::{Bytes, Cycle, Duration};

use crate::fault::TransferFaultConfig;
use crate::model::PcieModel;
use crate::stats::ChannelStats;

/// The outcome of scheduling a transfer on a [`PcieChannel`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScheduledTransfer {
    /// Cycle at which the transfer begins occupying the link.
    pub start: Cycle,
    /// Cycle at which the payload has fully arrived.
    pub finish: Cycle,
    /// Payload size.
    pub size: Bytes,
    /// Injected-fault replays this transfer paid before completing.
    pub retries: u32,
    /// `true` if the replay budget ran out and the channel stopped
    /// retrying (the payload still completes, degraded).
    pub gave_up: bool,
}

impl ScheduledTransfer {
    /// Link occupancy of this transfer.
    pub fn duration(&self) -> Duration {
        self.finish.since(self.start)
    }
}

/// One direction of the PCI-e link (host→device reads or device→host
/// write-backs). Transfers are serialized FIFO: a transfer issued while
/// the link is busy starts when the link frees up.
///
/// # Examples
///
/// ```
/// use uvm_interconnect::{PcieChannel, PcieModel};
/// use uvm_types::{Bytes, Cycle};
///
/// let mut read = PcieChannel::new(PcieModel::pascal_x16());
/// let a = read.schedule(Cycle::ZERO, Bytes::kib(64));
/// let b = read.schedule(Cycle::ZERO, Bytes::kib(4));
/// assert_eq!(b.start, a.finish); // serialized behind the first
/// ```
#[derive(Clone, Debug)]
pub struct PcieChannel {
    model: PcieModel,
    next_free: Cycle,
    stats: ChannelStats,
    faults: Option<FaultState>,
}

/// Injector state: the config plus the channel-local RNG it seeds.
#[derive(Clone, Debug)]
struct FaultState {
    cfg: TransferFaultConfig,
    rng: SmallRng,
}

impl PcieChannel {
    /// Creates an idle channel governed by `model`.
    pub fn new(model: PcieModel) -> Self {
        PcieChannel {
            model,
            next_free: Cycle::ZERO,
            stats: ChannelStats::new(),
            faults: None,
        }
    }

    /// Arms deterministic transfer-fault injection on this channel.
    ///
    /// Each scheduled transfer then draws from an RNG seeded with
    /// `cfg.seed` and may pay replay-and-backoff retries. A zero
    /// `drop_prob` never draws, so the schedule stays identical to an
    /// unarmed channel.
    pub fn with_transfer_faults(mut self, cfg: TransferFaultConfig) -> Self {
        self.faults = Some(FaultState {
            cfg,
            rng: SmallRng::seed_from_u64(cfg.seed),
        });
        self
    }

    /// Schedules a transfer of `size` bytes requested at cycle `now`.
    ///
    /// The transfer starts at `max(now, link free)` and occupies the
    /// link for the model's transfer time. Statistics are updated
    /// immediately. Zero-size requests complete instantly and are not
    /// recorded.
    ///
    /// With fault injection armed, each drop replays the payload after
    /// an exponential backoff: the replay is real link traffic (it is
    /// recorded in the stats), the backoff is idle recovery time. The
    /// replay budget bounds the loop; exhausting it sets `gave_up`.
    pub fn schedule(&mut self, now: Cycle, size: Bytes) -> ScheduledTransfer {
        if size == Bytes::ZERO {
            return ScheduledTransfer {
                start: now,
                finish: now,
                size,
                retries: 0,
                gave_up: false,
            };
        }
        let start = now.max(self.next_free);
        let time = self.model.transfer_time(size);
        let mut finish = start + time;
        self.stats.record(size, time);
        let mut retries = 0u32;
        let mut gave_up = false;
        if let Some(f) = &mut self.faults {
            while f.rng.gen_bool(f.cfg.drop_prob) {
                if retries >= f.cfg.max_retries {
                    gave_up = true;
                    self.stats.giveups += 1;
                    break;
                }
                retries += 1;
                self.stats.retries += 1;
                finish = finish + f.cfg.backoff_for(retries) + time;
                self.stats.record(size, time);
            }
        }
        self.next_free = finish;
        ScheduledTransfer {
            start,
            finish,
            size,
            retries,
            gave_up,
        }
    }

    /// The first cycle at which a new transfer could start.
    pub fn next_free(&self) -> Cycle {
        self.next_free
    }

    /// Accumulated traffic statistics.
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// The cost model in force.
    pub fn model(&self) -> &PcieModel {
        &self.model
    }

    /// Serializes the channel's mutable state for a checkpoint: the
    /// link backlog, statistics, and (if armed) the fault-injector's
    /// RNG position. The cost model and fault *config* are derivable
    /// from run options and are not stored.
    pub fn save_state(&self, w: &mut uvm_types::codec::ByteWriter) {
        w.put_u64(self.next_free.index());
        self.stats.save_state(w);
        match &self.faults {
            None => w.put_bool(false),
            Some(f) => {
                w.put_bool(true);
                for word in f.rng.state() {
                    w.put_u64(word);
                }
            }
        }
    }

    /// Restores a [`save_state`](Self::save_state) image into this
    /// channel. The channel must have been constructed with the same
    /// model and fault arming as the one that saved — a mismatch in
    /// fault arming is rejected as corrupt input.
    pub fn load_state(
        &mut self,
        r: &mut uvm_types::codec::ByteReader<'_>,
    ) -> Result<(), uvm_types::codec::CodecError> {
        self.next_free = Cycle::new(r.get_u64()?);
        self.stats = ChannelStats::load_state(r)?;
        let armed = r.get_bool()?;
        if armed != self.faults.is_some() {
            return Err(uvm_types::codec::CodecError::BadTag {
                what: "channel fault arming",
                value: u64::from(armed),
            });
        }
        if let Some(f) = &mut self.faults {
            let mut s = [0u64; 4];
            for word in &mut s {
                *word = r.get_u64()?;
            }
            f.rng = SmallRng::from_state(s);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn channel() -> PcieChannel {
        PcieChannel::new(PcieModel::pascal_x16())
    }

    #[test]
    fn serializes_back_to_back_transfers() {
        let mut ch = channel();
        let a = ch.schedule(Cycle::ZERO, Bytes::kib(4));
        assert_eq!(a.start, Cycle::ZERO);
        let b = ch.schedule(Cycle::ZERO, Bytes::kib(4));
        assert_eq!(b.start, a.finish);
        assert_eq!(ch.next_free(), b.finish);
    }

    #[test]
    fn idle_gap_respected() {
        let mut ch = channel();
        let a = ch.schedule(Cycle::ZERO, Bytes::kib(4));
        // A request long after the link freed starts immediately.
        let late = a.finish + Duration::from_cycles(1_000_000);
        let b = ch.schedule(late, Bytes::kib(4));
        assert_eq!(b.start, late);
        assert_eq!(ch.next_free(), b.finish);
    }

    #[test]
    fn zero_size_is_free_and_unrecorded() {
        let mut ch = channel();
        let t = ch.schedule(Cycle::new(5), Bytes::ZERO);
        assert_eq!(t.start, t.finish);
        assert_eq!(ch.stats().transfers(), 0);
        assert_eq!(ch.next_free(), Cycle::ZERO);
    }

    #[test]
    fn stats_accumulate() {
        let mut ch = channel();
        ch.schedule(Cycle::ZERO, Bytes::kib(4));
        ch.schedule(Cycle::ZERO, Bytes::kib(60));
        ch.schedule(Cycle::ZERO, Bytes::kib(1024));
        let s = ch.stats();
        assert_eq!(s.bytes, Bytes::kib(4 + 60 + 1024));
        assert_eq!(s.transfers(), 3);
        assert_eq!(s.histogram.count_4kib(), 1);
        // Busy time equals the sum of individual transfer durations.
        let m = PcieModel::pascal_x16();
        let expect = m.transfer_time(Bytes::kib(4))
            + m.transfer_time(Bytes::kib(60))
            + m.transfer_time(Bytes::kib(1024));
        assert_eq!(s.busy, expect);
    }

    #[test]
    fn average_bandwidth_reflects_transfer_mix() {
        // A channel that only ever moves 4 KB pages achieves ~3.22 GB/s;
        // a channel moving 1 MB chunks achieves ~11.2 GB/s.
        let mut small = channel();
        let mut big = channel();
        for _ in 0..64 {
            small.schedule(Cycle::ZERO, Bytes::kib(4));
        }
        big.schedule(Cycle::ZERO, Bytes::kib(1024));
        let bw_small = small.stats().average_bandwidth_gbps();
        let bw_big = big.stats().average_bandwidth_gbps();
        assert!((bw_small - 3.2219).abs() < 0.01, "{bw_small}");
        assert!((bw_big - 11.223).abs() < 0.01, "{bw_big}");
    }

    #[test]
    fn scheduled_transfer_duration() {
        let mut ch = channel();
        let t = ch.schedule(Cycle::ZERO, Bytes::kib(16));
        assert_eq!(
            t.duration(),
            PcieModel::pascal_x16().transfer_time(Bytes::kib(16))
        );
        assert_eq!(t.size, Bytes::kib(16));
        assert_eq!(t.retries, 0);
        assert!(!t.gave_up);
    }

    fn fault_cfg(drop_prob: f64) -> TransferFaultConfig {
        TransferFaultConfig {
            seed: 0xFA_17,
            drop_prob,
            max_retries: 3,
            backoff: Duration::from_cycles(1_000),
        }
    }

    #[test]
    fn zero_drop_prob_matches_unarmed_channel() {
        // A zero probability never draws from the RNG, so the armed
        // channel produces a byte-identical schedule.
        let mut plain = channel();
        let mut armed = channel().with_transfer_faults(fault_cfg(0.0));
        for i in 0..32 {
            let now = Cycle::new(i * 10);
            let a = plain.schedule(now, Bytes::kib(4 + (i % 3) * 60));
            let b = armed.schedule(now, Bytes::kib(4 + (i % 3) * 60));
            assert_eq!(a, b);
        }
        assert_eq!(plain.stats().retries, 0);
        assert_eq!(armed.stats().retries, 0);
        assert_eq!(armed.stats().giveups, 0);
    }

    #[test]
    fn certain_drop_exhausts_retry_budget_and_gives_up() {
        let mut ch = channel().with_transfer_faults(fault_cfg(1.0));
        let t = ch.schedule(Cycle::ZERO, Bytes::kib(4));
        assert_eq!(t.retries, 3);
        assert!(t.gave_up);
        let time = PcieModel::pascal_x16().transfer_time(Bytes::kib(4));
        // Original attempt + 3 replays + exponentially growing backoff.
        let mut expect = Cycle::ZERO + time;
        for retry in 1..=3u32 {
            expect = expect + Duration::from_cycles(1_000 << (retry - 1)) + time;
        }
        assert_eq!(t.finish, expect);
        assert_eq!(ch.stats().retries, 3);
        assert_eq!(ch.stats().giveups, 1);
        // Every replay is recorded as real link traffic.
        assert_eq!(ch.stats().transfers(), 4);
        assert_eq!(ch.stats().bytes, Bytes::kib(16));
    }

    #[test]
    fn faulty_schedule_is_deterministic_per_seed() {
        let run = || {
            let mut ch = channel().with_transfer_faults(fault_cfg(0.5));
            let mut out = Vec::new();
            for i in 0..64 {
                out.push(ch.schedule(Cycle::new(i), Bytes::kib(4)));
            }
            (out, ch.stats().retries, ch.stats().giveups)
        };
        let (a, ra, ga) = run();
        let (b, rb, gb) = run();
        assert_eq!(a, b);
        assert_eq!((ra, ga), (rb, gb));
        assert!(ra > 0, "p=0.5 over 64 transfers should retry at least once");
    }
}
