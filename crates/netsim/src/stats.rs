//! Measurement plumbing: everything the paper's figures are built from.
//!
//! The collector records per-link utilization in fixed-width time buckets
//! (Fig. 2/4/7 style), periodic queue-occupancy samples, drop/trim/mark
//! counters by cause, and per-flow completion records (FCT distributions,
//! goodput, drops). Tracking is opt-in per link so that 8192-node runs can
//! restrict bookkeeping to the switch under study.

use crate::ids::{FlowId, HostId, LinkId};
use crate::link::DropReason;
use crate::time::Time;

/// A completed (or failed) flow record.
#[derive(Debug, Clone)]
pub struct FlowRecord {
    /// Flow identifier assigned by the workload.
    pub flow: FlowId,
    /// Source host.
    pub src: HostId,
    /// Destination host.
    pub dst: HostId,
    /// Message payload bytes.
    pub bytes: u64,
    /// Time the first packet was handed to the NIC.
    pub start: Time,
    /// Time the last acknowledgment arrived back at the sender.
    pub end: Time,
    /// Number of retransmitted packets.
    pub retransmissions: u64,
}

impl FlowRecord {
    /// Flow completion time.
    pub fn fct(&self) -> Time {
        self.end.saturating_sub(self.start)
    }

    /// Application goodput in bits per second.
    pub fn goodput_bps(&self) -> f64 {
        let secs = self.fct().as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.bytes as f64 * 8.0 / secs
        }
    }
}

/// A `(time, queued_bytes)` queue occupancy sample.
#[derive(Debug, Clone, Copy)]
pub struct QueueSample {
    /// Sample instant.
    pub at: Time,
    /// Queue occupancy in bytes.
    pub bytes: u64,
}

/// Per-link tracked series.
#[derive(Debug, Default, Clone)]
pub struct LinkSeries {
    /// Bytes transmitted per utilization bucket.
    pub bucket_bytes: Vec<u64>,
    /// Periodic queue occupancy samples.
    pub queue_samples: Vec<QueueSample>,
}

/// Global drop/mark counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    /// Tail drops due to full queues.
    pub drops_queue_full: u64,
    /// Packets blackholed by down links.
    pub drops_link_down: u64,
    /// Packets lost to the bit-error model.
    pub drops_bit_error: u64,
    /// Packets silently lost on gray-failing links.
    pub drops_gray: u64,
    /// Packets discarded as corrupted payloads.
    pub drops_corrupt: u64,
    /// Payloads trimmed by switches.
    pub trims: u64,
    /// Data packets ECN-marked on admission.
    pub ecn_marks: u64,
    /// Data packets transmitted (serialized onto a wire).
    pub data_tx: u64,
    /// Control packets transmitted.
    pub ctrl_tx: u64,
    /// Retransmissions performed by senders.
    pub retransmissions: u64,
    /// Timeout events observed by senders.
    pub timeouts: u64,
}

impl Counters {
    /// All packet losses, independent of cause.
    pub fn total_drops(&self) -> u64 {
        self.drops_queue_full
            + self.drops_link_down
            + self.drops_bit_error
            + self.drops_gray
            + self.drops_corrupt
    }
}

/// The statistics collector owned by the engine.
#[derive(Debug)]
pub struct Stats {
    /// Width of a utilization bucket.
    pub bucket_width: Time,
    /// Per-tracked-link series, in tracking order: the order sampling
    /// walks them and the `--series` document lists them. A vantage
    /// tracks one ToR's uplinks, few enough that a scan finds a link.
    pub tracked: Vec<(LinkId, LinkSeries)>,
    /// Completed flow records, in completion order.
    pub flows: Vec<FlowRecord>,
    /// Global counters.
    pub counters: Counters,
    /// Number of flows the experiment expects (for completion checks).
    pub expected_flows: usize,
}

impl Stats {
    /// Creates a collector with the given utilization bucket width.
    pub fn new(bucket_width: Time) -> Stats {
        Stats {
            bucket_width,
            tracked: Vec::new(),
            flows: Vec::new(),
            counters: Counters::default(),
            expected_flows: 0,
        }
    }

    /// Enables utilization/queue tracking for `link`.
    pub fn track_link(&mut self, link: LinkId) {
        if self.link_series(link).is_none() {
            self.tracked.push((link, LinkSeries::default()));
        }
    }

    /// Returns the tracked series for `link`, if tracking was enabled.
    pub fn link_series(&self, link: LinkId) -> Option<&LinkSeries> {
        self.tracked
            .iter()
            .find(|(l, _)| *l == link)
            .map(|(_, s)| s)
    }

    /// Records `bytes` transmitted on `link` at `now`.
    pub fn on_transmit(&mut self, link: LinkId, now: Time, bytes: u64, is_data: bool) {
        if is_data {
            self.counters.data_tx += 1;
        } else {
            self.counters.ctrl_tx += 1;
        }
        if let Some((_, series)) = self.tracked.iter_mut().find(|(l, _)| *l == link) {
            let bucket = (now.as_ps() / self.bucket_width.as_ps().max(1)) as usize;
            if series.bucket_bytes.len() <= bucket {
                series.bucket_bytes.resize(bucket + 1, 0);
            }
            series.bucket_bytes[bucket] += bytes;
        }
    }

    /// Records a drop.
    pub fn on_drop(&mut self, reason: DropReason) {
        match reason {
            DropReason::QueueFull => self.counters.drops_queue_full += 1,
            DropReason::LinkDown => self.counters.drops_link_down += 1,
            DropReason::BitError => self.counters.drops_bit_error += 1,
            DropReason::Gray => self.counters.drops_gray += 1,
            DropReason::Corrupt => self.counters.drops_corrupt += 1,
        }
    }

    /// Records a trim.
    pub fn on_trim(&mut self) {
        self.counters.trims += 1;
    }

    /// Records an ECN mark.
    pub fn on_ecn_mark(&mut self) {
        self.counters.ecn_marks += 1;
    }

    /// Records a completed flow.
    pub fn on_flow_complete(&mut self, record: FlowRecord) {
        self.flows.push(record);
    }

    /// True once every expected flow has completed.
    pub fn all_flows_done(&self) -> bool {
        self.expected_flows > 0 && self.flows.len() >= self.expected_flows
    }
}

/// Utilization of one bucket in Gbps given the bucket width.
pub fn bucket_gbps(bytes: u64, bucket_width: Time) -> f64 {
    let secs = bucket_width.as_secs_f64();
    if secs <= 0.0 {
        0.0
    } else {
        bytes as f64 * 8.0 / secs / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(flow: u32, start_us: u64, end_us: u64) -> FlowRecord {
        FlowRecord {
            flow: FlowId(flow),
            src: HostId(0),
            dst: HostId(1),
            bytes: 1_000_000,
            start: Time::from_us(start_us),
            end: Time::from_us(end_us),
            retransmissions: 0,
        }
    }

    #[test]
    fn fct_and_goodput() {
        let r = record(0, 10, 110);
        assert_eq!(r.fct(), Time::from_us(100));
        // 1 MB in 100 us = 80 Gbps.
        assert!((r.goodput_bps() / 1e9 - 80.0).abs() < 1e-6);
    }

    #[test]
    fn aggregates() {
        let mut s = Stats::new(Time::from_us(20));
        s.expected_flows = 3;
        s.on_flow_complete(record(0, 0, 100));
        s.on_flow_complete(record(1, 0, 200));
        assert!(!s.all_flows_done());
        s.on_flow_complete(record(2, 0, 300));
        assert!(s.all_flows_done());
    }

    #[test]
    fn utilization_buckets_accumulate() {
        let mut s = Stats::new(Time::from_us(20));
        let l = LinkId(0);
        s.track_link(l);
        s.on_transmit(l, Time::from_us(5), 1000, true);
        s.on_transmit(l, Time::from_us(15), 500, true);
        s.on_transmit(l, Time::from_us(25), 100, true);
        let series = s.link_series(l).unwrap();
        assert_eq!(series.bucket_bytes, vec![1500, 100]);
        assert_eq!(s.counters.data_tx, 3);
    }

    #[test]
    fn untracked_links_cost_nothing() {
        let mut s = Stats::new(Time::from_us(20));
        s.on_transmit(LinkId(3), Time::from_us(5), 1000, false);
        assert!(s.link_series(LinkId(3)).is_none());
        assert_eq!(s.counters.ctrl_tx, 1);
    }

    #[test]
    fn series_are_kept_in_tracking_order() {
        let mut s = Stats::new(Time::from_us(20));
        // Track in non-sorted id order, one link twice: the list must
        // keep the first order and each link once.
        for id in [5u32, 2, 9, 2] {
            s.track_link(LinkId(id));
        }
        s.on_transmit(LinkId(2), Time::from_us(5), 1000, true);
        let sample = QueueSample {
            at: Time::from_us(7),
            bytes: 333,
        };
        s.tracked[2].1.queue_samples.push(sample);
        let ids: Vec<u32> = s.tracked.iter().map(|(l, _)| l.0).collect();
        assert_eq!(ids, vec![5, 2, 9]);
        assert_eq!(s.tracked[1].1.bucket_bytes, vec![1000]);
        assert_eq!(s.tracked[2].1.queue_samples[0].bytes, 333);
    }

    #[test]
    fn drop_counters_split_by_cause() {
        let mut s = Stats::new(Time::from_us(20));
        s.on_drop(DropReason::QueueFull);
        s.on_drop(DropReason::LinkDown);
        s.on_drop(DropReason::LinkDown);
        s.on_drop(DropReason::BitError);
        s.on_drop(DropReason::Gray);
        s.on_drop(DropReason::Gray);
        s.on_drop(DropReason::Corrupt);
        assert_eq!(s.counters.drops_queue_full, 1);
        assert_eq!(s.counters.drops_link_down, 2);
        assert_eq!(s.counters.drops_bit_error, 1);
        assert_eq!(s.counters.drops_gray, 2);
        assert_eq!(s.counters.drops_corrupt, 1);
        assert_eq!(s.counters.total_drops(), 7);
    }

    #[test]
    fn bucket_gbps_conversion() {
        // 1000 bytes in 20 us = 0.4 Gbps.
        let g = bucket_gbps(1000, Time::from_us(20));
        assert!((g - 0.4).abs() < 1e-9);
    }
}
