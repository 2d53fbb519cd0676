//! Measurement plumbing: everything the paper's figures are built from.
//!
//! The collector records per-link utilization in fixed-width time buckets
//! (Fig. 2/4/7 style), periodic queue-occupancy samples, drop/trim/mark
//! counters by cause, and per-flow completion records (FCT distributions,
//! goodput, drops). Tracking is opt-in per link so that 8192-node runs can
//! restrict bookkeeping to the switch under study.

use crate::hash::FxHashMap;
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

/// An ordered, owned snapshot of every tracked link's series.
///
/// This is the export surface for out-of-process sinks (the sweep crate's
/// `--series` JSONL stream): links appear in tracking order — the same
/// deterministic order sampling walks them — and the data is owned, so a
/// sink can outlive the engine that recorded it.
#[derive(Debug, Clone, Default)]
pub struct SeriesExport {
    /// Utilization bucket width the series were recorded at.
    pub bucket_width: Time,
    /// Per-link series, in tracking order.
    pub links: Vec<(LinkId, LinkSeries)>,
}

impl SeriesExport {
    /// Number of exported links.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Whether no links were tracked.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }
}

/// The statistics collector owned by the engine.
#[derive(Debug)]
pub struct Stats {
    /// Width of a utilization bucket.
    pub bucket_width: Time,
    /// Per-tracked-link series.
    tracked: FxHashMap<LinkId, LinkSeries>,
    /// Tracked links in insertion order — the cached iteration list, so
    /// per-tick sampling walks links by index without allocating (and in
    /// a deterministic order, unlike the map). Maintained by
    /// [`Stats::track_link`].
    tracked_order: Vec<LinkId>,
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
            tracked: FxHashMap::default(),
            tracked_order: Vec::new(),
            flows: Vec::new(),
            counters: Counters::default(),
            expected_flows: 0,
        }
    }

    /// Enables utilization/queue tracking for `link`.
    pub fn track_link(&mut self, link: LinkId) {
        if !self.tracked.contains_key(&link) {
            self.tracked_order.push(link);
            self.tracked.insert(link, LinkSeries::default());
        }
    }

    /// Returns the tracked series for `link`, if tracking was enabled.
    pub fn link_series(&self, link: LinkId) -> Option<&LinkSeries> {
        self.tracked.get(&link)
    }

    /// Number of tracked links (pairs with [`Stats::tracked_id`] for
    /// allocation-free iteration).
    pub fn tracked_count(&self) -> usize {
        self.tracked_order.len()
    }

    /// The `i`-th tracked link, in tracking order.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.tracked_count()`.
    pub fn tracked_id(&self, i: usize) -> LinkId {
        self.tracked_order[i]
    }

    /// Snapshots every tracked link's series, in tracking order.
    pub fn export_series(&self) -> SeriesExport {
        SeriesExport {
            bucket_width: self.bucket_width,
            links: self
                .tracked_order
                .iter()
                .map(|l| (*l, self.tracked[l].clone()))
                .collect(),
        }
    }

    /// Records `bytes` transmitted on `link` at `now`.
    pub fn on_transmit(&mut self, link: LinkId, now: Time, bytes: u64, is_data: bool) {
        if is_data {
            self.counters.data_tx += 1;
        } else {
            self.counters.ctrl_tx += 1;
        }
        // Macro runs track nothing: skip the map probe on every transmit.
        if self.tracked_order.is_empty() {
            return;
        }
        if let Some(series) = self.tracked.get_mut(&link) {
            let bucket = (now.as_ps() / self.bucket_width.as_ps().max(1)) as usize;
            if series.bucket_bytes.len() <= bucket {
                series.bucket_bytes.resize(bucket + 1, 0);
            }
            series.bucket_bytes[bucket] += bytes;
        }
    }

    /// Records a queue occupancy sample for `link`.
    pub fn on_queue_sample(&mut self, link: LinkId, at: Time, bytes: u64) {
        if let Some(series) = self.tracked.get_mut(&link) {
            series.queue_samples.push(QueueSample { at, bytes });
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

    /// Maximum flow completion time (the paper's workload runtime metric).
    pub fn max_fct(&self) -> Time {
        self.flows
            .iter()
            .map(FlowRecord::fct)
            .max()
            .unwrap_or(Time::ZERO)
    }

    /// Latest completion instant across flows.
    pub fn makespan(&self) -> Time {
        self.flows.iter().map(|f| f.end).max().unwrap_or(Time::ZERO)
    }

    /// Mean flow completion time.
    pub fn avg_fct(&self) -> Time {
        if self.flows.is_empty() {
            return Time::ZERO;
        }
        let sum: u128 = self.flows.iter().map(|f| f.fct().as_ps() as u128).sum();
        Time((sum / self.flows.len() as u128) as u64)
    }

    /// `q`-quantile of the FCT distribution (0 ≤ q ≤ 1).
    pub fn fct_quantile(&self, q: f64) -> Time {
        if self.flows.is_empty() {
            return Time::ZERO;
        }
        let mut fcts: Vec<Time> = self.flows.iter().map(FlowRecord::fct).collect();
        fcts.sort_unstable();
        let idx = ((fcts.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        fcts[idx]
    }

    /// Mean per-flow goodput in Gbps.
    pub fn avg_goodput_gbps(&self) -> f64 {
        if self.flows.is_empty() {
            return 0.0;
        }
        self.flows.iter().map(FlowRecord::goodput_bps).sum::<f64>() / self.flows.len() as f64 / 1e9
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
        assert_eq!(s.max_fct(), Time::from_us(300));
        assert_eq!(s.avg_fct(), Time::from_us(200));
        assert_eq!(s.fct_quantile(0.0), Time::from_us(100));
        assert_eq!(s.fct_quantile(1.0), Time::from_us(300));
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
    fn export_series_snapshots_in_tracking_order() {
        let mut s = Stats::new(Time::from_us(20));
        // Track in non-sorted id order: the export must preserve it.
        for id in [5u32, 2, 9] {
            s.track_link(LinkId(id));
        }
        s.on_transmit(LinkId(2), Time::from_us(5), 1000, true);
        s.on_queue_sample(LinkId(9), Time::from_us(7), 333);
        let export = s.export_series();
        assert_eq!(export.len(), 3);
        assert!(!export.is_empty());
        assert_eq!(export.bucket_width, Time::from_us(20));
        let ids: Vec<u32> = export.links.iter().map(|(l, _)| l.0).collect();
        assert_eq!(ids, vec![5, 2, 9]);
        assert_eq!(export.links[1].1.bucket_bytes, vec![1000]);
        assert_eq!(export.links[2].1.queue_samples[0].bytes, 333);
        // The export is a snapshot: mutating the collector afterwards does
        // not change it.
        s.on_transmit(LinkId(2), Time::from_us(5), 1000, true);
        assert_eq!(export.links[1].1.bucket_bytes, vec![1000]);
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
