//! The REPS algorithm (paper §3, Algorithms 1 and 2).
//!
//! REPS keeps a small circular buffer of *recycled entropies*: entropy
//! values whose ACKs came back without an ECN mark, i.e. evidence of an
//! uncongested, healthy path. Sending prefers the oldest valid cached
//! entropy and falls back to uniform exploration when the cache is empty.
//! On failure suspicion (a retransmission timeout) REPS enters *freezing
//! mode*: it stops exploring and replays buffer contents — even invalidated
//! ones — because recently-acknowledged entropies are the only paths known
//! to still work (§3.2).

use netsim::rng::Rng64;
use netsim::time::Time;

use crate::lb::{AckFeedback, EvDecision, LoadBalancer};

/// Tuning knobs for [`Reps`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepsConfig {
    /// Circular buffer depth, at most [`MAX_BUFFER`]. The paper uses 8
    /// (Theorem 5.1 motivates `O(log n)` for an `n`-port switch).
    pub buffer_size: usize,
    /// Entropy value space size. The paper's default is the full 16-bit
    /// source-port space; §4.5.2 shows REPS works with as few as 32.
    pub evs_size: u32,
    /// Enables freezing mode (Appendix C.4 ablates this off).
    pub freezing_enabled: bool,
    /// How long freezing mode persists before the sender re-probes the
    /// network with random entropies (§3.2 "exit after a fixed amount of
    /// time").
    pub freezing_timeout: Time,
    /// Force-enter freezing mode at this instant and stay frozen (the
    /// Appendix A / Fig. 19 experiment: freezing without any failure).
    pub force_freezing_at: Option<Time>,
}

impl Default for RepsConfig {
    fn default() -> RepsConfig {
        RepsConfig {
            buffer_size: 8,
            evs_size: 1 << 16,
            freezing_enabled: true,
            freezing_timeout: Time::from_us(100),
            force_freezing_at: None,
        }
    }
}

impl RepsConfig {
    /// A config with a custom EVS size (for the §4.5.2 sweeps).
    pub fn with_evs_size(mut self, evs: u32) -> RepsConfig {
        self.evs_size = evs;
        self
    }

    /// A config with freezing disabled (Appendix C.4 ablation).
    pub fn without_freezing(mut self) -> RepsConfig {
        self.freezing_enabled = false;
        self
    }
}

/// The deepest circular buffer [`Reps`] keeps: the whole 16-bit entropy
/// space (the LB-spec grammar's `buf` bound), so a slot index fits a `u16`.
pub const MAX_BUFFER: usize = 1 << 16;

/// Slots the buffer keeps in place: the paper's depth, so the paper's
/// configuration allocates nothing.
const INLINE_SLOTS: usize = 8;

/// The `cachedEV` of every slot written so far, in slot order: in place up
/// to [`INLINE_SLOTS`], boxed beyond (one word, so the rare deep buffer
/// costs the common case nothing).
#[derive(Debug, Clone)]
pub(crate) enum Ring {
    /// `slots[..len]` are written.
    Inline { slots: [u16; INLINE_SLOTS], len: u8 },
    /// A deeper buffer, spilled when its ninth slot was written, with room
    /// for every slot of its depth. Boxed: one word where a `Vec` is three
    /// would grow every connection's state for the rare deep buffer.
    #[allow(clippy::box_collection)]
    Heap(Box<Vec<u16>>),
}

impl Ring {
    fn as_slice(&self) -> &[u16] {
        match self {
            Ring::Inline { slots, len } => &slots[..usize::from(*len)],
            Ring::Heap(v) => v,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [u16] {
        match self {
            Ring::Inline { slots, len } => &mut slots[..usize::from(*len)],
            Ring::Heap(v) => v,
        }
    }

    /// Writes the first never-written slot of a buffer of `depth` slots.
    /// Out of line: it runs only while the buffer fills, and its spill path
    /// would weigh on the per-ACK overwrite.
    #[cold]
    #[inline(never)]
    fn push(&mut self, ev: u16, depth: usize) {
        match self {
            Ring::Inline { slots, len } if usize::from(*len) < INLINE_SLOTS => {
                slots[usize::from(*len)] = ev;
                *len += 1;
            }
            Ring::Inline { slots, .. } => {
                let mut spilled = Vec::with_capacity(depth);
                spilled.extend_from_slice(slots);
                spilled.push(ev);
                *self = Ring::Heap(Box::new(spilled));
            }
            Ring::Heap(v) => v.push(ev),
        }
    }
}

/// The REPS decision counters behind `--diagnostics`. A simulated cell
/// keeps them per host, not per connection: they are only ever summed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepsCounters {
    /// Fresh (exploratory) entropy draws.
    pub fresh_draws: u64,
    /// Recycled cache hits.
    pub recycled_draws: u64,
    /// Frozen-mode replays of stale cache entries.
    pub frozen_replays: u64,
    /// Times freezing mode was entered.
    pub freezes: u64,
    /// Times freezing mode was left.
    pub thaws: u64,
}

/// One connection's REPS sender state: Table 1's fields and the
/// algorithm's bookkeeping, nothing else. The configuration is the cell's
/// [`RepsConfig`] and the decision counters are a host's
/// [`RepsCounters`]; both are passed to every call.
///
/// Two of Table 1's per-slot facts are derived instead of stored:
///
/// * **`isValid`** — Algorithm 1 caches at `head` and Algorithm 2 consumes
///   the oldest valid entry, so the valid slots are always the
///   `num_valid` slots just behind `head`.
/// * **whether a slot was ever written** (the pre-warm-up guard of frozen
///   replay) — every write goes to `head`, and `head` never passes the
///   first unwritten slot, so the written slots are a prefix. `ring`
///   stores exactly that prefix: its length is the written count.
///
/// The size at the paper's depth is pinned, field by field against
/// Table 1, in `footprint`'s tests.
#[derive(Debug, Clone)]
pub struct Reps {
    /// `cachedEV` of every slot written so far.
    ring: Ring,
    /// Instant at which freezing mode may be exited.
    exit_freezing: Time,
    /// Count of valid (cached, unused) entropies.
    num_valid: u32,
    /// Packets left in the post-freezing exploration phase (Algorithm 2).
    explore_counter: u32,
    /// Last congestion window observed (packets), seeding the exploration
    /// counter when freezing expires on the send path.
    last_cwnd_packets: u32,
    /// Next write position (Algorithm 1's `head`).
    head: u16,
    /// True while in freezing mode.
    freezing: bool,
    /// How the most recent [`Reps::next_ev`] call chose.
    last_decision: EvDecision,
}

impl Reps {
    /// A connection's initial state under `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the buffer size is zero or above [`MAX_BUFFER`], or the
    /// EVS is empty.
    pub fn start(cfg: &RepsConfig) -> Reps {
        assert!(cfg.buffer_size > 0, "REPS buffer must be non-empty");
        assert!(
            cfg.buffer_size <= MAX_BUFFER,
            "REPS buffer exceeds {MAX_BUFFER} slots"
        );
        assert!(cfg.evs_size > 0, "EVS must be non-empty");
        Reps {
            ring: Ring::Inline {
                slots: [0; INLINE_SLOTS],
                len: 0,
            },
            exit_freezing: Time::ZERO,
            num_valid: 0,
            explore_counter: 0,
            last_cwnd_packets: cfg.buffer_size as u32,
            head: 0,
            freezing: false,
            last_decision: EvDecision::Fresh,
        }
    }

    /// A self-contained REPS balancer with the given configuration.
    ///
    /// # Panics
    ///
    /// As [`Reps::start`].
    #[allow(clippy::new_ret_no_self)] // the state plus its own parameter block
    pub fn new(cfg: RepsConfig) -> OwnedReps {
        OwnedReps {
            state: Reps::start(&cfg),
            cfg,
            counters: RepsCounters::default(),
        }
    }

    /// A self-contained REPS balancer with the paper's defaults.
    pub fn default_paper() -> OwnedReps {
        Reps::new(RepsConfig::default())
    }

    /// True while the sender is in freezing mode (for instrumentation).
    pub fn is_freezing(&self) -> bool {
        self.freezing
    }

    /// Number of valid cached entropies (for instrumentation).
    pub fn valid_entropies(&self) -> usize {
        self.num_valid as usize
    }

    /// How the most recent [`Reps::next_ev`] call arrived at its answer.
    pub fn last_decision(&self) -> EvDecision {
        self.last_decision
    }

    /// The slot after `slot` in a buffer of `depth` slots, wrapping
    /// (compared, not divided: this is on every ACK's path).
    fn next_slot(slot: usize, depth: usize) -> u16 {
        if slot + 1 == depth {
            0
        } else {
            slot as u16 + 1
        }
    }

    /// Draws a uniformly random entropy from the EVS, recording the
    /// decision as exploratory.
    fn random_ev(&mut self, cfg: &RepsConfig, n: &mut RepsCounters, rng: &mut Rng64) -> u16 {
        self.last_decision = EvDecision::Fresh;
        n.fresh_draws += 1;
        rng.gen_range(cfg.evs_size as u64) as u16
    }

    /// Algorithm 2's `getNextEV`.
    fn get_next_ev(&mut self, cfg: &RepsConfig, n: &mut RepsCounters) -> u16 {
        let ring = self.ring.as_slice();
        if self.num_valid > 0 {
            let slots = cfg.buffer_size as u32;
            // Algorithm 2 line 4: the oldest valid element sits at
            // `head - numberOfValidEVs` (mod buffer size); when the whole
            // buffer is valid this is `head` itself.
            let back = u32::from(self.head) + slots - self.num_valid;
            let offset = if back >= slots { back - slots } else { back };
            self.num_valid -= 1;
            self.last_decision = EvDecision::Recycled;
            n.recycled_draws += 1;
            ring[offset as usize]
        } else {
            // Freezing mode: replay stale entries round-robin. Slots from
            // the ring's end on were never written (possible only if
            // freezing hits before the first BDP of ACKs returned): replay
            // skips them by wrapping to slot 0, which the caller's
            // non-empty check guarantees is written.
            self.last_decision = EvDecision::FrozenReplay;
            n.frozen_replays += 1;
            let slot = if usize::from(self.head) < ring.len() {
                usize::from(self.head)
            } else {
                0
            };
            let ev = ring[slot];
            self.head = Reps::next_slot(slot, cfg.buffer_size);
            ev
        }
    }

    /// Algorithm 2, `onSend`: the entropy for the next outgoing data
    /// packet.
    pub fn next_ev(
        &mut self,
        cfg: &RepsConfig,
        n: &mut RepsCounters,
        now: Time,
        rng: &mut Rng64,
    ) -> u16 {
        if let Some(at) = cfg.force_freezing_at {
            if now >= at && !self.freezing {
                // Fig. 19: freeze without a failure and never thaw.
                self.freezing = true;
                n.freezes += 1;
                self.exit_freezing = Time::MAX;
                self.explore_counter = 0;
            }
        }
        if self.freezing && now > self.exit_freezing {
            // §3.2: without probing, freezing expires after a fixed time —
            // checked on the send path too, so a sender whose cached
            // entropies all stopped returning ACKs (every one pointed at the
            // failed path) still thaws and re-explores instead of replaying
            // dead paths forever.
            self.freezing = false;
            n.thaws += 1;
            self.explore_counter = self.last_cwnd_packets.max(1);
        }
        if self.explore_counter > 0 {
            self.explore_counter -= 1;
            if self.explore_counter.is_multiple_of(cfg.buffer_size as u32) {
                return self.random_ev(cfg, n, rng);
            }
            // Otherwise fall through to the regular selection logic: reuse
            // cached entropies when available, explore when not.
        }
        if self.ring.as_slice().is_empty() || (self.num_valid == 0 && !self.freezing) {
            return self.random_ev(cfg, n, rng);
        }
        self.get_next_ev(cfg, n)
    }

    /// Algorithm 1, `onAck`.
    #[inline]
    pub fn on_ack(&mut self, cfg: &RepsConfig, n: &mut RepsCounters, fb: &AckFeedback) {
        if fb.ecn {
            // Congested path: discard the entropy (Algorithm 1, line 6).
            return;
        }
        let depth = cfg.buffer_size;
        // The slot at `head` is valid only when every slot is.
        if self.num_valid < depth as u32 {
            self.num_valid += 1;
        }
        let head = usize::from(self.head);
        let written = self.ring.as_slice().len();
        debug_assert!(head <= written, "head passed an unwritten slot");
        if head == written {
            self.ring.push(fb.ev, depth);
        } else {
            self.ring.as_mut_slice()[head] = fb.ev;
        }
        self.head = Reps::next_slot(head, depth);
        self.last_cwnd_packets = fb.cwnd_packets.max(1);
        if self.freezing && fb.now > self.exit_freezing {
            self.freezing = false;
            n.thaws += 1;
            // Explore for a window's worth of packets after thawing so REPS
            // cannot get stuck on a stale path set (§3.2).
            self.explore_counter = fb.cwnd_packets.max(1);
        }
    }

    /// Algorithm 1, `onFailureDetection`.
    pub fn on_timeout(&mut self, cfg: &RepsConfig, n: &mut RepsCounters, now: Time) {
        if !cfg.freezing_enabled {
            return;
        }
        if !self.freezing && self.explore_counter == 0 {
            self.freezing = true;
            n.freezes += 1;
            self.exit_freezing = now + cfg.freezing_timeout;
        }
    }

    /// The EV-lifecycle counters behind the paper's mechanism claims, `n`,
    /// and this connection's valid cache entries. Sums over connections
    /// count each `n` once: pass a host's counters with one of its
    /// connections and [`RepsCounters::default`] with the rest. The
    /// recycle rate is `reps_recycled_draws / (fresh + recycled + frozen)`.
    pub fn diagnostics(&self, n: &RepsCounters, out: &mut Vec<(&'static str, u64)>) {
        out.push(("reps_fresh_draws", n.fresh_draws));
        out.push(("reps_recycled_draws", n.recycled_draws));
        out.push(("reps_frozen_replays", n.frozen_replays));
        out.push(("reps_freezes", n.freezes));
        out.push(("reps_thaws", n.thaws));
        out.push(("reps_valid_entropies", u64::from(self.num_valid)));
    }
}

/// One REPS connection that owns its parameter block and counters: a
/// complete [`LoadBalancer`] for code that drives a balancer on its own
/// (tests, benches, the benchmark's `layerprobe`). The connections of a
/// simulated cell share one [`RepsConfig`] and keep counters per host
/// instead.
#[derive(Debug, Clone)]
pub struct OwnedReps {
    /// The connection state.
    pub state: Reps,
    /// Its parameter block.
    pub cfg: RepsConfig,
    /// Its decision counters.
    pub counters: RepsCounters,
}

/// The connection state's instrumentation ([`Reps::is_freezing`],
/// [`Reps::valid_entropies`]).
impl std::ops::Deref for OwnedReps {
    type Target = Reps;
    fn deref(&self) -> &Reps {
        &self.state
    }
}

impl LoadBalancer for OwnedReps {
    fn next_ev(&mut self, now: Time, rng: &mut Rng64) -> u16 {
        self.state.next_ev(&self.cfg, &mut self.counters, now, rng)
    }

    fn on_ack(&mut self, fb: &AckFeedback, _rng: &mut Rng64) {
        self.state.on_ack(&self.cfg, &mut self.counters, fb);
    }

    fn on_timeout(&mut self, now: Time) {
        self.state.on_timeout(&self.cfg, &mut self.counters, now);
    }

    fn name(&self) -> &'static str {
        "REPS"
    }

    fn last_decision(&self) -> EvDecision {
        self.state.last_decision()
    }

    fn is_frozen(&self) -> bool {
        self.state.is_freezing()
    }

    fn diagnostics(&self, out: &mut Vec<(&'static str, u64)>) {
        self.state.diagnostics(&self.counters, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fb(ev: u16, ecn: bool, now: Time) -> AckFeedback {
        AckFeedback {
            ev,
            ecn,
            now,
            cwnd_packets: 16,
            rtt: Time::from_us(10),
        }
    }

    fn reps_small_evs() -> (OwnedReps, Rng64) {
        let cfg = RepsConfig::default().with_evs_size(256);
        (Reps::new(cfg), Rng64::new(99))
    }

    #[test]
    fn explores_randomly_before_any_ack() {
        let (mut reps, mut rng) = reps_small_evs();
        let evs: Vec<u16> = (0..64)
            .map(|_| reps.next_ev(Time::ZERO, &mut rng))
            .collect();
        assert!(evs.iter().all(|&e| (e as u32) < 256));
        // Warm-up must not return a constant value.
        assert!(evs.iter().collect::<std::collections::BTreeSet<_>>().len() > 8);
    }

    #[test]
    fn caches_and_reuses_good_entropies_fifo() {
        let (mut reps, mut rng) = reps_small_evs();
        for (i, ev) in [11u16, 22, 33].iter().enumerate() {
            reps.on_ack(&fb(*ev, false, Time::from_us(i as u64)), &mut rng);
        }
        assert_eq!(reps.valid_entropies(), 3);
        // Oldest first: 11, 22, 33.
        assert_eq!(reps.next_ev(Time::ZERO, &mut rng), 11);
        assert_eq!(reps.next_ev(Time::ZERO, &mut rng), 22);
        assert_eq!(reps.next_ev(Time::ZERO, &mut rng), 33);
        assert_eq!(reps.valid_entropies(), 0);
    }

    #[test]
    fn ecn_marked_acks_are_discarded() {
        let (mut reps, mut rng) = reps_small_evs();
        reps.on_ack(&fb(50, true, Time::ZERO), &mut rng);
        assert_eq!(reps.valid_entropies(), 0);
        reps.on_ack(&fb(60, false, Time::ZERO), &mut rng);
        assert_eq!(reps.valid_entropies(), 1);
        assert_eq!(reps.next_ev(Time::ZERO, &mut rng), 60);
    }

    #[test]
    fn buffer_wraps_and_overwrites_oldest() {
        let cfg = RepsConfig {
            buffer_size: 4,
            ..RepsConfig::default().with_evs_size(1024)
        };
        let mut reps = Reps::new(cfg);
        let mut rng = Rng64::new(1);
        for ev in 0..6u16 {
            reps.on_ack(&fb(100 + ev, false, Time::ZERO), &mut rng);
        }
        // Buffer of 4, 6 writes: slots hold 104,105,102,103 with all valid
        // capped at 4; oldest valid is 102.
        assert_eq!(reps.valid_entropies(), 4);
        assert_eq!(reps.next_ev(Time::ZERO, &mut rng), 102);
        assert_eq!(reps.next_ev(Time::ZERO, &mut rng), 103);
        assert_eq!(reps.next_ev(Time::ZERO, &mut rng), 104);
        assert_eq!(reps.next_ev(Time::ZERO, &mut rng), 105);
    }

    #[test]
    fn valid_entries_are_used_once() {
        let (mut reps, mut rng) = reps_small_evs();
        reps.on_ack(&fb(77, false, Time::ZERO), &mut rng);
        assert_eq!(reps.next_ev(Time::ZERO, &mut rng), 77);
        // Now invalid and not freezing: must explore, not replay 77 forever.
        let replays = (0..32)
            .filter(|_| reps.next_ev(Time::ZERO, &mut rng) == 77)
            .count();
        assert!(replays < 8, "unexpected replay of a consumed entropy");
    }

    #[test]
    fn timeout_enters_freezing_and_replays_cache() {
        let (mut reps, mut rng) = reps_small_evs();
        for ev in [5u16, 6, 7] {
            reps.on_ack(&fb(ev, false, Time::from_us(1)), &mut rng);
        }
        reps.on_timeout(Time::from_us(2));
        assert!(reps.is_freezing());
        // Consume the three valid entries.
        let mut got = vec![];
        for _ in 0..9 {
            got.push(reps.next_ev(Time::from_us(3), &mut rng));
        }
        // In freezing mode every selection must come from the cache {5,6,7}.
        assert!(got.iter().all(|e| [5, 6, 7].contains(e)), "{got:?}");
    }

    #[test]
    fn freezing_exit_requires_timeout_elapsed_and_ack() {
        let (mut reps, mut rng) = reps_small_evs();
        reps.on_ack(&fb(9, false, Time::from_us(1)), &mut rng);
        reps.on_timeout(Time::from_us(10));
        assert!(reps.is_freezing());
        // ACK before the freezing window elapses: stay frozen.
        reps.on_ack(&fb(10, false, Time::from_us(50)), &mut rng);
        assert!(reps.is_freezing());
        // ACK after: thaw, and seed the exploration counter.
        reps.on_ack(&fb(11, false, Time::from_us(200)), &mut rng);
        assert!(!reps.is_freezing());
    }

    #[test]
    fn post_freezing_exploration_mixes_random_and_cached() {
        let (mut reps, mut rng) = reps_small_evs();
        for ev in [1u16, 2, 3, 4, 5, 6, 7, 8] {
            reps.on_ack(&fb(ev, false, Time::from_us(1)), &mut rng);
        }
        reps.on_timeout(Time::from_us(2));
        reps.on_ack(&fb(40, false, Time::from_us(200)), &mut rng);
        assert!(!reps.is_freezing());
        // cwnd_packets = 16 -> 16 exploration sends; every 8th is random.
        let mut cached = 0;
        let mut total = 0;
        for _ in 0..16 {
            let ev = reps.next_ev(Time::from_us(201), &mut rng);
            total += 1;
            if (1..=8).contains(&ev) || ev == 40 {
                cached += 1;
            }
        }
        assert_eq!(total, 16);
        assert!(cached >= 8, "exploration should still favour cached EVs");
    }

    #[test]
    fn timeout_during_exploration_does_not_refreeze() {
        let (mut reps, mut rng) = reps_small_evs();
        reps.on_ack(&fb(1, false, Time::from_us(1)), &mut rng);
        reps.on_timeout(Time::from_us(2));
        reps.on_ack(&fb(2, false, Time::from_us(200)), &mut rng);
        assert!(!reps.is_freezing());
        // Explore counter is armed; a timeout now must NOT re-freeze
        // (Algorithm 1 line 22 requires exploreCounter == 0).
        reps.on_timeout(Time::from_us(201));
        assert!(!reps.is_freezing());
    }

    #[test]
    fn freezing_disabled_ignores_timeouts() {
        let cfg = RepsConfig::default().without_freezing().with_evs_size(64);
        let mut reps = Reps::new(cfg);
        reps.on_timeout(Time::from_us(5));
        assert!(!reps.is_freezing());
    }

    #[test]
    fn freezing_expires_on_send_path_without_acks() {
        // A sender whose cached entropies all map to the failed path gets no
        // ACKs at all; freezing must still expire (time-based, §3.2) so the
        // sender resumes exploring instead of replaying dead paths forever.
        let (mut reps, mut rng) = reps_small_evs();
        reps.on_ack(&fb(7, false, Time::from_us(1)), &mut rng);
        reps.on_timeout(Time::from_us(10));
        assert!(reps.is_freezing());
        // Well past the freezing window, with no ACK in between:
        let _ = reps.next_ev(Time::from_us(500), &mut rng);
        assert!(!reps.is_freezing(), "freezing must expire without ACKs");
        // And the sender now explores (non-7 EVs appear).
        let evs: Vec<u16> = (0..32)
            .map(|_| reps.next_ev(Time::from_us(501), &mut rng))
            .collect();
        assert!(evs.iter().any(|&e| e != 7), "must explore after thawing");
    }

    #[test]
    fn freezing_before_any_ack_still_returns_valid_evs() {
        let (mut reps, mut rng) = reps_small_evs();
        reps.on_timeout(Time::from_us(1));
        // Nothing cached: selection falls back to random exploration rather
        // than replaying uninitialized slots.
        for _ in 0..16 {
            let ev = reps.next_ev(Time::from_us(2), &mut rng);
            assert!((ev as u32) < 256);
        }
    }

    #[test]
    fn respects_small_evs_sizes() {
        for evs in [16u32, 32, 256] {
            let mut reps = Reps::new(RepsConfig::default().with_evs_size(evs));
            let mut rng = Rng64::new(evs as u64);
            for i in 0..200 {
                let ev = reps.next_ev(Time::from_us(i), &mut rng);
                assert!((ev as u32) < evs, "ev {ev} out of EVS {evs}");
                // Some ACK traffic interleaved.
                if i % 3 == 0 {
                    reps.on_ack(&fb(ev, i % 6 == 0, Time::from_us(i)), &mut rng);
                }
            }
        }
    }

    #[test]
    fn decision_probe_and_diagnostics_track_the_ev_lifecycle() {
        let (mut reps, mut rng) = reps_small_evs();
        // Cold cache: fresh draw.
        let _ = reps.next_ev(Time::ZERO, &mut rng);
        assert_eq!(reps.last_decision(), EvDecision::Fresh);
        // Clean ACK then reuse: recycled.
        reps.on_ack(&fb(42, false, Time::from_us(1)), &mut rng);
        assert_eq!(reps.next_ev(Time::from_us(2), &mut rng), 42);
        assert_eq!(reps.last_decision(), EvDecision::Recycled);
        // Timeout freezes; the next draw replays the (now stale) cache.
        reps.on_timeout(Time::from_us(3));
        assert!(reps.is_frozen());
        assert_eq!(reps.next_ev(Time::from_us(4), &mut rng), 42);
        assert_eq!(reps.last_decision(), EvDecision::FrozenReplay);
        // Thaw via a late ACK.
        reps.on_ack(&fb(43, false, Time::from_us(200)), &mut rng);
        assert!(!reps.is_frozen());
        let mut diag = Vec::new();
        reps.diagnostics(&mut diag);
        let get = |name: &str| {
            diag.iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert_eq!(get("reps_fresh_draws"), 1);
        assert_eq!(get("reps_recycled_draws"), 1);
        assert_eq!(get("reps_frozen_replays"), 1);
        assert_eq!(get("reps_freezes"), 1);
        assert_eq!(get("reps_thaws"), 1);
        assert_eq!(get("reps_valid_entropies"), 1);
    }

    #[test]
    fn burst_of_acks_all_cached_up_to_buffer_depth() {
        // §3.1: bursts of back-to-back good ACKs must be cached and reusable.
        let (mut reps, mut rng) = reps_small_evs();
        for ev in 0..8u16 {
            reps.on_ack(&fb(ev + 100, false, Time::from_us(1)), &mut rng);
        }
        assert_eq!(reps.valid_entropies(), 8);
        let sent: Vec<u16> = (0..8)
            .map(|_| reps.next_ev(Time::from_us(2), &mut rng))
            .collect();
        assert_eq!(sent, (100..108).collect::<Vec<u16>>());
    }
}
