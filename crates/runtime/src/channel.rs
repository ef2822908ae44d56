//! The lossy, seeded control channel between runtime and agents.
//!
//! PR 1's runtime invoked agents through infallible direct calls; real
//! controller-to-switch channels drop, duplicate, reorder, and delay.
//! [`ControlChannel`] models exactly that: every request and reply
//! becomes a [`Message`] queued on the virtual clock, and a seeded
//! [`ChannelProfile`] decides each message's fate with the same
//! reproducibility contract as the fault injector — one seed, one
//! byte-identical schedule.
//!
//! The channel is *oblivious*: it never looks inside a message. All
//! protocol-level defense (dedup, idempotence, epoch fencing, leases)
//! lives in [`crate::agent::SwitchAgent`] and the runtime's retry loop.

// The crate-level clippy.toml bans unwrap/expect so the recovery path
// (journal.rs, recovery.rs) can never panic; this pre-durability module
// keeps its intentional `expect`s on internal invariants.
#![allow(clippy::disallowed_methods)]

use crate::agent::{ReplyEnvelope, RequestEnvelope};
use crate::fault::{validate_probabilities, ProfileError};
use rand::{rngs::StdRng, RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Per-message misbehavior probabilities of the control channel.
///
/// Each transmitted copy is judged independently, in a fixed draw order
/// (drop, duplicate, then per-copy delay and reorder), so adding one
/// probability never silently reshuffles an unrelated seed's schedule
/// within a single send.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChannelProfile {
    /// The message is lost entirely (all copies).
    pub drop_prob: f64,
    /// The message is transmitted twice.
    pub duplicate_prob: f64,
    /// A copy is skewed off the nominal latency so it can overtake or
    /// fall behind neighbors sent around the same time.
    pub reorder_prob: f64,
    /// A copy is held for an extra `1..=delay_span_us` microseconds.
    pub delay_prob: f64,
    /// Maximum extra holding time for a delayed copy.
    pub delay_span_us: u64,
}

impl ChannelProfile {
    /// A perfect channel: every message arrives exactly once, in order,
    /// after the nominal latency. The runtime behaves like PR 1's
    /// direct-call path.
    pub fn none() -> Self {
        ChannelProfile {
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            reorder_prob: 0.0,
            delay_prob: 0.0,
            delay_span_us: 0,
        }
    }

    /// The default adversarial mix used by soak tests and `--channel
    /// lossy`: every misbehavior enabled at rates the retry budget can
    /// still beat most of the time.
    pub fn lossy() -> Self {
        ChannelProfile {
            drop_prob: 0.10,
            duplicate_prob: 0.10,
            reorder_prob: 0.15,
            delay_prob: 0.15,
            delay_span_us: 400,
        }
    }

    /// Validates that every probability field is a probability.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError`] naming the first NaN, negative, or
    /// `> 1.0` field.
    pub fn validate(&self) -> Result<(), ProfileError> {
        validate_probabilities(&[
            ("drop_prob", self.drop_prob),
            ("duplicate_prob", self.duplicate_prob),
            ("reorder_prob", self.reorder_prob),
            ("delay_prob", self.delay_prob),
        ])
    }

    /// `true` iff this profile can never misbehave.
    pub fn is_none(&self) -> bool {
        self.drop_prob == 0.0
            && self.duplicate_prob == 0.0
            && self.reorder_prob == 0.0
            && self.delay_prob == 0.0
    }
}

impl Default for ChannelProfile {
    fn default() -> Self {
        ChannelProfile::none()
    }
}

/// One in-flight control-plane message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Controller-to-agent.
    Request(RequestEnvelope),
    /// Agent-to-controller.
    Reply(ReplyEnvelope),
}

impl Message {
    /// The switch this message targets or originates from.
    pub fn switch(&self) -> hermes_net::SwitchId {
        match self {
            Message::Request(req) => req.switch,
            Message::Reply(rep) => rep.switch,
        }
    }

    /// The `(epoch, seq)` stamp of the wrapped envelope.
    pub fn stamp(&self) -> (u64, u64) {
        match self {
            Message::Request(req) => (req.epoch, req.seq),
            Message::Reply(rep) => (rep.epoch, rep.seq),
        }
    }

    /// Short tag for logs.
    pub fn kind(&self) -> &'static str {
        match self {
            Message::Request(req) => req.body.kind(),
            Message::Reply(_) => "reply",
        }
    }
}

/// What the channel decided to do with one send, for the event log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendReceipt {
    /// The message was lost; `deliveries` is empty.
    pub dropped: bool,
    /// Two copies were transmitted.
    pub duplicated: bool,
    /// At least one copy was held beyond the nominal latency window.
    pub delayed: bool,
    /// Virtual delivery times of each surviving copy.
    pub deliveries: Vec<u64>,
}

/// A seeded lossy queue between the runtime and its agents.
///
/// Messages are delivered strictly in `(deliver_at, uid)` order, so the
/// only sources of reordering are the profile's skew draws — the queue
/// itself is deterministic.
#[derive(Debug, Clone)]
pub struct ControlChannel {
    rng: StdRng,
    profile: ChannelProfile,
    latency_us: u64,
    queue: BTreeMap<(u64, u64), Message>,
    uid: u64,
    messages_sent: u64,
}

impl ControlChannel {
    /// Salt mixed into the channel's seed so its draw stream never
    /// aliases the fault injector's stream from the same experiment seed.
    const SEED_SALT: u64 = 0x6368_616e_6e65_6c00; // "channel\0"

    /// A channel seeded from the experiment seed, with a fixed one-way
    /// `latency_us` for well-behaved messages.
    ///
    /// # Panics
    ///
    /// Panics if the profile carries a non-probability field; use
    /// [`ControlChannel::try_new`] to handle that as a value.
    pub fn new(seed: u64, profile: ChannelProfile, latency_us: u64) -> Self {
        ControlChannel::try_new(seed, profile, latency_us).expect("invalid channel profile")
    }

    /// Fallible constructor: validates `profile` before accepting it.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError`] for NaN, negative, or `> 1.0`
    /// probabilities.
    pub fn try_new(
        seed: u64,
        profile: ChannelProfile,
        latency_us: u64,
    ) -> Result<Self, ProfileError> {
        profile.validate()?;
        Ok(ControlChannel {
            rng: StdRng::seed_from_u64(seed ^ Self::SEED_SALT),
            profile,
            latency_us,
            queue: BTreeMap::new(),
            uid: 0,
            messages_sent: 0,
        })
    }

    /// The profile this channel draws from.
    pub fn profile(&self) -> &ChannelProfile {
        &self.profile
    }

    /// Nominal one-way latency for a well-behaved message.
    pub fn latency_us(&self) -> u64 {
        self.latency_us
    }

    /// Transmits `msg` at virtual time `now_us`. The channel may drop it,
    /// transmit two copies, and skew each copy's delivery time; the
    /// receipt records what happened for the event log.
    pub fn send(&mut self, now_us: u64, msg: Message) -> SendReceipt {
        self.messages_sent += 1;
        let p = self.profile;
        // Fixed draw order: drop, duplicate, then per-copy (delay?,
        // amount, reorder?, skew). A none() profile draws the same number
        // of bools per send, so enabling one probability never shifts
        // which draw another consumes.
        if self.rng.random_bool(p.drop_prob) {
            return SendReceipt {
                dropped: true,
                duplicated: false,
                delayed: false,
                deliveries: vec![],
            };
        }
        let copies = if self.rng.random_bool(p.duplicate_prob) { 2 } else { 1 };
        let mut receipt = SendReceipt {
            dropped: false,
            duplicated: copies == 2,
            delayed: false,
            deliveries: Vec::with_capacity(copies),
        };
        for _ in 0..copies {
            let mut deliver_at = now_us + self.latency_us;
            if self.rng.random_bool(p.delay_prob) {
                deliver_at += self.rng.random_range(1..=p.delay_span_us.max(1));
                receipt.delayed = true;
            }
            if self.rng.random_bool(p.reorder_prob) {
                // Skew within ±latency around the already-chosen time:
                // enough for a copy to overtake (or be overtaken by)
                // anything sent one latency window around it.
                let span = 2 * self.latency_us.max(1);
                let skew = self.rng.random_range(0..=span);
                deliver_at = (deliver_at + skew).saturating_sub(self.latency_us.max(1));
            }
            // Nothing travels faster than light: a skewed copy still
            // arrives after it was sent.
            deliver_at = deliver_at.max(now_us + 1);
            receipt.deliveries.push(deliver_at);
            self.queue.insert((deliver_at, self.uid), msg.clone());
            self.uid += 1;
        }
        receipt
    }

    /// Pops the earliest queued message with `deliver_at <= until_us`,
    /// or `None` when nothing is due yet.
    pub fn pop_due(&mut self, until_us: u64) -> Option<(u64, Message)> {
        let (&(at, uid), _) = self.queue.iter().next()?;
        if at > until_us {
            return None;
        }
        let msg = self.queue.remove(&(at, uid)).expect("first key exists");
        Some((at, msg))
    }

    /// Number of in-flight messages.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Drops every in-flight message (used when a transaction round ends
    /// and stragglers are no longer interesting to the runtime — agents
    /// have already fenced the epochs they belonged to).
    pub fn clear(&mut self) {
        self.queue.clear();
    }

    /// Total messages handed to the channel since construction (both
    /// directions, before drop/duplicate decisions).
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{Reply, ReplyEnvelope};
    use hermes_net::topology;

    fn reply_msg(seq: u64) -> Message {
        let switch = topology::linear(1, 10.0).switch_ids().next().unwrap();
        Message::Reply(ReplyEnvelope {
            epoch: 1,
            seq,
            switch,
            body: Reply::Ack { active_epoch: None },
        })
    }

    #[test]
    fn perfect_channel_delivers_in_order_at_fixed_latency() {
        let mut ch = ControlChannel::new(7, ChannelProfile::none(), 25);
        for seq in 0..10 {
            let receipt = ch.send(seq * 10, reply_msg(seq));
            assert_eq!(receipt.deliveries, vec![seq * 10 + 25]);
            assert!(!receipt.dropped && !receipt.duplicated && !receipt.delayed);
        }
        let mut seqs = Vec::new();
        while let Some((_, msg)) = ch.pop_due(u64::MAX) {
            seqs.push(msg.stamp().1);
        }
        assert_eq!(seqs, (0..10).collect::<Vec<_>>());
        assert_eq!(ch.messages_sent(), 10);
    }

    #[test]
    fn same_seed_same_fate_schedule() {
        let run = |seed: u64| {
            let mut ch = ControlChannel::new(seed, ChannelProfile::lossy(), 25);
            (0..64).map(|i| ch.send(i * 7, reply_msg(i))).collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4), "different seeds should diverge somewhere");
    }

    #[test]
    fn lossy_profile_exercises_every_fate() {
        let mut ch = ControlChannel::new(11, ChannelProfile::lossy(), 25);
        let receipts: Vec<_> = (0..200).map(|i| ch.send(i * 3, reply_msg(i))).collect();
        assert!(receipts.iter().any(|r| r.dropped), "no drops");
        assert!(receipts.iter().any(|r| r.duplicated), "no duplicates");
        assert!(receipts.iter().any(|r| r.delayed), "no delays");
        // Reordering: some later-sent message is queued before an
        // earlier-sent one.
        let mut send_order = Vec::new();
        while let Some((_, msg)) = ch.pop_due(u64::MAX) {
            send_order.push(msg.stamp().1);
        }
        assert!(send_order.windows(2).any(|w| w[0] > w[1]), "no reordering observed");
    }

    #[test]
    fn pop_due_respects_the_virtual_clock() {
        let mut ch = ControlChannel::new(0, ChannelProfile::none(), 50);
        ch.send(0, reply_msg(1));
        assert!(ch.pop_due(49).is_none(), "not due before the latency elapses");
        let (at, _) = ch.pop_due(50).expect("due at exactly t+latency");
        assert_eq!(at, 50);
        assert_eq!(ch.pending(), 0);
    }

    #[test]
    fn nothing_arrives_before_it_was_sent() {
        let mut ch = ControlChannel::new(5, ChannelProfile::lossy(), 10);
        for i in 0..300 {
            let now = i * 2;
            for at in ch.send(now, reply_msg(i)).deliveries {
                assert!(at > now, "copy delivered at {at} <= send time {now}");
            }
        }
    }

    #[test]
    fn invalid_channel_profiles_are_rejected() {
        let mut p = ChannelProfile::none();
        p.reorder_prob = f64::NAN;
        let e = ControlChannel::try_new(0, p, 25).expect_err("NaN must be rejected");
        assert_eq!(e.field, "reorder_prob");
        assert!(ChannelProfile::lossy().validate().is_ok());
    }
}
