//! The message-disperse primitives MD-VALUE and MD-META (Section III).
//!
//! Both primitives guarantee *uniformity*: if any server delivers a message,
//! then every non-faulty server eventually delivers it (its coded element for
//! MD-VALUE, the metadata itself for MD-META), even if the original sender
//! crashes mid-send and up to `f` servers crash.
//!
//! The mechanism is the same for both: the sender transmits the message to the
//! first `f + 1` servers `D = {s_1, …, s_{f+1}}` **in rank order**; the first
//! time a server `s_i ∈ D` receives the full message it (a) forwards it to the
//! higher-ranked servers `s_{i+1} … s_{f+1}`, (b) sends the derived message to
//! every other server (for MD-VALUE the derived message is the *destination's*
//! coded element `Φ_{s'}(v)`; for MD-META it is the metadata verbatim), and
//! (c) delivers locally. Servers outside `D` never relay; they just deliver
//! the first copy they receive.
//!
//! The backbone shares `Φ(v)`. In the paper every server of `D` computes
//! `Φ(v)` from the same full value; here they all hold one immutable buffer
//! for `v`, so the sender wraps it in a [`DispersedValue`] that every copy of
//! the dispersal's full-value message shares, and the first backbone server
//! to handle it encodes once for all of them — one encode per dispersal
//! instead of up to `f + 1`. `Φ` is a pure function of the immutable value,
//! so sharing its result is the same step as sharing the value's buffer:
//! which messages are sent, in what order, and the bytes each is charged
//! (`data_bytes`, the full value) are those of the paper's primitive.
//!
//! The types here are *pure* state machines: they compute which messages to
//! send and what to deliver, and the protocol processes in the `soda` crate
//! put them on the simulated network. This keeps the primitive
//! unit-testable in isolation, mirroring how the paper specifies it as a
//! separate IO automaton composed with the servers.
//!
//! After a message is delivered, no value or coded-element data is retained —
//! only the message id, as a tombstone for deduplication — which is the
//! no-state-bloat property of Theorem 3.2. (The shared encoding lives in the
//! dispersal's messages, not in any relay: it is freed with the last of
//! them.) The tombstones are a [`RunSet`]:
//! message ids are dense per origin, so a relay that has delivered every
//! dispersal of an origin keeps one run of counters for it, however many
//! dispersals that was.

use crate::{Layout, RunSet, Tag, Value};
use soda_rs_code::{CodedElement, VandermondeCode};
use soda_simnet::ProcessId;
use std::sync::{Arc, OnceLock};

/// Unique identifier of one invocation of a message-disperse primitive.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct MessageId {
    /// The process that invoked the primitive.
    pub origin: ProcessId,
    /// Per-origin invocation counter.
    pub counter: u64,
}

impl MessageId {
    /// Creates a message id.
    pub fn new(origin: ProcessId, counter: u64) -> Self {
        MessageId { origin, counter }
    }
}

/// One dispersal's full value together with `Φ(value)`, which the first
/// backbone server to handle the dispersal computes and every later one
/// reuses. Every copy of the dispersal's [`MdValueMsg::Full`] messages — the
/// sender's, the backbone's forwards and any the network duplicates — shares
/// it, so a clone is one reference-count bump.
#[derive(Clone, Debug)]
pub struct DispersedValue(Arc<(Value, OnceLock<Vec<CodedElement>>)>);

impl DispersedValue {
    /// A value about to be dispersed, not yet encoded.
    pub fn new(value: Value) -> Self {
        DispersedValue(Arc::new((value, OnceLock::new())))
    }

    /// The full value.
    pub fn value(&self) -> &Value {
        &self.0 .0
    }

    /// `Φ(value)`: encoded on the first call, shared afterwards. Each data
    /// element whose shard lies inside the value is a view of the value's
    /// buffer, so the servers that store it keep no copy.
    fn elements(&self, code: &VandermondeCode) -> &[CodedElement] {
        self.0 .1.get_or_init(|| code.encode_shared(self.value()))
    }
}

/// A message produced by the MD-VALUE primitive.
#[derive(Clone, Debug)]
pub enum MdValueMsg {
    /// The full (uncoded) value, sent along the relay backbone `D`.
    Full {
        /// Invocation id.
        mid: MessageId,
        /// Version tag being written.
        tag: Tag,
        /// The full object value, with the dispersal's one `Φ(value)`.
        value: DispersedValue,
    },
    /// The coded element targeted at one particular server.
    Coded {
        /// Invocation id.
        mid: MessageId,
        /// Version tag being written.
        tag: Tag,
        /// The destination server's coded element `Φ_{s'}(v)`.
        element: CodedElement,
    },
}

impl MdValueMsg {
    /// Bytes of object-value data carried (the paper's communication-cost
    /// contribution of this message).
    pub fn data_bytes(&self) -> usize {
        match self {
            MdValueMsg::Full { value, .. } => value.value().len(),
            MdValueMsg::Coded { element, .. } => element.data.len(),
        }
    }

    /// The invocation id.
    pub fn mid(&self) -> MessageId {
        match self {
            MdValueMsg::Full { mid, .. } | MdValueMsg::Coded { mid, .. } => *mid,
        }
    }
}

/// A message addressed to a server identified by its rank in the layout.
#[derive(Clone, Debug, PartialEq)]
pub struct Dispatch<M> {
    /// Destination server rank (0-based position in the layout order).
    pub to_rank: usize,
    /// The message to send.
    pub msg: M,
}

/// Sender side of MD-VALUE: the messages the invoking process (a writer in
/// SODA) must send, in order. The full value goes to the first `f + 1`
/// servers, all sharing one [`DispersedValue`]. Returned lazily: the hot
/// path iterates straight into the network without materializing a
/// dispatch vector.
pub fn md_value_send(
    layout: &Layout,
    mid: MessageId,
    tag: Tag,
    value: Value,
) -> impl Iterator<Item = Dispatch<MdValueMsg>> {
    let value = DispersedValue::new(value);
    layout.relay_set().map(move |rank| Dispatch {
        to_rank: rank,
        msg: MdValueMsg::Full {
            mid,
            tag,
            value: value.clone(),
        },
    })
}

/// A message produced by the MD-META primitive: the metadata payload plus the
/// invocation id.
#[derive(Clone, Debug, PartialEq)]
pub struct MdMetaMsg<P> {
    /// Invocation id.
    pub mid: MessageId,
    /// The metadata payload being dispersed.
    pub payload: P,
}

/// Sender side of MD-META: send the payload to the first `f + 1` servers.
/// Returned lazily, like [`md_value_send`].
pub fn md_meta_send<P: Clone>(
    layout: &Layout,
    mid: MessageId,
    payload: P,
) -> impl Iterator<Item = Dispatch<MdMetaMsg<P>>> {
    layout.relay_set().map(move |rank| Dispatch {
        to_rank: rank,
        msg: MdMetaMsg {
            mid,
            payload: payload.clone(),
        },
    })
}

/// Server-side state of one message-disperse primitive, MD-VALUE or
/// MD-META; a server keeps one for each, so each keeps its own tombstones.
///
/// Keeps only message-id tombstones between invocations, as runs of
/// counters per origin; values, coded elements and metadata never outlive
/// the handler (Theorem 3.2).
#[derive(Debug)]
pub struct MdRelay {
    my_rank: usize,
    handled: RunSet,
}

impl MdRelay {
    /// Creates the relay state for the server with the given rank.
    pub fn new(my_rank: usize) -> Self {
        MdRelay {
            my_rank,
            handled: RunSet::default(),
        }
    }

    /// Number of message ids remembered (tombstones only; used by the
    /// state-bloat experiment).
    pub fn tombstones(&self) -> usize {
        self.handled.len()
    }

    /// The tombstones themselves.
    pub fn handled(&self) -> &RunSet {
        &self.handled
    }

    /// MD-VALUE: handles receipt of the full value. On the first receipt
    /// this hands the `relay` callback the full value for every
    /// higher-ranked backbone server and its coded element for every other
    /// server, as they are produced — the server feeds them straight into
    /// the network context — and returns the local element to deliver; a
    /// duplicate relays nothing and returns `None`. The coded elements are
    /// the dispersal's shared `Φ(value)`: only the first backbone server to
    /// get here encodes.
    pub fn on_full(
        &mut self,
        layout: &Layout,
        code: &VandermondeCode,
        mid: MessageId,
        tag: Tag,
        value: &DispersedValue,
        mut relay: impl FnMut(Dispatch<MdValueMsg>),
    ) -> Option<(Tag, CodedElement)> {
        if !self.handled.insert(mid.origin, mid.counter) {
            return None;
        }
        let n = layout.n();
        let relay_top = layout.relay_set().end; // f + 1 (capped at n)
        let elements = value.elements(code);
        // (a) forward the full value to higher-ranked servers in D.
        for rank in (self.my_rank + 1)..relay_top {
            relay(Dispatch {
                to_rank: rank,
                msg: MdValueMsg::Full {
                    mid,
                    tag,
                    value: value.clone(),
                },
            });
        }
        // (b) send every remaining server (outside the forwarded range and not
        // itself) its own coded element. Only backbone servers get the full
        // value, so `my_rank < relay_top`.
        debug_assert!(self.my_rank < relay_top, "not a backbone rank");
        for rank in (0..self.my_rank).chain(relay_top..n) {
            relay(Dispatch {
                to_rank: rank,
                msg: MdValueMsg::Coded {
                    mid,
                    tag,
                    element: elements[rank].clone(),
                },
            });
        }
        // (c) deliver the local element.
        Some((tag, elements[self.my_rank].clone()))
    }

    /// MD-VALUE: handles receipt of a coded element addressed to this
    /// server. Delivers it the first time, ignores duplicates.
    pub fn on_coded(
        &mut self,
        mid: MessageId,
        tag: Tag,
        element: CodedElement,
    ) -> Option<(Tag, CodedElement)> {
        if !self.handled.insert(mid.origin, mid.counter) {
            return None;
        }
        Some((tag, element))
    }

    /// MD-META: handles receipt of a metadata message. On first receipt: hand
    /// the `relay` callback the payload for the higher-ranked backbone
    /// servers and every server outside the backbone, and return it for local
    /// delivery. Duplicates relay nothing and return `None`.
    ///
    /// Only servers inside the backbone `D` relay; servers outside it receive
    /// the payload from (potentially several) backbone servers and just
    /// deliver it once.
    pub fn on_meta<P: Clone>(
        &mut self,
        layout: &Layout,
        mid: MessageId,
        payload: &P,
        mut relay: impl FnMut(Dispatch<MdMetaMsg<P>>),
    ) -> Option<P> {
        if !self.handled.insert(mid.origin, mid.counter) {
            return None;
        }
        if layout.in_relay_set(self.my_rank) {
            // Higher-ranked backbone servers get the payload (continuing the
            // chain), then every server outside the backbone gets it directly.
            // Lower-ranked backbone servers come last: they may have been
            // missed if the sender crashed part-way through its ordered send,
            // so covering them keeps uniformity wherever the sender stopped.
            for rank in (self.my_rank + 1..layout.n()).chain(0..self.my_rank) {
                relay(Dispatch {
                    to_rank: rank,
                    msg: MdMetaMsg {
                        mid,
                        payload: payload.clone(),
                    },
                });
            }
        }
        Some(payload.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value_from;
    use soda_rs_code::{MdsCode, Payload, VandermondeCode};
    use std::collections::VecDeque;

    fn layout(n: usize, f: usize) -> Layout {
        Layout::new((0..n as u32).map(ProcessId).collect(), f)
    }

    fn mid(c: u64) -> MessageId {
        MessageId::new(ProcessId(100), c)
    }

    fn tag() -> Tag {
        Tag::new(3, ProcessId(100))
    }

    /// `on_full` with its relays collected.
    fn full(
        relay: &mut MdRelay,
        l: &Layout,
        code: &VandermondeCode,
        mid: MessageId,
        v: &Value,
    ) -> (Option<(Tag, CodedElement)>, Vec<Dispatch<MdValueMsg>>) {
        let mut relays = Vec::new();
        let v = DispersedValue::new(v.clone());
        let deliver = relay.on_full(l, code, mid, tag(), &v, |d| relays.push(d));
        (deliver, relays)
    }

    /// `on_meta` with its relays collected.
    fn meta<P: Clone>(
        relay: &mut MdRelay,
        l: &Layout,
        mid: MessageId,
        payload: &P,
    ) -> (Option<P>, Vec<Dispatch<MdMetaMsg<P>>>) {
        let mut relays = Vec::new();
        let deliver = relay.on_meta(l, mid, payload, |d| relays.push(d));
        (deliver, relays)
    }

    #[test]
    fn sender_targets_first_f_plus_one_servers_in_order() {
        let l = layout(7, 2);
        let v = value_from(vec![1u8; 30]);
        let sends: Vec<_> = md_value_send(&l, mid(1), tag(), v.clone()).collect();
        assert_eq!(sends.len(), 3);
        for (i, d) in sends.iter().enumerate() {
            assert_eq!(d.to_rank, i);
            match &d.msg {
                MdValueMsg::Full { value, .. } => assert_eq!(value.value().len(), 30),
                other => panic!("expected Full, got {other:?}"),
            }
            assert_eq!(d.msg.data_bytes(), 30);
            assert_eq!(d.msg.mid(), mid(1));
        }
    }

    #[test]
    fn backbone_server_relays_full_up_and_coded_elsewhere() {
        let n = 7;
        let f = 2;
        let l = layout(n, f);
        let code = VandermondeCode::new(n, n - f).unwrap();
        let v = value_from((0..64u8).collect());
        let mut relay = MdRelay::new(0);
        let (deliver, relays) = full(&mut relay, &l, &code, mid(1), &v);

        // Local delivery of own element.
        let (t, elem) = deliver.expect("must deliver locally");
        assert_eq!(t, tag());
        assert_eq!(elem.index, 0);

        // Full forwarded to ranks 1 and 2; coded to ranks 3..6.
        let mut fulls = vec![];
        let mut codeds = vec![];
        for d in &relays {
            match &d.msg {
                MdValueMsg::Full { .. } => fulls.push(d.to_rank),
                MdValueMsg::Coded { element, .. } => {
                    assert_eq!(element.index, d.to_rank, "element targets its destination");
                    codeds.push(d.to_rank);
                }
            }
        }
        fulls.sort_unstable();
        codeds.sort_unstable();
        assert_eq!(fulls, vec![1, 2]);
        assert_eq!(codeds, vec![3, 4, 5, 6]);
    }

    #[test]
    fn mid_backbone_server_covers_lower_ranked_servers_with_coded() {
        // If the writer crashed after reaching only rank 2, rank 2 must still
        // get coded elements to ranks 0 and 1 (they are in S − D of the paper's
        // local relay-set definition).
        let n = 6;
        let f = 2;
        let l = layout(n, f);
        let code = VandermondeCode::new(n, n - f).unwrap();
        let v = value_from(vec![9u8; 16]);
        let mut relay = MdRelay::new(2);
        let (_, relays) = full(&mut relay, &l, &code, mid(5), &v);
        let coded_targets: Vec<usize> = relays
            .iter()
            .filter(|d| matches!(d.msg, MdValueMsg::Coded { .. }))
            .map(|d| d.to_rank)
            .collect();
        assert!(coded_targets.contains(&0));
        assert!(coded_targets.contains(&1));
        assert!(coded_targets.contains(&3));
        // No full forwards (rank 2 is the last of D).
        assert!(relays
            .iter()
            .all(|d| !matches!(d.msg, MdValueMsg::Full { .. })));
    }

    #[test]
    fn duplicate_full_is_ignored() {
        let n = 5;
        let f = 1;
        let l = layout(n, f);
        let code = VandermondeCode::new(n, n - f).unwrap();
        let v = value_from(vec![7u8; 10]);
        let mut relay = MdRelay::new(1);
        assert!(full(&mut relay, &l, &code, mid(1), &v).0.is_some());
        let (deliver, relays) = full(&mut relay, &l, &code, mid(1), &v);
        assert!(deliver.is_none());
        assert!(relays.is_empty());
        assert_eq!(relay.tombstones(), 1);
    }

    #[test]
    fn coded_after_full_or_full_after_coded_delivers_once() {
        let n = 5;
        let f = 1;
        let l = layout(n, f);
        let code = VandermondeCode::new(n, n - f).unwrap();
        let v = value_from(vec![3u8; 12]);
        let elems = code.encode(&v).unwrap();

        // Coded first, then full: only the coded delivery happens.
        let mut relay = MdRelay::new(0);
        let delivered = relay.on_coded(mid(1), tag(), elems[0].clone());
        assert!(delivered.is_some());
        let (deliver, relays) = full(&mut relay, &l, &code, mid(1), &v);
        assert!(deliver.is_none());
        assert!(relays.is_empty());

        // Full first, then coded duplicate: only the full delivery happens.
        let mut relay = MdRelay::new(0);
        assert!(full(&mut relay, &l, &code, mid(2), &v).0.is_some());
        assert!(relay.on_coded(mid(2), tag(), elems[0].clone()).is_none());
    }

    #[test]
    fn distinct_mids_are_independent() {
        let mut relay = MdRelay::new(3);
        let elem = CodedElement::new(3, vec![1, 2, 3]);
        assert!(relay.on_coded(mid(1), tag(), elem.clone()).is_some());
        assert!(relay.on_coded(mid(2), tag(), elem.clone()).is_some());
        assert!(relay.on_coded(mid(1), tag(), elem).is_none());
        assert_eq!(relay.tombstones(), 2);
    }

    #[test]
    fn uniformity_holds_for_any_crash_prefix_of_the_sender() {
        // Simulate (by hand) delivery when the sender crashes after reaching
        // only the i-th backbone server: every non-faulty server must still
        // deliver its element, for every i.
        let n = 7;
        let f = 3;
        let l = layout(n, f);
        let code = VandermondeCode::new(n, n - f).unwrap();
        let v = value_from((0..40u8).collect());

        for reached in 0..=f {
            // The sender only managed to send the full value to server `reached`.
            let mut relays: Vec<MdRelay> = (0..n).map(MdRelay::new).collect();
            let mut delivered = vec![false; n];
            let mut inbox: Vec<(usize, MdValueMsg)> = vec![(
                reached,
                MdValueMsg::Full {
                    mid: mid(9),
                    tag: tag(),
                    value: DispersedValue::new(v.clone()),
                },
            )];
            while let Some((rank, msg)) = inbox.pop() {
                let deliver = match msg {
                    MdValueMsg::Full { mid, tag, value } => {
                        relays[rank].on_full(&l, &code, mid, tag, &value, |d| {
                            inbox.push((d.to_rank, d.msg))
                        })
                    }
                    MdValueMsg::Coded { mid, tag, element } => {
                        relays[rank].on_coded(mid, tag, element)
                    }
                };
                if deliver.is_some() {
                    delivered[rank] = true;
                }
            }
            assert!(
                delivered.iter().all(|&d| d),
                "all servers must deliver when backbone server {reached} got the value"
            );
        }
    }

    #[test]
    fn a_dispersal_is_encoded_once_and_shared_by_every_copy() {
        // Complete dispersals after every crash prefix of the sender (it
        // reached backbone servers `0..reached` in rank order), with every
        // `Full` duplicated by the network and the inbox drained in both
        // orders: each delivered element comes from the one shared encoding.
        for (n, f) in [(5, 2), (7, 2), (9, 4)] {
            let l = layout(n, f);
            let code = VandermondeCode::new(n, n - f).unwrap();
            let v = value_from((0..200u8).collect());
            let expected = code.encode(&v).unwrap();
            for reached in 1..=f + 1 {
                for lifo in [true, false] {
                    let mut relays: Vec<MdRelay> = (0..n).map(MdRelay::new).collect();
                    let mut delivered: Vec<Option<CodedElement>> = vec![None; n];
                    let mut inbox: VecDeque<(usize, MdValueMsg)> =
                        md_value_send(&l, mid(4), tag(), v.clone())
                            .take(reached)
                            .map(|d| (d.to_rank, d.msg))
                            .collect();
                    let MdValueMsg::Full { value: sent, .. } = &inbox[0].1 else {
                        panic!("the sender sends the full value");
                    };
                    let sent = sent.clone();
                    assert!(sent.0 .1.get().is_none(), "the sender does not encode");
                    let mut duplicated = 0;
                    while let Some((rank, msg)) = if lifo {
                        inbox.pop_back()
                    } else {
                        inbox.pop_front()
                    } {
                        if let MdValueMsg::Full { value, .. } = &msg {
                            // Every copy, a network duplicate (the clone
                            // queued here) included, shares the sent cell.
                            assert!(Arc::ptr_eq(&value.0, &sent.0));
                            if duplicated < 2 * n {
                                duplicated += 1;
                                inbox.push_front((rank, msg.clone()));
                            }
                        }
                        let deliver = match msg {
                            MdValueMsg::Full { mid, tag, value } => {
                                relays[rank].on_full(&l, &code, mid, tag, &value, |d| {
                                    inbox.push_back((d.to_rank, d.msg))
                                })
                            }
                            MdValueMsg::Coded { mid, tag, element } => {
                                relays[rank].on_coded(mid, tag, element)
                            }
                        };
                        if let Some((_, element)) = deliver {
                            assert!(delivered[rank].replace(element).is_none());
                        }
                    }
                    let shared = sent.0 .1.get().expect("a backbone server encoded");
                    for (rank, element) in delivered.iter().enumerate() {
                        let element = element.as_ref().unwrap_or_else(|| {
                            panic!("n={n} f={f} reached={reached}: rank {rank} did not deliver")
                        });
                        assert!(
                            Payload::ptr_eq(&element.data, &shared[rank].data),
                            "n={n} f={f} reached={reached} lifo={lifo}: rank {rank}'s \
                             element is not the shared encoding's"
                        );
                        assert_eq!(element, &expected[rank]);
                    }
                }
            }
        }
    }

    #[test]
    fn meta_sender_and_backbone_relay() {
        let l = layout(6, 2);
        let sends: Vec<_> = md_meta_send(&l, mid(1), "READ-VALUE").collect();
        assert_eq!(sends.len(), 3);
        assert_eq!(sends[0].to_rank, 0);
        assert_eq!(sends[2].msg.payload, "READ-VALUE");

        let mut relay = MdRelay::new(1);
        let (deliver, relays) = meta(&mut relay, &l, mid(1), &"READ-VALUE");
        assert_eq!(deliver, Some("READ-VALUE"));
        let targets: Vec<usize> = relays.iter().map(|d| d.to_rank).collect();
        // Forward to rank 2 (rest of backbone), ranks 3..5 (outside backbone)
        // and rank 0 (lower-ranked backbone, in case the sender crashed).
        assert!(targets.contains(&2));
        assert!(targets.contains(&3));
        assert!(targets.contains(&4));
        assert!(targets.contains(&5));
        assert!(targets.contains(&0));
        assert!(!targets.contains(&1), "never relays to itself");
    }

    #[test]
    fn meta_non_backbone_server_delivers_without_relaying() {
        let l = layout(6, 2);
        let mut relay = MdRelay::new(5);
        let (deliver, relays) = meta(&mut relay, &l, mid(2), &42u32);
        assert_eq!(deliver, Some(42));
        assert!(relays.is_empty());
        // Duplicate from another backbone server is ignored.
        let (dup, _) = meta(&mut relay, &l, mid(2), &42u32);
        assert!(dup.is_none());
        assert_eq!(relay.tombstones(), 1);
    }

    #[test]
    fn meta_uniformity_for_any_crash_prefix() {
        let n = 6;
        let f = 2;
        let l = layout(n, f);
        for reached in 0..=f {
            let mut relays: Vec<MdRelay> = (0..n).map(MdRelay::new).collect();
            let mut delivered = vec![false; n];
            let mut inbox = vec![(
                reached,
                MdMetaMsg {
                    mid: mid(1),
                    payload: 7u8,
                },
            )];
            while let Some((rank, msg)) = inbox.pop() {
                let deliver = relays[rank].on_meta(&l, msg.mid, &msg.payload, |d| {
                    inbox.push((d.to_rank, d.msg))
                });
                if deliver.is_some() {
                    delivered[rank] = true;
                }
            }
            assert!(delivered.iter().all(|&d| d), "reached={reached}");
        }
    }

    #[test]
    fn md_value_write_cost_is_order_f_squared() {
        // Count normalized data units generated by a complete dispersal with
        // no crashes and verify it is within the paper's 5f² bound and the
        // fan-out `on_full` implements (up to each coded element's
        // share of the one end-marker byte, rounded up).
        for (n, f) in [(5, 2), (9, 4), (11, 5), (15, 7)] {
            let l = layout(n, f);
            let k = n - f;
            let code = VandermondeCode::new(n, k).unwrap();
            let value_size = 1000usize;
            let v = value_from(vec![1u8; value_size]);
            let mut relays: Vec<MdRelay> = (0..n).map(MdRelay::new).collect();
            let mut bytes: u64 = 0;
            let mut inbox: Vec<(usize, MdValueMsg)> = Vec::new();
            for d in md_value_send(&l, mid(1), tag(), v.clone()) {
                bytes += d.msg.data_bytes() as u64;
                inbox.push((d.to_rank, d.msg));
            }
            while let Some((rank, msg)) = inbox.pop() {
                match msg {
                    MdValueMsg::Full { mid, tag, value } => {
                        relays[rank].on_full(&l, &code, mid, tag, &value, |d| {
                            bytes += d.msg.data_bytes() as u64;
                            inbox.push((d.to_rank, d.msg));
                        });
                    }
                    MdValueMsg::Coded { mid, tag, element } => {
                        relays[rank].on_coded(mid, tag, element);
                    }
                }
            }
            let normalized = bytes as f64 / value_size as f64;
            let bound = (5 * f * f) as f64;
            assert!(
                normalized <= bound,
                "n={n} f={f}: cost {normalized:.2} exceeds 5f²={bound}"
            );
            let padding = ((value_size + 1).div_ceil(k) * k) as f64 / value_size as f64;
            let fanout = crate::cost::paper::md_value_fanout(n, f, k);
            assert!(
                normalized <= fanout * padding,
                "n={n} f={f}: cost {normalized:.2} exceeds the fan-out {fanout:.2}"
            );
        }
    }
}
