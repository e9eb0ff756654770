//! Delta-subscription integration: the push stream is **deterministic**
//! and **replayable**.  For a pipelined request script, the `Subscribed`
//! image plus the event stream replayed through
//! [`compview_session::sub::apply_event`] reconstructs exactly what a
//! fresh `Read` returns — byte-identical at 1, 2, and 8 worker threads
//! crossed with 1, 2, and 8 dispatcher shards.  Also covered: the
//! slow-consumer drop policy (bounded outbox, gapless prefix, terminal
//! `SlowConsumer` event) and the refusal of event-marker payloads sent
//! as requests.

use compview_core::SubschemaComponents;
use compview_logic::Schema;
use compview_relation::binio;
use compview_relation::{rel, v, Instance, RelDecl, Signature, Tuple};
use compview_serve::proto::{
    encode_event_payload, expect_handshake, read_frame, send_handshake, write_frame,
};
use compview_serve::{Client, ServeOptions, Server, ServerMessage};
use compview_session::sub::apply_event;
use compview_session::{
    DeltaEvent, DeltaKind, Service, Session, SessionConfig, SessionRequest, SessionResponse,
    TerminateReason,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Serialises the env-twiddling tests (COMPVIEW_THREADS is process-global).
static ENV_LOCK: Mutex<()> = Mutex::new(());

const SESSIONS: [&str; 2] = ["alpha", "beta"];

fn sig() -> Signature {
    Signature::new([RelDecl::new("R", ["A"]), RelDecl::new("S", ["A"])])
}

fn pools() -> BTreeMap<String, Vec<Tuple>> {
    [
        (
            "R".to_owned(),
            vec![Tuple::new([v("a1")]), Tuple::new([v("a2")])],
        ),
        ("S".to_owned(), vec![Tuple::new([v("b1")])]),
    ]
    .into()
}

fn open() -> Session<SubschemaComponents> {
    let sig = sig();
    Session::open(
        SubschemaComponents::singletons(sig.clone()),
        Schema::unconstrained(sig.clone()),
        &pools(),
        Instance::null_model(&sig).with("R", rel(1, [["a1"]])),
        SessionConfig::default(),
    )
    .unwrap()
}

fn demo_service() -> Service<SubschemaComponents> {
    let mut svc = Service::new();
    for name in SESSIONS {
        svc.add_session(name, open()).unwrap();
    }
    svc
}

fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    std::env::set_var("COMPVIEW_THREADS", n.to_string());
    let out = f();
    std::env::remove_var("COMPVIEW_THREADS");
    out
}

// --------------------------------------------------------------- script ops

/// One scripted mutation against one session.  Everything is derived
/// deterministically from the proptest seed, including the failures
/// (removing a tuple that sits in the base state, undoing an empty
/// history) — error responses are part of the determinism contract too.
#[derive(Clone, Debug)]
enum Op {
    /// `Update` the subscribed view to the subset of the session's known
    /// `R` tuples selected by this bitmask (always includes the pool
    /// seeds, so some states repeat — a repeat moves nothing and must
    /// emit nothing).
    Update(u16),
    /// Insert a fresh `R` tuple into the pool.
    Insert,
    /// Try to remove the `i`-th known `R` tuple from the pool.
    Remove(u8),
    Undo,
    Read,
}

/// Derive a script of `len` ops for each session from `seed`.
fn script(seed: u64, len: usize) -> Vec<(usize, Op)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(len);
    let mut inserts = [0usize; 2];
    for _ in 0..len {
        let who = rng.random_range(0..SESSIONS.len() as u32) as usize;
        let op = match rng.random_range(0..10u32) {
            0..=3 => Op::Update(rng.random_range(0..1 << 10) as u16),
            4..=5 if inserts[who] < 7 => {
                inserts[who] += 1;
                Op::Insert
            }
            4..=5 => Op::Update(rng.random_range(0..1 << 10) as u16),
            6 => Op::Remove(rng.random_range(0..10u32) as u8),
            7..=8 => Op::Undo,
            _ => Op::Read,
        };
        out.push((who, op));
    }
    out
}

/// The per-session `R` tuples the script knows about, in insertion
/// order: the two pool seeds plus every `Insert` so far.
fn known_tuples(inserted: usize) -> Vec<Tuple> {
    let mut tuples = vec![Tuple::new([v("a1")]), Tuple::new([v("a2")])];
    for i in 0..inserted {
        tuples.push(Tuple::new([v(&format!("x{i}"))]));
    }
    tuples
}

fn update_state(mask: u16, inserted: usize) -> Instance {
    let tuples = known_tuples(inserted);
    let chosen: Vec<Tuple> = tuples
        .iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, t)| t.clone())
        .collect();
    Instance::null_model(&sig()).with("R", compview_relation::Relation::from_tuples(1, chosen))
}

fn op_request(op: &Op, inserted: &mut usize) -> SessionRequest {
    match op {
        Op::Update(mask) => SessionRequest::Update {
            view: "r".into(),
            new_state: update_state(*mask, *inserted),
        },
        Op::Insert => {
            let tuple = Tuple::new([v(&format!("x{inserted}"))]);
            *inserted += 1;
            SessionRequest::InsertPoolTuple {
                relation: "R".into(),
                tuple,
            }
        }
        Op::Remove(i) => {
            let tuples = known_tuples(*inserted);
            let tuple = tuples[*i as usize % tuples.len()].clone();
            SessionRequest::RemovePoolTuple {
                relation: "R".into(),
                tuple,
            }
        }
        Op::Undo => SessionRequest::Undo,
        Op::Read => SessionRequest::Read { view: "r".into() },
    }
}

// ------------------------------------------------------------ stream runner

/// Everything one config's run observed, for cross-config diffing.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Replies to the scripted (pipelined) phase, in request order.
    replies: Vec<compview_serve::WireResult>,
    /// Per session: initial image, event stream, and the final read.
    streams: BTreeMap<String, (Instance, Vec<DeltaEvent>, Instance)>,
}

/// Run the script against a fresh server at one (threads, shards)
/// config and collect the full observable outcome.
fn run_config(threads: usize, shards: usize, ops: &[(usize, Op)]) -> Observed {
    with_threads(threads, || {
        let server = Server::bind_with(
            "127.0.0.1:0",
            demo_service(),
            ServeOptions {
                shards,
                ..ServeOptions::default()
            },
        )
        .unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();

        // Open phase: register the view and subscribe, per session.
        let mut subs: BTreeMap<String, u64> = BTreeMap::new();
        let mut images: BTreeMap<String, Instance> = BTreeMap::new();
        for name in SESSIONS {
            let reply = client
                .request(
                    name,
                    &SessionRequest::RegisterView {
                        name: "r".into(),
                        mask: 0b01,
                    },
                )
                .unwrap();
            assert!(reply.is_ok(), "{reply:?}");
            let (sub, image) = client.subscribe(name, "r").unwrap().unwrap();
            subs.insert(name.to_owned(), sub);
            images.insert(name.to_owned(), image);
        }

        // Mutation phase, fully pipelined: the script, then a final read
        // and the unsubscribe per session.
        let mut inserted = [0usize; 2];
        let mut sent = 0usize;
        for (who, op) in ops {
            let req = op_request(op, &mut inserted[*who]);
            client.send(SESSIONS[*who], &req).unwrap();
            sent += 1;
        }
        for name in SESSIONS {
            client
                .send(name, &SessionRequest::Read { view: "r".into() })
                .unwrap();
            client
                .send(name, &SessionRequest::Unsubscribe { sub: subs[name] })
                .unwrap();
            sent += 2;
        }

        // Collect replies and events in server order.  Replies arrive in
        // request order, so once the reply at index `sent - 3` (alpha's
        // unsubscribe; beta's is the very last) has landed, any further
        // alpha event would violate the stream contract.
        let mut replies: Vec<compview_serve::WireResult> = Vec::with_capacity(sent);
        let mut events: BTreeMap<String, Vec<DeltaEvent>> = BTreeMap::new();
        while replies.len() < sent {
            match client.recv_message().unwrap() {
                ServerMessage::Reply(r) => replies.push(r),
                ServerMessage::Event { session, event } => {
                    assert!(
                        !(session == SESSIONS[0] && replies.len() > sent - 3),
                        "event after {session}'s unsubscribe: {event:?}"
                    );
                    events.entry(session).or_default().push(event);
                }
            }
        }

        // No event may trail its stream's Unsubscribed response.  The
        // final two replies are the unsubscribes, so by now every stream
        // is over: a probe's answer must arrive with no stray event
        // before it.
        client.send(SESSIONS[0], &SessionRequest::Stats).unwrap();
        match client.recv_message().unwrap() {
            ServerMessage::Reply(r) => assert!(r.is_ok(), "{r:?}"),
            ServerMessage::Event { session, event } => {
                panic!("stray event after unsubscribe: {session}/{event:?}")
            }
        }

        // Final reads: the last `Read { view: "r" }` reply per session.
        let mut streams = BTreeMap::new();
        let mut read_backwards = replies.iter().rev();
        for name in SESSIONS.iter().rev() {
            // Replies arrive in request order: …, read(alpha), unsub(alpha),
            // read(beta), unsub(beta).
            let unsub = read_backwards.next().unwrap();
            assert!(
                matches!(unsub, Ok(SessionResponse::Unsubscribed { .. })),
                "{unsub:?}"
            );
            let read = read_backwards.next().unwrap();
            let Ok(SessionResponse::State(final_read)) = read else {
                panic!("expected the final read, got {read:?}");
            };
            streams.insert(
                (*name).to_owned(),
                (
                    images[*name].clone(),
                    events.remove(*name).unwrap_or_default(),
                    final_read.clone(),
                ),
            );
        }

        drop(client);
        server.shutdown();
        Observed { replies, streams }
    })
}

/// Encode an instance through the canonical binary codec — the
/// "byte-identical" half of the replay assertion.
fn instance_bytes(inst: &Instance) -> Vec<u8> {
    let mut out = Vec::new();
    binio::put_instance(&mut out, inst);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The headline property: replaying the delta stream over the
    /// subscription's initial image reconstructs the final read exactly,
    /// and the entire observable outcome — replies, images, event
    /// streams — is identical at every thread × shard combination.
    #[test]
    fn replayed_stream_reconstructs_the_read_at_every_thread_and_shard_count(
        seed in 0u64..1 << 32,
    ) {
        let _guard = ENV_LOCK.lock().unwrap();
        let ops = script(seed, 18);
        let mut baseline: Option<Observed> = None;
        for &threads in &[1usize, 2, 8] {
            for &shards in &[1usize, 2, 8] {
                let observed = run_config(threads, shards, &ops);
                for (name, (image0, events, final_read)) in &observed.streams {
                    // Sequences are consecutive from 1, streams all Rows.
                    for (i, ev) in events.iter().enumerate() {
                        prop_assert_eq!(ev.seq, i as u64 + 1, "{} event {}", name, i);
                        prop_assert_eq!(&ev.view, "r");
                        prop_assert!(
                            matches!(ev.kind, DeltaKind::Rows { .. }),
                            "{}: unexpected terminal {:?}", name, ev
                        );
                    }
                    // Replay: image0 + events == the fresh read, byte for
                    // byte through the canonical codec.
                    let mut replayed = image0.clone();
                    for ev in events {
                        replayed = apply_event(&replayed, ev);
                    }
                    prop_assert_eq!(&replayed, final_read, "{} replay diverged", name);
                    prop_assert_eq!(
                        instance_bytes(&replayed),
                        instance_bytes(final_read),
                        "{} replay bytes diverged", name
                    );
                }
                match &baseline {
                    None => baseline = Some(observed),
                    Some(first) => prop_assert_eq!(
                        first, &observed,
                        "threads={} shards={} diverged from threads=1 shards=1",
                        threads, shards
                    ),
                }
            }
        }
    }
}

// -------------------------------------------------------- slow consumers

/// A subscriber that stops reading is dropped at the outbox cap: it
/// receives a gapless prefix of the stream, then a terminal
/// `SlowConsumer` event whose sequence pinpoints the cut, then nothing.
/// The writer side never stalls: a second client keeps the session fully
/// responsive throughout.
#[test]
fn slow_consumer_is_cut_with_a_terminal_event() {
    let _guard = ENV_LOCK.lock().unwrap();
    // Few but very fat tuples: the state space stays tiny (2^8) while a
    // full-image delta weighs ~512 KiB — far past any socket buffering.
    let sig = Signature::new([RelDecl::new("R", ["A"])]);
    let fat = |i: usize| Tuple::new([v(&format!("{i:065000}"))]);
    let pool: BTreeMap<String, Vec<Tuple>> =
        [("R".to_owned(), (0..8).map(fat).collect::<Vec<_>>())].into();
    let full = Instance::null_model(&sig).with(
        "R",
        compview_relation::Relation::from_tuples(1, (0..8).map(fat).collect::<Vec<_>>()),
    );
    let empty = Instance::null_model(&sig);
    let session = Session::open(
        SubschemaComponents::singletons(sig.clone()),
        Schema::unconstrained(sig.clone()),
        &pool,
        empty.clone(),
        SessionConfig::default(),
    )
    .unwrap();
    let mut svc = Service::new();
    svc.add_session("alpha", session).unwrap();

    let server = Server::bind_with(
        "127.0.0.1:0",
        svc,
        ServeOptions {
            shards: 1,
            event_outbox_cap: 1,
            ..ServeOptions::default()
        },
    )
    .unwrap();

    // The slow consumer: subscribes, then stops reading.
    let mut slow = Client::connect(server.local_addr()).unwrap();
    let reply = slow
        .request(
            "alpha",
            &SessionRequest::RegisterView {
                name: "r".into(),
                mask: 0b1,
            },
        )
        .unwrap();
    assert!(reply.is_ok(), "{reply:?}");
    let (sub, image0) = slow.subscribe("alpha", "r").unwrap().unwrap();

    // The firehose: flips the whole 8-tuple image back and forth, ~512
    // KiB of delta per update.
    let mut fast = Client::connect(server.local_addr()).unwrap();
    let updates = 120usize;
    for i in 0..updates {
        let state = if i % 2 == 0 { &full } else { &empty };
        fast.send(
            "alpha",
            &SessionRequest::Update {
                view: "r".into(),
                new_state: state.clone(),
            },
        )
        .unwrap();
    }
    let mut applied = 0usize;
    for _ in 0..updates {
        let reply = fast.recv().unwrap();
        assert!(reply.is_ok(), "{reply:?}");
        applied += 1;
    }
    assert_eq!(applied, updates, "the fast client never stalled");

    // The session no longer carries the subscription (drop happened
    // server-side), and the drop is visible in the metrics.
    let stats = fast.request("alpha", &SessionRequest::Stats).unwrap();
    let Ok(SessionResponse::Stats(snap)) = stats else {
        panic!("{stats:?}");
    };
    assert_eq!(snap.active_subs, 0, "slow subscription still live");
    let metrics = fast.metrics().unwrap();
    let slow_drops = metrics
        .counters
        .iter()
        .find(|(n, _)| n == "serve.sub.slow_drops")
        .map(|(_, v)| *v)
        .unwrap_or(0);
    assert_eq!(slow_drops, 1, "expected exactly one slow-consumer drop");

    // Now drain the slow consumer: a gapless prefix of Rows events, then
    // the terminal SlowConsumer at the cut, then end-of-stream.
    let mut replayed = image0;
    let mut next_seq = 1u64;
    let terminal = loop {
        let (session, event) = slow.next_event().unwrap();
        assert_eq!(session, "alpha");
        assert_eq!(event.sub, sub);
        assert_eq!(event.seq, next_seq, "gap in the delivered prefix");
        next_seq += 1;
        match &event.kind {
            DeltaKind::Rows { .. } => replayed = apply_event(&replayed, &event),
            DeltaKind::Terminated { reason } => break reason.clone(),
        }
    };
    assert_eq!(terminal, TerminateReason::SlowConsumer);
    assert!(
        next_seq as usize - 1 <= updates,
        "more events than updates?"
    );
    // The replayed prefix is a real intermediate state: the image after
    // `delivered` updates (full on odd counts, empty on even).
    let delivered = next_seq as usize - 2; // rows events before the terminal
    let expected = if delivered % 2 == 1 { &full } else { &empty };
    assert_eq!(&replayed, expected, "prefix replay diverged");
    // After the terminal, the stream is over: the connection still
    // answers requests, and no further event precedes the answer.
    slow.send("alpha", &SessionRequest::Stats).unwrap();
    match slow.recv_message().unwrap() {
        ServerMessage::Reply(r) => assert!(r.is_ok(), "{r:?}"),
        ServerMessage::Event { event, .. } => panic!("event after terminal: {event:?}"),
    }

    server.shutdown();
}

// ------------------------------------------------------------- robustness

/// An event-marker payload sent *as a request* is a protocol violation:
/// the server refuses it with a typed decode error, drops that
/// connection only, and keeps serving everyone else.
#[test]
fn event_payload_as_request_costs_only_that_connection() {
    let _guard = ENV_LOCK.lock().unwrap();
    let server = Server::bind("127.0.0.1:0", demo_service()).unwrap();

    let mut rogue = std::net::TcpStream::connect(server.local_addr()).unwrap();
    send_handshake(&mut rogue).unwrap();
    expect_handshake(&mut rogue).unwrap();
    // A perfectly framed, CRC-valid event payload — in the wrong
    // direction.
    let event = DeltaEvent {
        sub: 1,
        view: "r".into(),
        seq: 1,
        kind: DeltaKind::Terminated {
            reason: TerminateReason::SlowConsumer,
        },
    };
    write_frame(&mut rogue, &encode_event_payload("alpha", &event)).unwrap();
    // The server hangs up on the rogue…
    assert!(matches!(read_frame(&mut rogue), Ok(None) | Err(_)));

    // …while a well-behaved client is unaffected.
    let mut client = Client::connect(server.local_addr()).unwrap();
    let reply = client.request("alpha", &SessionRequest::Stats).unwrap();
    assert!(reply.is_ok(), "{reply:?}");
    let metrics = client.metrics().unwrap();
    let malformed = metrics
        .counters
        .iter()
        .find(|(n, _)| n == "serve.malformed_frames")
        .map(|(_, v)| *v)
        .unwrap_or(0);
    assert_eq!(malformed, 1);

    server.shutdown();
}

/// Unsubscribing an unknown id answers a typed session error — no
/// stream, no side effects, connection intact.
#[test]
fn unknown_unsubscribe_is_a_typed_error() {
    let _guard = ENV_LOCK.lock().unwrap();
    let server = Server::bind("127.0.0.1:0", demo_service()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let reply = client
        .request("alpha", &SessionRequest::Unsubscribe { sub: 42 })
        .unwrap();
    assert!(
        matches!(
            reply,
            Err(compview_session::DispatchError::Session(
                compview_session::SessionError::UnknownSubscription { sub: 42 }
            ))
        ),
        "{reply:?}"
    );
    // The connection is still healthy.
    let reply = client.request("alpha", &SessionRequest::Stats).unwrap();
    assert!(reply.is_ok(), "{reply:?}");
    server.shutdown();
}

/// A subscriber whose connection dies mid-stream is cleaned up: the
/// session's live-subscription count returns to zero once the server
/// notices, and other clients are untouched — at 1, 2 and 8 dispatcher
/// shards, so the `Cancel` broadcast must reach whichever shard owns the
/// session.
#[test]
fn dead_connection_drops_its_subscriptions() {
    for shards in [1usize, 2, 8] {
        dead_connection_drops_its_subscriptions_at(shards);
    }
}

fn dead_connection_drops_its_subscriptions_at(shards: usize) {
    let _guard = ENV_LOCK.lock().unwrap();
    let server = Server::bind_sharded("127.0.0.1:0", demo_service(), shards).unwrap();
    let mut doomed = Client::connect(server.local_addr()).unwrap();
    let reply = doomed
        .request(
            "alpha",
            &SessionRequest::RegisterView {
                name: "r".into(),
                mask: 0b01,
            },
        )
        .unwrap();
    assert!(reply.is_ok(), "{reply:?}");
    doomed.subscribe("alpha", "r").unwrap().unwrap();
    drop(doomed); // hangs up with the subscription live

    // The reader notices the hangup and cancels the subscription on the
    // owning shard; poll until the count drops.
    let mut client = Client::connect(server.local_addr()).unwrap();
    let mut live = usize::MAX;
    for _ in 0..200 {
        let stats = client.request("alpha", &SessionRequest::Stats).unwrap();
        let Ok(SessionResponse::Stats(snap)) = stats else {
            panic!("{stats:?}");
        };
        live = snap.active_subs;
        if live == 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert_eq!(
        live, 0,
        "{shards} shards: dead connection's subscription never dropped"
    );
    server.shutdown();
}
