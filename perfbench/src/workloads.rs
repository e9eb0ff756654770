//! The three workloads: input generation from the seed, the closed
//! loops that send it, and the end-of-round correctness gate.
//!
//! Every round is a fresh deployment: set up, a fixed number of
//! operations, checks, teardown.  A run repeats rounds, so per-round
//! memory (the catalog keeps every prior base state for undo) stays
//! bounded and set-up is sampled more than once.

use crate::fixture::{matches, session_name, Class, Expect, Fixture, Op, SETUP_RECORDS, VIEWS};
use crate::rng::{Rng, Zipf};
use crate::stats::Samples;
use crate::wire::{micros, SubTracker, Wire};
use compview_obs::{MetricsSnapshot, SpanRecord};
use compview_serve::proto::encode_result_payload;
use compview_serve::{Replica, ReplicaOptions, ServeOptions, Server, ServerMessage, WireResult};
use compview_session::{SessionRequest, SessionResponse};
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// Requests in flight on a write_path connection.
pub const WRITE_WINDOW: usize = 4;
/// Follower reads in flight on replica_read.
pub const READ_WINDOW: usize = 4;
/// Follower reads per leader write on replica_read.
const READS_PER_WRITE: usize = 4;
/// Updates per session written before the follower starts, which it
/// must catch up on.
const PREWRITES: usize = 16;
/// A traced run drains the server span buffers after this many
/// operations, well inside the buffer's capacity.
const DRAIN_EVERY: usize = 2048;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    WritePath,
    ReplicaRead,
    PoolChurn,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "write_path" => Some(Workload::WritePath),
            "replica_read" => Some(Workload::ReplicaRead),
            "pool_churn" => Some(Workload::PoolChurn),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::WritePath => "write_path",
            Workload::ReplicaRead => "replica_read",
            Workload::PoolChurn => "pool_churn",
        }
    }

    /// 256 states for the transport workloads, 512 for pool_churn.
    pub fn fixture(self) -> Fixture {
        match self {
            Workload::PoolChurn => Fixture {
                r_pool: 6,
                s_pool: 3,
            },
            _ => Fixture {
                r_pool: 5,
                s_pool: 3,
            },
        }
    }

    pub fn sessions(self) -> usize {
        match self {
            Workload::WritePath => 64,
            Workload::ReplicaRead => 16,
            Workload::PoolChurn => 1,
        }
    }

    /// Operations per round: leader writes on replica_read (each with
    /// its follower reads), cycles of four on pool_churn, requests on
    /// write_path.
    pub fn round_size(self) -> usize {
        match self {
            Workload::WritePath => 12_000,
            Workload::ReplicaRead => 2_000,
            Workload::PoolChurn => 60,
        }
    }

    /// Run one round with inputs drawn from `(seed, index)`.
    pub fn round(self, seed: u64, index: u64, size: usize, traced: bool) -> Result<Round, String> {
        let mut rng = Rng::derived(seed, index);
        match self {
            Workload::WritePath | Workload::PoolChurn => {
                let ops = self.pipelined_ops(&mut rng, size);
                pipelined_round(self, &ops, traced)
            }
            Workload::ReplicaRead => {
                replica_round(&ReplicaInputs::generate(&mut rng, size), traced)
            }
        }
    }

    /// The requests of round `(seed, index)` as one leader-side stream,
    /// for the in-process replay that isolates the layers below the wire.
    pub fn replay_stream(self, seed: u64, index: u64) -> Vec<Op> {
        let size = self.round_size();
        let mut rng = Rng::derived(seed, index);
        match self {
            Workload::ReplicaRead => ReplicaInputs::generate(&mut rng, size).leader_stream(),
            _ => self.pipelined_ops(&mut rng, size),
        }
    }

    fn pipelined_ops(self, rng: &mut Rng, size: usize) -> Vec<Op> {
        match self {
            Workload::PoolChurn => churn_ops(self.fixture(), rng, size),
            _ => write_path_ops(self.fixture(), self.sessions(), rng, size),
        }
    }
}

/// What one round measured.
#[derive(Default)]
pub struct Round {
    pub setup_s: f64,
    pub run_s: f64,
    pub ops: u64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub update_us: Samples,
    pub read_us: Samples,
    pub visible_us: Samples,
    pub edit_us: Samples,
    /// Share of the machine's CPU time the hypervisor stole during the
    /// round.
    pub steal: f64,
    /// Replica catch-up during set-up: records shipped, seconds.
    pub catchup: Option<(u64, f64)>,
    pub capture: Option<Capture>,
}

impl Round {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    /// Check an answer against the model and file its latency.
    fn record(&mut self, op: &Op, us: f64, got: &WireResult) {
        self.attempted += 1;
        self.ops += 1;
        if !matches(&op.expect, got) {
            self.fail(format!(
                "{:?} on {} answered {got:?}",
                op.req.label(),
                session_name(op.session)
            ));
            return;
        }
        match op.class {
            Class::Update => self.update_us.push(us),
            Class::Read => self.read_us.push(us),
            Class::Insert | Class::Remove => self.edit_us.push(us),
            Class::Planted => {}
        }
    }

    /// File a subscription event's check: its visibility latency, or
    /// why it was wrong.
    fn event(&mut self, outcome: Result<f64, String>) {
        match outcome {
            Ok(us) => self.visible_us.push(us),
            Err(e) => self.fail(e),
        }
    }

    /// A gate check that is not tied to one operation.
    fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.fail(msg());
        }
    }
}

/// What a traced round collects for layer attribution.
#[derive(Default)]
pub struct Capture {
    /// Spans drained from the node taking writes and, when it is a
    /// different node, from the one serving reads.
    pub writer_spans: Vec<SpanRecord>,
    pub reader_spans: Vec<SpanRecord>,
    pub split_nodes: bool,
    /// Trace id → the class of the request that opened it.
    pub class_of: HashMap<u64, Class>,
    /// Trace id → client-observed latency, µs.
    pub wire_us: HashMap<u64, f64>,
    /// Metrics of the node taking writes, after set-up and at the end.
    pub writer: (MetricsSnapshot, MetricsSnapshot),
    /// Metrics of the node serving reads and the subscription.
    pub reader: (MetricsSnapshot, MetricsSnapshot),
    /// Undo entries held across all sessions at the end.
    pub history_len: u64,
    /// Durable writes, accepted updates and pool edits sent this round.
    pub durable_writes: u64,
    pub updates: u64,
    pub pool_edits: u64,
    /// Time spent draining spans inside the timed loop, seconds.
    pub drain_s: f64,
}

impl Capture {
    fn note(&mut self, trace_id: u64, class: Class, us: f64) {
        if trace_id != 0 {
            self.class_of.insert(trace_id, class);
            self.wire_us.insert(trace_id, us);
        }
    }

    fn drain(&mut self, wire: &mut Wire, reader: bool) -> Result<(), String> {
        let t = Instant::now();
        let snap = wire
            .client
            .trace()
            .map_err(|e| format!("trace drain: {e}"))?;
        if reader {
            self.reader_spans.extend(snap.spans);
        } else {
            self.writer_spans.extend(snap.spans);
        }
        self.drain_s += t.elapsed().as_secs_f64();
        Ok(())
    }
}

fn metrics(wire: &mut Wire) -> Result<MetricsSnapshot, String> {
    wire.client.metrics().map_err(|e| format!("metrics: {e}"))
}

fn serve_options(traced: bool) -> ServeOptions {
    ServeOptions {
        shards: 1,
        trace_sample: u64::from(traced),
        ..ServeOptions::default()
    }
}

/// write_path: Zipf(1.0) over the sessions; 2% planted refusals at
/// fixed positions, the rest 80:18 updates to reads.  Every update
/// moves its view.
fn write_path_ops(fixture: Fixture, sessions: usize, rng: &mut Rng, size: usize) -> Vec<Op> {
    let zipf = Zipf::new(sessions, 1.0);
    let mut model = vec![Fixture::initial_masks(); sessions];
    (0..size)
        .map(|i| {
            let s = zipf.sample(rng);
            if i % 50 == 25 {
                return Op::planted(s);
            }
            let view = rng.below(2) as usize;
            if rng.below(98) < 80 {
                let mask = rng.other_mask(fixture.pool_size(view), model[s][view]);
                model[s][view] = mask;
                Op::update(s, view, mask)
            } else {
                Op::read(s, view, model[s][view])
            }
        })
        .collect()
}

/// pool_churn: `size` cycles of insert, update, read, remove on one
/// session; the inserted tuple is the one just past the pool, the
/// update stays inside the original pool so the remove is legal.
fn churn_ops(fixture: Fixture, rng: &mut Rng, size: usize) -> Vec<Op> {
    let extra = Fixture::tuple(0, fixture.r_pool);
    let edit = |class, req| Op {
        session: 0,
        class,
        req,
        expect: Expect::Edited,
    };
    let mut mask = Fixture::initial_masks()[0];
    let mut ops = Vec::with_capacity(size * 4);
    for _ in 0..size {
        ops.push(edit(
            Class::Insert,
            SessionRequest::InsertPoolTuple {
                relation: VIEWS[0].2.to_owned(),
                tuple: extra.clone(),
            },
        ));
        mask = rng.other_mask(fixture.r_pool, mask);
        ops.push(Op::update(0, 0, mask));
        ops.push(Op::read(0, 0, mask));
        ops.push(edit(
            Class::Remove,
            SessionRequest::RemovePoolTuple {
                relation: VIEWS[0].2.to_owned(),
                tuple: extra.clone(),
            },
        ));
    }
    ops
}

/// The view an accepted update moves, and the mask it moves it to.
fn update_target(op: &Op) -> Option<(usize, u32)> {
    match (&op.expect, &op.req) {
        (Expect::Updated, SessionRequest::Update { view, new_state }) => {
            let v = VIEWS
                .iter()
                .position(|x| x.0 == view)
                .expect("generated updates name registered views");
            let rel = new_state.rel(VIEWS[v].2);
            let mask = (0..32)
                .filter(|&i| rel.contains(&Fixture::tuple(v, i)))
                .fold(0, |m, i| m | 1 << i);
            Some((v, mask))
        }
        _ => None,
    }
}

/// The mask an op moves the subscribed view (session 0, view `r`) to.
fn moves_sub(op: &Op) -> Option<u32> {
    match update_target(op) {
        Some((0, mask)) if op.session == 0 => Some(mask),
        _ => None,
    }
}

/// The model's view masks after `ops`, per session.
fn final_model(sessions: usize, ops: &[Op]) -> Vec<[u32; 2]> {
    let mut model = vec![Fixture::initial_masks(); sessions];
    for op in ops {
        if let Some((v, mask)) = update_target(op) {
            model[op.session][v] = mask;
        }
    }
    model
}

/// write_path and pool_churn: one connection with a subscription on
/// session 0's view `r`, `window` requests in flight.
fn pipelined_round(workload: Workload, ops: &[Op], traced: bool) -> Result<Round, String> {
    let fixture = workload.fixture();
    let sessions = workload.sessions();
    let window = if workload == Workload::PoolChurn {
        1
    } else {
        WRITE_WINDOW
    };
    let names: Vec<String> = (0..sessions).map(session_name).collect();
    let mut round = Round::default();

    let setup = Instant::now();
    let server = Server::bind_with(
        "127.0.0.1:0",
        fixture.service(sessions, true),
        serve_options(traced),
    )
    .map_err(|e| format!("bind: {e}"))?;
    let mut wire = Wire::connect(server.local_addr(), traced)?;
    let mut sub = SubTracker::open(&mut wire, &names[0], 0, Fixture::initial_masks()[0])?;
    round.setup_s = setup.elapsed().as_secs_f64();

    let mut cap = traced.then(Capture::default);
    if let Some(cap) = cap.as_mut() {
        let m = metrics(&mut wire)?;
        cap.writer.0 = m.clone();
        cap.reader.0 = m;
    }
    let started = Instant::now();
    let chunk = if traced {
        DRAIN_EVERY
    } else {
        ops.len().max(1)
    };
    for part in ops.chunks(chunk) {
        let mut pending: VecDeque<(&Op, Instant, u64)> = VecDeque::new();
        let mut next = part.iter();
        loop {
            while pending.len() < window {
                let Some(op) = next.next() else { break };
                let sent = Instant::now();
                let trace_id = wire.send(&names[op.session], &op.req)?;
                if let Some(mask) = moves_sub(op) {
                    sub.owe(sent, mask);
                }
                pending.push_back((op, sent, trace_id));
            }
            let Some(&(op, sent, trace_id)) = pending.front() else {
                break;
            };
            match wire.client.recv_message().map_err(|e| e.to_string())? {
                ServerMessage::Event { session, event } => {
                    round.event(sub.on_event(&session, &event))
                }
                ServerMessage::Reply(got) => {
                    let us = micros(sent);
                    pending.pop_front();
                    round.record(op, us, &got);
                    if let Some(e) = sub.missed(sent) {
                        round.fail(e);
                    }
                    if let Some(cap) = cap.as_mut() {
                        cap.note(trace_id, op.class, us);
                    }
                }
            }
        }
        if let Some(cap) = cap.as_mut() {
            cap.drain(&mut wire, false)?;
        }
    }
    round.run_s = started.elapsed().as_secs_f64() - cap.as_ref().map_or(0.0, |c| c.drain_s);
    if let Some(cap) = cap.as_mut() {
        let m = metrics(&mut wire)?;
        cap.writer.1 = m.clone();
        cap.reader.1 = m;
    }

    // The gate: logs hold exactly the durable requests sent, every view
    // reads as the model says, the stream saw every moving write.
    let model = final_model(sessions, ops);
    let mut undoable = 0;
    for (s, name) in names.iter().enumerate() {
        let durable = ops
            .iter()
            .filter(|op| op.session == s && op.is_durable())
            .count() as u64;
        let stats = stats_of(&mut wire, name)?;
        undoable += stats.undoable as u64;
        round.check(stats.wal_seq == SETUP_RECORDS + durable, || {
            format!(
                "{name}: wal_seq {} != {} durable requests",
                stats.wal_seq,
                SETUP_RECORDS + durable
            )
        });
        let planted = ops
            .iter()
            .filter(|op| op.session == s && op.class == Class::Planted)
            .count() as u64;
        let refused = &stats.counters.rejected_by_variant;
        round.check(
            stats.counters.rejected == planted
                && refused.get("StateOutsideSpace").copied().unwrap_or(0) == planted,
            || format!("{name}: refusals {refused:?}, {planted} planted"),
        );
        round.check(stats.states == fixture.states(), || {
            format!(
                "{name}: {} states, expected {}",
                stats.states,
                fixture.states()
            )
        });
        for (view, mask) in model[s].iter().enumerate() {
            let got = request(&mut wire, name, &crate::fixture::read_req(view))?;
            round.check(matches(&Expect::Image(view, *mask), &got), || {
                format!(
                    "{name}/{}: final read {got:?} differs from the model",
                    VIEWS[view].0
                )
            });
        }
    }
    let moving = ops.iter().filter(|op| moves_sub(op).is_some()).count() as u64;
    round.check(sub.events == moving, || {
        format!("{} events for {moving} moving writes", sub.events)
    });
    let answered = round.attempted;
    round.check(answered == ops.len() as u64, || {
        format!("{answered} of {} operations answered", ops.len())
    });
    if let Some(cap) = cap.as_mut() {
        cap.history_len = undoable;
        cap.durable_writes = ops.iter().filter(|op| op.is_durable()).count() as u64;
        cap.updates = ops.iter().filter(|op| op.class == Class::Update).count() as u64;
        cap.pool_edits = ops
            .iter()
            .filter(|op| matches!(op.class, Class::Insert | Class::Remove))
            .count() as u64;
    }
    round.capture = cap;
    drop(wire);
    drop(server.shutdown());
    Ok(round)
}

fn request(wire: &mut Wire, session: &str, req: &SessionRequest) -> Result<WireResult, String> {
    wire.client
        .request(session, req)
        .map_err(|e| format!("{}: {e}", req.label()))
}

fn stats_of(wire: &mut Wire, session: &str) -> Result<compview_session::StatsSnapshot, String> {
    match request(wire, session, &SessionRequest::Stats)? {
        Ok(SessionResponse::Stats(s)) => Ok(s),
        other => Err(format!("{session}: Stats answered {other:?}")),
    }
}

/// replica_read inputs: leader writes (Zipf over the sessions) and the
/// follower reads that run beside them, plus each view's version list
/// so a follower read can be checked against any state it may lawfully
/// show.
struct ReplicaInputs {
    prewrites: Vec<Op>,
    writes: Vec<Op>,
    reads: Vec<(usize, usize)>,
}

impl ReplicaInputs {
    fn generate(rng: &mut Rng, size: usize) -> ReplicaInputs {
        let workload = Workload::ReplicaRead;
        let fixture = workload.fixture();
        let sessions = workload.sessions();
        let mut model = vec![Fixture::initial_masks(); sessions];
        let mut write = |rng: &mut Rng, s: usize| {
            let view = rng.below(2) as usize;
            let mask = rng.other_mask(fixture.pool_size(view), model[s][view]);
            model[s][view] = mask;
            Op::update(s, view, mask)
        };
        let prewrites = (0..sessions * PREWRITES)
            .map(|i| write(rng, i % sessions))
            .collect();
        let zipf = Zipf::new(sessions, 1.0);
        let writes = (0..size)
            .map(|_| {
                let s = zipf.sample(rng);
                write(rng, s)
            })
            .collect();
        let reads = (0..size * READS_PER_WRITE + READ_WINDOW)
            .map(|_| (rng.below(sessions as u64) as usize, rng.below(2) as usize))
            .collect();
        ReplicaInputs {
            prewrites,
            writes,
            reads,
        }
    }

    /// Writes and reads interleaved as one stream against the leader.
    fn leader_stream(&self) -> Vec<Op> {
        let mut out = self.prewrites.clone();
        let mut model = final_model(Workload::ReplicaRead.sessions(), &out);
        let mut reads = self.reads.iter();
        for w in &self.writes {
            out.push(w.clone());
            if let Some((v, mask)) = update_target(w) {
                model[w.session][v] = mask;
            }
            for &(s, view) in reads.by_ref().take(READS_PER_WRITE) {
                out.push(Op::read(s, view, model[s][view]));
            }
        }
        out
    }
}

/// Per-view version history: index 0 is the opening image, and each
/// write sent appends one.  A follower read is lawful when it shows a
/// version no older than the last one that connection saw and no newer
/// than the last write sent.
struct Versions {
    list: Vec<[Vec<u32>; 2]>,
    seen: Vec<[usize; 2]>,
}

impl Versions {
    fn new(sessions: usize) -> Versions {
        let init = Fixture::initial_masks();
        Versions {
            list: vec![[vec![init[0]], vec![init[1]]]; sessions],
            seen: vec![[0, 0]; sessions],
        }
    }

    fn sent(&mut self, op: &Op) {
        if let Some((v, mask)) = update_target(op) {
            self.list[op.session][v].push(mask);
        }
    }

    fn latest(&self, s: usize, view: usize) -> u32 {
        *self.list[s][view]
            .last()
            .expect("the opening image is version 0")
    }

    /// Whether `got` is lawful for `(s, view)`; advances the floor.
    fn observe(&mut self, s: usize, view: usize, got: &WireResult) -> bool {
        let fixture = Workload::ReplicaRead.fixture();
        let Some(mask) = crate::fixture::image_mask(view, &fixture, got) else {
            return false;
        };
        let versions = &self.list[s][view];
        match (self.seen[s][view]..versions.len()).find(|&j| versions[j] == mask) {
            Some(j) => {
                self.seen[s][view] = j;
                true
            }
            None => false,
        }
    }
}

/// The follower connection of replica_read: reads in flight, the
/// subscription, and the version history reads are checked against.
struct Follower {
    wire: Wire,
    sub: SubTracker,
    in_flight: VecDeque<((usize, usize), Instant, u64)>,
    versions: Versions,
}

impl Follower {
    fn send_read(&mut self, names: &[String], (s, view): (usize, usize)) -> Result<(), String> {
        let sent = Instant::now();
        let trace_id = self.wire.send(&names[s], &crate::fixture::read_req(view))?;
        self.in_flight.push_back(((s, view), sent, trace_id));
        Ok(())
    }

    /// Take the next arrival: check an event, or check and time the
    /// oldest read.  Returns whether it was a read reply.
    fn take(
        &mut self,
        names: &[String],
        round: &mut Round,
        cap: Option<&mut Capture>,
    ) -> Result<bool, String> {
        let got = match self.wire.client.recv_message().map_err(|e| e.to_string())? {
            ServerMessage::Event { session, event } => {
                round.event(self.sub.on_event(&session, &event));
                return Ok(false);
            }
            ServerMessage::Reply(got) => got,
        };
        let Some(((s, view), sent, trace_id)) = self.in_flight.pop_front() else {
            round.fail(format!("read reply nobody awaited: {got:?}"));
            return Ok(false);
        };
        let us = micros(sent);
        round.attempted += 1;
        round.ops += 1;
        if self.versions.observe(s, view, &got) {
            round.read_us.push(us);
        } else {
            round.fail(format!(
                "{}/{}: follower read {got:?} is no version the leader was sent",
                names[s], VIEWS[view].0
            ));
        }
        if let Some(cap) = cap {
            cap.note(trace_id, Class::Read, us);
        }
        Ok(true)
    }
}

fn replica_options(traced: bool, seed: u64) -> ReplicaOptions {
    ReplicaOptions {
        serve: serve_options(traced),
        retry_base: Duration::from_millis(2),
        retry_max: Duration::from_millis(50),
        read_timeout: Duration::from_secs(2),
        connect_attempts: 50,
        seed,
        ..ReplicaOptions::default()
    }
}

/// replica_read: a leader and one in-process follower; one connection
/// writes to the leader (1 in flight), one reads from the follower (4 in
/// flight) and holds a subscription there on session 0's view `r`.
fn replica_round(inputs: &ReplicaInputs, traced: bool) -> Result<Round, String> {
    let workload = Workload::ReplicaRead;
    let fixture = workload.fixture();
    let sessions = workload.sessions();
    let names: Vec<String> = (0..sessions).map(session_name).collect();
    let mut round = Round::default();
    let mut versions = Versions::new(sessions);

    let setup = Instant::now();
    let leader = Server::bind_with(
        "127.0.0.1:0",
        fixture.service(sessions, true),
        serve_options(traced),
    )
    .map_err(|e| format!("bind leader: {e}"))?;
    let mut writer = Wire::connect(leader.local_addr(), traced)?;
    for chunk in inputs.prewrites.chunks(64) {
        for op in chunk {
            writer.send(&names[op.session], &op.req)?;
            versions.sent(op);
        }
        for op in chunk {
            let got = writer.client.recv().map_err(|e| e.to_string())?;
            round.record(op, 0.0, &got);
        }
    }
    // Pre-writes are set-up, not load.
    round.update_us = Samples::default();
    round.ops = 0;
    let catchup = Instant::now();
    let replica = Replica::start(
        "127.0.0.1:0",
        &leader.local_addr().to_string(),
        fixture.service(sessions, false),
        replica_options(traced, 0x5EED),
    )
    .map_err(|e| format!("replica start: {e:?}"))?;
    let records = (sessions as u64) * SETUP_RECORDS + inputs.prewrites.len() as u64;
    round.catchup = Some((records, catchup.elapsed().as_secs_f64()));
    let mut wire = Wire::connect(replica.local_addr(), traced)?;
    let sub = SubTracker::open(&mut wire, &names[0], 0, versions.latest(0, 0))?;
    let mut reader = Follower {
        wire,
        sub,
        in_flight: VecDeque::new(),
        versions,
    };
    round.setup_s = setup.elapsed().as_secs_f64();

    let mut cap = traced.then(Capture::default);
    if let Some(cap) = cap.as_mut() {
        cap.split_nodes = true;
        cap.writer.0 = metrics(&mut writer)?;
        cap.reader.0 = metrics(&mut reader.wire)?;
    }
    let started = Instant::now();
    let mut reads = inputs.reads.iter();
    let chunk = if traced {
        DRAIN_EVERY / (1 + READS_PER_WRITE)
    } else {
        inputs.writes.len().max(1)
    };
    for part in inputs.writes.chunks(chunk) {
        for w in part {
            while reader.in_flight.len() < READ_WINDOW {
                let Some(&read) = reads.next() else { break };
                reader.send_read(&names, read)?;
            }
            let sent = Instant::now();
            let trace_id = writer.send(&names[w.session], &w.req)?;
            reader.versions.sent(w);
            if let Some(mask) = moves_sub(w) {
                reader.sub.owe(sent, mask);
            }
            let got = writer.client.recv().map_err(|e| e.to_string())?;
            let us = micros(sent);
            round.record(w, us, &got);
            if let Some(cap) = cap.as_mut() {
                cap.note(trace_id, Class::Update, us);
            }
            // Take this write's share of follower reads, refilling the
            // window, then wait until its event (if any) is visible.
            let mut answered = 0;
            while (answered < READS_PER_WRITE && !reader.in_flight.is_empty())
                || reader.sub.owed() > 0
            {
                if reader.take(&names, &mut round, cap.as_mut())? {
                    answered += 1;
                    if answered <= READS_PER_WRITE {
                        if let Some(&read) = reads.next() {
                            reader.send_read(&names, read)?;
                        }
                    }
                }
            }
        }
        // Empty the window, so spans and counters cover whole requests.
        while !reader.in_flight.is_empty() {
            reader.take(&names, &mut round, cap.as_mut())?;
        }
        if let Some(cap) = cap.as_mut() {
            cap.drain(&mut writer, false)?;
            cap.drain(&mut reader.wire, true)?;
        }
    }
    round.run_s = started.elapsed().as_secs_f64() - cap.as_ref().map_or(0.0, |c| c.drain_s);
    if let Some(cap) = cap.as_mut() {
        cap.writer.1 = metrics(&mut writer)?;
        cap.reader.1 = metrics(&mut reader.wire)?;
    }

    // The gate: leader logs hold exactly the durable requests sent; once
    // the follower reaches the leader's position its reads and content
    // stats are byte-identical to the leader's; the follower stream saw
    // every moving write.
    let mut undoable = 0;
    for (s, name) in names.iter().enumerate() {
        let durable = inputs
            .prewrites
            .iter()
            .chain(&inputs.writes)
            .filter(|op| op.session == s)
            .count() as u64;
        let lead = stats_of(&mut writer, name)?;
        undoable += lead.undoable as u64;
        round.check(lead.wal_seq == SETUP_RECORDS + durable, || {
            format!(
                "{name}: wal_seq {} != {} durable requests",
                lead.wal_seq,
                SETUP_RECORDS + durable
            )
        });
        for (view, (vname, ..)) in VIEWS.iter().enumerate() {
            let from_leader = request(&mut writer, name, &crate::fixture::read_req(view))?;
            let from_follower = reader
                .wire
                .client
                .read_at(
                    name,
                    vname,
                    lead.wal_gen,
                    lead.wal_seq,
                    Duration::from_secs(10),
                )
                .map_err(|e| e.to_string())?;
            round.check(
                matches(
                    &Expect::Image(view, reader.versions.latest(s, view)),
                    &from_leader,
                ),
                || {
                    format!(
                        "{name}/{}: leader read {from_leader:?} differs from the model",
                        vname
                    )
                },
            );
            round.check(
                encode_result_payload(&from_leader) == encode_result_payload(&from_follower),
                || {
                    format!(
                        "{name}/{}: follower read bytes differ from the leader's",
                        vname
                    )
                },
            );
        }
        let follow = stats_of(&mut reader.wire, name)?;
        round.check(follow.content() == lead.content(), || {
            format!(
                "{name}: follower content {:?} != leader {:?}",
                follow.content(),
                lead.content()
            )
        });
    }
    let moving = inputs
        .writes
        .iter()
        .filter(|op| moves_sub(op).is_some())
        .count() as u64;
    round.check(reader.sub.events == moving, || {
        format!("{} events for {moving} moving writes", reader.sub.events)
    });
    if let Some(cap) = cap.as_mut() {
        cap.history_len = undoable;
        cap.durable_writes = inputs.writes.len() as u64;
        cap.updates = inputs.writes.len() as u64;
    }
    round.capture = cap;
    drop(reader);
    drop(writer);
    drop(replica.shutdown());
    drop(leader.shutdown());
    Ok(round)
}
