//! Per-layer attribution for a traced run.
//!
//! Three sources, all through public interfaces:
//! * spans the servers record themselves, drained with the `Trace` verb
//!   (`shard.queue`, `session.dispatch`, `wal.append`, `wal.fsync`,
//!   `repl.ship`, `repl.apply`);
//! * exact counters from the `Metrics` verb, each ratio given with its
//!   base;
//! * the harness's own timings around public calls: an in-process
//!   replay of the same generated requests through `Service::dispatch`
//!   and the wire codec, state-space enumeration and edits, a real-disk
//!   WAL flush, and two host floors that involve no program code.

use crate::fixture::{session_name, Class, Fixture};
use crate::stats::{median, Samples};
use crate::workloads::{Capture, Round, Workload};
use compview_core::StateSpace;
use compview_logic::Schema;
use compview_obs::MetricsSnapshot;
use compview_serve::proto::{
    decode_result_payload, decode_wire_request, encode_request_payload, encode_result_payload,
};
use compview_session::{FsStore, Session, SessionConfig, SessionRequest, SyncPolicy};
use std::collections::HashMap;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::Instant;

/// One attributed number with what it was computed from.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Sample count or ratio base, for the report.
    pub basis: String,
    /// For a sampled series: its summary with tail percentiles, as JSON.
    pub tails: Option<String>,
    /// Whether the metric is defined on every workload (and so appears
    /// in the machine-read result), or only on this one.
    pub every_workload: bool,
}

struct Layers(Vec<Layer>);

impl Layers {
    fn push(&mut self, name: &'static str, unit: &'static str, value: f64, basis: String) {
        self.0.push(Layer {
            name,
            unit,
            value,
            basis,
            tails: None,
            every_workload: true,
        });
    }

    fn only_here(&mut self, name: &'static str, unit: &'static str, value: f64, basis: String) {
        self.0.push(Layer {
            name,
            unit,
            value,
            basis,
            tails: None,
            every_workload: false,
        });
    }

    fn p50(&mut self, name: &'static str, s: &Samples) {
        self.push(name, "us", s.median(), format!("p50 of n={}", s.len()));
        self.with_tails(s);
    }

    /// Attach the tail summary of `s` to the metric pushed last.
    fn with_tails(&mut self, s: &Samples) {
        if let Some(last) = self.0.last_mut() {
            last.tails = Some(s.summary_json());
        }
    }
}

fn counter(m: &MetricsSnapshot, name: &str) -> u64 {
    m.counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

fn hist_sum_count(m: &MetricsSnapshot, name: &str) -> (u64, u64) {
    m.histograms
        .iter()
        .find(|(n, _)| n == name)
        .map_or((0, 0), |(_, h)| (h.sum, h.count))
}

fn delta(pair: &(MetricsSnapshot, MetricsSnapshot), name: &str) -> u64 {
    counter(&pair.1, name).saturating_sub(counter(&pair.0, name))
}

fn hist_delta(pair: &(MetricsSnapshot, MetricsSnapshot), name: &str) -> (u64, u64) {
    let (s1, c1) = hist_sum_count(&pair.1, name);
    let (s0, c0) = hist_sum_count(&pair.0, name);
    (s1.saturating_sub(s0), c1.saturating_sub(c0))
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

/// Span series pooled over every traced round.
#[derive(Default)]
struct Spans {
    queue: Samples,
    dispatch_update: Samples,
    dispatch_read: Samples,
    append: Samples,
    fsync: Samples,
    apply: Samples,
    ship_lag: Samples,
    /// Per traced update: wire latency minus its spans on the blocking
    /// path (queue wait, dispatch, group-commit fsync).
    unexplained: Samples,
    blocking: Samples,
}

impl Spans {
    fn absorb(&mut self, cap: &Capture) {
        let mut per_trace: HashMap<u64, f64> = HashMap::new();
        let mut ships: HashMap<u64, u64> = HashMap::new();
        for (on_writer, s) in cap
            .writer_spans
            .iter()
            .map(|s| (true, s))
            .chain(cap.reader_spans.iter().map(|s| (false, s)))
        {
            let d = us(s.dur_ns);
            let class = cap.class_of.get(&s.trace_id).copied();
            match s.label.as_str() {
                "shard.queue" => self.queue.push(d),
                "session.dispatch" => match class {
                    Some(Class::Update) if on_writer => self.dispatch_update.push(d),
                    Some(Class::Read) => self.dispatch_read.push(d),
                    _ => {}
                },
                "wal.append" if on_writer => self.append.push(d),
                "wal.fsync" if on_writer => self.fsync.push(d),
                "repl.ship" => {
                    ships.insert(s.trace_id, s.start_ns);
                }
                "repl.apply" => self.apply.push(d),
                _ => {}
            }
            if on_writer
                && class == Some(Class::Update)
                && matches!(
                    s.label.as_str(),
                    "shard.queue" | "session.dispatch" | "wal.fsync"
                )
            {
                *per_trace.entry(s.trace_id).or_default() += d;
            }
        }
        for s in &cap.reader_spans {
            if s.label == "repl.apply" {
                if let Some(&shipped) = ships.get(&s.trace_id) {
                    self.ship_lag.push(us(s.start_ns.saturating_sub(shipped)));
                }
            }
        }
        for (trace_id, blocking) in per_trace {
            if let Some(&wire) = cap.wire_us.get(&trace_id) {
                self.blocking.push(blocking);
                self.unexplained.push(wire - blocking);
            }
        }
    }
}

/// The in-process replay: the same generated requests through
/// `Service::dispatch` one at a time, and through the wire codec.
#[derive(Default)]
struct Replay {
    dispatch: Samples,
    dispatch_update: Samples,
    encode_ns: Samples,
    decode_ns: Samples,
}

fn replay(workload: Workload, seed: u64, index: u64) -> Result<Replay, String> {
    let fixture = workload.fixture();
    let ops = workload.replay_stream(seed, index);
    let mut svc = fixture.service(workload.sessions(), true);
    let sub = session_name(0);
    svc.serve(&sub, SessionRequest::Subscribe { view: "r".into() })
        .map_err(|e| format!("replay subscribe: {e:?}"))?;
    let mut out = Replay::default();
    for op in &ops {
        let name = session_name(op.session);
        let t = Instant::now();
        let mut answers = svc.dispatch(vec![(name.clone(), op.req.clone())]);
        let d = t.elapsed();
        black_box(svc.drain_events());
        let got = answers.pop().ok_or("dispatch returned no answer")?;
        if !crate::fixture::matches(&op.expect, &got) {
            return Err(format!("replay: {} answered {got:?}", op.req.label()));
        }
        let d_us = d.as_nanos() as f64 / 1_000.0;
        out.dispatch.push(d_us);
        if op.class == Class::Update {
            out.dispatch_update.push(d_us);
        }
        let t = Instant::now();
        let req_bytes = black_box(encode_request_payload(&name, &op.req));
        let res_bytes = black_box(encode_result_payload(&got));
        out.encode_ns.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        black_box(decode_wire_request(&req_bytes).map_err(|e| e.to_string())?);
        let _ = black_box(decode_result_payload(&res_bytes).map_err(|e| e.to_string())?);
        out.decode_ns.push(t.elapsed().as_nanos() as f64);
    }
    Ok(out)
}

fn enumerate_ms(fixture: Fixture) -> Samples {
    let sig = Fixture::sig();
    let pools = fixture.pools();
    let mut s = Samples::default();
    for _ in 0..7 {
        let t = Instant::now();
        black_box(StateSpace::enumerate(
            Schema::unconstrained(sig.clone()),
            &pools,
        ));
        s.push(t.elapsed().as_secs_f64() * 1_000.0);
    }
    s
}

/// Incremental pool insert and remove on the workload's space.
fn space_edits(fixture: Fixture) -> Result<(Samples, Samples), String> {
    let mut space = StateSpace::enumerate(Schema::unconstrained(Fixture::sig()), &fixture.pools());
    let extra = Fixture::tuple(0, fixture.r_pool);
    let (mut ins, mut rem) = (Samples::default(), Samples::default());
    for _ in 0..20 {
        let t = Instant::now();
        space
            .insert_tuple("R", extra.clone())
            .map_err(|e| format!("{e:?}"))?;
        ins.push(t.elapsed().as_nanos() as f64 / 1_000.0);
        let t = Instant::now();
        space
            .remove_tuple("R", &extra)
            .map_err(|e| format!("{e:?}"))?;
        rem.push(t.elapsed().as_nanos() as f64 / 1_000.0);
    }
    Ok((ins, rem))
}

/// `Session::flush_wal` of one appended update, timed on the real disk
/// under the working directory (the checkout), then removed.
fn disk_fsync_us() -> Result<Samples, String> {
    let dir = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".perfbench_tmp");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let result = (|| {
        let fixture = Workload::WritePath.fixture();
        let store = FsStore::open(dir.join("disk.wal")).map_err(|e| e.to_string())?;
        let mut session = Session::open_durable(
            compview_core::SubschemaComponents::singletons(Fixture::sig()),
            Schema::unconstrained(Fixture::sig()),
            &fixture.pools(),
            Fixture::image(0, Fixture::initial_masks()[0]),
            SessionConfig::default(),
            Box::new(store),
            SyncPolicy::Always,
        )
        .map_err(|e| format!("{e:?}"))?;
        session
            .serve(SessionRequest::RegisterView {
                name: "r".into(),
                mask: 0b01,
            })
            .map_err(|e| format!("{e:?}"))?;
        let mut s = Samples::default();
        for i in 0..30u32 {
            session.set_deferred_sync(true);
            let op = crate::fixture::Op::update(0, 0, 2 + i % 2);
            session.serve(op.req).map_err(|e| format!("{e:?}"))?;
            session.set_deferred_sync(false);
            let t = Instant::now();
            session.flush_wal().map_err(|e| format!("{e:?}"))?;
            s.push(t.elapsed().as_nanos() as f64 / 1_000.0);
        }
        Ok(s)
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result
}

const PING: usize = 64;

/// Round trips of a 64-byte message to an echo thread, bare or through
/// two `mpsc` handoffs (reader thread → worker → writer thread), µs.
fn floor_rtt(handoffs: bool) -> Result<Samples, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let server = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut conn, _) = listener.accept()?;
        conn.set_nodelay(true)?;
        let mut buf = [0u8; PING];
        if !handoffs {
            while conn.read_exact(&mut buf).is_ok() {
                conn.write_all(&buf)?;
            }
            return Ok(());
        }
        let mut out = conn.try_clone()?;
        let (to_worker, worker_rx) = mpsc::channel::<[u8; PING]>();
        let (to_writer, writer_rx) = mpsc::channel::<[u8; PING]>();
        let worker = std::thread::spawn(move || {
            for msg in worker_rx {
                if to_writer.send(msg).is_err() {
                    break;
                }
            }
        });
        let writer = std::thread::spawn(move || {
            for msg in writer_rx {
                if out.write_all(&msg).is_err() {
                    break;
                }
            }
        });
        while conn.read_exact(&mut buf).is_ok() {
            if to_worker.send(buf).is_err() {
                break;
            }
        }
        drop(to_worker);
        let _ = worker.join();
        let _ = writer.join();
        Ok(())
    });
    let mut s = Samples::default();
    let mut run = || -> std::io::Result<()> {
        let mut conn = TcpStream::connect(addr)?;
        conn.set_nodelay(true)?;
        let mut buf = [7u8; PING];
        for i in 0..2_200 {
            let t = Instant::now();
            conn.write_all(&buf)?;
            conn.read_exact(&mut buf)?;
            if i >= 200 {
                s.push(t.elapsed().as_nanos() as f64 / 1_000.0);
            }
        }
        Ok(())
    };
    let outcome = run();
    let joined = server
        .join()
        .map_err(|_| "echo thread panicked".to_owned())?;
    outcome.and(joined).map_err(|e| e.to_string())?;
    Ok(s)
}

/// Everything the traced run reports, from its untraced and traced
/// rounds plus the isolated probes.
pub fn attribute(
    workload: Workload,
    seed: u64,
    plain: &[Round],
    traced: &[Round],
) -> Result<Vec<Layer>, String> {
    let mut l = Layers(Vec::new());
    let mut spans = Spans::default();
    for cap in traced.iter().filter_map(|r| r.capture.as_ref()) {
        spans.absorb(cap);
    }
    let caps: Vec<&Capture> = traced.iter().filter_map(|r| r.capture.as_ref()).collect();
    let sum = |f: &dyn Fn(&Capture) -> u64| caps.iter().map(|c| f(c)).sum::<u64>();
    let ops: u64 = traced.iter().map(|r| r.ops).sum();

    // The first untraced round's requests, replayed in process.
    let rep = replay(workload, seed, 1)?;
    l.push(
        "proto.encode_ns",
        "ns",
        rep.encode_ns.median(),
        format!(
            "p50 of n={}, request+result encode per op",
            rep.encode_ns.len()
        ),
    );
    l.with_tails(&rep.encode_ns);
    l.push(
        "proto.decode_ns",
        "ns",
        rep.decode_ns.median(),
        format!(
            "p50 of n={}, request+result decode per op",
            rep.decode_ns.len()
        ),
    );
    l.with_tails(&rep.decode_ns);
    l.p50("serve.queue_wait_us", &spans.queue);
    let mut wire_update = Samples::default();
    for r in plain {
        wire_update.extend(&r.update_us);
    }
    l.push(
        "serve.transport_us",
        "us",
        wire_update.median() - rep.dispatch_update.median(),
        format!(
            "untraced wire update p50 {:.1} (n={}) minus in-process dispatch p50 {:.1} (n={})",
            wire_update.median(),
            wire_update.len(),
            rep.dispatch_update.median(),
            rep.dispatch_update.len()
        ),
    );
    let frames = sum(&|c| {
        let mut f = delta(&c.writer, "serve.frames_in") + delta(&c.writer, "serve.frames_out");
        if c.split_nodes {
            f += delta(&c.reader, "serve.frames_in") + delta(&c.reader, "serve.frames_out");
        }
        f
    });
    l.push(
        "serve.frames_per_op",
        "count",
        ratio(frames, ops),
        format!("{frames} frames / {ops} ops, every node"),
    );
    l.p50("session.update_us", &spans.dispatch_update);
    l.p50("session.read_us", &spans.dispatch_read);
    l.push(
        "session.dispatch_us",
        "us",
        rep.dispatch.median(),
        format!(
            "in-process Service::dispatch p50 of n={}",
            rep.dispatch.len()
        ),
    );
    l.with_tails(&rep.dispatch);
    let hits = sum(&|c| delta(&c.reader, "session.cache.hits"));
    let misses = sum(&|c| delta(&c.reader, "session.cache.misses"));
    l.push(
        "session.cache_hit_ratio",
        "ratio",
        ratio(hits, hits + misses),
        format!("{hits} hits / {} lookups on the read node", hits + misses),
    );
    let history = sum(&|c| c.history_len);
    l.push(
        "session.history_len",
        "count",
        ratio(history, caps.len() as u64),
        format!(
            "undo entries across {} sessions at round end, mean of {} rounds",
            workload.sessions(),
            caps.len()
        ),
    );
    l.p50("wal.append_us", &spans.append);
    l.p50("wal.fsync_us", &spans.fsync);
    let appended = sum(&|c| delta(&c.writer, "wal.appended_bytes"));
    let durable = sum(&|c| c.durable_writes);
    l.push(
        "wal.bytes_per_write",
        "B",
        ratio(appended, durable),
        format!("{appended} B / {durable} durable writes"),
    );
    let (batched, batches) = caps.iter().fold((0, 0), |(s, c), cap| {
        let (ds, dc) = hist_delta(&cap.writer, "service.batch_requests");
        (s + ds, c + dc)
    });
    l.push(
        "service.batch_requests",
        "count",
        ratio(batched, batches),
        format!("{batched} requests / {batches} group commits"),
    );
    let disk = disk_fsync_us()?;
    l.push(
        "wal.disk_fsync_us",
        "us",
        disk.median(),
        format!("p50 of n={}, FsStore in the working directory", disk.len()),
    );
    l.with_tails(&disk);
    let (pub_ns, publishes) = caps.iter().fold((0, 0), |(s, c), cap| {
        let (ds, dc) = hist_delta(&cap.reader, "session.sub.publish_ns");
        (s + ds, c + dc)
    });
    l.push(
        "sub.publish_us",
        "us",
        ratio(pub_ns, publishes) / 1_000.0,
        format!("mean of n={publishes} publishes on the subscription's node"),
    );
    let events = sum(&|c| delta(&c.reader, "session.sub.events"));
    let updates = sum(&|c| c.updates);
    l.push(
        "sub.events_per_write",
        "count",
        ratio(events, updates),
        format!("{events} events / {updates} updates"),
    );
    let enumerate = enumerate_ms(workload.fixture());
    l.push(
        "space.enumerate_ms",
        "ms",
        enumerate.median(),
        format!(
            "p50 of n={}, {} states",
            enumerate.len(),
            workload.fixture().states()
        ),
    );
    let loopback = floor_rtt(false)?;
    l.push(
        "floor.loopback_rtt_us",
        "us",
        loopback.median(),
        format!("p50 of n={}, 64 B ping-pong", loopback.len()),
    );
    l.with_tails(&loopback);
    let handoff = floor_rtt(true)?;
    l.push(
        "floor.handoff_rtt_us",
        "us",
        handoff.median(),
        format!(
            "p50 of n={}, 64 B ping-pong via two mpsc handoffs",
            handoff.len()
        ),
    );
    l.with_tails(&handoff);
    let plain_ops = median(
        &plain
            .iter()
            .map(|r| r.ops as f64 / r.run_s)
            .collect::<Vec<_>>(),
    );
    let traced_ops = median(
        &traced
            .iter()
            .map(|r| r.ops as f64 / r.run_s)
            .collect::<Vec<_>>(),
    );
    l.push(
        "trace.overhead_pct",
        "%",
        (plain_ops - traced_ops) / plain_ops * 100.0,
        format!("untraced {plain_ops:.1} vs traced {traced_ops:.1} ops/s"),
    );
    let codec_us = (rep.encode_ns.median() + rep.decode_ns.median()) / 1_000.0;
    l.push(
        "residual_us",
        "us",
        spans.unexplained.median() - codec_us,
        format!(
            "traced update: wire minus (queue+dispatch+fsync spans, p50 sum {:.1}) minus codec {:.2}, n={}",
            spans.blocking.median(),
            codec_us,
            spans.unexplained.len()
        ),
    );
    l.with_tails(&spans.unexplained);

    // Layers only some workloads cross.
    if workload == Workload::ReplicaRead {
        l.only_here(
            "repl.apply_us",
            "us",
            spans.apply.median(),
            format!("p50 of n={}", spans.apply.len()),
        );
        l.with_tails(&spans.apply);
        l.only_here(
            "repl.ship_lag_us",
            "us",
            spans.ship_lag.median(),
            format!(
                "leader repl.ship to follower repl.apply start, p50 of n={}",
                spans.ship_lag.len()
            ),
        );
        l.with_tails(&spans.ship_lag);
        let bytes = sum(&|c| delta(&c.writer, "serve.repl.bytes_out"));
        let records = sum(&|c| delta(&c.writer, "serve.repl.records_out"));
        l.only_here(
            "repl.bytes_per_change",
            "B",
            ratio(bytes, records),
            format!("{bytes} B / {records} shipped records"),
        );
        let (recs, secs) = plain
            .iter()
            .chain(traced)
            .filter_map(|r| r.catchup)
            .fold((0, 0.0), |(n, s), (rn, rs)| (n + rn, s + rs));
        l.only_here(
            "repl.catchup_records_s",
            "1/s",
            recs as f64 / secs,
            format!("{recs} records in {secs:.3} s of Replica::start"),
        );
    }
    if workload == Workload::PoolChurn {
        let (ins, rem) = space_edits(workload.fixture())?;
        l.only_here(
            "space.insert_us",
            "us",
            ins.median(),
            format!("p50 of n={}", ins.len()),
        );
        l.with_tails(&ins);
        l.only_here(
            "space.remove_us",
            "us",
            rem.median(),
            format!("p50 of n={}", rem.len()),
        );
        l.with_tails(&rem);
        let remaps = sum(&|c| delta(&c.writer, "session.cache.remaps"));
        let edits = sum(&|c| c.pool_edits);
        l.only_here(
            "session.cache_remaps_per_edit",
            "count",
            ratio(remaps, edits),
            format!("{remaps} remaps / {edits} pool edits"),
        );
        let mut edit = Samples::default();
        for r in plain {
            edit.extend(&r.edit_us);
        }
        l.only_here(
            "pool_edit_p50_us",
            "us",
            edit.median(),
            format!("untraced wire, p50 of n={}", edit.len()),
        );
        l.with_tails(&edit);
    }
    Ok(l.0)
}

pub fn span_count(rounds: &[Round]) -> usize {
    rounds
        .iter()
        .filter_map(|r| r.capture.as_ref())
        .map(|c| c.writer_spans.len() + c.reader_spans.len())
        .sum()
}
