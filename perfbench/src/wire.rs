//! Client-side plumbing shared by the workloads: one connection with
//! optional trace tagging, and the checker for a live subscription.

use crate::fixture::Fixture;
use compview_obs::TraceCtx;
use compview_relation::Instance;
use compview_serve::Client;
use compview_session::sub::apply_event;
use compview_session::{DeltaEvent, DeltaKind, SessionRequest};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Trace ids are unique across every connection of the process, so the
/// spans of a leader write and its follower apply share one id.
static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);

pub fn micros(since: Instant) -> f64 {
    since.elapsed().as_nanos() as f64 / 1_000.0
}

/// One client connection; in a traced run every request carries a fresh
/// sampled trace id.
pub struct Wire {
    pub client: Client,
    traced: bool,
}

impl Wire {
    pub fn connect(addr: SocketAddr, traced: bool) -> Result<Wire, String> {
        let client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        Ok(Wire { client, traced })
    }

    /// Send without waiting; returns the request's trace id (0 when the
    /// run is untraced).
    pub fn send(&mut self, session: &str, req: &SessionRequest) -> Result<u64, String> {
        if !self.traced {
            self.client.send(session, req).map_err(|e| e.to_string())?;
            return Ok(0);
        }
        let trace_id = NEXT_TRACE.fetch_add(1, Ordering::Relaxed);
        let ctx = TraceCtx {
            trace_id,
            parent_span: 0,
        };
        self.client
            .send_traced(session, req, ctx)
            .map_err(|e| e.to_string())?;
        Ok(trace_id)
    }
}

/// A live subscription on one view: checks that events arrive gap-free
/// and that each one turns the image into the state the model owes, and
/// times each from the send of the write that caused it.
pub struct SubTracker {
    session: String,
    view: usize,
    sub: u64,
    image: Instance,
    seq: u64,
    /// Writes sent whose event has not arrived: send time, new mask.
    owed: VecDeque<(Instant, u32)>,
    pub events: u64,
}

impl SubTracker {
    pub fn open(
        wire: &mut Wire,
        session: &str,
        view: usize,
        mask: u32,
    ) -> Result<SubTracker, String> {
        let (sub, image) = wire
            .client
            .subscribe(session, crate::fixture::VIEWS[view].0)
            .map_err(|e| e.to_string())?
            .map_err(|e| format!("subscribe refused: {e:?}"))?;
        if image != Fixture::image(view, mask) {
            return Err(format!(
                "subscription image of {session} differs from the model"
            ));
        }
        Ok(SubTracker {
            session: session.to_owned(),
            view,
            sub,
            image,
            seq: 0,
            owed: VecDeque::new(),
            events: 0,
        })
    }

    pub fn owe(&mut self, sent: Instant, mask: u32) {
        self.owed.push_back((sent, mask));
    }

    pub fn owed(&self) -> usize {
        self.owed.len()
    }

    /// On the connection that holds the subscription the server sends a
    /// write's event before the write's reply, so once the reply of the
    /// write sent at `sent` is in, an event still owed for it is lost.
    pub fn missed(&mut self, sent: Instant) -> Option<String> {
        let (at, mask) = *self.owed.front()?;
        if at > sent {
            return None;
        }
        self.owed.pop_front();
        Some(format!(
            "no event on {} before the reply of the write to mask {mask:#b}",
            self.session
        ))
    }

    /// Check one event; `Ok` carries its visibility latency in µs.
    pub fn on_event(&mut self, session: &str, event: &DeltaEvent) -> Result<f64, String> {
        let Some((sent, mask)) = self.owed.pop_front() else {
            return Err(format!("unexpected event on {session}: {event:?}"));
        };
        let visible = micros(sent);
        if session != self.session || event.sub != self.sub || event.seq != self.seq + 1 {
            return Err(format!(
                "event out of order: {session}/{} seq {} after {}",
                event.sub, event.seq, self.seq
            ));
        }
        if !matches!(event.kind, DeltaKind::Rows { .. }) {
            return Err(format!("subscription ended: {:?}", event.kind));
        }
        self.seq = event.seq;
        self.events += 1;
        self.image = apply_event(&self.image, event);
        if self.image != Fixture::image(self.view, mask) {
            return Err(format!(
                "event {} leaves an image the model does not hold",
                event.seq
            ));
        }
        Ok(visible)
    }
}
