//! The schema, sessions and requests every workload is built from.
//!
//! Two unary relations `R(A)` and `S(B)` under the singleton component
//! family: the views `r` (mask `0b01`) and `s` (mask `0b10`) are each
//! other's strong complement, so an update of one leaves the other
//! constant (Update Procedure 3.2.3) and the harness can model every
//! view image as a bit set over its relation's tuple pool.

use compview_core::SubschemaComponents;
use compview_logic::Schema;
use compview_obs::Registry;
use compview_relation::{v, Instance, RelDecl, Relation, Signature, Tuple};
use compview_session::{
    DispatchError, MemStore, Service, Session, SessionConfig, SessionError, SessionRequest,
    SessionResponse, SyncPolicy,
};
use std::collections::BTreeMap;

pub type Family = SubschemaComponents;

/// Registered views: name, component mask, relation, value prefix.
pub const VIEWS: [(&str, u32, &str, &str); 2] = [("r", 0b01, "R", "a"), ("s", 0b10, "S", "b")];

/// Durable requests each session logs during setup (its two
/// `RegisterView`s).
pub const SETUP_RECORDS: u64 = VIEWS.len() as u64;

/// A value no pool holds: an update naming it is outside the space.
const FOREIGN: &str = "zz";

pub fn session_name(i: usize) -> String {
    format!("s{i:02}")
}

/// Pool sizes of one schema: the space has `2^(r + s)` states.
#[derive(Clone, Copy)]
pub struct Fixture {
    pub r_pool: u32,
    pub s_pool: u32,
}

impl Fixture {
    pub fn sig() -> Signature {
        Signature::new([RelDecl::new("R", ["A"]), RelDecl::new("S", ["B"])])
    }

    pub fn pool_size(&self, view: usize) -> u32 {
        if view == 0 {
            self.r_pool
        } else {
            self.s_pool
        }
    }

    pub fn states(&self) -> usize {
        1 << (self.r_pool + self.s_pool)
    }

    pub fn tuple(view: usize, i: u32) -> Tuple {
        Tuple::new([v(&format!("{}{i}", VIEWS[view].3))])
    }

    pub fn pools(&self) -> BTreeMap<String, Vec<Tuple>> {
        (0..VIEWS.len())
            .map(|view| {
                let tuples = (0..self.pool_size(view))
                    .map(|i| Fixture::tuple(view, i))
                    .collect();
                (VIEWS[view].2.to_owned(), tuples)
            })
            .collect()
    }

    /// The image of `view` when its relation holds the pool tuples whose
    /// bits are set in `mask`: what a `Read` of the view returns.
    pub fn image(view: usize, mask: u32) -> Instance {
        let rows = (0..32)
            .filter(|i| mask >> i & 1 == 1)
            .map(|i| Fixture::tuple(view, i));
        Instance::null_model(&Fixture::sig()).with(VIEWS[view].2, Relation::from_tuples(1, rows))
    }

    /// The view masks of the base state every session opens on.
    pub fn initial_masks() -> [u32; 2] {
        [0b1, 0]
    }

    fn base() -> Instance {
        let [r, _] = Fixture::initial_masks();
        Fixture::image(0, r)
    }

    /// One durable session whose log lives in memory under
    /// `SyncPolicy::Always`: every append and group-commit fsync code
    /// path runs, the store's sync is free.
    pub fn open(&self) -> Session<Family> {
        let (store, _bytes) = MemStore::new();
        Session::open_durable(
            SubschemaComponents::singletons(Fixture::sig()),
            Schema::unconstrained(Fixture::sig()),
            &self.pools(),
            Fixture::base(),
            SessionConfig::default(),
            Box::new(store),
            SyncPolicy::Always,
        )
        .expect("the base state lies in the space")
    }

    /// A service of `sessions` durable sessions; with `register`, both
    /// views are registered in each (a follower must not register: its
    /// views arrive through the replicated log).
    pub fn service(&self, sessions: usize, register: bool) -> Service<Family> {
        let mut svc = Service::with_registry(Registry::new());
        for i in 0..sessions {
            let name = session_name(i);
            svc.add_session(name.clone(), self.open())
                .expect("session names are distinct");
            if register {
                for (view, mask, _, _) in VIEWS {
                    svc.serve(
                        &name,
                        SessionRequest::RegisterView {
                            name: view.to_owned(),
                            mask,
                        },
                    )
                    .expect("singleton masks are components");
                }
            }
        }
        svc
    }
}

/// Which latency series an operation feeds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Class {
    Update,
    Read,
    Planted,
    Insert,
    Remove,
}

/// What the harness's model says the answer must be.
#[derive(Clone, Debug)]
pub enum Expect {
    /// An accepted update that moves the view.
    Updated,
    /// A planted update outside the space: refused with
    /// `StateOutsideSpace`.
    Refused,
    /// A read returning exactly this view image.
    Image(usize, u32),
    /// An accepted pool edit.
    Edited,
}

/// One generated request with its model answer.
#[derive(Clone, Debug)]
pub struct Op {
    pub session: usize,
    pub class: Class,
    pub req: SessionRequest,
    pub expect: Expect,
}

impl Op {
    pub fn update(session: usize, view: usize, mask: u32) -> Op {
        Op {
            session,
            class: Class::Update,
            req: SessionRequest::Update {
                view: VIEWS[view].0.to_owned(),
                new_state: Fixture::image(view, mask),
            },
            expect: Expect::Updated,
        }
    }

    pub fn read(session: usize, view: usize, mask: u32) -> Op {
        Op {
            session,
            class: Class::Read,
            req: read_req(view),
            expect: Expect::Image(view, mask),
        }
    }

    pub fn planted(session: usize) -> Op {
        let mut image = Fixture::image(0, 0);
        image.rel_mut("R").insert(Tuple::new([v(FOREIGN)]));
        Op {
            session,
            class: Class::Planted,
            req: SessionRequest::Update {
                view: VIEWS[0].0.to_owned(),
                new_state: image,
            },
            expect: Expect::Refused,
        }
    }

    pub fn is_durable(&self) -> bool {
        self.req.is_durable()
    }
}

pub fn read_req(view: usize) -> SessionRequest {
    SessionRequest::Read {
        view: VIEWS[view].0.to_owned(),
    }
}

/// Whether `got` is the answer the model expects.
pub fn matches(expect: &Expect, got: &Result<SessionResponse, DispatchError>) -> bool {
    match (expect, got) {
        (Expect::Updated, Ok(SessionResponse::Updated(report))) => report.reflected_delta > 0,
        (Expect::Refused, Err(DispatchError::Session(SessionError::StateOutsideSpace { .. }))) => {
            true
        }
        (Expect::Image(view, mask), Ok(SessionResponse::State(image))) => {
            *image == Fixture::image(*view, *mask)
        }
        (Expect::Edited, Ok(SessionResponse::PoolEdited(_))) => true,
        _ => false,
    }
}

/// The view mask a read answer holds, if it is a legal image of `view`.
pub fn image_mask(
    view: usize,
    fixture: &Fixture,
    got: &Result<SessionResponse, DispatchError>,
) -> Option<u32> {
    let Ok(SessionResponse::State(image)) = got else {
        return None;
    };
    (0..1u32 << fixture.pool_size(view)).find(|&m| *image == Fixture::image(view, m))
}
