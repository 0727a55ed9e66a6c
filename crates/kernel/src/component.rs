//! The component/port abstraction of the simulation kernel.
//!
//! Piranha scales by replicating simple modules behind narrow
//! interfaces — CPU cores, L1s, L2 banks, protocol engines — instead of
//! growing one complex core (§2 of the paper). The simulator mirrors
//! that: each subsystem implements [`Component`], owning its state and
//! handling its own typed events, and emits timed actions through a
//! [`Port`]. The wiring layer (in `piranha-system`) drains ports,
//! converts actions into follow-on events, and applies cross-cutting
//! concerns — fault injection, probe spans — uniformly at the port
//! boundary rather than inside any component.

use piranha_types::SimTime;

/// A buffered, typed output endpoint.
///
/// Components never schedule events or touch other components directly;
/// they [`emit`](Port::emit) `(deliver-at, action)` pairs into their
/// port, and the wiring that owns both sides drains the port and routes
/// each action. Emission order is preserved by [`drain`](Port::drain),
/// which is what keeps a component refactor event-order-identical to
/// inlined dispatch code: the actions come back out in exactly the
/// order the old code would have handled them.
///
/// An action meant for immediate processing is emitted at `now`; one
/// that models latency is emitted at a future instant and the wiring
/// schedules it.
#[derive(Debug)]
pub struct Port<A> {
    out: Vec<(SimTime, A)>,
}

impl<A> Port<A> {
    /// An empty port.
    pub fn new() -> Self {
        Port { out: Vec::new() }
    }

    /// Queue `action` for delivery at `at`. `at` is interpreted by the
    /// wiring (schedule time for events, processing time for immediate
    /// actions); the port itself only preserves order.
    pub fn emit(&mut self, at: SimTime, action: A) {
        self.out.push((at, action));
    }

    /// Drain every buffered action, in emission order.
    pub fn drain(&mut self) -> std::vec::Drain<'_, (SimTime, A)> {
        self.out.drain(..)
    }

    /// Number of buffered actions.
    pub fn len(&self) -> usize {
        self.out.len()
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }
}

impl<A> Default for Port<A> {
    fn default() -> Self {
        Self::new()
    }
}

/// A simulation component: a stateful module that consumes typed events
/// and emits typed actions through a [`Port`].
///
/// The contract mirrors a Piranha hardware module: all externally
/// visible behavior flows through the event input and the action output,
/// so components compose without knowing about each other — only the
/// wiring knows the topology. Shared state a component must borrow per
/// event (for example, the CPU cluster advancing against the cache
/// complex's L1s) is threaded in as [`Ctx`](Component::Ctx), keeping
/// ownership with exactly one component while allowing the disjoint
/// borrows real subsystems need.
///
/// # Examples
///
/// A minimal two-component ping/pong simulation: each player returns
/// the ball 10 ps after receiving it, and the wiring (the loop at the
/// bottom) connects each player's output port to the other player's
/// [`Partition`](crate::Partition), merging the two event lists on
/// `(time, player)` the way the system's lanes merge at a barrier.
///
/// ```
/// use piranha_kernel::{Component, Partition, Port};
/// use piranha_types::SimTime;
///
/// struct Ball;
/// struct Player {
///     hits: u32,
/// }
///
/// impl Component for Player {
///     type Event = Ball;
///     type Action = Ball; // "hit it back"
///     type Ctx<'a> = ();
///
///     fn handle(&mut self, now: SimTime, _ball: Ball, _ctx: (), out: &mut Port<Ball>) {
///         self.hits += 1;
///         out.emit(SimTime(now.0 + 10), Ball);
///     }
/// }
///
/// let mut players = [Player { hits: 0 }, Player { hits: 0 }];
/// let mut lanes: [Partition<Ball>; 2] = [Partition::new(), Partition::new()];
/// let mut port = Port::new();
/// lanes[0].schedule(SimTime::ZERO, Ball); // serve to player 0
/// loop {
///     let next = (0..2)
///         .filter_map(|p| lanes[p].peek_time().map(|t| (t, p)))
///         .min();
///     let Some((t, p)) = next else { break };
///     if t > SimTime(100) {
///         break;
///     }
///     let (now, ball) = lanes[p].pop().expect("peeked");
///     players[p].handle(now, ball, (), &mut port);
///     for (at, ball) in port.drain() {
///         lanes[1 - p].schedule(at, ball); // wire each port to the peer
///     }
/// }
/// assert_eq!(players[0].hits + players[1].hits, 11);
/// let (scheduled, popped, pending) = lanes.iter().fold((0, 0, 0), |(s, o, n), l| {
///     (s + l.scheduled(), o + l.popped(), n + l.len() as u64)
/// });
/// assert_eq!(scheduled, popped + pending);
/// ```
pub trait Component {
    /// The event type delivered to this component.
    type Event;

    /// The action type it emits through its output [`Port`].
    type Action;

    /// Per-event borrowed context: state the component reads or writes
    /// but does not own (another component's caches, a directory view).
    /// Use `()` when the component is self-contained.
    type Ctx<'a>;

    /// Consume one event at simulation time `now`, mutating internal
    /// state and emitting any follow-on actions into `out`.
    ///
    /// Implementations must be deterministic: identical state, event,
    /// and context must produce identical emissions in identical order.
    fn handle(
        &mut self,
        now: SimTime,
        event: Self::Event,
        ctx: Self::Ctx<'_>,
        out: &mut Port<Self::Action>,
    );
}
