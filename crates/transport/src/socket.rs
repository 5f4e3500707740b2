//! The socket backend: one run split across two OS processes over loopback
//! TCP, bit-identical to `SyncExecutor` on *both* sides.
//!
//! # Replicated control plane
//!
//! Both processes load the same graph and build all `n` programs, but each
//! *executes* only its own contiguous block: the **leader** owns nodes
//! `[0, split)`, the **follower** owns `[split, n)`, with
//! `split = ceil(n / 2)`. Each side runs its block through the engine's
//! round kernel (the wake step and the pass of a [`NodeBlock`]) on an
//! [`ArenaDelivery`]; the wake step reads the local delivery, which holds
//! every unit addressed to the block, the peer's included. Per round, it
//! then ships the peer a single
//! checksummed frame (see [`crate::frame`]) carrying everything the peer
//! cannot compute locally — its block's sub-totals, its newly-halted
//! nodes' outputs, its first error, the cross-shard `(slot, message)`
//! batch, and one `(sender, payload)` entry per cross-shard *broadcast*,
//! which the receiver stores once in its sender-indexed broadcast table
//! ([`RoundPayload`]). Each side then folds the `[leader, follower]`
//! sub-totals through the engine's [`RoundFold`], the fold every executor
//! runs in block order, so both processes assemble the *complete*,
//! identical [`RunReport`] without a separate coordinator process. The
//! round barrier is the exchange itself: neither side can advance past
//! round `r` before holding the peer's round-`r` frame.
//!
//! # Deadlock freedom and failure surface
//!
//! Each session runs a dedicated reader thread that drains the socket into
//! an in-process queue, so the main thread's writes can never deadlock
//! against an unread inbound frame regardless of frame sizes. Every failure
//! mode on the wire — truncation, corruption (checksum), version or
//! topology skew (handshake), round desync, a peer that vanished, a stalled
//! peer (timeout) — surfaces as a typed [`TransportError`] from
//! [`SocketSession::run_program`], never a panic. Program misbehavior
//! (non-neighbor send, enforced bandwidth overrun, a panicking program,
//! round limit) folds through [`RoundFold`] exactly as in-process and comes
//! back as [`TransportError::Execution`] on **both** sides.
//!
//! A session persists across runs: a composed pipeline issues one
//! `Executor::run` per phase, and every phase re-handshakes and reuses the
//! same connection, so a full measured Theorem 1.2 pipeline works across
//! two processes (see `examples/socket_pipeline.rs`).
//!
//! [`RunReport`]: congest_sim::RunReport

use crate::frame::{read_frame, write_frame, FrameError, FrameKind};
use crate::proto::{Hello, RoundPayload, PROTOCOL_VERSION};
use crate::TransportError;
use congest_sim::engine::{
    ArenaDelivery, ArenaSide, BlockRound, Committed, ExecutionError, Executor, ExecutorConfig,
    NodeBlock, RoundFold, RunReport, Verdict,
};
use congest_sim::program::NodeProgram;
use congest_sim::{Graph, NodeId};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::sync::Mutex;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Which block of nodes this process executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Owns nodes `[0, split)`; its sub-totals fold first.
    Leader,
    /// Owns nodes `[split, n)`.
    Follower,
}

/// What the reader thread hands the session per frame.
type FrameResult = Result<(FrameKind, Vec<u8>), FrameError>;

/// An established connection to the peer process, plus the reader thread
/// draining it.
pub struct SocketSession {
    writer: TcpStream,
    inbound: Receiver<FrameResult>,
    reader: Option<JoinHandle<()>>,
    timeout: Duration,
}

impl SocketSession {
    /// Default per-frame receive timeout; generous so CI machines under load
    /// do not produce spurious desyncs.
    pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(120);

    fn from_stream(stream: TcpStream) -> Result<SocketSession, TransportError> {
        stream.set_nodelay(true).map_err(FrameError::Io)?;
        let mut read_half = stream.try_clone().map_err(FrameError::Io)?;
        let (tx, inbound) = channel();
        let reader = thread::spawn(move || loop {
            match read_frame(&mut read_half) {
                Ok(frame) => {
                    if tx.send(Ok(frame)).is_err() {
                        break; // Session dropped; stop reading.
                    }
                }
                Err(e) => {
                    let _ = tx.send(Err(e));
                    break;
                }
            }
        });
        Ok(SocketSession {
            writer: stream,
            inbound,
            reader: Some(reader),
            timeout: Self::DEFAULT_TIMEOUT,
        })
    }

    /// Connects to a listening peer, retrying until `retry_for` elapses (the
    /// listener may not be up yet when two processes start concurrently).
    pub fn connect(
        addr: impl ToSocketAddrs,
        retry_for: Duration,
    ) -> Result<SocketSession, TransportError> {
        let deadline = Instant::now() + retry_for;
        loop {
            match TcpStream::connect(&addr) {
                Ok(stream) => return SocketSession::from_stream(stream),
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(TransportError::Frame(FrameError::Io(e)));
                    }
                    thread::sleep(Duration::from_millis(50));
                }
            }
        }
    }

    /// Overrides the per-frame receive timeout.
    pub fn set_timeout(&mut self, timeout: Duration) {
        self.timeout = timeout;
    }

    fn send(&mut self, kind: FrameKind, payload: &[u8]) -> Result<(), TransportError> {
        let mut w = &self.writer;
        write_frame(&mut w, kind, payload)?;
        Ok(())
    }

    fn recv(&mut self) -> Result<(FrameKind, Vec<u8>), TransportError> {
        match self.inbound.recv_timeout(self.timeout) {
            Ok(Ok(frame)) => Ok(frame),
            Ok(Err(e)) => Err(TransportError::Frame(e)),
            Err(RecvTimeoutError::Timeout) => Err(TransportError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(TransportError::Frame(FrameError::Closed)),
        }
    }

    /// Runs `programs` on `graph` jointly with the peer process; this side
    /// executes the block its `role` names. Both sides return the same
    /// complete [`RunReport`] (or the same [`ExecutionError`] wrapped in
    /// [`TransportError::Execution`]).
    ///
    /// # Errors
    ///
    /// Any wire-level failure — corruption, truncation, handshake or
    /// configuration skew, round desync, timeout, a closed peer — is a typed
    /// [`TransportError`]; the method never panics on peer input.
    pub fn run_program<P: NodeProgram>(
        &mut self,
        role: Role,
        graph: &Graph,
        programs: Vec<P>,
        config: &ExecutorConfig,
    ) -> Result<RunReport<P::Output>, TransportError> {
        run_session(self, role, graph, programs, config)
    }
}

impl Drop for SocketSession {
    fn drop(&mut self) {
        let _ = self.writer.shutdown(Shutdown::Both);
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// A bound listener waiting for the peer process; split from
/// [`SocketSession`] so callers can learn an ephemerally-bound port before
/// the blocking accept.
pub struct SocketListener {
    inner: TcpListener,
}

impl SocketListener {
    /// Binds to `addr` (use port `0` for an ephemeral port).
    pub fn bind(addr: impl ToSocketAddrs) -> Result<SocketListener, TransportError> {
        Ok(SocketListener {
            inner: TcpListener::bind(addr).map_err(FrameError::Io)?,
        })
    }

    /// The bound local address.
    pub fn local_addr(&self) -> Result<std::net::SocketAddr, TransportError> {
        Ok(self.inner.local_addr().map_err(FrameError::Io)?)
    }

    /// Blocks until the peer connects and returns the established session.
    pub fn accept(self) -> Result<SocketSession, TransportError> {
        let (stream, _) = self.inner.accept().map_err(FrameError::Io)?;
        SocketSession::from_stream(stream)
    }
}

/// Where a [`SocketExecutor`] gets its connection from.
#[derive(Debug, Clone)]
enum Endpoint {
    /// Bind and accept; this process is usually the [`Role::Leader`].
    Listen(String),
    /// Connect (with retry); this process is usually the [`Role::Follower`].
    Connect(String),
}

/// An [`Executor`] running every `run` jointly with a peer process over a
/// persistent loopback-TCP session.
///
/// The first `run` establishes the connection (bind-and-accept for
/// [`SocketExecutor::listen`], connect-with-retry for
/// [`SocketExecutor::connect`]); later runs — e.g. the phases of a composed
/// pipeline — re-handshake over the same socket. Reports are bit-identical
/// to `SyncExecutor` on both sides.
///
/// Program errors surface as [`ExecutionError`] like any executor. A
/// wire-level failure has no representation in the [`Executor`] contract, so
/// it aborts the process with a panic naming the typed error; callers that
/// need to handle transport faults programmatically use
/// [`SocketSession::run_program`] directly.
pub struct SocketExecutor {
    /// `None` when the executor was built over an already-established session
    /// ([`SocketExecutor::from_session`]): there is nothing to reconnect to.
    endpoint: Option<Endpoint>,
    role: Role,
    timeout: Duration,
    session: Mutex<Option<SocketSession>>,
}

impl SocketExecutor {
    /// A leader executor: binds `addr` and waits for the follower.
    pub fn listen(addr: impl Into<String>) -> SocketExecutor {
        SocketExecutor {
            endpoint: Some(Endpoint::Listen(addr.into())),
            role: Role::Leader,
            timeout: SocketSession::DEFAULT_TIMEOUT,
            session: Mutex::new(None),
        }
    }

    /// A follower executor: connects to the leader at `addr`, retrying while
    /// the leader starts up.
    pub fn connect(addr: impl Into<String>) -> SocketExecutor {
        SocketExecutor {
            endpoint: Some(Endpoint::Connect(addr.into())),
            role: Role::Follower,
            timeout: SocketSession::DEFAULT_TIMEOUT,
            session: Mutex::new(None),
        }
    }

    /// Wraps an already-established session — e.g. one accepted from an
    /// ephemerally-bound [`SocketListener`], whose port the peer learned out
    /// of band. A session lost to a transport failure is not re-established
    /// (the executor has no address to reconnect to); later runs abort like
    /// any other wire-level failure, naming a protocol error.
    pub fn from_session(role: Role, session: SocketSession) -> SocketExecutor {
        SocketExecutor {
            endpoint: None,
            role,
            timeout: session.timeout,
            session: Mutex::new(Some(session)),
        }
    }

    /// Overrides the per-frame receive timeout (and the connect retry
    /// window).
    pub fn with_timeout(mut self, timeout: Duration) -> SocketExecutor {
        self.timeout = timeout;
        if let Some(session) = self.session.get_mut().expect("session lock").as_mut() {
            session.set_timeout(timeout);
        }
        self
    }
}

impl Executor for SocketExecutor {
    fn run<P>(
        &self,
        graph: &Graph,
        programs: Vec<P>,
        config: &ExecutorConfig,
    ) -> Result<RunReport<P::Output>, ExecutionError>
    where
        P: NodeProgram + Send,
        P::Message: Send + Sync,
        P::Output: Send,
    {
        let mut guard = self.session.lock().expect("session lock");
        let session = match (guard.take(), &self.endpoint) {
            (Some(session), _) => Ok(session),
            (None, Some(Endpoint::Listen(addr))) => {
                SocketListener::bind(addr.as_str()).and_then(SocketListener::accept)
            }
            (None, Some(Endpoint::Connect(addr))) => {
                SocketSession::connect(addr.as_str(), self.timeout)
            }
            (None, None) => Err(TransportError::Protocol(
                "the pre-established session was lost to an earlier transport failure".to_string(),
            )),
        };
        let result = session.and_then(|mut session| {
            session.set_timeout(self.timeout);
            let result = session.run_program(self.role, graph, programs, config);
            // After a wire-level failure the connection is desynchronized or
            // dead; it is dropped, so a later run re-establishes instead of
            // exchanging garbage.
            if matches!(result, Ok(_) | Err(TransportError::Execution(_))) {
                *guard = Some(session);
            }
            result
        });
        // Unlocked before a panic, which would otherwise poison the mutex.
        drop(guard);
        match result {
            Ok(report) => Ok(report),
            Err(TransportError::Execution(e)) => Err(e),
            Err(e) => panic!("socket transport failure: {e}"),
        }
    }
}

/// This side's delivery state for one run, around its [`NodeBlock`]: where
/// the block ends, the cross-shard units staged for the peer, and the
/// peer's outputs.
struct Shard<'g, P: NodeProgram> {
    graph: &'g Graph,
    /// First node of the local block.
    lo: usize,
    /// One past the last node of the local block.
    hi: usize,
    /// First arena slot of the follower's side (`slot_split`); slots below
    /// it belong to the leader.
    slot_split: usize,
    leader: bool,
    /// Cross-shard batch staged for the peer this round.
    out_batch: Vec<(usize, P::Message)>,
    /// Cross-shard broadcasts staged for the peer this round: one
    /// `(sender, payload)` entry per local node with a peer-owned neighbor;
    /// the peer stores it once in its sender-indexed broadcast table.
    out_bcast: Vec<(usize, P::Message)>,
    /// Outputs of the peer's halted nodes, indexed by node id; the local
    /// block's entries stay `None` until the run ends.
    outputs: Vec<Option<P::Output>>,
}

impl<P: NodeProgram> Shard<'_, P> {
    fn owns_slot(&self, slot: usize) -> bool {
        (slot < self.slot_split) == self.leader
    }

    /// The shard's sink: a local-destination message goes straight into
    /// `staged`, a cross-shard one into the batch for the peer. A broadcast
    /// is stored once in `staged`'s sender-indexed table and, if the node
    /// has a peer-owned neighbor, staged once for the peer.
    fn route(
        &mut self,
        from: NodeId,
        unit: Committed<P::Message>,
        staged: &mut ArenaSide<P::Message>,
    ) {
        match unit {
            Committed::Edge(slot, msg) => {
                if self.owns_slot(slot) {
                    staged.queue(slot, msg);
                } else {
                    self.out_batch.push((slot, msg));
                }
            }
            Committed::Fan(msg) => {
                // Neighbors are sorted and the peer owns every node outside
                // `lo..hi`, so the ends of the list tell whether it crosses.
                let neighbors = self.graph.neighbors(from);
                let crosses = neighbors.first().is_some_and(|u| u.0 < self.lo)
                    || neighbors.last().is_some_and(|u| u.0 >= self.hi);
                if crosses {
                    self.out_bcast.push((from.0, msg.clone()));
                }
                staged.queue_broadcast(from.0, msg);
            }
        }
    }
}

/// Sends this round's payload, receives the peer's, validates it, applies
/// the peer's halted outputs, cross-shard batch and broadcasts, and returns
/// the peer's sub-totals. Each peer broadcast is one table write; a sender
/// the peer does not own, or one listed twice, is a protocol error.
fn exchange<P: NodeProgram>(
    session: &mut SocketSession,
    shard: &mut Shard<'_, P>,
    round: u64,
    block: &NodeBlock<'_, P>,
    mine: &BlockRound,
    staged: &mut ArenaSide<P::Message>,
) -> Result<BlockRound, TransportError> {
    let payload = RoundPayload {
        round,
        acct: mine.acct.clone(),
        newly_halted: block
            .newly_halted()
            .map(|(v, out)| (v.0, out.clone()))
            .collect(),
        error: mine.error.clone(),
        batch: std::mem::take(&mut shard.out_batch),
        bcast: std::mem::take(&mut shard.out_bcast),
    };
    let bytes = payload.encode();
    // Keep the staged-batch allocations for the next round.
    shard.out_batch = payload.batch;
    shard.out_batch.clear();
    shard.out_bcast = payload.bcast;
    shard.out_bcast.clear();
    session.send(FrameKind::Round, &bytes)?;

    let (kind, peer_bytes) = session.recv()?;
    if kind != FrameKind::Round {
        return Err(TransportError::Protocol(format!(
            "expected a round frame, got {kind:?}"
        )));
    }
    let peer = RoundPayload::<P::Message, P::Output>::decode(&peer_bytes)
        .map_err(TransportError::Frame)?;
    if peer.round != round {
        return Err(TransportError::Protocol(format!(
            "round desync: peer is at round {}, local round is {round}",
            peer.round
        )));
    }
    let n = shard.graph.n();
    let peer_newly = peer.newly_halted.len();
    for (v, out) in peer.newly_halted {
        let peer_owned = v < n && !(shard.lo..shard.hi).contains(&v);
        if !peer_owned || shard.outputs[v].is_some() {
            return Err(TransportError::Protocol(format!(
                "peer reported a halt for node {v} it does not own"
            )));
        }
        shard.outputs[v] = Some(out);
    }
    for (slot, msg) in peer.batch {
        if slot >= shard.graph.slot_count() || !shard.owns_slot(slot) {
            return Err(TransportError::Protocol(format!(
                "peer delivered to slot {slot} outside this shard"
            )));
        }
        staged.queue(slot, msg);
    }
    for (sender, msg) in peer.bcast {
        let peer_owned = sender < n && !(shard.lo..shard.hi).contains(&sender);
        if !peer_owned {
            return Err(TransportError::Protocol(format!(
                "peer broadcast from node {sender} it does not own"
            )));
        }
        if staged.broadcast_staged(sender) {
            return Err(TransportError::Protocol(format!(
                "peer broadcast from node {sender} twice in one round"
            )));
        }
        staged.queue_broadcast(sender, msg);
    }
    Ok(BlockRound {
        acct: peer.acct,
        newly_halted: peer_newly,
        error: peer.error,
    })
}

/// The symmetric per-process run loop; see the module docs for the protocol.
fn run_session<P: NodeProgram>(
    session: &mut SocketSession,
    role: Role,
    graph: &Graph,
    mut programs: Vec<P>,
    config: &ExecutorConfig,
) -> Result<RunReport<P::Output>, TransportError> {
    let n = graph.n();
    let mut fold = RoundFold::new(graph, programs.len(), config)?;
    let split = n.div_ceil(2);
    let slot_split = if split >= n {
        graph.slot_count()
    } else {
        graph.slot_range(NodeId(split)).start
    };

    // Handshake: pin protocol, topology shape, split and configuration.
    let hello = Hello {
        version: PROTOCOL_VERSION,
        role: match role {
            Role::Leader => 0,
            Role::Follower => 1,
        },
        n,
        slot_count: graph.slot_count(),
        split,
        max_rounds: config.max_rounds,
        enforce_bandwidth: config.enforce_bandwidth,
    };
    session.send(FrameKind::Hello, &hello.encode())?;
    let (kind, peer_bytes) = session.recv()?;
    if kind != FrameKind::Hello {
        return Err(TransportError::Protocol(format!(
            "expected a hello frame, got {kind:?}"
        )));
    }
    let peer = Hello::decode(&peer_bytes).map_err(TransportError::Frame)?;
    if peer.version != PROTOCOL_VERSION {
        return Err(TransportError::Protocol(format!(
            "protocol version skew: local {PROTOCOL_VERSION}, peer {}",
            peer.version
        )));
    }
    if peer.role == hello.role {
        return Err(TransportError::Protocol(format!(
            "both endpoints claim role {} (one must listen, one connect)",
            peer.role
        )));
    }
    if (peer.n, peer.slot_count, peer.split) != (n, hello.slot_count, split) {
        return Err(TransportError::Protocol(format!(
            "topology skew: local (n={n}, slots={}, split={split}), peer (n={}, slots={}, split={})",
            hello.slot_count, peer.n, peer.slot_count, peer.split
        )));
    }
    if (peer.max_rounds, peer.enforce_bandwidth) != (hello.max_rounds, hello.enforce_bandwidth) {
        return Err(TransportError::Protocol(
            "executor configuration skew between the two processes".to_string(),
        ));
    }

    let (lo, hi) = match role {
        Role::Leader => (0, split),
        Role::Follower => (split, n),
    };
    // Only the local block runs here; the peer executes the rest.
    let mut block = fold.block(lo, &mut programs[lo..hi]);
    let mut shard = Shard {
        graph,
        lo,
        hi,
        slot_split,
        leader: role == Role::Leader,
        out_batch: Vec::new(),
        out_bcast: Vec::new(),
        outputs: std::iter::repeat_with(|| None).take(n).collect(),
    };
    let mut delivery: ArenaDelivery<P::Message> = ArenaDelivery::new(graph);

    let mut round = 0;
    loop {
        let (delivered, staged) = delivery.split();
        block.wake_receivers(
            delivered.senders().iter().copied(),
            delivered.written().iter().copied(),
        );
        let mine = block.run_round(
            round,
            |v| delivered.inbox(graph, v),
            |from, unit| shard.route(from, unit, staged),
        );
        let peer = exchange(session, &mut shard, round, &block, &mine, staged)?;
        // `[leader, follower]` is block order, so both sides fold alike.
        let verdict = match role {
            Role::Leader => fold.fold([mine, peer]),
            Role::Follower => fold.fold([peer, mine]),
        };
        delivery.advance();
        if verdict == Verdict::Stop {
            break;
        }
        round += 1;
    }

    // Both shards' halts were folded and the peer's outputs applied, so a
    // successful run has every output present on both sides.
    let mut outputs = shard.outputs;
    outputs.splice(lo..hi, block.into_outputs());
    fold.finish(outputs).map_err(TransportError::Execution)
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_sim::engine::SyncExecutor;
    use congest_sim::program::{Inbox, NodeContext, Outbox, RoundAction};
    use std::io::Write;

    /// Min-id flood with staggered halting so both shards mix live and
    /// halted nodes.
    struct MinId {
        best: usize,
        rounds: u64,
    }

    impl NodeProgram for MinId {
        type Message = NodeId;
        type Output = usize;

        fn init(&mut self, ctx: &NodeContext<'_>, outbox: &mut Outbox<'_, NodeId>) {
            self.best = ctx.id.0;
            outbox.broadcast(NodeId(self.best));
        }

        fn round(
            &mut self,
            ctx: &NodeContext<'_>,
            inbox: &Inbox<'_, NodeId>,
            outbox: &mut Outbox<'_, NodeId>,
        ) -> RoundAction<usize> {
            for (_, m) in inbox.iter() {
                self.best = self.best.min(m.0);
            }
            if ctx.round >= self.rounds + (ctx.id.0 % 3) as u64 {
                RoundAction::Halt(self.best)
            } else {
                outbox.broadcast(NodeId(self.best));
                RoundAction::Continue
            }
        }
    }

    fn min_id_programs(n: usize, rounds: u64) -> Vec<MinId> {
        (0..n)
            .map(|_| MinId {
                best: usize::MAX,
                rounds,
            })
            .collect()
    }

    fn path_graph(n: usize) -> Graph {
        let edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1)).collect();
        Graph::from_edges(n, &edges).unwrap()
    }

    /// A star with its hub at node 0, so the hub's broadcast reaches both
    /// shards.
    fn star_graph(n: usize) -> Graph {
        let edges: Vec<_> = (1..n).map(|i| (0, i)).collect();
        Graph::from_edges(n, &edges).unwrap()
    }

    /// Both sides' results of one loopback run, leader first.
    type BothSides<O> = [Result<RunReport<O>, TransportError>; 2];

    /// Runs the same programs on both ends of a loopback session (the peer
    /// on a second thread) and returns both sides' results.
    fn run_both_results<P, F>(graph: &Graph, mk: F, config: &ExecutorConfig) -> BothSides<P::Output>
    where
        P: NodeProgram + Send,
        P::Output: Send,
        F: Fn() -> Vec<P> + Sync,
    {
        let listener = SocketListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (leader, follower) = thread::scope(|s| {
            let follower = s.spawn(|| {
                let mut session = SocketSession::connect(addr, Duration::from_secs(10)).unwrap();
                session.set_timeout(Duration::from_secs(30));
                session.run_program(Role::Follower, graph, mk(), config)
            });
            let mut session = listener.accept().unwrap();
            session.set_timeout(Duration::from_secs(30));
            let leader = session.run_program(Role::Leader, graph, mk(), config);
            (leader, follower.join().expect("follower thread"))
        });
        [leader, follower]
    }

    /// [`run_both_results`] for runs that must succeed on both sides.
    fn run_both<P, F>(graph: &Graph, mk: F, config: &ExecutorConfig) -> [RunReport<P::Output>; 2]
    where
        P: NodeProgram + Send,
        P::Output: Send,
        F: Fn() -> Vec<P> + Sync,
    {
        run_both_results(graph, mk, config).map(|r| r.unwrap())
    }

    /// [`run_both_results`] for runs that must fail with an execution error
    /// on both sides.
    fn both_errors<P, F>(graph: &Graph, mk: F, config: &ExecutorConfig) -> [ExecutionError; 2]
    where
        P: NodeProgram + Send,
        P::Output: Send + std::fmt::Debug,
        F: Fn() -> Vec<P> + Sync,
    {
        run_both_results(graph, mk, config).map(|r| match r {
            Err(TransportError::Execution(e)) => e,
            other => panic!("expected an execution error, got {other:?}"),
        })
    }

    #[test]
    fn socket_matches_sequential_on_both_sides() {
        let g = path_graph(17);
        let seq = SyncExecutor
            .run(&g, min_id_programs(17, 20), &ExecutorConfig::default())
            .unwrap();
        for report in run_both(&g, || min_id_programs(17, 20), &ExecutorConfig::default()) {
            assert_eq!(seq, report);
        }
    }

    /// The two-way split moves with `n`: even and odd paths down to one node
    /// per shard, plus a star whose hub feeds both shards at once.
    #[test]
    fn socket_matches_sequential_bit_for_bit_across_splits() {
        let config = ExecutorConfig::default();
        for g in (2..=7).map(path_graph).chain([star_graph(9)]) {
            let n = g.n();
            let seq = SyncExecutor
                .run(&g, min_id_programs(n, 6), &config)
                .unwrap();
            for report in run_both(&g, || min_id_programs(n, 6), &config) {
                assert_eq!(seq, report, "n={n}");
            }
        }
    }

    #[test]
    fn degenerate_inputs_match_sequential_on_both_sides() {
        let config = ExecutorConfig::default();
        // No nodes at all, and one node, which leaves the follower's block
        // empty.
        for n in [0usize, 1] {
            let g = Graph::empty(n);
            let seq = SyncExecutor
                .run(&g, min_id_programs(n, 3), &config)
                .unwrap();
            for report in run_both(&g, || min_id_programs(n, 3), &config) {
                assert_eq!(seq, report, "n={n}");
            }
        }
        // A program list that does not fit the graph fails on both sides
        // with the sequential error.
        let g = path_graph(3);
        let seq = SyncExecutor
            .run(&g, Vec::<MinId>::new(), &config)
            .unwrap_err();
        assert!(matches!(seq, ExecutionError::ProgramCountMismatch { .. }));
        for err in both_errors(&g, Vec::<MinId>::new, &config) {
            assert_eq!(err, seq);
        }
    }

    #[test]
    fn socket_session_survives_multiple_runs() {
        let g = path_graph(9);
        let config = ExecutorConfig::default();
        let seq1 = SyncExecutor
            .run(&g, min_id_programs(9, 9), &config)
            .unwrap();
        let seq2 = SyncExecutor
            .run(&g, min_id_programs(9, 2), &config)
            .unwrap();

        let listener = SocketListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        thread::scope(|s| {
            let follower = s.spawn(|| {
                let mut session = SocketSession::connect(addr, Duration::from_secs(10)).unwrap();
                let a = session
                    .run_program(Role::Follower, &g, min_id_programs(9, 9), &config)
                    .unwrap();
                let b = session
                    .run_program(Role::Follower, &g, min_id_programs(9, 2), &config)
                    .unwrap();
                (a, b)
            });
            let mut session = listener.accept().unwrap();
            let a = session
                .run_program(Role::Leader, &g, min_id_programs(9, 9), &config)
                .unwrap();
            let b = session
                .run_program(Role::Leader, &g, min_id_programs(9, 2), &config)
                .unwrap();
            let (fa, fb) = follower.join().expect("follower thread");
            assert_eq!(seq1, a);
            assert_eq!(seq1, fa);
            assert_eq!(seq2, b);
            assert_eq!(seq2, fb);
        });
    }

    /// Sends to a non-neighbor on one shard: both processes must fold the
    /// same [`ExecutionError`].
    struct BadSender {
        bad_node: usize,
    }
    impl NodeProgram for BadSender {
        type Message = usize;
        type Output = ();
        fn init(&mut self, ctx: &NodeContext<'_>, outbox: &mut Outbox<'_, usize>) {
            if ctx.id.0 == self.bad_node {
                outbox.send(NodeId(ctx.id.0 + 2), 1);
            }
        }
        fn round(
            &mut self,
            _: &NodeContext<'_>,
            _: &Inbox<'_, usize>,
            _: &mut Outbox<'_, usize>,
        ) -> RoundAction<()> {
            RoundAction::Halt(())
        }
    }

    #[test]
    fn both_sides_fold_the_same_execution_error() {
        let g = path_graph(10);
        // One offender in the leader's block, one in the follower's.
        for bad_node in [1usize, 7] {
            let mk = || (0..10).map(|_| BadSender { bad_node }).collect::<Vec<_>>();
            let seq = SyncExecutor
                .run(&g, mk(), &ExecutorConfig::default())
                .unwrap_err();
            let listener = SocketListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            thread::scope(|s| {
                let follower = s.spawn(|| {
                    SocketSession::connect(addr, Duration::from_secs(10))
                        .unwrap()
                        .run_program(Role::Follower, &g, mk(), &ExecutorConfig::default())
                });
                let leader = listener.accept().unwrap().run_program(
                    Role::Leader,
                    &g,
                    mk(),
                    &ExecutorConfig::default(),
                );
                for result in [leader, follower.join().expect("follower thread")] {
                    match result {
                        Err(TransportError::Execution(e)) => assert_eq!(e, seq),
                        other => panic!("expected the sequential error, got {other:?}"),
                    }
                }
            });
        }
    }

    /// Floods its id every round until round 3, except that every node in
    /// `bad_nodes` sends to a non-neighbor in `bad_round` (0 = init).
    struct BadSenderAt {
        bad_nodes: &'static [usize],
        bad_round: u64,
    }
    impl BadSenderAt {
        fn act(&self, ctx: &NodeContext<'_>, outbox: &mut Outbox<'_, usize>) {
            if ctx.round == self.bad_round && self.bad_nodes.contains(&ctx.id.0) {
                outbox.send(NodeId(ctx.id.0 + 2), 1);
            } else {
                outbox.broadcast(ctx.id.0);
            }
        }
    }
    impl NodeProgram for BadSenderAt {
        type Message = usize;
        type Output = ();
        fn init(&mut self, ctx: &NodeContext<'_>, outbox: &mut Outbox<'_, usize>) {
            self.act(ctx, outbox);
        }
        fn round(
            &mut self,
            ctx: &NodeContext<'_>,
            _: &Inbox<'_, usize>,
            outbox: &mut Outbox<'_, usize>,
        ) -> RoundAction<()> {
            if ctx.round >= 3 {
                return RoundAction::Halt(());
            }
            self.act(ctx, outbox);
            RoundAction::Continue
        }
    }

    /// Offenders in either shard, at init or after two rounds of cross-shard
    /// traffic; with one offender per shard in the same round, the leader's
    /// (lower) node wins on both sides, as in node order.
    #[test]
    fn first_error_matches_sequential_from_either_shard_in_any_round() {
        let g = path_graph(12);
        let offenders: [&'static [usize]; 4] = [&[0], &[5], &[9], &[5, 9]];
        for bad_nodes in offenders {
            for bad_round in [0u64, 2] {
                let mk = || {
                    (0..12)
                        .map(|_| BadSenderAt {
                            bad_nodes,
                            bad_round,
                        })
                        .collect::<Vec<_>>()
                };
                let config = ExecutorConfig::default();
                let seq = SyncExecutor.run(&g, mk(), &config).unwrap_err();
                for err in both_errors(&g, mk, &config) {
                    assert_eq!(err, seq, "bad_nodes={bad_nodes:?} bad_round={bad_round}");
                }
            }
        }
    }

    #[test]
    fn malformed_peer_bytes_surface_as_a_typed_error_not_a_panic() {
        let g = path_graph(4);
        let listener = SocketListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        thread::scope(|s| {
            // A "peer" that speaks garbage instead of the protocol.
            s.spawn(move || {
                let mut raw = TcpStream::connect(addr).unwrap();
                raw.write_all(b"GETX not a frame at all\r\n\r\n").unwrap();
            });
            let mut session = listener.accept().unwrap();
            session.set_timeout(Duration::from_secs(30));
            let err = session
                .run_program(
                    Role::Leader,
                    &g,
                    min_id_programs(4, 4),
                    &ExecutorConfig::default(),
                )
                .unwrap_err();
            assert!(
                matches!(err, TransportError::Frame(FrameError::BadMagic(_))),
                "got {err:?}"
            );
        });
    }

    /// A hand-rolled follower completes the handshake, then sends a round
    /// frame that lists one of its nodes twice as a broadcaster. The leader
    /// must refuse it with a typed protocol error instead of keeping either
    /// payload.
    #[test]
    fn duplicated_peer_broadcast_is_a_protocol_error() {
        let g = path_graph(4);
        let config = ExecutorConfig::default();
        let listener = SocketListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let slot_count = g.slot_count();
        thread::scope(|s| {
            s.spawn(move || {
                let mut raw = TcpStream::connect(addr).unwrap();
                let hello = Hello {
                    version: PROTOCOL_VERSION,
                    role: 1,
                    n: 4,
                    slot_count,
                    split: 2,
                    max_rounds: config.max_rounds,
                    enforce_bandwidth: config.enforce_bandwidth,
                };
                write_frame(&mut raw, FrameKind::Hello, &hello.encode()).unwrap();
                let round: RoundPayload<NodeId, usize> = RoundPayload {
                    round: 0,
                    acct: Default::default(),
                    newly_halted: Vec::new(),
                    error: None,
                    batch: Vec::new(),
                    bcast: vec![(3, NodeId(3)), (3, NodeId(1))],
                };
                write_frame(&mut raw, FrameKind::Round, &round.encode()).unwrap();
                // Hold the connection until the leader hangs up.
                let _ = std::io::copy(&mut raw, &mut std::io::sink());
            });
            let err = {
                let mut session = listener.accept().unwrap();
                session.set_timeout(Duration::from_secs(30));
                session
                    .run_program(Role::Leader, &g, min_id_programs(4, 4), &config)
                    .unwrap_err()
            };
            match err {
                TransportError::Protocol(msg) => assert!(msg.contains("twice"), "got {msg}"),
                other => panic!("expected a protocol error, got {other:?}"),
            }
        });
    }

    /// Every handshake check refuses its skew with a typed protocol error on
    /// each live endpoint. The leader always runs `path_graph(8)` under the
    /// default configuration; the peer is a session that differs in one
    /// respect, or (`None`) a hand-rolled peer whose hello carries the
    /// previous protocol version.
    #[test]
    fn handshake_rejects_every_kind_of_skew() {
        let default = ExecutorConfig::default();
        let short = ExecutorConfig {
            max_rounds: 10,
            ..ExecutorConfig::default()
        };
        let strict = ExecutorConfig::strict_congest();
        type Peer<'c> = Option<(Role, usize, &'c ExecutorConfig)>;
        let cases: [(&str, Peer<'_>); 5] = [
            ("topology skew", Some((Role::Follower, 9, &default))),
            (
                "both endpoints claim role",
                Some((Role::Leader, 8, &default)),
            ),
            ("configuration skew", Some((Role::Follower, 8, &short))),
            ("configuration skew", Some((Role::Follower, 8, &strict))),
            ("protocol version skew", None),
        ];
        let g = path_graph(8);
        let slot_count = g.slot_count();
        for (expected, peer) in cases {
            let listener = SocketListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            thread::scope(|s| {
                let peer = s.spawn(move || {
                    let Some((role, n, config)) = peer else {
                        let mut raw = TcpStream::connect(addr).unwrap();
                        let hello = Hello {
                            version: PROTOCOL_VERSION - 1,
                            role: 1,
                            n: 8,
                            slot_count,
                            split: 4,
                            max_rounds: default.max_rounds,
                            enforce_bandwidth: default.enforce_bandwidth,
                        };
                        write_frame(&mut raw, FrameKind::Hello, &hello.encode()).unwrap();
                        // Hold the connection until the leader hangs up.
                        let _ = std::io::copy(&mut raw, &mut std::io::sink());
                        return None;
                    };
                    let mut session =
                        SocketSession::connect(addr, Duration::from_secs(10)).unwrap();
                    session.set_timeout(Duration::from_secs(30));
                    Some(session.run_program(role, &path_graph(n), min_id_programs(n, 4), config))
                });
                let leader = {
                    let mut session = listener.accept().unwrap();
                    session.set_timeout(Duration::from_secs(30));
                    session.run_program(Role::Leader, &g, min_id_programs(8, 4), &default)
                };
                let peer = peer.join().expect("peer thread");
                for result in std::iter::once(leader).chain(peer) {
                    match result {
                        Err(TransportError::Protocol(msg)) => {
                            assert!(msg.contains(expected), "{expected}: got {msg}")
                        }
                        other => panic!("{expected}: expected a protocol error, got {other:?}"),
                    }
                }
            });
        }
    }

    struct NeverHalts;
    impl NodeProgram for NeverHalts {
        type Message = ();
        type Output = ();
        fn init(&mut self, _: &NodeContext<'_>, _: &mut Outbox<'_, ()>) {}
        fn round(
            &mut self,
            _: &NodeContext<'_>,
            _: &Inbox<'_, ()>,
            _: &mut Outbox<'_, ()>,
        ) -> RoundAction<()> {
            RoundAction::Continue
        }
    }

    #[test]
    fn round_limit_matches_sequential() {
        let g = path_graph(6);
        let config = ExecutorConfig {
            max_rounds: 10,
            ..ExecutorConfig::default()
        };
        let mk = || (0..6).map(|_| NeverHalts).collect::<Vec<_>>();
        let seq = SyncExecutor.run(&g, mk(), &config).unwrap_err();
        assert_eq!(seq, ExecutionError::RoundLimitExceeded { limit: 10 });
        for err in both_errors(&g, mk, &config) {
            assert_eq!(err, seq);
        }
    }

    /// Only odd nodes exceed the budget, so violation counts (not just the
    /// first error) must line up across the two shards.
    struct FatMessage;
    impl NodeProgram for FatMessage {
        type Message = Vec<u64>;
        type Output = ();
        fn init(&mut self, ctx: &NodeContext<'_>, outbox: &mut Outbox<'_, Vec<u64>>) {
            if ctx.id.0 % 2 == 1 {
                outbox.broadcast(vec![0u64; 64]);
            } else {
                outbox.broadcast(vec![0u64; 1]);
            }
        }
        fn round(
            &mut self,
            _: &NodeContext<'_>,
            _: &Inbox<'_, Vec<u64>>,
            _: &mut Outbox<'_, Vec<u64>>,
        ) -> RoundAction<()> {
            RoundAction::Halt(())
        }
    }

    #[test]
    fn bandwidth_counting_and_enforcement_match_sequential() {
        let g = path_graph(8);
        let mk = || (0..8).map(|_| FatMessage).collect::<Vec<_>>();
        let config = ExecutorConfig::default();
        let seq = SyncExecutor.run(&g, mk(), &config).unwrap();
        assert!(seq.bandwidth_violations > 0);
        for report in run_both(&g, mk, &config) {
            assert_eq!(report, seq);
        }
        let strict = ExecutorConfig::strict_congest();
        let seq = SyncExecutor.run(&g, mk(), &strict).unwrap_err();
        assert!(matches!(seq, ExecutionError::BandwidthExceeded { .. }));
        for err in both_errors(&g, mk, &strict) {
            assert_eq!(err, seq);
        }
    }

    /// Node 0 (leader shard) sends twice to node 1 (follower shard) in one
    /// round, so both sends cross the codec in one batch.
    struct DoubleSender {
        heard: Option<u32>,
    }
    impl NodeProgram for DoubleSender {
        type Message = u32;
        type Output = Option<u32>;
        fn init(&mut self, ctx: &NodeContext<'_>, outbox: &mut Outbox<'_, u32>) {
            if ctx.id.0 == 0 {
                outbox.send(NodeId(1), 7);
                outbox.send(NodeId(1), 9);
            }
        }
        fn round(
            &mut self,
            _: &NodeContext<'_>,
            inbox: &Inbox<'_, u32>,
            _: &mut Outbox<'_, u32>,
        ) -> RoundAction<Option<u32>> {
            if let Some(&m) = inbox.from(NodeId(0)) {
                self.heard = Some(m);
            }
            RoundAction::Halt(self.heard)
        }
    }

    #[test]
    fn duplicate_sends_keep_the_last_message_across_the_codec() {
        let g = path_graph(2);
        let mk = || {
            (0..2)
                .map(|_| DoubleSender { heard: None })
                .collect::<Vec<_>>()
        };
        for report in run_both(&g, mk, &ExecutorConfig::default()) {
            assert_eq!(report.outputs[1], Some(9));
            assert_eq!(report.messages, 2, "both sends are charged");
        }
    }
}
