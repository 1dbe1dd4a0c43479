//! The real-socket backend: the same machine over Unix-domain stream
//! sockets, across OS processes.
//!
//! Topology is a full mesh. A run bootstraps in two phases:
//!
//! 1. **Rendezvous.** Every rank first binds its own *mesh listener*,
//!    then rank 0 additionally binds the rendezvous path from
//!    [`SocketCfg`]. Each other rank connects there and sends
//!    `Join { want_rank, listen_path }`; once all `nprocs` ranks are
//!    present, rank 0 answers each with `Welcome { rank, paths }` — the
//!    assigned rank plus every rank's mesh path — and closes the
//!    rendezvous listener.
//! 2. **Mesh.** Rank `i` connects to every rank `j < i` (announcing
//!    itself with `Hello { rank }`) and accepts connections from every
//!    `j > i`. Listeners come down once the mesh is complete; there is no
//!    reconnect path — a lost connection is a dead peer.
//!
//! After the handshake the node's own thread writes: [`Transport::send_wire`]
//! encodes the [`Wire`] envelope with [`WireCodec`] behind a `u32` length
//! prefix and `write_all`s the frame to the peer's stream, so per-pair
//! FIFO is the byte order of one stream. Every wire frame has one shape,
//! one part or many: length, frame kind, the envelope's source, send
//! time, byte count, vector-clock flag (and clock) and switch epoch, then
//! a part count and each part as its payload size and message. Each endpoint runs one **reader
//! thread** per peer, decoding frames into the endpoint's unbounded
//! [`Mailbox`], which the node parks on exactly as it parks on an
//! in-process one. That is why a write cannot deadlock: a `write_all`
//! blocked on a full socket buffer waits only for the peer's reader
//! thread, which drains without waiting on the peer's node.
//!
//! Failure mapping is reconnect-free fail-fast, same contract as the
//! in-process backend: a panicking node broadcasts a `Failed` frame
//! (rank + panic message) to every peer before closing, and an endpoint
//! whose connection dies *without* a `Goodbye` frame records the peer as
//! failed — both land on the machine-wide [`FailBoard`], which wakes
//! the node if it is parked on its mailbox.

use std::cell::RefCell;
use std::io::{self, Read, Write};
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::envelope::Wire;
use crate::transport::codec::{put_string, CodecError, WireCodec, WireReader};
use crate::transport::{FailBoard, Mailbox, Transport};

/// Rank cap for socket machines: the mesh needs O(n²) descriptors
/// machine-wide and n-1 reader threads per rank, so the backend stays
/// honest about what a full mesh can carry. (In-process machines go to
/// [`crate::MAX_NODES`].)
pub const SOCKET_MAX_RANKS: usize = 64;

/// Measured fixed framing overhead of a one-part wire envelope on this
/// backend: 4-byte length prefix + 1 frame kind + 4 source rank + 8 send
/// time + 4 byte count + 1 vector-clock presence flag + 8 switch epoch +
/// 4 part count + 4 part payload size. Reported through
/// [`Transport::header_bytes`], so byte *accounting* under `Socket`
/// reflects real framing while logical message counts stay identical to
/// the in-process backend.
pub const SOCKET_HEADER_BYTES: usize = 38;

/// Hard ceiling on a received frame's body, so a corrupt length prefix
/// cannot ask for gigabytes.
const MAX_FRAME: usize = 1 << 28;

/// Poll interval for deadline-bounded accepts and connect retries.
const HANDSHAKE_POLL: Duration = Duration::from_millis(2);

/// Frame kinds (first body byte).
const FR_WIRE: u8 = 0;
const FR_FAILED: u8 = 1;
const FR_GOODBYE: u8 = 2;
const HS_JOIN: u8 = 10;
const HS_WELCOME: u8 = 11;
const HS_HELLO: u8 = 12;

/// Per-run uniquifier for auto-generated rendezvous and mesh-listener
/// paths (several loopback machines may run concurrently in one test
/// process).
static PATH_SEQ: AtomicU64 = AtomicU64::new(0);

/// Where a socket machine's ranks meet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SockAddr {
    /// A Unix-domain socket path.
    Unix(PathBuf),
    /// Pick a fresh Unix-domain path under the temp directory at run
    /// time. Only valid for single-process (loopback) machines: other
    /// processes cannot know the generated path, so
    /// [`crate::MachineBuilder::spawn_rank`] rejects it.
    Auto,
}

/// Socket-backend configuration: where ranks rendezvous and how long the
/// bootstrap may take.
#[derive(Debug, Clone)]
pub struct SocketCfg {
    /// The rendezvous path rank 0 listens on and every other rank
    /// connects to. Mesh listeners are bound next to it.
    pub rendezvous: SockAddr,
    /// Bound on the whole bootstrap (rendezvous plus mesh). Processes of
    /// a multi-process launch may start seconds apart; connects retry
    /// until this deadline.
    pub handshake_timeout: Duration,
}

impl SocketCfg {
    /// Loopback configuration: auto-generated Unix-domain paths, for
    /// single-process runs (tests, the equivalence suite).
    pub fn loopback() -> Self {
        SocketCfg { rendezvous: SockAddr::Auto, handshake_timeout: Duration::from_secs(30) }
    }

    /// Rendezvous over a Unix-domain socket at `path`.
    pub fn unix(path: impl Into<PathBuf>) -> Self {
        SocketCfg { rendezvous: SockAddr::Unix(path.into()), ..Self::loopback() }
    }

    /// Override the bootstrap deadline.
    pub fn handshake_timeout(mut self, d: Duration) -> Self {
        self.handshake_timeout = d;
        self
    }

    /// Resolve [`SockAddr::Auto`] to a concrete per-run Unix path.
    pub(crate) fn resolved(&self) -> SocketCfg {
        match &self.rendezvous {
            SockAddr::Auto => {
                let path = std::env::temp_dir().join(format!(
                    "ace-rdv-{}-{}",
                    std::process::id(),
                    PATH_SEQ.fetch_add(1, Ordering::Relaxed)
                ));
                SocketCfg { rendezvous: SockAddr::Unix(path), ..self.clone() }
            }
            _ => self.clone(),
        }
    }

    /// The concrete rendezvous path.
    fn rendezvous_path(&self) -> &Path {
        match &self.rendezvous {
            SockAddr::Unix(p) => p,
            SockAddr::Auto => unreachable!("Auto is resolved before binding"),
        }
    }
}

// ---------------------------------------------------------------------------
// Listeners and dialing
// ---------------------------------------------------------------------------

/// A bound listener and the socket file it removes when dropped.
struct Listener {
    sock: UnixListener,
    path: PathBuf,
}

impl Listener {
    /// Bind at `path`, removing a stale socket file from a crashed
    /// previous run first.
    fn bind(path: PathBuf) -> io::Result<Listener> {
        let _ = std::fs::remove_file(&path);
        Ok(Listener { sock: UnixListener::bind(&path)?, path })
    }

    /// Bind this rank's mesh listener at a derived per-rank path next to
    /// the rendezvous path.
    fn bind_mesh(rendezvous: &Path, rank: usize) -> io::Result<Listener> {
        Listener::bind(rendezvous.with_file_name(format!(
            "{}.m{rank}.{}.{}",
            rendezvous.file_name().and_then(|s| s.to_str()).unwrap_or("ace"),
            std::process::id(),
            PATH_SEQ.fetch_add(1, Ordering::Relaxed),
        )))
    }

    /// Accept one connection before `deadline` (polling non-blocking so a
    /// wedged bootstrap cannot hang forever). The accepted stream is
    /// returned in blocking mode.
    fn accept_deadline(&self, deadline: Instant) -> io::Result<UnixStream> {
        self.sock.set_nonblocking(true)?;
        let would_block = |k| k == io::ErrorKind::WouldBlock;
        let (s, _) = retry(deadline, "handshake accept", would_block, || self.sock.accept())?;
        s.set_nonblocking(false)?;
        Ok(s)
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Dial `path`, retrying until `deadline` (the peer's listener may not be
/// up yet in a multi-process launch).
fn connect(path: &Path, deadline: Instant) -> io::Result<UnixStream> {
    let absent = |k| matches!(k, io::ErrorKind::ConnectionRefused | io::ErrorKind::NotFound);
    let what = format!("connect to {}", path.display());
    retry(deadline, &what, absent, || UnixStream::connect(path))
}

/// Run `attempt` every [`HANDSHAKE_POLL`] while it fails with an error
/// kind `transient` accepts, giving up as timed out at `deadline`.
fn retry<T>(
    deadline: Instant,
    what: &str,
    transient: impl Fn(io::ErrorKind) -> bool,
    mut attempt: impl FnMut() -> io::Result<T>,
) -> io::Result<T> {
    loop {
        match attempt() {
            Err(e) if transient(e.kind()) => {
                if Instant::now() >= deadline {
                    let msg = format!("{what} timed out: {e}");
                    return Err(io::Error::new(io::ErrorKind::TimedOut, msg));
                }
                std::thread::sleep(HANDSHAKE_POLL);
            }
            done => return done,
        }
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Build one frame in `buf` — a `u32` length prefix, the frame `kind`,
/// then whatever `body` appends — and write it with one `write_all`.
fn send_frame(
    mut w: impl Write,
    buf: &mut Vec<u8>,
    kind: u8,
    body: impl FnOnce(&mut Vec<u8>),
) -> io::Result<()> {
    buf.clear();
    buf.extend_from_slice(&[0; 4]);
    buf.push(kind);
    body(buf);
    let len = (buf.len() - 4) as u32;
    buf[..4].copy_from_slice(&len.to_le_bytes());
    w.write_all(buf)
}

fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let n = u32::from_le_bytes(len) as usize;
    if n > MAX_FRAME {
        return Err(invalid(format!("frame of {n} bytes exceeds the {MAX_FRAME}-byte cap")));
    }
    let mut body = vec![0u8; n];
    r.read_exact(&mut body)?;
    Ok(body)
}

fn put_u32(buf: &mut Vec<u8>, v: usize) {
    buf.extend_from_slice(&(v as u32).to_le_bytes());
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn bad_frame(e: CodecError) -> io::Error {
    invalid(format!("malformed handshake frame: {e}"))
}

fn remaining(deadline: Instant) -> io::Result<Duration> {
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return Err(io::Error::new(io::ErrorKind::TimedOut, "handshake deadline expired"));
    }
    Ok(left)
}

// ---------------------------------------------------------------------------
// Rendezvous
// ---------------------------------------------------------------------------

/// Run the rank-0 side of the rendezvous: collect `nprocs - 1` joins,
/// assign ranks, reply with the full path table. Returns that table.
fn host_rendezvous(
    cfg: &SocketCfg,
    nprocs: usize,
    my_path: String,
    deadline: Instant,
) -> io::Result<Vec<String>> {
    let rdv = Listener::bind(cfg.rendezvous_path().to_path_buf())?;
    let mut paths = vec![String::new(); nprocs];
    paths[0] = my_path;
    let mut joined: Vec<(usize, UnixStream)> = Vec::with_capacity(nprocs - 1);
    for _ in 1..nprocs {
        let mut s = rdv.accept_deadline(deadline)?;
        s.set_read_timeout(Some(remaining(deadline)?))?;
        let body = read_frame(&mut s)?;
        let mut r = WireReader::new(&body);
        if r.u8().map_err(bad_frame)? != HS_JOIN {
            return Err(invalid("expected Join"));
        }
        let want = r.u32().map_err(bad_frame)? as usize;
        let path = r.string().map_err(bad_frame)?;
        // Honor the requested rank when it's free; otherwise hand out the
        // lowest free one (the joiner errors out if that's not the rank
        // it was launched as — a double-launch, not something to paper
        // over).
        let assigned = if want < nprocs && paths[want].is_empty() {
            want
        } else {
            match paths.iter().position(|a| a.is_empty()) {
                Some(i) => i,
                None => unreachable!("accept loop admits exactly nprocs - 1 joiners"),
            }
        };
        paths[assigned] = path;
        joined.push((assigned, s));
    }
    let mut buf = Vec::new();
    for (rank, s) in joined {
        send_frame(&s, &mut buf, HS_WELCOME, |b| {
            put_u32(b, rank);
            put_u32(b, nprocs);
            for p in &paths {
                put_string(b, p);
            }
        })?;
    }
    Ok(paths)
}

/// Run the joiner side: announce our mesh path and desired rank, wait
/// for the path table.
fn join_rendezvous(
    cfg: &SocketCfg,
    rank: usize,
    nprocs: usize,
    my_path: &str,
    deadline: Instant,
) -> io::Result<Vec<String>> {
    let mut s = connect(cfg.rendezvous_path(), deadline)?;
    send_frame(&s, &mut Vec::new(), HS_JOIN, |b| {
        put_u32(b, rank);
        put_string(b, my_path);
    })?;
    s.set_read_timeout(Some(remaining(deadline)?))?;
    let body = read_frame(&mut s)?;
    let mut r = WireReader::new(&body);
    if r.u8().map_err(bad_frame)? != HS_WELCOME {
        return Err(invalid("expected Welcome"));
    }
    let assigned = r.u32().map_err(bad_frame)? as usize;
    let n = r.u32().map_err(bad_frame)? as usize;
    if assigned != rank {
        return Err(io::Error::new(
            io::ErrorKind::AddrInUse,
            format!("rank {rank} already joined this machine (rendezvous offered {assigned})"),
        ));
    }
    if n != nprocs {
        let says = format!("launched with nprocs={nprocs}, rendezvous says {n}");
        return Err(invalid(format!("machine size mismatch: {says}")));
    }
    let mut paths = Vec::with_capacity(n);
    for _ in 0..n {
        paths.push(r.string().map_err(bad_frame)?);
    }
    Ok(paths)
}

// ---------------------------------------------------------------------------
// The endpoint
// ---------------------------------------------------------------------------

/// One rank's endpoint on a socket machine. Construction
/// ([`SocketTransport::establish`]) performs the full bootstrap described
/// in the module docs; afterwards the owning node thread writes every
/// frame itself and the per-peer reader threads deliver.
pub struct SocketTransport<M> {
    rank: usize,
    /// Fed by the per-peer reader threads, and directly by self-sends
    /// (which loop back without touching a socket).
    inbox: Arc<Mailbox<M>>,
    /// Per-peer streams, written by the node thread. `None` at our own
    /// rank and after a write to that peer failed; empty after the
    /// farewell.
    peers: RefCell<Vec<Option<UnixStream>>>,
    /// The frame under construction, reused by every send.
    frame: RefCell<Vec<u8>>,
    board: Arc<FailBoard>,
}

impl<M: WireCodec + Send + 'static> SocketTransport<M> {
    /// Bootstrap this rank's endpoint: bind, rendezvous, build the mesh,
    /// start the per-peer reader threads. Blocks until the whole machine
    /// has met (all `nprocs` ranks) or the handshake deadline passes.
    pub(crate) fn establish(
        rank: usize,
        nprocs: usize,
        cfg: &SocketCfg,
        board: Arc<FailBoard>,
    ) -> io::Result<SocketTransport<M>> {
        assert!(rank < nprocs, "rank {rank} out of range for {nprocs} ranks");
        let deadline = Instant::now() + cfg.handshake_timeout;
        let mesh = Listener::bind_mesh(cfg.rendezvous_path(), rank)?;
        let my_path = mesh.path.display().to_string();
        let paths = if rank == 0 {
            host_rendezvous(cfg, nprocs, my_path, deadline)?
        } else {
            join_rendezvous(cfg, rank, nprocs, &my_path, deadline)?
        };

        let mut peers: Vec<Option<UnixStream>> = (0..nprocs).map(|_| None).collect();
        // Dial every lower rank, announcing who we are...
        for (peer, path) in paths.iter().enumerate().take(rank) {
            let s = connect(Path::new(path), deadline)?;
            send_frame(&s, &mut Vec::new(), HS_HELLO, |b| put_u32(b, rank))?;
            peers[peer] = Some(s);
        }
        // ...and accept every higher one, learning who they are.
        for _ in rank + 1..nprocs {
            let mut s = mesh.accept_deadline(deadline)?;
            s.set_read_timeout(Some(remaining(deadline)?))?;
            let body = read_frame(&mut s)?;
            let mut r = WireReader::new(&body);
            if r.u8().map_err(bad_frame)? != HS_HELLO {
                return Err(invalid("expected Hello"));
            }
            let peer = r.u32().map_err(bad_frame)? as usize;
            if peer <= rank || peer >= nprocs || peers[peer].is_some() {
                return Err(invalid(format!("unexpected Hello from rank {peer}")));
            }
            peers[peer] = Some(s);
        }
        drop(mesh);

        let inbox = Arc::new(Mailbox::new());
        let parked = Arc::clone(&inbox);
        board.on_failure(move || parked.poke());
        for (peer, s) in peers.iter().enumerate() {
            let Some(s) = s else { continue };
            s.set_read_timeout(None)?;
            let read_half = s.try_clone()?;
            let rd_inbox = Arc::clone(&inbox);
            let rd_board = Arc::clone(&board);
            std::thread::Builder::new()
                .name(format!("ace-rd-{rank}-{peer}"))
                .spawn(move || reader_loop(read_half, peer, rd_inbox, rd_board))
                .expect("spawn socket reader");
        }
        Ok(SocketTransport {
            rank,
            inbox,
            peers: RefCell::new(peers),
            frame: RefCell::new(Vec::new()),
            board,
        })
    }

    /// Write one frame to `peer`. A send to a peer whose stream is gone
    /// is a dead wire and is dropped, matching the in-process semantics;
    /// a failed write makes the stream gone.
    fn send_to(&self, peer: usize, kind: u8, body: impl FnOnce(&mut Vec<u8>)) {
        let mut peers = self.peers.borrow_mut();
        let Some(Some(s)) = peers.get(peer) else { return };
        if send_frame(s, &mut self.frame.borrow_mut(), kind, body).is_err() {
            peers[peer] = None;
        }
    }

    /// Close the wire once: optionally broadcast a failure, always say
    /// goodbye, and half-close every stream. The frames are in the kernel
    /// when this returns, so the owning thread (or process) may go away.
    fn farewell(&self, failed: Option<(usize, &str)>) {
        let peers = std::mem::take(&mut *self.peers.borrow_mut());
        let mut buf = self.frame.borrow_mut();
        for s in peers.iter().flatten() {
            if let Some((rank, msg)) = failed {
                let _ = send_frame(s, &mut buf, FR_FAILED, |b| {
                    put_u32(b, rank);
                    put_string(b, msg);
                });
            }
            let _ = send_frame(s, &mut buf, FR_GOODBYE, |b| put_u32(b, self.rank));
            let _ = s.shutdown(Shutdown::Write);
        }
    }
}

impl<M> Drop for SocketTransport<M> {
    /// An endpoint dropped without [`Transport::shutdown`] (the hard-kill
    /// path) half-closes what is still open: the reader threads hold
    /// their own clones of the streams, so merely dropping ours would
    /// leave the connections up. Peers see EOF without a goodbye and
    /// record this rank as failed.
    fn drop(&mut self) {
        for s in self.peers.get_mut().iter().flatten() {
            let _ = s.shutdown(Shutdown::Write);
        }
    }
}

impl<M: WireCodec + Send + 'static> Transport<M> for SocketTransport<M> {
    fn send_wire(&self, dst: usize, wire: Wire<M>) {
        if dst == self.rank {
            self.inbox.push(wire);
        } else {
            self.send_to(dst, FR_WIRE, |b| wire.encode(b));
        }
    }

    fn mailbox(&self) -> &Mailbox<M> {
        &self.inbox
    }

    fn header_bytes(&self) -> usize {
        SOCKET_HEADER_BYTES
    }

    fn failed_rank(&self) -> isize {
        self.board.failed_rank()
    }

    fn failure_detail(&self) -> String {
        self.board.detail()
    }

    fn signal_failure(&self, rank: usize, msg: &str) {
        self.board.record(rank, msg.to_string());
        self.farewell(Some((rank, msg)));
    }

    fn shutdown(&self) {
        self.farewell(None);
    }
}

/// Reader thread: one per peer, owning the connection's receive half.
/// Decoded wire envelopes feed the endpoint's mailbox; failure frames and
/// abrupt closes land on the failure board. A reader outlives its
/// endpoint only until the peer closes the connection, delivering to a
/// mailbox nobody reads any more.
fn reader_loop<M: WireCodec>(
    mut s: UnixStream,
    peer: usize,
    inbox: Arc<Mailbox<M>>,
    board: Arc<FailBoard>,
) {
    let death = loop {
        let body = match read_frame(&mut s) {
            Ok(b) => b,
            // EOF without a Goodbye frame: the peer's process died
            // abruptly (a panic broadcasts Failed + Goodbye first, so
            // first-writer-wins keeps the real cause).
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                break "connection closed without goodbye".to_string()
            }
            Err(e) => break format!("connection error: {e}"),
        };
        let mut r = WireReader::new(&body);
        match r.u8() {
            Ok(FR_WIRE) => match Wire::<M>::decode(&mut r) {
                Ok(wire) => inbox.push(wire),
                Err(e) => break format!("undecodable wire frame: {e}"),
            },
            Ok(FR_FAILED) => {
                let rank = r.u32().unwrap_or(peer as u32) as usize;
                let msg = r.string().unwrap_or_default();
                board.record(rank, msg);
            }
            Ok(FR_GOODBYE) => return,
            Ok(k) => break format!("unknown frame kind {k}"),
            Err(_) => break "empty frame".to_string(),
        }
    };
    board.record(peer, death);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::tests::one_part;
    use crate::envelope::Envelope;
    use crate::sched::Parker;

    /// Block on `ep`'s mailbox for up to `d`, as a node would.
    fn recv(ep: &SocketTransport<u64>, d: Duration) -> Option<Wire<u64>> {
        ep.mailbox().park(&Parker::thread(), Instant::now() + d, || false).ok()
    }

    fn endpoints(n: usize) -> Vec<SocketTransport<u64>> {
        let cfg = SocketCfg::loopback().resolved();
        let board: Vec<Arc<FailBoard>> = (0..n).map(|_| Arc::new(FailBoard::new())).collect();
        std::thread::scope(|scope| {
            let mut hs = Vec::new();
            for rank in 0..n {
                let cfg = cfg.clone();
                let board = Arc::clone(&board[rank]);
                hs.push(scope.spawn(move || {
                    SocketTransport::establish(rank, n, &cfg, board).expect("establish")
                }));
            }
            hs.into_iter().map(|h| h.join().expect("handshake thread")).collect()
        })
    }

    #[test]
    fn header_bytes_is_a_one_part_frame_minus_its_message() {
        let mut frame = Vec::new();
        send_frame(io::sink(), &mut frame, FR_WIRE, |b| one_part(3, 7).encode(b)).unwrap();
        let mut msg = Vec::new();
        7u64.encode(&mut msg);
        assert_eq!(frame.len() - msg.len(), SOCKET_HEADER_BYTES);
    }

    #[test]
    fn mesh_establishes_and_delivers_fifo() {
        let eps = endpoints(3);
        for i in 0..10 {
            eps[0].send_wire(2, one_part(0, i));
        }
        eps[1].send_wire(1, one_part(1, 99)); // self-send loops back
        let mut got = Vec::new();
        while got.len() < 10 {
            let e = recv(&eps[2], Duration::from_secs(5)).expect("delivered");
            got.push(e.msg[0].0);
        }
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        let e = recv(&eps[1], Duration::from_secs(1)).expect("self-send delivered");
        assert_eq!(e.msg, vec![(99, 8)]);
        for ep in &eps {
            ep.shutdown();
        }
    }

    #[test]
    fn failure_broadcast_reaches_peers() {
        let eps = endpoints(2);
        eps[1].signal_failure(1, "boom at rank 1");
        let t0 = Instant::now();
        while eps[0].failed_rank() < 0 {
            assert!(t0.elapsed() < Duration::from_secs(5), "failure frame never arrived");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(eps[0].failed_rank(), 1);
        assert_eq!(eps[0].failure_detail(), "boom at rank 1");
        eps[0].shutdown();
    }

    #[test]
    fn abrupt_drop_is_detected_as_peer_death() {
        let mut eps = endpoints(2);
        let ep0 = eps.remove(0);
        drop(eps); // rank 1 vanishes without shutdown(): no goodbye
        let t0 = Instant::now();
        while ep0.failed_rank() < 0 {
            assert!(t0.elapsed() < Duration::from_secs(5), "abrupt close never detected");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(ep0.failed_rank(), 1);
        ep0.shutdown();
    }

    #[test]
    fn machine_size_mismatch_is_an_error_not_a_hang() {
        // A joiner launched with the wrong --procs must fail fast with a
        // mismatch error instead of wedging the bootstrap.
        let cfg = SocketCfg::loopback().handshake_timeout(Duration::from_secs(3)).resolved();
        std::thread::scope(|scope| {
            let c0 = cfg.clone();
            let host = scope.spawn(move || {
                SocketTransport::<u64>::establish(0, 2, &c0, Arc::new(FailBoard::new()))
            });
            let c1 = cfg.clone();
            let joiner = scope.spawn(move || {
                SocketTransport::<u64>::establish(1, 3, &c1, Arc::new(FailBoard::new()))
            });
            let err = joiner.join().unwrap().err().expect("size mismatch must be rejected");
            assert!(err.to_string().contains("machine size mismatch"), "{err}");
            // The host is left waiting for a mesh connection that will
            // never come; its own deadline converts that into an error.
            assert!(host.join().unwrap().is_err(), "host must time out, not hang");
        });
    }

    #[test]
    fn both_directions_flood_before_either_receives() {
        // Each rank sends the other 8 MiB of payload words before receiving
        // anything, so both directions fill their socket buffers at once.
        // A send may block in the kernel, but only until the peer's reader
        // thread drains it into the mailbox; it never waits on the peer's
        // own receive.
        const FRAMES: u64 = 2_000;
        const WORDS: u64 = 512;
        let flood = |rank: usize, ep: SocketTransport<u64>| {
            let peer = 1 - rank;
            for f in 0..FRAMES {
                let msg = (f * WORDS..(f + 1) * WORDS).map(|w| (w, 8)).collect();
                let bytes = 8 * WORDS as usize;
                ep.send_wire(
                    peer,
                    Envelope { src: rank, send_time: 0, bytes, vc: None, sw: 0, msg },
                );
            }
            let mut next = 0;
            while next < FRAMES * WORDS {
                let wire = recv(&ep, Duration::from_secs(30))
                    .unwrap_or_else(|| panic!("rank {rank}: nothing from {peer}"));
                assert_eq!(wire.src, peer);
                for (w, _) in wire.msg {
                    assert_eq!(w, next, "rank {rank}: stream from {peer} reordered");
                    next += 1;
                }
            }
            ep
        };
        let t0 = Instant::now();
        let hs: Vec<_> = endpoints(2)
            .into_iter()
            .enumerate()
            .map(|(rank, ep)| std::thread::spawn(move || flood(rank, ep)))
            .collect();
        while !hs.iter().all(|h| h.is_finished()) {
            assert!(t0.elapsed() < Duration::from_secs(30), "the two-way flood wedged");
            std::thread::sleep(Duration::from_millis(5));
        }
        for h in hs {
            h.join().expect("flood thread").shutdown();
        }
    }
}
