//! The real-socket backend: the same machine over Unix-domain stream
//! sockets, across OS processes.
//!
//! Topology is a full mesh, and a rank finds its peers by their ranks:
//! rank `r` listens at the [`SocketCfg`] path with `.m{r}` appended, so
//! every rank can compute every peer's address. The bootstrap is one
//! phase that every rank runs alike. Rank `i` binds its listener,
//! replacing a socket file that a killed run left there (one a live
//! process still accepts on means rank `i` is already running, an error).
//! It then dials every rank `j < i`, retrying until `j`'s listener is up,
//! and accepts every `j > i`. Both ends of each connection send
//! `Hello { rank, nprocs }` and check the other's, so a machine-size
//! mismatch fails on both sides at once. Listeners come down once the
//! mesh is complete; there is no reconnect path — a lost connection is a
//! dead peer.
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
use std::io::ErrorKind::{BrokenPipe, ConnectionReset, UnexpectedEof};
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

/// Bound on the whole bootstrap. Processes of a multi-process launch may
/// start seconds apart; connects retry until this deadline.
const BOOTSTRAP_TIMEOUT: Duration = Duration::from_secs(30);

/// Poll interval for deadline-bounded accepts and connect retries.
const HANDSHAKE_POLL: Duration = Duration::from_millis(2);

/// Frame kinds (first body byte).
const FR_WIRE: u8 = 0;
const FR_FAILED: u8 = 1;
const FR_GOODBYE: u8 = 2;
const FR_HELLO: u8 = 3;

/// Per-run uniquifier for auto-generated paths (several loopback machines
/// may run concurrently in one test process).
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

/// Socket-backend configuration: where a machine's ranks meet.
#[derive(Debug, Clone)]
pub struct SocketCfg {
    /// The machine's address, the same for all its ranks: rank `r`
    /// listens at this path with `.m{r}` appended.
    pub rendezvous: SockAddr,
}

impl SocketCfg {
    /// Loopback configuration: auto-generated Unix-domain paths, for
    /// single-process runs (tests, the equivalence suite).
    pub fn loopback() -> Self {
        SocketCfg { rendezvous: SockAddr::Auto }
    }

    /// Meet over Unix-domain sockets named after `path`.
    pub fn unix(path: impl Into<PathBuf>) -> Self {
        SocketCfg { rendezvous: SockAddr::Unix(path.into()) }
    }

    /// Resolve [`SockAddr::Auto`] to a concrete per-run Unix path.
    pub(crate) fn resolved(&self) -> SocketCfg {
        match &self.rendezvous {
            SockAddr::Auto => SocketCfg::unix(std::env::temp_dir().join(format!(
                "ace-sock-{}-{}",
                std::process::id(),
                PATH_SEQ.fetch_add(1, Ordering::Relaxed)
            ))),
            _ => self.clone(),
        }
    }

    /// Where `rank` listens: the configured path with `.m{rank}` appended.
    fn rank_path(&self, rank: usize) -> PathBuf {
        let SockAddr::Unix(base) = &self.rendezvous else {
            unreachable!("Auto is resolved before binding")
        };
        let mut path = base.clone().into_os_string();
        path.push(format!(".m{rank}"));
        path.into()
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
    /// Bind `rank`'s listener at `path`. A socket file nobody accepts on
    /// was left by a killed run and is replaced. One that a live process
    /// accepts on means `rank` is already running: that is an error, and
    /// the live file stays. The probe's connection closes before any
    /// `Hello`, which the live rank's accept loop skips.
    fn bind(path: PathBuf, rank: usize) -> io::Result<Listener> {
        let sock = match UnixListener::bind(&path) {
            Err(e) if e.kind() == io::ErrorKind::AddrInUse => {
                if UnixStream::connect(&path).is_ok() {
                    let msg = format!("rank {rank} is already listening at {}", path.display());
                    return Err(io::Error::new(io::ErrorKind::AddrInUse, msg));
                }
                std::fs::remove_file(&path)?;
                UnixListener::bind(&path)?
            }
            bound => bound?,
        };
        Ok(Listener { sock, path })
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

/// Exchange `Hello { rank, nprocs }` on a fresh mesh connection: send
/// ours, then read and check the peer's, returning its rank. Both ends
/// run this, so a machine-size mismatch fails on both sides at once.
fn hello(s: &mut UnixStream, rank: usize, nprocs: usize, deadline: Instant) -> io::Result<usize> {
    send_frame(&*s, &mut Vec::new(), FR_HELLO, |b| {
        put_u32(b, rank);
        put_u32(b, nprocs);
    })?;
    s.set_read_timeout(Some(remaining(deadline)?))?;
    let body = read_frame(s)?;
    let mut r = WireReader::new(&body);
    if r.u8().map_err(bad_frame)? != FR_HELLO {
        return Err(invalid("expected Hello"));
    }
    let peer = r.u32().map_err(bad_frame)? as usize;
    let n = r.u32().map_err(bad_frame)? as usize;
    if n != nprocs {
        let says = format!("rank {rank} has nprocs={nprocs}, rank {peer} has {n}");
        return Err(invalid(format!("machine size mismatch: {says}")));
    }
    Ok(peer)
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
    /// Bootstrap this rank's endpoint: bind, build the mesh, start the
    /// per-peer reader threads. Blocks until the whole machine has met
    /// (all `nprocs` ranks) or the bootstrap deadline passes.
    pub(crate) fn establish(
        rank: usize,
        nprocs: usize,
        cfg: &SocketCfg,
        board: Arc<FailBoard>,
    ) -> io::Result<SocketTransport<M>> {
        assert!(rank < nprocs, "rank {rank} out of range for {nprocs} ranks");
        let deadline = Instant::now() + BOOTSTRAP_TIMEOUT;
        let listener = Listener::bind(cfg.rank_path(rank), rank)?;
        let mut peers: Vec<Option<UnixStream>> = (0..nprocs).map(|_| None).collect();
        // Dial every lower rank...
        for (peer, slot) in peers.iter_mut().enumerate().take(rank) {
            let mut s = connect(&cfg.rank_path(peer), deadline)?;
            let said = hello(&mut s, rank, nprocs, deadline)?;
            if said != peer {
                return Err(invalid(format!("rank {peer}'s address answered as rank {said}")));
            }
            *slot = Some(s);
        }
        // ...and accept every higher one. A connection that closes before
        // its `Hello` is another process probing whether this rank is
        // live (`Listener::bind`), not a peer.
        while peers[rank + 1..].iter().any(Option::is_none) {
            let mut s = listener.accept_deadline(deadline)?;
            let peer = match hello(&mut s, rank, nprocs, deadline) {
                Err(e) if matches!(e.kind(), UnexpectedEof | BrokenPipe | ConnectionReset) => {
                    continue
                }
                said => said?,
            };
            if peer <= rank || peer >= nprocs || peers[peer].is_some() {
                return Err(invalid(format!("unexpected Hello from rank {peer}")));
            }
            peers[peer] = Some(s);
        }
        drop(listener);

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

    /// Bootstrap rank `rank` of an `n`-rank machine at `cfg`.
    fn establish(rank: usize, n: usize, cfg: &SocketCfg) -> io::Result<SocketTransport<u64>> {
        SocketTransport::establish(rank, n, cfg, Arc::new(FailBoard::new()))
    }

    /// Bootstrap an `n`-rank machine at `cfg`, rank `r` on its own thread
    /// started after `delay(r)`.
    fn mesh_at(
        cfg: &SocketCfg,
        n: usize,
        delay: impl Fn(usize) -> Duration + Sync,
    ) -> Vec<SocketTransport<u64>> {
        let delay = &delay;
        std::thread::scope(|scope| {
            let hs: Vec<_> = (0..n)
                .map(|rank| {
                    scope.spawn(move || {
                        std::thread::sleep(delay(rank));
                        establish(rank, n, cfg).expect("establish")
                    })
                })
                .collect();
            hs.into_iter().map(|h| h.join().expect("handshake thread")).collect()
        })
    }

    fn endpoints(n: usize) -> Vec<SocketTransport<u64>> {
        mesh_at(&SocketCfg::loopback().resolved(), n, |_| Duration::ZERO)
    }

    /// Rank 0 sends the last rank ten envelopes, which arrive in order;
    /// then every endpoint shuts down.
    fn delivers_fifo_then_shuts_down(eps: &[SocketTransport<u64>]) {
        let last = eps.len() - 1;
        for i in 0..10 {
            eps[0].send_wire(last, one_part(0, i));
        }
        let got: Vec<u64> = (0..10)
            .map(|_| recv(&eps[last], Duration::from_secs(5)).expect("delivered").msg[0].0)
            .collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        for ep in eps {
            ep.shutdown();
        }
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
        eps[1].send_wire(1, one_part(1, 99)); // self-send loops back
        let e = recv(&eps[1], Duration::from_secs(1)).expect("self-send delivered");
        assert_eq!(e.msg, vec![(99, 8)]);
        delivers_fifo_then_shuts_down(&eps);
    }

    #[test]
    fn ranks_started_in_reverse_order_still_mesh() {
        // Nobody hosts the bootstrap: the highest rank starts first, and
        // rank 0 last and 200 ms late, while the others retry their dials.
        let n = 4;
        let cfg = SocketCfg::loopback().resolved();
        let eps = mesh_at(&cfg, n, |rank| {
            let late = if rank == 0 { 200 } else { 0 };
            Duration::from_millis(20 * (n - 1 - rank) as u64 + late)
        });
        delivers_fifo_then_shuts_down(&eps);
    }

    #[test]
    fn stale_socket_file_does_not_block_a_relaunch() {
        let cfg = SocketCfg::loopback().resolved();
        let stale = cfg.rank_path(1);
        // A killed run's listener: dropping a `UnixListener` leaves its
        // file behind, and nothing accepts on it any more.
        drop(UnixListener::bind(&stale).unwrap());
        assert!(stale.exists());
        let eps = mesh_at(&cfg, 3, |_| Duration::ZERO);
        delivers_fifo_then_shuts_down(&eps);
        assert!(!stale.exists(), "the listener's file outlived the bootstrap");
    }

    #[test]
    fn second_launch_of_a_live_rank_fails_and_the_machine_still_meets() {
        let (n, cfg) = (3, SocketCfg::loopback().resolved());
        let path = cfg.rank_path(1);
        std::thread::scope(|scope| {
            // Ranks 1 and 2 come up; rank 1 listens while it waits for 0.
            let cfg = &cfg;
            let live: Vec<_> =
                (1..n).map(|rank| scope.spawn(move || establish(rank, n, cfg))).collect();
            // Each probe closes before its `Hello`, as the duplicate's does.
            let t0 = Instant::now();
            while UnixStream::connect(&path).is_err() {
                assert!(t0.elapsed() < Duration::from_secs(5), "rank 1 never listened");
                std::thread::sleep(Duration::from_millis(1));
            }
            let err = establish(1, n, cfg).err().expect("a second rank 1 must be refused");
            assert!(err.to_string().contains("rank 1"), "{err}");
            assert!(path.exists(), "the duplicate unlinked the live listener");
            let mut eps = vec![establish(0, n, cfg).expect("rank 0")];
            eps.extend(live.into_iter().map(|h| h.join().unwrap().expect("live rank")));
            delivers_fifo_then_shuts_down(&eps);
        });
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
        // Rank 1 launched with the wrong --procs: both ends of its first
        // connection read the other's `Hello` and fail at once, long
        // before the bootstrap deadline.
        let cfg = SocketCfg::loopback().resolved();
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            let cfg = &cfg;
            let ends =
                [(0, 2), (1, 3)].map(|(rank, n)| scope.spawn(move || establish(rank, n, cfg)));
            for end in ends {
                let err = end.join().unwrap().err().expect("size mismatch must be rejected");
                assert!(err.to_string().contains("machine size mismatch"), "{err}");
            }
        });
        assert!(t0.elapsed() < Duration::from_secs(5), "mismatch took {:?}", t0.elapsed());
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
