//! Blocking client for the `flatwalk-serve-v1` protocol, used by the
//! `flatwalk-client` binary and the end-to-end tests.
//!
//! A [`Connection`] is one stream to the server (TCP loopback with
//! `TCP_NODELAY`, or a Unix socket). Requests go out as single lines,
//! one write each ([`crate::proto::write_line`]); replies are read
//! back line-by-line — [`Connection::request`] for one-reply ops,
//! [`Connection::recv_line`] to drain a `submit … "stream":true` event
//! stream.
//!
//! [`Backoff`] supplies the retry schedule for reconnects and
//! idempotent resubmits: exponential growth with deterministic
//! SplitMix64 jitter, so two clients started together do not hammer a
//! recovering server in lockstep.

use std::io::{BufRead, BufReader, Read};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
#[cfg(unix)]
use std::path::Path;
use std::time::Duration;

use flatwalk_types::rng::SplitMix64;

use crate::proto::write_line;

/// Jittered exponential backoff schedule.
///
/// Delay for attempt `n` (0-based) is `base × 2ⁿ` capped at `cap`,
/// then jittered to 50–100% of that value by a SplitMix64 stream
/// seeded per-process — deterministic within one client, decorrelated
/// across clients.
#[derive(Debug, Clone)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    attempt: u32,
    rng: SplitMix64,
}

impl Backoff {
    /// A schedule starting at `base`, doubling per attempt, capped at
    /// `cap`.
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Backoff {
        Backoff {
            base,
            cap,
            attempt: 0,
            rng: SplitMix64::new(seed ^ 0x9E37_79B9_7F4A_7C15),
        }
    }

    /// The default reconnect schedule: 50 ms → 2 s, seeded from the
    /// process id.
    pub fn reconnect() -> Backoff {
        Backoff::new(
            Duration::from_millis(50),
            Duration::from_secs(2),
            u64::from(std::process::id()),
        )
    }

    /// Attempts handed out so far.
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    /// The next delay in the schedule (advances the attempt counter).
    pub fn next_delay(&mut self) -> Duration {
        let z = self.rng.next_u64();
        let exp = self.attempt.min(20);
        self.attempt = self.attempt.saturating_add(1);
        let full = self
            .base
            .saturating_mul(1u32 << exp.min(31))
            .min(self.cap)
            .as_nanos() as u64;
        // Jitter into [full/2, full].
        let jittered = full / 2 + z % (full / 2 + 1);
        Duration::from_nanos(jittered)
    }

    /// Sleeps for the next delay in the schedule.
    pub fn sleep(&mut self) {
        std::thread::sleep(self.next_delay());
    }
}

/// Either local stream transport.
#[derive(Debug)]
enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Stream {
    fn try_clone(&self) -> std::io::Result<Stream> {
        Ok(match self {
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
            #[cfg(unix)]
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
        })
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

/// One open connection to a flatwalk-serve daemon.
#[derive(Debug)]
pub struct Connection {
    reader: BufReader<Stream>,
    writer: Stream,
}

impl Connection {
    fn from_stream(stream: Stream) -> std::io::Result<Connection> {
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Connection {
            reader,
            writer: stream,
        })
    }

    /// Connects over TCP, e.g. `"127.0.0.1:4641"`, with `TCP_NODELAY`
    /// set.
    ///
    /// # Errors
    ///
    /// Propagates connect and socket-option failures.
    pub fn connect_tcp(addr: &str) -> std::io::Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Connection::from_stream(Stream::Tcp(stream))
    }

    /// Connects over a Unix socket.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    #[cfg(unix)]
    pub fn connect_uds(path: &Path) -> std::io::Result<Connection> {
        Connection::from_stream(Stream::Unix(UnixStream::connect(path)?))
    }

    /// Sends one request line (one write, see
    /// [`write_line`](crate::proto::write_line)).
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        match &mut self.writer {
            Stream::Tcp(s) => write_line(s, line),
            #[cfg(unix)]
            Stream::Unix(s) => write_line(s, line),
        }
    }

    /// Reads the next reply line; `None` on server-side EOF.
    ///
    /// # Errors
    ///
    /// Propagates read failures.
    pub fn recv_line(&mut self) -> std::io::Result<Option<String>> {
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Ok(None);
            }
            let trimmed = line.trim_end_matches(['\n', '\r']);
            if !trimmed.is_empty() {
                return Ok(Some(trimmed.to_string()));
            }
        }
    }

    /// Sends one request and reads its single reply line.
    ///
    /// # Errors
    ///
    /// Write/read failures, or an unexpected EOF before the reply.
    pub fn request(&mut self, line: &str) -> std::io::Result<String> {
        self.send(line)?;
        self.recv_line()?.ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection before replying",
            )
        })
    }
}

/// Runs `connect` up to `tries` times, sleeping the backoff schedule
/// between failures — the reconnect loop for clients riding out a
/// server restart.
///
/// # Errors
///
/// The last connect error once every attempt failed.
pub fn connect_with_retry<F>(
    mut connect: F,
    tries: u32,
    backoff: &mut Backoff,
) -> std::io::Result<Connection>
where
    F: FnMut() -> std::io::Result<Connection>,
{
    let tries = tries.max(1);
    let mut last = None;
    for attempt in 0..tries {
        match connect() {
            Ok(conn) => return Ok(conn),
            Err(e) => {
                last = Some(e);
                if attempt + 1 < tries {
                    backoff.sleep();
                }
            }
        }
    }
    Err(last.expect("loop ran at least once"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_jittered_and_caps() {
        let base = Duration::from_millis(50);
        let cap = Duration::from_secs(2);
        let mut b = Backoff::new(base, cap, 7);
        let first = b.next_delay();
        assert!(first >= base / 2 && first <= base, "{first:?}");
        for _ in 0..20 {
            let d = b.next_delay();
            assert!(d >= base / 2 && d <= cap, "{d:?}");
        }
        // Deep into the schedule every delay sits in the cap's window.
        let late = b.next_delay();
        assert!(late >= cap / 2 && late <= cap, "{late:?}");
        assert_eq!(b.attempts(), 22);

        // Same seed, same schedule; different seed, different jitter.
        let seq = |seed: u64| -> Vec<Duration> {
            let mut b = Backoff::new(base, cap, seed);
            (0..8).map(|_| b.next_delay()).collect()
        };
        assert_eq!(seq(7), seq(7));
        assert_ne!(seq(7), seq(8));
    }

    #[test]
    fn backoff_schedule_is_pinned() {
        let mut b = Backoff::new(Duration::from_millis(50), Duration::from_secs(2), 7);
        let nanos: Vec<u128> = (0..8).map(|_| b.next_delay().as_nanos()).collect();
        assert_eq!(
            nanos,
            [
                33_914_056,
                85_463_557,
                196_485_841,
                209_911_119,
                402_595_987,
                1_040_030_617,
                1_171_899_160,
                1_345_391_180,
            ]
        );
    }

    #[test]
    fn connect_with_retry_gives_up_with_the_last_error() {
        let mut calls = 0;
        let mut backoff = Backoff::new(Duration::from_micros(1), Duration::from_micros(2), 1);
        let err = connect_with_retry(
            || {
                calls += 1;
                Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionRefused,
                    "nope",
                ))
            },
            3,
            &mut backoff,
        )
        .expect_err("never succeeds");
        assert_eq!(calls, 3);
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);
    }
}
