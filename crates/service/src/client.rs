//! A small blocking client for the authority protocol — what the load
//! generator, the integration tests, and embedding tools use.
//!
//! [`Client`] is the bare one-connection primitive. [`RetryingClient`]
//! wraps it with reconnection and seeded exponential backoff for the
//! *idempotent* operations (`VERIFY`, `STATS`, `ROOT`): a dropped
//! connection or a [`Status::Busy`] shed from a saturated server is
//! absorbed by retrying on a fresh connection instead of surfacing to the
//! caller. The one non-idempotent operation (`SHUTDOWN`) is deliberately
//! not retried.

use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zkrownn::{Artifact, SignedClaim};
use zkrownn_ledger::LedgerLeaf;

use crate::protocol::{read_response, write_request, ProtocolError, Request, Response, Status};

/// One framed connection to a running authority.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to an authority.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self { stream })
    }

    /// Connects, retrying for up to `timeout` — for racing a server that
    /// is still binding its socket (CI startup, tests).
    pub fn connect_with_retry(
        addr: impl ToSocketAddrs + Copy,
        timeout: Duration,
    ) -> io::Result<Self> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            match Self::connect(addr) {
                Ok(c) => return Ok(c),
                Err(e) => {
                    if std::time::Instant::now() >= deadline {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        }
    }

    /// Sends one request and reads its response.
    pub fn request(&mut self, request: &Request) -> Result<Response, ProtocolError> {
        write_request(&mut self.stream, request)?;
        read_response(&mut self.stream)
    }

    /// Submits raw claim artifact bytes for verification.
    pub fn verify_bytes(&mut self, claim_bytes: Vec<u8>) -> Result<Response, ProtocolError> {
        self.request(&Request::Verify(claim_bytes))
    }

    /// Serializes and submits a claim for verification.
    pub fn verify(&mut self, claim: &SignedClaim) -> Result<Response, ProtocolError> {
        self.verify_bytes(claim.to_bytes())
    }

    /// Fetches the metrics snapshot JSON.
    pub fn stats_json(&mut self) -> Result<String, ProtocolError> {
        let response = self.request(&Request::Stats)?;
        Ok(response.text())
    }

    /// Fetches the current registration-ledger head. On `Ok` the response
    /// payload is a `LedgerRoot` artifact.
    pub fn ledger_root(&mut self) -> Result<Response, ProtocolError> {
        self.request(&Request::Root)
    }

    /// Asks for a membership proof for a registered `(circuit, statement)`
    /// leaf. On `Ok` the response payload is a `MembershipProof` artifact;
    /// an unknown leaf gets [`Status::NotInLedger`].
    pub fn prove_member(&mut self, leaf: &LedgerLeaf) -> Result<Response, ProtocolError> {
        self.request(&Request::ProveMember(leaf.to_bytes()))
    }

    /// Asks for a consistency proof from an earlier ledger size to the
    /// current one. On `Ok` the response payload is a `ConsistencyProof`
    /// artifact; a size beyond the tree gets [`Status::NotInLedger`].
    pub fn consistency(&mut self, old_size: u64) -> Result<Response, ProtocolError> {
        self.request(&Request::Consistency(old_size))
    }
}

/// Backoff/retry tuning for [`RetryingClient`].
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total attempts per operation (the first try counts as one).
    pub max_attempts: u32,
    /// First backoff sleep; doubles on every further retry.
    pub base_delay: Duration,
    /// Ceiling on a single backoff sleep.
    pub max_delay: Duration,
    /// Overall wall-clock budget for one operation across all attempts;
    /// once spent, the last error is returned instead of sleeping again.
    pub deadline: Duration,
    /// Jitter rng seed. The default is fixed so test runs reproduce;
    /// give each client in a fleet its own seed to decorrelate retries.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 6,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(640),
            deadline: Duration::from_secs(30),
            seed: 0x7e72_7974_5f31,
        }
    }
}

/// A self-healing client for the idempotent authority operations.
///
/// Holds at most one live [`Client`] connection, lazily (re)established.
/// An operation that fails with a transport error, or is shed with
/// [`Status::Busy`], drops the connection, sleeps an exponentially
/// growing jittered backoff, reconnects, and tries again — up to
/// [`RetryPolicy::max_attempts`] and [`RetryPolicy::deadline`]. Jitter
/// comes from a seeded [`StdRng`] so runs are reproducible.
pub struct RetryingClient {
    addr: String,
    policy: RetryPolicy,
    rng: StdRng,
    conn: Option<Client>,
    retries: u64,
    busy: u64,
}

impl RetryingClient {
    /// Builds a client for `addr` (connection is established lazily on
    /// the first operation).
    pub fn new(addr: impl Into<String>, policy: RetryPolicy) -> Self {
        let seed = policy.seed;
        Self {
            addr: addr.into(),
            policy,
            rng: StdRng::seed_from_u64(seed ^ 0x6a69_7474_6572),
            conn: None,
            retries: 0,
            busy: 0,
        }
    }

    /// Retries performed so far (sleep-then-reconnect cycles, summed over
    /// every operation on this client).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// `Busy` sheds absorbed so far.
    pub fn busy_sheds(&self) -> u64 {
        self.busy
    }

    /// Submits raw claim artifact bytes for verification, retrying
    /// transport failures and `Busy` sheds.
    pub fn verify_bytes(&mut self, claim_bytes: Vec<u8>) -> Result<Response, ProtocolError> {
        self.run(&Request::Verify(claim_bytes))
    }

    /// Serializes and submits a claim for verification, with retries.
    pub fn verify(&mut self, claim: &SignedClaim) -> Result<Response, ProtocolError> {
        self.verify_bytes(claim.to_bytes())
    }

    /// Fetches the metrics snapshot JSON, with retries.
    pub fn stats_json(&mut self) -> Result<String, ProtocolError> {
        self.run(&Request::Stats).map(|r| r.text())
    }

    /// Fetches the current registration-ledger head, with retries.
    pub fn ledger_root(&mut self) -> Result<Response, ProtocolError> {
        self.run(&Request::Root)
    }

    /// One attempt: connect if needed, send, read the response.
    fn try_once(&mut self, request: &Request) -> Result<Response, ProtocolError> {
        if self.conn.is_none() {
            let conn =
                Client::connect(self.addr.as_str()).map_err(|e| ProtocolError::Io(e.kind()))?;
            self.conn = Some(conn);
        }
        let conn = self.conn.as_mut().expect("connection established above");
        conn.request(request)
    }

    /// The retry loop shared by every idempotent operation.
    fn run(&mut self, request: &Request) -> Result<Response, ProtocolError> {
        let deadline = Instant::now() + self.policy.deadline;
        let mut delay = self.policy.base_delay.max(Duration::from_millis(1));
        for attempt in 1.. {
            let outcome = self.try_once(request);
            match &outcome {
                Ok(resp) if resp.status == Status::Busy => self.busy += 1,
                Err(ProtocolError::Io(_)) => {}
                _ => return outcome,
            }
            // a Busy server closes after the frame, and after an I/O error
            // the stream's framing can't be trusted: reconnect either way
            self.conn = None;
            if attempt >= self.policy.max_attempts || Instant::now() + delay >= deadline {
                return outcome;
            }
            self.retries += 1;
            // full jitter over [delay/2, delay]
            let nanos = delay.as_nanos().min(u128::from(u64::MAX)) as u64;
            let jittered = self.rng.gen_range(nanos / 2..=nanos.max(1));
            std::thread::sleep(Duration::from_nanos(jittered));
            delay = (delay * 2).min(self.policy.max_delay);
        }
        unreachable!("the retry loop always returns")
    }
}

/// Pulls an unsigned integer field out of the flat stats JSON (the
/// document is machine-written, so a scan is reliable; this avoids a JSON
/// dependency in the offline build).
pub fn stats_field_u64(json: &str, key: &str) -> Option<u64> {
    stats_field_f64(json, key).map(|v| v as u64)
}

/// Pulls a numeric field out of the flat stats JSON.
pub fn stats_field_f64(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_scanning() {
        let json = "{\"schema\": \"zkrownn-service-stats/v1\", \"requests\": 42, \
                    \"batch_mean\": 3.25, \"max_batch\": 64, \"latency_mean_us\": 12.5}";
        assert_eq!(stats_field_u64(json, "requests"), Some(42));
        assert_eq!(stats_field_f64(json, "batch_mean"), Some(3.25));
        assert_eq!(stats_field_u64(json, "max_batch"), Some(64));
        assert_eq!(stats_field_u64(json, "nope"), None);
        assert_eq!(stats_field_f64(json, "latency_mean_us"), Some(12.5));
    }
}
