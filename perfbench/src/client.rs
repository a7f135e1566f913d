//! The benchmark's HTTP client and its output check.
//!
//! Each request goes out in one `write_all` on a socket with
//! `TCP_NODELAY` set, as common HTTP clients send it; responses are read
//! with the daemon's own `http::read_response`. (`load::request_on`, used
//! by `fb-load`, writes the head and the body in two calls, so Nagle's
//! algorithm plus delayed ACK add tens of milliseconds to every request.)

use crate::stats::Sample;
use fairbridge_serve::http::{read_response, Payload, Response};
use std::collections::BTreeMap;
use std::io::{BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// The bytes of one request with its body: head and body in one buffer.
pub fn encode(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nHost: fairbridge\r\nX-FB-Tenant: perfbench\r\n\
         Content-Length: {}\r\nContent-Type: application/json\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// One keep-alive connection.
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects with `TCP_NODELAY` and a 30 s read timeout.
    pub fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(Duration::from_secs(30))))
            .map_err(|e| format!("socket options: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Client { stream, reader })
    }

    /// Sends one encoded request and reads its response.
    pub fn send(&mut self, request: &[u8]) -> Result<Response, String> {
        self.stream
            .write_all(request)
            .map_err(|e| format!("write request: {e}"))?;
        read_response(&mut self.reader)
    }

    /// `GET path`, expecting a 200.
    pub fn get(&mut self, path: &str) -> Result<Vec<u8>, String> {
        let r = self.send(&encode("GET", path, b""))?;
        if r.status != 200 {
            return Err(format!("GET {path} returned {}", r.status));
        }
        Ok(r.body)
    }
}

/// The response a request must produce: status, every header, and the
/// body bytes of the reference payload rendered for a keep-alive
/// connection.
#[derive(Debug, Clone)]
pub struct Expected {
    status: u16,
    headers: BTreeMap<String, String>,
    body: Vec<u8>,
}

impl Expected {
    /// The expectation for `payload` on a keep-alive connection.
    pub fn from_payload(payload: &Payload) -> Expected {
        let rendered = payload.render(true);
        let head_len = rendered.len() - payload.body.len();
        let head = String::from_utf8_lossy(&rendered[..head_len]);
        let headers = head
            .split("\r\n")
            .skip(1)
            .filter_map(|l| l.split_once(':'))
            .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_owned()))
            .collect();
        Expected {
            status: payload.status,
            headers,
            body: payload.body.clone(),
        }
    }

    /// Whether `r` is exactly this response.
    pub fn matches(&self, r: &Response) -> bool {
        r.status == self.status && r.headers == self.headers && r.body == self.body
    }

    /// Flips one bit of one body byte (the self-test's corrupted reference).
    #[cfg(test)]
    pub fn corrupt(&mut self, at: usize) {
        let i = at % self.body.len();
        self.body[i] ^= 0x01;
    }
}

/// When a client loop stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After the request in flight at this instant completes.
    At(Instant),
    /// After this many requests.
    After(u64),
}

/// What one client loop did.
#[derive(Debug)]
pub struct ClientLog {
    /// Every correct request: completion, measured from the loop's
    /// origin, and round trip, first byte written to last byte read.
    pub samples: Vec<Sample>,
    /// Requests started.
    pub attempted: u64,
    /// Requests that failed.
    pub failed: u64,
    /// The first failure, for the report.
    pub first_error: Option<String>,
}

/// A closed loop over `order` (indices into `requests`/`expected`),
/// cycling until `stop`; completions are timed from `origin`. A
/// transport error ends the loop, since the connection is then unusable.
pub fn drive(
    client: &mut Client,
    order: &[usize],
    requests: &[Vec<u8>],
    expected: &[Expected],
    stop: Stop,
    origin: Instant,
) -> ClientLog {
    let mut log = ClientLog {
        samples: Vec::new(),
        attempted: 0,
        failed: 0,
        first_error: None,
    };
    for &i in order.iter().cycle() {
        match stop {
            Stop::At(t) if Instant::now() >= t => break,
            Stop::After(n) if log.attempted >= n => break,
            _ => {}
        }
        log.attempted += 1;
        let t0 = Instant::now();
        let result = client.send(&requests[i]);
        let elapsed = t0.elapsed();
        match result {
            Ok(r) if expected[i].matches(&r) => {
                log.samples
                    .push(Sample::new(t0 + elapsed - origin, elapsed));
            }
            Ok(r) => {
                log.failed += 1;
                log.first_error.get_or_insert_with(|| {
                    format!(
                        "request {i}: status {}, response differs from reference",
                        r.status
                    )
                });
            }
            Err(e) => {
                log.failed += 1;
                log.first_error.get_or_insert(format!("request {i}: {e}"));
                break;
            }
        }
    }
    log
}
